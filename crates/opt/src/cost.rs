//! The §5.1 cost model.
//!
//! Prices a [`PlanClass`](crate::plan::PlanClass) — a set of queries
//! evaluated together from one base table — by estimating, counter for
//! counter, the work the executor counts: a [`Work`] vector of hash builds
//! and probes, aggregate updates, tuple copies, predicate evaluations,
//! bitmap words and bit tests, index lookups, and sequential and random
//! page reads. [`HardwareModel::price`] prices it with the same function
//! that prices the executor's measured counters; this module reads no
//! weight. The counts come from *estimated* quantities:
//!
//! * predicate selectivities — uniformity + independence, or
//!   histogram-exact marginals when the cube carries statistics
//!   (`CubeStats`);
//! * qualifying rows and output groups — Cardenas;
//! * bitmap reads — each index member's bitmaps, read sequentially in
//!   full (members × bitmap pages);
//! * pages touched by an index-only class's probe — one random page read
//!   per candidate tuple, the conservative 1998-era estimate (no
//!   clustering, no buffer-pool reuse assumed). Actual execution of index
//!   plans on sorted views runs much faster than this estimate — candidates
//!   cluster and the pool dedups pages — reproducing the paper's own
//!   estimate/measurement gap (its Test 2 discussion);
//! * shared vs. non-shared split — scans, dimension hash tables and their
//!   probes are charged once per class (the §3 sharing); predicate
//!   evaluation, bitmap work, aggregation and result copies are charged
//!   per query, by one per-member helper.
//!
//! The paper's `CostOfUsing` / `CostOfAdd` quantities fall out as
//! differences of [`CostModel::class_cost`] between a class with and
//! without the query — exactly how ETPLG and GG consume them.
//!
//! ### Pricing once per plan
//!
//! Everything the class formula reads about one member — selectivities,
//! output groups, probe and index masks, expected predicate evaluations —
//! depends only on the (query, table) pair. An optimizer run builds a
//! `Pricer` over its query list, which derives each answerable pair's
//! quantities once; the search then prices every candidate class from
//! them by arithmetic alone, without allocating.
//!
//! Choosing join methods needs no enumeration either. In a class that
//! scans its table, a member's own terms do not depend on the other
//! members' methods, so each index-capable member takes the cheaper of its
//! two terms; if all of them prefer the index, the scan still needs one
//! hash member, the one that loses least. The only other shape is the
//! index-only class (§3.2), open when every member can use an index. At
//! every class size the search returns exactly what enumerating all `2^k`
//! method vectors returns: the first minimum in bit order, with `Hash` as
//! the 0 bit and later members as higher bits. A single query's standalone
//! choice is the one-member case of the same search.

use std::iter;

use starshare_olap::estimate::cardenas_distinct;
use starshare_olap::{Cube, GroupByQuery, LevelRef, MemberPred, TableId};
use starshare_storage::{HardwareModel, SimTime, Work, PAGE_SIZE};

use crate::plan::JoinMethod;

/// Prices query plans against one cube under a hardware model.
#[derive(Debug, Clone, Copy)]
pub struct CostModel<'a> {
    cube: &'a Cube,
    hw: HardwareModel,
}

/// Per-query derived quantities on a specific table: everything the class
/// formula reads about one member.
#[derive(Debug, Clone, Copy)]
struct QInfo {
    /// The table's rows, and the 64-bit words of one bitmap over them.
    rows: f64,
    words: f64,
    /// N × full selectivity.
    qual: f64,
    /// Estimated output groups.
    groups: f64,
    /// Dimensions needing a dimension-table probe (union shared per class).
    probe_mask: u64,
    /// Index-servable dims (bit mask) and their combined selectivity.
    covered_mask: u64,
    covered_sel: f64,
    /// Member bitmaps the index phase reads, and their total pages.
    idx_members: f64,
    idx_pages: f64,
    /// Number of indexed dims (for the AND count).
    idx_dims: u32,
    /// Expected predicate evaluations per tuple with short-circuiting, over
    /// every predicate (a hash plan's filter).
    evals_all: f64,
    /// The same over the predicates no index covers (an index plan's
    /// residual filter on its candidates).
    evals_residual: f64,
}

impl QInfo {
    /// True if an index plan is possible: some predicate is index-served.
    fn index_capable(&self) -> bool {
        self.covered_mask != 0
    }

    /// The member's own terms in a class that reads `scanned` tuples (the
    /// whole table, or an index-only class's candidates) with method `m`.
    /// [`CostModel::price`] charges exactly these per member.
    fn terms(&self, m: JoinMethod, scanned: f64) -> Work {
        // Aggregation: probe, update and copy per qualifying tuple, one
        // build per output group.
        let mut work = Work {
            hash_builds: self.groups,
            hash_probes: self.qual,
            agg_updates: self.qual,
            tuple_copies: self.qual,
            ..Work::default()
        };
        match m {
            JoinMethod::Hash => work.predicate_evals = self.rows * self.evals_all,
            JoinMethod::Index => {
                // Read the member bitmaps, OR them per dimension and AND
                // the dimensions.
                work.index_lookups = self.idx_members;
                work.bitmap_words =
                    (self.idx_members + self.idx_dims.saturating_sub(1) as f64) * self.words;
                work.seq_pages = self.idx_pages;
                // Bitmap test per scanned tuple, residual preds on
                // candidates only.
                work.bitmap_tests = scanned;
                work.predicate_evals = self.rows * self.covered_sel * self.evals_residual;
            }
        }
        work
    }
}

impl<'a> CostModel<'a> {
    /// Creates a cost model.
    pub fn new(cube: &'a Cube, hw: HardwareModel) -> Self {
        CostModel { cube, hw }
    }

    /// The cube being planned against.
    pub fn cube(&self) -> &'a Cube {
        self.cube
    }

    /// True if an index-based star join of `q` on `t` is possible: at least
    /// one predicate servable from a bitmap join index of `t`.
    pub fn index_applicable(&self, q: &GroupByQuery, t: TableId) -> bool {
        let table = self.cube.catalog.table(t);
        q.preds.iter().enumerate().any(|(d, p)| match p.level() {
            Some(pl) => table.index_serves(d, pl),
            None => false,
        })
    }

    fn qinfo(&self, q: &GroupByQuery, t: TableId) -> Option<QInfo> {
        let schema = &self.cube.schema;
        let table = self.cube.catalog.table(t);
        if !table.can_answer(q) {
            return None;
        }
        let n = table.n_rows() as f64;
        // Predicate selectivities: histogram-exact marginals when the cube
        // carries statistics, the classical uniform assumption otherwise.
        let stats = self.cube.stats.as_ref();

        let mut probe_mask = 0u64;
        let mut covered_mask = 0u64;
        let mut covered_sel = 1.0;
        let mut idx_members = 0.0;
        let mut idx_pages = 0.0;
        let mut idx_dims = 0u32;
        let mut total_sel = 1.0;
        let mut combos = 1.0;
        // Short-circuit evaluation in dimension order: a predicate is
        // reached by the tuples every earlier one passed.
        let (mut evals_all, mut reach_all) = (0.0, 1.0);
        let (mut evals_residual, mut reach_residual) = (0.0, 1.0);
        let words = table.n_rows().div_ceil(64);
        let bitmap_pages = ((words * 8).div_ceil(PAGE_SIZE as u64)).max(1);

        for d in 0..schema.n_dims() {
            let pred = &q.preds[d];
            let sel = match stats {
                Some(st) => st.pred_selectivity(schema, d, pred),
                None => pred.selectivity(schema, d),
            };
            // Restricted output-combination space at the target group-by.
            if let LevelRef::Level(tl) = q.group_by.level(d) {
                combos *= schema.dim(d).cardinality(tl) as f64 * sel.min(1.0);
            }
            let stored = match table.group_by().level(d) {
                LevelRef::Level(s) => s,
                LevelRef::All => continue,
            };
            if let LevelRef::Level(tl) = q.group_by.level(d) {
                if tl > stored {
                    probe_mask |= 1 << d;
                }
            }
            if let MemberPred::In { level, members } = pred {
                total_sel *= sel;
                evals_all += reach_all;
                reach_all *= sel;
                if *level > stored {
                    probe_mask |= 1 << d;
                }
                match table.index(d).filter(|ix| ix.serves_level(*level)) {
                    Some(ix) => {
                        covered_mask |= 1 << d;
                        covered_sel *= sel;
                        idx_dims += 1;
                        let fan = schema.dim(d).fan_out_between(ix.level, *level) as f64;
                        let m = members.len() as f64 * fan;
                        idx_members += m;
                        idx_pages += m * bitmap_pages as f64;
                    }
                    None => {
                        evals_residual += reach_residual;
                        reach_residual *= sel;
                    }
                }
            }
        }
        let qual = n * total_sel;
        Some(QInfo {
            rows: n,
            words: words as f64,
            qual,
            groups: cardenas_distinct(qual, combos.max(1.0)),
            probe_mask,
            covered_mask,
            covered_sel,
            idx_members,
            idx_pages,
            idx_dims,
            evals_all,
            evals_residual,
        })
    }

    /// Hash-table build rows for the probed dimensions in `mask`.
    fn build_rows(&self, t: TableId, mask: u64) -> f64 {
        let table = self.cube.catalog.table(t);
        let mut rows = 0.0;
        for d in 0..self.cube.schema.n_dims() {
            if mask & (1 << d) != 0 {
                if let LevelRef::Level(s) = table.group_by().level(d) {
                    rows += self.cube.schema.dim(d).cardinality(s) as f64;
                }
            }
        }
        rows
    }

    /// The class formula over derived member quantities: the class's
    /// estimated [`Work`], priced once. Every `Index` member must be
    /// [index-capable](QInfo::index_capable).
    fn price<'i, I>(&self, t: TableId, members: I) -> SimTime
    where
        I: Iterator<Item = (&'i QInfo, JoinMethod)> + Clone,
    {
        if members.clone().next().is_none() {
            return SimTime::ZERO;
        }
        let table = self.cube.catalog.table(t);
        let n = table.n_rows() as f64;
        let union_mask = members.clone().fold(0u64, |m, (i, _)| m | i.probe_mask);

        // Shared dimension hash tables.
        let mut work = Work {
            hash_builds: self.build_rows(t, union_mask),
            ..Work::default()
        };
        let scanned = if members.clone().any(|(_, m)| m == JoinMethod::Hash) {
            // One shared sequential scan feeds everything (§3.1/3.3).
            work.seq_pages = table.pages() as f64;
            n
        } else {
            // Index-only class (§3.2): OR the query bitmaps, probe once.
            let n_bitmaps = members.clone().count() as f64;
            work.bitmap_words = (n_bitmaps - 1.0) * table.n_rows().div_ceil(64) as f64;
            let union_cand = n
                * (1.0
                    - members
                        .clone()
                        .map(|(i, _)| 1.0 - i.covered_sel)
                        .product::<f64>());
            // Conservative: one random read per candidate, capped at re-
            // reading the whole table page set once per candidate round.
            work.random_pages = union_cand.min(n);
            union_cand
        };
        work.tuple_copies = scanned;
        work.hash_probes = scanned * union_mask.count_ones() as f64;
        for (info, m) in members {
            work += info.terms(m, scanned);
        }
        self.hw.price(&work)
    }

    /// A member's own terms in a class that scans its table, priced
    /// unrounded: the rest of such a class's cost does not depend on the
    /// member's method.
    fn scan_member_ns(&self, info: &QInfo, m: JoinMethod) -> f64 {
        self.hw.nanos(&info.terms(m, info.rows))
    }

    /// The cheapest join-method vector for `members` evaluated together
    /// from `t`, at any class size: writes it to `out` (cleared first) and
    /// returns its cost.
    fn search_methods<'i, I>(&self, t: TableId, members: I, out: &mut Vec<JoinMethod>) -> SimTime
    where
        I: Iterator<Item = &'i QInfo> + Clone,
    {
        use JoinMethod::{Hash, Index};
        out.clear();
        let cost_of =
            |methods: &[JoinMethod]| self.price(t, members.clone().zip(methods.iter().copied()));
        // With a scan, each member takes its cheaper term (ties keep Hash,
        // the lower bit).
        out.extend(members.clone().map(|i| {
            if i.index_capable() && self.scan_member_ns(i, Index) < self.scan_member_ns(i, Hash) {
                Index
            } else {
                Hash
            }
        }));
        let scan_cost = if out.is_empty() || out.contains(&Hash) {
            cost_of(out)
        } else {
            // Every member prefers its index, yet a scan needs a hash
            // member: the one that loses least, last member first on ties.
            // A member's loss is its own terms' difference, the rest of the
            // class being unchanged. Prices round to whole nanoseconds, so a
            // member more than 2 ns behind the least loss cannot tie the
            // cheapest class; only the others are priced.
            let loss = |i: &QInfo| self.scan_member_ns(i, Hash) - self.scan_member_ns(i, Index);
            let least = members.clone().map(loss).fold(f64::INFINITY, f64::min);
            let mut best: Option<(usize, SimTime)> = None;
            for (k, i) in members.clone().enumerate() {
                if loss(i) > least + 2.0 {
                    continue;
                }
                out[k] = Hash;
                let c = cost_of(out);
                out[k] = Index;
                if best.is_none_or(|(_, b)| c <= b) {
                    best = Some((k, c));
                }
            }
            let (k, c) = best.expect("the class has members");
            out[k] = Hash;
            c
        };
        if !out.is_empty() && members.clone().all(QInfo::index_capable) {
            // The index-only class skips the scan; it is the last vector in
            // bit order, so it must be strictly cheaper.
            let index_only = self.price(t, members.map(|i| (i, Index)));
            if index_only < scan_cost {
                out.fill(Index);
                return index_only;
            }
        }
        scan_cost
    }

    /// The cheapest singleton class over `options` (table, member
    /// quantities): the one-member [`search_methods`](Self::search_methods)
    /// per table, the first strict minimum winning.
    fn cheapest_standalone<'i>(
        &self,
        options: impl Iterator<Item = (TableId, &'i QInfo)>,
    ) -> Option<(TableId, JoinMethod, SimTime)> {
        let mut method = Vec::with_capacity(1);
        let mut best: Option<(TableId, JoinMethod, SimTime)> = None;
        for (t, info) in options {
            let c = self.search_methods(t, iter::once(info), &mut method);
            if best.is_none_or(|(_, _, bc)| c < bc) {
                best = Some((t, method[0], c));
            }
        }
        best
    }

    /// Estimated cost of evaluating `plans` together from `t` with the §3
    /// shared operators. Returns `None` if any query is unanswerable from
    /// `t`, or an `Index` method is requested where no index applies.
    pub fn class_cost(&self, t: TableId, plans: &[(&GroupByQuery, JoinMethod)]) -> Option<SimTime> {
        let infos = plans
            .iter()
            .map(|&(q, m)| {
                self.qinfo(q, t)
                    .filter(|i| m == JoinMethod::Hash || i.index_capable())
            })
            .collect::<Option<Vec<QInfo>>>()?;
        Some(self.price(t, infos.iter().zip(plans.iter().map(|&(_, m)| m))))
    }

    /// Standalone cost of one query from `t` with method `m` (a singleton
    /// class).
    pub fn standalone(&self, q: &GroupByQuery, t: TableId, m: JoinMethod) -> Option<SimTime> {
        self.class_cost(t, &[(q, m)])
    }

    /// The best local plan for a single query: cheapest (table, method) over
    /// all candidate tables. This is the paper's "optimal local plan".
    pub fn best_local(&self, q: &GroupByQuery) -> Option<(TableId, JoinMethod, SimTime)> {
        let infos: Vec<(TableId, QInfo)> = self
            .cube
            .catalog
            .candidates_for(q)
            .into_iter()
            .filter_map(|t| Some((t, self.qinfo(q, t)?)))
            .collect();
        self.cheapest_standalone(infos.iter().map(|(t, i)| (*t, i)))
    }
}

/// One optimizer run's price table over a fixed query list. Each answerable
/// (query, table) pair's quantities are derived once, when the pricer is
/// built; every class the search then considers is priced from them without
/// allocating. Queries are named by their index in the list.
pub(crate) struct Pricer<'c, 'q> {
    cm: CostModel<'c>,
    queries: &'q [GroupByQuery],
    n_tables: usize,
    /// `infos[qi * n_tables + t]`: `None` where table `t` cannot answer
    /// query `qi`.
    infos: Vec<Option<QInfo>>,
    /// Per query, the tables that can answer it, fewest rows first.
    candidates: Vec<Vec<TableId>>,
}

impl<'c, 'q> Pricer<'c, 'q> {
    /// Prices every (query, candidate table) pair of `queries`.
    pub(crate) fn new(cm: &CostModel<'c>, queries: &'q [GroupByQuery]) -> Self {
        let catalog = &cm.cube.catalog;
        let n_tables = catalog.n_tables();
        let mut infos = vec![None; queries.len() * n_tables];
        let candidates = queries
            .iter()
            .enumerate()
            .map(|(qi, q)| {
                let tables = catalog.candidates_for(q);
                for &t in &tables {
                    infos[qi * n_tables + t.0] = cm.qinfo(q, t);
                }
                tables
            })
            .collect();
        Pricer {
            cm: *cm,
            queries,
            n_tables,
            infos,
            candidates,
        }
    }

    /// The cube being planned against.
    pub(crate) fn cube(&self) -> &'c Cube {
        self.cm.cube
    }

    /// Query `qi` of the list.
    pub(crate) fn query(&self, qi: usize) -> &'q GroupByQuery {
        &self.queries[qi]
    }

    /// The tables that can answer query `qi`, fewest rows first.
    pub(crate) fn candidates(&self, qi: usize) -> &[TableId] {
        &self.candidates[qi]
    }

    /// True if table `t` can answer query `qi`.
    pub(crate) fn answers(&self, qi: usize, t: TableId) -> bool {
        self.info(qi, t).is_some()
    }

    fn info(&self, qi: usize, t: TableId) -> Option<&QInfo> {
        self.infos[qi * self.n_tables + t.0].as_ref()
    }

    /// Cost of evaluating `plans` (query index, method) together from `t`:
    /// [`CostModel::class_cost`] over the price table.
    pub(crate) fn class_cost<I>(&self, t: TableId, plans: I) -> Option<SimTime>
    where
        I: Iterator<Item = (usize, JoinMethod)> + Clone,
    {
        let valid = plans.clone().all(|(qi, m)| {
            self.info(qi, t)
                .is_some_and(|i| m == JoinMethod::Hash || i.index_capable())
        });
        valid.then(|| {
            self.cm.price(
                t,
                plans.map(|(qi, m)| (self.info(qi, t).expect("validated"), m)),
            )
        })
    }

    /// The cheapest method vector for `members` evaluated together from
    /// `t`, written to `out`: [`CostModel::search_methods`] over the price
    /// table. `None` if `t` cannot answer every member.
    pub(crate) fn best_methods<I>(
        &self,
        t: TableId,
        members: I,
        out: &mut Vec<JoinMethod>,
    ) -> Option<SimTime>
    where
        I: Iterator<Item = usize> + Clone,
    {
        if !members.clone().all(|qi| self.answers(qi, t)) {
            return None;
        }
        let infos = members.map(|qi| self.info(qi, t).expect("validated"));
        Some(self.cm.search_methods(t, infos, out))
    }

    /// The cheapest standalone (table, method) for query `qi` over its
    /// candidate tables outside `skip`: [`CostModel::best_local`] when
    /// `skip` is empty.
    pub(crate) fn best_standalone(
        &self,
        qi: usize,
        skip: &[TableId],
    ) -> Option<(TableId, JoinMethod, SimTime)> {
        let options = self.candidates[qi]
            .iter()
            .filter(|t| !skip.contains(t))
            .map(|&t| (t, self.info(qi, t).expect("candidates answer")));
        self.cm.cheapest_standalone(options)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starshare_olap::{paper_cube, MemberPred, PaperCubeSpec};

    fn cube() -> Cube {
        paper_cube(PaperCubeSpec {
            base_rows: 50_000,
            d_leaf: 192,
            seed: 9,
            with_indexes: true,
        })
    }

    fn broad_query(cube: &Cube) -> GroupByQuery {
        GroupByQuery::new(
            cube.groupby("A'B''C''D"),
            vec![
                MemberPred::members_in(1, vec![0, 1, 2]),
                MemberPred::All,
                MemberPred::eq(2, 0),
                MemberPred::members_in(1, (0..12).collect()),
            ],
        )
    }

    fn selective_query(cube: &Cube) -> GroupByQuery {
        GroupByQuery::new(
            cube.groupby("A'B'C'D"),
            vec![
                MemberPred::eq(1, 1),
                MemberPred::eq(1, 2),
                MemberPred::eq(1, 4),
                MemberPred::eq(1, 0),
            ],
        )
    }

    #[test]
    fn smaller_table_is_cheaper_for_hash() {
        let cube = cube();
        let cm = CostModel::new(&cube, HardwareModel::paper_1998());
        let q = broad_query(&cube);
        let big = cube.catalog.find_by_name("ABCD").unwrap();
        let small = cube.catalog.find_by_name("A'B''C'D").unwrap();
        let cb = cm.standalone(&q, big, JoinMethod::Hash).unwrap();
        let cs = cm.standalone(&q, small, JoinMethod::Hash).unwrap();
        assert!(cs < cb, "{cs} vs {cb}");
    }

    #[test]
    fn selective_query_prefers_index() {
        let cube = cube();
        let cm = CostModel::new(&cube, HardwareModel::paper_1998());
        let q = selective_query(&cube);
        let t = cube.catalog.find_by_name("A'B'C'D").unwrap();
        let h = cm.standalone(&q, t, JoinMethod::Hash).unwrap();
        let i = cm.standalone(&q, t, JoinMethod::Index).unwrap();
        assert!(i < h, "index {i} vs hash {h}");
        let (_, m, _) = cm.best_local(&q).unwrap();
        assert_eq!(m, JoinMethod::Index);
    }

    #[test]
    fn broad_query_prefers_hash() {
        let cube = cube();
        let cm = CostModel::new(&cube, HardwareModel::paper_1998());
        let q = broad_query(&cube);
        let t = cube.catalog.find_by_name("A'B'C'D").unwrap();
        let h = cm.standalone(&q, t, JoinMethod::Hash).unwrap();
        let i = cm.standalone(&q, t, JoinMethod::Index).unwrap();
        assert!(h < i, "hash {h} vs index {i}");
    }

    #[test]
    fn shared_class_is_cheaper_than_two_singletons() {
        let cube = cube();
        let cm = CostModel::new(&cube, HardwareModel::paper_1998());
        let t = cube.catalog.find_by_name("A'B'C'D").unwrap();
        let q1 = broad_query(&cube);
        let q2 = GroupByQuery::new(
            cube.groupby("A''B'C''D"),
            vec![
                MemberPred::All,
                MemberPred::members_in(1, vec![2, 3]),
                MemberPred::eq(2, 1),
                MemberPred::eq(1, 0),
            ],
        );
        let single1 = cm.standalone(&q1, t, JoinMethod::Hash).unwrap();
        let single2 = cm.standalone(&q2, t, JoinMethod::Hash).unwrap();
        let shared = cm
            .class_cost(t, &[(&q1, JoinMethod::Hash), (&q2, JoinMethod::Hash)])
            .unwrap();
        assert!(
            shared < single1 + single2,
            "shared {shared} vs {}",
            single1 + single2
        );
        // But the shared class still costs more than either alone.
        assert!(shared > single1);
        assert!(shared > single2);
    }

    #[test]
    fn index_method_requires_applicable_index() {
        let cube = cube();
        let cm = CostModel::new(&cube, HardwareModel::paper_1998());
        let q = broad_query(&cube);
        // A''B''C''D has no indexes.
        let t = cube.catalog.find_by_name("A''B''C''D").unwrap();
        assert!(!cm.index_applicable(&q, t));
        assert!(cm.standalone(&q, t, JoinMethod::Index).is_none());
        // Hash still works... but only if answerable (it is not: needs A').
        assert!(cm.standalone(&q, t, JoinMethod::Hash).is_none());
    }

    #[test]
    fn unanswerable_table_returns_none() {
        let cube = cube();
        let cm = CostModel::new(&cube, HardwareModel::paper_1998());
        let q = selective_query(&cube); // needs A'B'C'D levels
        let t = cube.catalog.find_by_name("A'B''C'D").unwrap();
        assert_eq!(cm.class_cost(t, &[(&q, JoinMethod::Hash)]), None);
    }

    #[test]
    fn empty_class_is_free() {
        let cube = cube();
        let cm = CostModel::new(&cube, HardwareModel::paper_1998());
        let t = cube.catalog.find_by_name("ABCD").unwrap();
        assert_eq!(cm.class_cost(t, &[]), Some(SimTime::ZERO));
    }

    #[test]
    fn method_search_beats_all_hash_when_index_helps() {
        let cube = cube();
        let cm = CostModel::new(&cube, HardwareModel::paper_1998());
        let t = cube.catalog.find_by_name("A'B'C'D").unwrap();
        let qs = [
            selective_query(&cube),
            GroupByQuery::new(
                cube.groupby("A'B'C'D"),
                vec![
                    MemberPred::eq(1, 3),
                    MemberPred::eq(1, 5),
                    MemberPred::eq(1, 0),
                    MemberPred::eq(1, 1),
                ],
            ),
        ];
        let mut methods = Vec::new();
        let cost = Pricer::new(&cm, &qs)
            .best_methods(t, 0..2, &mut methods)
            .unwrap();
        let all_hash = cm
            .class_cost(t, &[(&qs[0], JoinMethod::Hash), (&qs[1], JoinMethod::Hash)])
            .unwrap();
        assert!(cost <= all_hash);
        assert_eq!(methods, vec![JoinMethod::Index, JoinMethod::Index]);
    }

    #[test]
    fn best_local_picks_smallest_adequate_view() {
        let cube = cube();
        let cm = CostModel::new(&cube, HardwareModel::paper_1998());
        let q = broad_query(&cube);
        let (t, m, _) = cm.best_local(&q).unwrap();
        assert_eq!(cube.catalog.table(t).name(), "A'B''C'D");
        assert_eq!(m, JoinMethod::Hash);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use starshare_olap::{paper_cube, GroupBy, LevelRef, MemberPred, PaperCubeSpec};
    use starshare_prng::Prng;
    use std::sync::OnceLock;

    fn cube() -> &'static Cube {
        static CUBE: OnceLock<Cube> = OnceLock::new();
        CUBE.get_or_init(|| {
            paper_cube(PaperCubeSpec {
                base_rows: 5_000,
                d_leaf: 48,
                seed: 2,
                with_indexes: true,
            })
        })
    }

    fn random_dim(rng: &mut Prng, card1: u32) -> (LevelRef, MemberPred) {
        let level = if rng.gen_bool(0.5) {
            LevelRef::All
        } else {
            LevelRef::Level(rng.gen_range(0u8..3))
        };
        let pred = if rng.gen_bool(1.0 / 3.0) {
            MemberPred::All
        } else {
            let lvl = rng.gen_range(1u8..3);
            let card = if lvl == 1 { card1 } else { 3 };
            let n = rng.gen_range(1usize..3);
            let ms: Vec<u32> = (0..n).map(|_| rng.gen_range(0u32..24) % card).collect();
            MemberPred::members_in(lvl, ms)
        };
        (level, pred)
    }

    fn random_query(rng: &mut Prng) -> GroupByQuery {
        let specs = [
            random_dim(rng, 6),
            random_dim(rng, 6),
            random_dim(rng, 6),
            random_dim(rng, 24),
        ];
        let (levels, preds): (Vec<LevelRef>, Vec<MemberPred>) = specs.into_iter().unzip();
        GroupByQuery::new(GroupBy::new(levels), preds)
    }

    /// Adding a query to a class never decreases its cost (the paper's
    /// own §6 claim that `CostOfAdd` cannot be negative — true here
    /// because existing members' methods are held fixed).
    #[test]
    fn class_cost_is_monotone_in_members() {
        let cube = cube();
        let cm = CostModel::new(cube, HardwareModel::paper_1998());
        let base = cube.catalog.base_table().unwrap();
        let mut rng = Prng::seed_from_u64(0xC0_0001);
        for _ in 0..32 {
            let n = rng.gen_range(1usize..4);
            let qs: Vec<GroupByQuery> = (0..n).map(|_| random_query(&mut rng)).collect();
            let extra = random_query(&mut rng);
            let plans: Vec<(&GroupByQuery, JoinMethod)> =
                qs.iter().map(|q| (q, JoinMethod::Hash)).collect();
            let before = cm.class_cost(base, &plans).expect("base answers all");
            let mut with_extra = plans.clone();
            with_extra.push((&extra, JoinMethod::Hash));
            let after = cm.class_cost(base, &with_extra).expect("still answerable");
            assert!(
                after >= before,
                "adding a member reduced cost: {after} < {before}"
            );
        }
    }

    /// A shared all-hash class never costs more than running its
    /// members' scans separately on the same table (the §3.1 saving is
    /// non-negative by construction).
    #[test]
    fn shared_scan_class_is_subadditive() {
        let cube = cube();
        let cm = CostModel::new(cube, HardwareModel::paper_1998());
        let base = cube.catalog.base_table().unwrap();
        let mut rng = Prng::seed_from_u64(0xC0_0002);
        for _ in 0..32 {
            let n = rng.gen_range(1usize..5);
            let qs: Vec<GroupByQuery> = (0..n).map(|_| random_query(&mut rng)).collect();
            let plans: Vec<(&GroupByQuery, JoinMethod)> =
                qs.iter().map(|q| (q, JoinMethod::Hash)).collect();
            let shared = cm.class_cost(base, &plans).unwrap();
            let separate: SimTime = qs
                .iter()
                .map(|q| cm.standalone(q, base, JoinMethod::Hash).unwrap())
                .sum();
            assert!(shared <= separate, "shared {shared} > separate {separate}");
        }
    }

    /// Cost estimates are deterministic.
    #[test]
    fn cost_is_deterministic() {
        let cube = cube();
        let cm = CostModel::new(cube, HardwareModel::paper_1998());
        let mut rng = Prng::seed_from_u64(0xC0_0003);
        for _ in 0..32 {
            let q = random_query(&mut rng);
            for t in cube.catalog.candidates_for(&q) {
                for m in [JoinMethod::Hash, JoinMethod::Index] {
                    assert_eq!(cm.standalone(&q, t, m), cm.standalone(&q, t, m));
                }
            }
        }
    }

    /// The best local plan really is minimal over every (table, method)
    /// the model accepts.
    #[test]
    fn best_local_is_actually_best() {
        let cube = cube();
        let cm = CostModel::new(cube, HardwareModel::paper_1998());
        let mut rng = Prng::seed_from_u64(0xC0_0004);
        for _ in 0..32 {
            let q = random_query(&mut rng);
            let (_, _, best) = cm.best_local(&q).expect("base always answers");
            for t in cube.catalog.candidates_for(&q) {
                for m in [JoinMethod::Hash, JoinMethod::Index] {
                    if let Some(c) = cm.standalone(&q, t, m) {
                        assert!(best <= c, "best_local {best} beaten by {c}");
                    }
                }
            }
        }
    }

    /// A query predicating every dimension on one level-1 member: the kind
    /// an index plan wins for.
    fn selective_query(rng: &mut Prng) -> GroupByQuery {
        let cards = [6u32, 6, 6, 24];
        let levels = (0..4)
            .map(|_| {
                if rng.gen_bool(0.5) {
                    LevelRef::All
                } else {
                    LevelRef::Level(rng.gen_range(0u8..2))
                }
            })
            .collect();
        let preds = cards
            .iter()
            .map(|&c| MemberPred::eq(1, rng.gen_range(0u32..c)))
            .collect();
        GroupByQuery::new(GroupBy::new(levels), preds)
    }

    /// The method search over `queries`' quantities on `t`; `None` if `t`
    /// cannot answer every query.
    fn searched_assignment(
        cm: &CostModel<'_>,
        t: TableId,
        queries: &[&GroupByQuery],
    ) -> Option<(Vec<JoinMethod>, SimTime)> {
        let infos = queries
            .iter()
            .map(|q| cm.qinfo(q, t))
            .collect::<Option<Vec<QInfo>>>()?;
        let mut methods = Vec::new();
        let cost = cm.search_methods(t, infos.iter(), &mut methods);
        Some((methods, cost))
    }

    /// Reference search: enumerate every method vector of the
    /// index-capable members and keep the first strict minimum. Each
    /// member's quantities are derived once, and every vector is priced by
    /// the class formula itself.
    fn enumerated_assignment(
        cm: &CostModel<'_>,
        t: TableId,
        queries: &[&GroupByQuery],
    ) -> Option<(Vec<JoinMethod>, SimTime)> {
        let infos = queries
            .iter()
            .map(|q| cm.qinfo(q, t))
            .collect::<Option<Vec<QInfo>>>()?;
        let flexible: Vec<usize> = (0..infos.len())
            .filter(|&k| infos[k].index_capable())
            .collect();
        let mut methods = vec![JoinMethod::Hash; infos.len()];
        let mut best: Option<(Vec<JoinMethod>, SimTime)> = None;
        for bits in 0u32..(1 << flexible.len()) {
            for (b, &k) in flexible.iter().enumerate() {
                methods[k] = if bits & (1 << b) != 0 {
                    JoinMethod::Index
                } else {
                    JoinMethod::Hash
                };
            }
            let cost = cm.price(t, infos.iter().zip(methods.iter().copied()));
            if best.as_ref().is_none_or(|(_, c)| cost < *c) {
                best = Some((methods.clone(), cost));
            }
        }
        best
    }

    /// A query filtering one dimension on a few level-1 members: cheap to
    /// bit-test on a scan, expensive to fetch alone by random reads.
    fn one_filter_query(rng: &mut Prng) -> GroupByQuery {
        let d = rng.gen_range(0usize..4);
        let card = if d == 3 { 24 } else { 6 };
        let n = rng.gen_range(1u32..4);
        let members = (0..n).map(|_| rng.gen_range(0u32..card)).collect();
        let mut preds = vec![MemberPred::All; 4];
        preds[d] = MemberPred::members_in(1, members);
        let levels = (0..4)
            .map(|_| LevelRef::Level(rng.gen_range(1u8..3)))
            .collect();
        GroupByQuery::new(GroupBy::new(levels), preds)
    }

    /// The linear method search returns exactly the enumeration's method
    /// vector and cost, on random classes over every table. The classes
    /// reach every shape: index-only, mixed, a scan forced on members that
    /// all prefer their index (with exact ties from duplicate members),
    /// and classes of more than 12 index-capable members (over 4096
    /// vectors to enumerate).
    #[test]
    fn method_search_matches_enumeration() {
        let cube = cube();
        let cm = CostModel::new(cube, HardwareModel::paper_1998());
        let mut rng = Prng::seed_from_u64(0xC0_0005);
        let (mut index_only, mut mixed, mut forced, mut wide) = (0, 0, 0, 0);
        for _ in 0..400 {
            let n = rng.gen_range(1usize..16);
            let kind = rng.gen_range(0u32..6);
            let mut qs: Vec<GroupByQuery> = Vec::with_capacity(n);
            for _ in 0..n {
                let q = match kind {
                    0 => random_query(&mut rng),
                    1 | 2 => one_filter_query(&mut rng),
                    3 if !qs.is_empty() && rng.gen_bool(0.5) => {
                        qs[rng.gen_range(0..qs.len())].clone()
                    }
                    3 => one_filter_query(&mut rng),
                    4 => selective_query(&mut rng),
                    _ if rng.gen_bool(0.5) => selective_query(&mut rng),
                    _ => random_query(&mut rng),
                };
                qs.push(q);
            }
            let refs: Vec<&GroupByQuery> = qs.iter().collect();
            for (t, _) in cube.catalog.iter() {
                let want = enumerated_assignment(&cm, t, &refs);
                let got = searched_assignment(&cm, t, &refs);
                assert_eq!(got, want, "table {t:?}, {n} queries");
                let Some((methods, _)) = got else { continue };
                let infos: Vec<QInfo> = refs.iter().map(|q| cm.qinfo(q, t).unwrap()).collect();
                let all_prefer_index = infos.iter().all(|i| {
                    i.index_capable()
                        && cm.scan_member_ns(i, JoinMethod::Index)
                            < cm.scan_member_ns(i, JoinMethod::Hash)
                });
                if infos.iter().filter(|i| i.index_capable()).count() > 12 {
                    wide += 1;
                }
                if methods.iter().all(|&m| m == JoinMethod::Index) {
                    index_only += 1;
                } else if all_prefer_index && n > 1 {
                    forced += 1;
                } else if methods.contains(&JoinMethod::Index) {
                    mixed += 1;
                }
            }
        }
        assert!(
            index_only > 0 && mixed > 0 && forced > 0 && wide > 0,
            "shapes: {index_only} index-only, {mixed} mixed, {forced} forced, {wide} wide"
        );
    }

    /// The per-run price table agrees with the model it memoizes: class
    /// costs, method searches and best local plans are the same numbers.
    #[test]
    fn pricer_agrees_with_cost_model() {
        let cube = cube();
        let cm = CostModel::new(cube, HardwareModel::paper_1998());
        let mut rng = Prng::seed_from_u64(0xC0_0006);
        let qs: Vec<GroupByQuery> = (0..24)
            .map(|i| {
                if i % 3 == 0 {
                    selective_query(&mut rng)
                } else {
                    random_query(&mut rng)
                }
            })
            .collect();
        let pr = Pricer::new(&cm, &qs);
        let mut methods = Vec::new();
        for (qi, q) in qs.iter().enumerate() {
            assert_eq!(pr.best_standalone(qi, &[]), cm.best_local(q));
            assert_eq!(pr.candidates(qi), cube.catalog.candidates_for(q).as_slice());
        }
        for (t, _) in cube.catalog.iter() {
            for window in (0..qs.len()).collect::<Vec<_>>().windows(5) {
                let refs: Vec<&GroupByQuery> = window.iter().map(|&qi| &qs[qi]).collect();
                let got = pr.best_methods(t, window.iter().copied(), &mut methods);
                let want = searched_assignment(&cm, t, &refs);
                assert_eq!(got.map(|c| (methods.clone(), c)), want);
                for m in [JoinMethod::Hash, JoinMethod::Index] {
                    let plans: Vec<(&GroupByQuery, JoinMethod)> =
                        refs.iter().map(|q| (*q, m)).collect();
                    let got = pr.class_cost(t, window.iter().map(|&qi| (qi, m)));
                    assert_eq!(got, cm.class_cost(t, &plans));
                }
            }
        }
    }
}
