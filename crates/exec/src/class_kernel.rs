//! The class-level batch kernel: one pass per scan batch for every member
//! of a shared-scan class.
//!
//! The shared operators (§3.1/§3.3) read each page once for the whole
//! class; this kernel also *filters* once per batch for the whole class,
//! instead of once per member:
//!
//! * **Hash members share predicate masks.** For every predicated
//!   dimension the kernel holds a table from stored key to a `u64` mask of
//!   the members the key satisfies (a member with no predicate on that
//!   dimension has its bit set for every key) — the per-dimension
//!   key→query-bitmask lookup of CJOIN (Candea et al., VLDB 2009). Each row
//!   carries a running mask through the dimensions in ascending order;
//!   survivors scatter into per-member selection vectors in row order.
//! * **Index members are bitmap-seeded.** Each index member's selection
//!   vector starts from its result bitmap's set bits in the batch's
//!   position range ("use the result bitmap as the selection filter after
//!   the scan", §3.3); its residual predicate cascade then runs over just
//!   those rows.
//!
//! Results, every CPU counter, and hence the simulated clock are
//! bit-identical to running each member's own cascade row by row. See
//! DESIGN.md, "The class kernel", for the charge-equivalence argument and
//! the rule that picks masks over per-member cascades.

use starshare_olap::{Cube, LevelRef, TableId};
use starshare_storage::{CpuCounters, ScanBatch};

use crate::kernel::GroupAcc;
use crate::operators::QueryState;
use crate::rollup::STORED_BITSET_MAX_DOMAIN;

/// Members per mask group: one bit of a `u64` each.
const GROUP_WIDTH: usize = 64;

/// One predicated dimension of a mask group.
#[derive(Debug)]
struct MaskStep {
    dim: usize,
    /// Group members with a predicate on `dim`.
    has_pred: u64,
    /// Stored key → group members the key does not rule out.
    lut: Vec<u64>,
    /// The mask for a key outside the stored domain: members without a
    /// predicate here (a predicate's membership test rejects such keys).
    miss: u64,
}

/// How one group of up to [`GROUP_WIDTH`] consecutive hash members filters.
#[derive(Debug)]
enum HashGroup {
    /// Each member runs its own [`crate::rollup::DimPipeline`] cascade.
    Cascade { lo: usize, hi: usize },
    /// Shared predicate masks over members `lo..hi`.
    Masks {
        lo: usize,
        hi: usize,
        steps: Vec<MaskStep>,
    },
}

/// A class compiled for batch execution: hash members `0..n_hash` in
/// mask or cascade groups, index members `n_hash..` bitmap-seeded.
///
/// Built once per class after phase 1 (compile + result bitmaps) and
/// immutable afterwards, so morsel workers share it.
#[derive(Debug)]
pub(crate) struct ClassKernel {
    n_hash: usize,
    /// Union of the members' dimension-probe needs.
    probe_mask: u64,
    groups: Vec<HashGroup>,
    /// Test oracle: run every member alone, index members row at a time
    /// over keys of this many dimensions (the executor's path before this
    /// kernel existed).
    #[cfg(test)]
    per_member: Option<usize>,
}

/// Per-worker buffers the kernel reuses across batches.
#[derive(Debug, Default)]
pub(crate) struct KernelScratch {
    sel: Vec<u32>,
    masks: Vec<u64>,
    sels: Vec<Vec<u32>>,
}

impl ClassKernel {
    /// Compiles the class whose members are `states` — hash members first
    /// (`n_hash` of them), then index members with their bitmaps built —
    /// over `table`.
    ///
    /// Each group of up to 64 hash members takes shared masks when its
    /// shape says they do less work: more members than predicated
    /// dimensions, and every predicated stored domain small enough for a
    /// dense table ([`STORED_BITSET_MAX_DOMAIN`]). Otherwise its members
    /// keep their own cascades.
    pub(crate) fn compile(
        cube: &Cube,
        table: TableId,
        states: &[QueryState],
        n_hash: usize,
    ) -> Self {
        let stored = cube.catalog.table(table).group_by();
        let domain = |d: usize| match stored.level(d) {
            LevelRef::Level(s) => u64::from(cube.schema.dim(d).cardinality(s)),
            LevelRef::All => 1,
        };
        let groups = (0..n_hash)
            .step_by(GROUP_WIDTH)
            .map(|lo| {
                let hi = (lo + GROUP_WIDTH).min(n_hash);
                let members = &states[lo..hi];
                let pred_dims = members.iter().fold(0u64, |m, s| m | s.pipeline.pred_mask());
                let dims = || (0..64).filter(move |d| pred_dims >> d & 1 == 1);
                let use_masks = pred_dims != 0
                    && members.len() > pred_dims.count_ones() as usize
                    && dims().all(|d| domain(d) <= STORED_BITSET_MAX_DOMAIN);
                if !use_masks {
                    return HashGroup::Cascade { lo, hi };
                }
                let steps = dims()
                    .map(|d| Self::mask_step(members, d, domain(d)))
                    .collect();
                HashGroup::Masks { lo, hi, steps }
            })
            .collect();
        ClassKernel {
            n_hash,
            probe_mask: states.iter().fold(0, |m, s| m | s.pipeline.probe_mask()),
            groups,
            #[cfg(test)]
            per_member: None,
        }
    }

    /// Builds dimension `d`'s key → member-mask table for one group, in
    /// O(domain + selected keys): start every key at "members without a
    /// predicate here", then set each predicated member's bit over its
    /// qualifying key ranges.
    fn mask_step(members: &[QueryState], d: usize, domain: u64) -> MaskStep {
        let mut has_pred = 0u64;
        let mut all = 0u64;
        for (b, st) in members.iter().enumerate() {
            all |= 1 << b;
            if st.pipeline.pred_mask() >> d & 1 == 1 {
                has_pred |= 1 << b;
            }
        }
        let miss = all & !has_pred;
        let mut lut = vec![miss; domain as usize];
        for (b, st) in members.iter().enumerate() {
            let Some(ranges) = st.pipeline.stored_ranges(d) else {
                continue;
            };
            for (k_lo, k_hi) in ranges {
                let (k_lo, k_hi) = (k_lo.min(domain) as usize, k_hi.min(domain) as usize);
                for m in &mut lut[k_lo..k_hi] {
                    *m |= 1 << b;
                }
            }
        }
        MaskStep {
            dim: d,
            has_pred,
            lut,
            miss,
        }
    }

    /// The class's dimension-probe needs (one shared hash table each).
    pub(crate) fn probe_mask(&self) -> u64 {
        self.probe_mask
    }

    /// Dimension-table probes each fetched tuple pays.
    pub(crate) fn probes_per_tuple(&self) -> u64 {
        u64::from(self.probe_mask.count_ones())
    }

    /// Feeds one scanned batch to every member of the class: `states` and
    /// `accs` are in class order (hash members, then index members).
    ///
    /// Charges the batch's shared per-tuple work (one copy, one probe per
    /// needed dimension table), every member's predicate evaluations and
    /// aggregation, and one bitmap test per index member per row — exactly
    /// what the per-member row-at-a-time path charges.
    pub(crate) fn feed_batch(
        &self,
        states: &[QueryState],
        accs: &mut [GroupAcc],
        batch: &ScanBatch,
        ws: &mut KernelScratch,
        cpu: &mut CpuCounters,
    ) {
        let n = batch.len();
        cpu.tuple_copies += n as u64;
        cpu.hash_probes += self.probes_per_tuple() * n as u64;
        #[cfg(test)]
        if let Some(n_dims) = self.per_member {
            return self.feed_per_member(n_dims, states, accs, batch, ws, cpu);
        }
        for group in &self.groups {
            match group {
                HashGroup::Cascade { lo, hi } => {
                    for m in *lo..*hi {
                        let st = &states[m];
                        st.pipeline.feed_batch(
                            st.mode,
                            0,
                            batch,
                            &mut accs[m],
                            &mut ws.sel,
                            false,
                            cpu,
                        );
                    }
                }
                HashGroup::Masks { lo, hi, steps } => feed_masks(
                    &states[*lo..*hi],
                    &mut accs[*lo..*hi],
                    steps,
                    batch,
                    ws,
                    cpu,
                ),
            }
        }
        let (base, end) = (batch.base_pos(), batch.base_pos() + n as u64);
        for (st, acc) in states.iter().zip(accs.iter_mut()).skip(self.n_hash) {
            cpu.bitmap_tests += n as u64;
            ws.sel.clear();
            match st.bitmap.as_ref().and_then(|qb| qb.bitmap.as_ref()) {
                Some(bm) => ws
                    .sel
                    .extend(bm.iter_ones_in(base, end).map(|p| (p - base) as u32)),
                None => ws.sel.extend(0..n as u32),
            }
            st.pipeline
                .feed_batch(st.mode, st.skip_mask(), batch, acc, &mut ws.sel, true, cpu);
        }
    }
}

/// One mask group over one batch: the running-mask pass per predicated
/// dimension (ascending, as every member's own cascade orders them), then
/// a row-order scatter into per-member selection vectors and absorption.
///
/// A member's cascade charges predicate `d` once for every row that
/// survived its predicates on dimensions below `d`. At step `d` a row's
/// running mask holds exactly the members it has survived so far (a
/// member's bit is only cleared by one of its own predicates), so
/// `popcount(mask & has_pred)` charged *before* the step narrows the mask
/// is, summed over rows, the members' charges for `d`.
fn feed_masks(
    states: &[QueryState],
    accs: &mut [GroupAcc],
    steps: &[MaskStep],
    batch: &ScanBatch,
    ws: &mut KernelScratch,
    cpu: &mut CpuCounters,
) {
    let all = u64::MAX >> (64 - states.len());
    ws.masks.clear();
    ws.masks.resize(batch.len(), all);
    for step in steps {
        let mut evals = 0u64;
        for (mask, &k) in ws.masks.iter_mut().zip(batch.col(step.dim)) {
            evals += u64::from((*mask & step.has_pred).count_ones());
            *mask &= step.lut.get(k as usize).copied().unwrap_or(step.miss);
        }
        cpu.predicate_evals += evals;
    }
    if ws.sels.len() < states.len() {
        ws.sels.resize_with(states.len(), Vec::new);
    }
    for sel in &mut ws.sels[..states.len()] {
        sel.clear();
    }
    for (i, &mask) in ws.masks.iter().enumerate() {
        let mut m = mask;
        while m != 0 {
            ws.sels[m.trailing_zeros() as usize].push(i as u32);
            m &= m - 1;
        }
    }
    for ((st, acc), sel) in states.iter().zip(accs).zip(&ws.sels) {
        st.pipeline.absorb_selected(st.mode, batch, sel, acc, cpu);
    }
}

/// Compiles a class's kernel; the executors take one as a parameter so the
/// tests can swap in the per-member oracle.
pub(crate) type CompileKernel = fn(&Cube, TableId, &[QueryState], usize) -> ClassKernel;

#[cfg(test)]
impl ClassKernel {
    /// The per-member oracle: every hash member runs its own cascade and
    /// every index member tests its bitmap row by row — the executor's
    /// path before the class kernel.
    pub(crate) fn compile_per_member(
        cube: &Cube,
        table: TableId,
        states: &[QueryState],
        n_hash: usize,
    ) -> Self {
        ClassKernel {
            per_member: Some(cube.schema.n_dims()),
            ..Self::compile(cube, table, states, n_hash)
        }
    }

    /// How many hash groups compiled to shared masks.
    pub(crate) fn mask_groups(&self) -> usize {
        self.groups
            .iter()
            .filter(|g| matches!(g, HashGroup::Masks { .. }))
            .count()
    }

    fn feed_per_member(
        &self,
        n_dims: usize,
        states: &[QueryState],
        accs: &mut [GroupAcc],
        batch: &ScanBatch,
        ws: &mut KernelScratch,
        cpu: &mut CpuCounters,
    ) {
        for (st, acc) in states.iter().zip(accs.iter_mut()).take(self.n_hash) {
            st.pipeline
                .feed_batch(st.mode, 0, batch, acc, &mut ws.sel, false, cpu);
        }
        let mut keys = vec![0u32; n_dims];
        for r in 0..batch.len() {
            for (d, k) in keys.iter_mut().enumerate() {
                *k = batch.key(d, r);
            }
            for (st, acc) in states.iter().zip(accs.iter_mut()).skip(self.n_hash) {
                st.probe(batch.pos(r), &keys, batch.measure(r), acc, cpu);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    //! The class kernel against the per-member oracle
    //! ([`ClassKernel::compile_per_member`]): over random classes, every
    //! result row, every CPU and I/O counter, `sim`, and `critical` must be
    //! bit-identical on the morsel executor at every thread count and
    //! morsel size.

    use super::*;
    use crate::context::ExecContext;
    use crate::parallel::{execute_class_compiled, ClassOutcome, ClassSpec, DEFAULT_MORSEL_PAGES};
    use crate::result::QueryResult;
    use starshare_olap::{
        paper_schema, AggFn, CubeBuilder, Dimension, GroupBy, GroupByQuery, MemberPred, StarSchema,
    };
    use starshare_prng::Prng;

    /// The paper cube's shape at test scale, with indexes on both indexed
    /// tables; `compress` seals every heap page.
    fn paper(rows: u64, compress: bool) -> Cube {
        let mut b = CubeBuilder::new(paper_schema(48))
            .rows(rows)
            .seed(7)
            .base_name("ABCD")
            .materialize("A'B'C'D")
            .materialize("A''B''C''D");
        for table in ["ABCD", "A'B'C'D"] {
            for level in ["A'", "B'", "C'", "D'"] {
                b = b.index(table, level);
            }
        }
        if compress {
            b = b.cluster_by("A").compress();
        }
        b.build()
    }

    /// D's leaf domain (3 × 8 × 2731 = 65,544 keys) is past the mask
    /// tables' bound, so a group predicating D must keep its cascades.
    fn wide_d() -> Cube {
        let schema = StarSchema::new(
            vec![
                Dimension::uniform("A", 3, &[2, 10]),
                Dimension::uniform("B", 3, &[2, 10]),
                Dimension::uniform("D", 3, &[8, 2731]),
            ],
            "dollars",
        );
        CubeBuilder::new(schema)
            .rows(3_000)
            .seed(3)
            .base_name("ABD")
            .index("ABD", "A'")
            .build()
    }

    /// A random query answerable from `table`, predicating only dimensions
    /// in `pred_dims` (each with probability one half, or all of them when
    /// `full`).
    fn random_query(
        rng: &mut Prng,
        cube: &Cube,
        table: TableId,
        pred_dims: u64,
        full: bool,
    ) -> GroupByQuery {
        let stored = cube.catalog.table(table).group_by();
        let n = cube.schema.n_dims();
        let mut levels = Vec::with_capacity(n);
        let mut preds = Vec::with_capacity(n);
        for d in 0..n {
            let dim = cube.schema.dim(d);
            let LevelRef::Level(s) = stored.level(d) else {
                levels.push(LevelRef::All);
                preds.push(MemberPred::All);
                continue;
            };
            let top = dim.n_levels() - 1;
            levels.push(if rng.gen_bool(0.25) {
                LevelRef::All
            } else {
                LevelRef::Level(rng.gen_range(s..=top))
            });
            if pred_dims >> d & 1 == 1 && (full || rng.gen_bool(0.5)) {
                // Stored-level predicates (a leaf D member set on a
                // D-leaf table) as often as coarser ones.
                let level = if rng.gen_bool(0.5) {
                    s
                } else {
                    rng.gen_range(s..=top)
                };
                let card = dim.cardinality(level);
                let k = rng.gen_range(1..=card.min(6));
                let members = (0..k).map(|_| rng.gen_range(0..card)).collect();
                preds.push(MemberPred::members_in(level, members));
            } else {
                preds.push(MemberPred::All);
            }
        }
        let agg = if cube.catalog.table(table).measure().answers(AggFn::Max) {
            [AggFn::Sum, AggFn::Count, AggFn::Min, AggFn::Max][rng.gen_range(0..4usize)]
        } else {
            AggFn::Sum
        };
        GroupByQuery::new(GroupBy::new(levels), preds).with_agg(agg)
    }

    /// A random class over `table`: `n_hash` hash members whose predicates
    /// span exactly `pred_dims`, plus `n_index` index members.
    fn random_class(
        rng: &mut Prng,
        cube: &Cube,
        table: TableId,
        pred_dims: u64,
        n_hash: usize,
        n_index: usize,
    ) -> ClassSpec {
        let all_dims = (1u64 << cube.schema.n_dims()) - 1;
        ClassSpec {
            table,
            hash_queries: (0..n_hash)
                .map(|i| random_query(rng, cube, table, pred_dims, i == 0))
                .collect(),
            index_queries: (0..n_index)
                .map(|_| random_query(rng, cube, table, all_dims, false))
                .collect(),
        }
    }

    fn assert_rows_identical(a: &[QueryResult], b: &[QueryResult], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: result count");
        for (qi, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.rows.len(), y.rows.len(), "{what}: query {qi} groups");
            for ((kx, vx), (ky, vy)) in x.rows.iter().zip(&y.rows) {
                assert_eq!(kx, ky, "{what}: query {qi} keys");
                assert_eq!(vx.to_bits(), vy.to_bits(), "{what}: query {qi} value");
            }
        }
    }

    fn assert_outcomes_identical(a: &ClassOutcome, b: &ClassOutcome, what: &str) {
        assert_rows_identical(&a.results, &b.results, what);
        assert_eq!(a.report.io, b.report.io, "{what}: io");
        assert_eq!(a.report.cpu, b.report.cpu, "{what}: cpu");
        assert_eq!(a.report.sim, b.report.sim, "{what}: sim");
        assert_eq!(a.report.critical, b.report.critical, "{what}: critical");
        assert_eq!(a.merge_cpu, b.merge_cpu, "{what}: merge cpu");
        assert_eq!(a.n_morsels, b.n_morsels, "{what}: morsels");
    }

    /// Runs `spec` on the morsel executor over the thread × morsel-size
    /// matrix, kernel vs oracle.
    fn check_class(cube: &Cube, spec: &ClassSpec, what: &str) {
        for pages in [1, DEFAULT_MORSEL_PAGES, u32::MAX] {
            for threads in [1, 2, 7, 16] {
                let run = |compile: CompileKernel| {
                    let mut ctx = ExecContext::paper_1998();
                    execute_class_compiled(&mut ctx, cube, spec, threads, pages, compile).unwrap()
                };
                assert_outcomes_identical(
                    &run(ClassKernel::compile),
                    &run(ClassKernel::compile_per_member),
                    &format!("{what}, {threads} threads, {pages}-page morsels"),
                );
            }
        }
    }

    /// The kernel `spec` compiles to, for asserting which rule fired.
    fn kernel_for(cube: &Cube, spec: &ClassSpec) -> ClassKernel {
        let states: Vec<QueryState> = spec
            .hash_queries
            .iter()
            .chain(&spec.index_queries)
            .map(|q| QueryState::compile(cube, spec.table, q).unwrap())
            .collect();
        ClassKernel::compile(cube, spec.table, &states, spec.hash_queries.len())
    }

    #[test]
    fn class_kernel_matches_per_member_path_over_random_classes() {
        let cubes = [
            ("plain", paper(3_000, false)),
            ("compressed", paper(3_000, true)),
        ];
        let mut rng = Prng::seed_from_u64(0xC1A55);
        for (layout, cube) in &cubes {
            for table in ["ABCD", "A'B'C'D", "A''B''C''D"] {
                let t = cube.catalog.find_by_name(table).unwrap();
                let n_dims = cube.schema.n_dims();
                // D (stored at its leaf in every paper table) plus a random
                // subset of A, B, C, so D-leaf predicates are always in play.
                let d_bit = 1u64 << (n_dims - 1);
                let pred_dims =
                    (0..n_dims - 1).fold(d_bit, |m, d| m | u64::from(rng.gen_bool(0.5)) << d);
                let p = pred_dims.count_ones() as usize;
                for n_hash in [1, 2, p, p + 1, 64, 65, 70] {
                    let n_index = rng.gen_range(0..=3usize);
                    let spec = random_class(&mut rng, cube, t, pred_dims, n_hash, n_index);
                    let kernel = kernel_for(cube, &spec);
                    let expect_groups = match n_hash {
                        n if n <= p => 0,
                        65 => 1, // the 65th member is a group of one
                        70 => 1 + usize::from(6 > p),
                        _ => 1,
                    };
                    assert_eq!(
                        kernel.mask_groups(),
                        expect_groups,
                        "{layout} {table}: {n_hash} hash members over {p} dims"
                    );
                    check_class(
                        cube,
                        &spec,
                        &format!("{layout} {table}: {n_hash} hash + {n_index} index"),
                    );
                }
            }
        }
    }

    #[test]
    fn class_kernel_keeps_cascades_past_the_mask_domain_bound() {
        let cube = wide_d();
        let t = cube.catalog.find_by_name("ABD").unwrap();
        let mut rng = Prng::seed_from_u64(0xD1EAF);
        // D predicated: its 65,544-key leaf domain rules masks out.
        let spec = random_class(&mut rng, &cube, t, 0b111, 8, 2);
        assert_eq!(kernel_for(&cube, &spec).mask_groups(), 0);
        check_class(&cube, &spec, "wide D, D predicated");
        // A and B only: masks again.
        let spec = random_class(&mut rng, &cube, t, 0b011, 8, 2);
        assert_eq!(kernel_for(&cube, &spec).mask_groups(), 1);
        check_class(&cube, &spec, "wide D, A and B predicated");
    }

    #[test]
    fn index_members_seed_from_their_bitmaps() {
        // Index members alone beside one unpredicated hash member: one with
        // a bitmap and a residual predicate (skip mask), one with no
        // servable predicate (no bitmap: every row), one whose bitmap is
        // empty.
        let cube = paper(4_000, false);
        let t = cube.catalog.find_by_name("A'B'C'D").unwrap();
        let g = cube.groupby("A''B''C''D''");
        let covered_and_residual = GroupByQuery::new(
            g.clone(),
            vec![
                MemberPred::members_in(1, vec![0, 1, 2, 4, 5]),
                MemberPred::All,
                MemberPred::members_in(1, vec![0, 1, 3, 5]),
                MemberPred::members_in(0, (0..30).collect()),
            ],
        );
        let no_bitmap = GroupByQuery::new(
            g.clone(),
            vec![
                MemberPred::All,
                MemberPred::All,
                MemberPred::All,
                MemberPred::members_in(0, vec![1, 5, 9]),
            ],
        );
        let empty = GroupByQuery::new(
            g.clone(),
            vec![
                MemberPred::members_in(1, vec![]),
                MemberPred::All,
                MemberPred::All,
                MemberPred::All,
            ],
        );
        let spec = ClassSpec {
            table: t,
            hash_queries: vec![GroupByQuery::unfiltered(g)],
            index_queries: vec![covered_and_residual, no_bitmap, empty],
        };
        check_class(&cube, &spec, "bitmap-seeded index members");
        let mut ctx = ExecContext::paper_1998();
        let (rs, rep) =
            crate::shared_hybrid_join(&mut ctx, &cube, t, &spec.hash_queries, &spec.index_queries)
                .unwrap();
        assert_eq!(rep.cpu.bitmap_tests, 3 * cube.catalog.table(t).n_rows());
        for (r, q) in rs
            .iter()
            .zip(spec.hash_queries.iter().chain(&spec.index_queries))
        {
            let expect = crate::reference_eval(&cube, t, q);
            assert!(r.bit_eq(&expect), "{}", q.display(&cube.schema));
        }
        assert_eq!(rs[3].n_groups(), 0);
    }
}
