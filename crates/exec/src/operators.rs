//! The star-join operators, single and shared.
//!
//! All five of the paper's evaluation strategies are entry points here,
//! and all five are one class run by the morsel executor
//! ([`crate::parallel::execute_class`]) as a single whole-table pass. They
//! share one inner machine: a set of per-query [`QueryState`]s absorbing
//! tuples into hash aggregations, fed either by a sequential scan of the
//! source table (hash-based plans, §3.1/3.3) or by a bitmap-directed probe
//! of it (index-based plans, §3.2).
//!
//! Work accounting (what the simulated clock sees):
//!
//! * page I/O — through the buffer pool: sequential faults for scans and
//!   index-bitmap loads, random faults for bitmap-directed tuple probes;
//! * dimension hash tables — built once per *operator* (that is the shared-
//!   scan saving): one hash insert per dimension row, one probe per scanned
//!   tuple per probed dimension (union across the operator's queries);
//! * per query per candidate tuple — predicate evaluations (short-circuit),
//!   a bitmap test for index-fed queries, and, for qualifying tuples, one
//!   aggregation-table probe, an update, and a result-tuple copy.

use starshare_olap::{combine_mode, CombineMode, Cube, GroupByQuery, LevelRef, TableId};
use starshare_storage::CpuCounters;

use crate::context::{ExecContext, ExecReport};
use crate::error::ExecError;
use crate::kernel::GroupAcc;
use crate::parallel::{execute_class, ClassSpec};
use crate::plan_io::QueryBitmap;
use crate::result::QueryResult;
use crate::rollup::DimPipeline;

/// Per-query execution state: the compiled pipeline, how measures fold,
/// and (for index-fed queries) the result bitmap.
///
/// Immutable once phase 1 has built the bitmaps, so the morsel executor in
/// [`crate::parallel`] fans one copy out to every worker; each morsel keeps
/// its running aggregations ([`GroupAcc`]s) beside the states.
pub(crate) struct QueryState {
    pub(crate) query: GroupByQuery,
    pub(crate) pipeline: DimPipeline,
    /// How source measures fold into this query's accumulator.
    pub(crate) mode: CombineMode,
    /// Index-derived filter (index-fed queries only).
    pub(crate) bitmap: Option<QueryBitmap>,
}

impl QueryState {
    pub(crate) fn compile(
        cube: &Cube,
        table: TableId,
        query: &GroupByQuery,
    ) -> Result<Self, ExecError> {
        let t = cube.catalog.table(table);
        if !t.measure().answers(query.agg) {
            return Err(ExecError::new(format!(
                "a {} table cannot answer {} queries",
                t.measure(),
                query.agg
            )));
        }
        let pipeline = DimPipeline::compile(&cube.schema, t.group_by(), query)?;
        Ok(QueryState {
            query: query.clone(),
            pipeline,
            mode: combine_mode(query.agg, t.measure()),
            bitmap: None,
        })
    }

    /// Which predicate dimensions the bitmap already guarantees.
    pub(crate) fn skip_mask(&self) -> u64 {
        self.bitmap.as_ref().map_or(0, |b| b.covered_mask)
    }

    /// The probe path's per-candidate step: one bitmap test (passing
    /// always without a bitmap), then the residual filter, then absorb
    /// into `acc`.
    pub(crate) fn probe(
        &self,
        pos: u64,
        keys: &[u32],
        measure: f64,
        acc: &mut GroupAcc,
        cpu: &mut CpuCounters,
    ) {
        cpu.bitmap_tests += 1;
        if !self.bitmap.as_ref().is_none_or(|b| b.may_match(pos)) {
            return;
        }
        if self.pipeline.filter_skipping(keys, cpu, self.skip_mask()) {
            self.pipeline
                .kernel()
                .absorb(acc, self.mode, keys, measure, cpu);
        }
    }

    /// A fresh, empty accumulator for this query.
    pub(crate) fn new_acc(&self) -> GroupAcc {
        self.pipeline.kernel().new_acc()
    }

    /// The query's result from its finished accumulator.
    pub(crate) fn finish(&self, acc: GroupAcc) -> QueryResult {
        let mode = self.mode;
        QueryResult::from_groups(
            self.query.clone(),
            self.pipeline
                .kernel()
                .into_groups(acc)
                .into_iter()
                .map(|(k, st)| (k, st.value(mode))),
        )
    }
}

/// Charges the build of the dimension hash tables needed by `probe_mask`
/// over a table storing `stored` levels: one insert per dimension row.
pub(crate) fn charge_hash_builds(
    cube: &Cube,
    table: TableId,
    probe_mask: u64,
    cpu: &mut CpuCounters,
) {
    let stored = cube.catalog.table(table).group_by();
    for d in 0..cube.schema.n_dims() {
        if probe_mask & (1 << d) != 0 {
            if let LevelRef::Level(s) = stored.level(d) {
                cpu.hash_builds += cube.schema.dim(d).cardinality(s) as u64;
            }
        }
    }
}

/// Runs one class through [`execute_class`] as the paper's single
/// shared-operator pass: one whole-table morsel on the calling thread.
fn run_pass(
    ctx: &mut ExecContext,
    cube: &Cube,
    table: TableId,
    hash_queries: &[GroupByQuery],
    index_queries: &[GroupByQuery],
) -> Result<(Vec<QueryResult>, ExecReport), ExecError> {
    let spec = ClassSpec {
        table,
        hash_queries: hash_queries.to_vec(),
        index_queries: index_queries.to_vec(),
    };
    let out = execute_class(ctx, cube, &spec, 1, u32::MAX)?;
    Ok((out.results, out.report))
}

/// §3.3 — shared scan for hash-based **and** index-based star joins.
///
/// One sequential scan of `table` feeds every query: `hash_queries`
/// evaluate their predicates per tuple; `index_queries` first build their
/// result bitmaps from the table's join indexes, then test each scanned
/// tuple's position against their bitmap (the "use the result bitmap as the
/// selection filter after the scan" conversion). Dimension hash tables are
/// built once for the union of all queries' probe needs.
///
/// With `index_queries` empty this is exactly §3.1's shared scan hash-based
/// star join; with a single hash query it degenerates to the classic
/// pipelined right-deep star join of Figure 1.
///
/// Results are returned in input order: all hash queries, then all index
/// queries.
pub fn shared_hybrid_join(
    ctx: &mut ExecContext,
    cube: &Cube,
    table: TableId,
    hash_queries: &[GroupByQuery],
    index_queries: &[GroupByQuery],
) -> Result<(Vec<QueryResult>, ExecReport), ExecError> {
    run_pass(ctx, cube, table, hash_queries, index_queries)
}

/// §3.1 — shared scan hash-based star join (Figure 2).
pub fn shared_scan_hash_join(
    ctx: &mut ExecContext,
    cube: &Cube,
    table: TableId,
    queries: &[GroupByQuery],
) -> Result<(Vec<QueryResult>, ExecReport), ExecError> {
    run_pass(ctx, cube, table, queries, &[])
}

/// Figure 1 — a single pipelined right-deep hash-based star join.
pub fn hash_star_join(
    ctx: &mut ExecContext,
    cube: &Cube,
    table: TableId,
    query: &GroupByQuery,
) -> Result<(QueryResult, ExecReport), ExecError> {
    let (rs, rep) = run_pass(ctx, cube, table, std::slice::from_ref(query), &[])?;
    Ok((single_result(rs)?, rep))
}

/// §3.2 — shared (bitmap) index join (Figure 4).
///
/// Builds each query's result bitmap, ORs them, probes the base table once
/// per candidate position, and routes each fetched tuple to the queries
/// whose bitmap has that position set ("Filter tuples"), then aggregates.
/// A query with no index-servable predicate makes every row a candidate.
pub fn shared_index_join(
    ctx: &mut ExecContext,
    cube: &Cube,
    table: TableId,
    queries: &[GroupByQuery],
) -> Result<(Vec<QueryResult>, ExecReport), ExecError> {
    run_pass(ctx, cube, table, &[], queries)
}

/// Figure 3 — a single bitmap index-based star join.
pub fn index_star_join(
    ctx: &mut ExecContext,
    cube: &Cube,
    table: TableId,
    query: &GroupByQuery,
) -> Result<(QueryResult, ExecReport), ExecError> {
    let (rs, rep) = run_pass(ctx, cube, table, &[], std::slice::from_ref(query))?;
    Ok((single_result(rs)?, rep))
}

/// The one result of a one-query operator run.
fn single_result(rs: Vec<QueryResult>) -> Result<QueryResult, ExecError> {
    rs.into_iter()
        .next()
        .ok_or_else(|| ExecError::new("a one-query operator run returned no result"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::reference_eval;
    use starshare_olap::{paper_cube, MemberPred, PaperCubeSpec};

    fn cube() -> Cube {
        paper_cube(PaperCubeSpec {
            base_rows: 4_000,
            d_leaf: 48,
            seed: 5,
            with_indexes: true,
        })
    }

    fn q_selective(cube: &Cube) -> GroupByQuery {
        GroupByQuery::new(
            cube.groupby("A'B''C''D"),
            vec![
                MemberPred::eq(1, 1),
                MemberPred::eq(2, 0),
                MemberPred::eq(2, 2),
                MemberPred::eq(1, 0),
            ],
        )
    }

    fn q_broad(cube: &Cube) -> GroupByQuery {
        GroupByQuery::new(
            cube.groupby("A'B''C''D"),
            vec![
                MemberPred::members_in(1, vec![0, 1, 2]),
                MemberPred::All,
                MemberPred::All,
                MemberPred::eq(1, 0),
            ],
        )
    }

    fn q_other(cube: &Cube) -> GroupByQuery {
        GroupByQuery::new(
            cube.groupby("A''B'C''D"),
            vec![
                MemberPred::All,
                MemberPred::members_in(1, vec![2, 3]),
                MemberPred::eq(2, 1),
                MemberPred::eq(1, 0),
            ],
        )
    }

    #[test]
    fn hash_join_matches_reference_on_base_and_view() {
        let cube = cube();
        let mut ctx = ExecContext::paper_1998();
        for tname in ["ABCD", "A'B'C'D"] {
            let tid = cube.catalog.find_by_name(tname).unwrap();
            for q in [q_selective(&cube), q_broad(&cube), q_other(&cube)] {
                let (r, _) = hash_star_join(&mut ctx, &cube, tid, &q).unwrap();
                let expect = reference_eval(&cube, tid, &q);
                assert!(r.bit_eq(&expect), "{tname}: {}", q.display(&cube.schema));
                assert!(r.n_groups() > 0, "want non-trivial result at this scale");
            }
        }
    }

    #[test]
    fn index_join_matches_reference() {
        let cube = cube();
        let mut ctx = ExecContext::paper_1998();
        let tid = cube.catalog.find_by_name("A'B'C'D").unwrap();
        for q in [q_selective(&cube), q_broad(&cube), q_other(&cube)] {
            let (r, _) = index_star_join(&mut ctx, &cube, tid, &q).unwrap();
            let expect = reference_eval(&cube, tid, &q);
            assert!(r.bit_eq(&expect), "{}", q.display(&cube.schema));
        }
    }

    #[test]
    fn shared_scan_matches_separate_results() {
        let cube = cube();
        let mut ctx = ExecContext::paper_1998();
        let tid = cube.catalog.find_by_name("A'B'C'D").unwrap();
        let qs = vec![q_selective(&cube), q_broad(&cube), q_other(&cube)];
        let (rs, _) = shared_scan_hash_join(&mut ctx, &cube, tid, &qs).unwrap();
        assert_eq!(rs.len(), 3);
        for (r, q) in rs.iter().zip(&qs) {
            let expect = reference_eval(&cube, tid, q);
            assert!(r.bit_eq(&expect), "{}", q.display(&cube.schema));
        }
    }

    #[test]
    fn shared_index_matches_separate_results() {
        let cube = cube();
        let mut ctx = ExecContext::paper_1998();
        let tid = cube.catalog.find_by_name("A'B'C'D").unwrap();
        let qs = vec![q_selective(&cube), q_other(&cube)];
        let (rs, _) = shared_index_join(&mut ctx, &cube, tid, &qs).unwrap();
        for (r, q) in rs.iter().zip(&qs) {
            let expect = reference_eval(&cube, tid, q);
            assert!(r.bit_eq(&expect), "{}", q.display(&cube.schema));
        }
    }

    #[test]
    fn hybrid_matches_reference_for_both_kinds() {
        let cube = cube();
        let mut ctx = ExecContext::paper_1998();
        let tid = cube.catalog.find_by_name("A'B'C'D").unwrap();
        let hash_qs = vec![q_broad(&cube)];
        let index_qs = vec![q_selective(&cube), q_other(&cube)];
        let (rs, _) = shared_hybrid_join(&mut ctx, &cube, tid, &hash_qs, &index_qs).unwrap();
        assert_eq!(rs.len(), 3);
        let all: Vec<GroupByQuery> = hash_qs.into_iter().chain(index_qs).collect();
        for (r, q) in rs.iter().zip(&all) {
            let expect = reference_eval(&cube, tid, q);
            assert!(r.bit_eq(&expect), "{}", q.display(&cube.schema));
        }
    }

    #[test]
    fn shared_scan_saves_io_versus_separate() {
        let cube = cube();
        let tid = cube.catalog.find_by_name("ABCD").unwrap();
        let qs = vec![q_selective(&cube), q_broad(&cube), q_other(&cube)];
        // Separate: flush before each, sum reports.
        let mut ctx = ExecContext::paper_1998();
        let mut separate = ExecReport::default();
        for q in &qs {
            ctx.flush();
            let (_, rep) = hash_star_join(&mut ctx, &cube, tid, q).unwrap();
            separate.merge(&rep);
        }
        // Shared: one scan.
        ctx.flush();
        let (_, shared) = shared_scan_hash_join(&mut ctx, &cube, tid, &qs).unwrap();
        assert!(
            shared.io.seq_faults * 2 <= separate.io.seq_faults,
            "shared {} vs separate {}",
            shared.io.seq_faults,
            separate.io.seq_faults
        );
        assert!(shared.sim < separate.sim);
        // Probe sharing: shared probes strictly fewer than the sum.
        assert!(shared.cpu.hash_probes < separate.cpu.hash_probes);
    }

    #[test]
    fn shared_index_saves_probes_versus_separate() {
        let cube = cube();
        let tid = cube.catalog.find_by_name("A'B'C'D").unwrap();
        let q1 = q_selective(&cube);
        // A second selective query overlapping the same D' slice.
        let q2 = GroupByQuery::new(
            cube.groupby("A'B'C'D"),
            vec![
                MemberPred::eq(1, 1),
                MemberPred::eq(1, 2),
                MemberPred::eq(1, 4),
                MemberPred::eq(1, 0),
            ],
        );
        let mut ctx = ExecContext::paper_1998();
        let mut separate = ExecReport::default();
        for q in [&q1, &q2] {
            ctx.flush();
            let (_, rep) = index_star_join(&mut ctx, &cube, tid, q).unwrap();
            separate.merge(&rep);
        }
        ctx.flush();
        let (_, shared) = shared_index_join(&mut ctx, &cube, tid, &[q1, q2]).unwrap();
        assert!(
            shared.io.random_faults <= separate.io.random_faults,
            "shared {} vs separate {}",
            shared.io.random_faults,
            separate.io.random_faults
        );
        assert!(shared.sim <= separate.sim);
    }

    #[test]
    fn hybrid_adds_index_query_almost_free() {
        // The §3.3 claim: adding an index-fed query to a scan costs only
        // bitmap work, not another pass of I/O.
        let cube = cube();
        let tid = cube.catalog.find_by_name("A'B'C'D").unwrap();
        let hash_q = vec![q_broad(&cube)];
        let mut ctx = ExecContext::paper_1998();
        ctx.flush();
        let (_, alone) = shared_hybrid_join(&mut ctx, &cube, tid, &hash_q, &[]).unwrap();
        ctx.flush();
        let (_, with_index) =
            shared_hybrid_join(&mut ctx, &cube, tid, &hash_q, &[q_selective(&cube)]).unwrap();
        // Scan I/O identical up to the index's own bitmap pages.
        assert!(with_index.io.seq_faults <= alone.io.seq_faults + 32);
        assert_eq!(with_index.io.random_faults, alone.io.random_faults);
        // And much cheaper than running the index query separately.
        ctx.flush();
        let (_, idx_alone) = index_star_join(&mut ctx, &cube, tid, &q_selective(&cube)).unwrap();
        let added = with_index.sim.saturating_sub(alone.sim);
        assert!(
            added < idx_alone.sim,
            "added {added} vs standalone {}",
            idx_alone.sim
        );
    }

    #[test]
    fn operators_reject_wrong_table() {
        let cube = cube();
        let mut ctx = ExecContext::paper_1998();
        // A''B''C''D cannot answer a query needing A'.
        let tid = cube.catalog.find_by_name("A''B''C''D").unwrap();
        let q = q_selective(&cube);
        assert!(hash_star_join(&mut ctx, &cube, tid, &q).is_err());
        assert!(index_star_join(&mut ctx, &cube, tid, &q).is_err());
        assert!(shared_hybrid_join(&mut ctx, &cube, tid, &[], &[]).is_err());
    }

    #[test]
    fn index_join_with_unindexed_residual_pred_is_correct() {
        let cube = cube();
        let mut ctx = ExecContext::paper_1998();
        let tid = cube.catalog.find_by_name("A'B'C'D").unwrap();
        // D predicate at leaf level: not index-servable → residual.
        let q = GroupByQuery::new(
            cube.groupby("A'B''C''D"),
            vec![
                MemberPred::eq(1, 1),
                MemberPred::All,
                MemberPred::All,
                MemberPred::members_in(0, (0..24).collect()),
            ],
        );
        let (r, _) = index_star_join(&mut ctx, &cube, tid, &q).unwrap();
        let expect = reference_eval(&cube, tid, &q);
        assert!(r.bit_eq(&expect));
    }

    #[test]
    fn empty_result_queries_work_everywhere() {
        let cube = cube();
        let mut ctx = ExecContext::paper_1998();
        let tid = cube.catalog.find_by_name("A'B'C'D").unwrap();
        let q = GroupByQuery::new(
            cube.groupby("A'B'C'D"),
            vec![
                MemberPred::members_in(1, vec![]),
                MemberPred::All,
                MemberPred::All,
                MemberPred::All,
            ],
        );
        let (r1, _) = hash_star_join(&mut ctx, &cube, tid, &q).unwrap();
        assert_eq!(r1.n_groups(), 0);
        let (r2, _) = index_star_join(&mut ctx, &cube, tid, &q).unwrap();
        assert_eq!(r2.n_groups(), 0);
    }

    #[test]
    fn results_are_order_stable_across_operators() {
        let cube = cube();
        let mut ctx = ExecContext::paper_1998();
        let tid = cube.catalog.find_by_name("A'B'C'D").unwrap();
        let q = q_broad(&cube);
        let (r1, _) = hash_star_join(&mut ctx, &cube, tid, &q).unwrap();
        let (r2, _) = index_star_join(&mut ctx, &cube, tid, &q).unwrap();
        let keys1: Vec<_> = r1.rows.iter().map(|(k, _)| k.clone()).collect();
        let keys2: Vec<_> = r2.rows.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(keys1, keys2);
    }
}
