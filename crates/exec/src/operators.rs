//! The star-join operators, single and shared.
//!
//! All five of the paper's evaluation strategies live here. They share one
//! inner machine: a set of per-query [`QueryState`]s absorbing tuples into
//! hash aggregations, fed either by a sequential scan of the source table
//! (hash-based plans, §3.1/3.3) or by a bitmap-directed probe of it
//! (index-based plans, §3.2).
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
use starshare_storage::{AccessKind, CpuCounters, ScanBatch};

use crate::class_kernel::{ClassKernel, CompileKernel, KernelScratch};
use crate::context::{ExecContext, ExecReport};
use crate::error::ExecError;
use crate::kernel::GroupAcc;
use crate::plan_io::{build_query_bitmap, QueryBitmap};
use crate::result::QueryResult;
use crate::retry::with_retry;
use crate::rollup::DimPipeline;

/// Per-query execution state: the compiled pipeline, how measures fold,
/// and (for index-fed queries) the result bitmap.
///
/// Immutable once phase 1 has built the bitmaps, so the partitioned
/// operators in [`crate::parallel`] fan one copy out to every worker; each
/// run keeps its running aggregations ([`GroupAcc`]s) beside the states.
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

    /// The probe paths' per-candidate step: one bitmap test (passing
    /// always without a bitmap), then the residual filter, then absorb
    /// into `acc`.
    pub(crate) fn probe(
        &self,
        pos: u64,
        keys: &[u32],
        measure: f64,
        acc: &mut GroupAcc,
        scratch: &mut Vec<u32>,
        cpu: &mut CpuCounters,
    ) {
        cpu.bitmap_tests += 1;
        if !self.bitmap.as_ref().is_none_or(|b| b.may_match(pos)) {
            return;
        }
        if self.pipeline.filter_skipping(keys, cpu, self.skip_mask()) {
            self.pipeline
                .kernel()
                .absorb(acc, self.mode, keys, measure, scratch, cpu);
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
    hybrid_join_with(
        ctx,
        cube,
        table,
        hash_queries,
        index_queries,
        ClassKernel::compile,
    )
}

/// [`shared_hybrid_join`] with the class kernel compiled by `compile`.
pub(crate) fn hybrid_join_with(
    ctx: &mut ExecContext,
    cube: &Cube,
    table: TableId,
    hash_queries: &[GroupByQuery],
    index_queries: &[GroupByQuery],
    compile: CompileKernel,
) -> Result<(Vec<QueryResult>, ExecReport), ExecError> {
    if hash_queries.is_empty() && index_queries.is_empty() {
        return Err("shared_hybrid_join needs at least one query".into());
    }
    let mut states: Vec<QueryState> = hash_queries
        .iter()
        .chain(index_queries)
        .map(|q| QueryState::compile(cube, table, q))
        .collect::<Result<_, _>>()?;
    let n_hash = hash_queries.len();
    let t = cube.catalog.table(table);
    let heap = t.heap();

    let (accs, report) = ctx.run(|ctx, cpu| -> Result<Vec<GroupAcc>, ExecError> {
        // Phase 1: result bitmaps for the index-fed queries, then the class
        // kernel over the finished member states.
        for st in &mut states[n_hash..] {
            st.bitmap = Some(build_query_bitmap(
                &cube.schema,
                t,
                &st.query,
                &mut ctx.pool,
                cpu,
            )?);
        }
        let kernel = compile(cube, table, &states, n_hash);
        // Phase 2: shared dimension hash tables.
        charge_hash_builds(cube, table, kernel.probe_mask(), cpu);

        // Phase 3: one shared scan, page-batched. Identical accounting to
        // the tuple-at-a-time cursor (one sequential access per page, same
        // per-tuple CPU charges); decode, predicate filtering, and
        // aggregation all run columnar per batch, once for the whole class
        // (see `crate::class_kernel`). Charges are sums and each query
        // folds its survivors in row order, so batching never moves the
        // simulated clock or the results.
        //
        // On a compressed heap the scan visits only the zone-map survivors
        // (see `crate::prune`): a pruned zone can satisfy no query in the
        // class, so skipping it changes nothing but the I/O. The parallel
        // executor prunes with the same query set, keeping the two paths
        // fault-identical.
        let ranges =
            crate::prune::keep_tuple_ranges(&cube.schema, t, states.iter().map(|s| &s.query))
                .unwrap_or_else(|| vec![(0, heap.n_tuples())]);
        let mut accs: Vec<GroupAcc> = states.iter().map(QueryState::new_acc).collect();
        let mut batch = ScanBatch::new(heap.layout());
        let mut ws = KernelScratch::default();
        for &(range_lo, range_hi) in &ranges {
            let mut batches = heap.scan_batches(range_lo, range_hi);
            while with_retry(|| batches.try_next_into(&mut ctx.pool, &mut batch))? {
                kernel.feed_batch(&states, &mut accs, &batch, &mut ws, cpu);
            }
        }
        Ok(accs)
    });
    let results = states
        .iter()
        .zip(accs?)
        .map(|(st, acc)| st.finish(acc))
        .collect();
    Ok((results, report))
}

/// §3.1 — shared scan hash-based star join (Figure 2).
pub fn shared_scan_hash_join(
    ctx: &mut ExecContext,
    cube: &Cube,
    table: TableId,
    queries: &[GroupByQuery],
) -> Result<(Vec<QueryResult>, ExecReport), ExecError> {
    shared_hybrid_join(ctx, cube, table, queries, &[])
}

/// Figure 1 — a single pipelined right-deep hash-based star join.
pub fn hash_star_join(
    ctx: &mut ExecContext,
    cube: &Cube,
    table: TableId,
    query: &GroupByQuery,
) -> Result<(QueryResult, ExecReport), ExecError> {
    let (rs, rep) = shared_hybrid_join(ctx, cube, table, std::slice::from_ref(query), &[])?;
    Ok((single_result(rs)?, rep))
}

/// §3.2 — shared (bitmap) index join (Figure 4).
///
/// Builds each query's result bitmap, ORs them, probes the base table once
/// per candidate position, and routes each fetched tuple to the queries
/// whose bitmap has that position set ("Filter tuples"), then aggregates.
pub fn shared_index_join(
    ctx: &mut ExecContext,
    cube: &Cube,
    table: TableId,
    queries: &[GroupByQuery],
) -> Result<(Vec<QueryResult>, ExecReport), ExecError> {
    if queries.is_empty() {
        return Err("shared_index_join needs at least one query".into());
    }
    let mut states: Vec<QueryState> = queries
        .iter()
        .map(|q| QueryState::compile(cube, table, q))
        .collect::<Result<_, _>>()?;
    let heap = cube.catalog.table(table).heap();
    let n_rows = heap.n_tuples();
    let n_dims = cube.schema.n_dims();

    let (accs, report) = ctx.run(|ctx, cpu| -> Result<Vec<GroupAcc>, ExecError> {
        // Phase 1: per-query bitmaps, then OR them into the probe set.
        let t = cube.catalog.table(table);
        let mut total: Option<starshare_bitmap::Bitmap> = None;
        let mut probe_everything = false;
        for st in &mut states {
            let qb = build_query_bitmap(&cube.schema, t, &st.query, &mut ctx.pool, cpu)?;
            match &qb.bitmap {
                Some(bm) => match total.as_mut() {
                    Some(tot) => {
                        cpu.bitmap_words += tot.or_assign(bm);
                    }
                    None => total = Some(bm.clone()),
                },
                // A query with no index-servable predicate forces a probe
                // of every row.
                None => probe_everything = true,
            }
            st.bitmap = Some(qb);
        }

        let union_mask = states.iter().fold(0u64, |m, s| m | s.pipeline.probe_mask());
        charge_hash_builds(cube, table, union_mask, cpu);
        let probes_per_tuple = union_mask.count_ones() as u64;

        // Phase 2: probe the base table at candidate positions. Random
        // tuple fetches go through the fault-checked path with bounded
        // retry, same as the scan side.
        let mut accs: Vec<GroupAcc> = states.iter().map(QueryState::new_acc).collect();
        let mut keys = vec![0u32; n_dims];
        let mut scratch = Vec::new();
        let mut feed_all = |positions: &mut dyn Iterator<Item = u64>,
                            ctx: &mut ExecContext,
                            cpu: &mut CpuCounters|
         -> Result<(), ExecError> {
            for pos in positions {
                let measure = with_retry(|| {
                    heap.try_fetch(pos, &mut ctx.pool, AccessKind::Random, &mut keys)
                })?;
                cpu.tuple_copies += 1;
                cpu.hash_probes += probes_per_tuple;
                for (st, acc) in states.iter().zip(&mut accs) {
                    st.probe(pos, &keys, measure, acc, &mut scratch, cpu);
                }
            }
            Ok(())
        };
        if probe_everything {
            feed_all(&mut (0..n_rows), ctx, cpu)?;
        } else if let Some(tot) = &total {
            // Whole-table pass: every word of the bitmap holds candidates
            // for *this* iteration, so `iter_ones` wastes nothing here.
            // Range-restricted walks (the parallel executor's morsels) must
            // use `iter_ones_in`, which seeks to the range's first word.
            feed_all(&mut tot.iter_ones(), ctx, cpu)?;
        }
        Ok(accs)
    });
    let results = states
        .iter()
        .zip(accs?)
        .map(|(st, acc)| st.finish(acc))
        .collect();
    Ok((results, report))
}

/// Figure 3 — a single bitmap index-based star join.
pub fn index_star_join(
    ctx: &mut ExecContext,
    cube: &Cube,
    table: TableId,
    query: &GroupByQuery,
) -> Result<(QueryResult, ExecReport), ExecError> {
    let (rs, rep) = shared_index_join(ctx, cube, table, std::slice::from_ref(query))?;
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
                assert!(
                    r.approx_eq(&expect, 1e-9),
                    "{tname}: {}",
                    q.display(&cube.schema)
                );
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
            assert!(r.approx_eq(&expect, 1e-9), "{}", q.display(&cube.schema));
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
            assert!(r.approx_eq(&expect, 1e-9), "{}", q.display(&cube.schema));
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
            assert!(r.approx_eq(&expect, 1e-9), "{}", q.display(&cube.schema));
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
            assert!(r.approx_eq(&expect, 1e-9), "{}", q.display(&cube.schema));
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
        assert!(r.approx_eq(&expect, 1e-9));
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
