//! Zone-map partition pruning for compressed heaps.
//!
//! Compressed heaps maintain per-zone (128-page partition) `(min, max)`
//! stored-key bounds for every dimension (see
//! [`HeapFile::zone_bounds`]). Because every hierarchy roll-up
//! (`id / fan_out`) is monotone non-decreasing in `id`, a zone's stored-key
//! interval `[lo, hi]` rolls up to the interval
//! `[roll_up(lo), roll_up(hi)]` at any coarser predicate level — so an
//! `In` predicate can possibly hold inside a zone **only** if one of its
//! members falls in that rolled interval. That check is conservative by
//! construction: it can keep a zone with no qualifying tuple, but it can
//! never drop a zone containing one, so skipping pruned zones leaves every
//! query's result bit-identical and only removes I/O that was guaranteed
//! to produce nothing.
//!
//! A shared scan serves *many* queries at once, so a zone is pruned only
//! when **no** query in the class can match it. Pruning is gated on
//! [`HeapFile::is_compressed`]: the uncompressed path keeps its historical
//! full-scan fault counts untouched.

use starshare_olap::{GroupByQuery, MemberPred, StarSchema, StoredTable};
use starshare_storage::HeapFile;

/// Whether any tuple in `zone` may satisfy `query`'s predicates,
/// judged from the zone's per-dimension key bounds alone.
///
/// Conservative: unknown cases (no stored level, predicate finer than the
/// stored level, uninitialized bounds) answer `true`.
pub(crate) fn zone_may_match(
    schema: &StarSchema,
    table: &StoredTable,
    heap: &HeapFile,
    zone: u32,
    query: &GroupByQuery,
) -> bool {
    for (d, pred) in query.preds.iter().enumerate() {
        let MemberPred::In { level, members } = pred else {
            continue;
        };
        let Some(stored) = table.stored_level(d) else {
            continue;
        };
        if *level < stored {
            // Predicate finer than the stored keys: bounds can't decide it.
            continue;
        }
        let (lo, hi) = heap.zone_bounds(zone, d);
        if lo > hi {
            continue;
        }
        let dim = schema.dim(d);
        let rlo = dim.roll_up(lo, stored, *level);
        let rhi = dim.roll_up(hi, stored, *level);
        // `members` is sorted: any member in [rlo, rhi]?
        let any = match members.binary_search(&rlo) {
            Ok(_) => true,
            Err(i) => members.get(i).is_some_and(|&m| m <= rhi),
        };
        if !any {
            return false;
        }
    }
    true
}

/// The tuple ranges a shared scan over `table` must visit to serve all of
/// `queries`: adjacent surviving zones coalesce into one `[lo, hi)` range.
///
/// `None` means "scan everything" — the heap is uncompressed (no zone
/// maps on the priced path), has at most one zone, or no zone could be
/// pruned — so callers fall back to the unpruned scan verbatim. `Some`
/// may be empty: every zone was excluded and the scan touches nothing.
pub(crate) fn keep_tuple_ranges<'q>(
    schema: &StarSchema,
    table: &StoredTable,
    queries: impl IntoIterator<Item = &'q GroupByQuery>,
) -> Option<Vec<(u64, u64)>> {
    let heap = table.heap();
    if !heap.is_compressed() {
        return None;
    }
    let n_zones = heap.zone_count();
    if n_zones <= 1 {
        return None;
    }
    let queries: Vec<&GroupByQuery> = queries.into_iter().collect();
    let mut out: Vec<(u64, u64)> = Vec::new();
    let mut pruned = false;
    for z in 0..n_zones {
        if queries
            .iter()
            .any(|q| zone_may_match(schema, table, heap, z, q))
        {
            let (lo, hi) = heap.zone_tuple_range(z);
            if lo == hi {
                continue;
            }
            match out.last_mut() {
                Some(r) if r.1 == lo => r.1 = hi,
                _ => out.push((lo, hi)),
            }
        } else {
            pruned = true;
        }
    }
    pruned.then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use starshare_olap::{paper_schema, Cube, CubeBuilder, GroupByQuery};

    /// A base table clustered by dimension A (the only layout zone maps
    /// can prune) and stored compressed. No views: pruning is judged on
    /// the base table directly.
    fn cube() -> Cube {
        CubeBuilder::new(paper_schema(24))
            .rows(300_000)
            .seed(5)
            .cluster_by("A")
            .compress()
            .build()
    }

    /// Brute-force oracle: does any tuple in the zone satisfy the query?
    fn zone_truly_matches(
        cube: &starshare_olap::Cube,
        t: &StoredTable,
        zone: u32,
        q: &GroupByQuery,
    ) -> bool {
        let heap = t.heap();
        let (lo, hi) = heap.zone_tuple_range(zone);
        let mut keys = vec![0u32; cube.schema.n_dims()];
        (lo..hi).any(|pos| {
            heap.read_at(pos, &mut keys);
            q.preds.iter().enumerate().all(|(d, p)| {
                t.stored_level(d)
                    .map(|s| p.matches(&cube.schema, d, s, keys[d]))
                    .unwrap_or(true)
            })
        })
    }

    #[test]
    fn zone_check_never_drops_a_qualifying_zone() {
        let cube = cube();
        let tid = cube.catalog.base_table().unwrap();
        let t = cube.catalog.table(tid);
        let heap = t.heap();
        assert!(heap.zone_count() > 1, "table too small to exercise zones");
        // A spread of selectivities, including predicates at coarser levels.
        let queries = [
            GroupByQuery::new(
                cube.groupby("A'B'C'D'"),
                vec![
                    MemberPred::eq(0, 0),
                    MemberPred::All,
                    MemberPred::All,
                    MemberPred::All,
                ],
            ),
            GroupByQuery::new(
                cube.groupby("A''B''C''D''"),
                vec![
                    MemberPred::All,
                    MemberPred::eq(2, 1),
                    MemberPred::members_in(1, vec![0, 3]),
                    MemberPred::All,
                ],
            ),
            GroupByQuery::new(
                cube.groupby("AB'C'D'"),
                vec![
                    MemberPred::members_in(0, vec![2, 11, 17]),
                    MemberPred::All,
                    MemberPred::All,
                    MemberPred::eq(1, 2),
                ],
            ),
        ];
        let mut pruned_some = false;
        for q in &queries {
            for z in 0..heap.zone_count() {
                let kept = zone_may_match(&cube.schema, t, heap, z, q);
                if zone_truly_matches(&cube, t, z, q) {
                    assert!(kept, "zone {z} has qualifying tuples but was pruned");
                }
                pruned_some |= !kept;
            }
        }
        assert!(pruned_some, "no zone pruned on any query: test is vacuous");
    }

    #[test]
    fn ranges_cover_exactly_the_surviving_zones() {
        let cube = cube();
        let tid = cube.catalog.base_table().unwrap();
        let t = cube.catalog.table(tid);
        let heap = t.heap();
        let q = GroupByQuery::new(
            cube.groupby("A'B'C'D'"),
            vec![
                MemberPred::eq(0, 3),
                MemberPred::All,
                MemberPred::All,
                MemberPred::All,
            ],
        );
        let ranges = keep_tuple_ranges(&cube.schema, t, [&q])
            .expect("leaf-sorted dim 0 must prune some zones");
        // Ranges are sorted, disjoint, non-empty, and their union is the
        // union of surviving zones.
        for w in ranges.windows(2) {
            assert!(w[0].1 < w[1].0, "coalesced ranges never touch");
        }
        let mut covered = 0u64;
        for &(lo, hi) in &ranges {
            assert!(lo < hi);
            covered += hi - lo;
        }
        let expect: u64 = (0..heap.zone_count())
            .filter(|&z| zone_may_match(&cube.schema, t, heap, z, &q))
            .map(|z| {
                let (lo, hi) = heap.zone_tuple_range(z);
                hi - lo
            })
            .sum();
        assert_eq!(covered, expect);
        assert!(covered < heap.n_tuples(), "something must be pruned");
    }

    #[test]
    fn uncompressed_heaps_never_prune() {
        // Clustered but NOT compressed: the priced path has no zone maps.
        let cube = CubeBuilder::new(paper_schema(24))
            .rows(50_000)
            .seed(5)
            .cluster_by("A")
            .build();
        let tid = cube.catalog.base_table().unwrap();
        let t = cube.catalog.table(tid);
        let q = GroupByQuery::new(
            cube.groupby("A'B'C'D'"),
            vec![
                MemberPred::eq(0, 0),
                MemberPred::All,
                MemberPred::All,
                MemberPred::All,
            ],
        );
        assert!(keep_tuple_ranges(&cube.schema, t, [&q]).is_none());
    }

    #[test]
    fn pruned_execution_is_bit_identical_to_unpruned() {
        use crate::context::ExecContext;
        use crate::operators::shared_hybrid_join;
        use crate::parallel::{execute_class, ClassSpec, DEFAULT_MORSEL_PAGES};

        let build = |compress: bool| {
            let b = CubeBuilder::new(paper_schema(24))
                .rows(300_000)
                .seed(9)
                .cluster_by("A");
            if compress {
                b.compress().build()
            } else {
                b.build()
            }
        };
        let plain = build(false);
        let comp = build(true);
        let queries = |cube: &Cube| {
            vec![
                GroupByQuery::new(
                    cube.groupby("A'B'C'D'"),
                    vec![
                        MemberPred::eq(0, 7),
                        MemberPred::All,
                        MemberPred::All,
                        MemberPred::All,
                    ],
                ),
                GroupByQuery::new(
                    cube.groupby("A''B''C''D''"),
                    vec![
                        MemberPred::members_in(1, vec![0, 4]),
                        MemberPred::eq(2, 2),
                        MemberPred::All,
                        MemberPred::All,
                    ],
                ),
            ]
        };
        let run_whole = |cube: &Cube| {
            let tid = cube.catalog.base_table().unwrap();
            let mut ctx = ExecContext::paper_1998();
            shared_hybrid_join(&mut ctx, cube, tid, &queries(cube), &[]).unwrap()
        };
        let (plain_rs, plain_rep) = run_whole(&plain);
        let (comp_rs, comp_rep) = run_whole(&comp);
        assert_eq!(plain_rs, comp_rs, "pruning must not move a single bit");
        assert!(
            comp_rep.io.seq_faults < plain_rep.io.seq_faults,
            "pruning must skip whole zones ({} vs {})",
            comp_rep.io.seq_faults,
            plain_rep.io.seq_faults
        );
        assert!(
            comp_rep.io.bytes_scanned() * 2 < plain_rep.io.bytes_scanned(),
            "compression + pruning must at least halve bytes scanned"
        );

        // Default-size morsels prune with the same query set, so they
        // match the whole-table pass exactly — results and fault counts —
        // at any thread count.
        let tid = comp.catalog.base_table().unwrap();
        for threads in [1usize, 4] {
            let mut ctx = ExecContext::paper_1998();
            let spec = ClassSpec {
                table: tid,
                hash_queries: queries(&comp),
                index_queries: vec![],
            };
            let out = execute_class(&mut ctx, &comp, &spec, threads, DEFAULT_MORSEL_PAGES).unwrap();
            assert_eq!(out.results, comp_rs, "{threads} threads");
            assert_eq!(out.report.io.seq_faults, comp_rep.io.seq_faults);
            assert_eq!(out.report.io.bytes_scanned(), comp_rep.io.bytes_scanned());
        }
    }

    #[test]
    fn unselective_queries_defeat_pruning_for_the_whole_class() {
        let cube = cube();
        let tid = cube.catalog.base_table().unwrap();
        let t = cube.catalog.table(tid);
        let selective = GroupByQuery::new(
            cube.groupby("A'B'C'D'"),
            vec![
                MemberPred::eq(0, 0),
                MemberPred::All,
                MemberPred::All,
                MemberPred::All,
            ],
        );
        let broad = GroupByQuery::new(
            cube.groupby("A'B'C'D'"),
            vec![
                MemberPred::All,
                MemberPred::All,
                MemberPred::All,
                MemberPred::All,
            ],
        );
        assert!(keep_tuple_ranges(&cube.schema, t, [&selective]).is_some());
        // One predicate-free query in the class keeps every zone alive.
        assert!(keep_tuple_ranges(&cube.schema, t, [&selective, &broad]).is_none());
    }
}
