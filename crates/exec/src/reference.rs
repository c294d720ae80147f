//! Reference evaluator.
//!
//! A deliberately naive, allocation-happy, *independent* implementation of
//! dimensional query evaluation: full raw scan, per-dimension roll-up via
//! the schema, predicate check, BTreeMap aggregation. No buffer pool, no
//! counters, no shared code with the operators beyond the schema types —
//! its whole job is to be obviously correct so the test suite can compare
//! every operator against it.

use std::collections::BTreeMap;

use starshare_olap::{AggFn, Cube, GroupByQuery, LevelRef, MeasureKind, MemberPred, TableId};

use crate::result::QueryResult;

/// Evaluates `query` against `table` by brute force.
///
/// # Panics
/// Panics if the table cannot answer the query (levels or measure).
pub fn reference_eval(cube: &Cube, table: TableId, query: &GroupByQuery) -> QueryResult {
    let schema = &cube.schema;
    let t = cube.catalog.table(table);
    assert!(
        query.answerable_from(t.group_by()),
        "reference_eval: {} not answerable from {}",
        query.display(schema),
        t.group_by().display(schema)
    );
    assert!(
        t.measure().answers(query.agg),
        "reference_eval: a {} table cannot answer {} queries",
        t.measure(),
        query.agg
    );
    let n_dims = schema.n_dims();
    // Deliberately independent aggregation logic: (value, row count) pairs
    // folded by a plain match, not the engine's AggState.
    let mut groups: BTreeMap<Vec<u32>, (f64, u64)> = BTreeMap::new();
    let mut keys = vec![0u32; n_dims];
    'tuples: for pos in 0..t.n_rows() {
        let measure = t.heap().read_at(pos, &mut keys);
        // Predicates.
        #[allow(clippy::needless_range_loop)] // d indexes three parallel structures
        for d in 0..n_dims {
            if let MemberPred::In { level, members } = &query.preds[d] {
                let stored = t
                    .stored_level(d)
                    .expect("pred on an All dimension is unanswerable");
                let rolled = schema.dim(d).roll_up(keys[d], stored, *level);
                // `MemberPred::In` members are sorted + deduplicated.
                if members.binary_search(&rolled).is_err() {
                    continue 'tuples;
                }
            }
        }
        // Group key.
        let mut gk = Vec::new();
        #[allow(clippy::needless_range_loop)] // d indexes parallel structures
        for d in 0..n_dims {
            if let LevelRef::Level(target) = query.group_by.level(d) {
                let stored = t.stored_level(d).expect("target on an All dimension");
                gk.push(schema.dim(d).roll_up(keys[d], stored, target));
            }
        }
        let cell = groups.entry(gk);
        let from_count_view = matches!(t.measure(), MeasureKind::Aggregated(AggFn::Count));
        match query.agg {
            AggFn::Sum => {
                let e = cell.or_insert((0.0, 0));
                e.0 += measure;
            }
            AggFn::Count => {
                let e = cell.or_insert((0.0, 0));
                e.0 += if from_count_view { measure } else { 1.0 };
            }
            AggFn::Min => {
                let e = cell.or_insert((f64::INFINITY, 0));
                e.0 = e.0.min(measure);
            }
            AggFn::Max => {
                let e = cell.or_insert((f64::NEG_INFINITY, 0));
                e.0 = e.0.max(measure);
            }
            AggFn::Avg => {
                let e = cell.or_insert((0.0, 0));
                e.0 += measure;
                e.1 += 1;
            }
        }
    }
    QueryResult::from_groups(
        query.clone(),
        groups.into_iter().map(|(k, (v, n))| match query.agg {
            AggFn::Avg => (k, v / n as f64),
            _ => (k, v),
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use starshare_olap::{paper_cube, GroupBy, PaperCubeSpec};

    fn tiny_cube() -> Cube {
        paper_cube(PaperCubeSpec {
            base_rows: 2_000,
            d_leaf: 24,
            seed: 3,
            with_indexes: false,
        })
    }

    #[test]
    fn unfiltered_total_matches_base_sum() {
        let cube = tiny_cube();
        let base = cube.catalog.base_table().unwrap();
        let q = GroupByQuery::unfiltered(cube.groupby("A''B''C''D''"));
        let r = reference_eval(&cube, base, &q);
        let t = cube.catalog.table(base);
        let mut keys = vec![0u32; 4];
        let expect: f64 = (0..t.n_rows())
            .map(|p| t.heap().read_at(p, &mut keys))
            .sum();
        assert!((r.grand_total() - expect).abs() < 1e-6);
        assert!(r.n_groups() <= 81);
    }

    #[test]
    fn same_answer_from_base_and_view() {
        let cube = tiny_cube();
        let base = cube.catalog.base_table().unwrap();
        let view = cube.catalog.find_by_name("A'B'C'D").unwrap();
        let q = GroupByQuery::new(
            cube.groupby("A'B''C''D"),
            vec![
                MemberPred::members_in(1, vec![0, 1, 2]),
                MemberPred::eq(2, 0),
                MemberPred::All,
                MemberPred::eq(1, 0),
            ],
        );
        let r1 = reference_eval(&cube, base, &q);
        let r2 = reference_eval(&cube, view, &q);
        assert!(r1.bit_eq(&r2), "base vs view disagree");
        assert!(r1.n_groups() > 0, "query should not be empty at this scale");
    }

    #[test]
    fn empty_predicate_yields_empty_result() {
        let cube = tiny_cube();
        let base = cube.catalog.base_table().unwrap();
        // A'' member predicates are 0,1,2; intersecting two disjoint single
        // members is impossible per dimension, so pick an empty member set.
        let q = GroupByQuery::new(
            GroupBy::finest(4),
            vec![
                MemberPred::members_in(2, vec![]),
                MemberPred::All,
                MemberPred::All,
                MemberPred::All,
            ],
        );
        let r = reference_eval(&cube, base, &q);
        assert_eq!(r.n_groups(), 0);
        assert_eq!(r.grand_total(), 0.0);
    }
}
