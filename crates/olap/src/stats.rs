//! Optional per-dimension statistics for the cost model.
//!
//! The paper's optimizer (like most of its era) assumes uniform member
//! frequencies; ablation E shows that assumption costs index-plan
//! estimates up to ~170% error under Zipf-skewed data. A [`CubeStats`]
//! holds one leaf-level frequency histogram per dimension, collected in
//! one pass over the base table at load time and absorbing every appended
//! row after that. When present, predicate
//! selectivities become exact marginals (joint independence is still
//! assumed), collapsing the skew error.
//!
//! Statistics are *optional* — the paper-faithful configuration runs
//! without them — and are attached to the [`Cube`](crate::catalog::Cube).

use crate::catalog::StoredTable;
use crate::query::{GroupByQuery, MemberPred};
use crate::schema::{DimId, StarSchema};

/// Leaf-level member frequency histogram for one dimension.
#[derive(Debug, Clone, PartialEq)]
pub struct DimHistogram {
    /// `counts[k]` = rows whose leaf member id is `k`.
    counts: Vec<u64>,
    total: u64,
}

impl DimHistogram {
    /// Builds from explicit counts.
    pub fn new(counts: Vec<u64>) -> Self {
        let total = counts.iter().sum();
        DimHistogram { counts, total }
    }

    /// Rows counted.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Fraction of rows whose leaf member is in `leaf_members`.
    pub fn fraction_of(&self, leaf_members: impl IntoIterator<Item = u32>) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let hits: u64 = leaf_members
            .into_iter()
            .map(|m| self.counts.get(m as usize).copied().unwrap_or(0))
            .sum();
        hits as f64 / self.total as f64
    }
}

/// One histogram per dimension, over the base table.
#[derive(Debug, Clone, PartialEq)]
pub struct CubeStats {
    histograms: Vec<DimHistogram>,
}

impl CubeStats {
    /// Collects statistics from a base-level table (one raw pass).
    ///
    /// # Panics
    /// Panics if `base` does not store every dimension at its leaf level.
    pub fn collect(schema: &StarSchema, base: &StoredTable) -> Self {
        let n_dims = schema.n_dims();
        for d in 0..n_dims {
            assert_eq!(
                base.stored_level(d),
                Some(0),
                "statistics are collected over leaf-level data"
            );
        }
        let mut counts: Vec<Vec<u64>> = (0..n_dims)
            .map(|d| vec![0u64; schema.dim(d).cardinality(0) as usize])
            .collect();
        let mut keys = vec![0u32; n_dims];
        for pos in 0..base.n_rows() {
            base.heap().read_at(pos, &mut keys);
            for d in 0..n_dims {
                counts[d][keys[d] as usize] += 1;
            }
        }
        CubeStats {
            histograms: counts.into_iter().map(DimHistogram::new).collect(),
        }
    }

    /// Absorbs appended fact rows (leaf keys plus measure): each row adds
    /// one to its member's count in every dimension, so the result equals
    /// a fresh [`collect`](Self::collect) over the grown base table.
    ///
    /// # Panics
    /// Panics if a row's key count or a key is out of range for the
    /// histograms (callers validate rows first).
    pub fn absorb(&mut self, rows: &[(Vec<u32>, f64)]) {
        for (keys, _) in rows {
            assert_eq!(keys.len(), self.histograms.len(), "row arity");
            for (h, &k) in self.histograms.iter_mut().zip(keys) {
                h.counts[k as usize] += 1;
                h.total += 1;
            }
        }
    }

    /// The histogram for dimension `d`.
    pub fn histogram(&self, d: DimId) -> &DimHistogram {
        &self.histograms[d]
    }

    /// Histogram-exact selectivity of one predicate (replaces the uniform
    /// `members / cardinality` estimate).
    pub fn pred_selectivity(&self, schema: &StarSchema, d: DimId, pred: &MemberPred) -> f64 {
        match pred {
            MemberPred::All => 1.0,
            MemberPred::In { .. } => {
                let leaves = pred
                    .expand_to_level(schema, d, 0)
                    .expect("In predicates expand");
                self.histograms[d].fraction_of(leaves)
            }
        }
    }

    /// Combined selectivity of a query's predicates (independence across
    /// dimensions, exact marginals within each).
    pub fn query_selectivity(&self, schema: &StarSchema, query: &GroupByQuery) -> f64 {
        query
            .preds
            .iter()
            .enumerate()
            .map(|(d, p)| self.pred_selectivity(schema, d, p))
            .product()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::TableId;
    use crate::datagen::CubeBuilder;
    use crate::schema::Dimension;

    fn skewed_cube() -> crate::catalog::Cube {
        let schema = StarSchema::new(
            vec![
                Dimension::uniform("X", 2, &[5]),
                Dimension::uniform("Y", 2, &[3]),
            ],
            "m",
        );
        CubeBuilder::new(schema)
            .rows(8_000)
            .seed(4)
            .skew(1.0)
            .build()
    }

    #[test]
    fn histogram_counts_every_row_once() {
        let cube = skewed_cube();
        let base = cube.catalog.table(TableId(0));
        let stats = CubeStats::collect(&cube.schema, base);
        for d in 0..2 {
            assert_eq!(stats.histogram(d).total(), 8_000, "dim {d}");
        }
        // Full-range fraction is 1.
        let f = stats.histogram(0).fraction_of(0..10);
        assert!((f - 1.0).abs() < 1e-12);
    }

    #[test]
    fn skewed_selectivity_differs_from_uniform() {
        let cube = skewed_cube();
        let base = cube.catalog.table(TableId(0));
        let stats = CubeStats::collect(&cube.schema, base);
        // Member 0 under Zipf(1) over 10 leaves carries ~34%, not 10%.
        let pred = MemberPred::eq(0, 0);
        let uniform = pred.selectivity(&cube.schema, 0);
        let exact = stats.pred_selectivity(&cube.schema, 0, &pred);
        assert!((uniform - 0.1).abs() < 1e-12);
        assert!(exact > 0.25, "{exact}");
        // Coarse-level predicate aggregates the leaf counts.
        let top = MemberPred::eq(1, 0); // first parent = leaves 0..5
        let exact_top = stats.pred_selectivity(&cube.schema, 0, &top);
        // Zipf(1) over 10 leaves: first parent (leaves 0..5) carries
        // H(5)/H(10) ≈ 0.78 of the mass, vs 0.5 uniform.
        assert!(exact_top > 0.7, "{exact_top}");
    }

    #[test]
    fn query_selectivity_multiplies_marginals() {
        let cube = skewed_cube();
        let base = cube.catalog.table(TableId(0));
        let stats = CubeStats::collect(&cube.schema, base);
        let q = GroupByQuery::new(
            crate::query::GroupBy::finest(2),
            vec![MemberPred::eq(0, 0), MemberPred::eq(0, 0)],
        );
        let s0 = stats.pred_selectivity(&cube.schema, 0, &q.preds[0]);
        let s1 = stats.pred_selectivity(&cube.schema, 1, &q.preds[1]);
        let joint = stats.query_selectivity(&cube.schema, &q);
        assert!((joint - s0 * s1).abs() < 1e-12);
    }

    #[test]
    fn exact_marginal_matches_brute_force() {
        let cube = skewed_cube();
        let base = cube.catalog.table(TableId(0));
        let stats = CubeStats::collect(&cube.schema, base);
        let pred = MemberPred::members_in(0, vec![1, 3]);
        let est = stats.pred_selectivity(&cube.schema, 0, &pred);
        let mut keys = [0u32; 2];
        let hits = (0..base.n_rows())
            .filter(|&p| {
                base.heap().read_at(p, &mut keys);
                keys[0] == 1 || keys[0] == 3
            })
            .count();
        assert!((est - hits as f64 / 8_000.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "leaf-level")]
    fn collect_rejects_aggregated_tables() {
        let cube = skewed_cube();
        let coarse = crate::catalog::materialize(
            &cube.schema,
            cube.catalog.table(TableId(0)),
            crate::query::GroupBy::parse(&cube.schema, "X'Y").unwrap(),
            "v",
            starshare_storage::FileId(99),
        );
        CubeStats::collect(&cube.schema, &coarse);
    }
}
