//! Cardinality and selectivity estimation.
//!
//! The optimizer's cost formulas (§5.1 of the paper) need three estimates:
//! how many tuples a predicate keeps, how many groups an aggregation
//! produces, and how many pages a scattered set of tuples touches. All three
//! are classical:
//!
//! * predicate selectivity — uniformity + independence across dimensions;
//! * distinct groups — Cardenas' formula `v·(1 − (1 − 1/v)^n)` for throwing
//!   `n` balls into `v` urns;
//! * pages touched — Yao's approximation for fetching `k` of `n` tuples
//!   packed `m` per page.

use crate::query::{GroupBy, GroupByQuery};
use crate::schema::StarSchema;

/// Expected distinct values when `n_rows` rows draw uniformly from
/// `n_combos` possible combinations (Cardenas' formula).
///
/// Returns 0 for empty inputs; never exceeds either argument.
pub fn cardenas_distinct(n_rows: f64, n_combos: f64) -> f64 {
    if n_rows <= 0.0 || n_combos <= 0.0 {
        return 0.0;
    }
    // v(1 - (1 - 1/v)^n) computed stably as v(1 - exp(n·ln(1-1/v))).
    let v = n_combos;
    let est = if v > 1e6 {
        // ln(1-1/v) ≈ -1/v for large v.
        v * (1.0 - (-n_rows / v).exp())
    } else {
        v * (1.0 - (1.0 - 1.0 / v).powf(n_rows))
    };
    est.min(n_rows).min(n_combos)
}

/// Expected pages touched when fetching `k` random tuples from a table of
/// `n` tuples stored `m` per page (Yao's approximation via Cardenas on
/// pages: each fetched tuple lands on a uniform page).
pub fn yao_pages(k: f64, n: f64, tuples_per_page: f64) -> f64 {
    if k <= 0.0 || n <= 0.0 || tuples_per_page <= 0.0 {
        return 0.0;
    }
    let pages = (n / tuples_per_page).ceil();
    cardenas_distinct(k, pages)
}

/// Estimated rows of a table materialized at `group_by`, built from
/// `base_rows` base rows.
pub fn groupby_rows(schema: &StarSchema, group_by: &GroupBy, base_rows: f64) -> f64 {
    cardenas_distinct(base_rows, group_by.combinations(schema))
}

/// Estimates for evaluating one query against one stored table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryEstimate {
    /// Rows of the source table the query reads (all of them for a scan).
    pub source_rows: f64,
    /// Rows surviving the predicates.
    pub qualifying_rows: f64,
    /// Distinct output groups.
    pub output_groups: f64,
}

/// Estimates a query evaluated from a table of `source_rows` rows stored at
/// `stored` levels.
///
/// The predicate keeps `selectivity(query)` of the source (uniformity +
/// independence); the output group count is Cardenas over the *restricted*
/// combination space (each `IN` predicate shrinks its dimension's active
/// member count at the target level).
pub fn estimate_query(
    schema: &StarSchema,
    query: &GroupByQuery,
    stored: &GroupBy,
    source_rows: f64,
) -> QueryEstimate {
    debug_assert!(
        query.answerable_from(stored),
        "estimating a query against a table that cannot answer it"
    );
    let sel = query.selectivity(schema);
    let qualifying = source_rows * sel;
    // Restricted combination space at the target group-by.
    let mut combos = 1.0;
    for (d, lr) in query.group_by.levels().iter().enumerate() {
        let full = lr.cardinality(schema.dim(d)) as f64;
        combos *= full * query.preds[d].selectivity(schema, d).min(1.0);
    }
    combos = combos.max(1.0);
    QueryEstimate {
        source_rows,
        qualifying_rows: qualifying,
        output_groups: cardenas_distinct(qualifying, combos),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::MemberPred;
    use crate::schema::Dimension;

    fn schema() -> StarSchema {
        StarSchema::new(
            vec![
                Dimension::uniform("A", 3, &[2, 10]),
                Dimension::uniform("B", 3, &[2, 10]),
                Dimension::uniform("C", 3, &[2, 10]),
                Dimension::uniform("D", 3, &[8, 300]),
            ],
            "dollars",
        )
    }

    #[test]
    fn cardenas_basic_properties() {
        // Few rows into many urns: nearly all distinct.
        let d = cardenas_distinct(100.0, 1e9);
        assert!((d - 100.0).abs() < 0.01, "{d}");
        // Many rows into few urns: saturates at the urn count.
        let d = cardenas_distinct(1e9, 100.0);
        assert!((d - 100.0).abs() < 0.01, "{d}");
        // Zero cases.
        assert_eq!(cardenas_distinct(0.0, 10.0), 0.0);
        assert_eq!(cardenas_distinct(10.0, 0.0), 0.0);
        // Monotone in rows.
        assert!(cardenas_distinct(10.0, 50.0) < cardenas_distinct(20.0, 50.0));
    }

    #[test]
    fn cardenas_matches_closed_form_mid_range() {
        // n = v: expect v(1-(1-1/v)^v) ≈ v(1 - 1/e).
        let v = 1000.0;
        let d = cardenas_distinct(v, v);
        let expect = v * (1.0 - (1.0f64 - 1.0 / v).powf(v));
        assert!((d - expect).abs() < 1e-6);
        assert!((d / v - 0.632).abs() < 0.01);
    }

    #[test]
    fn cardenas_large_v_branch_is_continuous() {
        // The two computation branches must agree around the 1e6 switch.
        let below = cardenas_distinct(2e6, 999_999.0);
        let above = cardenas_distinct(2e6, 1_000_001.0);
        assert!((below - above).abs() / below < 1e-3, "{below} vs {above}");
    }

    #[test]
    fn yao_pages_bounds() {
        // Fetching more tuples than pages saturates at the page count.
        let p = yao_pages(10_000.0, 10_000.0, 100.0);
        assert!((p - 100.0).abs() < 1.0);
        // Fetching 1 tuple touches ~1 page.
        let p = yao_pages(1.0, 10_000.0, 100.0);
        assert!((p - 1.0).abs() < 0.01);
        assert_eq!(yao_pages(0.0, 100.0, 10.0), 0.0);
    }

    #[test]
    fn groupby_rows_for_paper_views() {
        let s = schema();
        let n = 2_000_000.0;
        // D leaf cardinality = 2400 here (3×8×300/...): D = 3*8*300 = 7200.
        let v = GroupBy::parse(&s, "A'B'C'D").unwrap();
        let rows = groupby_rows(&s, &v, n);
        // combos = 6*6*6*7200 = 1_555_200 → ≈1.13M distinct.
        assert!(rows > 1.0e6 && rows < 1.3e6, "{rows}");
        let v2 = GroupBy::parse(&s, "A'B''C'D").unwrap();
        let rows2 = groupby_rows(&s, &v2, n);
        assert!(rows2 > 6.0e5 && rows2 < 8.0e5, "{rows2}");
        // The paper's Test-4 ratio: the consolidation view is only ~1.5×
        // bigger than each local optimum.
        assert!(rows / rows2 < 1.7, "{}", rows / rows2);
    }

    #[test]
    fn estimate_query_applies_selectivity() {
        let s = schema();
        let q = GroupByQuery::new(
            GroupBy::parse(&s, "A''B''C''D").unwrap(),
            vec![
                MemberPred::eq(2, 0),
                MemberPred::All,
                MemberPred::All,
                MemberPred::All,
            ],
        );
        let stored = GroupBy::finest(4);
        let e = estimate_query(&s, &q, &stored, 3000.0);
        assert_eq!(e.source_rows, 3000.0);
        assert!((e.qualifying_rows - 1000.0).abs() < 1e-9);
        // Output groups bounded by restricted combos: 1×3×3×7200 but only
        // 1000 rows → ≈1000 groups at most.
        assert!(e.output_groups <= 1000.0);
        assert!(e.output_groups > 0.0);
    }

    #[test]
    fn estimate_restricted_group_space() {
        let s = schema();
        // Group by top levels with single-member predicates everywhere:
        // only one group can come out.
        let q = GroupByQuery::new(
            GroupBy::parse(&s, "A''B''C''D''").unwrap(),
            vec![
                MemberPred::eq(2, 0),
                MemberPred::eq(2, 1),
                MemberPred::eq(2, 2),
                MemberPred::eq(2, 0),
            ],
        );
        let e = estimate_query(&s, &q, &GroupBy::finest(4), 1e6);
        assert!(e.output_groups <= 1.0 + 1e-9, "{}", e.output_groups);
    }
}
