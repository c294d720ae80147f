//! Cardinality estimation.
//!
//! Distinct groups by Cardenas' formula `v·(1 − (1 − 1/v)^n)` for
//! throwing `n` balls into `v` urns. The optimizer's cost model (§5.1 of
//! the paper) estimates a query's output groups with it, and the view
//! advisor a view's rows.

use crate::query::GroupBy;
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

/// Estimated rows of a table materialized at `group_by`, built from
/// `base_rows` base rows.
pub fn groupby_rows(schema: &StarSchema, group_by: &GroupBy, base_rows: f64) -> f64 {
    cardenas_distinct(base_rows, group_by.combinations(schema))
}

#[cfg(test)]
mod tests {
    use super::*;
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
}
