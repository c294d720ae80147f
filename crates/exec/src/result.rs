//! Query results.

use starshare_olap::{GroupByQuery, StarSchema};

/// The result of one dimensional query: one row per output group.
///
/// Keys hold the member id at the query's target level for each grouped
/// dimension (dimensions aggregated to `All` are omitted from the key).
/// Rows are sorted by key, so results compare structurally.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// The query this result answers.
    pub query: GroupByQuery,
    /// `(group key, SUM(measure))`, sorted by key.
    pub rows: Vec<(Vec<u32>, f64)>,
}

impl QueryResult {
    /// Assembles a result from an unordered accumulator.
    pub fn from_groups(
        query: GroupByQuery,
        groups: impl IntoIterator<Item = (Vec<u32>, f64)>,
    ) -> Self {
        let mut rows: Vec<(Vec<u32>, f64)> = groups.into_iter().collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        QueryResult { query, rows }
    }

    /// Number of output groups.
    pub fn n_groups(&self) -> usize {
        self.rows.len()
    }

    /// Total of all group sums (handy invariant: equals the filtered total
    /// of the source data).
    pub fn grand_total(&self) -> f64 {
        self.rows.iter().map(|(_, m)| m).sum()
    }

    /// Row-for-row equality of keys and measure bits — what aggregation
    /// on the measure domain guarantees between any two evaluations.
    pub fn bit_eq(&self, other: &QueryResult) -> bool {
        self.rows.len() == other.rows.len()
            && self
                .rows
                .iter()
                .zip(&other.rows)
                .all(|((k1, m1), (k2, m2))| k1 == k2 && m1.to_bits() == m2.to_bits())
    }

    /// Structural equality with a floating-point tolerance on measures.
    ///
    /// Aggregation order differs between operators, so sums can differ by
    /// rounding; `rel_tol` is relative to each row's magnitude.
    pub fn approx_eq(&self, other: &QueryResult, rel_tol: f64) -> bool {
        if self.rows.len() != other.rows.len() {
            return false;
        }
        self.rows
            .iter()
            .zip(&other.rows)
            .all(|((k1, m1), (k2, m2))| {
                k1 == k2 && (m1 - m2).abs() <= rel_tol * m1.abs().max(m2.abs()).max(1.0)
            })
    }

    /// Renders the first `limit` rows with member names.
    pub fn display(&self, schema: &StarSchema, limit: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let grouped_dims: Vec<(usize, u8)> = self
            .query
            .group_by
            .levels()
            .iter()
            .enumerate()
            .filter_map(|(d, lr)| lr.level().map(|l| (d, l)))
            .collect();
        let header: Vec<&str> = grouped_dims
            .iter()
            .map(|&(d, l)| schema.dim(d).level(l).name.as_str())
            .collect();
        let _ = writeln!(out, "{} | {}", header.join(", "), schema.measure_name());
        for (key, m) in self.rows.iter().take(limit) {
            let names: Vec<String> = grouped_dims
                .iter()
                .zip(key)
                .map(|(&(d, l), &id)| schema.dim(d).member_name(l, id))
                .collect();
            let _ = writeln!(out, "{} | {:.2}", names.join(", "), m);
        }
        if self.rows.len() > limit {
            let _ = writeln!(out, "… {} more rows", self.rows.len() - limit);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starshare_olap::{Dimension, GroupBy, MemberPred};

    fn schema() -> StarSchema {
        StarSchema::new(
            vec![
                Dimension::uniform("A", 2, &[2]),
                Dimension::uniform("B", 2, &[2]),
            ],
            "m",
        )
    }

    fn q(s: &StarSchema) -> GroupByQuery {
        GroupByQuery::new(
            GroupBy::parse(s, "A'B*").unwrap(),
            vec![MemberPred::All, MemberPred::All],
        )
    }

    #[test]
    fn from_groups_sorts() {
        let s = schema();
        let r = QueryResult::from_groups(q(&s), vec![(vec![1], 2.0), (vec![0], 1.0)]);
        assert_eq!(r.rows[0].0, vec![0]);
        assert_eq!(r.n_groups(), 2);
        assert_eq!(r.grand_total(), 3.0);
    }

    #[test]
    fn bit_eq_compares_keys_and_measure_bits() {
        let s = schema();
        let a = QueryResult::from_groups(q(&s), vec![(vec![0], 0.0)]);
        assert!(a.bit_eq(&a.clone()));
        let b = QueryResult::from_groups(q(&s), vec![(vec![0], -0.0)]);
        assert!(!a.bit_eq(&b));
        let c = QueryResult::from_groups(q(&s), vec![(vec![1], 0.0)]);
        assert!(!a.bit_eq(&c));
        assert!(!a.bit_eq(&QueryResult::from_groups(q(&s), vec![])));
    }

    #[test]
    fn approx_eq_tolerates_rounding() {
        let s = schema();
        let a = QueryResult::from_groups(q(&s), vec![(vec![0], 100.0)]);
        let b = QueryResult::from_groups(q(&s), vec![(vec![0], 100.0 + 1e-10)]);
        assert!(a.approx_eq(&b, 1e-9));
        let c = QueryResult::from_groups(q(&s), vec![(vec![0], 101.0)]);
        assert!(!a.approx_eq(&c, 1e-9));
        let d = QueryResult::from_groups(q(&s), vec![(vec![1], 100.0)]);
        assert!(!a.approx_eq(&d, 1e-9));
        let e = QueryResult::from_groups(q(&s), vec![]);
        assert!(!a.approx_eq(&e, 1e-9));
    }

    #[test]
    fn display_uses_member_names_and_omits_all_dims() {
        let s = schema();
        let r = QueryResult::from_groups(q(&s), vec![(vec![0], 5.0), (vec![1], 7.0)]);
        let d = r.display(&s, 10);
        assert!(d.contains("A'"), "{d}");
        // Level A' of a 2-level dimension is the top: members "A1", "A2".
        assert!(d.contains("A1 | 5.00"), "{d}");
        assert!(!d.contains('B'), "B is aggregated away: {d}");
    }

    #[test]
    fn display_truncates() {
        let s = schema();
        let r =
            QueryResult::from_groups(q(&s), (0..4u32).map(|i| (vec![i], 1.0)).collect::<Vec<_>>());
        let d = r.display(&s, 2);
        assert!(d.contains("2 more rows"), "{d}");
    }
}
