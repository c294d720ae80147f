//! Materialized-view selection: the Harinarayan–Rajaraman–Ullman greedy
//! algorithm ("Implementing Data Cubes Efficiently", SIGMOD 1996 — cited
//! by the paper as \[HRU96\]).
//!
//! The paper *assumes* a set of precomputed group-bys and optimizes query
//! sets against it; this module answers the upstream question of **which
//! group-bys to precompute**. The classic HRU model: answering a query at
//! lattice node `w` costs the size of the smallest materialized ancestor,
//! so the benefit of materializing `v` is the total size saving it brings
//! to every node it derives. Greedy selection of the top-`k` views is
//! within (1 − 1/e) of optimal for this benefit function.
//!
//! Sizes are estimated with Cardenas' formula over the hierarchy lattice
//! (the same estimator the §5.1 cost model uses), so the advisor needs no
//! data — just the schema and the base row count.

use crate::estimate::groupby_rows;
use crate::query::{GroupBy, LevelRef};
use crate::schema::StarSchema;

/// One recommended view.
#[derive(Debug, Clone)]
pub struct Recommendation {
    /// The group-by to materialize.
    pub group_by: GroupBy,
    /// Estimated rows.
    pub est_rows: f64,
    /// HRU benefit at selection time (total estimated rows saved across
    /// the lattice, given everything selected before it).
    pub benefit: f64,
}

/// Configuration for [`recommend_views`].
#[derive(Debug, Clone, Copy)]
pub struct AdvisorConfig {
    /// Maximum number of views to recommend.
    pub max_views: usize,
    /// Optional budget on the total estimated rows across recommended
    /// views (a crude space budget; rows × tuple width = bytes).
    pub row_budget: Option<f64>,
}

impl Default for AdvisorConfig {
    fn default() -> Self {
        AdvisorConfig {
            max_views: 4,
            row_budget: None,
        }
    }
}

/// Enumerates every node of the group-by lattice (each dimension at any
/// level or `All`), excluding the all-leaf base itself.
pub fn lattice_nodes(schema: &StarSchema) -> Vec<GroupBy> {
    let n = schema.n_dims();
    let options: Vec<Vec<LevelRef>> = (0..n)
        .map(|d| {
            let mut o: Vec<LevelRef> = (0..schema.dim(d).n_levels()).map(LevelRef::Level).collect();
            o.push(LevelRef::All);
            o
        })
        .collect();
    let mut nodes = Vec::new();
    let mut choice = vec![0usize; n];
    loop {
        let gb = GroupBy::new((0..n).map(|d| options[d][choice[d]]).collect());
        if gb != GroupBy::finest(n) {
            nodes.push(gb);
        }
        let mut d = n;
        loop {
            if d == 0 {
                return nodes;
            }
            d -= 1;
            choice[d] += 1;
            if choice[d] < options[d].len() {
                break;
            }
            choice[d] = 0;
        }
    }
}

/// Runs HRU greedy selection over the full lattice.
///
/// Stops when `max_views` views are selected, the row budget is exhausted,
/// or no remaining view has positive benefit.
pub fn recommend_views(
    schema: &StarSchema,
    base_rows: u64,
    cfg: AdvisorConfig,
) -> Vec<Recommendation> {
    let nodes = lattice_nodes(schema);
    let sizes: Vec<f64> = nodes
        .iter()
        .map(|gb| groupby_rows(schema, gb, base_rows as f64))
        .collect();

    // cost[w] = size of the cheapest selected ancestor (base to start).
    let mut cost: Vec<f64> = vec![base_rows as f64; nodes.len()];
    let mut selected: Vec<usize> = Vec::new();
    let mut budget = cfg.row_budget.unwrap_or(f64::INFINITY);
    let mut out = Vec::new();

    for _ in 0..cfg.max_views {
        let mut best: Option<(usize, f64)> = None;
        for (v, gb_v) in nodes.iter().enumerate() {
            if selected.contains(&v) || sizes[v] > budget {
                continue;
            }
            // Benefit: sum over nodes w derivable from v of the saving.
            let mut benefit = 0.0;
            for (w, gb_w) in nodes.iter().enumerate() {
                if gb_v.derives(gb_w) {
                    benefit += (cost[w] - sizes[v]).max(0.0);
                }
            }
            if best.is_none_or(|(_, b)| benefit > b) {
                best = Some((v, benefit));
            }
        }
        let Some((v, benefit)) = best else { break };
        if benefit <= 0.0 {
            break;
        }
        selected.push(v);
        budget -= sizes[v];
        for (w, gb_w) in nodes.iter().enumerate() {
            if nodes[v].derives(gb_w) {
                cost[w] = cost[w].min(sizes[v]);
            }
        }
        out.push(Recommendation {
            group_by: nodes[v].clone(),
            est_rows: sizes[v],
            benefit,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen::paper_schema;
    use crate::schema::Dimension;

    #[test]
    fn lattice_enumerates_all_level_combinations() {
        let s = StarSchema::new(
            vec![
                Dimension::uniform("X", 2, &[2]),
                Dimension::uniform("Y", 2, &[3]),
            ],
            "m",
        );
        let nodes = lattice_nodes(&s);
        // (2 levels + All)² minus the base = 8.
        assert_eq!(nodes.len(), 8);
        assert!(!nodes.contains(&GroupBy::finest(2)));
    }

    #[test]
    fn greedy_benefits_are_monotone_nonincreasing() {
        let s = paper_schema(96);
        let recs = recommend_views(
            &s,
            100_000,
            AdvisorConfig {
                max_views: 6,
                row_budget: None,
            },
        );
        assert!(!recs.is_empty());
        for w in recs.windows(2) {
            assert!(
                w[0].benefit >= w[1].benefit,
                "{} then {}",
                w[0].benefit,
                w[1].benefit
            );
        }
        // Every recommendation is strictly smaller than the base.
        for r in &recs {
            assert!(r.est_rows < 100_000.0, "{}", r.group_by.display(&s));
        }
    }

    #[test]
    fn first_pick_is_a_high_coverage_mid_view() {
        // HRU's signature: the first view picked sits near the middle of
        // the lattice (covers much, costs little). On the paper schema it
        // must at least derive the majority of nodes it could serve.
        let s = paper_schema(96);
        let recs = recommend_views(
            &s,
            50_000,
            AdvisorConfig {
                max_views: 1,
                row_budget: None,
            },
        );
        let first = &recs[0].group_by;
        let covered = lattice_nodes(&s)
            .iter()
            .filter(|w| first.derives(w))
            .count();
        assert!(covered >= 50, "first pick covers only {covered} nodes");
    }

    #[test]
    fn row_budget_is_respected() {
        let s = paper_schema(96);
        let unbounded = recommend_views(
            &s,
            100_000,
            AdvisorConfig {
                max_views: 8,
                row_budget: None,
            },
        );
        let total_unbounded: f64 = unbounded.iter().map(|r| r.est_rows).sum();
        let budget = total_unbounded / 3.0;
        let bounded = recommend_views(
            &s,
            100_000,
            AdvisorConfig {
                max_views: 8,
                row_budget: Some(budget),
            },
        );
        let total: f64 = bounded.iter().map(|r| r.est_rows).sum();
        assert!(total <= budget, "{total} > {budget}");
        assert!(!bounded.is_empty());
        // The budget forces a different (cheaper) selection than the
        // unconstrained run's expensive first pick.
        assert!(
            bounded[0].est_rows <= budget,
            "first pick {} exceeds budget {budget}",
            bounded[0].est_rows
        );
        assert!(bounded[0].est_rows <= unbounded[0].est_rows);
    }

    #[test]
    fn zero_views_allowed() {
        let s = paper_schema(96);
        let recs = recommend_views(
            &s,
            1_000,
            AdvisorConfig {
                max_views: 0,
                row_budget: None,
            },
        );
        assert!(recs.is_empty());
    }

    #[test]
    fn recommended_views_actually_help_a_workload() {
        // Materializing the advisor's picks must reduce the size of the
        // smallest table answering a mid-lattice query.
        let s = paper_schema(96);
        let recs = recommend_views(
            &s,
            20_000,
            AdvisorConfig {
                max_views: 3,
                row_budget: None,
            },
        );
        let target = GroupBy::parse(&s, "A''B''C''D''").unwrap();
        let best_source = recs
            .iter()
            .filter(|r| r.group_by.derives(&target))
            .map(|r| r.est_rows)
            .fold(f64::INFINITY, f64::min);
        assert!(
            best_source < 20_000.0,
            "no recommended view helps the coarse query"
        );
    }
}
