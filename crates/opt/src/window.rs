//! Windowed multi-submission planning: the optimization-window entry
//! point the serving layer (`starshare-serve`) drives.
//!
//! A *window* pools the query sets of several independent submissions
//! (sessions' MDX expressions that happened to be in flight together) and
//! plans their **union** with one of the paper's algorithms, so the §3
//! shared operators can merge work *across* submitters — the multi-query
//! optimization benefit is a property of the in-flight query set, not of
//! who submitted it.
//!
//! Beyond the [`GlobalPlan`] itself, [`plan_window`] returns what a
//! serving layer needs and a single-batch caller does not:
//!
//! * **provenance** — which submission owns each plan slot
//!   ([`WindowPlan::owners`]), so results can be routed back and a failed
//!   class can be re-run per owner without coupling window-mates;
//! * **sharing statistics** — how much cross-submission merging the plan
//!   actually achieved ([`SharingStats`]), the quantity the serving bench
//!   gates on.
//!
//! ### Result caching upstream
//!
//! When the engine's subsumption result cache is enabled
//! (`EngineConfig::result_cache` in `starshare-core`), the window passed
//! here contains only the **cache-miss** queries: the engine probes its
//! cache per query before planning, answers exact and rollup-derivable
//! hits from memory, and hands [`plan_window`] the leftover sets (possibly
//! all empty, yielding a default plan with no classes). The sharing
//! statistics returned here therefore describe the scanned residue; the
//! engine re-widens `n_queries` to the full window when reporting.

use starshare_olap::GroupByQuery;

use crate::algorithms::OptimizerKind;
use crate::cost::CostModel;
use crate::error::OptError;
use crate::plan::GlobalPlan;

/// How much cross-submission sharing a window plan achieved.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SharingStats {
    /// Submissions pooled into the window.
    pub n_submissions: usize,
    /// Queries across all submissions.
    pub n_queries: usize,
    /// Classes (shared operator runs) in the plan.
    pub n_classes: usize,
    /// Classes whose members come from more than one submission — work
    /// that per-submission optimization could never have merged.
    pub cross_submission_classes: usize,
    /// Queries per class: `n_queries / n_classes` (`1.0` when the window
    /// is empty). The serving bench's "shared-scan ratio" — higher means
    /// more queries riding each base-table pass.
    pub shared_scan_ratio: f64,
}

impl SharingStats {
    /// JSON object with stable key order (declaration order).
    pub fn to_json(&self) -> String {
        let mut o = starshare_obs::json::Obj::new();
        o.field_u64("n_submissions", self.n_submissions as u64);
        o.field_u64("n_queries", self.n_queries as u64);
        o.field_u64("n_classes", self.n_classes as u64);
        o.field_u64(
            "cross_submission_classes",
            self.cross_submission_classes as u64,
        );
        o.field_f64("shared_scan_ratio", self.shared_scan_ratio);
        o.finish()
    }
}

impl std::fmt::Display for SharingStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} submissions, {} queries -> {} classes ({} cross-submission, {:.2} shared-scan ratio)",
            self.n_submissions,
            self.n_queries,
            self.n_classes,
            self.cross_submission_classes,
            self.shared_scan_ratio
        )
    }
}

/// A planned optimization window: the union plan plus per-slot submission
/// provenance and sharing statistics.
#[derive(Debug, Clone)]
pub struct WindowPlan {
    /// The global plan over the union of every submission's queries.
    pub plan: GlobalPlan,
    /// `owners[i]` is the index (into the submission list given to
    /// [`plan_window`]) of the submission that owns the plan's `i`-th
    /// assignment slot, in [`GlobalPlan::assignments`] order. Duplicate
    /// queries across submissions each own exactly one slot, earlier
    /// submissions matched first.
    pub owners: Vec<usize>,
    /// Sharing statistics.
    pub sharing: SharingStats,
}

impl WindowPlan {
    /// The distinct owners of class `ci`'s slots, in first-seen order.
    /// `slot_base` iteration mirrors [`GlobalPlan::assignments`].
    pub fn class_owners(&self, ci: usize) -> Vec<usize> {
        let start: usize = self.plan.classes[..ci].iter().map(|c| c.plans.len()).sum();
        let len = self.plan.classes[ci].plans.len();
        let mut owners = Vec::new();
        for &o in &self.owners[start..start + len] {
            if !owners.contains(&o) {
                owners.push(o);
            }
        }
        owners
    }
}

/// Plans one optimization window: runs `kind` over the union of
/// `submissions`' query sets (pooled in submission order, preserving each
/// set's internal order — the same input order a single
/// [`Engine::mdx_many`](../starshare_core/struct.Engine.html) batch would
/// present), then attributes every plan slot back to its submission.
pub fn plan_window(
    cm: &CostModel,
    submissions: &[Vec<GroupByQuery>],
    kind: OptimizerKind,
) -> Result<WindowPlan, OptError> {
    let union: Vec<GroupByQuery> = submissions.iter().flatten().cloned().collect();
    let plan = if union.is_empty() {
        GlobalPlan::default()
    } else {
        kind.run(cm, &union)?
    };

    // Attribute each plan slot to a submission: walk the assignments in
    // plan order and give each slot the first not-yet-consumed pooled
    // query equal to it. The plan's queries are a permutation of the
    // union, so this always resolves; matching earliest-first keeps the
    // attribution consistent with result routing (which also consumes
    // duplicates in submission order).
    let pooled: Vec<(usize, &GroupByQuery)> = submissions
        .iter()
        .enumerate()
        .flat_map(|(si, set)| set.iter().map(move |q| (si, q)))
        .collect();
    let mut consumed = vec![false; pooled.len()];
    let mut owners = Vec::with_capacity(pooled.len());
    for (_, q, _) in plan.assignments() {
        let slot = pooled
            .iter()
            .enumerate()
            .position(|(i, (_, pq))| !consumed[i] && *pq == q)
            .ok_or_else(|| OptError::new("window plan contains a query no submission pooled"))?;
        consumed[slot] = true;
        owners.push(pooled[slot].0);
    }

    let n_queries = union.len();
    let n_classes = plan.classes.len();
    let mut cross = 0usize;
    let mut base = 0usize;
    for class in &plan.classes {
        let slice = &owners[base..base + class.plans.len()];
        if slice.windows(2).any(|w| w[0] != w[1]) {
            cross += 1;
        }
        base += class.plans.len();
    }
    let sharing = SharingStats {
        n_submissions: submissions.len(),
        n_queries,
        n_classes,
        cross_submission_classes: cross,
        shared_scan_ratio: if n_classes == 0 {
            1.0
        } else {
            n_queries as f64 / n_classes as f64
        },
    };
    Ok(WindowPlan {
        plan,
        owners,
        sharing,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use starshare_olap::{paper_cube, PaperCubeSpec};
    use starshare_storage::HardwareModel;

    fn cube() -> starshare_olap::Cube {
        paper_cube(PaperCubeSpec {
            base_rows: 1_000,
            d_leaf: 24,
            seed: 3,
            with_indexes: true,
        })
    }

    fn q(cube: &starshare_olap::Cube, spec: &str) -> GroupByQuery {
        GroupByQuery::unfiltered(cube.groupby(spec))
    }

    #[test]
    fn owners_follow_submission_order_for_duplicates() {
        let cube = cube();
        let cm = CostModel::new(&cube, HardwareModel::paper_1998());
        let shared = q(&cube, "A''B''C''D");
        let subs = vec![
            vec![shared.clone()],
            vec![shared.clone(), q(&cube, "A''B*C*D*")],
        ];
        let wp = plan_window(&cm, &subs, OptimizerKind::Tplo).unwrap();
        assert_eq!(wp.plan.n_queries(), 3);
        assert_eq!(wp.owners.len(), 3);
        // The duplicate query owns two slots, one per submission; matched
        // earliest-first, submission 0 comes before submission 1.
        let dup_owners: Vec<usize> = wp
            .plan
            .assignments()
            .zip(&wp.owners)
            .filter(|((_, pq, _), _)| **pq == shared)
            .map(|(_, &o)| o)
            .collect();
        assert_eq!(dup_owners, vec![0, 1]);
        assert_eq!(wp.sharing.n_submissions, 2);
        assert_eq!(wp.sharing.n_queries, 3);
    }

    #[test]
    fn cross_submission_classes_are_counted() {
        let cube = cube();
        let cm = CostModel::new(&cube, HardwareModel::paper_1998());
        // Same query from two submissions: TPLO gives both the same local
        // plan, so they merge into one class fed by both submitters.
        let shared = q(&cube, "A''B''C''D");
        let subs = vec![vec![shared.clone()], vec![shared]];
        let wp = plan_window(&cm, &subs, OptimizerKind::Tplo).unwrap();
        assert_eq!(wp.sharing.n_classes, 1);
        assert_eq!(wp.sharing.cross_submission_classes, 1);
        assert_eq!(wp.sharing.shared_scan_ratio, 2.0);
        assert_eq!(wp.class_owners(0), vec![0, 1]);
    }

    #[test]
    fn empty_window_plans_to_nothing() {
        let cube = cube();
        let cm = CostModel::new(&cube, HardwareModel::paper_1998());
        let wp = plan_window(&cm, &[Vec::new(), Vec::new()], OptimizerKind::Gg).unwrap();
        assert_eq!(wp.plan.n_queries(), 0);
        assert!(wp.owners.is_empty());
        assert_eq!(wp.sharing.shared_scan_ratio, 1.0);
        assert_eq!(wp.sharing.n_submissions, 2);
    }

    #[test]
    fn tplo_assignments_are_stable_under_co_tenancy() {
        // The determinism keystone: a query's (table, method) under TPLO
        // is the same alone and windowed with arbitrary co-tenants.
        let cube = cube();
        let cm = CostModel::new(&cube, HardwareModel::paper_1998());
        let mine = q(&cube, "A''B''C''D");
        let solo = plan_window(&cm, &[vec![mine.clone()]], OptimizerKind::Tplo).unwrap();
        let windowed = plan_window(
            &cm,
            &[
                vec![q(&cube, "A''B*C*D*"), q(&cube, "A''B''C*D*")],
                vec![mine.clone()],
                vec![q(&cube, "A*B*C''D")],
            ],
            OptimizerKind::Tplo,
        )
        .unwrap();
        let find = |wp: &WindowPlan| {
            wp.plan
                .assignments()
                .find(|(_, pq, _)| **pq == mine)
                .map(|(t, _, m)| (t, m))
                .expect("query planned")
        };
        assert_eq!(find(&solo), find(&windowed));
    }
}
