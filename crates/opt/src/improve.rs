//! GGI — Global Greedy with improvement passes.
//!
//! The paper's §8 notes that GG's greedy, insertion-ordered search still
//! misses plans and asks for "new algorithms that have both better time and
//! space performance". GGI is the natural next step: run GG, then apply
//! hill-climbing *move* steps until a fixpoint:
//!
//! * pick one query; tentatively remove it from its class (re-pricing the
//!   remainder with methods re-chosen);
//! * try every placement: into any other class under that class's best
//!   base table for the enlarged member set, or alone on its best
//!   available table;
//! * accept the cheapest placement if it strictly improves the global
//!   estimate; otherwise put the query back.
//!
//! Each accepted move strictly decreases the (discrete) plan cost, so the
//! loop terminates; a pass cap bounds the worst case. GGI never returns a
//! plan worse than GG's — it starts from GG's and only accepts
//! improvements. The `ablations` harness measures how often the passes
//! actually help and what they cost in planning time.

use starshare_olap::{GroupByQuery, TableId};
use starshare_storage::SimTime;

use crate::algorithms::{finalize, gg_classes, sorted_by_level, ClassState};
use crate::cost::{CostModel, Pricer};
use crate::error::OptError;
use crate::plan::GlobalPlan;

/// `members` as one class on `table` under their best method vector, or
/// `None` if `table` cannot answer them all.
fn price(pr: &Pricer<'_, '_>, table: TableId, members: Vec<usize>) -> Option<ClassState> {
    let mut methods = Vec::with_capacity(members.len());
    let cost = pr.best_methods(table, members.iter().copied(), &mut methods)?;
    Some(ClassState {
        table,
        members,
        methods,
        cost,
    })
}

/// Runs GG, then improvement passes (at most `max_passes` sweeps over all
/// queries; 3 is plenty in practice — see the ablation harness).
pub fn ggi_with_passes(
    cm: &CostModel<'_>,
    queries: &[GroupByQuery],
    max_passes: usize,
) -> Result<GlobalPlan, OptError> {
    let pr = Pricer::new(cm, queries);
    let mut classes = gg_classes(&pr, &sorted_by_level(cm, queries))?;

    for _pass in 0..max_passes {
        let mut improved = false;
        // Sweep queries by (class, slot); indices shift as moves happen, so
        // re-derive the worklist each sweep.
        let mut worklist: Vec<(usize, usize)> = classes
            .iter()
            .enumerate()
            .flat_map(|(ci, c)| (0..c.members.len()).map(move |k| (ci, k)))
            .collect();
        // Stable processing order: biggest classes first (their members are
        // the likeliest to be misplaced).
        worklist.sort_by_key(|&(ci, _)| std::cmp::Reverse(classes[ci].members.len()));

        for (ci, k) in worklist {
            if ci >= classes.len() || k >= classes[ci].members.len() {
                continue; // shifted by an earlier accepted move
            }
            let qi = classes[ci].members[k];
            // Remainder of the source class without q.
            let mut rest = classes[ci].members.clone();
            rest.remove(k);
            let rest_class = if rest.is_empty() {
                None
            } else {
                // Re-base the remainder too: its best table may differ.
                let mut best: Option<ClassState> = None;
                for t in candidate_tables_for_set(&pr, &rest) {
                    if let Some(w) = price(&pr, t, rest.clone()) {
                        if best.as_ref().is_none_or(|b| w.cost < b.cost) {
                            best = Some(w);
                        }
                    }
                }
                Some(best.expect("remainder was feasible before"))
            };
            let rest_cost = rest_class.as_ref().map_or(SimTime::ZERO, |w| w.cost);

            // Candidate placements, compared by the *new total cost of the
            // classes the move touches*; the untouched classes cancel out.
            // `None` target = q alone in a fresh class.
            let mut best_move: Option<(Option<usize>, ClassState, SimTime)> = None;
            let mut consider = |target: Option<usize>, w: ClassState, touched_new: SimTime| {
                if best_move
                    .as_ref()
                    .is_none_or(|(_, _, bt)| touched_new < *bt)
                {
                    best_move = Some((target, w, touched_new));
                }
            };

            // (a) alone on its best table not used by any *other* class.
            let used: Vec<TableId> = classes
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != ci)
                .map(|(_, c)| c.table)
                .chain(rest_class.iter().map(|w| w.table))
                .collect();
            for &t in pr.candidates(qi) {
                if used.contains(&t) {
                    continue;
                }
                if let Some(w) = price(&pr, t, vec![qi]) {
                    // Touched: source class. New total: rest + singleton.
                    let new_total = rest_cost + w.cost;
                    consider(None, w, new_total);
                }
            }
            // (b) into another class ti, under the best base for the
            // enlarged set. Touched: source + target; compare
            // rest + enlarged against cost(ci) + cost(ti), normalized by
            // subtracting cost(ti) so all moves compare on the same scale
            // (new touched total minus the target's old cost).
            for ti in 0..classes.len() {
                if ti == ci {
                    continue;
                }
                let mut enlarged = classes[ti].members.clone();
                enlarged.push(qi);
                let old_target_cost = classes[ti].cost;
                for t in candidate_tables_for_set(&pr, &enlarged) {
                    let collides = classes
                        .iter()
                        .enumerate()
                        .any(|(i, c)| i != ti && i != ci && c.table == t)
                        || rest_class.as_ref().is_some_and(|w| w.table == t);
                    if collides {
                        continue;
                    }
                    if let Some(w) = price(&pr, t, enlarged.clone()) {
                        let new_total = (rest_cost + w.cost).saturating_sub(old_target_cost);
                        consider(Some(ti), w, new_total);
                    }
                }
            }

            // Accept only strictly improving moves: every candidate's
            // `touched_new` is normalized to be comparable against the
            // source class's current cost.
            if let Some((target, w, touched_new)) = best_move {
                if touched_new < classes[ci].cost {
                    improved = true;
                    match target {
                        None => {
                            match rest_class {
                                Some(rw) => classes[ci] = rw,
                                None => {
                                    classes.remove(ci);
                                }
                            }
                            classes.push(w);
                        }
                        Some(mut ti) => {
                            match rest_class {
                                Some(rw) => classes[ci] = rw,
                                None => {
                                    classes.remove(ci);
                                    if ti > ci {
                                        ti -= 1;
                                    }
                                }
                            }
                            classes[ti] = w;
                        }
                    }
                }
            }
        }
        if !improved {
            break;
        }
    }

    Ok(finalize(&pr, classes))
}

/// GGI with the default three passes.
pub fn ggi(cm: &CostModel<'_>, queries: &[GroupByQuery]) -> Result<GlobalPlan, OptError> {
    ggi_with_passes(cm, queries, 3)
}

/// Tables that can answer *every* query in `set`.
fn candidate_tables_for_set(pr: &Pricer<'_, '_>, set: &[usize]) -> Vec<TableId> {
    let Some(&first) = set.first() else {
        return Vec::new();
    };
    pr.candidates(first)
        .iter()
        .copied()
        .filter(|&t| set.iter().all(|&qi| pr.answers(qi, t)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{optimal, OptimizerKind};
    use crate::plan::JoinMethod;
    use starshare_olap::{paper_cube, Cube, GroupBy, MemberPred, PaperCubeSpec};
    use starshare_storage::HardwareModel;

    fn cube() -> Cube {
        paper_cube(PaperCubeSpec {
            base_rows: 20_000,
            d_leaf: 192,
            seed: 44,
            with_indexes: true,
        })
    }

    fn q(cube: &Cube, gb: &str, preds: Vec<MemberPred>) -> GroupByQuery {
        GroupByQuery::new(GroupBy::parse(&cube.schema, gb).unwrap(), preds)
    }

    #[test]
    fn ggi_never_worse_than_gg() {
        let cube = cube();
        let cm = CostModel::new(&cube, HardwareModel::paper_1998());
        let workloads: Vec<Vec<GroupByQuery>> = vec![
            vec![
                q(
                    &cube,
                    "A'B''C''D",
                    vec![
                        MemberPred::members_in(1, vec![0, 1]),
                        MemberPred::eq(2, 0),
                        MemberPred::eq(2, 0),
                        MemberPred::members_in(1, (0..12).collect()),
                    ],
                ),
                q(
                    &cube,
                    "A''B'C''D",
                    vec![
                        MemberPred::All,
                        MemberPred::members_in(1, vec![2, 3]),
                        MemberPred::eq(2, 1),
                        MemberPred::members_in(1, (0..12).collect()),
                    ],
                ),
                q(
                    &cube,
                    "A''B''C''D",
                    vec![
                        MemberPred::eq(2, 1),
                        MemberPred::eq(2, 1),
                        MemberPred::All,
                        MemberPred::members_in(1, (0..12).collect()),
                    ],
                ),
            ],
            vec![
                q(
                    &cube,
                    "A'B'C'D",
                    vec![
                        MemberPred::eq(1, 5),
                        MemberPred::eq(1, 3),
                        MemberPred::eq(1, 0),
                        MemberPred::eq(1, 0),
                    ],
                ),
                q(
                    &cube,
                    "A'B''C'D",
                    vec![
                        MemberPred::All,
                        MemberPred::All,
                        MemberPred::eq(1, 2),
                        MemberPred::All,
                    ],
                ),
            ],
        ];
        for ws in &workloads {
            let g = OptimizerKind::Gg.run(&cm, ws).unwrap();
            let i = ggi(&cm, ws).unwrap();
            assert!(
                i.estimated_cost <= g.estimated_cost,
                "GGI {} vs GG {}",
                i.estimated_cost,
                g.estimated_cost
            );
            let o = optimal(&cm, ws).unwrap();
            assert!(o.estimated_cost <= i.estimated_cost);
            assert_eq!(i.n_queries(), ws.len());
        }
    }

    #[test]
    fn ggi_plans_are_valid() {
        let cube = cube();
        let cm = CostModel::new(&cube, HardwareModel::paper_1998());
        let ws = vec![
            q(
                &cube,
                "A'B''C''D",
                vec![
                    MemberPred::members_in(1, vec![0, 1]),
                    MemberPred::All,
                    MemberPred::All,
                    MemberPred::All,
                ],
            ),
            q(
                &cube,
                "A''B''C''D",
                vec![
                    MemberPred::All,
                    MemberPred::All,
                    MemberPred::All,
                    MemberPred::eq(1, 0),
                ],
            ),
        ];
        let plan = ggi(&cm, &ws).unwrap();
        assert_eq!(plan.n_queries(), 2);
        for (t, query, m) in plan.assignments() {
            assert!(cube.catalog.table(t).can_answer(query));
            if m == JoinMethod::Index {
                assert!(cm.index_applicable(query, t));
            }
        }
        // No duplicate class bases.
        for (i, a) in plan.classes.iter().enumerate() {
            for b in &plan.classes[i + 1..] {
                assert_ne!(a.table, b.table);
            }
        }
    }

    #[test]
    fn zero_passes_equals_gg() {
        let cube = cube();
        let cm = CostModel::new(&cube, HardwareModel::paper_1998());
        let ws = vec![q(
            &cube,
            "A'B''C''D",
            vec![
                MemberPred::members_in(1, vec![0, 1]),
                MemberPred::All,
                MemberPred::All,
                MemberPred::All,
            ],
        )];
        let g = OptimizerKind::Gg.run(&cm, &ws).unwrap();
        let i = ggi_with_passes(&cm, &ws, 0).unwrap();
        assert_eq!(i.estimated_cost, g.estimated_cost);
    }

    #[test]
    fn empty_workload() {
        let cube = cube();
        let cm = CostModel::new(&cube, HardwareModel::paper_1998());
        let plan = ggi(&cm, &[]).unwrap();
        assert_eq!(plan.n_queries(), 0);
    }
}
