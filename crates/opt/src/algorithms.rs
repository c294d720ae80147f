//! The four global optimization algorithms.
//!
//! All four take the query set of one MDX expression (plus a [`CostModel`])
//! and emit a [`GlobalPlan`]. They differ exactly as the paper describes:
//!
//! * **TPLO** (§4) never considers sharing while choosing plans — it takes
//!   each query's optimal local plan and then merges plans that *happen* to
//!   use the same base table;
//! * **ETPLG** (§5) considers sharing when *placing* each query — a query
//!   joins an existing class when the marginal (`CostOfAdd`) cost beats the
//!   best unused materialized view — but never revisits a class's base;
//! * **GG** (§6) additionally lets the candidate class *change its base
//!   table* (re-planning all its members) to accommodate the new query, and
//!   merges classes that converge on the same base;
//! * **optimal** exhaustively enumerates query→table assignments (and, per
//!   class, join-method vectors) — exponential, usable at the paper's
//!   workload sizes (a handful of queries).
//!
//! Queries are processed in the paper's "Sort G by GroupbyLevel" order:
//! finest target group-by first (ties keep input order), so the most
//! demanding queries anchor classes early.
//!
//! Each run prices through one `Pricer`: a class under construction
//! holds query *indices*, and every (query, table) pair is costed once,
//! however many candidate classes the search tries it in.

use std::iter;

use starshare_olap::{GroupByQuery, TableId};
use starshare_storage::SimTime;

use crate::cost::{CostModel, Pricer};
use crate::error::OptError;
use crate::plan::{GlobalPlan, JoinMethod, PlanClass, QueryPlan};

/// Largest assignment space [`optimal`] searches.
const MAX_ASSIGNMENTS: usize = 200_000;

/// Which optimizer to run (for harnesses that sweep all of them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OptimizerKind {
    /// Two Phase Local Optimal.
    Tplo,
    /// Extended Two Phase Local Greedy.
    Etplg,
    /// Global Greedy.
    Gg,
    /// Exhaustive optimal.
    Optimal,
}

impl OptimizerKind {
    /// All four, in the paper's order.
    pub const ALL: [OptimizerKind; 4] = [
        OptimizerKind::Tplo,
        OptimizerKind::Etplg,
        OptimizerKind::Gg,
        OptimizerKind::Optimal,
    ];

    /// Runs the selected algorithm.
    pub fn run(self, cm: &CostModel<'_>, queries: &[GroupByQuery]) -> Result<GlobalPlan, OptError> {
        match self {
            OptimizerKind::Tplo => tplo(cm, queries),
            OptimizerKind::Etplg => etplg(cm, queries),
            OptimizerKind::Gg => gg(cm, queries),
            OptimizerKind::Optimal => optimal(cm, queries),
        }
    }
}

impl std::fmt::Display for OptimizerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptimizerKind::Tplo => write!(f, "TPLO"),
            OptimizerKind::Etplg => write!(f, "ETPLG"),
            OptimizerKind::Gg => write!(f, "GG"),
            OptimizerKind::Optimal => write!(f, "Optimal"),
        }
    }
}

/// A class under construction; members are indices into the run's query
/// list.
#[derive(Debug, Clone)]
pub(crate) struct ClassState {
    pub(crate) table: TableId,
    pub(crate) members: Vec<usize>,
    pub(crate) methods: Vec<JoinMethod>,
    pub(crate) cost: SimTime,
}

impl ClassState {
    fn singleton(table: TableId, qi: usize, method: JoinMethod, cost: SimTime) -> Self {
        ClassState {
            table,
            members: vec![qi],
            methods: vec![method],
            cost,
        }
    }

    /// `(member, method)` pairs, for pricing.
    fn plans(&self) -> impl Iterator<Item = (usize, JoinMethod)> + Clone + '_ {
        self.members
            .iter()
            .copied()
            .zip(self.methods.iter().copied())
    }
}

/// The finished plan, each member query cloned out of the run's list once.
pub(crate) fn finalize(pr: &Pricer<'_, '_>, classes: Vec<ClassState>) -> GlobalPlan {
    let estimated_cost = classes.iter().map(|c| c.cost).sum();
    GlobalPlan {
        classes: classes
            .into_iter()
            .map(|c| PlanClass {
                table: c.table,
                plans: c
                    .members
                    .iter()
                    .zip(c.methods)
                    .map(|(&qi, method)| QueryPlan {
                        query: pr.query(qi).clone(),
                        method,
                    })
                    .collect(),
            })
            .collect(),
        estimated_cost,
    }
}

/// The paper's processing order, as indices into `queries`: finest
/// group-by first, input order on ties.
pub(crate) fn sorted_by_level(cm: &CostModel<'_>, queries: &[GroupByQuery]) -> Vec<usize> {
    let schema = &cm.cube().schema;
    let mut order: Vec<usize> = (0..queries.len()).collect();
    order.sort_by_key(|&qi| (queries[qi].group_by.coarseness(schema), qi));
    order
}

fn unanswerable(pr: &Pricer<'_, '_>, qi: usize) -> OptError {
    OptError::new(format!(
        "no table can answer {}",
        pr.query(qi).display(&pr.cube().schema)
    ))
}

/// §4 — Two Phase Local Optimal.
///
/// Phase one: the optimal local plan (table + method) per query,
/// independently. Phase two: merge plans sharing a base table into classes
/// so the shared operators apply at evaluation time.
pub fn tplo(cm: &CostModel<'_>, queries: &[GroupByQuery]) -> Result<GlobalPlan, OptError> {
    let pr = Pricer::new(cm, queries);
    let mut classes: Vec<ClassState> = Vec::new();
    for qi in sorted_by_level(cm, queries) {
        let (t, m, _) = pr
            .best_standalone(qi, &[])
            .ok_or_else(|| unanswerable(&pr, qi))?;
        match classes.iter_mut().find(|c| c.table == t) {
            Some(c) => {
                c.members.push(qi);
                c.methods.push(m);
            }
            None => classes.push(ClassState::singleton(t, qi, m, SimTime::ZERO)),
        }
    }
    // Price the merged classes (methods stay as locally chosen).
    for c in &mut classes {
        c.cost = pr
            .class_cost(c.table, c.plans())
            .expect("local plans are valid for their tables");
    }
    Ok(finalize(&pr, classes))
}

/// §5 — Extended Two Phase Local Greedy.
///
/// For each query (finest first): compare the cheapest *unused* view
/// against the cheapest *marginal* addition to an existing class (existing
/// members keep their plans; the newcomer picks its best method). Join the
/// class when the margin wins; otherwise open a new class on the unused
/// view and retire it from the unused set.
pub fn etplg(cm: &CostModel<'_>, queries: &[GroupByQuery]) -> Result<GlobalPlan, OptError> {
    let pr = Pricer::new(cm, queries);
    let mut classes: Vec<ClassState> = Vec::new();
    let mut used: Vec<TableId> = Vec::new();
    for qi in sorted_by_level(cm, queries) {
        let unused = pr.best_standalone(qi, &used);
        // Best marginal addition across classes.
        let mut best_add: Option<(usize, JoinMethod, SimTime, SimTime)> = None; // (class, method, new_cost, delta)
        for (i, c) in classes.iter().enumerate() {
            for m in [JoinMethod::Hash, JoinMethod::Index] {
                let plans = c.plans().chain(iter::once((qi, m)));
                if let Some(new_cost) = pr.class_cost(c.table, plans) {
                    let delta = new_cost.saturating_sub(c.cost);
                    if best_add.as_ref().is_none_or(|(_, _, _, bd)| delta < *bd) {
                        best_add = Some((i, m, new_cost, delta));
                    }
                }
            }
        }
        let join = match (unused, best_add) {
            (Some((_, _, cost)), Some((_, _, _, delta))) => delta <= cost,
            (Some(_), None) => false,
            (None, Some(_)) => true,
            (None, None) => return Err(unanswerable(&pr, qi)),
        };
        if join {
            let (ci, m, new_cost, _) = best_add.expect("checked above");
            let c = &mut classes[ci];
            c.members.push(qi);
            c.methods.push(m);
            c.cost = new_cost;
        } else {
            let (t, m, cost) = unused.expect("checked above");
            used.push(t);
            classes.push(ClassState::singleton(t, qi, m, cost));
        }
    }
    Ok(finalize(&pr, classes))
}

/// §6 — Global Greedy.
///
/// Like ETPLG, but when considering a class for the new query it searches
/// for the best *new base table* `S'` for the whole class-plus-query (the
/// Example 2 move), re-planning every member on `S'` if it differs from the
/// current base. Classes that converge on the same base are merged.
pub fn gg(cm: &CostModel<'_>, queries: &[GroupByQuery]) -> Result<GlobalPlan, OptError> {
    let pr = Pricer::new(cm, queries);
    let classes = gg_classes(&pr, &sorted_by_level(cm, queries))?;
    Ok(finalize(&pr, classes))
}

/// GG's search over the queries in `order`, returning its classes.
pub(crate) fn gg_classes(
    pr: &Pricer<'_, '_>,
    order: &[usize],
) -> Result<Vec<ClassState>, OptError> {
    let mut classes: Vec<ClassState> = Vec::new();
    let mut used: Vec<TableId> = Vec::new();
    // The method vector being priced and the best one so far, reused
    // across every candidate.
    let mut trial: Vec<JoinMethod> = Vec::new();
    let mut best_methods: Vec<JoinMethod> = Vec::new();
    for &qi in order {
        let unused = pr.best_standalone(qi, &used);
        // For each class: the best base (its own, or any table not owned by
        // another class) for class ∪ {q}, with methods re-chosen.
        let mut best_add: Option<(usize, TableId, SimTime, SimTime)> = None;
        for (i, c) in classes.iter().enumerate() {
            for &t in pr.candidates(qi) {
                if t != c.table && used.contains(&t) {
                    continue;
                }
                let members = c.members.iter().copied().chain(iter::once(qi));
                if let Some(new_cost) = pr.best_methods(t, members, &mut trial) {
                    let delta = new_cost.saturating_sub(c.cost);
                    if best_add.as_ref().is_none_or(|(_, _, _, bd)| delta < *bd) {
                        best_add = Some((i, t, new_cost, delta));
                        std::mem::swap(&mut trial, &mut best_methods);
                    }
                }
            }
        }
        let open_new = match (&unused, &best_add) {
            (Some((_, _, cost)), Some((_, _, _, delta))) => *delta > *cost,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => return Err(unanswerable(pr, qi)),
        };
        if open_new {
            let (t, m, cost) = unused.expect("checked above");
            used.push(t);
            classes.push(ClassState::singleton(t, qi, m, cost));
        } else {
            let (ci, t, new_cost, _) = best_add.expect("checked above");
            let old_table = classes[ci].table;
            if t != old_table {
                // Re-base: the old base returns to the unused pool.
                used.retain(|u| *u != old_table);
                used.push(t);
            }
            let c = &mut classes[ci];
            c.table = t;
            c.members.push(qi);
            c.methods.clone_from(&best_methods);
            c.cost = new_cost;
            merge_classes_on_same_base(pr, &mut classes);
        }
    }
    Ok(classes)
}

/// GG's `MergeClass()` step: classes that converged on one base table are
/// merged (their union is re-method-assigned and re-priced).
fn merge_classes_on_same_base(pr: &Pricer<'_, '_>, classes: &mut Vec<ClassState>) {
    let mut i = 0;
    while i < classes.len() {
        let mut j = i + 1;
        while j < classes.len() {
            if classes[i].table == classes[j].table {
                let absorbed = classes.remove(j);
                let c = &mut classes[i];
                c.members.extend(absorbed.members);
                c.cost = pr
                    .best_methods(c.table, c.members.iter().copied(), &mut c.methods)
                    .expect("both classes were valid on this table");
            } else {
                j += 1;
            }
        }
        i += 1;
    }
}

/// Exhaustive optimal: every assignment of queries to candidate tables,
/// with per-class optimal method vectors.
///
/// Fails if the assignment space exceeds 200 000 (the paper uses this
/// search only as a yardstick on 3-query workloads).
pub fn optimal(cm: &CostModel<'_>, queries: &[GroupByQuery]) -> Result<GlobalPlan, OptError> {
    let pr = Pricer::new(cm, queries);
    let order = sorted_by_level(cm, queries);
    if order.is_empty() {
        return Ok(GlobalPlan::default());
    }
    if let Some(&qi) = order.iter().find(|&&qi| pr.candidates(qi).is_empty()) {
        return Err(unanswerable(&pr, qi));
    }
    let space = order
        .iter()
        .try_fold(1usize, |s, &qi| s.checked_mul(pr.candidates(qi).len()));
    if space.is_none_or(|s| s > MAX_ASSIGNMENTS) {
        let shown = space.map_or_else(|| format!("over {}", usize::MAX), |s| s.to_string());
        return Err(OptError::new(format!(
            "optimal search space too large ({shown} assignments)"
        )));
    }

    // `choice[k]` picks a candidate table for the k-th query in `order`;
    // `at[k]` is that table, and `tables` the distinct ones in first-use
    // order.
    let place = |choice: &[usize], at: &mut Vec<TableId>, tables: &mut Vec<TableId>| {
        at.clear();
        tables.clear();
        for (k, &qi) in order.iter().enumerate() {
            let t = pr.candidates(qi)[choice[k]];
            at.push(t);
            if !tables.contains(&t) {
                tables.push(t);
            }
        }
    };
    let mut best: Option<(Vec<usize>, SimTime)> = None;
    let mut choice = vec![0usize; order.len()];
    let (mut at, mut tables) = (Vec::new(), Vec::new());
    let mut methods: Vec<JoinMethod> = Vec::new();
    'assignments: loop {
        place(&choice, &mut at, &mut tables);
        let mut total = SimTime::ZERO;
        let mut feasible = true;
        for &t in &tables {
            let members = order
                .iter()
                .zip(&at)
                .filter(|&(_, &a)| a == t)
                .map(|(&qi, _)| qi);
            match pr.best_methods(t, members, &mut methods) {
                Some(c) => total += c,
                None => {
                    feasible = false;
                    break;
                }
            }
        }
        if feasible && best.as_ref().is_none_or(|(_, bc)| total < *bc) {
            best = Some((choice.clone(), total));
        }
        // Odometer.
        let mut d = order.len();
        loop {
            if d == 0 {
                break 'assignments;
            }
            d -= 1;
            choice[d] += 1;
            if choice[d] < pr.candidates(order[d]).len() {
                break;
            }
            choice[d] = 0;
        }
    }

    let (winner, _) = best.ok_or("no feasible global plan")?;
    // Rebuild the winning plan's classes with their method vectors.
    place(&winner, &mut at, &mut tables);
    let classes = tables
        .iter()
        .map(|&t| {
            let members: Vec<usize> = order
                .iter()
                .zip(&at)
                .filter(|&(_, &a)| a == t)
                .map(|(&qi, _)| qi)
                .collect();
            let mut methods = Vec::new();
            let cost = pr
                .best_methods(t, members.iter().copied(), &mut methods)
                .expect("winning assignment is feasible");
            ClassState {
                table: t,
                members,
                methods,
                cost,
            }
        })
        .collect();
    Ok(finalize(&pr, classes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use starshare_olap::{paper_cube, Cube, GroupByQuery, MemberPred, PaperCubeSpec};
    use starshare_storage::HardwareModel;

    fn cube() -> Cube {
        paper_cube(PaperCubeSpec {
            base_rows: 60_000,
            d_leaf: 552, // ≈ 18432 × 0.03, multiple of 24
            seed: 21,
            with_indexes: true,
        })
    }

    /// Paper Q1: A'B''C''D, broad.
    fn q1(cube: &Cube) -> GroupByQuery {
        GroupByQuery::new(
            cube.groupby("A'B''C''D"),
            vec![
                MemberPred::members_in(1, vec![0, 1]),
                MemberPred::eq(2, 0),
                MemberPred::eq(2, 0),
                MemberPred::members_in(1, (0..12).collect()),
            ],
        )
    }

    /// Paper Q2: A''B'C''D, broad.
    fn q2(cube: &Cube) -> GroupByQuery {
        GroupByQuery::new(
            cube.groupby("A''B'C''D"),
            vec![
                MemberPred::members_in(2, vec![0, 1, 2]),
                MemberPred::members_in(1, vec![2, 3]),
                MemberPred::eq(2, 1),
                MemberPred::members_in(1, (0..12).collect()),
            ],
        )
    }

    /// Paper Q3: A''B''C''D, broad.
    fn q3(cube: &Cube) -> GroupByQuery {
        GroupByQuery::new(
            cube.groupby("A''B''C''D"),
            vec![
                MemberPred::eq(2, 1),
                MemberPred::eq(2, 1),
                MemberPred::members_in(2, vec![0, 2]),
                MemberPred::members_in(1, (0..12).collect()),
            ],
        )
    }

    /// Paper Q7-like: A'B'C'D, very selective.
    fn q7(cube: &Cube) -> GroupByQuery {
        GroupByQuery::new(
            cube.groupby("A'B'C'D"),
            vec![
                MemberPred::eq(1, 5),
                MemberPred::eq(1, 3),
                MemberPred::eq(1, 0),
                MemberPred::eq(1, 0),
            ],
        )
    }

    fn model(cube: &Cube) -> CostModel<'_> {
        CostModel::new(cube, HardwareModel::paper_1998())
    }

    #[test]
    fn tplo_picks_local_optima_in_separate_classes() {
        let cube = cube();
        let cm = model(&cube);
        let plan = tplo(&cm, &[q1(&cube), q2(&cube), q3(&cube)]).unwrap();
        // Q1 → A'B''C'D, Q2 → A''B'C'D, Q3 → A''B''C''D: three classes.
        assert_eq!(plan.classes.len(), 3);
        let names: Vec<&str> = plan
            .classes
            .iter()
            .map(|c| cube.catalog.table(c.table).name())
            .collect();
        assert!(names.contains(&"A'B''C'D"), "{names:?}");
        assert!(names.contains(&"A''B'C'D"), "{names:?}");
        assert!(names.contains(&"A''B''C''D"), "{names:?}");
    }

    #[test]
    fn gg_rebase_consolidates_the_test4_workload() {
        // The paper's Example 2 / Test 4 shape: GG re-bases Q1's class onto
        // A'B'C'D to admit Q2, which ETPLG cannot do.
        let cube = cube();
        let cm = model(&cube);
        let queries = vec![q1(&cube), q2(&cube), q3(&cube)];
        let g = gg(&cm, &queries).unwrap();
        let shared_class = g
            .classes
            .iter()
            .find(|c| cube.catalog.table(c.table).name() == "A'B'C'D")
            .expect("GG should consolidate on A'B'C'D");
        assert!(
            shared_class.plans.len() >= 2,
            "consolidated class should hold Q1 and Q2: {}",
            g.explain(&cube)
        );
        let e = etplg(&cm, &queries).unwrap();
        assert!(
            g.estimated_cost <= e.estimated_cost,
            "GG {} vs ETPLG {}",
            g.estimated_cost,
            e.estimated_cost
        );
    }

    #[test]
    fn cost_ordering_optimal_le_gg_le_etplg_le_tplo() {
        let cube = cube();
        let cm = model(&cube);
        let queries = vec![q1(&cube), q2(&cube), q3(&cube)];
        let t = tplo(&cm, &queries).unwrap().estimated_cost;
        let e = etplg(&cm, &queries).unwrap().estimated_cost;
        let g = gg(&cm, &queries).unwrap().estimated_cost;
        let o = optimal(&cm, &queries).unwrap().estimated_cost;
        assert!(o <= g, "optimal {o} vs GG {g}");
        assert!(g <= e, "GG {g} vs ETPLG {e}");
        assert!(e <= t, "ETPLG {e} vs TPLO {t}");
    }

    #[test]
    fn all_algorithms_cover_every_query_exactly_once() {
        let cube = cube();
        let cm = model(&cube);
        let queries = vec![q1(&cube), q2(&cube), q3(&cube), q7(&cube)];
        for kind in OptimizerKind::ALL {
            let plan = kind.run(&cm, &queries).unwrap();
            assert_eq!(plan.n_queries(), queries.len(), "{kind}");
            // Every input query appears exactly once.
            for q in &queries {
                let count = plan.assignments().filter(|(_, pq, _)| *pq == q).count();
                assert_eq!(count, 1, "{kind}: {}", q.display(&cube.schema));
            }
            // Every assignment is answerable.
            for (t, q, m) in plan.assignments() {
                assert!(q.answerable_from(cube.catalog.table(t).group_by()));
                if m == JoinMethod::Index {
                    assert!(cm.index_applicable(q, t), "{kind}");
                }
            }
        }
    }

    #[test]
    fn selective_query_gets_index_plan() {
        let cube = cube();
        let cm = model(&cube);
        let plan = tplo(&cm, &[q7(&cube)]).unwrap();
        let (t, _, m) = plan.assignments().next().unwrap();
        assert_eq!(cube.catalog.table(t).name(), "A'B'C'D");
        assert_eq!(m, JoinMethod::Index);
    }

    #[test]
    fn single_query_plans_agree_across_algorithms() {
        let cube = cube();
        let cm = model(&cube);
        let qs = vec![q1(&cube)];
        let costs: Vec<SimTime> = OptimizerKind::ALL
            .iter()
            .map(|k| k.run(&cm, &qs).unwrap().estimated_cost)
            .collect();
        assert!(costs.windows(2).all(|w| w[0] == w[1]), "{costs:?}");
        // ... and each is the query's best local plan.
        let (_, _, local) = cm.best_local(&qs[0]).unwrap();
        assert_eq!(costs[0], local);
    }

    #[test]
    fn empty_workload_is_empty_plan() {
        let cube = cube();
        let cm = model(&cube);
        for kind in OptimizerKind::ALL {
            let plan = kind.run(&cm, &[]).unwrap();
            assert_eq!(plan.n_queries(), 0, "{kind}");
            assert_eq!(plan.estimated_cost, SimTime::ZERO, "{kind}");
        }
    }

    #[test]
    fn duplicate_queries_share_one_class() {
        let cube = cube();
        let cm = model(&cube);
        let q = q1(&cube);
        for kind in [
            OptimizerKind::Etplg,
            OptimizerKind::Gg,
            OptimizerKind::Optimal,
        ] {
            let plan = kind.run(&cm, &[q.clone(), q.clone()]).unwrap();
            assert_eq!(plan.classes.len(), 1, "{kind}: {}", plan.explain(&cube));
        }
    }

    #[test]
    fn optimal_rejects_huge_search_spaces() {
        let cube = cube();
        let cm = model(&cube);
        // 20 copies of a query with 2 candidates each = 2^20 > 200k.
        let q = q7(&cube); // candidates: A'B'C'D and ABCD
        let many: Vec<GroupByQuery> = (0..20).map(|_| q.clone()).collect();
        let r = optimal(&cm, &many);
        assert!(r.is_err(), "expected search-space error");
    }

    #[test]
    fn optimal_rejects_spaces_past_the_word_size() {
        // 70 copies with 2 candidates each: 2^70 assignments, more than a
        // 64-bit count holds. The size check must refuse, not wrap.
        let cube = cube();
        let cm = model(&cube);
        let many: Vec<GroupByQuery> = (0..70).map(|_| q7(&cube)).collect();
        let err = optimal(&cm, &many).unwrap_err();
        assert!(err.to_string().contains("too large"), "{err}");
    }

    #[test]
    fn processing_order_is_finest_first() {
        let cube = cube();
        let cm = model(&cube);
        let sorted = sorted_by_level(&cm, &[q3(&cube), q7(&cube), q1(&cube)]);
        // q7 (A'B'C'D, coarseness 3) < q1 (5) < q3 (6).
        assert_eq!(sorted, vec![1, 2, 0]);
    }
}
