//! The parallel-execution determinism contract: for every one of the
//! paper's workloads, running the partitioned subsystem at 1, 2, and 4
//! threads returns **bit-identical** query results and **identical**
//! simulated totals — both total work (`sim`) and the critical path
//! (`critical`). Only wall time may differ.

use starshare::paper_queries::{bind_paper_test, paper_query_text, paper_test_queries};
use starshare::{
    Engine, EngineConfig, GroupByQuery, OptimizerKind, PaperCubeSpec, PlanExecution, QueryResult,
    SimTime,
};

fn engine() -> Engine {
    Engine::paper(PaperCubeSpec {
        base_rows: 5_000,
        d_leaf: 48,
        seed: 23,
        with_indexes: true,
    })
}

fn assert_identical(a: &PlanExecution, b: &PlanExecution, label: &str) {
    assert_eq!(a.total.sim, b.total.sim, "{label}: sim must not move");
    assert_eq!(
        a.total.critical, b.total.critical,
        "{label}: critical path must not move"
    );
    assert_eq!(a.total.io, b.total.io, "{label}: I/O counts must not move");
    assert_eq!(a.results.len(), b.results.len(), "{label}");
    for (x, y) in a.results.iter().zip(&b.results) {
        assert_eq!(x.query, y.query, "{label}: query order");
        assert_eq!(x.rows, y.rows, "{label}: rows must be bit-identical");
    }
}

/// Every paper workload (Tests 1–7, covering the Figure 10–12 operator
/// studies and all of Table 2), planned by GG, executed partitioned at
/// three thread counts.
#[test]
fn every_paper_workload_is_thread_count_invariant() {
    let mut e = engine();
    for test in 1..=7 {
        let queries = bind_paper_test(&e.cube().schema, test).unwrap();
        let plan = e.optimize(&queries, OptimizerKind::Gg).unwrap();
        let runs: Vec<PlanExecution> = [1usize, 2, 4]
            .iter()
            .map(|&n| {
                e.flush();
                e.execute_plan_threads(&plan, n).unwrap()
            })
            .collect();
        assert_identical(&runs[0], &runs[1], &format!("test {test}, 1 vs 2 threads"));
        assert_identical(&runs[0], &runs[2], &format!("test {test}, 1 vs 4 threads"));
        assert!(
            runs[0].total.critical <= runs[0].total.sim,
            "test {test}: the critical path cannot exceed total work"
        );
        assert!(runs[0].total.sim > SimTime::ZERO, "test {test}");
    }
}

/// The Table-2 workloads stay invariant under *every* optimizer's plan
/// shape, not just GG's (index-only classes, multi-class splits, …).
#[test]
fn table2_plans_from_all_optimizers_are_invariant() {
    let mut e = engine();
    for test in 4..=7 {
        let queries = bind_paper_test(&e.cube().schema, test).unwrap();
        for kind in OptimizerKind::ALL {
            let plan = e.optimize(&queries, kind).unwrap();
            e.flush();
            let one = e.execute_plan_threads(&plan, 1).unwrap();
            e.flush();
            let four = e.execute_plan_threads(&plan, 4).unwrap();
            assert_identical(&one, &four, &format!("test {test}, {kind}"));
        }
    }
}

/// The partitioned path agrees with the sequential path on *answers*
/// (floating-point association differs, so compare with tolerance), and an
/// engine built with a threads knob > 1 routes through it transparently.
#[test]
fn parallel_answers_match_the_sequential_path() {
    let mut seq = engine();
    let mut par = EngineConfig::paper().threads(4).build_paper(PaperCubeSpec {
        base_rows: 5_000,
        d_leaf: 48,
        seed: 23,
        with_indexes: true,
    });
    let queries: Vec<GroupByQuery> = bind_paper_test(&seq.cube().schema, 3).unwrap();
    let plan = seq.optimize(&queries, OptimizerKind::Gg).unwrap();
    let s = seq.execute_plan(&plan).unwrap();
    let p = par.execute_plan(&plan).unwrap();
    assert_eq!(s.results.len(), p.results.len());
    for (a, b) in s.results.iter().zip(&p.results) {
        assert_eq!(a.query, b.query);
        assert!(a.approx_eq(b, 1e-9), "answers must agree across paths");
    }
    // Sequential runs report critical == sim; the parallel run's critical
    // must not exceed the sequential critical path for the same plan.
    assert_eq!(s.total.critical, s.total.sim);
    assert!(p.total.critical <= p.total.sim);
}

/// Repeated parallel runs of the same plan are reproducible run-to-run
/// (same process, fresh pools) — the scheduler leaves no trace.
#[test]
fn repeated_runs_are_reproducible() {
    let mut e = engine();
    let queries = bind_paper_test(&e.cube().schema, 5).unwrap();
    let plan = e.optimize(&queries, OptimizerKind::Gg).unwrap();
    e.flush();
    let first = e.execute_plan_threads(&plan, 2).unwrap();
    for _ in 0..3 {
        e.flush();
        let again = e.execute_plan_threads(&plan, 2).unwrap();
        assert_identical(&first, &again, "repeat");
    }
}

/// Every way of running a plan on a multi-threaded engine — strict,
/// explicitly partitioned, degraded, and MDX text through `mdx_many` —
/// goes through the same per-class loop, so all four agree on rows and on
/// the plan totals, critical path included (classes run one after another,
/// so a plan's critical path is the sum of its classes').
#[test]
fn every_plan_entry_point_reports_the_same_totals() {
    let spec = PaperCubeSpec {
        base_rows: 5_000,
        d_leaf: 48,
        seed: 23,
        with_indexes: true,
    };
    let mut e = EngineConfig::paper().threads(2).build_paper(spec);
    let queries = bind_paper_test(&e.cube().schema, 7).unwrap();
    let plan = e.optimize(&queries, OptimizerKind::Gg).unwrap();
    assert!(
        plan.classes.len() > 1,
        "Test 7's GG plan has several classes"
    );

    e.flush();
    let strict = e.execute_plan(&plan).unwrap();
    e.flush();
    let threads = e.execute_plan_threads(&plan, 2).unwrap();
    e.flush();
    let degraded = e.execute_plan_degraded(&plan);
    let degraded = PlanExecution {
        results: degraded
            .results
            .into_iter()
            .collect::<Result<_, _>>()
            .unwrap(),
        per_class: degraded.per_class,
        total: degraded.total,
    };
    e.flush();
    let texts: Vec<&str> = paper_test_queries(7)
        .iter()
        .map(|&n| paper_query_text(n))
        .collect();
    let out = e.mdx_many(&texts).unwrap();
    // `mdx_many` answers in binding order; line its results up with the
    // plan's assignment order.
    let answered: Vec<QueryResult> = out.results().into_iter().cloned().collect();
    let mdx = PlanExecution {
        results: strict
            .results
            .iter()
            .map(|r| {
                answered
                    .iter()
                    .find(|a| a.query == r.query)
                    .expect("mdx_many answers every planned query")
                    .clone()
            })
            .collect(),
        per_class: Vec::new(),
        total: out.report,
    };

    assert_identical(&strict, &threads, "execute_plan vs execute_plan_threads");
    assert_identical(&strict, &degraded, "execute_plan vs execute_plan_degraded");
    assert_identical(&strict, &mdx, "execute_plan vs mdx_many");
    let summed = strict
        .per_class
        .iter()
        .fold(SimTime::ZERO, |acc, r| acc + r.critical);
    assert_eq!(strict.total.critical, summed, "critical paths add");
}
