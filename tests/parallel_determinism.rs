//! The one-executor determinism contract: for every one of the paper's
//! workloads, an engine at 1, 2, and 4 threads returns **bit-identical**
//! query results and **identical** simulated totals — total work (`sim`),
//! the critical path (`critical`) and the I/O counters — cold, and warm
//! on a pool the previous run left behind. Only wall time may differ.

use starshare::paper_queries::{bind_paper_test, paper_query_text, paper_test_queries};
use starshare::{
    Engine, EngineConfig, GroupByQuery, OptimizerKind, PaperCubeSpec, PlanExecution, QueryResult,
    SimTime,
};

fn spec() -> PaperCubeSpec {
    PaperCubeSpec {
        base_rows: 5_000,
        d_leaf: 48,
        seed: 23,
        with_indexes: true,
    }
}

fn engine() -> Engine {
    Engine::paper(spec())
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
/// studies and all of Table 2), planned by GG, executed cold at three
/// thread counts.
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
                e.set_threads(n);
                e.execute_plan(&plan).unwrap()
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

/// Each paper workload run cold and then again without a flush: the second
/// run reads through the pool the first one left behind, and it does so
/// identically at every thread count — rows, `sim`, `critical` and
/// `IoStats`, run by run.
#[test]
fn warm_pool_reuse_is_thread_count_invariant() {
    let mut e = engine();
    for test in 1..=7 {
        let queries = bind_paper_test(&e.cube().schema, test).unwrap();
        let plan = e.optimize(&queries, OptimizerKind::Gg).unwrap();
        let runs: Vec<(PlanExecution, PlanExecution)> = [1usize, 2, 4]
            .iter()
            .map(|&n| {
                e.flush();
                e.set_threads(n);
                let cold = e.execute_plan(&plan).unwrap();
                let warm = e.execute_plan(&plan).unwrap();
                (cold, warm)
            })
            .collect();
        for (n, run) in [2, 4].iter().zip(&runs[1..]) {
            assert_identical(&runs[0].0, &run.0, &format!("test {test} cold, 1 vs {n}"));
            assert_identical(&runs[0].1, &run.1, &format!("test {test} warm, 1 vs {n}"));
        }
        // This cube fits the pool, so the repeat faults nothing in.
        let (cold, warm) = (&runs[0].0.total.io, &runs[0].1.total.io);
        assert!(cold.seq_faults > 0, "test {test}: the cold run reads pages");
        assert_eq!(
            warm.seq_faults + warm.random_faults,
            0,
            "test {test}: the warm run is served from the pool"
        );
        assert_eq!(warm.hits, cold.accesses(), "test {test}: same accesses");
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
            e.set_threads(1);
            let one = e.execute_plan(&plan).unwrap();
            e.flush();
            e.set_threads(4);
            let four = e.execute_plan(&plan).unwrap();
            assert_identical(&one, &four, &format!("test {test}, {kind}"));
        }
    }
}

/// An engine built with the threads knob at 4 agrees with the one-thread
/// paper engine bit for bit — answers, clock and I/O — on a fresh pool:
/// both run the same executor.
#[test]
fn parallel_answers_match_the_sequential_path() {
    let mut seq = engine();
    let mut par = EngineConfig::paper().threads(4).build_paper(spec());
    let queries: Vec<GroupByQuery> = bind_paper_test(&seq.cube().schema, 3).unwrap();
    let plan = seq.optimize(&queries, OptimizerKind::Gg).unwrap();
    let s = seq.execute_plan(&plan).unwrap();
    let p = par.execute_plan(&plan).unwrap();
    assert_identical(&s, &p, "1 vs 4 threads");
    assert!(p.total.critical <= p.total.sim);
}

/// Repeated parallel runs of the same plan are reproducible run-to-run
/// (same process, fresh pools) — the scheduler leaves no trace.
#[test]
fn repeated_runs_are_reproducible() {
    let mut e = EngineConfig::paper().threads(2).build_paper(spec());
    let queries = bind_paper_test(&e.cube().schema, 5).unwrap();
    let plan = e.optimize(&queries, OptimizerKind::Gg).unwrap();
    e.flush();
    let first = e.execute_plan(&plan).unwrap();
    for _ in 0..3 {
        e.flush();
        let again = e.execute_plan(&plan).unwrap();
        assert_identical(&first, &again, "repeat");
    }
}

/// Every way of running a plan on a multi-threaded engine — strict,
/// degraded, and MDX text through `mdx_many` — goes through the same
/// per-class loop, so all three agree with each other and with a
/// one-thread strict run on rows and on the plan totals, critical path
/// included (classes run one after another, so a plan's critical path is
/// the sum of its classes').
#[test]
fn every_plan_entry_point_reports_the_same_totals() {
    let mut e = EngineConfig::paper().threads(2).build_paper(spec());
    let queries = bind_paper_test(&e.cube().schema, 7).unwrap();
    let plan = e.optimize(&queries, OptimizerKind::Gg).unwrap();
    assert!(
        plan.classes.len() > 1,
        "Test 7's GG plan has several classes"
    );

    e.flush();
    let strict = e.execute_plan(&plan).unwrap();
    e.flush();
    e.set_threads(1);
    let one_thread = e.execute_plan(&plan).unwrap();
    e.set_threads(2);
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

    assert_identical(&strict, &one_thread, "execute_plan at 2 vs 1 threads");
    assert_identical(&strict, &degraded, "execute_plan vs execute_plan_degraded");
    assert_identical(&strict, &mdx, "execute_plan vs mdx_many");
    let summed = strict
        .per_class
        .iter()
        .fold(SimTime::ZERO, |acc, r| acc + r.critical);
    assert_eq!(strict.total.critical, summed, "critical paths add");
}
