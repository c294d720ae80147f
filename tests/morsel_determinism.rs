//! The morsel scheduler's determinism contract, swept at engine level
//! across thread counts **and** morsel sizes:
//!
//! * At any fixed morsel size, the thread count is unobservable — query
//!   results are bit-identical and `sim`/`critical`/I-O counters identical
//!   across 1, 2, 7, and 16 threads, because morsel boundaries and merge
//!   order depend only on data and plan, never on scheduling.
//! * Across morsel sizes (1 page, the default, whole-table), the page
//!   access counters and the candidate-bitmap test count stay put and
//!   answers agree to 1e-9 — float association follows the merge tree's
//!   shape, and the merge-dependent CPU counters legitimately move with
//!   the partial count, but what was *read* and *tested* cannot.
//! * The differential oracle, widened over morsel sizes, agrees with the
//!   row-at-a-time reference on generated MDX sessions and reproduces
//!   itself bit-for-bit when rerun.

use starshare::paper_queries::bind_paper_test;
use starshare::{EngineConfig, OptimizerKind, PaperCubeSpec, PlanExecution, DEFAULT_MORSEL_PAGES};
use starshare_testkit::{generate_session, harness_spec, Oracle, ORACLE_THREADS};

const MORSEL_SIZES: [u32; 3] = [1, DEFAULT_MORSEL_PAGES, u32::MAX];
const THREADS: [usize; 4] = [1, 2, 7, 16];

fn spec() -> PaperCubeSpec {
    PaperCubeSpec {
        base_rows: 5_000,
        d_leaf: 48,
        seed: 23,
        with_indexes: true,
    }
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

/// Paper workloads 3 (shared index join) and 6 (mixed Table-2 class
/// split), GG plans, run across the full thread matrix at each morsel
/// size: the thread count must be unobservable everywhere.
#[test]
fn thread_matrix_is_bit_identical_at_every_morsel_size() {
    for pages in MORSEL_SIZES {
        let mut e = EngineConfig::paper()
            .morsel_pages(pages)
            .build_paper(spec());
        for test in [3usize, 6] {
            let queries = bind_paper_test(&e.cube().schema, test).unwrap();
            let plan = e.optimize(&queries, OptimizerKind::Gg).unwrap();
            let runs: Vec<PlanExecution> = THREADS
                .iter()
                .map(|&n| {
                    e.flush();
                    e.set_threads(n);
                    e.execute_plan(&plan).unwrap()
                })
                .collect();
            for (i, run) in runs.iter().enumerate().skip(1) {
                assert_identical(
                    &runs[0],
                    run,
                    &format!(
                        "test {test}, {pages} pages/morsel, {} vs {} threads",
                        THREADS[0], THREADS[i]
                    ),
                );
            }
        }
    }
}

/// The same workloads at a fixed thread count across morsel sizes: pages
/// read, candidate-bitmap tests, and answers are size-invariant even
/// though the partial count (and so the merge work) is not.
#[test]
fn morsel_size_moves_neither_io_nor_answers() {
    let runs: Vec<(u32, Vec<PlanExecution>)> = MORSEL_SIZES
        .iter()
        .map(|&pages| {
            let mut e = EngineConfig::paper()
                .morsel_pages(pages)
                .threads(7)
                .build_paper(spec());
            let execs = [3usize, 6]
                .iter()
                .map(|&test| {
                    let queries = bind_paper_test(&e.cube().schema, test).unwrap();
                    let plan = e.optimize(&queries, OptimizerKind::Gg).unwrap();
                    e.flush();
                    e.execute_plan(&plan).unwrap()
                })
                .collect();
            (pages, execs)
        })
        .collect();
    let (_, baseline) = &runs[0];
    for (pages, execs) in &runs[1..] {
        for (a, b) in baseline.iter().zip(execs) {
            let label = format!("1 vs {pages} pages/morsel");
            assert_eq!(a.total.io, b.total.io, "{label}: I/O counts must not move");
            assert_eq!(
                a.total.cpu.bitmap_tests, b.total.cpu.bitmap_tests,
                "{label}: candidate tests must not move"
            );
            assert_eq!(a.results.len(), b.results.len(), "{label}");
            for (x, y) in a.results.iter().zip(&b.results) {
                assert_eq!(x.query, y.query, "{label}: query order");
                assert!(
                    x.approx_eq(y, 1e-9),
                    "{label}: answers must agree to within float association"
                );
            }
        }
    }
}

/// The differential oracle widened over morsel sizes: at every size, a
/// handful of generated MDX sessions agree with the row-at-a-time
/// reference across the whole thread matrix, and rerunning each
/// configuration reproduces its output bit-for-bit.
#[test]
fn oracle_matrix_holds_at_every_morsel_size() {
    for pages in MORSEL_SIZES {
        let mut oracle =
            Oracle::with_matrix(harness_spec(), &[OptimizerKind::Gg], &ORACLE_THREADS, pages);
        for seed in 100..104u64 {
            let session = generate_session(oracle.schema(), seed);
            if let Err(m) = oracle.check_session(&session, true) {
                panic!("{pages} pages/morsel: {m}");
            }
        }
        assert_eq!(oracle.stats.sessions, 4);
        assert!(oracle.stats.reruns > 0, "rerun sweep must have happened");
    }
}
