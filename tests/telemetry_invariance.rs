//! The telemetry layer's zero-cost-when-disabled contract, checked at
//! engine level:
//!
//! * **Observational inertness** — arming telemetry changes nothing the
//!   engine computes: query results, I/O counters, and the simulated
//!   clock are bit-identical with telemetry on vs off, across all three
//!   optimizers and thread counts.
//! * **Trace determinism** — the same seed, workload, and configuration
//!   drains a byte-identical JSONL trace from two independent engines,
//!   and the thread count is unobservable in the trace (scheduling
//!   accidents like steals are metrics-only, never traced).
//! * **Default off** — an unarmed engine exposes no metrics, no trace,
//!   and no profiles; every hook is a no-op.
//! * **Provenance** — cached answers carry the right provenance label
//!   through `explain_last()`: exact hits, subsumption rollups, and
//!   delta-patched entries after a streaming append.

use starshare::{EngineConfig, OptimizerKind, Outcome, Provenance, TelemetryConfig};
use starshare_testkit::{generate_session, harness_spec};

const OPTIMIZERS: [OptimizerKind; 3] =
    [OptimizerKind::Tplo, OptimizerKind::Etplg, OptimizerKind::Gg];
const THREADS: [usize; 2] = [1, 4];

fn engine(optimizer: OptimizerKind, threads: usize, telemetry: Option<u64>) -> starshare::Engine {
    let mut cfg = EngineConfig::paper().optimizer(optimizer).threads(threads);
    if let Some(seed) = telemetry {
        cfg = cfg.telemetry(TelemetryConfig::enabled(seed));
    }
    cfg.build_paper(harness_spec())
}

fn session_exprs(seed: u64) -> Vec<String> {
    generate_session(&starshare::paper_schema(harness_spec().d_leaf), seed).exprs
}

fn run(e: &mut starshare::Engine, exprs: &[String]) -> Outcome {
    let texts: Vec<&str> = exprs.iter().map(String::as_str).collect();
    e.mdx_many(&texts).expect("batch must run")
}

fn assert_same_observables(on: &Outcome, off: &Outcome, label: &str) {
    assert_eq!(on.report.io, off.report.io, "{label}: I/O counters moved");
    assert_eq!(on.report.sim, off.report.sim, "{label}: sim clock moved");
    assert_eq!(
        on.report.critical, off.report.critical,
        "{label}: critical path moved"
    );
    assert_eq!(on.outcomes.len(), off.outcomes.len(), "{label}");
    for (xi, (a, b)) in on.outcomes.iter().zip(&off.outcomes).enumerate() {
        match (a, b) {
            (Ok(a), Ok(b)) => {
                for (qi, (x, y)) in a.results.iter().zip(&b.results).enumerate() {
                    match (x, y) {
                        (Ok(x), Ok(y)) => assert_eq!(
                            x.rows, y.rows,
                            "{label}: expression {xi} query {qi} rows moved"
                        ),
                        _ => panic!("{label}: expression {xi} query {qi} Ok/Err flip"),
                    }
                }
            }
            (Err(a), Err(b)) => assert_eq!(
                std::mem::discriminant(a),
                std::mem::discriminant(b),
                "{label}: expression {xi} error kind flipped"
            ),
            _ => panic!("{label}: expression {xi} outcome flipped Ok/Err"),
        }
    }
}

/// Telemetry on vs off across the optimizer × thread matrix: results,
/// counters, and the simulated clock must be bit-identical — and the
/// armed run must actually produce profiles where the bare one has none.
#[test]
fn results_and_clock_are_identical_on_vs_off() {
    let exprs = session_exprs(41);
    for optimizer in OPTIMIZERS {
        for threads in THREADS {
            let label = format!("{optimizer:?} × {threads} threads");
            let mut bare = engine(optimizer, threads, None);
            let mut armed = engine(optimizer, threads, Some(7));
            let off = run(&mut bare, &exprs);
            let on = run(&mut armed, &exprs);
            assert_same_observables(&on, &off, &label);
            assert!(off.profiles.is_empty(), "{label}: unarmed run profiled");
            let n_queries: usize = on
                .outcomes
                .iter()
                .flatten()
                .map(|oc| oc.results.len())
                .sum();
            assert_eq!(on.profiles.len(), n_queries, "{label}: profile count");
            assert_eq!(armed.explain_last(), on.profiles, "{label}: explain_last");
        }
    }
}

/// The same seed, workload, and configuration must drain byte-identical
/// traces from two independently built engines.
#[test]
fn same_seed_drains_a_byte_identical_trace() {
    let exprs = session_exprs(42);
    let drain = || {
        let mut e = engine(OptimizerKind::Gg, 1, Some(99));
        run(&mut e, &exprs);
        e.drain_trace().expect("armed engine must trace")
    };
    let (a, b) = (drain(), drain());
    assert!(!a.is_empty());
    assert_eq!(a, b, "same seed + workload must trace identically");
    assert!(a.contains("\"window.close\""));
    assert!(a.contains("\"opt.plan\""));
}

/// The thread count is unobservable in the trace: every class runs on the
/// one morsel executor, morsel boundaries and merge shape depend only on
/// data and plan, and scheduling accidents (steals, worker identity) are
/// confined to metrics.
#[test]
fn trace_is_thread_invariant_on_the_partitioned_path() {
    const THREADS: [usize; 3] = [1, 2, 4];
    let exprs = session_exprs(43);
    let traces: Vec<String> = THREADS
        .iter()
        .map(|&threads| {
            let mut e = engine(OptimizerKind::Tplo, threads, Some(5));
            run(&mut e, &exprs);
            e.drain_trace().expect("armed engine must trace")
        })
        .collect();
    for (trace, threads) in traces[1..].iter().zip(&THREADS[1..]) {
        assert_eq!(
            &traces[0], trace,
            "trace must not depend on the thread count (1 vs {threads})"
        );
    }
    assert!(traces[0].contains("\"exec.morsel\""));
    // The deterministic metrics agree too; only scheduling tallies may
    // differ across thread counts.
    let snap = |threads: usize| {
        let mut e = engine(OptimizerKind::Tplo, threads, Some(5));
        run(&mut e, &exprs);
        *e.metrics().expect("armed engine must snapshot").registry()
    };
    let ra = snap(THREADS[0]);
    for &threads in &THREADS[1..] {
        let rb = snap(threads);
        assert_eq!(ra.sim_nanos, rb.sim_nanos, "{threads} threads");
        assert_eq!(ra.seq_faults, rb.seq_faults, "{threads} threads");
        assert_eq!(ra.random_faults, rb.random_faults, "{threads} threads");
        assert_eq!(ra.queries, rb.queries, "{threads} threads");
        assert_eq!(ra.classes, rb.classes, "{threads} threads");
        assert_eq!(ra.morsels, rb.morsels, "{threads} threads");
    }
}

/// The default configuration is off: no snapshot, no trace, no profiles.
#[test]
fn telemetry_is_off_by_default() {
    let mut e = EngineConfig::paper().build_paper(harness_spec());
    let out = run(&mut e, &session_exprs(44));
    assert!(out.profiles.is_empty());
    assert!(e.metrics().is_none());
    assert!(e.drain_trace().is_none());
    assert!(e.explain_last().is_empty());
    assert!(!e.telemetry().enabled());
}

/// Cache provenance flows into profiles: a warm replay reports exact
/// hits, a coarser probe after a finer one reports a subsumption rollup
/// (with nonzero rollup time), and a replay across a delta-patched append
/// reports delta-patched entries.
#[test]
fn profiles_carry_cache_provenance() {
    let mut e = EngineConfig::paper()
        .optimizer(OptimizerKind::Tplo)
        .result_cache(true)
        .telemetry(TelemetryConfig::enabled(3))
        .build_paper(harness_spec());

    // Paper Q1, then its drill-up (the same pair the cache differential
    // uses to force the subsumption path).
    let exprs = vec![starshare::paper_queries::paper_query_text(1).to_string()];
    const COARSE: &str = "{A''.A1} on COLUMNS \
         {B''.B1} on ROWS \
         {C''.C1} on PAGES \
         CONTEXT ABCD FILTER (D.DD1);";

    // Cold: everything executes.
    let cold = run(&mut e, &exprs);
    assert!(cold
        .profiles
        .iter()
        .all(|p| matches!(p.provenance, Provenance::Direct | Provenance::WindowShared)));

    // Warm: the same expressions hit exactly, with zero engine work.
    let warm = run(&mut e, &exprs);
    assert!(!warm.profiles.is_empty());
    for p in &warm.profiles {
        assert_eq!(p.provenance, Provenance::ExactHit);
        assert_eq!(p.total().as_nanos(), 0, "exact hits do no engine work");
    }

    // Coarser: answered by rolling up the finer cached entry.
    let coarse = run(&mut e, &[COARSE.to_string()]);
    assert!(
        coarse
            .profiles
            .iter()
            .any(|p| p.provenance == Provenance::SubsumptionRollup && p.rollup.as_nanos() > 0),
        "coarse probe must roll up from the finer entry: {:?}",
        coarse.profiles
    );

    // Append, then replay: SUM entries survive by delta patching and say so.
    let n_dims = starshare::paper_schema(harness_spec().d_leaf).n_dims();
    e.append_facts(&[(vec![0u32; n_dims], 1.0)])
        .expect("append must apply");
    let patched = run(&mut e, &exprs);
    assert!(
        patched
            .profiles
            .iter()
            .any(|p| p.provenance == Provenance::DeltaPatched),
        "replay across the append must serve delta-patched entries: {:?}",
        patched.profiles
    );
}
