//! The `testkit` binary: differential fuzzing and repro replay.
//!
//! ```text
//! testkit fuzz [--start N] [--count N] [--faults] [--fault-seeds N] [--out PATH]
//! testkit windows [--start N] [--count N] [--faults] [--telemetry-out BASE]
//! testkit cache [--start N] [--count N] [--faults]
//! testkit maintenance [--start N] [--count N] [--faults] [--out PATH]
//! testkit replay PATH
//! ```
//!
//! `fuzz` sweeps session seeds `start..start+count` through the
//! differential oracle (and, with `--faults`, through the fault-injection
//! harness). `windows` sweeps multi-session optimization windows: each
//! seed's submissions must answer bit-identically windowed and alone, and
//! (with `--faults`) one session's faults must never fail a window-mate.
//! `cache` sweeps the result-cache differential: each seed's session is
//! replayed on a cached engine — warm exact and subsumption hits,
//! optionally under injected faults, and across a delta-patched
//! `append_facts` epoch bump — and must stay bit-identical to a cache-less
//! engine throughout. `maintenance` sweeps the streaming-freshness
//! differential: a long-lived cached engine interleaves MDX rounds with
//! append batches (plus an atomically-rejected malformed append per
//! round) and must answer every round bit-identically to a fresh engine
//! replaying the append prefix from scratch. Every `--faults` sweep draws
//! its plans from `sweep_faults` and fails if it degraded no query, so
//! the per-query degradation path is always exercised. A `fuzz` or
//! `maintenance` failure is shrunk to a minimal case and written to
//! `--out` (default `testkit-repro.txt`) in the repro format; the process
//! exits non-zero.
//! `replay` re-runs such a file and reports pass/fail — the loop a bug
//! report travels through. Every written repro comes with two telemetry
//! sidecars (`<out>.trace.jsonl`, `<out>.metrics.json`) from a
//! telemetry-armed replay of the minimized case, and `windows
//! --telemetry-out BASE` writes the same pair for one sweep seed so CI can
//! upload a span tree from a known-deterministic workload.

use std::process::ExitCode;

use starshare_core::{FaultPlan, OptimizerKind};
use starshare_testkit::{
    check_cache_differential, check_fault_isolation, check_maintenance_differential,
    check_windowed_vs_solo, dump_case_telemetry, dump_window_telemetry, format_case,
    generate_session, harness_spec, maintenance_case, parse_case, run_case, shrink, sweep_faults,
    Case, FaultHarness, Oracle, StorageProfile,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("fuzz") => fuzz(&args[1..]),
        Some("windows") => windows(&args[1..]),
        Some("cache") => cache(&args[1..]),
        Some("maintenance") => maintenance(&args[1..]),
        Some("replay") => replay(&args[1..]),
        _ => {
            eprintln!("usage: testkit fuzz [--start N] [--count N] [--faults] [--fault-seeds N] [--out PATH]");
            eprintln!(
                "       testkit windows [--start N] [--count N] [--faults] [--telemetry-out BASE]"
            );
            eprintln!("       testkit cache [--start N] [--count N] [--faults]");
            eprintln!("       testkit maintenance [--start N] [--count N] [--faults] [--out PATH]");
            eprintln!("       testkit replay PATH");
            ExitCode::from(2)
        }
    }
}

fn arg_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn fuzz(args: &[String]) -> ExitCode {
    let start: u64 = arg_value(args, "--start")
        .map(|v| v.parse().expect("--start takes a number"))
        .unwrap_or(0);
    let count: u64 = arg_value(args, "--count")
        .map(|v| v.parse().expect("--count takes a number"))
        .unwrap_or(50);
    let fault_seeds: u64 = arg_value(args, "--fault-seeds")
        .map(|v| v.parse().expect("--fault-seeds takes a number"))
        .unwrap_or(2);
    let with_faults = args.iter().any(|a| a == "--faults");
    let out_path = arg_value(args, "--out").unwrap_or_else(|| "testkit-repro.txt".to_string());

    let spec = harness_spec();
    let mut oracle = Oracle::new(spec);
    // One fault harness per storage profile; each session runs on its
    // seed's profile, so the sweep covers compressed indexes and heaps
    // under injection too.
    let mut harnesses = with_faults.then(|| {
        StorageProfile::ALL.map(|p| FaultHarness::with_storage(spec, OptimizerKind::Gg, p))
    });
    let mut degraded_total = 0usize;

    for seed in start..start + count {
        let session = generate_session(oracle.schema(), seed);
        if let Err(m) = oracle.check_session(&session, seed % 16 == 0) {
            eprintln!("differential failure: {m}");
            return shrink_and_write(
                Case {
                    spec,
                    seed,
                    exprs: session.exprs,
                    optimizer: m.optimizer,
                    threads: m.threads,
                    fault: FaultPlan::none(),
                    appends: Vec::new(),
                },
                &out_path,
            );
        }
        if let Some(hs) = &mut harnesses {
            let h = &mut hs[(seed % hs.len() as u64) as usize];
            for k in 0..fault_seeds {
                // Distinct fault stream per (session, k).
                let fault = sweep_faults(seed.wrapping_mul(1000) + k);
                let cmp = h.compare(&session, fault);
                degraded_total += cmp.n_degraded();
                if !cmp.ok() {
                    eprintln!(
                        "fault-contract failure (session {seed}, fault seed {}):",
                        fault.seed
                    );
                    for v in &cmp.violations {
                        eprintln!("  {v}");
                    }
                    return shrink_and_write(
                        Case {
                            spec,
                            seed,
                            exprs: session.exprs,
                            optimizer: OptimizerKind::Gg,
                            threads: 1,
                            fault,
                            appends: Vec::new(),
                        },
                        &out_path,
                    );
                }
            }
        }
    }
    let s = oracle.stats;
    println!(
        "ok: {} sessions, {} reference comparisons, {} determinism reruns, \
         {} storage-profile checks",
        s.sessions, s.comparisons, s.reruns, s.storage_checks
    );
    println!("kernel tiers exercised: {:?}", oracle.tiers_seen);
    if with_faults {
        println!(
            "fault sweeps: {fault_seeds} per session, {degraded_total} queries degraded gracefully"
        );
    }
    sweep_exit(with_faults, degraded_total)
}

/// The multi-session windowing sweep: windowed-vs-solo bit identity per
/// seed, plus (with `--faults`) cross-session fault isolation.
fn windows(args: &[String]) -> ExitCode {
    let start: u64 = arg_value(args, "--start")
        .map(|v| v.parse().expect("--start takes a number"))
        .unwrap_or(0);
    let count: u64 = arg_value(args, "--count")
        .map(|v| v.parse().expect("--count takes a number"))
        .unwrap_or(25);
    let with_faults = args.iter().any(|a| a == "--faults");
    let telemetry_out = arg_value(args, "--telemetry-out");

    let spec = harness_spec();
    let (mut comparisons, mut cross, mut degraded) = (0u64, 0usize, 0usize);
    for seed in start..start + count {
        match check_windowed_vs_solo(spec, seed) {
            Ok(c) => {
                comparisons += c.comparisons;
                cross += c.cross_submission_classes;
            }
            Err(detail) => {
                eprintln!("windowing failure: {detail}");
                return ExitCode::FAILURE;
            }
        }
        if with_faults {
            let fault = sweep_faults(seed.wrapping_mul(7919));
            match check_fault_isolation(spec, seed, fault) {
                Ok(c) => degraded += c.degraded,
                Err(detail) => {
                    eprintln!("fault-isolation failure: {detail}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    println!(
        "ok: {count} windows, {comparisons} windowed-vs-solo comparisons, {cross} cross-submission classes"
    );
    if with_faults {
        println!("fault isolation: {degraded} queries degraded, no window-mate harmed");
    }
    if let Some(base) = telemetry_out {
        // One telemetry-armed rerun of the first sweep seed: the artifact
        // CI uploads so every run has a browsable deterministic trace.
        match dump_window_telemetry(spec, start, &base) {
            Ok(a) => println!("telemetry: wrote {} and {}", a.trace_path, a.metrics_path),
            Err(e) => {
                eprintln!("telemetry dump failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    sweep_exit(with_faults, degraded)
}

/// The result-cache differential sweep: warm replays (and, with
/// `--faults`, faulted ones) plus an append-invalidation phase per seed,
/// all bit-compared against a cache-less engine.
fn cache(args: &[String]) -> ExitCode {
    let start: u64 = arg_value(args, "--start")
        .map(|v| v.parse().expect("--start takes a number"))
        .unwrap_or(0);
    let count: u64 = arg_value(args, "--count")
        .map(|v| v.parse().expect("--count takes a number"))
        .unwrap_or(25);
    let with_faults = args.iter().any(|a| a == "--faults");

    let spec = harness_spec();
    let (mut comparisons, mut hits, mut rollups) = (0u64, 0u64, 0u64);
    let (mut patched, mut patch_drops, mut degraded) = (0u64, 0u64, 0usize);
    for seed in start..start + count {
        match check_cache_differential(spec, seed, None) {
            Ok(c) => {
                comparisons += c.comparisons;
                hits += c.exact_hits;
                rollups += c.subsumption_hits;
                patched += c.patched;
                patch_drops += c.patch_drops;
            }
            Err(detail) => {
                eprintln!("cache differential failure: {detail}");
                return ExitCode::FAILURE;
            }
        }
        if with_faults {
            let fault = sweep_faults(seed.wrapping_mul(7919));
            match check_cache_differential(spec, seed, Some(fault)) {
                Ok(c) => degraded += c.degraded,
                Err(detail) => {
                    eprintln!("faulted cache differential failure: {detail}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    println!(
        "ok: {count} sessions, {comparisons} cached-vs-reference comparisons, \
         {hits} exact hits, {rollups} subsumption hits, \
         {patched} entries patched, {patch_drops} dropped as unpatchable"
    );
    if with_faults {
        println!("fault transparency: {degraded} queries degraded, none drifted");
    }
    sweep_exit(with_faults, degraded)
}

/// The streaming-freshness sweep: per seed, a long-lived cached engine
/// interleaves MDX rounds with append batches (and per-round malformed
/// appends that must bounce atomically), differentially checked against a
/// fresh from-scratch engine every round. The first failure is shrunk —
/// batches and rows included — and written as a repro.
fn maintenance(args: &[String]) -> ExitCode {
    let start: u64 = arg_value(args, "--start")
        .map(|v| v.parse().expect("--start takes a number"))
        .unwrap_or(0);
    let count: u64 = arg_value(args, "--count")
        .map(|v| v.parse().expect("--count takes a number"))
        .unwrap_or(25);
    let with_faults = args.iter().any(|a| a == "--faults");
    let out_path = arg_value(args, "--out").unwrap_or_else(|| "testkit-repro.txt".to_string());

    let spec = harness_spec();
    let (mut comparisons, mut patched, mut drops) = (0u64, 0u64, 0u64);
    let (mut rejected, mut degraded) = (0u64, 0usize);
    for seed in start..start + count {
        match check_maintenance_differential(spec, seed, None) {
            Ok(c) => {
                comparisons += c.comparisons;
                patched += c.patched;
                drops += c.patch_drops;
                rejected += c.rejected_appends;
            }
            Err(detail) => {
                eprintln!("maintenance differential failure: {detail}");
                return shrink_and_write(maintenance_case(spec, seed, None), &out_path);
            }
        }
        if with_faults {
            let fault = sweep_faults(seed.wrapping_mul(7919));
            match check_maintenance_differential(spec, seed, Some(fault)) {
                Ok(c) => degraded += c.degraded,
                Err(detail) => {
                    eprintln!("faulted maintenance differential failure: {detail}");
                    return shrink_and_write(maintenance_case(spec, seed, Some(fault)), &out_path);
                }
            }
        }
    }
    println!(
        "ok: {count} maintenance sessions, {comparisons} live-vs-fresh comparisons, \
         {patched} entries patched, {drops} dropped as unpatchable, \
         {rejected} malformed appends bounced"
    );
    if with_faults {
        println!("fault transparency: {degraded} queries degraded, none went stale");
    }
    sweep_exit(with_faults, degraded)
}

/// Success — unless a `--faults` sweep degraded no query: it never
/// exercised the per-query degradation path, so it fails rather than
/// passing vacuously.
fn sweep_exit(with_faults: bool, degraded: usize) -> ExitCode {
    if with_faults && degraded == 0 {
        eprintln!("fault sweep degraded no query: the degradation path went unexercised");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn shrink_and_write(case: Case, out_path: &str) -> ExitCode {
    eprintln!("shrinking…");
    let min = shrink(&case, &mut |cand| run_case(cand).is_err());
    // The shrunk case must still fail; if the failure was flaky (it should
    // never be — everything is seeded), fall back to the original.
    let min = if run_case(&min).is_err() { min } else { case };
    let text = format_case(&min);
    eprintln!("--- minimized repro ---\n{text}-----------------------");
    match std::fs::write(out_path, &text) {
        Ok(()) => eprintln!("wrote {out_path}"),
        Err(e) => eprintln!("could not write {out_path}: {e}"),
    }
    // Telemetry sidecars from a traced replay of the minimized case, so
    // the repro ships with the span tree that led up to the failure.
    match dump_case_telemetry(&min, out_path) {
        Ok(a) => eprintln!("telemetry: wrote {} and {}", a.trace_path, a.metrics_path),
        Err(e) => eprintln!("telemetry dump failed: {e}"),
    }
    ExitCode::FAILURE
}

fn replay(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        eprintln!("usage: testkit replay PATH");
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let case = match parse_case(&text) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot parse {path}: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "replaying {} expression(s), optimizer {:?}, {} thread(s), fault seed {}…",
        case.exprs.len(),
        case.optimizer,
        case.threads,
        case.fault.seed
    );
    match run_case(&case) {
        Ok(()) => {
            println!("replay PASSED: the engine honours its contract on this case");
            ExitCode::SUCCESS
        }
        Err(detail) => {
            println!("replay FAILED: {detail}");
            ExitCode::FAILURE
        }
    }
}
