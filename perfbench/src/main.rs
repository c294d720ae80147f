//! starshare's benchmark: one workload per run, end-to-end metrics
//! untraced, per-layer metrics from a separate traced replay.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last stdout line is the result object; the lines before it give
//! every metric (workload-specific ones included) as `metric`/`layer`
//! lines. The exit code is 1 when any answer is wrong.

mod drive;
mod gate;
mod replay;
mod report;
mod workload;

use starshare_core::paper_cube;

use report::{find, Metric};
use workload::{Inputs, Params, Workload};

/// End-to-end metrics every workload reports, in `BENCHMARK.json` order.
const END_TO_END: [&str; 6] = [
    "setup_s",
    "latency_p50_ms",
    "latency_p95_ms",
    "queries_per_s",
    "sim_s_per_query",
    "setup_rss_mb",
];

/// Per-layer metrics every workload defines, in `BENCHMARK.json` order.
/// The layers a workload leaves idle (cache, olap, serve, loadgen) are
/// reported on `layer` lines only.
const PER_LAYER: [&str; 36] = [
    "mdx.parse_us",
    "mdx.bind_us",
    "mdx.queries_per_expr",
    "opt.plan_ms",
    "opt.classes",
    "opt.queries_per_class",
    "opt.cost_qerror_p50",
    "opt.cost_qerror_max",
    "exec.scan_ms",
    "exec.wall_ms",
    "exec.busy_ms",
    "exec.parallel_eff",
    "exec.sim_s",
    "exec.critical_s",
    "exec.hash_probes",
    "exec.agg_updates",
    "exec.predicate_evals",
    "exec.morsels",
    "exec.steals",
    "exec.scan_gap",
    "bitmap.words",
    "bitmap.tests",
    "storage.seq_faults",
    "storage.random_faults",
    "storage.pool_hits",
    "storage.pool_hit_ratio",
    "storage.bytes_scanned",
    "storage.decompress_bytes",
    "storage.ref_scan_ms",
    "cache.exact_hits",
    "cache.subsumption_hits",
    "cache.misses",
    "cache.evictions",
    "cache.patched",
    "core.unattributed_ms",
    "trace.overhead_frac",
];

/// Everything one run reports.
struct Outcome {
    /// Human-readable lines printed before the result object.
    lines: Vec<String>,
    /// The result object's metrics.
    metrics: Vec<Metric>,
    correct: bool,
    attempted: u64,
    failed: u64,
}

/// Runs `workload` once: set-ups, the untraced timed phase, the
/// correctness gate, with `trace` the traced replay, and more set-ups.
fn run(workload: Workload, params: &Params, seed: u64, trace: bool) -> Outcome {
    let mut inputs = Inputs::new(workload, params, seed);
    let steal_before = report::cpu_steal();
    // Half the set-ups before the timed phase, the rest at the end of the
    // run, so `setup_s` samples the host at both ends of it.
    let early = params.setup_repeats.div_ceil(2);
    let (target, mut setup_secs) = drive::setup(workload, early, &inputs);
    let setup_rss = report::peak_rss_mb();
    let (rec, engine) = drive::run(workload, target, &mut inputs, params);
    let rss = drive::Rss {
        setup: setup_rss,
        peak: report::peak_rss_mb(),
    };
    // Host contention during set-up and the timed phase, for reading
    // noisy wall-clock figures.
    let steal = match (steal_before, report::cpu_steal()) {
        (Some((s0, t0)), Some((s1, t1))) => report::ratio((s1 - s0) as f64, (t1 - t0) as f64),
        _ => None,
    };
    let threads = engine.threads();

    // The gate needs the cube as generated: the run's own when nothing was
    // appended, otherwise a fresh copy.
    let verdict = if inputs.batches.is_empty() {
        let verdict = gate::check(&rec.answers, engine.cube(), &[], threads);
        drop(engine);
        verdict
    } else {
        drop(engine);
        gate::check(
            &rec.answers,
            &paper_cube(inputs.spec),
            &inputs.batches,
            threads,
        )
    };
    let mut wrong = verdict.wrong + rec.answers.inconsistent;

    let mut lines = vec![format!(
        "# perfbench {} seed={seed} scale={} seconds={} threads={threads} \
         submissions={} answers_checked={} wrong={} host_steal_frac={:.4}",
        workload.name(),
        params.scale,
        params.seconds,
        rec.subs.len(),
        verdict.checked,
        wrong,
        steal.unwrap_or(f64::NAN)
    )];
    let traced = trace.then(|| replay::run(workload, paper_cube(inputs.spec), &rec, &inputs, seed));
    if let Some(t) = &traced {
        wrong += t.mismatched;
        lines.push(format!("# replay mismatches={}", t.mismatched));
    }
    if params.setup_repeats > early {
        let (spare, late) = drive::setup(workload, params.setup_repeats - early, &inputs);
        drop(spare);
        setup_secs.extend(late);
    }
    let (common, extra) = drive::end_to_end(workload, &rec, &setup_secs, rss, wrong);
    for m in common.iter().chain(&extra) {
        lines.push(report::text_line("metric", m));
    }
    let metrics = match &traced {
        None => common.clone(),
        Some(t) => {
            for m in &t.layers {
                lines.push(report::text_line("layer", m));
            }
            let (what, share) = &t.dominant;
            let verdict = match share {
                Some(s) if *s >= 0.5 => "ok",
                _ => "NOT MET",
            };
            lines.push(format!(
                "check dominant-layer {what} {} {verdict}",
                share.map_or("null".into(), |s| format!("{s:.3}"))
            ));
            PER_LAYER
                .iter()
                .map(|name| {
                    find(&t.layers, name)
                        .expect("every per-layer metric is computed")
                        .clone()
                })
                .collect()
        }
    };
    Outcome {
        lines,
        metrics,
        correct: wrong == 0,
        attempted: rec.attempted(),
        failed: rec.failed() + wrong,
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).unwrap_or_else(|| usage())),
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    let workload = workload.unwrap_or_else(|| usage());
    if !(seconds > 0.0 && seconds <= 600.0) {
        usage();
    }
    let out = run(workload, &Params::new(workload, seconds), seed, trace);
    for line in &out.lines {
        println!("{line}");
    }
    let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
    let declared: &[&str] = if trace { &PER_LAYER } else { &END_TO_END };
    assert_eq!(
        names, declared,
        "reported metrics must match BENCHMARK.json"
    );
    println!(
        "{}",
        report::result_line(out.correct, out.attempted, out.failed, &out.metrics)
    );
    if !out.correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny scale: each workload completes, reports every named metric on
    /// both runs, and passes the correctness gate and the replay identity.
    #[test]
    fn every_workload_reports_every_metric_and_passes_the_gate() {
        for w in Workload::ALL {
            let out = run(w, &Params::tiny(0.5), 7, true);
            assert!(
                out.correct,
                "{}: wrong answers\n{}",
                w.name(),
                out.lines.join("\n")
            );
            assert!(
                out.attempted > 0 && out.failed == 0,
                "{}: failures",
                w.name()
            );
            let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
            assert_eq!(names, PER_LAYER);
            let text = out.lines.join("\n");
            for name in END_TO_END {
                assert!(
                    text.contains(&format!("metric {name} ")),
                    "{}: no {name}",
                    w.name()
                );
            }
            for line in out.lines.iter().filter(|l| l.starts_with("metric ")) {
                assert!(!line.contains(" null "), "{}: {line}", w.name());
            }
            assert!(text.contains("check dominant-layer"), "{text}");
        }
    }

    #[test]
    fn drill_ups_and_appends_exercise_their_layers() {
        let out = run(Workload::AppendStream, &Params::tiny(0.3), 3, true);
        let layer = |name: &str| {
            out.lines
                .iter()
                .find(|l| l.starts_with(&format!("layer {name} ")))
                .and_then(|l| l.split_whitespace().nth(2)?.parse::<f64>().ok())
                .unwrap_or_else(|| panic!("no {name}"))
        };
        assert!(layer("cache.patched") > 0.0);
        assert!(layer("olap.append_ms") > 0.0);
        let out = run(Workload::DashboardOpen, &Params::tiny(0.5), 3, true);
        assert!(out.correct);
        let text = out.lines.join("\n");
        assert!(!text.contains("layer cache.subsumption_hits 0 "), "{text}");
    }
}
