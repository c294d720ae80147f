//! Telemetry artifact dumps: replay a failing (or sampled) case on a
//! telemetry-armed twin engine and write the drained trace plus a metrics
//! snapshot next to the repro, so a bug report ships with the span tree
//! that led up to it.
//!
//! Telemetry is deterministic and observably inert (the invariance suite
//! in `tests/telemetry_invariance.rs` pins results, counters, and the sim
//! clock bit-identical on vs off), so the replayed trace is faithful to
//! the failing run: same seed, same spans, same counters — just visible.

use starshare_core::{EngineConfig, PaperCubeSpec, TelemetryConfig};

use crate::shrink::Case;
use crate::windows::generate_window;

/// Where one dump landed, for the caller's log line.
#[derive(Debug, Clone)]
pub struct TelemetryArtifacts {
    /// The drained span trace, one JSON object per line.
    pub trace_path: String,
    /// The metrics registry snapshot, one JSON object.
    pub metrics_path: String,
}

fn write_artifacts(
    engine: &starshare_core::Engine,
    base: &str,
) -> Result<TelemetryArtifacts, String> {
    let trace = engine.drain_trace().unwrap_or_default();
    let metrics = engine
        .metrics()
        .map(|m| m.to_json())
        .unwrap_or_else(|| "{}".to_string());
    let artifacts = TelemetryArtifacts {
        trace_path: format!("{base}.trace.jsonl"),
        metrics_path: format!("{base}.metrics.json"),
    };
    std::fs::write(&artifacts.trace_path, trace)
        .map_err(|e| format!("could not write {}: {e}", artifacts.trace_path))?;
    std::fs::write(&artifacts.metrics_path, metrics + "\n")
        .map_err(|e| format!("could not write {}: {e}", artifacts.metrics_path))?;
    Ok(artifacts)
}

/// Replays `case` on a telemetry-armed twin engine and writes
/// `<base>.trace.jsonl` + `<base>.metrics.json`.
///
/// Maintenance cases (non-empty `appends`) replay as query/append rounds
/// against a cached engine, mirroring the differential's live engine; the
/// interleaved fresh-reference runs are skipped — the trace documents the
/// engine under test, not the oracle. Execution errors are swallowed: a
/// failing case is exactly when the partial trace is worth shipping.
pub fn dump_case_telemetry(case: &Case, base: &str) -> Result<TelemetryArtifacts, String> {
    let cached = !case.appends.is_empty();
    let mut engine = EngineConfig::paper()
        .optimizer(case.optimizer)
        .threads(case.threads)
        .result_cache(cached)
        .telemetry(TelemetryConfig::enabled(case.seed))
        .build_paper(case.spec);
    if !case.fault.is_none() {
        engine.inject_faults(case.fault);
    }
    let texts: Vec<&str> = case.exprs.iter().map(String::as_str).collect();
    let _ = engine.mdx_many(&texts);
    for batch in &case.appends {
        let _ = engine.append_facts(batch);
        let _ = engine.mdx_many(&texts);
    }
    write_artifacts(&engine, base)
}

/// Runs one `windows`-sweep seed on a telemetry-armed engine and writes
/// the same two artifacts. CI uploads these from a fixed seed so every
/// run has a browsable span tree from a known-deterministic workload.
pub fn dump_window_telemetry(
    spec: PaperCubeSpec,
    seed: u64,
    base: &str,
) -> Result<TelemetryArtifacts, String> {
    let submissions = generate_window(spec, seed);
    let mut engine = EngineConfig::paper()
        .telemetry(TelemetryConfig::enabled(seed))
        .build_paper(spec);
    let slices: Vec<&[String]> = submissions.iter().map(Vec::as_slice).collect();
    engine
        .mdx_window(&slices)
        .map_err(|e| format!("window failed: {e}"))?;
    write_artifacts(&engine, base)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::harness_spec;
    use crate::session::generate_session;
    use starshare_core::{paper_schema, FaultPlan};

    fn tmp_base(tag: &str) -> String {
        let dir = std::env::temp_dir().join("starshare-testkit-telemetry");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(tag).to_string_lossy().into_owned()
    }

    #[test]
    fn case_dump_writes_trace_and_metrics() {
        let session = generate_session(&paper_schema(24), 3);
        let case = Case {
            spec: harness_spec(),
            seed: session.seed,
            exprs: session.exprs,
            optimizer: starshare_core::OptimizerKind::Gg,
            threads: 1,
            fault: FaultPlan::none(),
            appends: Vec::new(),
        };
        let a = dump_case_telemetry(&case, &tmp_base("case")).unwrap();
        let trace = std::fs::read_to_string(&a.trace_path).unwrap();
        assert!(trace.lines().count() > 2, "trace is implausibly short");
        assert!(trace.contains("\"window.close\""));
        let metrics = std::fs::read_to_string(&a.metrics_path).unwrap();
        assert!(metrics.contains("\"queries\""));
    }

    #[test]
    fn maintenance_case_dump_covers_appends() {
        let case = crate::maintenance::maintenance_case(harness_spec(), 2, None);
        let a = dump_case_telemetry(&case, &tmp_base("maint")).unwrap();
        let trace = std::fs::read_to_string(&a.trace_path).unwrap();
        assert!(trace.contains("\"engine.append\""));
        assert!(trace.contains("\"cache.probe\""));
    }

    #[test]
    fn window_dump_is_deterministic() {
        let a = dump_window_telemetry(harness_spec(), 7, &tmp_base("win-a")).unwrap();
        let b = dump_window_telemetry(harness_spec(), 7, &tmp_base("win-b")).unwrap();
        let ta = std::fs::read_to_string(&a.trace_path).unwrap();
        let tb = std::fs::read_to_string(&b.trace_path).unwrap();
        assert_eq!(ta, tb, "same seed must drain a byte-identical trace");
        assert!(ta.contains("\"opt.plan\""));
    }
}
