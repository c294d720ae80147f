//! starshare-obs: deterministic telemetry for the starshare engine.
//!
//! Three facilities, one handle:
//!
//! * [`trace`] — structured spans/events per submission, ring-buffered,
//!   drainable as JSONL, bit-reproducible for a fixed seed (see the
//!   module docs for the determinism rules);
//! * [`metrics`] — a unified registry of typed counters, gauges, and
//!   histograms, snapshot-able as one struct with stable JSON;
//! * [`profile`] — per-query phase attribution and cache provenance.
//!
//! The [`Telemetry`] handle gates everything. Disabled (the default) it
//! holds no state and every hook is an inlined `None` check — results,
//! `IoStats`, and the simulated clock are bit-identical whether the
//! handle is armed or not, because telemetry only *observes*
//! deterministic counters and never participates in costing.

pub mod json;
pub mod metrics;
pub mod profile;
pub mod trace;

use std::sync::{Arc, Mutex};

pub use metrics::{Histogram, MetricsRegistry, MetricsSnapshot};
pub use profile::{Provenance, QueryProfile};
pub use trace::{Kind, TraceEvent, Tracer, Value};

/// Configuration for the telemetry layer (off by default).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TelemetryConfig {
    /// Master switch. Off ⇒ the handle holds no state at all.
    pub enabled: bool,
    /// Per-run seed for span-ID derivation.
    pub seed: u64,
}

impl TelemetryConfig {
    /// Enabled with the given seed.
    pub fn enabled(seed: u64) -> Self {
        TelemetryConfig {
            enabled: true,
            seed,
        }
    }
}

/// Trace ring capacity, in records (oldest drop first).
const TRACE_CAPACITY: usize = 65_536;

#[derive(Debug)]
struct Inner {
    tracer: Tracer,
    metrics: MetricsRegistry,
    profiles: Vec<QueryProfile>,
}

/// The shared telemetry handle.
///
/// Cheap to clone (an `Option<Arc>`); all clones observe the same
/// tracer/registry. Disabled handles hold nothing and every accessor
/// short-circuits. The mutex is only ever taken from coordinator-side
/// code (trace determinism requires single-threaded emission anyway),
/// so contention is not a concern.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Mutex<Inner>>>,
}

impl Telemetry {
    /// A disabled handle: every hook is a no-op.
    pub fn off() -> Self {
        Telemetry { inner: None }
    }

    /// A handle per `cfg` (disabled config ⇒ same as [`off`](Self::off)).
    pub fn new(cfg: TelemetryConfig) -> Self {
        if !cfg.enabled {
            return Telemetry::off();
        }
        Telemetry {
            inner: Some(Arc::new(Mutex::new(Inner {
                tracer: Tracer::new(cfg.seed, TRACE_CAPACITY),
                metrics: MetricsRegistry::default(),
                profiles: Vec::new(),
            }))),
        }
    }

    /// Whether the handle is armed.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Runs `f` against the metrics registry (no-op when disabled).
    #[inline]
    pub fn metrics(&self, f: impl FnOnce(&mut MetricsRegistry)) {
        if let Some(inner) = &self.inner {
            f(&mut inner.lock().unwrap().metrics);
        }
    }

    /// Runs `f` against the tracer (no-op when disabled).
    #[inline]
    pub fn trace(&self, f: impl FnOnce(&mut Tracer)) {
        if let Some(inner) = &self.inner {
            f(&mut inner.lock().unwrap().tracer);
        }
    }

    /// A point-in-time metrics snapshot (`None` when disabled).
    pub fn snapshot(&self) -> Option<MetricsSnapshot> {
        self.inner
            .as_ref()
            .map(|i| i.lock().unwrap().metrics.snapshot())
    }

    /// Drains the trace ring as JSONL (`None` when disabled).
    pub fn drain_jsonl(&self) -> Option<String> {
        self.inner
            .as_ref()
            .map(|i| i.lock().unwrap().tracer.drain_jsonl())
    }

    /// Replaces the stored "last window" profiles (no-op when disabled).
    pub fn store_profiles(&self, profiles: Vec<QueryProfile>) {
        if let Some(inner) = &self.inner {
            inner.lock().unwrap().profiles = profiles;
        }
    }

    /// The profiles stored for the most recent window (empty when
    /// disabled or before any window ran).
    pub fn last_profiles(&self) -> Vec<QueryProfile> {
        self.inner
            .as_ref()
            .map(|i| i.lock().unwrap().profiles.clone())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::off();
        assert!(!t.enabled());
        t.metrics(|_| panic!("must not run"));
        t.trace(|_| panic!("must not run"));
        assert!(t.snapshot().is_none());
        assert!(t.drain_jsonl().is_none());
        t.store_profiles(vec![QueryProfile::cached(
            Provenance::Direct,
            starshare_storage::SimTime::ZERO,
        )]);
        assert!(t.last_profiles().is_empty());
        // Disabled config behaves identically to off().
        assert!(!Telemetry::new(TelemetryConfig::default()).enabled());
    }

    #[test]
    fn clones_share_state() {
        let t = Telemetry::new(TelemetryConfig::enabled(5));
        let u = t.clone();
        t.metrics(|m| m.observe_append(10));
        u.trace(|tr| tr.event("cache.probe", vec![("outcome", "hit".into())]));
        let snap = u.snapshot().unwrap();
        assert_eq!(snap.registry().appends, 1);
        assert_eq!(snap.registry().appended_rows, 10);
        let jsonl = t.drain_jsonl().unwrap();
        assert!(jsonl.contains("cache.probe"));
    }

    #[test]
    fn profiles_round_trip() {
        let t = Telemetry::new(TelemetryConfig::enabled(1));
        t.store_profiles(vec![QueryProfile::cached(
            Provenance::ExactHit,
            starshare_storage::SimTime::ZERO,
        )]);
        let got = t.last_profiles();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].provenance, Provenance::ExactHit);
    }
}
