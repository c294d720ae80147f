//! The unified metrics registry: typed counters, gauges, and histograms,
//! registered once and snapshot-able as one struct.
//!
//! The registry is plain data behind the [`Telemetry`](crate::Telemetry)
//! handle's lock — no atomics, because every writer is coordinator-side
//! code (the engine between operator runs, the serving coordinator between
//! windows). The existing stat structs (`ExecReport`, `CacheStats`,
//! `SharingStats`, `ServerStats`, `IoStats`) stay as the per-call *views*;
//! their producers feed the same activity into this registry, which holds
//! the *cumulative* story and renders it as one JSON object.
//!
//! Everything here is deterministic except the scheduling counters
//! (`steals`): stealing is a host scheduling accident, which is exactly
//! why it lives in metrics and never in the trace (see
//! [`crate::trace`]'s determinism rules).

use starshare_storage::{CpuCounters, HardwareModel, IoStats, SimTime};

use crate::json::Obj;

/// Bucket count of [`Histogram`]: power-of-two buckets `[2^i, 2^(i+1))`
/// for `i < BUCKETS - 1`, with the last bucket catching everything larger.
pub const HISTOGRAM_BUCKETS: usize = 16;

/// A fixed power-of-two-bucket histogram of `u64` observations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Histogram {
    /// `buckets[i]` counts observations in `[2^i, 2^(i+1))` (bucket 0 also
    /// holds zeros; the last bucket holds everything `>= 2^(BUCKETS-1)`).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observations.
    pub sum: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
}

impl Histogram {
    /// Records one observation.
    pub fn record(&mut self, v: u64) {
        let idx = if v < 2 {
            0
        } else {
            ((63 - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
        };
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Mean observation (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    fn to_json(self) -> String {
        let mut o = Obj::new();
        o.field_u64("count", self.count);
        o.field_u64("sum", self.sum);
        o.field_u64("max", self.max);
        o.field_f64("mean", self.mean());
        let buckets: Vec<String> = self.buckets.iter().map(|b| b.to_string()).collect();
        o.field_raw("buckets", &crate::json::array(buckets));
        o.finish()
    }
}

/// The registry proper: every counter, gauge, and histogram the engine
/// stack reports, in one place. Held inside the telemetry handle; read it
/// through [`MetricsSnapshot`].
#[derive(Debug, Clone, Copy, Default)]
pub struct MetricsRegistry {
    // -- window / submission flow --
    /// Optimization windows executed (`Engine::mdx_window` calls,
    /// including the single-submission `mdx`/`mdx_many` special case).
    pub windows: u64,
    /// Submissions across all windows.
    pub submissions: u64,
    /// Queries across all windows (after binding).
    pub queries: u64,
    /// Plan classes executed (shared operator runs).
    pub classes: u64,
    /// Classes fed by more than one submission.
    pub cross_submission_classes: u64,
    /// Expressions per window, as a distribution.
    pub window_occupancy: Histogram,
    /// Submissions waiting in the serving queue when a window closed
    /// (a gauge — last observed value).
    pub queue_depth: u64,

    // -- execution --
    /// Morsels executed.
    pub morsels: u64,
    /// Successful steals in the work-stealing scheduler. A host
    /// scheduling accident: legitimately varies run to run and across
    /// thread counts (metrics-only; never traced).
    pub steals: u64,
    /// Partial-aggregate merge pairs run by the tree merge.
    pub merge_pairs: u64,
    /// Cumulative simulated execution time, in nanoseconds.
    pub sim_nanos: u64,
    /// Cumulative simulated critical-path time, in nanoseconds.
    pub critical_nanos: u64,

    // -- I/O --
    /// Page faults served as sequential transfers.
    pub seq_faults: u64,
    /// Page faults served as random reads.
    pub random_faults: u64,
    /// Page accesses satisfied from the buffer pool.
    pub pool_hits: u64,
    /// Bytes transferred by sequential faults (compressed pages transfer
    /// their stored size, not a full page).
    pub seq_bytes: u64,
    /// Bytes transferred by random faults.
    pub random_bytes: u64,
    /// Bytes of sealed pages decoded after faulting in.
    pub decompress_bytes: u64,

    // -- faults / retries --
    /// Fault-checked page accesses observed (0 unless injection is armed).
    pub faults_checked: u64,
    /// Transient read faults injected; each one triggers one bounded
    /// retry in the executor (`starshare_exec::retry`).
    pub retries: u64,
    /// Distinct pages poisoned.
    pub poisoned_pages: u64,
    /// Accesses denied on already-poisoned pages.
    pub poison_denials: u64,

    // -- result cache --
    /// Probes answered by an identical cached entry.
    pub cache_exact_hits: u64,
    /// Probes answered by rolling up a finer cached entry.
    pub cache_subsumption_hits: u64,
    /// Probes no cached entry could answer.
    pub cache_misses: u64,
    /// Entries admitted.
    pub cache_insertions: u64,
    /// Entries evicted by the byte budget.
    pub cache_evictions: u64,
    /// Entries dropped by an epoch bump.
    pub cache_invalidations: u64,
    /// Entries carried across an append by delta patching.
    pub cache_patched: u64,
    /// Entries dropped because an append could not patch them.
    pub cache_patch_drops: u64,

    // -- appends --
    /// Append batches applied.
    pub appends: u64,
    /// Fact rows appended.
    pub appended_rows: u64,
}

impl MetricsRegistry {
    /// Folds one execution report's deterministic totals in.
    pub fn observe_exec(&mut self, io: &IoStats, sim: SimTime, critical: SimTime) {
        self.seq_faults += io.seq_faults;
        self.random_faults += io.random_faults;
        self.pool_hits += io.hits;
        self.seq_bytes += io.seq_bytes;
        self.random_bytes += io.random_bytes;
        self.decompress_bytes += io.decompress_bytes;
        self.sim_nanos += sim.as_nanos();
        self.critical_nanos += critical.as_nanos();
    }

    /// Folds one window's shape in (call once per executed window).
    pub fn observe_window(
        &mut self,
        n_submissions: u64,
        n_queries: u64,
        n_classes: u64,
        cross_submission_classes: u64,
        n_exprs: u64,
    ) {
        self.windows += 1;
        self.submissions += n_submissions;
        self.queries += n_queries;
        self.classes += n_classes;
        self.cross_submission_classes += cross_submission_classes;
        self.window_occupancy.record(n_exprs);
    }

    /// Folds one result-cache activity delta in (the eight `CacheStats`
    /// counters, in declaration order).
    #[allow(clippy::too_many_arguments)]
    pub fn observe_cache(
        &mut self,
        exact_hits: u64,
        subsumption_hits: u64,
        misses: u64,
        insertions: u64,
        evictions: u64,
        invalidations: u64,
        patched: u64,
        patch_drops: u64,
    ) {
        self.cache_exact_hits += exact_hits;
        self.cache_subsumption_hits += subsumption_hits;
        self.cache_misses += misses;
        self.cache_insertions += insertions;
        self.cache_evictions += evictions;
        self.cache_invalidations += invalidations;
        self.cache_patched += patched;
        self.cache_patch_drops += patch_drops;
    }

    /// Folds one append batch in.
    pub fn observe_append(&mut self, rows: u64) {
        self.appends += 1;
        self.appended_rows += rows;
    }

    /// Overwrites the fault-injection tallies (they are cumulative at the
    /// source, so the caller passes the pool's current totals).
    pub fn set_faults(&mut self, checked: u64, transient: u64, poisoned: u64, denials: u64) {
        self.faults_checked = checked;
        self.retries = transient;
        self.poisoned_pages = poisoned;
        self.poison_denials = denials;
    }

    /// Takes an immutable snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot { inner: *self }
    }
}

/// A point-in-time copy of the whole registry, with derived ratios and
/// JSON / one-line rendering.
#[derive(Debug, Clone, Copy, Default)]
pub struct MetricsSnapshot {
    inner: MetricsRegistry,
}

impl MetricsSnapshot {
    /// The raw registry values at snapshot time.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.inner
    }

    /// Total page accesses (hits + faults).
    pub fn accesses(&self) -> u64 {
        self.inner.pool_hits + self.inner.seq_faults + self.inner.random_faults
    }

    /// Bytes actually transferred from simulated disk (sequential +
    /// random fault bytes; pool hits transfer nothing).
    pub fn bytes_scanned(&self) -> u64 {
        self.inner.seq_bytes + self.inner.random_bytes
    }

    /// Cache hits over cache probes (`None` when nothing was probed).
    pub fn cache_hit_ratio(&self) -> Option<f64> {
        let hits = self.inner.cache_exact_hits + self.inner.cache_subsumption_hits;
        let probes = hits + self.inner.cache_misses;
        (probes > 0).then(|| hits as f64 / probes as f64)
    }

    /// Subsumption hits over all cache hits (`None` when there were none).
    pub fn cache_subsumption_ratio(&self) -> Option<f64> {
        let hits = self.inner.cache_exact_hits + self.inner.cache_subsumption_hits;
        (hits > 0).then(|| self.inner.cache_subsumption_hits as f64 / hits as f64)
    }

    /// Entries patched over entries touched by appends (`None` when
    /// appends never touched a cached entry).
    pub fn cache_patch_ratio(&self) -> Option<f64> {
        let touched = self.inner.cache_patched + self.inner.cache_patch_drops;
        (touched > 0).then(|| self.inner.cache_patched as f64 / touched as f64)
    }

    /// Renders the snapshot as one JSON object (stable key order).
    pub fn to_json(&self) -> String {
        let m = &self.inner;
        let mut o = Obj::new();
        o.field_u64("windows", m.windows);
        o.field_u64("submissions", m.submissions);
        o.field_u64("queries", m.queries);
        o.field_u64("classes", m.classes);
        o.field_u64("cross_submission_classes", m.cross_submission_classes);
        o.field_raw("window_occupancy", &m.window_occupancy.to_json());
        o.field_u64("queue_depth", m.queue_depth);
        o.field_u64("morsels", m.morsels);
        o.field_u64("steals", m.steals);
        o.field_u64("merge_pairs", m.merge_pairs);
        o.field_u64("sim_nanos", m.sim_nanos);
        o.field_u64("critical_nanos", m.critical_nanos);
        o.field_u64("seq_faults", m.seq_faults);
        o.field_u64("random_faults", m.random_faults);
        o.field_u64("pool_hits", m.pool_hits);
        o.field_u64("seq_bytes", m.seq_bytes);
        o.field_u64("random_bytes", m.random_bytes);
        o.field_u64("decompress_bytes", m.decompress_bytes);
        o.field_u64("bytes_scanned", self.bytes_scanned());
        o.field_u64("faults_checked", m.faults_checked);
        o.field_u64("retries", m.retries);
        o.field_u64("poisoned_pages", m.poisoned_pages);
        o.field_u64("poison_denials", m.poison_denials);
        o.field_u64("cache_exact_hits", m.cache_exact_hits);
        o.field_u64("cache_subsumption_hits", m.cache_subsumption_hits);
        o.field_u64("cache_misses", m.cache_misses);
        o.field_u64("cache_insertions", m.cache_insertions);
        o.field_u64("cache_evictions", m.cache_evictions);
        o.field_u64("cache_invalidations", m.cache_invalidations);
        o.field_u64("cache_patched", m.cache_patched);
        o.field_u64("cache_patch_drops", m.cache_patch_drops);
        o.field_opt_f64("cache_hit_ratio", self.cache_hit_ratio());
        o.field_opt_f64("cache_subsumption_ratio", self.cache_subsumption_ratio());
        o.field_opt_f64("cache_patch_ratio", self.cache_patch_ratio());
        o.field_u64("appends", m.appends);
        o.field_u64("appended_rows", m.appended_rows);
        o.finish()
    }
}

impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let m = &self.inner;
        write!(
            f,
            "{} windows / {} queries / {} classes; sim {}; \
             io {} seq + {} rand faults, {} hits; \
             cache {}+{} hits / {} misses; {} morsels ({} steals); \
             {} appends ({} rows)",
            m.windows,
            m.queries,
            m.classes,
            SimTime::from_nanos(m.sim_nanos),
            m.seq_faults,
            m.random_faults,
            m.pool_hits,
            m.cache_exact_hits,
            m.cache_subsumption_hits,
            m.cache_misses,
            m.morsels,
            m.steals,
            m.appends,
            m.appended_rows,
        )
    }
}

/// Prices a subset of CPU counters under `model` — the profile phases use
/// this to split one report's CPU time into probe vs aggregate work.
pub fn cpu_subset_time(model: &HardwareModel, fill: impl FnOnce(&mut CpuCounters)) -> SimTime {
    let mut cpu = CpuCounters::default();
    fill(&mut cpu);
    model.cpu_time(&cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_power_of_two() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 2, 3, 4, 1 << 20] {
            h.record(v);
        }
        assert_eq!(h.count, 6);
        assert_eq!(h.buckets[0], 2, "0 and 1");
        assert_eq!(h.buckets[1], 2, "2 and 3");
        assert_eq!(h.buckets[2], 1, "4");
        assert_eq!(h.buckets[HISTOGRAM_BUCKETS - 1], 1, "overflow bucket");
        assert_eq!(h.max, 1 << 20);
        assert!(h.mean() > 0.0);
    }

    #[test]
    fn ratios_handle_empty_denominators() {
        let snap = MetricsRegistry::default().snapshot();
        assert_eq!(snap.cache_hit_ratio(), None);
        assert_eq!(snap.cache_subsumption_ratio(), None);
        assert_eq!(snap.cache_patch_ratio(), None);
        let json = snap.to_json();
        assert!(json.contains("\"cache_hit_ratio\":null"), "{json}");
        assert!(json.contains("\"cache_subsumption_ratio\":null"), "{json}");
        assert!(json.contains("\"cache_patch_ratio\":null"), "{json}");
        assert_eq!(snap.bytes_scanned(), 0);
    }

    #[test]
    fn snapshot_json_has_stable_shape() {
        let mut m = MetricsRegistry::default();
        m.observe_window(2, 5, 3, 1, 4);
        m.observe_cache(1, 2, 3, 4, 5, 6, 7, 8);
        m.observe_append(10);
        let json = m.snapshot().to_json();
        assert!(json.starts_with("{\"windows\":1,"));
        assert!(json.contains("\"cache_subsumption_hits\":2"));
        assert!(json.contains("\"appended_rows\":10"));
        assert!(json.ends_with('}'));
    }
}
