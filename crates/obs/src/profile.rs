//! Per-query profiles: `explain_last()`-style attribution of simulated
//! time to execution phases, plus cache provenance.
//!
//! A profile answers, for one submitted query, the two questions the
//! paper's evaluation keeps asking: *where did the simulated time go*
//! (scan vs probe vs aggregate vs merge vs rollup) and *how was the
//! answer obtained* (executed directly, shared inside a window, served
//! from the cache exactly, rolled up from a coarser cached result, or
//! served from a delta-patched cache entry).
//!
//! Phase attribution is derived from the same deterministic counters the
//! cost model prices (`IoStats`, `CpuCounters`), so profiles are
//! bit-identical across runs and thread counts on the partitioned
//! executor path:
//!
//! * **scan** — sequential bytes faulted in, priced at the sequential
//!   byte rate, plus decompression of sealed pages;
//! * **probe** — random page faults plus the probe-side CPU counters
//!   (hash probes, bitmap tests/words, index lookups, predicate evals);
//! * **aggregate** — build/update-side CPU counters (hash builds,
//!   aggregate updates, tuple copies);
//! * **merge** — CPU charged by the executor to fold per-morsel partial
//!   results (zero for a one-morsel class);
//! * **rollup** — simulated time spent rolling a cached coarser result
//!   up to the requested granularity (subsumption hits only).

use starshare_storage::{CpuCounters, HardwareModel, IoStats, SimTime};

use crate::json::Obj;

/// How a query's answer was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// Executed on its own (no sharing, no cache involvement).
    Direct,
    /// Executed as part of a multi-query window, sharing scans with
    /// other queries in its class.
    WindowShared,
    /// Served verbatim from the result cache.
    ExactHit,
    /// Served by rolling up a coarser cached result.
    SubsumptionRollup,
    /// Served from a cache entry that streaming appends had delta-patched.
    DeltaPatched,
}

impl Provenance {
    /// Stable lowercase label (used in JSON and traces).
    pub fn as_str(self) -> &'static str {
        match self {
            Provenance::Direct => "direct",
            Provenance::WindowShared => "window-shared",
            Provenance::ExactHit => "exact-hit",
            Provenance::SubsumptionRollup => "subsumption-rollup",
            Provenance::DeltaPatched => "delta-patched",
        }
    }
}

impl std::fmt::Display for Provenance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Simulated-time attribution for one submitted query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryProfile {
    /// How the answer was obtained.
    pub provenance: Provenance,
    /// Sequential scan I/O.
    pub scan: SimTime,
    /// Random-probe I/O plus probe-side CPU.
    pub probe: SimTime,
    /// Build/aggregate-side CPU.
    pub aggregate: SimTime,
    /// Parallel-fold CPU (zero for a one-morsel class).
    pub merge: SimTime,
    /// Subsumption rollup time (zero unless served by rollup).
    pub rollup: SimTime,
    /// Bytes transferred from simulated disk (sequential + random faults;
    /// compressed pages transfer their stored size, so this falls as
    /// compression and zone-map pruning bite).
    pub bytes_scanned: u64,
}

impl QueryProfile {
    /// A profile for a cache answer that did no engine work beyond
    /// `rollup` (zero for exact and delta-patched hits).
    pub fn cached(provenance: Provenance, rollup: SimTime) -> Self {
        QueryProfile {
            provenance,
            scan: SimTime::ZERO,
            probe: SimTime::ZERO,
            aggregate: SimTime::ZERO,
            merge: SimTime::ZERO,
            rollup,
            bytes_scanned: 0,
        }
    }

    /// Derives phase attribution from executed counters.
    ///
    /// `io`/`cpu` are the counters attributed to this query's class,
    /// `merge_cpu` is the executor's fold charge for that class, and
    /// `provenance` distinguishes a solo run from a window-shared one.
    pub fn executed(
        provenance: Provenance,
        model: &HardwareModel,
        io: &IoStats,
        cpu: &CpuCounters,
        merge_cpu: &CpuCounters,
    ) -> Self {
        let probe_cpu = crate::metrics::cpu_subset_time(model, |c| {
            c.hash_probes = cpu.hash_probes;
            c.bitmap_tests = cpu.bitmap_tests;
            c.bitmap_words = cpu.bitmap_words;
            c.index_lookups = cpu.index_lookups;
            c.predicate_evals = cpu.predicate_evals;
        });
        let agg_cpu = crate::metrics::cpu_subset_time(model, |c| {
            c.hash_builds = cpu.hash_builds;
            c.agg_updates = cpu.agg_updates;
            c.tuple_copies = cpu.tuple_copies;
        });
        QueryProfile {
            provenance,
            scan: model.seq_read_bytes(io.seq_bytes) + model.decompress(io.decompress_bytes),
            probe: model.random_read(io.random_faults) + probe_cpu,
            aggregate: agg_cpu,
            merge: model.cpu_time(merge_cpu),
            rollup: SimTime::ZERO,
            bytes_scanned: io.bytes_scanned(),
        }
    }

    /// Sum of all phases.
    pub fn total(&self) -> SimTime {
        self.scan + self.probe + self.aggregate + self.merge + self.rollup
    }

    /// JSON object with stable key order.
    pub fn to_json(&self) -> String {
        let mut o = Obj::new();
        o.field_str("provenance", self.provenance.as_str());
        o.field_u64("scan_ns", self.scan.as_nanos());
        o.field_u64("probe_ns", self.probe.as_nanos());
        o.field_u64("aggregate_ns", self.aggregate.as_nanos());
        o.field_u64("merge_ns", self.merge.as_nanos());
        o.field_u64("rollup_ns", self.rollup.as_nanos());
        o.field_u64("bytes_scanned", self.bytes_scanned);
        o.field_u64("total_ns", self.total().as_nanos());
        o.finish()
    }
}

impl std::fmt::Display for QueryProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: scan {} probe {} agg {} merge {} rollup {} (total {})",
            self.provenance,
            self.scan,
            self.probe,
            self.aggregate,
            self.merge,
            self.rollup,
            self.total()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn executed_profile_partitions_the_report() {
        let model = HardwareModel::default();
        let io = IoStats {
            seq_faults: 10,
            random_faults: 3,
            hits: 50,
            seq_bytes: 10 * starshare_storage::PAGE_SIZE as u64,
            random_bytes: 3 * starshare_storage::PAGE_SIZE as u64,
            decompress_bytes: 0,
        };
        let cpu = CpuCounters {
            hash_builds: 5,
            hash_probes: 7,
            agg_updates: 11,
            tuple_copies: 13,
            predicate_evals: 17,
            bitmap_words: 19,
            bitmap_tests: 23,
            index_lookups: 29,
        };
        let merge = CpuCounters {
            tuple_copies: 4,
            ..CpuCounters::default()
        };
        let p = QueryProfile::executed(Provenance::WindowShared, &model, &io, &cpu, &merge);
        // Phases partition io_time + cpu_time + merge cpu exactly.
        let expect = io.io_time(&model) + model.cpu_time(&cpu) + model.cpu_time(&merge);
        assert_eq!(p.total(), expect);
        assert_eq!(p.scan, model.seq_read(10));
        assert_eq!(p.rollup, SimTime::ZERO);
        assert_eq!(p.bytes_scanned, 13 * starshare_storage::PAGE_SIZE as u64);
    }

    #[test]
    fn cached_profiles_only_carry_rollup() {
        let p = QueryProfile::cached(Provenance::ExactHit, SimTime::ZERO);
        assert_eq!(p.total(), SimTime::ZERO);
        let r = QueryProfile::cached(Provenance::SubsumptionRollup, SimTime::from_nanos(42));
        assert_eq!(r.total(), SimTime::from_nanos(42));
        assert_eq!(r.rollup, SimTime::from_nanos(42));
    }

    #[test]
    fn json_has_stable_shape() {
        let p = QueryProfile::cached(Provenance::DeltaPatched, SimTime::ZERO);
        let j = p.to_json();
        assert!(j.starts_with(r#"{"provenance":"delta-patched","scan_ns":0"#));
        assert!(j.ends_with(r#""total_ns":0}"#));
    }
}
