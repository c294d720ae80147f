//! Execution context and per-run reports.

use std::time::{Duration, Instant};

use starshare_obs::{json::Obj, Telemetry};
use starshare_storage::{BufferPool, CpuCounters, HardwareModel, IoStats, SimTime};

/// Shared execution state: the buffer pool and the hardware model.
///
/// The pool persists across operator invocations (a later query can hit
/// pages a previous one faulted in) until [`flush`](ExecContext::flush) is
/// called — the experiment harness flushes between tests, as the paper did.
#[derive(Debug)]
pub struct ExecContext {
    /// Buffer pool shared by all tables and indexes.
    pub pool: BufferPool,
    /// Cost constants for the simulated clock.
    pub model: HardwareModel,
    /// Telemetry handle (disabled by default). Observation only: nothing
    /// the executor computes may depend on it.
    pub telemetry: Telemetry,
}

impl ExecContext {
    /// A context with the given model and a pool sized per the model.
    pub fn new(model: HardwareModel) -> Self {
        ExecContext {
            pool: BufferPool::for_model(&model),
            model,
            telemetry: Telemetry::off(),
        }
    }

    /// The paper's 1998 configuration.
    pub fn paper_1998() -> Self {
        Self::new(HardwareModel::paper_1998())
    }

    /// Empties the buffer pool (between experiments).
    pub fn flush(&mut self) {
        self.pool.flush();
    }

    /// Runs `f` with scoped accounting: captures the I/O delta, collects the
    /// CPU counters `f` fills in, and assembles an [`ExecReport`].
    pub fn run<T>(&mut self, f: impl FnOnce(&mut Self, &mut CpuCounters) -> T) -> (T, ExecReport) {
        let io_before = self.pool.stats();
        let mut cpu = CpuCounters::default();
        let wall_start = Instant::now();
        let value = f(self, &mut cpu);
        let wall = wall_start.elapsed();
        let io = self.pool.stats().since(&io_before);
        let sim = io.io_time(&self.model) + self.model.cpu_time(&cpu);
        (
            value,
            ExecReport {
                io,
                cpu,
                sim,
                critical: sim,
                wall,
                busy: wall,
            },
        )
    }
}

/// What one operator run cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecReport {
    /// Page faults and hits during the run.
    pub io: IoStats,
    /// CPU work counted during the run.
    pub cpu: CpuCounters,
    /// Simulated elapsed time (I/O + CPU under the hardware model). This is
    /// *total simulated work*: under parallel execution it still sums every
    /// worker's contribution, so it is comparable across thread counts.
    pub sim: SimTime,
    /// Simulated *critical-path* time: what the clock would read if every
    /// concurrent piece of the run truly overlapped. Sequential runs have
    /// `critical == sim`; a morsel-parallel class reports its coordinator
    /// phase plus the slowest morsel plus the merge tree's critical path
    /// (see `starshare_exec::parallel`).
    /// Deterministic and independent of the host's thread count.
    pub critical: SimTime,
    /// Real *elapsed* wall-clock time of the run on the host machine:
    /// start-to-finish latency as an outside observer would measure it,
    /// regardless of how many workers were busy in between. This is the
    /// number that shrinks when parallelism helps.
    pub wall: Duration,
    /// Real *summed* busy time: every worker's wall time added together
    /// (plus coordinator phases). Sequential runs have `busy == wall`;
    /// parallel runs typically have `busy > wall`. This is total host CPU
    /// work, the number that should stay roughly flat across thread counts.
    pub busy: Duration,
}

impl ExecReport {
    /// Sums another report into this one (for totalling separate runs —
    /// sequential composition, so critical paths add end-to-end).
    pub fn merge(&mut self, other: &ExecReport) {
        self.io.merge(&other.io);
        self.cpu.merge(&other.cpu);
        self.sim += other.sim;
        self.critical += other.critical;
        self.wall += other.wall;
        self.busy += other.busy;
    }

    /// Simulated I/O portion.
    pub fn sim_io(&self, model: &HardwareModel) -> SimTime {
        self.io.io_time(model)
    }

    /// Simulated CPU portion.
    pub fn sim_cpu(&self, model: &HardwareModel) -> SimTime {
        model.cpu_time(&self.cpu)
    }

    /// JSON object with stable key order. Host wall/busy times are
    /// reported in microseconds and are the only non-deterministic
    /// fields; everything else is counter-derived.
    pub fn to_json(&self) -> String {
        let mut o = Obj::new();
        o.field_u64("sim_ns", self.sim.as_nanos());
        o.field_u64("critical_ns", self.critical.as_nanos());
        o.field_u64("seq_faults", self.io.seq_faults);
        o.field_u64("random_faults", self.io.random_faults);
        o.field_u64("hits", self.io.hits);
        o.field_u64("bytes_scanned", self.io.bytes_scanned());
        o.field_u64("decompress_bytes", self.io.decompress_bytes);
        o.field_u64("hash_builds", self.cpu.hash_builds);
        o.field_u64("hash_probes", self.cpu.hash_probes);
        o.field_u64("agg_updates", self.cpu.agg_updates);
        o.field_u64("tuple_copies", self.cpu.tuple_copies);
        o.field_u64("wall_us", self.wall.as_micros() as u64);
        o.field_u64("busy_us", self.busy.as_micros() as u64);
        o.finish()
    }
}

impl std::fmt::Display for ExecReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sim {} (seq {} / rand {} faults, {} hits; {} probes, {} agg)",
            self.sim,
            self.io.seq_faults,
            self.io.random_faults,
            self.io.hits,
            self.cpu.hash_probes,
            self.cpu.agg_updates
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starshare_storage::{AccessKind, FileId};

    #[test]
    fn run_scopes_io_and_cpu() {
        let mut ctx = ExecContext::new(HardwareModel::paper_1998());
        let ((), r1) = ctx.run(|ctx, cpu| {
            ctx.pool.access(FileId(0), 0, AccessKind::Sequential);
            cpu.hash_probes += 10;
        });
        assert_eq!(r1.io.seq_faults, 1);
        assert_eq!(r1.cpu.hash_probes, 10);
        // 1 ms I/O + 10 × 2 µs CPU.
        assert_eq!(r1.sim.as_nanos(), 1_000_000 + 20_000);

        // A second run sees only its own delta (page 0 now hits).
        let ((), r2) = ctx.run(|ctx, _| {
            ctx.pool.access(FileId(0), 0, AccessKind::Sequential);
        });
        assert_eq!(r2.io.seq_faults, 0);
        assert_eq!(r2.io.hits, 1);
        assert_eq!(r2.sim, SimTime::ZERO);
    }

    #[test]
    fn flush_forces_refault() {
        let mut ctx = ExecContext::paper_1998();
        ctx.run(|ctx, _| {
            ctx.pool.access(FileId(0), 0, AccessKind::Sequential);
        });
        ctx.flush();
        let ((), r) = ctx.run(|ctx, _| {
            ctx.pool.access(FileId(0), 0, AccessKind::Sequential);
        });
        assert_eq!(r.io.seq_faults, 1);
    }

    #[test]
    fn report_merge_totals() {
        let mut a = ExecReport::default();
        let b = ExecReport {
            io: IoStats {
                seq_faults: 2,
                random_faults: 3,
                hits: 4,
                ..Default::default()
            },
            cpu: CpuCounters {
                agg_updates: 7,
                ..Default::default()
            },
            sim: SimTime::from_nanos(500),
            critical: SimTime::from_nanos(300),
            wall: Duration::from_micros(1),
            busy: Duration::from_micros(2),
        };
        a.merge(&b);
        a.merge(&b);
        assert_eq!(a.io.seq_faults, 4);
        assert_eq!(a.cpu.agg_updates, 14);
        assert_eq!(a.sim.as_nanos(), 1000);
        assert_eq!(a.critical.as_nanos(), 600, "sequential criticals add");
        assert_eq!(a.wall, Duration::from_micros(2));
        assert_eq!(a.busy, Duration::from_micros(4));
    }

    #[test]
    fn sequential_runs_have_critical_equal_to_sim() {
        let mut ctx = ExecContext::paper_1998();
        let ((), r) = ctx.run(|ctx, cpu| {
            ctx.pool.access(FileId(0), 0, AccessKind::Sequential);
            cpu.hash_probes += 10;
        });
        assert_eq!(r.critical, r.sim);
        assert!(r.sim > SimTime::ZERO);
        assert_eq!(r.busy, r.wall, "sequential runs: busy == wall");
    }

    #[test]
    fn sim_splits_into_io_and_cpu() {
        let model = HardwareModel::paper_1998();
        let r = ExecReport {
            io: IoStats {
                seq_faults: 1000,
                seq_bytes: 1000 * starshare_storage::PAGE_SIZE as u64,
                ..Default::default()
            },
            cpu: CpuCounters {
                hash_probes: 1_000_000,
                ..Default::default()
            },
            sim: SimTime::ZERO,
            critical: SimTime::ZERO,
            wall: Duration::ZERO,
            busy: Duration::ZERO,
        };
        assert_eq!(r.sim_io(&model).as_secs_f64(), 1.0);
        assert_eq!(r.sim_cpu(&model).as_secs_f64(), 2.0);
    }
}
