//! # starshare-testkit
//!
//! Deterministic differential-testing and fault-injection harness for the
//! `starshare` engine.
//!
//! The pieces, each its own module:
//!
//! * [`session`] — seeded multi-query MDX workload generation: the same
//!   seed always produces the same session, so any failure is replayable
//!   from a `u64`.
//! * [`oracle`] — the differential oracle: runs each session across
//!   {TPLO, ETPLG, GG} × {1, 4 threads}, compares every answer against the
//!   row-at-a-time [`reference_eval`](starshare_core::reference_eval), and
//!   asserts the determinism contract (reruns are bit-identical, counters
//!   and all).
//! * [`faults`] — the graceful-degradation check: runs a session under a
//!   seeded [`FaultPlan`](starshare_core::FaultPlan) at 1 and 4 threads
//!   and asserts every injected fault was either retried to success or
//!   surfaced as a per-query typed error, with all surviving queries
//!   bit-identical to the fault-free twin run and both thread counts
//!   drawing the same faults.
//! * [`shrink`](mod@shrink) — reduces a failing case to a minimal
//!   `(seed, session, fault schedule)` triple.
//! * [`repro`] — the one-file text format a shrunk case round-trips
//!   through.
//! * [`runner`] — replays one case end to end (the core of the `testkit`
//!   binary's `replay` command and the shrinker's predicate).
//! * [`windows`] — the multi-session windowing check: a submission's
//!   results and attributed cost must be bit-identical alone and windowed
//!   with random co-tenants, and one session's injected faults must never
//!   fail a window-mate.
//! * [`cache`] — the result-cache differential check: seeded sessions
//!   replayed on a cached engine (warm exact and subsumption hits, with or
//!   without injected faults, and across an `append_facts` epoch bump)
//!   must stay bit-identical to a cache-less engine.
//! * [`telemetry`] — artifact dumps: replay a minimized case (or one
//!   `windows`-sweep seed) on a telemetry-armed twin engine and write the
//!   drained span trace + metrics snapshot next to the repro.
//! * [`maintenance`] — the streaming-freshness differential: a long-lived
//!   cached engine interleaving MDX with append batches (including
//!   atomically-rejected malformed appends) must answer every round
//!   bit-identically to a fresh engine replaying the append prefix from
//!   scratch; failures shrink as `(spec, session, appends, fault)`
//!   quadruples.
//!
//! The `testkit` binary drives it all:
//!
//! ```text
//! testkit fuzz --count 100 --faults        # sweep seeds, shrink any failure
//! testkit windows --count 50 --faults      # multi-session windowing sweep
//! testkit cache --count 50 --faults        # warm-replay differential sweep
//! testkit maintenance --count 50 --faults  # streaming-freshness sweep
//! testkit replay repro.txt                 # re-run a minimized repro
//! ```

pub mod cache;
pub mod faults;
pub mod maintenance;
pub mod oracle;
pub mod repro;
pub mod runner;
pub mod session;
pub mod shrink;
pub mod storage;
pub mod telemetry;
pub mod windows;

pub use cache::{check_cache_differential, CacheCheck, APPEND_ROWS, CACHE_REPLAYS};
pub use faults::{sweep_faults, FaultHarness, FaultedComparison, FaultedQuery, FAULT_THREADS};
pub use maintenance::{
    check_maintenance_differential, maintenance_case, MaintenanceCheck, MAINT_APPEND_ROWS,
    MAINT_ROUNDS,
};
pub use oracle::{harness_spec, Mismatch, Oracle, OracleStats, ORACLE_OPTIMIZERS, ORACLE_THREADS};
pub use repro::{format_case, parse_case};
pub use runner::run_case;
pub use session::{generate_session, Session, CUBE_NAME, MAX_EXPRS, MIN_EXPRS};
pub use shrink::{shrink, Case};
pub use storage::StorageProfile;
pub use telemetry::{dump_case_telemetry, dump_window_telemetry, TelemetryArtifacts};
pub use windows::{
    check_fault_isolation, check_windowed_vs_solo, WindowCheck, MAX_SUBMISSIONS, MIN_SUBMISSIONS,
};
