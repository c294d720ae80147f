//! # starshare-exec
//!
//! Physical query evaluation for the `starshare` engine: the two classic
//! star-join methods and the paper's three *shared* operators (§3).
//!
//! | paper operator | entry point |
//! |---|---|
//! | hash-based star join (Fig. 1) | [`hash_star_join`] |
//! | bitmap index-based star join (Fig. 3) | [`index_star_join`] |
//! | shared scan hash-based star join (§3.1, Fig. 2) | [`shared_scan_hash_join`] |
//! | shared index join (§3.2, Fig. 4) | [`shared_index_join`] |
//! | shared scan for hash + index plans (§3.3, Fig. 5) | [`shared_hybrid_join`] |
//!
//! Every operator does the real work (real tuples, real bitmaps, real hash
//! aggregation) through an [`ExecContext`] whose buffer pool and CPU
//! counters feed the simulated clock. Results are exact; times are the
//! deterministic 1998-calibrated simulation plus measured wall time.
//!
//! Every class — these five operators and each class of a global plan —
//! runs on one executor, [`execute_class`] in the [`parallel`] module: it
//! carves the base-table pass into work-stealing morsels (see the
//! [`morsel`] module) and charges their page accesses to the live pool in
//! morsel order, so the simulated clock, the pool's residency and injected
//! faults never depend on the thread count (see its docs for the
//! determinism contract).

pub mod cache;
mod class_kernel;
pub mod context;
pub mod error;
pub mod kernel;
pub mod morsel;
pub mod operators;
pub mod parallel;
pub mod plan_io;
pub mod prune;
pub mod reference;
pub mod result;
pub mod retry;
pub mod rollup;

pub use cache::{result_bytes, CacheHit, CacheStats, ResultCache};
pub use context::{ExecContext, ExecReport};
pub use error::ExecError;
pub use kernel::{AggKernel, GroupAcc, KernelTier, DENSE_MAX_GROUPS};
pub use operators::{
    hash_star_join, index_star_join, shared_hybrid_join, shared_index_join, shared_scan_hash_join,
};
pub use parallel::{execute_class, ClassOutcome, ClassSpec, DEFAULT_MORSEL_PAGES};
pub use reference::reference_eval;
pub use result::QueryResult;
pub use retry::{with_retry, MAX_READ_RETRIES};
pub use rollup::DimPipeline;
pub use starshare_obs::{
    MetricsRegistry, MetricsSnapshot, Provenance, QueryProfile, Telemetry, TelemetryConfig,
};
