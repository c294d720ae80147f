//! # starshare-storage
//!
//! The storage substrate for the `starshare` ROLAP engine: paged heap files
//! holding fixed-width tuples, a buffer pool with LRU replacement, and a
//! deterministic hardware time model.
//!
//! ## Why a simulated clock?
//!
//! The paper this project reproduces (Zhao et al., SIGMOD 1998) reports
//! wall-clock seconds on a 200 MHz Pentium Pro with a 16 MB buffer pool and a
//! ~1998 commodity disk. Its central trade-offs — "share one sequential scan
//! among several queries", "trade extra CPU for saved I/O" — only show up
//! when I/O and per-tuple CPU costs have roughly that era's ratio. On modern
//! hardware the whole 40 MB test database lives in cache and the effect
//! vanishes. So every page access goes through [`BufferPool`], which counts
//! sequential and random page faults, and every operator charges its tuple
//! work against a [`HardwareModel`]. The resulting *simulated seconds* are
//! deterministic and hardware-independent; benches report them alongside real
//! wall time.
//!
//! Nothing here is mocked: heap files hold real bytes, scans return real
//! tuples, the buffer pool really evicts. The only simulation is the clock.

pub mod batch;
pub mod buffer;
pub mod fault;
pub mod heap;
pub mod measure;
pub mod model;
pub mod page;
pub mod tuple;

pub use batch::ScanBatch;
pub use buffer::{AccessKind, BufferPool, IoStats};
pub use fault::{FaultError, FaultInjector, FaultKind, FaultPlan, FaultStats};
pub use heap::{BatchCursor, HeapFile, ScanCursor, ZONE_PAGES};
pub use measure::{quarter_units, MAX_FACT_ROWS, MEASURE_LIMIT_UNITS, PARTIAL_LIMIT_UNITS};
pub use model::{CpuCounters, HardwareModel, SimTime, Work};
pub use page::{FileId, PageId, PAGE_SIZE};
pub use tuple::TupleLayout;
