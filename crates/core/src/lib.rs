//! # starshare-core
//!
//! The engine facade: one type, [`Engine`], that ties the stack together —
//! storage and buffer pool, bitmap indexes, star-schema catalog, MDX
//! parsing/binding, multiple-query optimization, and shared-operator
//! execution.
//!
//! ```
//! use starshare_core::{Engine, OptimizerKind, PaperCubeSpec};
//!
//! // A small instance of the paper's test database.
//! let mut engine = Engine::paper(PaperCubeSpec::scaled(0.002));
//! let outcome = engine
//!     .mdx("{A''.A1.CHILDREN} on COLUMNS {B''.B1} on ROWS {C''.C1} on PAGES \
//!           CONTEXT ABCD FILTER (D.DD1);")
//!     .unwrap();
//! assert_eq!(outcome.results().len(), 1);
//! println!("{}", outcome.plan.explain(engine.cube()));
//! ```
//!
//! Everything the sub-crates export is re-exported here, so depending on
//! `starshare-core` (or the top-level `starshare` crate) gives the whole
//! public API. Concurrent multi-session serving over this facade lives in
//! `starshare-serve` (re-exported from the top-level `starshare` crate).

pub mod engine;
pub mod error;
pub mod grid;
pub mod window;

pub use engine::{
    AppendOutcome, DegradedExecution, Engine, EngineConfig, ExecStrategy, ExprOutcome, MorselSpec,
    Outcome, PlanExecution, WindowConfig,
};
pub use error::{Error, Overload, Result};
pub use grid::{pivot, render_pivot, PivotGrid, PivotPage};
pub use window::{WindowOutcome, WindowReport, WindowTimer};

pub use starshare_bitmap::{Bitmap, BitmapJoinIndex, CompressedBitmap, IndexFormat, MemberBits};
pub use starshare_exec::{
    execute_class, hash_star_join, index_star_join, reference_eval, result_bytes,
    shared_hybrid_join, shared_index_join, shared_scan_hash_join, AggKernel, CacheHit, CacheStats,
    ClassOutcome, ClassSpec, DimPipeline, ExecContext, ExecError, ExecReport, GroupAcc, KernelTier,
    MetricsRegistry, MetricsSnapshot, Provenance, QueryProfile, QueryResult, ResultCache,
    Telemetry, TelemetryConfig, DEFAULT_MORSEL_PAGES, DENSE_MAX_GROUPS,
};
pub use starshare_mdx::{
    bind, generate_mdx, paper_queries, parse, Axis, AxisSpec, BindError, BoundAxis, BoundMdx,
    MdxExpr, MemberExpr, ParseError, PathSeg,
};
pub use starshare_olap::{
    append_facts, combine_mode, estimate, lattice_nodes, load_cube, materialize, materialize_agg,
    paper_cube, paper_cube_builder, paper_schema, recommend_views, save_cube, AdvisorConfig, AggFn,
    AggState, Catalog, CombineMode, Cube, CubeBuilder, DimId, Dimension, GroupBy, GroupByQuery,
    LevelDef, LevelRef, MeasureKind, MemberPred, OlapError, PaperCubeSpec, Recommendation,
    StarSchema, StoredTable, TableId,
};
pub use starshare_opt::{
    etplg, explain_tree, explain_tree_with_costs, gg, ggi, ggi_with_passes, optimal, plan_window,
    tplo, CostModel, GlobalPlan, JoinMethod, OptError, OptimizerKind, PlanClass, QueryPlan,
    SharingStats, WindowPlan,
};
pub use starshare_storage::{
    AccessKind, BufferPool, CpuCounters, FaultError, FaultInjector, FaultKind, FaultPlan,
    FaultStats, FileId, HardwareModel, HeapFile, IoStats, ScanBatch, SimTime, TupleLayout,
    PAGE_SIZE,
};
