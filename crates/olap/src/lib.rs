//! # starshare-olap
//!
//! The multidimensional data model for the `starshare` engine:
//!
//! * [`schema`] — dimensions with uniform-fan-out hierarchies (the paper's
//!   `A → A' → A''`), member naming and roll-up arithmetic, star schemas;
//! * [`query`] — group-bys over the hierarchy lattice, per-dimension member
//!   predicates, derivability, and the [`GroupByQuery`] unit the optimizer
//!   and executor both consume;
//! * [`catalog`] — stored tables (the base fact table plus materialized
//!   group-bys), their bitmap join indexes, and load-time materialization;
//! * [`groupkey`] — the one group-key codec: packing, unpacking and the
//!   dense / packed / spill tier choice every group-key map uses;
//! * [`estimate`] — the cardinality/selectivity estimates the cost model
//!   feeds on (Cardenas' formula for post-aggregation distincts);
//! * [`datagen`] — deterministic synthetic data, including the paper's
//!   §7.2 test database at any scale.

pub mod advisor;
pub mod catalog;
pub mod datagen;
pub mod error;
pub mod estimate;
pub mod groupkey;
pub mod maintain;
pub mod persist;
pub mod query;
pub mod schema;
pub mod stats;

pub use advisor::{lattice_nodes, recommend_views, AdvisorConfig, Recommendation};
pub use catalog::{
    combine_mode, materialize, materialize_agg, AggState, Catalog, CombineMode, Cube, DimIndex,
    MeasureKind, StoredTable, TableId,
};
pub use datagen::{paper_cube, paper_cube_builder, paper_schema, CubeBuilder, PaperCubeSpec};
pub use error::OlapError;
pub use maintain::append_facts;
pub use persist::{load_cube, save_cube};
pub use query::{AggFn, Distributive, GroupBy, GroupByQuery, LevelRef, MemberPred};
pub use schema::{DimId, Dimension, LevelDef, StarSchema};
pub use stats::{CubeStats, DimHistogram};
