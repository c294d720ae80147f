//! # starshare-opt
//!
//! Multiple-query optimization for dimensional queries: given the set of
//! group-by queries one MDX expression denotes, decide **which materialized
//! group-by each query is computed from and with which star-join method**,
//! so that the shared operators in `starshare-exec` can merge their work.
//!
//! The three algorithms from the paper, in increasing search aggressiveness:
//!
//! * [`tplo`] — **Two Phase Local Optimal** (§4): best local plan per query,
//!   then merge whatever plans happen to use the same base table;
//! * [`etplg`] — **Extended Two Phase Local Greedy** (§5): grows classes of
//!   queries sharing a base table, admitting a query to a class when the
//!   *marginal* cost of computing it from the class's base beats the best
//!   unused materialized view;
//! * [`gg`] — **Global Greedy** (§6): like ETPLG, but may *re-base* an
//!   existing class (re-planning every member) to admit the new query —
//!   the paper's Example 2 move.
//!
//! [`optimal`] exhaustively searches table assignments and join methods —
//! the yardstick the paper compares against ("found by exploring all
//! possible query plans").
//!
//! All four produce a [`GlobalPlan`]: a set of [`PlanClass`]es, each naming
//! a base table and the member queries with their join methods. The
//! [`CostModel`] estimates each class's work with the §5.1 formulas, as a
//! vector of the counters the executor measures, over *estimated*
//! cardinalities (Cardenas); one hardware-model function prices estimates
//! and measurements alike — so estimates track measurements exactly as far
//! as the estimates are right.

pub mod algorithms;
pub mod cost;
pub mod error;
pub mod explain;
pub mod improve;
pub mod plan;
pub mod window;

pub use algorithms::{etplg, gg, optimal, tplo, OptimizerKind};
pub use cost::CostModel;
pub use error::OptError;
pub use explain::{explain_tree, explain_tree_with_costs};
pub use improve::{ggi, ggi_with_passes};
pub use plan::{GlobalPlan, JoinMethod, PlanClass, QueryPlan};
pub use window::{plan_window, SharingStats, WindowPlan};
