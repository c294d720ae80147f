//! # starshare-serve
//!
//! Concurrent multi-session serving over the [`starshare_core::Engine`]:
//! many sessions submit MDX from their own threads, a coordinator pools
//! whatever is in flight into a bounded **optimization window**, plans the
//! union with one of the paper's multiple-query algorithms, executes the
//! shared plan once, and routes each submission's answers back — so the §3
//! shared operators merge work *across* sessions, not just within one
//! batch.
//!
//! ```
//! use starshare_core::{Engine, PaperCubeSpec};
//! use starshare_serve::Serve;
//!
//! let server = Engine::paper(PaperCubeSpec::scaled(0.002)).serve();
//! let session = server.session("dashboards");
//! let reply = session
//!     .mdx("{A''.A1.CHILDREN} on COLUMNS CONTEXT ABCD;")
//!     .unwrap();
//! assert!(reply.outcomes[0].is_ok());
//! let _engine = server.shutdown(); // hand the engine back
//! ```
//!
//! ### The contract
//!
//! * **Determinism** — windows plan and execute with the engine's own
//!   optimizer and morsel size, and a submission's results are
//!   **bit-identical** to running it alone, regardless of which
//!   window-mates it shared a window with: aggregation is exact on the
//!   measure domain, so no plan or merge order can move a bit.
//! * **Isolation** — one session's injected/real storage fault degrades
//!   only its own expressions; a window-mate sharing the same plan class
//!   still answers (the engine re-runs a shared failed class per owner).
//! * **Freshness** — sessions can [`append`](Session::append) facts while
//!   others query. Appends apply strictly *between* optimization windows,
//!   so every window reads one well-defined cube snapshot (reported as
//!   [`WindowInfo::epoch`], non-decreasing across windows), and
//!   [`Server::shutdown`] drains queued appends before handing the engine
//!   back.
//! * **Admission control** — the submission queue is bounded
//!   ([`WindowConfig::queue_depth`]) and each tenant has an in-flight
//!   budget ([`WindowConfig::tenant_inflight`]); beyond either,
//!   [`submit`](Session::submit) fails fast with
//!   [`Error::Overloaded`](starshare_core::Error::Overloaded) instead of
//!   queueing unboundedly.
//!
//! [`WindowConfig`]: starshare_core::WindowConfig
//! [`WindowConfig::queue_depth`]: starshare_core::WindowConfig::queue_depth
//! [`WindowConfig::tenant_inflight`]: starshare_core::WindowConfig::tenant_inflight

mod server;
mod session;

pub use server::{Serve, Server, ServerStats};
pub use session::{CloseReason, Reply, Session, Ticket, WindowInfo};
