//! The [`Engine`]: end-to-end MDX evaluation.

use std::time::Duration;

use starshare_bitmap::IndexFormat;
use starshare_exec::{
    execute_class, CacheHit, CacheStats, ClassSpec, ExecContext, ExecError, ExecReport,
    ExecStrategy, MetricsSnapshot, MorselSpec, Provenance, QueryProfile, QueryResult, ResultCache,
    Telemetry, TelemetryConfig, WindowReport, WindowTimer, DEFAULT_MORSEL_PAGES,
};
use starshare_mdx::{bind, parse, BoundMdx};
use starshare_olap::{paper_cube, Cube, GroupByQuery, PaperCubeSpec};
use starshare_opt::{
    plan_window, CostModel, GlobalPlan, JoinMethod, OptimizerKind, PlanClass, QueryPlan,
    SharingStats,
};
use starshare_storage::{CpuCounters, FaultPlan, FaultStats, HardwareModel, SimTime};

use crate::error::{Error, Result};

/// Per-field saturating difference of two CPU counter sets — used to
/// split a class's fold (merge) charge out of its total CPU when
/// building per-query profiles.
fn cpu_minus(a: &CpuCounters, b: &CpuCounters) -> CpuCounters {
    CpuCounters {
        hash_builds: a.hash_builds.saturating_sub(b.hash_builds),
        hash_probes: a.hash_probes.saturating_sub(b.hash_probes),
        agg_updates: a.agg_updates.saturating_sub(b.agg_updates),
        tuple_copies: a.tuple_copies.saturating_sub(b.tuple_copies),
        predicate_evals: a.predicate_evals.saturating_sub(b.predicate_evals),
        bitmap_words: a.bitmap_words.saturating_sub(b.bitmap_words),
        bitmap_tests: a.bitmap_tests.saturating_sub(b.bitmap_tests),
        index_lookups: a.index_lookups.saturating_sub(b.index_lookups),
    }
}

/// The result of executing one [`GlobalPlan`].
#[derive(Debug)]
pub struct PlanExecution {
    /// One result per query, in the plan's assignment order.
    pub results: Vec<QueryResult>,
    /// One report per class, in class order.
    pub per_class: Vec<ExecReport>,
    /// Totals across classes.
    pub total: ExecReport,
}

/// One expression's share of an MDX round trip: its binding plus a
/// per-query outcome for each bound query, in binding order.
#[derive(Debug)]
pub struct ExprOutcome {
    /// What the expression bound to.
    pub bound: BoundMdx,
    /// One outcome per bound query: the result, or the typed error that
    /// took that query (and only that query) down.
    pub results: Vec<Result<QueryResult>>,
}

impl ExprOutcome {
    /// True when every query of this expression answered.
    pub fn all_ok(&self) -> bool {
        self.results.iter().all(Result::is_ok)
    }

    /// The `i`-th query's result (binding order).
    ///
    /// # Panics
    /// If that query failed — match on [`results`](ExprOutcome::results)
    /// for error handling.
    pub fn result(&self, i: usize) -> &QueryResult {
        self.results[i]
            .as_ref()
            .expect("query failed; match on `results` for error handling")
    }

    /// The successful results, in binding order.
    pub fn ok_results(&self) -> impl Iterator<Item = &QueryResult> {
        self.results.iter().filter_map(|r| r.as_ref().ok())
    }
}

/// The outcome of an MDX round trip — one expression
/// ([`Engine::mdx`]) or a whole batch ([`Engine::mdx_many`]); both paths
/// share this one type.
///
/// Failure is *per query*, not first-error-wins: a parse/bind error fails
/// only its expression's slot, and an execution fault fails only the
/// queries it actually touched — every other query in the batch still
/// carries its result. Only batch-level failures (the optimizer rejecting
/// the pooled query set) surface as `Err` from the call itself.
/// [`Engine::mdx`] additionally promotes any per-query error to a
/// call-level `Err` (a singleton batch has nothing to degrade to), so an
/// `Outcome` it returns is all-`Ok` by construction.
#[derive(Debug)]
pub struct Outcome {
    /// The single global plan covering every successfully bound
    /// expression's queries.
    pub plan: GlobalPlan,
    /// One outcome per input expression, in input order: `Err` when the
    /// expression failed to parse or bind, otherwise its per-query
    /// results.
    pub outcomes: Vec<Result<ExprOutcome>>,
    /// Execution totals (the classes that ran).
    pub report: ExecReport,
    /// One profile per bound query, flattened across expressions in input
    /// order (binding order within each): where the answer came from and
    /// which phases the simulated time went to. Empty when telemetry is
    /// off ([`EngineConfig::telemetry`]).
    pub profiles: Vec<QueryProfile>,
}

impl Outcome {
    /// True when every expression bound and every query answered.
    pub fn all_ok(&self) -> bool {
        self.outcomes
            .iter()
            .all(|o| o.as_ref().is_ok_and(ExprOutcome::all_ok))
    }

    /// Total failed queries plus failed expressions.
    pub fn n_failed(&self) -> usize {
        self.outcomes
            .iter()
            .map(|o| match o {
                Ok(oc) => oc.results.iter().filter(|r| r.is_err()).count(),
                Err(_) => 1,
            })
            .sum()
    }

    /// The `i`-th expression's outcome (input order).
    ///
    /// # Panics
    /// If that expression failed to parse or bind — match on
    /// [`outcomes`](Outcome::outcomes) for error handling. Always safe on
    /// an outcome returned by [`Engine::mdx`].
    pub fn expr(&self, i: usize) -> &ExprOutcome {
        self.outcomes[i]
            .as_ref()
            .expect("expression failed; match on `outcomes` for error handling")
    }

    /// Every successful result, flattened across expressions in input
    /// order (binding order within each). After a strict [`Engine::mdx`]
    /// call this is *all* results of the expression.
    pub fn results(&self) -> Vec<&QueryResult> {
        self.outcomes
            .iter()
            .flatten()
            .flat_map(ExprOutcome::ok_results)
            .collect()
    }

    /// The `i`-th successful result (see [`results`](Outcome::results)).
    ///
    /// # Panics
    /// If there are fewer than `i + 1` successful results.
    pub fn result(&self, i: usize) -> &QueryResult {
        self.results()
            .get(i)
            .copied()
            .expect("no such result; match on `outcomes` for error handling")
    }
}

/// The outcome of one optimization **window** ([`Engine::mdx_window`]): a
/// batch of *submissions* (each its own list of MDX expressions, e.g. one
/// per serving session) planned as a single pooled query set, executed
/// once, and routed back per submission.
#[derive(Debug)]
pub struct WindowOutcome {
    /// The shared plan over the union of every submission's queries.
    pub plan: GlobalPlan,
    /// Per submission, in input order: one outcome per expression (the
    /// same shape as [`Outcome::outcomes`]).
    pub submissions: Vec<Vec<Result<ExprOutcome>>>,
    /// Per submission: the simulated cost its query set would have cost
    /// *alone* under the same optimizer — the window's cost-attribution
    /// figure, independent of window-mates by construction. With the
    /// result cache on, this is the submission's cache charges (zero for
    /// exact hits, rollup CPU for subsumption hits) plus the solo cost of
    /// its misses; zero for submissions with no bound queries.
    pub attributed: Vec<SimTime>,
    /// How much cross-submission sharing the plan achieved.
    pub sharing: SharingStats,
    /// What the result cache did for this window: exact and subsumption
    /// hits, misses, insertions, evictions (all zero when the cache is
    /// disabled).
    pub cache: CacheStats,
    /// Window-level accounting (plan wall, execution totals, envelope).
    pub report: WindowReport,
    /// Per submission, one profile per bound query (binding order): cache
    /// provenance plus phase attribution of the simulated time. Empty
    /// when telemetry is off ([`EngineConfig::telemetry`]).
    pub profiles: Vec<Vec<QueryProfile>>,
}

impl WindowOutcome {
    /// The `i`-th submission's expression outcomes.
    pub fn submission(&self, i: usize) -> &[Result<ExprOutcome>] {
        &self.submissions[i]
    }

    /// True when every expression of every submission fully answered.
    pub fn all_ok(&self) -> bool {
        self.submissions
            .iter()
            .flatten()
            .all(|o| o.as_ref().is_ok_and(ExprOutcome::all_ok))
    }
}

/// What one [`Engine::append_facts`] call did: the rows landed, the data
/// epoch the cube moved to, and what the result cache did to stay fresh —
/// either delta-patching its entries ([`EngineConfig::cache_patching`], the
/// default) or dropping them wholesale.
#[derive(Debug)]
pub struct AppendOutcome {
    /// Fact rows appended (all views, indexes, and stats maintained).
    pub appended: u64,
    /// The cube's data epoch after the append.
    pub epoch: u64,
    /// What the cache did for this append: `patched`/`patch_drops` under
    /// delta patching, `invalidations` under epoch-drop (all zero when the
    /// cache is disabled).
    pub cache: CacheStats,
    /// The patch work, charged as pure CPU on the simulated clock (empty
    /// under epoch-drop — dropping is free; recomputation pays later).
    pub report: ExecReport,
}

/// The result of executing one [`GlobalPlan`] with per-query degradation
/// ([`Engine::execute_plan_degraded`]): a failure takes down exactly the
/// queries of the class it struck, never the whole plan.
#[derive(Debug)]
pub struct DegradedExecution {
    /// One outcome per query, in the plan's assignment order.
    pub results: Vec<Result<QueryResult>>,
    /// One report per class, in class order (a failed class reports only
    /// the defaults — its partial work is not separable).
    pub per_class: Vec<ExecReport>,
    /// One merge-phase CPU counter set per class, in class order — the
    /// executor's fold charge, already included in the class's `per_class`
    /// report but broken out so per-query profiles can attribute it to the
    /// merge phase (all-zero for one-morsel and failed classes).
    pub merge_cpu: Vec<CpuCounters>,
    /// Totals across the classes that completed.
    pub total: ExecReport,
}

/// How a serving layer batches submissions into optimization windows and
/// guards its own capacity (`starshare-serve`; carried by
/// [`EngineConfig::window`]).
///
/// A window *closes* — freezing the submissions that will be planned and
/// executed together — as soon as any of the three close conditions
/// trips: expression count ([`max_exprs`](WindowConfig::max_exprs)), MDX
/// byte budget ([`max_bytes`](WindowConfig::max_bytes)), or deadline
/// since the first submission ([`max_wait`](WindowConfig::max_wait)).
#[derive(Debug, Clone)]
pub struct WindowConfig {
    /// Close the window once it holds this many expressions (≥ 1).
    pub max_exprs: usize,
    /// Close the window once its pooled MDX text reaches this many bytes.
    pub max_bytes: usize,
    /// Close the window this long after its first submission arrived,
    /// even if count/byte budgets have room — the latency bound a
    /// submission pays for sharing.
    pub max_wait: Duration,
    /// Capacity of the server's submission queue; a submission arriving
    /// when it is full is rejected with
    /// [`Overload::Queue`](crate::Overload::Queue).
    pub queue_depth: usize,
    /// Per-tenant in-flight submission budget; beyond it a tenant's
    /// submissions are rejected with
    /// [`Overload::Tenant`](crate::Overload::Tenant).
    pub tenant_inflight: usize,
    /// Not read by the engine: windows plan with
    /// [`EngineConfig::optimizer`]. Defaults to that field's default.
    pub optimizer: OptimizerKind,
    /// Not read by the engine: windows execute with
    /// [`EngineConfig::morsel_pages`]. Defaults to that field's default.
    pub morsel_pages: u32,
}

impl Default for WindowConfig {
    fn default() -> Self {
        WindowConfig {
            max_exprs: 16,
            max_bytes: 64 * 1024,
            max_wait: Duration::from_millis(2),
            queue_depth: 256,
            tenant_inflight: 32,
            optimizer: OptimizerKind::Gg,
            morsel_pages: DEFAULT_MORSEL_PAGES,
        }
    }
}

impl WindowConfig {
    /// Sets the expression-count close condition (clamped to ≥ 1).
    pub fn max_exprs(mut self, n: usize) -> Self {
        self.max_exprs = n.max(1);
        self
    }

    /// Sets the pooled-byte close condition.
    pub fn max_bytes(mut self, n: usize) -> Self {
        self.max_bytes = n;
        self
    }

    /// Sets the deadline close condition.
    pub fn max_wait(mut self, d: Duration) -> Self {
        self.max_wait = d;
        self
    }

    /// Sets the submission-queue capacity (clamped to ≥ 1).
    pub fn queue_depth(mut self, n: usize) -> Self {
        self.queue_depth = n.max(1);
        self
    }

    /// Sets the per-tenant in-flight budget (clamped to ≥ 1).
    pub fn tenant_inflight(mut self, n: usize) -> Self {
        self.tenant_inflight = n.max(1);
        self
    }
}

/// Everything configurable about an [`Engine`], as one plain, clonable
/// value — optimizer, result cache, worker threads, morsel size, and the
/// serving-window knobs ([`WindowConfig`]).
///
/// This replaces the old `Engine::new(..)` vs `EngineBuilder` split: a
/// config is built once (and can be cloned, stored, and shared — unlike a
/// builder holding the cube), then applied to a cube with
/// [`build`](EngineConfig::build) or [`build_paper`](EngineConfig::build_paper).
///
/// ```
/// use starshare_core::{EngineConfig, OptimizerKind, PaperCubeSpec};
///
/// let engine = EngineConfig::paper()
///     .optimizer(OptimizerKind::Tplo)
///     .result_cache(true)
///     .threads(4)
///     .build_paper(PaperCubeSpec::scaled(0.002));
/// assert_eq!(engine.threads(), 4);
/// assert_eq!(engine.optimizer(), OptimizerKind::Tplo);
/// ```
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Optimizer used by [`Engine::mdx`]/[`Engine::mdx_many`].
    pub optimizer: OptimizerKind,
    /// Whether the subsumption-aware result cache
    /// ([`starshare_exec::cache`]) answers repeated queries from memory:
    /// an identical query is free, and a coarser query covered by a cached
    /// finer result is answered by rolling that result up (charged as CPU
    /// over the cached rows on the simulated clock). Invalidated by the
    /// cube epoch [`Engine::append_facts`] bumps. Off by default — the
    /// experiment harness must re-execute.
    pub result_cache: bool,
    /// Byte budget for the result cache's payloads
    /// ([`cache_bytes`](EngineConfig::cache_bytes)); beyond it the entry
    /// with the lowest saved-sim-time-per-byte is evicted.
    pub cache_bytes: usize,
    /// Whether [`Engine::append_facts`] carries cached results across the
    /// epoch bump by **delta patching** them with the appended rows
    /// (`true`, the default) instead of dropping every entry and paying
    /// full recomputation on the next probe (`false` — the epoch-drop
    /// baseline the streaming bench compares against). Patching is sound
    /// for SUM/COUNT always and MIN/MAX under the engine's insert-only
    /// append model; AVG entries are dropped either way.
    pub cache_patching: bool,
    /// Worker threads for plan execution: a pure wall-clock resource
    /// knob. Every class runs on the one morsel executor at any thread
    /// count, so results, simulated times, I/O counters, the pool
    /// residency a class leaves for the next, and injected faults are
    /// identical at any value; only wall time changes.
    pub threads: usize,
    /// How the executor carves a class into morsels (set through
    /// [`morsel_pages`](EngineConfig::morsel_pages)).
    pub strategy: ExecStrategy,
    /// Serving-window behavior (used by `starshare-serve`).
    pub window: WindowConfig,
    /// Deterministic telemetry (structured tracing, the unified metrics
    /// registry, and per-query profiles). Off by default: every hook is
    /// an inlined no-op, and results, `IoStats`, and the simulated clock
    /// are bit-identical whether telemetry is armed or not.
    pub telemetry: TelemetryConfig,
    /// Storage format for every bitmap join index
    /// ([`build`](EngineConfig::build) relays out existing indexes whose
    /// format differs). `Compressed` stores roaring/RLE containers and
    /// charges index I/O by compressed page count; results are
    /// bit-identical either way. Default: `Plain` — the escape hatch back
    /// to uncompressed indexes.
    pub index_format: IndexFormat,
    /// Whether heap pages are stored compressed (bit-packed keys,
    /// quantized measures, per-zone min/max maps enabling partition
    /// pruning). Applied to every table heap at
    /// [`build`](EngineConfig::build) time. Results are bit-identical;
    /// scans charge fewer I/O bytes plus a decompression CPU term.
    /// Default: `false` — the uncompressed escape hatch.
    pub compression: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self::new()
    }
}

impl EngineConfig {
    /// The general-purpose default: GG optimizer, no result cache, and as
    /// many worker threads as the host offers — results and simulated
    /// times are identical at any thread count (the determinism contract
    /// in `starshare_exec::parallel`), so running wide is free. Use
    /// [`paper`](EngineConfig::paper) when reproducing the paper's
    /// uniprocessor experiments.
    pub fn new() -> Self {
        EngineConfig {
            optimizer: OptimizerKind::Gg,
            result_cache: false,
            cache_bytes: Self::DEFAULT_CACHE_BYTES,
            cache_patching: true,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            strategy: ExecStrategy::Morsel(MorselSpec::default()),
            window: WindowConfig::default(),
            telemetry: TelemetryConfig::default(),
            index_format: IndexFormat::Plain,
            compression: false,
        }
    }

    /// Default result-cache byte budget (1 MiB).
    pub const DEFAULT_CACHE_BYTES: usize = 1 << 20;

    /// The paper-experiment default: like [`new`](EngineConfig::new) but
    /// on one worker thread, as the paper's 1998 uniprocessor ran. The
    /// thread count moves only wall time — later queries in a session
    /// reuse the shared pool's residency at any thread count, the behavior
    /// the paper's experiments measure.
    pub fn paper() -> Self {
        Self::new().threads(1)
    }

    /// Selects the optimizer used by [`Engine::mdx`] (default: GG).
    pub fn optimizer(mut self, kind: OptimizerKind) -> Self {
        self.optimizer = kind;
        self
    }

    /// Enables (or disables) the subsumption-aware result cache.
    pub fn result_cache(mut self, on: bool) -> Self {
        self.result_cache = on;
        self
    }

    /// Sets the result cache's byte budget (see
    /// [`cache_bytes`](EngineConfig::cache_bytes); implies nothing about
    /// [`result_cache`](EngineConfig::result_cache), which still switches
    /// the cache on).
    pub fn cache_bytes(mut self, bytes: usize) -> Self {
        self.cache_bytes = bytes;
        self
    }

    /// Selects how [`Engine::append_facts`] keeps the result cache fresh:
    /// delta patching (`true`, default) or wholesale epoch-drop (`false`).
    /// See [`cache_patching`](EngineConfig::cache_patching).
    pub fn cache_patching(mut self, on: bool) -> Self {
        self.cache_patching = on;
        self
    }

    /// Sets the worker-thread count for plan execution (clamped to ≥ 1).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// Sets the pages-per-morsel size for plan execution (clamped to
    /// ≥ 1) by selecting a morsel strategy of that granularity. Smaller
    /// morsels balance load better at the price of more per-morsel
    /// overhead; `u32::MAX` degenerates to one morsel per class. Results
    /// and I/O counters are invariant (morsels are page-aligned).
    pub fn morsel_pages(mut self, pages: u32) -> Self {
        self.strategy = ExecStrategy::Morsel(MorselSpec::with_pages(pages));
        self
    }

    /// Sets the serving-window knobs.
    pub fn window(mut self, window: WindowConfig) -> Self {
        self.window = window;
        self
    }

    /// Arms (or disarms) the deterministic telemetry layer — structured
    /// tracing, the unified metrics registry, and per-query profiles
    /// (see [`Engine::telemetry`], [`Engine::metrics`],
    /// [`Engine::drain_trace`], [`Engine::explain_last`]). Off by
    /// default; when off every hook is a no-op and results, `IoStats`,
    /// and the simulated clock are bit-identical to a telemetry-free
    /// engine.
    pub fn telemetry(mut self, cfg: TelemetryConfig) -> Self {
        self.telemetry = cfg;
        self
    }

    /// Selects the storage format for every bitmap join index (default:
    /// [`IndexFormat::Plain`]). See
    /// [`index_format`](EngineConfig::index_format).
    pub fn index_format(mut self, format: IndexFormat) -> Self {
        self.index_format = format;
        self
    }

    /// Turns compressed heap storage on or off (default: off). See
    /// [`compression`](EngineConfig::compression).
    pub fn compression(mut self, on: bool) -> Self {
        self.compression = on;
        self
    }

    /// Builds an engine over an existing cube and hardware model.
    pub fn build(self, mut cube: Cube, model: HardwareModel) -> Engine {
        if self.compression || self.index_format != IndexFormat::Plain {
            let schema = cube.schema.clone();
            let ids: Vec<_> = cube.catalog.iter().map(|(id, _)| id).collect();
            for id in ids {
                if self.compression {
                    cube.catalog.table_mut(id).heap_mut().compress();
                }
                // Relay out only the indexes whose stored format differs —
                // rebuilding from the heap is deterministic, so a matching
                // format is already byte-identical.
                let relayouts: Vec<_> = (0..schema.n_dims())
                    .filter_map(|d| {
                        let ix = cube.catalog.table(id).index(d)?;
                        (ix.index.format() != self.index_format)
                            .then(|| (d, ix.level, ix.index.file_id()))
                    })
                    .collect();
                for (d, level, file) in relayouts {
                    cube.catalog.table_mut(id).build_index_with_format(
                        &schema,
                        d,
                        level,
                        self.index_format,
                        file,
                    );
                }
            }
        }
        self.finish(cube, model)
    }

    /// [`build`](EngineConfig::build) minus the format passes (shared tail).
    fn finish(self, cube: Cube, model: HardwareModel) -> Engine {
        let mut cache = self
            .result_cache
            .then(|| ResultCache::new(self.cache_bytes));
        if let Some(c) = &mut cache {
            c.advance_epoch(cube.epoch);
        }
        let mut ctx = ExecContext::new(model);
        ctx.telemetry = Telemetry::new(self.telemetry);
        Engine {
            cube,
            ctx,
            cache,
            config: self,
        }
    }

    /// Builds an engine over the paper's test database (§7.2) under the
    /// 1998 hardware model.
    pub fn build_paper(self, spec: PaperCubeSpec) -> Engine {
        self.build(paper_cube(spec), HardwareModel::paper_1998())
    }
}

/// An OLAP engine over one cube.
///
/// Holds the buffer pool across calls (repeated queries benefit from cached
/// pages, at any thread count) — call [`flush`](Engine::flush) to model a
/// cold start, as the paper does before each test.
#[derive(Debug)]
pub struct Engine {
    cube: Cube,
    ctx: ExecContext,
    /// Opt-in subsumption-aware result cache (see
    /// [`EngineConfig::result_cache`] / [`EngineConfig::cache_bytes`]).
    cache: Option<ResultCache>,
    config: EngineConfig,
}

impl Engine {
    /// An engine over an existing cube with the given hardware model and
    /// the default [`EngineConfig`].
    pub fn new(cube: Cube, model: HardwareModel) -> Self {
        EngineConfig::new().build(cube, model)
    }

    /// An engine over the paper's test database (§7.2) under the 1998
    /// hardware model and the paper [`EngineConfig`] (one thread).
    pub fn paper(spec: PaperCubeSpec) -> Self {
        EngineConfig::paper().build_paper(spec)
    }

    /// An engine over an existing cube with an explicit configuration
    /// (equivalent to [`EngineConfig::build`]).
    pub fn with_config(cube: Cube, model: HardwareModel, config: EngineConfig) -> Self {
        config.build(cube, model)
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Switches the optimizer on a live engine (e.g. a CLI session).
    pub fn set_optimizer(&mut self, kind: OptimizerKind) {
        self.config.optimizer = kind;
    }

    /// The optimizer [`mdx`](Engine::mdx) currently uses.
    pub fn optimizer(&self) -> OptimizerKind {
        self.config.optimizer
    }

    /// Worker threads used for plan execution.
    pub fn threads(&self) -> usize {
        self.config.threads
    }

    /// Sets the worker-thread count on a live engine (clamped to ≥ 1).
    pub fn set_threads(&mut self, n: usize) {
        self.config.threads = n.max(1);
    }

    /// Pages per morsel used by plan execution.
    pub fn morsel_pages(&self) -> u32 {
        let ExecStrategy::Morsel(spec) = self.config.strategy;
        spec.pages
    }

    /// Sets the pages-per-morsel size on a live engine (clamped to ≥ 1).
    pub fn set_morsel_pages(&mut self, pages: u32) {
        self.config.strategy = ExecStrategy::Morsel(MorselSpec::with_pages(pages));
    }

    /// Cached results currently held (0 when the cache is disabled).
    pub fn cached_results(&self) -> usize {
        self.cache.as_ref().map_or(0, ResultCache::len)
    }

    /// Result-payload bytes the cache currently holds (0 when disabled);
    /// never exceeds [`EngineConfig::cache_bytes`].
    pub fn cache_bytes(&self) -> usize {
        self.cache.as_ref().map_or(0, ResultCache::bytes)
    }

    /// Lifetime result-cache counters (all zero when disabled).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache
            .as_ref()
            .map_or_else(CacheStats::default, |c| c.stats())
    }

    /// The engine's telemetry handle (disabled unless
    /// [`EngineConfig::telemetry`] armed it — then every hook is a
    /// no-op). Clones share state with the engine.
    pub fn telemetry(&self) -> &Telemetry {
        &self.ctx.telemetry
    }

    /// A point-in-time snapshot of the unified metrics registry (`None`
    /// when telemetry is off).
    pub fn metrics(&self) -> Option<MetricsSnapshot> {
        self.ctx.telemetry.snapshot()
    }

    /// Drains the trace ring buffer as JSONL, one record per line plus a
    /// trailer (`None` when telemetry is off). Same seed and workload ⇒
    /// byte-identical output, at any thread count.
    pub fn drain_trace(&self) -> Option<String> {
        self.ctx.telemetry.drain_jsonl()
    }

    /// Per-query profiles of the most recent [`mdx`](Engine::mdx) /
    /// [`mdx_many`](Engine::mdx_many) / [`mdx_window`](Engine::mdx_window)
    /// call, flattened in routing order (empty when telemetry is off or
    /// before the first call) — the `explain_last()` view.
    pub fn explain_last(&self) -> Vec<QueryProfile> {
        self.ctx.telemetry.last_profiles()
    }

    /// The cube.
    pub fn cube(&self) -> &Cube {
        &self.cube
    }

    /// The execution context (buffer pool + hardware model).
    pub fn context(&self) -> &ExecContext {
        &self.ctx
    }

    /// Empties the buffer pool.
    pub fn flush(&mut self) {
        self.ctx.flush();
    }

    /// Appends new fact rows, incrementally maintaining every materialized
    /// view, bitmap join index, and statistic (see
    /// [`starshare_olap::maintain`]). The buffer pool is flushed: appended
    /// pages invalidate resident images of the grown tables.
    ///
    /// The result cache is carried across the epoch bump by delta-patching
    /// its entries with the appended rows (the returned
    /// [`AppendOutcome::report`] charges the patch CPU on the simulated
    /// clock), unless [`EngineConfig::cache_patching`] is off — then every
    /// stale entry is dropped and recomputation pays on the next probe. A
    /// failed append (bad arity, out-of-range key) mutates nothing: not
    /// the cube, not the cache, not the epoch.
    pub fn append_facts(&mut self, rows: &[(Vec<u32>, f64)]) -> Result<AppendOutcome> {
        let appended = starshare_olap::append_facts(&mut self.cube, rows)?;
        let tele = self.ctx.telemetry.clone();
        tele.trace(|t| t.start("engine.append", vec![("rows", appended.into())]));
        self.ctx.flush();
        let stats_before = self.cache_stats();
        let mut report = ExecReport::default();
        if let Some(c) = &mut self.cache {
            if self.config.cache_patching {
                report = c.apply_append(&self.cube.schema, self.cube.epoch, rows, &self.ctx.model);
            } else {
                c.advance_epoch(self.cube.epoch);
            }
        }
        let cache = self.cache_stats().since(stats_before);
        tele.metrics(|m| {
            m.observe_append(appended);
            m.observe_cache(
                cache.exact_hits,
                cache.subsumption_hits,
                cache.misses,
                cache.insertions,
                cache.evictions,
                cache.invalidations,
                cache.patched,
                cache.patch_drops,
            );
        });
        tele.trace(|t| {
            t.advance(report.sim);
            if self.cache.is_some() {
                t.event(
                    "cache.patch",
                    vec![
                        ("patched", cache.patched.into()),
                        ("dropped", cache.patch_drops.into()),
                        ("invalidated", cache.invalidations.into()),
                        ("sim_ns", report.sim.into()),
                    ],
                );
            }
            t.end(
                "engine.append",
                vec![
                    ("epoch", self.cube.epoch.into()),
                    ("sim_ns", report.sim.into()),
                ],
            );
        });
        Ok(AppendOutcome {
            appended,
            epoch: self.cube.epoch,
            cache,
            report,
        })
    }

    /// The cost model over this engine's cube and hardware.
    pub fn cost_model(&self) -> CostModel<'_> {
        CostModel::new(&self.cube, self.ctx.model)
    }

    /// Full round trip: parse, bind, optimize (with the engine's configured
    /// algorithm), execute.
    ///
    /// A thin wrapper over [`mdx_many`](Engine::mdx_many) with a singleton
    /// batch — both paths share one implementation. With only one
    /// expression there is nothing to degrade to, so the first per-query
    /// error (if any) becomes the call's error; a returned [`Outcome`] is
    /// therefore all-`Ok`, and [`Outcome::expr`]/[`Outcome::result`] are
    /// safe on it.
    pub fn mdx(&mut self, text: &str) -> Result<Outcome> {
        let mut out = self.mdx_many(&[text])?;
        let expr = out.outcomes.pop().ok_or_else(|| {
            Error::Exec(ExecError::new("a one-expression batch lost its outcome"))
        })??;
        if let Some(e) = expr.results.iter().find_map(|r| r.as_ref().err()) {
            return Err(e.clone());
        }
        out.outcomes.push(Ok(expr));
        Ok(out)
    }

    /// Like [`mdx`](Engine::mdx) but over a whole *batch* of MDX
    /// expressions: all their queries are pooled and optimized as one unit,
    /// so sharing can cross expression boundaries (the paper optimizes per
    /// expression; a multi-user OLAP server sees exactly this batch shape).
    ///
    /// A thin wrapper over [`mdx_window`](Engine::mdx_window) with a
    /// single submission.
    ///
    /// Failures degrade per query, not per batch: an expression that fails
    /// to parse or bind occupies an `Err` outcome slot, and an execution
    /// fault (see [`inject_faults`](Engine::inject_faults)) fails only the
    /// queries sharing the struck operator — everything else still
    /// answers. The call itself errs only on batch-level failures (the
    /// optimizer rejecting the pooled query set).
    ///
    /// With the result cache enabled, queries it can answer (exactly, or
    /// by rolling up a cached finer result) never reach the planner — an
    /// all-exact-hit batch is served from memory with zero simulated cost.
    pub fn mdx_many(&mut self, texts: &[&str]) -> Result<Outcome> {
        let window = self.mdx_window(&[texts])?;
        let mut submissions = window.submissions;
        let mut profiles = window.profiles;
        let outcomes = submissions.pop().ok_or_else(|| {
            Error::Exec(ExecError::new(
                "a one-submission window lost its submission",
            ))
        })?;
        Ok(Outcome {
            plan: window.plan,
            outcomes,
            report: window.report.exec,
            profiles: profiles.pop().unwrap_or_default(),
        })
    }

    /// Evaluates one optimization **window**: several independent
    /// *submissions* (each its own batch of MDX expressions — e.g. one
    /// per serving session), planned as a single pooled query set with the
    /// engine's optimizer, executed once under its execution strategy, and
    /// routed back per submission. This is the entry point `starshare-serve`
    /// drives; the engine's own [`mdx_many`](Engine::mdx_many) is the
    /// single-submission special case.
    ///
    /// Per-submission isolation inside the shared run:
    ///
    /// * parse/bind errors fail only their expression's slot;
    /// * an execution failure (e.g. an injected storage fault) in a class
    ///   shared by several submissions triggers a **per-owner re-run** of
    ///   that class, so one submission's fault cannot fail a window-mate —
    ///   each owner's sub-class either answers or fails alone (a window
    ///   with a single submission skips this and keeps plain per-class
    ///   degradation);
    /// * [`WindowOutcome::attributed`] prices each submission's query set
    ///   *as if it ran alone* — independent of window-mates.
    pub fn mdx_window<S: AsRef<str>>(&mut self, submissions: &[&[S]]) -> Result<WindowOutcome> {
        let (optimizer, strategy) = (self.config.optimizer, self.config.strategy);
        // Routes executed (or cached) per-query outcomes back to their
        // submissions, preserving expression input order and binding
        // order within each expression.
        fn route(
            bounds: Vec<Vec<Result<BoundMdx>>>,
            take: &mut dyn FnMut(usize, &GroupByQuery) -> Result<QueryResult>,
        ) -> Vec<Vec<Result<ExprOutcome>>> {
            bounds
                .into_iter()
                .enumerate()
                .map(|(si, sub)| {
                    sub.into_iter()
                        .map(|b| {
                            b.map(|bound| {
                                let results = bound.queries.iter().map(|q| take(si, q)).collect();
                                ExprOutcome { bound, results }
                            })
                        })
                        .collect()
                })
                .collect()
        }

        let mut timer = WindowTimer::start();
        let mut bounds: Vec<Vec<Result<BoundMdx>>> = Vec::with_capacity(submissions.len());
        let mut sets: Vec<Vec<GroupByQuery>> = Vec::with_capacity(submissions.len());
        for texts in submissions {
            let mut sub_bounds = Vec::with_capacity(texts.len());
            let mut set = Vec::new();
            for text in texts.iter() {
                match parse(text.as_ref())
                    .map_err(Error::from)
                    .and_then(|expr| bind(&self.cube.schema, &expr).map_err(Error::from))
                {
                    Ok(bound) => {
                        set.extend(bound.queries.clone());
                        sub_bounds.push(Ok(bound));
                    }
                    Err(e) => sub_bounds.push(Err(e)),
                }
            }
            bounds.push(sub_bounds);
            sets.push(set);
        }
        let n_queries: usize = sets.iter().map(Vec::len).sum();
        let n_exprs: usize = submissions.iter().map(|s| s.len()).sum();
        let degenerate_sharing = SharingStats {
            n_submissions: submissions.len(),
            n_queries,
            n_classes: 0,
            cross_submission_classes: 0,
            shared_scan_ratio: 1.0,
        };

        let tele = self.ctx.telemetry.clone();
        tele.trace(|t| {
            t.start(
                "window.close",
                vec![
                    ("n_submissions", submissions.len().into()),
                    ("n_exprs", n_exprs.into()),
                    ("n_queries", n_queries.into()),
                ],
            )
        });

        if n_queries == 0 {
            // Every expression failed to parse/bind (or bound to nothing):
            // no plan to run.
            let routed = route(bounds, &mut |_, _| {
                Err(Error::Exec(ExecError::new("expression bound no queries")))
            });
            tele.metrics(|m| m.observe_window(submissions.len() as u64, 0, 0, 0, n_exprs as u64));
            tele.trace(|t| {
                t.end(
                    "window.close",
                    vec![("n_classes", 0u64.into()), ("sim_ns", SimTime::ZERO.into())],
                )
            });
            tele.store_profiles(Vec::new());
            let n_subs = sets.len();
            return Ok(WindowOutcome {
                plan: GlobalPlan::default(),
                submissions: routed,
                attributed: vec![SimTime::ZERO; n_subs],
                sharing: degenerate_sharing,
                cache: CacheStats::default(),
                report: timer.finish(ExecReport::default(), n_subs, 0, 0),
                profiles: vec![Vec::new(); n_subs],
            });
        }

        // Split the window into cache-answerable queries and misses: only
        // the misses are planned and executed. `cached[si][j]` parallels
        // `sets[si][j]`; subsumption rollups are charged (per owning
        // submission and on the window total) as CPU over cached rows.
        let stats_before = self
            .cache
            .as_ref()
            .map_or_else(CacheStats::default, |c| c.stats());
        // Each hit with how it was obtained and its rollup charge (for
        // per-query profiles); `None` for misses.
        let mut cached: Vec<Vec<Option<(QueryResult, Provenance, SimTime)>>> =
            Vec::with_capacity(sets.len());
        let mut cache_charges: Vec<SimTime> = vec![SimTime::ZERO; sets.len()];
        let mut cache_total = ExecReport::default();
        let mut miss_sets: Vec<Vec<GroupByQuery>> = Vec::with_capacity(sets.len());
        if let Some(cache) = &mut self.cache {
            cache.advance_epoch(self.cube.epoch);
            let model = self.ctx.model;
            for (si, set) in sets.iter().enumerate() {
                let mut hits = Vec::with_capacity(set.len());
                let mut misses = Vec::new();
                for q in set {
                    match cache.lookup(&self.cube.schema, q, &model) {
                        Some(CacheHit::Exact { result, patched }) => {
                            let prov = if patched {
                                Provenance::DeltaPatched
                            } else {
                                Provenance::ExactHit
                            };
                            tele.trace(|t| {
                                t.event(
                                    "cache.probe",
                                    vec![
                                        ("submission", si.into()),
                                        ("outcome", prov.as_str().into()),
                                    ],
                                )
                            });
                            hits.push(Some((result, prov, SimTime::ZERO)));
                        }
                        Some(CacheHit::Subsumption { result, report }) => {
                            cache_charges[si] += report.sim;
                            cache_total.merge(&report);
                            tele.trace(|t| {
                                t.advance(report.sim);
                                t.event(
                                    "cache.probe",
                                    vec![
                                        ("submission", si.into()),
                                        ("outcome", Provenance::SubsumptionRollup.as_str().into()),
                                        ("rollup_ns", report.sim.into()),
                                    ],
                                );
                            });
                            hits.push(Some((result, Provenance::SubsumptionRollup, report.sim)));
                        }
                        None => {
                            tele.trace(|t| {
                                t.event(
                                    "cache.probe",
                                    vec![("submission", si.into()), ("outcome", "miss".into())],
                                )
                            });
                            misses.push(q.clone());
                            hits.push(None);
                        }
                    }
                }
                cached.push(hits);
                miss_sets.push(misses);
            }
        } else {
            cached = sets.iter().map(|s| vec![None; s.len()]).collect();
            miss_sets = sets.clone();
        }

        let n_miss: usize = miss_sets.iter().map(Vec::len).sum();
        tele.trace(|t| {
            t.start(
                "opt.plan",
                vec![
                    ("heuristic", optimizer.to_string().into()),
                    ("n_miss_queries", n_miss.into()),
                ],
            )
        });
        let planned = (|| -> Result<_> {
            let cm = self.cost_model();
            let wp = plan_window(&cm, &miss_sets, optimizer)?;
            // Price each submission as if it ran alone — the window's
            // cost-attribution figure, independent of window-mates: the
            // charge for its cache hits plus the solo cost of its misses.
            // A single-submission window's miss plan *is* its own solo run.
            let attributed: Vec<SimTime> = if miss_sets.len() == 1 {
                vec![cache_charges[0] + wp.plan.estimated_cost]
            } else {
                miss_sets
                    .iter()
                    .zip(&cache_charges)
                    .map(|(set, &charge)| {
                        if set.is_empty() {
                            Ok(charge)
                        } else {
                            Ok(charge + optimizer.run(&cm, set)?.estimated_cost)
                        }
                    })
                    .collect::<Result<_>>()?
            };
            Ok((wp, attributed))
        })();
        let (wp, attributed) = match planned {
            Ok(v) => v,
            Err(e) => {
                // Close the open spans so a failed window cannot skew the
                // nesting of later ones.
                tele.trace(|t| {
                    t.end("opt.plan", Vec::new());
                    t.end("window.close", Vec::new());
                });
                return Err(e);
            }
        };
        timer.planned();
        let plan = wp.plan;
        let owners = wp.owners;
        // The plan covers only the misses; report the window's full query
        // count (the serving layer counts queries served, not scanned).
        let mut sharing = wp.sharing;
        sharing.n_queries = n_queries;
        tele.trace(|t| {
            t.end(
                "opt.plan",
                vec![
                    ("n_classes", sharing.n_classes.into()),
                    (
                        "cross_submission_classes",
                        sharing.cross_submission_classes.into(),
                    ),
                    ("shared_scan_ratio", sharing.shared_scan_ratio.into()),
                    ("estimated_cost_ns", plan.estimated_cost.into()),
                ],
            )
        });

        let (exec, _) = self.run_plan(&plan, strategy, false);
        let mut results = exec.results;
        let per_class = exec.per_class;
        let class_merge_cpu = exec.merge_cpu;
        let mut total = exec.total;
        // The subsumption rollups' CPU is window work too.
        total.merge(&cache_total);

        // One profile per plan slot: a query's profile is the phase
        // attribution of the shared operator pass that produced its
        // answer (class counters minus the fold charge, which gets its
        // own merge phase) — members of a multi-query class share it.
        let mut slot_profile: Vec<QueryProfile> = Vec::new();
        if tele.enabled() {
            let model = self.ctx.model;
            for (ci, class) in plan.classes.iter().enumerate() {
                let prov = if class.plans.len() > 1 {
                    Provenance::WindowShared
                } else {
                    Provenance::Direct
                };
                let merge_cpu = class_merge_cpu.get(ci).copied().unwrap_or_default();
                let scan_cpu = cpu_minus(&per_class[ci].cpu, &merge_cpu);
                let profile =
                    QueryProfile::executed(prov, &model, &per_class[ci].io, &scan_cpu, &merge_cpu);
                slot_profile.extend(std::iter::repeat_n(profile, class.plans.len()));
            }
        }

        // Fault isolation across submissions: a failed class whose slots
        // belong to more than one submission is re-run once per owner, so
        // one submission's fault cannot take a window-mate's queries
        // down. Single-owner failures stand — they are that submission's
        // own degradation (PR 3 semantics).
        if sharing.n_submissions > 1 {
            let mut base = 0usize;
            for class in &plan.classes {
                let len = class.plans.len();
                let slots = base..base + len;
                base += len;
                if len == 0 || !results[slots.clone()].iter().all(|r| r.is_err()) {
                    continue;
                }
                let owner_slice = &owners[slots.clone()];
                let mut distinct: Vec<usize> = Vec::new();
                for &o in owner_slice {
                    if !distinct.contains(&o) {
                        distinct.push(o);
                    }
                }
                if distinct.len() < 2 {
                    continue;
                }
                for &o in &distinct {
                    let sub = PlanClass {
                        table: class.table,
                        plans: class
                            .plans
                            .iter()
                            .zip(owner_slice)
                            .filter(|&(_, po)| *po == o)
                            .map(|(p, _)| p.clone())
                            .collect(),
                    };
                    match self.run_class(&sub, strategy) {
                        Ok((rs, rep, _)) => {
                            // `run_class` answers exactly `sub.plans`, in order.
                            let owned = slots.clone().zip(owner_slice).filter(|&(_, &po)| po == o);
                            for ((slot, _), r) in owned.zip(rs) {
                                results[slot] = Ok(r);
                            }
                            total.merge(&rep);
                        }
                        Err(e) => {
                            for (slot, &po) in slots.clone().zip(owner_slice) {
                                if po == o {
                                    results[slot] = Err(Error::from(e.clone()));
                                }
                            }
                        }
                    }
                }
            }
        }

        // Distribute outcomes back to expressions (binding order within
        // each): cache answers serve their slots directly — the take
        // calls for submission `si` arrive in exactly `sets[si]` order —
        // and every miss consumes one owned plan slot, in plan order
        // (duplicate queries each consume their own slot).
        let plan_queries: Vec<GroupByQuery> =
            plan.assignments().map(|(_, q, _)| q.clone()).collect();
        let mut pool: Vec<Option<Result<QueryResult>>> = results.into_iter().map(Some).collect();
        let mut next_q: Vec<usize> = vec![0; sets.len()];
        let tele_on = tele.enabled();
        let mut profiles: Vec<Vec<QueryProfile>> =
            sets.iter().map(|s| Vec::with_capacity(s.len())).collect();
        let routed = route(bounds, &mut |si, q| {
            let j = next_q[si];
            next_q[si] += 1;
            if let Some((r, prov, rollup)) = cached[si][j].take() {
                debug_assert_eq!(&r.query, q, "cache answer routed to the wrong slot");
                if tele_on {
                    profiles[si].push(QueryProfile::cached(prov, rollup));
                }
                return Ok(r);
            }
            // The first untaken slot this submission owns for `q`.
            let (slot, r) = pool
                .iter_mut()
                .enumerate()
                .filter(|&(i, _)| owners[i] == si && plan_queries[i] == *q)
                .find_map(|(i, p)| p.take().map(|r| (i, r)))
                .ok_or_else(|| Error::Exec(ExecError::new("plan lost a query")))?;
            if tele_on {
                profiles[si].push(slot_profile[slot]);
            }
            r
        });
        if tele_on {
            tele.store_profiles(profiles.iter().flatten().copied().collect());
        }
        // Admit every fresh result (executed misses and subsumption
        // rollups — exact hits are already resident), seeded with its
        // estimated solo production cost: the simulated time a future hit
        // saves, which is what eviction ranks by. Alone, a query's plan
        // under every optimizer is its best local plan.
        if let Some(cache) = &mut self.cache {
            let cm = CostModel::new(&self.cube, self.ctx.model);
            for oc in routed.iter().flatten().flatten() {
                for r in oc.results.iter().flatten() {
                    if cache.contains_exact(&r.query) {
                        continue;
                    }
                    let cost = cm.best_local(&r.query).map_or(SimTime::ZERO, |(_, _, c)| c);
                    cache.insert(r.query.clone(), r.clone(), cost);
                }
            }
        }
        let cache_stats = self
            .cache
            .as_ref()
            .map_or_else(CacheStats::default, |c| c.stats())
            .since(stats_before);
        let n_classes = plan.classes.len();
        tele.metrics(|m| {
            m.observe_window(
                sets.len() as u64,
                n_queries as u64,
                n_classes as u64,
                sharing.cross_submission_classes as u64,
                n_exprs as u64,
            );
            m.observe_exec(&total.io, total.sim, total.critical);
            m.observe_cache(
                cache_stats.exact_hits,
                cache_stats.subsumption_hits,
                cache_stats.misses,
                cache_stats.insertions,
                cache_stats.evictions,
                cache_stats.invalidations,
                cache_stats.patched,
                cache_stats.patch_drops,
            );
        });
        if let Some(fs) = self.fault_stats() {
            tele.metrics(|m| {
                m.set_faults(
                    fs.checked,
                    fs.transient,
                    fs.poisoned_pages,
                    fs.poison_denials,
                )
            });
        }
        tele.trace(|t| {
            if cache_stats.insertions > 0 {
                t.event(
                    "cache.admit",
                    vec![("count", cache_stats.insertions.into())],
                );
            }
            if cache_stats.evictions > 0 {
                t.event("cache.evict", vec![("count", cache_stats.evictions.into())]);
            }
            t.end(
                "window.close",
                vec![
                    ("n_classes", n_classes.into()),
                    ("sim_ns", total.sim.into()),
                    ("critical_ns", total.critical.into()),
                ],
            );
        });
        Ok(WindowOutcome {
            plan,
            submissions: routed,
            attributed,
            sharing,
            cache: cache_stats,
            report: timer.finish(total, sets.len(), n_queries, n_classes),
            profiles,
        })
    }

    /// Optimizes a query set with a specific algorithm.
    pub fn optimize(&self, queries: &[GroupByQuery], kind: OptimizerKind) -> Result<GlobalPlan> {
        Ok(kind.run(&self.cost_model(), queries)?)
    }

    /// Executes a global plan: each class runs as one shared operator
    /// (hybrid scan if any member is hash-based, shared index join
    /// otherwise) on the morsel executor (`starshare_exec::parallel`), one
    /// class after another, at the engine's [`threads`](Engine::threads).
    /// The plan's totals are the classes' reports summed, `critical`
    /// included; none of them depends on the thread count.
    pub fn execute_plan(&mut self, plan: &GlobalPlan) -> Result<PlanExecution> {
        let (exec, failed) = self.run_plan(plan, self.config.strategy, true);
        if let Some(e) = failed {
            return Err(e.into());
        }
        Ok(PlanExecution {
            results: exec.results.into_iter().collect::<Result<_>>()?,
            per_class: exec.per_class,
            total: exec.total,
        })
    }

    /// Executes a global plan with **per-query graceful degradation**: each
    /// class runs independently, and a class that fails — an unrecovered
    /// storage fault (see [`inject_faults`](Engine::inject_faults)) or a
    /// plan-level operator error — yields `Err` for exactly its member
    /// queries while every other class still executes and answers.
    ///
    /// Because a denied page access charges nothing (see
    /// `starshare_storage::fault`), the surviving queries' results are
    /// bit-identical to a fault-free run of the same plan.
    ///
    /// A failed class's report stays at the defaults: its partial work is
    /// interleaved into the shared pool and not separable per class.
    pub fn execute_plan_degraded(&mut self, plan: &GlobalPlan) -> DegradedExecution {
        self.execute_plan_degraded_with(plan, self.config.strategy)
    }

    /// [`execute_plan_degraded`](Engine::execute_plan_degraded) under an
    /// explicit [`ExecStrategy`] instead of the engine's own.
    pub fn execute_plan_degraded_with(
        &mut self,
        plan: &GlobalPlan,
        strategy: ExecStrategy,
    ) -> DegradedExecution {
        self.run_plan(plan, strategy, false).0
    }

    /// The one per-class loop behind every plan execution: runs each class
    /// through [`run_class`](Engine::run_class) in plan order and totals
    /// the class reports with [`ExecReport::merge`]. A failed class yields
    /// `Err` for exactly its member queries, and later classes still run —
    /// unless `strict`, where the first failure ends the run and comes
    /// back alongside (a class with no queries has no slot to carry it).
    fn run_plan(
        &mut self,
        plan: &GlobalPlan,
        strategy: ExecStrategy,
        strict: bool,
    ) -> (DegradedExecution, Option<ExecError>) {
        let mut results: Vec<Result<QueryResult>> = Vec::with_capacity(plan.n_queries());
        let mut per_class = Vec::with_capacity(plan.classes.len());
        let mut merge_cpu = Vec::with_capacity(plan.classes.len());
        let mut total = ExecReport::default();
        let mut failed = None;
        for class in &plan.classes {
            match self.run_class(class, strategy) {
                Ok((rs, rep, mc)) => {
                    results.extend(rs.into_iter().map(Ok));
                    total.merge(&rep);
                    per_class.push(rep);
                    merge_cpu.push(mc);
                }
                Err(e) => {
                    for _ in &class.plans {
                        results.push(Err(Error::from(e.clone())));
                    }
                    per_class.push(ExecReport::default());
                    merge_cpu.push(CpuCounters::default());
                    if strict {
                        failed = Some(e);
                        break;
                    }
                }
            }
        }
        let exec = DegradedExecution {
            results,
            per_class,
            merge_cpu,
            total,
        };
        (exec, failed)
    }

    /// Runs one plan class as a shared operator on the morsel executor
    /// under `strategy`, returning its results **in class plan order**,
    /// the class's report, and the report's merge-phase CPU. Each call is
    /// one executor invocation, so a faulted class cannot take its
    /// neighbours down with it — the plan loop and the window path's
    /// per-owner fault-isolation re-runs both build on this.
    fn run_class(
        &mut self,
        class: &PlanClass,
        strategy: ExecStrategy,
    ) -> std::result::Result<(Vec<QueryResult>, ExecReport, CpuCounters), ExecError> {
        let members = |method| {
            class
                .plans
                .iter()
                .filter(|p| p.method == method)
                .map(|p| p.query.clone())
                .collect::<Vec<GroupByQuery>>()
        };
        let spec = ClassSpec {
            table: class.table,
            hash_queries: members(JoinMethod::Hash),
            index_queries: members(JoinMethod::Index),
        };
        let n_hash = spec.hash_queries.len();
        let out = execute_class(
            &mut self.ctx,
            &self.cube,
            &spec,
            self.config.threads,
            strategy,
        )?;
        let mut rs = out.results;
        if rs.len() != class.plans.len() {
            return Err(ExecError::new(format!(
                "the operator returned {} results for a class of {} queries",
                rs.len(),
                class.plans.len()
            )));
        }
        // rs is ordered hash-then-index — map back to class plan order.
        let mut index_iter = rs.split_off(n_hash).into_iter();
        let mut hash_iter = rs.into_iter();
        let ordered = class
            .plans
            .iter()
            .filter_map(|p| match p.method {
                JoinMethod::Hash => hash_iter.next(),
                JoinMethod::Index => index_iter.next(),
            })
            .collect();
        Ok((ordered, out.report, out.merge_cpu))
    }

    /// Arms deterministic fault injection on the engine's buffer pool: from
    /// now on, every page read the executor charges draws from `plan`'s
    /// seeded schedule (see `starshare_storage::FaultPlan`), in the same
    /// order at every thread count. Queries whose reads fault past the
    /// executor's bounded retry fail individually — see
    /// [`mdx_many`](Engine::mdx_many) and
    /// [`execute_plan_degraded`](Engine::execute_plan_degraded).
    pub fn inject_faults(&mut self, plan: FaultPlan) {
        self.ctx.pool.inject_faults(plan);
    }

    /// Disarms fault injection, returning the injector's tally (None if
    /// none was armed).
    pub fn clear_faults(&mut self) -> Option<FaultStats> {
        self.ctx.pool.clear_faults()
    }

    /// The armed injector's running tally, if any.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.ctx.pool.fault_stats()
    }

    /// Executes each query completely independently (no shared operators,
    /// buffer pool flushed before each) — the naive baseline the paper's
    /// dotted bars show.
    pub fn execute_separately(
        &mut self,
        plans: &[(starshare_olap::TableId, GroupByQuery, JoinMethod)],
    ) -> Result<(Vec<QueryResult>, ExecReport)> {
        let mut results = Vec::with_capacity(plans.len());
        let mut total = ExecReport::default();
        for (t, q, m) in plans {
            self.ctx.flush();
            let class = PlanClass {
                table: *t,
                plans: vec![QueryPlan {
                    query: q.clone(),
                    method: *m,
                }],
            };
            let (rs, rep, _) = self.run_class(&class, self.config.strategy)?;
            results.extend(rs);
            total.merge(&rep);
        }
        Ok((results, total))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starshare_exec::reference_eval;
    use starshare_mdx::paper_queries::{bind_paper_query, bind_paper_test};

    fn engine() -> Engine {
        Engine::paper(PaperCubeSpec {
            base_rows: 5_000,
            d_leaf: 48,
            seed: 17,
            with_indexes: true,
        })
    }

    #[test]
    fn mdx_round_trip_matches_reference() {
        let mut e = engine();
        let out = e
            .mdx(starshare_mdx::paper_queries::paper_query_text(1))
            .unwrap();
        assert_eq!(out.results().len(), 1);
        let q = bind_paper_query(&e.cube().schema, 1).unwrap();
        let base = e.cube().catalog.base_table().unwrap();
        let expect = reference_eval(e.cube(), base, &q);
        assert!(out.result(0).approx_eq(&expect, 1e-9));
        assert!(out.report.sim > starshare_storage::SimTime::ZERO);
        assert_eq!(out.plan.n_queries(), 1);
    }

    #[test]
    fn multi_level_mdx_returns_results_in_binding_order() {
        let mut e = engine();
        let out = e
            .mdx(
                "{A''.A1.CHILDREN, A''.A2} on COLUMNS {B''.B1} on ROWS \
                 CONTEXT ABCD FILTER (D.DD1);",
            )
            .unwrap();
        let expr = out.expr(0);
        assert_eq!(expr.bound.queries.len(), 2);
        assert_eq!(out.results().len(), 2);
        for (q, r) in expr.bound.queries.iter().zip(out.results()) {
            assert_eq!(&r.query, q, "result order must match binding order");
            let base = e.cube().catalog.base_table().unwrap();
            let expect = reference_eval(e.cube(), base, q);
            assert!(r.approx_eq(&expect, 1e-9));
        }
    }

    #[test]
    fn all_optimizers_execute_test4_identically() {
        let mut e = engine();
        let queries = bind_paper_test(&e.cube().schema, 4).unwrap();
        let base = e.cube().catalog.base_table().unwrap();
        let expects: Vec<_> = queries
            .iter()
            .map(|q| reference_eval(e.cube(), base, q))
            .collect();
        for kind in OptimizerKind::ALL {
            let plan = e.optimize(&queries, kind).unwrap();
            e.flush();
            let exec = e.execute_plan(&plan).unwrap();
            assert_eq!(exec.results.len(), queries.len(), "{kind}");
            // Match each plan result to its query's reference.
            for r in &exec.results {
                let i = queries.iter().position(|q| *q == r.query).unwrap();
                assert!(r.approx_eq(&expects[i], 1e-9), "{kind}");
            }
            assert_eq!(exec.per_class.len(), plan.classes.len());
        }
    }

    #[test]
    fn separate_execution_baseline_costs_more_than_planned() {
        let mut e = engine();
        let queries = bind_paper_test(&e.cube().schema, 1).unwrap();
        let plan = e.optimize(&queries, OptimizerKind::Gg).unwrap();
        e.flush();
        let shared = e.execute_plan(&plan).unwrap();
        let separate_plans: Vec<_> = plan
            .assignments()
            .map(|(t, q, m)| (t, q.clone(), m))
            .collect();
        let (rs, sep_report) = e.execute_separately(&separate_plans).unwrap();
        assert_eq!(rs.len(), queries.len());
        assert!(
            shared.total.sim <= sep_report.sim,
            "shared {} vs separate {}",
            shared.total.sim,
            sep_report.sim
        );
    }

    #[test]
    fn mdx_many_crosses_expression_boundaries() {
        let mut e = engine();
        let texts = [
            starshare_mdx::paper_queries::paper_query_text(1),
            starshare_mdx::paper_queries::paper_query_text(2),
            starshare_mdx::paper_queries::paper_query_text(3),
        ];
        let out = e.mdx_many(&texts).unwrap();
        assert_eq!(out.outcomes.len(), 3);
        assert!(out.all_ok());
        let base = e.cube().catalog.base_table().unwrap();
        for outcome in &out.outcomes {
            let oc = outcome.as_ref().unwrap();
            for (q, r) in oc.bound.queries.iter().zip(&oc.results) {
                let expect = reference_eval(e.cube(), base, q);
                assert!(r.as_ref().unwrap().approx_eq(&expect, 1e-9));
            }
        }
        // Batch plan shares across the three expressions: fewer classes
        // than queries (GG consolidates the Test-4 trio).
        assert!(out.plan.classes.len() < 3, "{}", out.plan.explain(e.cube()));
        // Batched evaluation costs no more than sequential evaluation.
        let mut e2 = engine();
        let mut seq = starshare_exec::ExecReport::default();
        for t in &texts {
            e2.flush();
            seq.merge(&e2.mdx(t).unwrap().report);
        }
        assert!(
            out.report.sim <= seq.sim,
            "{} vs {}",
            out.report.sim,
            seq.sim
        );
    }

    #[test]
    fn mdx_many_handles_duplicate_expressions() {
        let mut e = engine();
        let t = starshare_mdx::paper_queries::paper_query_text(1);
        let out = e.mdx_many(&[t, t]).unwrap();
        assert_eq!(out.outcomes.len(), 2);
        let a = out.outcomes[0].as_ref().unwrap().results[0]
            .as_ref()
            .unwrap();
        let b = out.outcomes[1].as_ref().unwrap().results[0]
            .as_ref()
            .unwrap();
        assert!(a.approx_eq(b, 1e-12));
    }

    #[test]
    fn mdx_error_paths_are_reported() {
        let mut e = engine();
        assert!(e.mdx("this is not MDX").is_err());
        assert!(e.mdx("{Z1} on COLUMNS CONTEXT ABCD;").is_err());
    }

    #[test]
    fn mdx_many_degrades_per_expression_on_parse_and_bind_errors() {
        // One bad expression must not take the batch down: its slot errs,
        // every other expression still answers (the satellite regression
        // for the old first-error-wins behaviour).
        let mut e = engine();
        let good = starshare_mdx::paper_queries::paper_query_text(1);
        let out = e
            .mdx_many(&[
                good,
                "this is not MDX",
                "{Z9} on COLUMNS CONTEXT ABCD;",
                good,
            ])
            .unwrap();
        assert_eq!(out.outcomes.len(), 4);
        assert_eq!(out.n_failed(), 2);
        assert!(!out.all_ok());
        assert!(matches!(out.outcomes[1], Err(Error::Parse(_))));
        assert!(matches!(out.outcomes[2], Err(Error::Bind(_))));
        let base = e.cube().catalog.base_table().unwrap();
        for i in [0, 3] {
            let oc = out.outcomes[i].as_ref().unwrap();
            assert!(oc.all_ok());
            let r = oc.results[0].as_ref().unwrap();
            let expect = reference_eval(e.cube(), base, &r.query);
            assert!(r.approx_eq(&expect, 1e-9));
        }
    }

    #[test]
    fn all_parse_failures_still_return_per_expression_outcomes() {
        let mut e = engine();
        let out = e.mdx_many(&["nope", "also nope"]).unwrap();
        assert_eq!(out.outcomes.len(), 2);
        assert_eq!(out.n_failed(), 2);
        assert_eq!(out.plan.n_queries(), 0);
    }

    #[test]
    fn degraded_execution_matches_strict_execution_when_nothing_faults() {
        let mut e = engine();
        let queries = bind_paper_test(&e.cube().schema, 4).unwrap();
        let plan = e.optimize(&queries, OptimizerKind::Gg).unwrap();
        e.flush();
        let strict = e.execute_plan(&plan).unwrap();
        e.flush();
        let degraded = e.execute_plan_degraded(&plan);
        assert_eq!(degraded.results.len(), strict.results.len());
        for (d, s) in degraded.results.iter().zip(&strict.results) {
            assert_eq!(d.as_ref().unwrap().rows, s.rows, "bit-identical");
        }
        assert_eq!(degraded.total.sim, strict.total.sim);
        assert_eq!(degraded.per_class.len(), plan.classes.len());
    }

    #[test]
    fn a_failed_class_without_queries_still_fails_a_strict_run() {
        // The empty class owns no result slot to carry its error, so the
        // strict entry points must surface it themselves.
        let mut e = engine();
        let queries = bind_paper_test(&e.cube().schema, 1).unwrap();
        let mut plan = e.optimize(&queries, OptimizerKind::Gg).unwrap();
        plan.classes.insert(
            0,
            PlanClass {
                table: plan.classes[0].table,
                plans: Vec::new(),
            },
        );
        for threads in [1, 2] {
            e.set_threads(threads);
            assert!(e.execute_plan(&plan).is_err(), "{threads} threads");
        }
        let degraded = e.execute_plan_degraded(&plan);
        assert_eq!(degraded.results.len(), queries.len());
        assert!(degraded.results.iter().all(|r| r.is_ok()));
    }

    #[test]
    fn compressed_engine_is_bit_identical_to_plain() {
        let spec = PaperCubeSpec {
            base_rows: 5_000,
            d_leaf: 48,
            seed: 17,
            with_indexes: true,
        };
        let mut plain = Engine::paper(spec);
        let mut comp = EngineConfig::paper()
            .compression(true)
            .index_format(IndexFormat::Compressed)
            .build_paper(spec);
        let queries = bind_paper_test(&plain.cube().schema, 4).unwrap();
        let plan_a = plain.optimize(&queries, OptimizerKind::Gg).unwrap();
        let plan_b = comp.optimize(&queries, OptimizerKind::Gg).unwrap();
        let a = plain.execute_plan(&plan_a).unwrap();
        let b = comp.execute_plan(&plan_b).unwrap();
        assert_eq!(a.results.len(), b.results.len());
        for (x, y) in a.results.iter().zip(&b.results) {
            assert_eq!(x.rows, y.rows, "compressed engine must not move a bit");
        }
        // Compressed storage never reads *more* bytes than plain.
        assert!(b.total.io.bytes_scanned() <= a.total.io.bytes_scanned());
    }

    #[test]
    fn threaded_engine_matches_reference_results() {
        let queries = {
            let e = engine();
            bind_paper_test(&e.cube().schema, 4).unwrap()
        };
        let mut par = EngineConfig::paper().threads(4).build_paper(PaperCubeSpec {
            base_rows: 5_000,
            d_leaf: 48,
            seed: 17,
            with_indexes: true,
        });
        let plan = par.optimize(&queries, OptimizerKind::Gg).unwrap();
        let exec = par.execute_plan(&plan).unwrap();
        let base = par.cube().catalog.base_table().unwrap();
        for r in &exec.results {
            let expect = reference_eval(par.cube(), base, &r.query);
            assert!(r.approx_eq(&expect, 1e-9));
        }
        assert!(exec.total.critical <= exec.total.sim);
        assert_eq!(exec.per_class.len(), plan.classes.len());
    }

    #[test]
    fn execute_plan_is_invariant_in_thread_count() {
        let mut e = engine();
        let queries = bind_paper_test(&e.cube().schema, 1).unwrap();
        let plan = e.optimize(&queries, OptimizerKind::Gg).unwrap();
        let runs: Vec<PlanExecution> = [1, 2, 4]
            .iter()
            .map(|&n| {
                e.flush();
                e.set_threads(n);
                e.execute_plan(&plan).unwrap()
            })
            .collect();
        for other in &runs[1..] {
            assert_eq!(runs[0].total.sim, other.total.sim);
            assert_eq!(runs[0].total.critical, other.total.critical);
            for (a, b) in runs[0].results.iter().zip(&other.results) {
                assert_eq!(a.rows, b.rows);
            }
        }
    }

    #[test]
    fn engine_optimizer_is_configurable() {
        let e = EngineConfig::paper()
            .optimizer(OptimizerKind::Tplo)
            .build_paper(PaperCubeSpec {
                base_rows: 500,
                d_leaf: 24,
                seed: 17,
                with_indexes: false,
            });
        assert_eq!(e.optimizer(), OptimizerKind::Tplo);
        let mut e = e;
        e.set_optimizer(OptimizerKind::Gg);
        assert_eq!(e.optimizer(), OptimizerKind::Gg);
    }

    /// Windows run on the engine's own plan settings; the legacy
    /// `WindowConfig` fields, which a traced replay of served traffic
    /// reads, must name the same ones.
    #[test]
    fn window_config_defaults_match_the_engine_defaults() {
        let (cfg, window) = (EngineConfig::new(), WindowConfig::default());
        assert_eq!(window.optimizer, cfg.optimizer);
        assert_eq!(
            ExecStrategy::Morsel(MorselSpec::with_pages(window.morsel_pages)),
            cfg.strategy
        );
    }
}

#[cfg(test)]
mod cache_tests {
    use super::*;
    use starshare_mdx::paper_queries::paper_query_text;
    use starshare_storage::SimTime;

    fn engine() -> Engine {
        EngineConfig::paper()
            .result_cache(true)
            .build_paper(starshare_olap::PaperCubeSpec {
                base_rows: 2_000,
                d_leaf: 24,
                seed: 50,
                with_indexes: true,
            })
    }

    #[test]
    fn second_run_is_served_from_cache() {
        let mut e = engine();
        let first = e.mdx(paper_query_text(1)).unwrap();
        assert!(first.report.sim > SimTime::ZERO);
        assert_eq!(e.cached_results(), 1);
        e.flush(); // even cold, the cache answers
        let second = e.mdx(paper_query_text(1)).unwrap();
        assert_eq!(second.report.sim, SimTime::ZERO, "cache hit must be free");
        assert_eq!(first.result(0).rows, second.result(0).rows);
    }

    #[test]
    fn append_patches_the_cache_in_place() {
        let mut e = engine();
        let before = e.mdx(paper_query_text(1)).unwrap();
        assert_eq!(e.cached_results(), 1);
        let out = e.append_facts(&[(vec![0, 0, 0, 0], 1000.0)]).unwrap();
        assert_eq!(out.appended, 1);
        assert_eq!(out.epoch, e.cube().epoch);
        assert_eq!(
            out.cache.patched, 1,
            "the entry must be carried, not dropped"
        );
        assert_eq!(out.cache.invalidations, 0);
        assert!(out.report.sim > SimTime::ZERO, "patch CPU is charged");
        assert_eq!(e.cached_results(), 1);
        // The next probe is an exact hit on the *patched* entry: free on
        // the simulated clock, yet it reflects the appended row — the
        // all-zero key falls inside Q1's slice, so the answer must move.
        let after = e.mdx(paper_query_text(1)).unwrap();
        assert_eq!(after.report.sim, SimTime::ZERO, "patched entry must hit");
        assert!(
            (after.result(0).grand_total() - before.result(0).grand_total() - 1000.0).abs() < 1e-6,
            "{} vs {}",
            after.result(0).grand_total(),
            before.result(0).grand_total()
        );
    }

    #[test]
    fn append_drops_the_cache_when_patching_is_off() {
        let mut e = EngineConfig::paper()
            .result_cache(true)
            .cache_patching(false)
            .build_paper(starshare_olap::PaperCubeSpec {
                base_rows: 2_000,
                d_leaf: 24,
                seed: 50,
                with_indexes: true,
            });
        let before = e.mdx(paper_query_text(1)).unwrap();
        let out = e.append_facts(&[(vec![0, 0, 0, 0], 1000.0)]).unwrap();
        assert_eq!(out.cache.invalidations, 1);
        assert_eq!(out.cache.patched, 0);
        assert_eq!(out.report.sim, SimTime::ZERO, "dropping is free");
        assert_eq!(e.cached_results(), 0);
        let after = e.mdx(paper_query_text(1)).unwrap();
        assert!(after.report.sim > SimTime::ZERO, "must re-execute");
        assert!(
            (after.result(0).grand_total() - before.result(0).grand_total() - 1000.0).abs() < 1e-6
        );
    }

    /// The keystone end-to-end property: a patched cache answers exactly
    /// like a cache-less engine over the appended cube, bit for bit.
    #[test]
    fn patched_answers_match_a_cacheless_recompute_bitwise() {
        let spec = starshare_olap::PaperCubeSpec {
            base_rows: 2_000,
            d_leaf: 24,
            seed: 50,
            with_indexes: true,
        };
        // Quantized measures keep patched sums exact (see exec::cache).
        let rows: Vec<(Vec<u32>, f64)> = (0..24u32)
            .map(|i| {
                (
                    vec![i % 24, (i * 3) % 24, (i * 5) % 24, i % 24],
                    (i % 40) as f64 * 0.25,
                )
            })
            .collect();
        let exprs = [paper_query_text(1), paper_query_text(2)];

        let mut cached = EngineConfig::paper().result_cache(true).build_paper(spec);
        let mut plain = EngineConfig::paper().build_paper(spec);
        for expr in exprs {
            cached.mdx(expr).unwrap();
        }
        cached.append_facts(&rows).unwrap();
        plain.append_facts(&rows).unwrap();
        for expr in exprs {
            let warm = cached.mdx(expr).unwrap();
            assert_eq!(warm.report.sim, SimTime::ZERO, "patched entries must hit");
            let direct = plain.mdx(expr).unwrap();
            let (w, d) = (warm.result(0), direct.result(0));
            assert_eq!(w.rows.len(), d.rows.len());
            for ((wk, wv), (dk, dv)) in w.rows.iter().zip(&d.rows) {
                assert_eq!(wk, dk);
                assert_eq!(wv.to_bits(), dv.to_bits(), "patched bits drifted");
            }
        }
    }

    #[test]
    fn fully_cached_window_serves_every_submission_from_memory() {
        let mut e = engine();
        e.mdx_many(&[paper_query_text(1), paper_query_text(2)])
            .unwrap();
        let n = e.cached_results();
        assert!(n > 0);
        let sub_a = [paper_query_text(1)];
        let sub_b = [paper_query_text(2)];
        let w = e.mdx_window(&[&sub_a[..], &sub_b[..]]).unwrap();
        assert!(w.all_ok());
        assert_eq!(w.report.exec.sim, SimTime::ZERO, "cache hit must be free");
        assert_eq!(w.attributed, vec![SimTime::ZERO; 2]);
        assert_eq!(w.plan.n_queries(), 0);
    }

    /// A coarser query derivable from a cached finer result must be
    /// answered by rollup: cheaper than a scan, charged (not free), and
    /// bit-identical to evaluating it directly.
    #[test]
    fn coarser_query_is_answered_by_subsumption_rollup() {
        // Paper Q1 targets A'B''C''D; this coarser probe targets
        // A''B''C''D with the same predicates, so it is derivable from
        // Q1's cached result.
        let coarser = "{A''.A1} on COLUMNS {B''.B1} on ROWS {C''.C1} on PAGES \
                       CONTEXT ABCD FILTER (D.DD1);";
        let mut e = engine();
        let fine = e.mdx(paper_query_text(1)).unwrap();
        assert_eq!(e.cache_stats().misses, 1);
        e.flush();
        let warm = e.mdx(coarser).unwrap();
        assert_eq!(
            e.cache_stats().subsumption_hits,
            1,
            "must roll up, not scan"
        );
        assert!(
            warm.report.sim > SimTime::ZERO,
            "a subsumption hit is charged rollup CPU"
        );
        assert!(
            warm.report.sim < fine.report.sim,
            "rollup over cached rows must beat the scan: {} vs {}",
            warm.report.sim,
            fine.report.sim
        );
        // Bit-identical to direct evaluation on a cache-less engine.
        let mut cold = Engine::paper(starshare_olap::PaperCubeSpec {
            base_rows: 2_000,
            d_leaf: 24,
            seed: 50,
            with_indexes: true,
        });
        let direct = cold.mdx(coarser).unwrap();
        assert_eq!(warm.result(0).rows, direct.result(0).rows);
        // The rolled-up answer was admitted: the same probe now exact-hits.
        e.flush();
        let again = e.mdx(coarser).unwrap();
        assert_eq!(again.report.sim, SimTime::ZERO);
        assert_eq!(e.cache_stats().exact_hits, 1);
    }

    #[test]
    fn window_outcome_reports_cache_activity() {
        let mut e = engine();
        let sub = [paper_query_text(1)];
        let w1 = e.mdx_window(&[&sub[..]]).unwrap();
        assert_eq!(w1.cache.misses, 1);
        assert_eq!(w1.cache.insertions, 1);
        assert_eq!(w1.cache.hits(), 0);
        let w2 = e.mdx_window(&[&sub[..]]).unwrap();
        assert_eq!(w2.cache.exact_hits, 1);
        assert_eq!(w2.cache.misses, 0);
        assert_eq!(w2.cache.insertions, 0);
    }

    #[test]
    fn eviction_keeps_the_cache_within_the_byte_budget() {
        let budget = 320;
        let mut e = EngineConfig::paper()
            .result_cache(true)
            .cache_bytes(budget)
            .build_paper(starshare_olap::PaperCubeSpec {
                base_rows: 2_000,
                d_leaf: 24,
                seed: 50,
                with_indexes: true,
            });
        for n in 1..=9 {
            e.mdx(paper_query_text(n)).unwrap();
            assert!(
                e.cache_bytes() <= budget,
                "query {n} pushed the cache to {} bytes (budget {budget})",
                e.cache_bytes()
            );
        }
        let stats = e.cache_stats();
        assert!(
            stats.evictions > 0,
            "nine distinct results cannot all fit in {budget} bytes"
        );
        assert!(e.cached_results() < stats.insertions as usize);
    }

    #[test]
    fn cache_disabled_by_default() {
        let mut e = Engine::paper(starshare_olap::PaperCubeSpec {
            base_rows: 500,
            d_leaf: 24,
            seed: 50,
            with_indexes: false,
        });
        e.mdx(paper_query_text(1)).unwrap();
        assert_eq!(e.cached_results(), 0);
        e.flush();
        let again = e.mdx(paper_query_text(1)).unwrap();
        assert!(again.report.sim > SimTime::ZERO);
    }
}

#[cfg(test)]
mod window_tests {
    use super::*;
    use starshare_mdx::paper_queries::paper_query_text;

    fn spec() -> PaperCubeSpec {
        PaperCubeSpec {
            base_rows: 5_000,
            d_leaf: 48,
            seed: 17,
            with_indexes: true,
        }
    }

    fn engine() -> Engine {
        Engine::paper(spec())
    }

    #[test]
    fn window_routes_every_submission_in_order() {
        let mut e = engine();
        let sub_a = [paper_query_text(1), paper_query_text(2)];
        let sub_b = [paper_query_text(3)];
        let subs: Vec<&[&str]> = vec![&sub_a, &sub_b];
        let w = e.mdx_window(&subs).unwrap();
        assert!(w.all_ok());
        assert_eq!(w.submissions.len(), 2);
        assert_eq!(w.submission(0).len(), 2);
        assert_eq!(w.submission(1).len(), 1);
        assert_eq!(w.sharing.n_submissions, 2);
        assert_eq!(w.attributed.len(), 2);
        // Each expression's results come back in its own binding order.
        for sub in &w.submissions {
            for oc in sub.iter().flatten() {
                for (q, r) in oc.bound.queries.iter().zip(&oc.results) {
                    assert_eq!(&r.as_ref().unwrap().query, q);
                }
            }
        }
    }

    #[test]
    fn windowed_results_are_bit_identical_to_solo_runs() {
        // The serving determinism contract: at the engine's own optimizer
        // and morsel size, a submission's answers do not depend on
        // window-mates.
        let texts = [
            paper_query_text(1),
            paper_query_text(2),
            paper_query_text(3),
        ];
        let mut e = engine();
        let subs: Vec<&[&str]> = texts.iter().map(std::slice::from_ref).collect();
        let windowed = e.mdx_window(&subs).unwrap();
        assert!(windowed.all_ok());
        for (si, text) in texts.iter().enumerate() {
            let mut solo_engine = engine();
            let solo = solo_engine
                .mdx_window(&[std::slice::from_ref(text)])
                .unwrap();
            let w_oc = windowed.submission(si)[0].as_ref().unwrap();
            let s_oc = solo.submission(0)[0].as_ref().unwrap();
            for (wr, sr) in w_oc.results.iter().zip(&s_oc.results) {
                assert_eq!(
                    wr.as_ref().unwrap().rows,
                    sr.as_ref().unwrap().rows,
                    "submission {si} must be bit-identical alone vs windowed"
                );
            }
            assert_eq!(
                windowed.attributed[si], solo.attributed[0],
                "attributed cost must be co-tenant independent"
            );
        }
    }

    #[test]
    fn duplicate_submissions_share_one_class_and_both_answer() {
        let mut e = engine();
        let t = paper_query_text(1);
        let w = e.mdx_window(&[&[t], &[t]]).unwrap();
        assert!(w.all_ok());
        // Identical queries merge into one class fed by both submitters.
        assert!(w.sharing.cross_submission_classes >= 1);
        assert!(w.sharing.shared_scan_ratio > 1.0);
        let a = w.submission(0)[0].as_ref().unwrap().result(0);
        let b = w.submission(1)[0].as_ref().unwrap().result(0);
        assert_eq!(a.rows, b.rows);
        assert_eq!(w.attributed[0], w.attributed[1]);
    }

    #[test]
    fn parse_errors_stay_inside_their_submission() {
        let mut e = engine();
        let sub_b = [paper_query_text(2)];
        let subs: Vec<&[&str]> = vec![&["this is not MDX"], &sub_b];
        let w = e.mdx_window(&subs).unwrap();
        assert!(matches!(w.submission(0)[0], Err(Error::Parse(_))));
        assert!(w.submission(1)[0].as_ref().unwrap().all_ok());
        assert_eq!(w.attributed[0], SimTime::ZERO);
        assert!(w.attributed[1] > SimTime::ZERO);
    }

    #[test]
    fn empty_window_reports_degenerate_sharing() {
        let mut e = engine();
        let subs: Vec<&[&str]> = vec![&["nope"], &[]];
        let w = e.mdx_window(&subs).unwrap();
        assert_eq!(w.sharing.n_classes, 0);
        assert_eq!(w.sharing.shared_scan_ratio, 1.0);
        assert!(matches!(w.submission(0)[0], Err(Error::Parse(_))));
        assert!(w.submission(1).is_empty());
    }

    #[test]
    fn one_submissions_fault_cannot_fail_a_window_mate() {
        // Two submissions of the same query share one class; a fault
        // striking that class triggers the per-owner re-run, so failures
        // (if any) are per submission — and survivors stay bit-identical
        // to the clean run.
        let t = paper_query_text(1);
        let clean_rows = {
            let mut e = engine();
            let w = e.mdx_window(&[&[t], &[t]]).unwrap();
            w.submission(0)[0].as_ref().unwrap().result(0).rows.clone()
        };
        let mut faulted_submissions = 0usize;
        for seed in 0..24u64 {
            let mut e = engine();
            e.inject_faults(FaultPlan {
                seed,
                transient: 0.05,
                poison: 0.01,
            });
            let w = e.mdx_window(&[&[t], &[t]]).unwrap();
            for si in 0..2 {
                match &w.submission(si)[0].as_ref().unwrap().results[0] {
                    Ok(r) => assert_eq!(
                        r.rows, clean_rows,
                        "seed {seed}: survivor must match the clean run bit-for-bit"
                    ),
                    Err(e) => {
                        assert!(e.is_fault(), "seed {seed}: {e}");
                        faulted_submissions += 1;
                    }
                }
            }
        }
        // The sweep must actually exercise the isolation path.
        assert!(faulted_submissions > 0, "no seed produced a fault");
    }

    #[test]
    fn window_report_envelope_covers_planning_and_execution() {
        let mut e = engine();
        let sub_a = [paper_query_text(1)];
        let sub_b = [paper_query_text(3)];
        let subs: Vec<&[&str]> = vec![&sub_a, &sub_b];
        let w = e.mdx_window(&subs).unwrap();
        assert_eq!(w.report.n_submissions, 2);
        assert_eq!(w.report.n_queries, w.sharing.n_queries);
        assert_eq!(w.report.n_classes, w.plan.classes.len());
        assert!(w.report.wall >= w.report.plan_wall);
        assert!(w.report.busy() >= w.report.plan_wall);
        assert!(w.report.exec.sim > SimTime::ZERO);
    }
}
