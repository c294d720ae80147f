//! The server: a coordinator thread that owns the [`Engine`], batches
//! in-flight submissions into optimization windows, and routes results.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use starshare_core::{
    AppendOutcome, CacheStats, Engine, Error, MetricsSnapshot, Result, SimTime, WindowConfig,
    WindowOutcome,
};

use crate::session::{CloseReason, Reply, Session, TenantState, WindowInfo};

/// A coordinator-bound message.
#[derive(Debug)]
pub(crate) enum Msg {
    Submit(Submission),
    Append(AppendReq),
    Shutdown,
}

/// One session's in-flight append batch. Appends ride the same queue as
/// submissions but never join a window: the coordinator applies them
/// strictly *between* windows, so every windowed answer sees one
/// well-defined snapshot of the cube.
#[derive(Debug)]
pub(crate) struct AppendReq {
    pub(crate) rows: Vec<(Vec<u32>, f64)>,
    pub(crate) reply: SyncSender<Result<AppendOutcome>>,
}

/// One session's in-flight submission.
#[derive(Debug)]
pub(crate) struct Submission {
    pub(crate) tenant: Arc<TenantState>,
    pub(crate) exprs: Vec<String>,
    pub(crate) reply: SyncSender<Result<Reply>>,
}

impl Submission {
    fn bytes(&self) -> usize {
        self.exprs.iter().map(String::len).sum()
    }
}

/// State shared between the server handle, its sessions, and the
/// coordinator: the window configuration, the closed flag, the tenant
/// registry, and serving counters.
#[derive(Debug)]
pub(crate) struct Shared {
    pub(crate) cfg: WindowConfig,
    closed: AtomicBool,
    tenants: Mutex<HashMap<String, Arc<TenantState>>>,
    windows: AtomicU64,
    submissions: AtomicU64,
    expressions: AtomicU64,
    rejected_queue: AtomicU64,
    rejected_tenant: AtomicU64,
    cache_hits: AtomicU64,
    cache_subsumption_hits: AtomicU64,
    cache_misses: AtomicU64,
    appends: AtomicU64,
    appended_rows: AtomicU64,
    cache_patched: AtomicU64,
    cache_patch_drops: AtomicU64,
    /// The engine's metrics snapshot as of the most recently completed
    /// window or append (the coordinator owns the engine, so sessions
    /// read metrics through this relay). `None` until something ran, or
    /// when the engine's telemetry is off.
    latest_metrics: Mutex<Option<MetricsSnapshot>>,
}

impl Shared {
    pub(crate) fn new(cfg: WindowConfig) -> Self {
        Shared {
            cfg,
            closed: AtomicBool::new(false),
            tenants: Mutex::new(HashMap::new()),
            windows: AtomicU64::new(0),
            submissions: AtomicU64::new(0),
            expressions: AtomicU64::new(0),
            rejected_queue: AtomicU64::new(0),
            rejected_tenant: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_subsumption_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            appends: AtomicU64::new(0),
            appended_rows: AtomicU64::new(0),
            cache_patched: AtomicU64::new(0),
            cache_patch_drops: AtomicU64::new(0),
            latest_metrics: Mutex::new(None),
        }
    }

    fn set_metrics(&self, snapshot: Option<MetricsSnapshot>) {
        if snapshot.is_some() {
            *self.latest_metrics.lock().expect("metrics relay poisoned") = snapshot;
        }
    }

    pub(crate) fn latest_metrics(&self) -> Option<MetricsSnapshot> {
        *self.latest_metrics.lock().expect("metrics relay poisoned")
    }

    pub(crate) fn closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    pub(crate) fn close(&self) {
        self.closed.store(true, Ordering::Release);
    }

    pub(crate) fn note_rejected_queue(&self) {
        self.rejected_queue.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_rejected_tenant(&self) {
        self.rejected_tenant.fetch_add(1, Ordering::Relaxed);
    }

    fn note_window(&self, n_submissions: usize, n_exprs: usize) {
        self.windows.fetch_add(1, Ordering::Relaxed);
        self.submissions
            .fetch_add(n_submissions as u64, Ordering::Relaxed);
        self.expressions
            .fetch_add(n_exprs as u64, Ordering::Relaxed);
    }

    fn note_append(&self, out: &AppendOutcome) {
        self.appends.fetch_add(1, Ordering::Relaxed);
        self.appended_rows
            .fetch_add(out.appended, Ordering::Relaxed);
        self.cache_patched
            .fetch_add(out.cache.patched, Ordering::Relaxed);
        self.cache_patch_drops
            .fetch_add(out.cache.patch_drops, Ordering::Relaxed);
    }

    fn note_cache(&self, cache: &CacheStats) {
        self.cache_hits.fetch_add(cache.hits(), Ordering::Relaxed);
        self.cache_subsumption_hits
            .fetch_add(cache.subsumption_hits, Ordering::Relaxed);
        self.cache_misses.fetch_add(cache.misses, Ordering::Relaxed);
    }

    fn tenant(&self, name: &str) -> Arc<TenantState> {
        let mut map = self.tenants.lock().expect("tenant registry poisoned");
        Arc::clone(map.entry(name.to_owned()).or_insert_with(|| {
            Arc::new(TenantState {
                name: name.to_owned(),
                inflight: AtomicUsize::new(0),
                budget: self.cfg.tenant_inflight,
            })
        }))
    }

    pub(crate) fn stats(&self) -> ServerStats {
        ServerStats {
            windows: self.windows.load(Ordering::Relaxed),
            submissions: self.submissions.load(Ordering::Relaxed),
            expressions: self.expressions.load(Ordering::Relaxed),
            rejected_queue: self.rejected_queue.load(Ordering::Relaxed),
            rejected_tenant: self.rejected_tenant.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_subsumption_hits: self.cache_subsumption_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            appends: self.appends.load(Ordering::Relaxed),
            appended_rows: self.appended_rows.load(Ordering::Relaxed),
            cache_patched: self.cache_patched.load(Ordering::Relaxed),
            cache_patch_drops: self.cache_patch_drops.load(Ordering::Relaxed),
        }
    }
}

/// A snapshot of a server's serving counters ([`Server::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Optimization windows closed and executed.
    pub windows: u64,
    /// Submissions answered (including erroring ones), across all windows.
    pub submissions: u64,
    /// Expressions answered, across all windows.
    pub expressions: u64,
    /// Submissions bounced off the full submission queue.
    pub rejected_queue: u64,
    /// Submissions bounced off a tenant's in-flight budget.
    pub rejected_tenant: u64,
    /// Queries answered from the shared result cache (exact +
    /// subsumption), across all windows.
    pub cache_hits: u64,
    /// The subset of [`cache_hits`](ServerStats::cache_hits) answered by
    /// rolling up a cached finer-grained result.
    pub cache_subsumption_hits: u64,
    /// Queries the cache could not answer (0 when caching is disabled —
    /// uncached engines never probe).
    pub cache_misses: u64,
    /// Append batches applied (each strictly between two windows).
    pub appends: u64,
    /// Facts appended, across all batches.
    pub appended_rows: u64,
    /// Cached results delta-patched in place by appends, across all
    /// batches (see [`CacheStats::patched`]).
    pub cache_patched: u64,
    /// Cached results dropped because an append could not patch them
    /// (see [`CacheStats::patch_drops`]).
    pub cache_patch_drops: u64,
}

impl ServerStats {
    /// JSON object with stable key order (declaration order).
    pub fn to_json(&self) -> String {
        let mut o = starshare_obs::json::Obj::new();
        o.field_u64("windows", self.windows);
        o.field_u64("submissions", self.submissions);
        o.field_u64("expressions", self.expressions);
        o.field_u64("rejected_queue", self.rejected_queue);
        o.field_u64("rejected_tenant", self.rejected_tenant);
        o.field_u64("cache_hits", self.cache_hits);
        o.field_u64("cache_subsumption_hits", self.cache_subsumption_hits);
        o.field_u64("cache_misses", self.cache_misses);
        o.field_u64("appends", self.appends);
        o.field_u64("appended_rows", self.appended_rows);
        o.field_u64("cache_patched", self.cache_patched);
        o.field_u64("cache_patch_drops", self.cache_patch_drops);
        o.finish()
    }
}

impl std::fmt::Display for ServerStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} windows, {} submissions, {} expressions ({} rejected), \
             cache {}/{} hit/miss, {} appends ({} rows, {} patched, {} dropped)",
            self.windows,
            self.submissions,
            self.expressions,
            self.rejected_queue + self.rejected_tenant,
            self.cache_hits,
            self.cache_misses,
            self.appends,
            self.appended_rows,
            self.cache_patched,
            self.cache_patch_drops
        )
    }
}

/// A running multi-session server: a coordinator thread owning the
/// [`Engine`], fed by [`Session`] handles. Dropping the server shuts it
/// down and discards the engine; use [`shutdown`](Server::shutdown) to
/// get the engine back.
#[derive(Debug)]
pub struct Server {
    tx: Option<SyncSender<Msg>>,
    shared: Arc<Shared>,
    handle: Option<JoinHandle<Engine>>,
}

impl Server {
    /// Starts a server around `engine`, batching submissions by the
    /// engine's own [`EngineConfig::window`] policy.
    ///
    /// [`EngineConfig::window`]: starshare_core::EngineConfig::window
    pub fn start(engine: Engine) -> Server {
        let cfg = engine.config().window.clone();
        Server::start_with(engine, cfg)
    }

    /// Starts a server with an explicit window policy, overriding the
    /// engine's configured one.
    pub fn start_with(engine: Engine, cfg: WindowConfig) -> Server {
        let shared = Arc::new(Shared::new(cfg.clone()));
        let (tx, rx) = std::sync::mpsc::sync_channel(cfg.queue_depth);
        let coord_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("starshare-serve".into())
            .spawn(move || coordinate(engine, cfg, rx, coord_shared))
            .expect("spawn serving coordinator");
        Server {
            tx: Some(tx),
            shared,
            handle: Some(handle),
        }
    }

    /// Opens a session for `tenant`. Sessions of the same tenant (and
    /// clones) share one in-flight budget; the handle is cheap and all
    /// its methods take `&self`, so it can be cloned into client threads
    /// freely.
    pub fn session(&self, tenant: &str) -> Session {
        Session {
            tx: self.tx.clone().expect("server already shut down"),
            tenant: self.shared.tenant(tenant),
            shared: Arc::clone(&self.shared),
        }
    }

    /// A snapshot of the serving counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// The engine's unified metrics snapshot as of the most recently
    /// completed window or append (`None` when the engine's telemetry is
    /// off — see [`EngineConfig::telemetry`] — or before anything ran).
    /// The coordinator thread owns the engine, so this is a relay updated
    /// at window/append boundaries, not a live read.
    ///
    /// [`EngineConfig::telemetry`]: starshare_core::EngineConfig::telemetry
    pub fn metrics(&self) -> Option<MetricsSnapshot> {
        self.shared.latest_metrics()
    }

    /// Shuts the server down and hands the [`Engine`] back: in-flight
    /// windows finish, queued submissions past the shutdown point are
    /// answered [`Error::Closed`], and new submissions fail fast.
    pub fn shutdown(mut self) -> Engine {
        self.shared.close();
        let tx = self.tx.take().expect("server already shut down");
        // A blocking send is fine: the coordinator always drains.
        let _ = tx.send(Msg::Shutdown);
        drop(tx);
        self.handle
            .take()
            .expect("server already shut down")
            .join()
            .expect("serving coordinator panicked")
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let (Some(tx), Some(handle)) = (self.tx.take(), self.handle.take()) {
            self.shared.close();
            let _ = tx.send(Msg::Shutdown);
            drop(tx);
            let _ = handle.join();
        }
    }
}

/// Anything that can be served. Implemented for [`Engine`], so
/// `engine.serve()` is the one-call entry into multi-session serving.
pub trait Serve {
    /// Starts a multi-session server around `self`.
    fn serve(self) -> Server;
}

impl Serve for Engine {
    fn serve(self) -> Server {
        Server::start(self)
    }
}

/// The coordinator loop: collect a window, run it, route replies, repeat;
/// returns the engine at shutdown.
fn coordinate(
    mut engine: Engine,
    cfg: WindowConfig,
    rx: Receiver<Msg>,
    shared: Arc<Shared>,
) -> Engine {
    let mut window_id: u64 = 0;
    'serve: loop {
        // Block for the submission that opens the next window. Appends
        // arriving while idle apply immediately — the engine is between
        // windows by construction.
        let first = loop {
            match rx.recv() {
                Ok(Msg::Submit(s)) => break s,
                Ok(Msg::Append(a)) => apply_append(&mut engine, &shared, a),
                Ok(Msg::Shutdown) | Err(_) => break 'serve,
            }
        };
        let mut batch = vec![first];
        let mut pending_appends: Vec<AppendReq> = Vec::new();
        let mut n_exprs = batch[0].exprs.len();
        let mut n_bytes = batch[0].bytes();
        let deadline = Instant::now() + cfg.max_wait;
        let mut stop = false;

        // Keep admitting until a close condition trips: expression count,
        // byte budget, or the deadline since the window opened. Appends
        // never join a window — they are parked and applied after it
        // executes, so every answer aboard sees one snapshot of the cube.
        while n_exprs < cfg.max_exprs && n_bytes < cfg.max_bytes {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            match rx.recv_timeout(deadline - now) {
                Ok(Msg::Submit(s)) => {
                    n_exprs += s.exprs.len();
                    n_bytes += s.bytes();
                    batch.push(s);
                }
                Ok(Msg::Append(a)) => pending_appends.push(a),
                Ok(Msg::Shutdown) | Err(RecvTimeoutError::Disconnected) => {
                    stop = true;
                    break;
                }
                Err(RecvTimeoutError::Timeout) => break,
            }
        }

        window_id += 1;
        let close_reason = if stop {
            CloseReason::Shutdown
        } else if n_exprs >= cfg.max_exprs {
            CloseReason::Exprs
        } else if n_bytes >= cfg.max_bytes {
            CloseReason::Bytes
        } else {
            CloseReason::Deadline
        };
        shared.note_window(batch.len(), n_exprs);
        run_window(&mut engine, &shared, window_id, close_reason, batch);
        for a in pending_appends {
            apply_append(&mut engine, &shared, a);
        }
        shared.set_metrics(engine.metrics());
        if stop {
            break;
        }
    }

    // Drain whatever is still queued. Submissions past the shutdown point
    // will never ride a window: answer them Closed and release their
    // tenant slots. Queued appends are durable intent — apply them, so
    // the engine handed back holds every batch a session was promised.
    while let Ok(msg) = rx.try_recv() {
        match msg {
            Msg::Submit(s) => {
                let _ = s.reply.try_send(Err(Error::Closed));
                s.tenant.release();
            }
            Msg::Append(a) => apply_append(&mut engine, &shared, a),
            Msg::Shutdown => {}
        }
    }
    engine
}

/// Applies one append batch (the engine is strictly between windows at
/// every call site) and routes the outcome back to its session.
fn apply_append(engine: &mut Engine, shared: &Shared, req: AppendReq) {
    let out = engine.append_facts(&req.rows);
    if let Ok(o) = &out {
        shared.note_append(o);
    }
    shared.set_metrics(engine.metrics());
    let _ = req.reply.try_send(out);
}

/// Plans and executes one window over `batch` and routes every
/// submission's reply (releasing its tenant slot).
fn run_window(
    engine: &mut Engine,
    shared: &Shared,
    window_id: u64,
    close_reason: CloseReason,
    batch: Vec<Submission>,
) {
    let subs: Vec<&[String]> = batch.iter().map(|s| s.exprs.as_slice()).collect();
    // Appends only land between windows, so the epoch is fixed for the
    // whole window: every answer below is a read of this one snapshot.
    let epoch = engine.cube().epoch;
    // Telemetry: the submissions aboard and why the window froze, emitted
    // coordinator-side in batch order (the engine's own `window.close`
    // span follows inside `mdx_window`).
    let tele = engine.telemetry().clone();
    tele.metrics(|m| m.queue_depth = batch.len() as u64);
    tele.trace(|t| {
        for (slot, s) in batch.iter().enumerate() {
            t.event(
                "session.submit",
                vec![
                    ("window_id", window_id.into()),
                    ("slot", slot.into()),
                    ("tenant", s.tenant.name.as_str().into()),
                    ("n_exprs", s.exprs.len().into()),
                    ("close_reason", close_reason.as_str().into()),
                ],
            );
        }
    });
    match engine.mdx_window(&subs) {
        Ok(out) => {
            shared.note_cache(&out.cache);
            deliver(window_id, epoch, close_reason, batch, out);
        }
        Err(e) if batch.len() == 1 => {
            for s in batch {
                let _ = s.reply.try_send(Err(e.clone()));
                s.tenant.release();
            }
        }
        Err(_) => {
            // A window-level planning failure with several submissions
            // aboard: re-run each submission alone so one tenant's
            // unplannable query set cannot fail its window-mates.
            for s in batch {
                match engine.mdx_window(&[s.exprs.as_slice()]) {
                    Ok(out) => {
                        shared.note_cache(&out.cache);
                        deliver(window_id, epoch, close_reason, vec![s], out);
                    }
                    Err(e) => {
                        let _ = s.reply.try_send(Err(e));
                        s.tenant.release();
                    }
                }
            }
        }
    }
}

/// Routes one executed window's outcomes back to its submissions.
fn deliver(
    window_id: u64,
    epoch: u64,
    close_reason: CloseReason,
    batch: Vec<Submission>,
    out: WindowOutcome,
) {
    let info = WindowInfo {
        window_id,
        epoch,
        n_submissions: out.sharing.n_submissions,
        n_queries: out.sharing.n_queries,
        n_classes: out.sharing.n_classes,
        cross_session_classes: out.sharing.cross_submission_classes,
        shared_scan_ratio: out.sharing.shared_scan_ratio,
        cache_hits: out.cache.hits(),
        cache_subsumption_hits: out.cache.subsumption_hits,
        sim: out.report.exec.sim,
        wall: out.report.wall,
        busy: out.report.busy(),
        close_reason,
        profiles: Vec::new(),
    };
    debug_assert_eq!(out.submissions.len(), batch.len());
    let mut attributed = out.attributed.into_iter();
    let mut profiles = out.profiles.into_iter();
    for (s, outcomes) in batch.into_iter().zip(out.submissions) {
        let mut window = info.clone();
        window.profiles = profiles.next().unwrap_or_default();
        let reply = Reply {
            outcomes,
            attributed: attributed.next().unwrap_or(SimTime::ZERO),
            window,
        };
        let _ = s.reply.try_send(Ok(reply));
        s.tenant.release();
    }
}
