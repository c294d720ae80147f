//! Set-up and the untraced, end-to-end runs.
//!
//! Engines use the user defaults (`EngineConfig::new()`); served workloads
//! add `result_cache(true)` and keep the default `WindowConfig`. Telemetry
//! stays off. Every reply is fingerprinted; the first answer to each
//! (expression, epoch) is kept for the correctness gate, and every later
//! answer must carry the same fingerprint.

use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use starshare_core::{
    paper_cube, Engine, EngineConfig, ExprOutcome, HardwareModel, QueryResult, Result, SimTime,
};
use starshare_serve::{Reply, Server, Ticket};

use crate::report::{self, maybe, metric, ms, Metric};
use crate::workload::{Inputs, Params, Workload};

/// Latency limit of the `dashboard-open` service-level objective.
pub const SLO: Duration = Duration::from_millis(25);

/// Open-loop tenants the generator round-robins over.
const TENANTS: usize = 8;

/// Consecutive slices a run's submissions are cut into. Latency
/// percentiles and throughput are taken per slice and the median over the
/// slices is reported, so a burst of host contention that spans fewer
/// than half of them does not move the figures.
pub const SLICES: usize = 9;

/// The engine configuration a workload runs under.
pub fn config(workload: Workload) -> EngineConfig {
    EngineConfig::new().result_cache(workload.served())
}

/// What one run is driven through.
pub enum Target {
    /// `Engine::mdx_many`, one batch per submission.
    Engine(Box<Engine>),
    /// `Session` handles on a server.
    Server(Server),
}

/// Builds `repeats` (at least one) complete set-ups one after another
/// (generate the cube, build the engine, start the server), dropping each
/// before the next so only one is ever alive, and keeps the last; returns
/// it with every set-up's wall time in seconds.
pub fn setup(workload: Workload, repeats: usize, inputs: &Inputs) -> (Target, Vec<f64>) {
    let mut secs = Vec::new();
    let mut kept = None;
    for _ in 0..repeats.max(1) {
        drop(kept.take());
        let started = Instant::now();
        let engine = config(workload).build(paper_cube(inputs.spec), HardwareModel::paper_1998());
        kept = Some(if workload.served() {
            Target::Server(Server::start(engine))
        } else {
            Target::Engine(Box::new(engine))
        });
        secs.push(started.elapsed().as_secs_f64());
    }
    (kept.expect("at least one set-up"), secs)
}

/// One submission as the client saw it.
#[derive(Clone, Debug)]
pub struct SubRec {
    /// Expression ids.
    pub exprs: Vec<usize>,
    /// Append batch sent just before (index into `Inputs::batches`).
    pub append: Option<usize>,
    /// Cube epoch the answers read.
    pub epoch: u64,
    /// Client latency (from the due time on the open loop); `None` when
    /// the submission failed or was refused.
    pub latency: Option<Duration>,
    /// Wall time this submission accounts for in the throughput: its
    /// client calls (closed loops, the append included) or the time since
    /// the previous reply arrived (open loop).
    pub span: Duration,
    /// Serving window the submission rode in.
    pub window: Option<u64>,
    /// Per expression: fingerprint of its rows, `None` if a query failed.
    pub prints: Vec<Option<u64>>,
    /// Queries answered.
    pub queries: usize,
}

/// A serving window as its replies describe it.
#[derive(Clone, Copy, Debug)]
pub struct WindowRec {
    /// Plan + execute + route envelope inside the coordinator.
    pub wall: Duration,
    /// Queries in the window (cache hits included).
    pub n_queries: usize,
    /// Classes in the window's plan (misses only).
    pub n_classes: usize,
    /// Queries answered from the result cache.
    pub cache_hits: u64,
}

/// The first answer to each (expression, epoch), for the gate.
#[derive(Default)]
pub struct Answers {
    /// `(expression, epoch)` → (fingerprint, results in binding order).
    pub reps: HashMap<(usize, u64), (u64, Vec<QueryResult>)>,
    /// Answers that disagreed with an earlier answer to the same
    /// expression at the same epoch.
    pub inconsistent: u64,
}

impl Answers {
    /// Records one expression's outcome; returns its fingerprint (`None`
    /// when any query failed) and the queries it answered.
    fn absorb(
        &mut self,
        expr: usize,
        epoch: u64,
        out: &Result<ExprOutcome>,
    ) -> (Option<u64>, usize) {
        let Ok(eo) = out else {
            return (None, 0);
        };
        let answered = eo.ok_results().count();
        if !eo.all_ok() {
            return (None, answered);
        }
        let print = fingerprint(eo.ok_results());
        match self.reps.entry((expr, epoch)) {
            Entry::Vacant(slot) => {
                slot.insert((print, eo.ok_results().cloned().collect()));
            }
            Entry::Occupied(slot) => {
                if slot.get().0 != print {
                    self.inconsistent += 1;
                }
            }
        }
        (Some(print), answered)
    }
}

/// Bit-exact fingerprint of a sequence of results.
pub fn fingerprint<'a>(results: impl Iterator<Item = &'a QueryResult>) -> u64 {
    let mut h = DefaultHasher::new();
    for r in results {
        r.rows.len().hash(&mut h);
        for (key, m) in &r.rows {
            key.hash(&mut h);
            m.to_bits().hash(&mut h);
        }
    }
    h.finish()
}

/// Everything one untraced run observed.
#[derive(Default)]
pub struct Record {
    /// Submissions in send order.
    pub subs: Vec<SubRec>,
    /// Serving windows by id.
    pub windows: BTreeMap<u64, WindowRec>,
    /// `append-stream`: client latency of each append.
    pub appends: Vec<Duration>,
    /// Appends that failed.
    pub failed_appends: u64,
    /// Simulated time of everything answered: execution, rollups, patches.
    pub sim: SimTime,
    /// Open loop: how late each submission was sent.
    pub lags: Vec<Duration>,
    /// Submissions the server refused.
    pub rejected: u64,
    /// Answers kept for the gate.
    pub answers: Answers,
}

impl Record {
    /// Submissions and appends attempted.
    pub fn attempted(&self) -> u64 {
        (self.subs.len() + self.appends.len()) as u64 + self.failed_appends
    }

    /// Submissions and appends that failed or were refused.
    pub fn failed(&self) -> u64 {
        self.subs.iter().filter(|s| s.latency.is_none()).count() as u64 + self.failed_appends
    }

    fn push(&mut self, mut sub: SubRec, outcomes: Option<&[Result<ExprOutcome>]>) {
        if let Some(outcomes) = outcomes {
            for (&expr, out) in sub.exprs.iter().zip(outcomes) {
                let (print, answered) = self.answers.absorb(expr, sub.epoch, out);
                sub.queries += answered;
                sub.prints.push(print);
            }
        }
        if sub.prints.len() != sub.exprs.len() || sub.prints.iter().any(Option::is_none) {
            sub.latency = None;
        }
        self.subs.push(sub);
    }

    fn push_reply(&mut self, sub: SubRec, reply: Result<Reply>) {
        match reply {
            Ok(reply) => {
                let w = &reply.window;
                self.windows.entry(w.window_id).or_insert_with(|| {
                    self.sim += w.sim;
                    WindowRec {
                        wall: w.wall,
                        n_queries: w.n_queries,
                        n_classes: w.n_classes,
                        cache_hits: w.cache_hits,
                    }
                });
                let sub = SubRec {
                    epoch: w.epoch,
                    window: Some(w.window_id),
                    ..sub
                };
                self.push(sub, Some(&reply.outcomes));
            }
            Err(e) => {
                if e.is_overloaded() {
                    self.rejected += 1;
                }
                self.push(
                    SubRec {
                        latency: None,
                        ..sub
                    },
                    None,
                );
            }
        }
    }
}

fn pending(exprs: Vec<usize>, append: Option<usize>, latency: Duration, span: Duration) -> SubRec {
    SubRec {
        exprs,
        append,
        epoch: 0,
        latency: Some(latency),
        span,
        window: None,
        prints: Vec::new(),
        queries: 0,
    }
}

/// Runs the workload's timed phase and returns what it saw plus the
/// engine (handed back by the server for served workloads).
pub fn run(
    workload: Workload,
    target: Target,
    inputs: &mut Inputs,
    params: &Params,
) -> (Record, Engine) {
    match (workload, target) {
        (Workload::DashboardOpen, Target::Server(server)) => open_loop(server, inputs, params),
        (Workload::AppendStream, Target::Server(server)) => stream(server, inputs, params),
        (_, Target::Engine(mut engine)) => {
            let rec = batches(&mut engine, inputs, params);
            (rec, *engine)
        }
        (_, Target::Server(_)) => unreachable!("only served workloads build a server"),
    }
}

/// Whether a closed loop that started at `started` and has sent `sent`
/// submissions goes on.
fn more(started: Instant, sent: usize, params: &Params) -> bool {
    started.elapsed().as_secs_f64() < params.seconds || sent < params.min_samples
}

/// Closed loop, one client: each submission is one `Engine::mdx_many` call.
fn batches(engine: &mut Engine, inputs: &mut Inputs, params: &Params) -> Record {
    let mut rec = Record::default();
    let started = Instant::now();
    let mut i = 0;
    while more(started, i, params) {
        let sub = inputs.next(i);
        i += 1;
        let texts = inputs.texts(&sub);
        let t = Instant::now();
        let out = engine.mdx_many(&texts);
        let latency = t.elapsed();
        let pending = pending(sub.exprs, None, latency, latency);
        match out {
            Ok(out) => {
                rec.sim += out.report.sim;
                rec.push(pending, Some(&out.outcomes));
            }
            Err(_) => rec.push(pending, None),
        }
    }
    rec
}

/// Closed loop through one `Session`: append a batch, then refresh. Rounds
/// start no faster than `params.stream_rounds_per_s`, so the cube grows by
/// the same rows per second whatever the host's speed, and a slow spell
/// does not change how large the cube is for the rest of the run.
fn stream(server: Server, inputs: &mut Inputs, params: &Params) -> (Record, Engine) {
    let session = server.session("stream");
    let mut rec = Record::default();
    let period = Duration::from_secs_f64(1.0 / params.stream_rounds_per_s);
    let started = Instant::now();
    let mut i = 0;
    while more(started, i, params) {
        if let Some(wait) = (started + period * i as u32).checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let sub = inputs.next(i);
        i += 1;
        let mut span = Duration::ZERO;
        if let Some(b) = sub.append {
            let t = Instant::now();
            let out = session.append(&inputs.batches[b]);
            let latency = t.elapsed();
            span += latency;
            match out {
                Ok(out) => {
                    rec.sim += out.report.sim;
                    rec.appends.push(latency);
                }
                Err(_) => rec.failed_appends += 1,
            }
        }
        let texts = inputs.texts(&sub);
        let t = Instant::now();
        let reply = session.mdx_many(&texts);
        let latency = t.elapsed();
        span += latency;
        rec.push_reply(pending(sub.exprs, sub.append, latency, span), reply);
    }
    drop(session);
    (rec, server.shutdown())
}

/// Open loop: one generator thread sends on a fixed schedule without
/// waiting; this thread collects replies in order. Latency runs from the
/// time each submission was due, so a stall counts against every
/// submission queued behind it.
fn open_loop(server: Server, inputs: &mut Inputs, params: &Params) -> (Record, Engine) {
    let n = (params.rate_per_s * params.seconds).round().max(1.0) as usize;
    let subs: Vec<_> = (0..n).map(|i| inputs.next(i)).collect();
    let texts: Vec<Vec<&str>> = subs.iter().map(|s| inputs.texts(s)).collect();
    let sessions: Vec<_> = (0..TENANTS)
        .map(|t| server.session(&format!("user-{t}")))
        .collect();
    let period = Duration::from_secs_f64(1.0 / params.rate_per_s);
    type Sent = (Instant, Instant, Result<Ticket>);
    let (tx, rx) = mpsc::channel::<Sent>();
    let mut replies: Vec<(Instant, Instant, Result<Reply>, Instant)> = Vec::with_capacity(n);
    let start = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|s| {
        let texts = &texts;
        let sessions = &sessions;
        s.spawn(move || {
            for (i, t) in texts.iter().enumerate() {
                let due = start + period * i as u32;
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let sent = Instant::now();
                let ticket = sessions[i % TENANTS].submit(t);
                if tx.send((due, sent, ticket)).is_err() {
                    break;
                }
            }
        });
        for (due, sent, ticket) in rx {
            let (reply, done) = match ticket {
                Ok(ticket) => {
                    let reply = ticket.wait();
                    (reply, Instant::now())
                }
                Err(e) => (Err(e), Instant::now()),
            };
            replies.push((due, sent, reply, done));
        }
    });
    drop(sessions);
    let mut rec = Record::default();
    let mut last = start;
    for (sub, (due, sent, reply, done)) in subs.into_iter().zip(replies) {
        rec.lags.push(sent.saturating_duration_since(due));
        let span = done.saturating_duration_since(last);
        last = last.max(done);
        rec.push_reply(pending(sub.exprs, None, done - due, span), reply);
    }
    (rec, server.shutdown())
}

/// Resident-set peaks (`VmHWM`, MiB) of one run.
pub struct Rss {
    /// At the end of set-up: the cube, the engine and the server.
    pub setup: Option<f64>,
    /// At the end of the timed phase.
    pub peak: Option<f64>,
}

/// The end-to-end metrics: the set every workload reports (in
/// `BENCHMARK.json`) and the workload-specific extras.
pub fn end_to_end(
    workload: Workload,
    rec: &Record,
    setup_secs: &[f64],
    rss: Rss,
    wrong: u64,
) -> (Vec<Metric>, Vec<Metric>) {
    let lat: Vec<f64> = rec.subs.iter().filter_map(|s| s.latency.map(ms)).collect();
    let queries: usize = rec.subs.iter().map(|s| s.queries).sum();
    // Per slice: latency p50, latency p95, queries per second.
    let mut per_slice = [Vec::new(), Vec::new(), Vec::new()];
    for slice in rec.subs.chunks(rec.subs.len().div_ceil(SLICES).max(1)) {
        let lat: Vec<f64> = slice.iter().filter_map(|s| s.latency.map(ms)).collect();
        let queries: usize = slice.iter().map(|s| s.queries).sum();
        let span: Duration = slice.iter().map(|s| s.span).sum();
        let stats = [
            report::percentile(&lat, 0.5),
            report::percentile(&lat, 0.95),
            report::ratio(queries as f64, span.as_secs_f64()),
        ];
        for (all, v) in per_slice.iter_mut().zip(stats) {
            all.extend(v);
        }
    }
    let [p50s, p95s, rates] = per_slice;
    let common = vec![
        maybe("setup_s", report::median(setup_secs), "s"),
        maybe("latency_p50_ms", report::median(&p50s), "ms"),
        maybe("latency_p95_ms", report::median(&p95s), "ms"),
        maybe("queries_per_s", report::median(&rates), "1/s"),
        maybe(
            "sim_s_per_query",
            report::ratio(rec.sim.as_secs_f64(), queries as f64),
            "s",
        ),
        maybe("setup_rss_mb", rss.setup, "MiB"),
    ];
    let mut extra = vec![
        metric("latency_samples", lat.len() as f64, "count"),
        maybe(
            "error_rate",
            report::ratio((rec.failed() + wrong) as f64, rec.attempted() as f64),
            "ratio",
        ),
        maybe("peak_rss_mb", rss.peak, "MiB"),
    ];
    if workload == Workload::DashboardOpen {
        let within = rec
            .subs
            .iter()
            .filter(|s| s.latency.is_some_and(|l| l <= SLO))
            .count();
        extra.push(maybe(
            "slo_attain_frac",
            report::ratio(within as f64, rec.subs.len() as f64),
            "ratio",
        ));
    }
    if workload == Workload::AppendStream {
        let appends: Vec<f64> = rec.appends.iter().copied().map(ms).collect();
        extra.push(maybe("append_p50_ms", report::median(&appends), "ms"));
    }
    (common, extra)
}
