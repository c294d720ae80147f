//! The traced run: replays a recorded submission sequence one stage at a
//! time, timing each layer from outside by calling its public functions:
//! parse → bind → cache lookup → plan → execute → cache admit, with
//! appends between windows.
//!
//! The replay engine runs the user-default configuration with its own
//! cache off and telemetry armed (for the executor's morsel counters); on
//! served workloads a bench-owned `ResultCache` with the engine's budget
//! stands in for the engine's cache, driven exactly as the engine drives
//! its own, so the replay sees the same hits, plans and rows. Served
//! windows are regrouped as the untraced run's replies recorded them. The
//! replayed rows must be bit-identical to the untraced replies.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use starshare_core::{
    bind, parse, plan_window, BufferPool, CacheHit, CpuCounters, Cube, Engine, EngineConfig,
    ExecStrategy, GlobalPlan, GroupByQuery, HardwareModel, HeapFile, IoStats, MorselSpec,
    OptimizerKind, QueryResult, ResultCache, ScanBatch, SimTime, TableId, TelemetryConfig,
    WindowConfig,
};

use crate::drive::{self, Record, SubRec};
use crate::report::{self, maybe, metric, ms, Metric};
use crate::workload::{Inputs, Workload};

/// Stage timings and counters accumulated over the replay.
#[derive(Default)]
struct Acc {
    exprs: u64,
    bound_queries: u64,
    parse: Duration,
    bind: Duration,
    probes: u64,
    probe: Duration,
    admits: u64,
    admit: Duration,
    rollup_sim: SimTime,
    appends: u64,
    append_rows: u64,
    append: Duration,
    patch: Duration,
    patch_sim: SimTime,
    windows: u64,
    planned: u64,
    plan: Duration,
    classes: u64,
    planned_queries: u64,
    qerrors: Vec<f64>,
    exec: Duration,
    exec_busy: Duration,
    scan: Duration,
    probe_exec: Duration,
    exec_sim: SimTime,
    critical: SimTime,
    io: IoStats,
    cpu: CpuCounters,
    ref_scan: Duration,
    traced: Duration,
    staged: Duration,
    untraced: Duration,
    mismatched: u64,
}

/// The traced replay of one workload.
struct Replay<'a> {
    inputs: &'a Inputs,
    engine: Engine,
    cache: Option<ResultCache>,
    optimizer: OptimizerKind,
    strategy: ExecStrategy,
    threads: usize,
    /// Reference scan time per table size seen (tables grow on appends).
    ref_scans: HashMap<(TableId, u64), Duration>,
    acc: Acc,
}

/// Per-layer metrics plus each workload's dominant-layer share.
pub struct Traced {
    /// Every named per-layer metric.
    pub layers: Vec<Metric>,
    /// The workload's stated dominant layer and its share of wall time.
    pub dominant: (&'static str, Option<f64>),
    /// Replayed expressions whose rows differed from the untraced reply.
    pub mismatched: u64,
}

/// Replays `rec` on a fresh engine over `cube`.
pub fn run(workload: Workload, cube: Cube, rec: &Record, inputs: &Inputs, seed: u64) -> Traced {
    let cfg = EngineConfig::new().telemetry(TelemetryConfig::enabled(seed));
    let window = WindowConfig::default();
    let (optimizer, strategy) = if workload.served() {
        (
            window.optimizer,
            ExecStrategy::Morsel(MorselSpec::with_pages(window.morsel_pages)),
        )
    } else {
        (cfg.optimizer, cfg.strategy)
    };
    let threads = cfg.threads;
    let cache_bytes = drive::config(workload).cache_bytes;
    let engine = cfg.build(cube, HardwareModel::paper_1998());
    let cache = workload.served().then(|| {
        let mut c = ResultCache::new(cache_bytes);
        c.advance_epoch(engine.cube().epoch);
        c
    });
    let mut replay = Replay {
        inputs,
        engine,
        cache,
        optimizer,
        strategy,
        threads,
        ref_scans: HashMap::new(),
        acc: Acc::default(),
    };
    // Windows: consecutive submissions sharing a window id (each
    // `mdx_many` submission is a window of its own). Appends replay even
    // when the submission after them failed; failed submissions do not.
    let subs = &rec.subs;
    let mut i = 0;
    while i < subs.len() {
        let mut j = i + 1;
        while j < subs.len() && subs[j].window.is_some() && subs[j].window == subs[i].window {
            j += 1;
        }
        if let Some(b) = subs[i].append {
            replay.append(b);
        }
        let answered: Vec<&SubRec> = subs[i..j].iter().filter(|s| s.latency.is_some()).collect();
        if !answered.is_empty() {
            replay.acc.untraced += match subs[i].window.and_then(|w| rec.windows.get(&w)) {
                Some(w) => w.wall,
                None => answered.iter().filter_map(|s| s.latency).sum(),
            };
            replay.window(&answered);
        }
        i = j;
    }
    // The untraced appends' client latencies pair with the replayed ones.
    replay.acc.untraced += rec.appends.iter().sum::<Duration>();
    replay.finish(workload, rec)
}

impl Replay<'_> {
    fn append(&mut self, batch: usize) {
        let rows = &self.inputs.batches[batch];
        let t = Instant::now();
        let out = self.engine.append_facts(rows);
        let took = t.elapsed();
        self.acc.append += took;
        self.acc.appends += 1;
        self.acc.append_rows += out.map_or(0, |o| o.appended);
        let mut patch = Duration::ZERO;
        if let Some(cache) = &mut self.cache {
            let cube = self.engine.cube();
            let model = self.engine.context().model;
            let t = Instant::now();
            let report = cache.apply_append(&cube.schema, cube.epoch, rows, &model);
            patch = t.elapsed();
            self.acc.patch_sim += report.sim;
        }
        self.acc.patch += patch;
        self.acc.traced += took + patch;
        self.acc.staged += took + patch;
    }

    /// Replays one window stage by stage.
    fn window(&mut self, subs: &[&SubRec]) {
        let acc = &mut self.acc;
        let started = Instant::now();
        let mut staged = Duration::ZERO;
        let schema = self.engine.cube().schema.clone();
        let model = self.engine.context().model;

        // Parse and bind.
        let mut bound: Vec<Vec<Option<Vec<GroupByQuery>>>> = Vec::with_capacity(subs.len());
        for s in subs {
            let mut exprs = Vec::with_capacity(s.exprs.len());
            for &e in &s.exprs {
                let t = Instant::now();
                let parsed = parse(self.inputs.text(e));
                let parse_took = t.elapsed();
                let t = Instant::now();
                let queries = parsed
                    .ok()
                    .and_then(|x| bind(&schema, &x).ok())
                    .map(|b| b.queries);
                let bind_took = t.elapsed();
                acc.parse += parse_took;
                acc.bind += bind_took;
                staged += parse_took + bind_took;
                acc.exprs += 1;
                acc.bound_queries += queries.as_ref().map_or(0, |q| q.len() as u64);
                exprs.push(queries);
            }
            bound.push(exprs);
        }
        let sets: Vec<Vec<GroupByQuery>> = bound
            .iter()
            .map(|exprs| exprs.iter().flatten().flatten().cloned().collect())
            .collect();

        // Cache lookup.
        let mut cached: Vec<Vec<Option<QueryResult>>> = Vec::with_capacity(sets.len());
        let mut misses: Vec<Vec<GroupByQuery>> = Vec::with_capacity(sets.len());
        for set in &sets {
            let mut hits = Vec::with_capacity(set.len());
            let mut miss = Vec::new();
            for q in set {
                let hit = self.cache.as_mut().and_then(|cache| {
                    cache.advance_epoch(self.engine.cube().epoch);
                    let t = Instant::now();
                    let hit = cache.lookup(&schema, q, &model);
                    let took = t.elapsed();
                    acc.probe += took;
                    acc.probes += 1;
                    staged += took;
                    hit
                });
                match hit {
                    Some(CacheHit::Subsumption { result, report }) => {
                        acc.rollup_sim += report.sim;
                        hits.push(Some(result));
                    }
                    Some(hit) => hits.push(Some(hit.into_result())),
                    None => {
                        miss.push(q.clone());
                        hits.push(None);
                    }
                }
            }
            cached.push(hits);
            misses.push(miss);
        }

        // Plan the misses.
        let n_miss: usize = misses.iter().map(Vec::len).sum();
        let (plan, owners) = if n_miss == 0 {
            (GlobalPlan::default(), Vec::new())
        } else {
            let cm = self.engine.cost_model();
            let t = Instant::now();
            let wp = plan_window(&cm, &misses, self.optimizer).expect("window plans");
            let took = t.elapsed();
            acc.plan += took;
            staged += took;
            acc.planned += 1;
            (wp.plan, wp.owners)
        };

        // Execute.
        let t = Instant::now();
        let exec = self.engine.execute_plan_degraded_with(&plan, self.strategy);
        let took = t.elapsed();
        acc.exec += took;
        staged += took;
        for (class, rep) in plan.classes.iter().zip(&exec.per_class) {
            if class.any_hash() {
                acc.scan += rep.wall;
            } else {
                acc.probe_exec += rep.wall;
            }
            acc.exec_busy += rep.busy;
            acc.exec_sim += rep.sim;
            acc.critical += rep.critical;
            acc.io.merge(&rep.io);
            acc.cpu.merge(&rep.cpu);
        }

        // Route: cache answers serve their slots; each miss takes the first
        // unused plan slot its submission owns.
        let slots: Vec<&GroupByQuery> = plan.assignments().map(|(_, q, _)| q).collect();
        let mut pool: Vec<Option<QueryResult>> = exec.results.into_iter().map(|r| r.ok()).collect();
        let mut routed: Vec<Vec<Option<Vec<QueryResult>>>> = Vec::with_capacity(subs.len());
        for (si, exprs) in bound.iter().enumerate() {
            let mut hits = cached[si].iter_mut();
            let mut out = Vec::with_capacity(exprs.len());
            for queries in exprs {
                let results: Option<Vec<QueryResult>> = queries.as_ref().and_then(|qs| {
                    qs.iter()
                        .map(|q| {
                            hits.next().and_then(Option::take).or_else(|| {
                                let slot = (0..slots.len()).find(|&i| {
                                    pool[i].is_some() && owners[i] == si && slots[i] == q
                                })?;
                                pool[slot].take()
                            })
                        })
                        .collect()
                });
                out.push(results);
            }
            routed.push(out);
        }

        // Admit fresh results, priced as the engine prices them.
        if let Some(cache) = &mut self.cache {
            let cm = self.engine.cost_model();
            for r in routed.iter().flatten().flatten().flatten() {
                if cache.contains_exact(&r.query) {
                    continue;
                }
                let t = Instant::now();
                let cost = self
                    .optimizer
                    .run(&cm, std::slice::from_ref(&r.query))
                    .map_or(SimTime::ZERO, |p| p.estimated_cost);
                cache.insert(r.query.clone(), r.clone(), cost);
                let took = t.elapsed();
                acc.admit += took;
                acc.admits += 1;
                staged += took;
            }
        }
        acc.traced += started.elapsed();
        acc.staged += staged;
        acc.windows += 1;

        // Outside the stopwatch: estimate error, reference scans, identity.
        let cm = self.engine.cost_model();
        for (class, rep) in plan.classes.iter().zip(&exec.per_class) {
            acc.classes += 1;
            acc.planned_queries += class.plans.len() as u64;
            let plans: Vec<_> = class.plans.iter().map(|p| (&p.query, p.method)).collect();
            let est = cm
                .class_cost(class.table, &plans)
                .map_or(0.0, |c| c.as_secs_f64());
            let got = rep.sim.as_secs_f64();
            if est > 0.0 && got > 0.0 {
                acc.qerrors.push((est / got).max(got / est));
            }
            if class.any_hash() {
                let heap = self.engine.cube().catalog.table(class.table).heap();
                let threads = self.threads;
                acc.ref_scan += *self
                    .ref_scans
                    .entry((class.table, heap.n_tuples()))
                    .or_insert_with(|| reference_scan(heap, threads));
            }
        }
        for (s, results) in subs.iter().zip(&routed) {
            for (want, got) in s.prints.iter().zip(results) {
                let got = got.as_ref().map(|rs| drive::fingerprint(rs.iter()));
                if got != *want {
                    acc.mismatched += 1;
                }
            }
        }
    }

    fn finish(self, workload: Workload, rec: &Record) -> Traced {
        let a = &self.acc;
        let per = |total: f64, n: u64| report::ratio(total, n as f64);
        let planned = a.planned;
        let stats = self
            .cache
            .as_ref()
            .map(ResultCache::stats)
            .unwrap_or_default();
        let (morsels, steals) = self
            .engine
            .metrics()
            .map_or((0, 0), |m| (m.registry().morsels, m.registry().steals));
        let accesses = a.io.accesses() as f64;
        let served = |v: Option<f64>| if workload.served() { v } else { None };

        // Serving, from the untraced replies.
        let waits: Vec<f64> = rec
            .subs
            .iter()
            .filter_map(|s| {
                let w = rec.windows.get(&s.window?)?;
                Some(ms(s.latency?.saturating_sub(w.wall)))
            })
            .collect();
        let n_windows = rec.windows.len() as f64;
        let window_subs = rec.subs.iter().filter(|s| s.window.is_some()).count() as f64;
        let miss_queries: f64 = rec
            .windows
            .values()
            .map(|w| w.n_queries as f64 - w.cache_hits as f64)
            .sum();
        let window_classes: f64 = rec.windows.values().map(|w| w.n_classes as f64).sum();
        let lags: Vec<f64> = rec.lags.iter().copied().map(ms).collect();

        let mut qerrors = a.qerrors.clone();
        qerrors.sort_by(f64::total_cmp);
        let layers = vec![
            maybe(
                "mdx.parse_us",
                per(a.parse.as_secs_f64() * 1e6, a.exprs),
                "us",
            ),
            maybe(
                "mdx.bind_us",
                per(a.bind.as_secs_f64() * 1e6, a.exprs),
                "us",
            ),
            maybe(
                "mdx.queries_per_expr",
                per(a.bound_queries as f64, a.exprs),
                "ratio",
            ),
            maybe(
                "cache.probe_us",
                per(a.probe.as_secs_f64() * 1e6, a.probes),
                "us",
            ),
            maybe(
                "cache.admit_us",
                per(a.admit.as_secs_f64() * 1e6, a.admits),
                "us",
            ),
            metric("cache.exact_hits", stats.exact_hits as f64, "count"),
            metric(
                "cache.subsumption_hits",
                stats.subsumption_hits as f64,
                "count",
            ),
            metric("cache.misses", stats.misses as f64, "count"),
            maybe(
                "cache.hit_ratio",
                report::ratio(stats.hits() as f64, (stats.hits() + stats.misses) as f64),
                "ratio",
            ),
            metric("cache.evictions", stats.evictions as f64, "count"),
            maybe(
                "cache.rollup_sim_ms",
                served(Some(a.rollup_sim.as_secs_f64() * 1e3)),
                "ms",
            ),
            metric("cache.patched", stats.patched as f64, "count"),
            metric("cache.patch_drops", stats.patch_drops as f64, "count"),
            maybe("olap.append_ms", per(ms(a.append), a.appends), "ms"),
            maybe(
                "olap.append_rows_per_s",
                report::ratio(a.append_rows as f64, a.append.as_secs_f64()),
                "1/s",
            ),
            maybe(
                "olap.patch_sim_ms",
                per(a.patch_sim.as_secs_f64() * 1e3, a.appends),
                "ms",
            ),
            maybe("opt.plan_ms", per(ms(a.plan), planned), "ms"),
            maybe("opt.classes", per(a.classes as f64, planned), "count"),
            maybe(
                "opt.queries_per_class",
                per(a.planned_queries as f64, a.classes),
                "ratio",
            ),
            maybe("opt.cost_qerror_p50", report::median(&qerrors), "ratio"),
            maybe("opt.cost_qerror_max", qerrors.last().copied(), "ratio"),
            maybe("exec.scan_ms", per(ms(a.scan), planned), "ms"),
            maybe("exec.probe_ms", per(ms(a.probe_exec), planned), "ms"),
            maybe("exec.wall_ms", per(ms(a.exec), planned), "ms"),
            maybe("exec.busy_ms", per(ms(a.exec_busy), planned), "ms"),
            maybe(
                "exec.parallel_eff",
                report::ratio(
                    a.exec_busy.as_secs_f64(),
                    a.exec.as_secs_f64() * self.threads as f64,
                ),
                "ratio",
            ),
            maybe("exec.sim_s", per(a.exec_sim.as_secs_f64(), planned), "s"),
            maybe(
                "exec.critical_s",
                per(a.critical.as_secs_f64(), planned),
                "s",
            ),
            maybe(
                "exec.hash_probes",
                per(a.cpu.hash_probes as f64, planned),
                "count",
            ),
            maybe(
                "exec.agg_updates",
                per(a.cpu.agg_updates as f64, planned),
                "count",
            ),
            maybe(
                "exec.predicate_evals",
                per(a.cpu.predicate_evals as f64, planned),
                "count",
            ),
            maybe("exec.morsels", per(morsels as f64, planned), "count"),
            maybe("exec.steals", per(steals as f64, planned), "count"),
            maybe(
                "exec.scan_gap",
                report::ratio(a.scan.as_secs_f64(), a.ref_scan.as_secs_f64()),
                "ratio",
            ),
            maybe(
                "bitmap.words",
                per(a.cpu.bitmap_words as f64, planned),
                "count",
            ),
            maybe(
                "bitmap.tests",
                per(a.cpu.bitmap_tests as f64, planned),
                "count",
            ),
            maybe(
                "storage.seq_faults",
                per(a.io.seq_faults as f64, planned),
                "count",
            ),
            maybe(
                "storage.random_faults",
                per(a.io.random_faults as f64, planned),
                "count",
            ),
            maybe("storage.pool_hits", per(a.io.hits as f64, planned), "count"),
            maybe(
                "storage.pool_hit_ratio",
                report::ratio(a.io.hits as f64, accesses),
                "ratio",
            ),
            maybe(
                "storage.bytes_scanned",
                per(a.io.bytes_scanned() as f64, planned),
                "B",
            ),
            maybe(
                "storage.decompress_bytes",
                per(a.io.decompress_bytes as f64, planned),
                "B",
            ),
            maybe("storage.ref_scan_ms", per(ms(a.ref_scan), planned), "ms"),
            maybe(
                "serve.queue_wait_ms",
                served(report::ratio(waits.iter().sum(), waits.len() as f64)),
                "ms",
            ),
            maybe(
                "serve.window_ms",
                served(report::ratio(
                    rec.windows.values().map(|w| ms(w.wall)).sum(),
                    n_windows,
                )),
                "ms",
            ),
            maybe(
                "serve.subs_per_window",
                served(report::ratio(window_subs, n_windows)),
                "ratio",
            ),
            maybe(
                "serve.shared_scan_ratio",
                served(report::ratio(miss_queries, window_classes)),
                "ratio",
            ),
            maybe("serve.rejected", served(Some(rec.rejected as f64)), "count"),
            maybe("loadgen.lag_p95_ms", report::percentile(&lags, 0.95), "ms"),
            maybe(
                "core.unattributed_ms",
                per(ms(a.traced.saturating_sub(a.staged)), a.windows),
                "ms",
            ),
            maybe(
                "trace.overhead_frac",
                report::ratio(a.traced.as_secs_f64(), a.untraced.as_secs_f64()).map(|r| r - 1.0),
                "ratio",
            ),
        ];

        let traced = a.traced.as_secs_f64();
        let dominant = match workload {
            Workload::PaperTests => (
                "exec_share_of_traced_wall",
                report::ratio(a.exec.as_secs_f64(), traced),
            ),
            Workload::AdhocWide => (
                "opt.plan_share_of_traced_wall",
                report::ratio(a.plan.as_secs_f64(), traced),
            ),
            Workload::DashboardOpen => {
                let latency: f64 = rec.subs.iter().filter_map(|s| s.latency).map(ms).sum();
                let cache = ms(a.probe + a.admit);
                (
                    "serve_wait+cache_share_of_latency",
                    report::ratio(waits.iter().sum::<f64>() + cache, latency),
                )
            }
            Workload::AppendStream => (
                "olap.append_share_of_round_wall",
                report::ratio(a.append.as_secs_f64(), traced),
            ),
        };
        Traced {
            layers,
            dominant,
            mismatched: a.mismatched,
        }
    }
}

/// Decodes and sums `heap`'s pages with `HeapFile::scan_batches` and no
/// joins, split page-aligned over `threads` workers, each with a private
/// pool: the hardware reference a scan class is compared with. The median
/// of three passes.
fn reference_scan(heap: &HeapFile, threads: usize) -> Duration {
    let per_page = heap.layout().tuples_per_page() as u64;
    let chunk = heap.n_tuples().div_ceil(threads as u64).div_ceil(per_page) * per_page;
    let mut passes: Vec<Duration> = (0..3)
        .map(|_| {
            let t = Instant::now();
            std::thread::scope(|s| {
                for w in 0..threads as u64 {
                    s.spawn(move || {
                        let mut pool = BufferPool::new(heap.page_count() as usize + 1);
                        let mut batch = ScanBatch::new(heap.layout());
                        let mut cursor = heap.scan_batches(w * chunk, (w + 1) * chunk);
                        let mut sum = 0.0;
                        while cursor.next_into(&mut pool, &mut batch) {
                            for i in 0..batch.len() {
                                sum += batch.measure(i);
                            }
                        }
                        black_box(sum)
                    });
                }
            });
            t.elapsed()
        })
        .collect();
    passes.sort();
    passes[1]
}
