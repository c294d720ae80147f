//! Feature-gate workloads shared by `feature_gates.rs`, which asserts
//! every gate, and `sim_baseline.rs`, which records each gate's compared
//! simulated totals in `BENCH_sim.json`.
//!
//! Each workload runs one engine feature against its baseline and returns
//! only the fields its gates read. Times are the deterministic simulated
//! 1998 clock; nothing here reads a wall clock.
//!
//! * [`kernel_gate`]: the compiled-kernel shared scan against the
//!   pre-kernel row loop ([`run_legacy`]), a test-only oracle for rows and
//!   the simulated clock.
//! * [`parallel_gate`]: the morsel executor across [`THREAD_COUNTS`], on a
//!   balanced shared scan and a skewed index probe.
//! * [`serving_gate`]: one shared optimization window against per-session
//!   isolation, at each of [`SERVING_SESSIONS`].
//! * [`cache_gate`]: repeated dashboard refreshes, cache-less against a
//!   warm result cache, plus a byte-budget sweep.
//! * [`streaming_gate`]: append-then-refresh rounds, delta patching
//!   against a cache-less engine that recomputes every refresh.
//! * [`storage_gate`]: compressed and zone-pruned scans against the plain
//!   layout, and a ten-times-larger compressed build under a storage
//!   budget.

#![allow(dead_code)] // each test binary reads a different subset

use std::collections::HashMap;
use std::time::Duration;

use starshare_bench::{build_engine, forced_class, query, table};
use starshare_core::{
    combine_mode, execute_class, paper_queries::paper_query_text, paper_schema,
    shared_scan_hash_join, AggState, BufferPool, CacheStats, Catalog, ClassSpec, CombineMode,
    CpuCounters, Cube, CubeBuilder, Engine, EngineConfig, ExecContext, ExecReport, GlobalPlan,
    GroupBy, GroupByQuery, HardwareModel, HeapFile, IndexFormat, IoStats, JoinMethod, LevelRef,
    MemberPred, OptimizerKind, PaperCubeSpec, QueryResult, SimTime, StoredTable, TableId,
    TupleLayout, WindowConfig, WindowOutcome, DEFAULT_MORSEL_PAGES, PAGE_SIZE,
};
use starshare_prng::Prng;
use starshare_serve::Server;

/// The paper-cube scale every gate and the sim baseline run at (20,000
/// base rows).
pub const SCALE: f64 = 0.01;

/// Submission 0's per-query answers of two window runs, bit-compared.
fn window_equal(a: &WindowOutcome, b: &WindowOutcome) -> bool {
    let (a, b) = (a.submission(0), b.submission(0));
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x, y) {
            (Ok(x), Ok(y)) => {
                x.results.len() == y.results.len()
                    && x.results
                        .iter()
                        .zip(&y.results)
                        .all(|(rx, ry)| matches!((rx, ry), (Ok(rx), Ok(ry)) if rx.bit_eq(ry)))
            }
            _ => false,
        })
}

/// Every window of two legs, bit-compared.
fn leg_equal(a: &[WindowOutcome], b: &[WindowOutcome]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| window_equal(x, y))
}

/// Paper queries Q1–Q4 and the base table `ABCD` they share a scan of.
fn fig10_workload(engine: &Engine) -> (TableId, Vec<GroupByQuery>) {
    (
        table(engine, "ABCD"),
        (1..=4).map(|n| query(engine, n)).collect(),
    )
}

// ---------------------------------------------------------------------------
// Kernels: compiled kernels against the pre-kernel row loop
// ---------------------------------------------------------------------------

/// Sorted `(group key, value)` rows for one query.
type QueryRows = Vec<(Vec<u32>, f64)>;

/// Pre-kernel per-query state: rolled predicate steps, aggregation-key
/// extraction, and a `Vec<u32>`-keyed hash aggregation table, the shape
/// the shared-scan operator had before compiled kernels.
struct LegacyState {
    preds: Vec<LegacyPred>,
    extract: Vec<(usize, u32)>,
    mode: CombineMode,
    probe_mask: u64,
    groups: HashMap<Vec<u32>, AggState>,
    scratch: Vec<u32>,
}

struct LegacyPred {
    dim: usize,
    divisor: u32,
    members: Vec<u32>,
}

impl LegacyState {
    /// Compiles `q` against `table`'s stored group-by, independently of the
    /// engine's `DimPipeline`.
    fn compile(cube: &Cube, table: TableId, q: &GroupByQuery) -> Self {
        let schema = &cube.schema;
        let t = cube.catalog.table(table);
        let stored = t.group_by();
        let mut preds = Vec::new();
        let mut extract = Vec::new();
        let mut probe_mask = 0u64;
        for d in 0..schema.n_dims() {
            let s = match stored.level(d) {
                LevelRef::Level(s) => s,
                LevelRef::All => continue,
            };
            let rolls = |to: u8| schema.dim(d).cardinality(s) / schema.dim(d).cardinality(to);
            let mut needs_probe = false;
            if let LevelRef::Level(target) = q.group_by.level(d) {
                extract.push((d, rolls(target)));
                needs_probe |= target > s;
            }
            if let MemberPred::In { level, members } = &q.preds[d] {
                preds.push(LegacyPred {
                    dim: d,
                    divisor: rolls(*level),
                    members: members.clone(),
                });
                needs_probe |= *level > s;
            }
            if needs_probe {
                probe_mask |= 1 << d;
            }
        }
        LegacyState {
            preds,
            extract,
            mode: combine_mode(q.agg, t.measure()),
            probe_mask,
            groups: HashMap::new(),
            scratch: Vec::new(),
        }
    }

    /// The pre-kernel `feed_tuple`: binary-search predicate tests, then a
    /// `get_mut` probe followed by a second `insert` probe on miss.
    fn feed(&mut self, keys: &[u32], measure: f64, cpu: &mut CpuCounters) {
        for p in &self.preds {
            cpu.predicate_evals += 1;
            let rolled = keys[p.dim] / p.divisor;
            if p.members.binary_search(&rolled).is_err() {
                return;
            }
        }
        self.scratch.clear();
        for &(dim, divisor) in &self.extract {
            self.scratch.push(keys[dim] / divisor);
        }
        cpu.hash_probes += 1;
        if let Some(st) = self.groups.get_mut(&self.scratch) {
            st.fold(self.mode, measure);
        } else {
            cpu.hash_builds += 1;
            self.groups
                .insert(self.scratch.clone(), AggState::first(self.mode, measure));
        }
        cpu.agg_updates += 1;
        cpu.tuple_copies += 1;
    }

    fn into_rows(self) -> QueryRows {
        let mode = self.mode;
        let mut rows: QueryRows = self
            .groups
            .into_iter()
            .map(|(k, st)| (k, st.value(mode)))
            .collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        rows
    }
}

/// One cold run of the pre-kernel shared scan: fresh pool, fresh states,
/// tuple-at-a-time cursor. Returns per-query rows and the simulated time,
/// charging the same counters the engine charges.
fn run_legacy(
    cube: &Cube,
    t: TableId,
    queries: &[GroupByQuery],
    model: &HardwareModel,
) -> (Vec<QueryRows>, SimTime) {
    let mut pool = BufferPool::for_model(model);
    let mut cpu = CpuCounters::default();
    let mut states: Vec<LegacyState> = queries
        .iter()
        .map(|q| LegacyState::compile(cube, t, q))
        .collect();

    // Dimension hash tables, built once for the union of probed dimensions.
    let stored = cube.catalog.table(t).group_by();
    let union_mask = states.iter().fold(0u64, |m, s| m | s.probe_mask);
    for d in 0..cube.schema.n_dims() {
        if union_mask & (1 << d) != 0 {
            if let LevelRef::Level(s) = stored.level(d) {
                cpu.hash_builds += cube.schema.dim(d).cardinality(s) as u64;
            }
        }
    }
    let probes_per_tuple = union_mask.count_ones() as u64;

    let heap = cube.catalog.table(t).heap();
    let mut cursor = heap.scan();
    let mut keys = vec![0u32; cube.schema.n_dims()];
    let mut pos = 0u64;
    while let Some(measure) = cursor.next_into(&mut pool, &mut keys, &mut pos) {
        cpu.tuple_copies += 1;
        cpu.hash_probes += probes_per_tuple;
        for st in &mut states {
            st.feed(&keys, measure, &mut cpu);
        }
    }

    let sim = pool.stats().io_time(model) + model.cpu_time(&cpu);
    (
        states.into_iter().map(LegacyState::into_rows).collect(),
        sim,
    )
}

/// What the kernels gate compares.
pub struct KernelGate {
    /// The legacy loop reproduced the engine's result rows exactly.
    pub rows_match: bool,
    /// Simulated time of the engine's compiled-kernel shared scan.
    pub engine_sim: SimTime,
    /// Simulated time of the pre-kernel row loop.
    pub legacy_sim: SimTime,
}

/// Runs the Figure-10 shared scan (Q1–Q4, hash, `ABCD`) through the
/// engine's compiled kernels and through the pre-kernel row loop.
pub fn kernel_gate(scale: f64) -> KernelGate {
    let engine = build_engine(scale);
    let (t, queries) = fig10_workload(&engine);
    let cube = engine.cube();
    let mut ctx = ExecContext::paper_1998();
    let (results, report) =
        shared_scan_hash_join(&mut ctx, cube, t, &queries).expect("workload runs");
    let engine_rows: Vec<QueryRows> = results.into_iter().map(|r| r.rows).collect();
    let (legacy_rows, legacy_sim) = run_legacy(cube, t, &queries, &HardwareModel::paper_1998());
    KernelGate {
        rows_match: engine_rows == legacy_rows,
        engine_sim: report.sim,
        legacy_sim,
    }
}

// ---------------------------------------------------------------------------
// Parallel: the morsel executor across thread counts
// ---------------------------------------------------------------------------

/// Thread counts the parallel gate sweeps.
pub const THREAD_COUNTS: [usize; 3] = [1, 4, 16];

/// Base rows of the skewed probe table.
pub const PROBE_ROWS: u64 = 20_000;

/// A clustered, skewed single-table cube with one selective index probe,
/// the workload candidate-balanced probe morsels exist for.
pub struct SkewedProbe {
    /// Cube holding the clustered base table with a compressed bitmap
    /// index on dimension A at level 1.
    pub cube: Cube,
    /// The (only) stored table.
    pub table: TableId,
    /// Single-member probe of the rare A' member.
    pub query: GroupByQuery,
    /// Rows the predicate selects.
    pub candidates: u64,
}

/// Builds a [`SkewedProbe`] of `rows` base rows.
///
/// About 8 % of dimension A's leaf keys are drawn from the *last* level-1
/// member's range, the rest from the first member's; the table is then
/// sorted by the A key (load-order clustering), so every candidate sits
/// in the final tenth of the pages.
pub fn skewed_probe(rows: u64, seed: u64) -> SkewedProbe {
    let schema = paper_schema(24);
    let mut rng = Prng::seed_from_u64(seed);
    let leaf = schema.dim(0).cardinality(0);
    let members = schema.dim(0).cardinality(1);
    let divisor = leaf / members;
    let rare = members - 1;
    let rare_frac = 0.08;
    let cards: Vec<u32> = (1..4).map(|d| schema.dim(d).cardinality(0)).collect();
    let mut data: Vec<([u32; 4], f64)> = (0..rows)
        .map(|_| {
            let a = if rng.gen_range(0.0..1.0) < rare_frac {
                rng.gen_range(rare * divisor..(rare + 1) * divisor)
            } else {
                rng.gen_range(0..divisor)
            };
            let k = [
                a,
                rng.gen_range(0..cards[0]),
                rng.gen_range(0..cards[1]),
                rng.gen_range(0..cards[2]),
            ];
            (k, rng.gen_range(0.0..100.0))
        })
        .collect();
    data.sort_by_key(|(k, _)| k[0]);
    let candidates = data.iter().filter(|(k, _)| k[0] / divisor == rare).count() as u64;

    let mut catalog = Catalog::new();
    let file = catalog.alloc_file_id();
    let heap = HeapFile::from_rows(file, TupleLayout::new(4), data.iter().cloned());
    let tid = catalog.add_table(StoredTable::new("ABCD", GroupBy::finest(4), heap));
    let ix_file = catalog.alloc_file_id();
    catalog
        .table_mut(tid)
        .build_index_with_format(&schema, 0, 1, IndexFormat::Compressed, ix_file);
    let query = GroupByQuery::new(
        GroupBy::new(vec![
            LevelRef::Level(1),
            LevelRef::All,
            LevelRef::All,
            LevelRef::All,
        ]),
        vec![
            MemberPred::eq(1, rare),
            MemberPred::All,
            MemberPred::All,
            MemberPred::All,
        ],
    );
    SkewedProbe {
        cube: Cube::new(schema, catalog),
        table: tid,
        query,
        candidates,
    }
}

/// One workload's sweep over [`THREAD_COUNTS`].
pub struct ThreadSweep {
    /// Workload label.
    pub name: &'static str,
    /// Every thread count's rows equal the first's, bit for bit.
    pub rows_match: bool,
    /// `(sim, critical, io)` per thread count, in sweep order.
    pub runs: Vec<(SimTime, SimTime, IoStats)>,
}

impl ThreadSweep {
    /// `sim`, `critical` and the I/O counters are identical at every
    /// thread count.
    pub fn clock_invariant(&self) -> bool {
        self.runs.windows(2).all(|w| w[0] == w[1])
    }
}

/// Runs one class cold (fresh [`ExecContext`]) at every thread count.
fn sweep(name: &'static str, cube: &Cube, spec: &ClassSpec) -> ThreadSweep {
    let (runs, results): (Vec<_>, Vec<_>) = THREAD_COUNTS
        .iter()
        .map(|&threads| {
            let mut ctx = ExecContext::paper_1998();
            let oc = execute_class(&mut ctx, cube, spec, threads, DEFAULT_MORSEL_PAGES)
                .expect("gate workload executes");
            let r = oc.report;
            ((r.sim, r.critical, r.io), oc.results)
        })
        .unzip();
    let rows_match = results
        .windows(2)
        .all(|w| w[0].len() == w[1].len() && w[0].iter().zip(&w[1]).all(|(a, b)| a.bit_eq(b)));
    ThreadSweep {
        name,
        rows_match,
        runs,
    }
}

/// Sweeps the morsel executor on the Figure-10 shared scan (at `scale`)
/// and on a [`PROBE_ROWS`]-row skewed probe.
pub fn parallel_gate(scale: f64) -> [ThreadSweep; 2] {
    let engine = build_engine(scale);
    let (t, queries) = fig10_workload(&engine);
    let scan = ClassSpec {
        table: t,
        hash_queries: queries,
        index_queries: Vec::new(),
    };
    let probe = skewed_probe(PROBE_ROWS, 7);
    let probe_spec = ClassSpec {
        table: probe.table,
        hash_queries: Vec::new(),
        index_queries: vec![probe.query.clone()],
    };
    [
        sweep("fig10_scan", engine.cube(), &scan),
        sweep("skewed_probe", &probe.cube, &probe_spec),
    ]
}

// ---------------------------------------------------------------------------
// Serving: one shared window against per-session isolation
// ---------------------------------------------------------------------------

/// Session counts the serving gate sweeps.
pub const SERVING_SESSIONS: [usize; 4] = [1, 2, 4, 8];

/// Expressions each session submits.
pub const EXPRS_PER_SESSION: usize = 2;

/// One session count's comparison.
pub struct ServingRow {
    /// Concurrent sessions.
    pub sessions: usize,
    /// Classes of the shared window fed by more than one session.
    pub cross_session_classes: usize,
    /// Queries per class in the shared window plan.
    pub shared_scan_ratio: f64,
    /// Simulated cost of the shared window.
    pub shared_sim: SimTime,
    /// Summed simulated cost of the isolated per-session runs.
    pub isolated_sim: SimTime,
    /// Every windowed answer was bit-identical to its solo run, and every
    /// attributed cost equalled the solo cost.
    pub differential_ok: bool,
}

/// Session `s`'s expressions: paper queries `s+1` and onwards, wrapping at
/// 9, so neighbouring sessions overlap by one query and cross-session
/// sharing grows with the session count.
fn session_exprs(s: usize) -> Vec<&'static str> {
    (0..EXPRS_PER_SESSION)
        .map(|k| paper_query_text(1 + (s + k) % 9))
        .collect()
}

/// Runs every session count: each session alone on a fresh engine, then
/// all sessions concurrently through one server whose window closes
/// exactly when every expression has arrived.
pub fn serving_gate(scale: f64) -> Vec<ServingRow> {
    let spec = PaperCubeSpec::scaled(scale);
    let engine = || EngineConfig::paper().build_paper(spec);
    SERVING_SESSIONS
        .iter()
        .map(|&n| {
            let sessions: Vec<Vec<&'static str>> = (0..n).map(session_exprs).collect();
            let solos: Vec<WindowOutcome> = sessions
                .iter()
                .map(|exprs| engine().mdx_window(&[exprs.as_slice()]).expect("solo run"))
                .collect();
            let isolated_sim = solos
                .iter()
                .fold(SimTime::ZERO, |acc, o| acc + o.report.exec.sim);

            let cfg = WindowConfig::default()
                .max_exprs(n * EXPRS_PER_SESSION)
                .max_bytes(usize::MAX)
                .max_wait(Duration::from_secs(10));
            let server = Server::start_with(engine(), cfg);
            let replies: Vec<_> = std::thread::scope(|scope| {
                let handles: Vec<_> = sessions
                    .iter()
                    .enumerate()
                    .map(|(s, exprs)| {
                        let session = server.session(&format!("tenant-{s}"));
                        scope.spawn(move || session.mdx_many(exprs).expect("shared window answers"))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("session thread"))
                    .collect()
            });
            drop(server);

            let w = replies[0].window.clone();
            assert!(
                replies.iter().all(|r| r.window.window_id == w.window_id),
                "burst split across windows; raise the close budget"
            );
            assert_eq!(w.n_submissions, n);
            let differential_ok =
                replies.iter().zip(&solos).all(|(reply, solo)| {
                    let solo_answers = solo.submission(0);
                    reply.attributed == solo.attributed[0]
                        && reply.outcomes.len() == solo_answers.len()
                        && reply
                            .outcomes
                            .iter()
                            .zip(solo_answers)
                            .all(|(w, s)| match (w, s) {
                                (Ok(w), Ok(s)) => w.results.len() == s.results.len()
                                    && w.results.iter().zip(&s.results).all(
                                        |(a, b)| matches!((a, b), (Ok(a), Ok(b)) if a.bit_eq(b)),
                                    ),
                                _ => false,
                            })
                });
            ServingRow {
                sessions: n,
                cross_session_classes: w.cross_session_classes,
                shared_scan_ratio: w.shared_scan_ratio,
                shared_sim: w.sim,
                isolated_sim,
                differential_ok,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Cache: repeated dashboard refreshes, cold against warm
// ---------------------------------------------------------------------------

/// Refresh cycles per leg: one cold fill, then the repeated mix.
pub const DASHBOARD_REFRESHES: usize = 4;

/// Panels a dashboard re-issues on every refresh: paper queries Q1–Q4.
pub const DASHBOARD_PANELS: usize = 4;

/// A drill-up the dashboard adds from the second refresh on: Q1 with its
/// `A''.A1.CHILDREN` axis collapsed to the parent member. Its answer is
/// derivable from Q1's strictly finer cached result, so its first
/// appearance is already a subsumption (rollup) hit on a warm cache.
pub const DASHBOARD_COARSE_PROBE: &str = "{A''.A1} on COLUMNS \
     {B''.B1} on ROWS \
     {C''.C1} on PAGES \
     CONTEXT ABCD FILTER (D.DD1);";

/// The MDX expressions of dashboard refresh cycle `refresh` (0-based):
/// the panels alone on refresh 0, the panels plus
/// [`DASHBOARD_COARSE_PROBE`] after that.
pub fn dashboard_refresh(refresh: usize) -> Vec<&'static str> {
    let mut exprs: Vec<&'static str> = (1..=DASHBOARD_PANELS).map(paper_query_text).collect();
    if refresh > 0 {
        exprs.push(DASHBOARD_COARSE_PROBE);
    }
    exprs
}

fn refresh_window(e: &mut Engine, refresh: usize) -> WindowOutcome {
    let exprs = dashboard_refresh(refresh);
    e.mdx_window(&[exprs.as_slice()])
        .expect("dashboard refresh runs")
}

/// The plan settings behind the cache and streaming gates' `BENCH_sim.json`
/// figures: TPLO plans over whole-table morsels.
fn pinned_plans(cfg: EngineConfig) -> EngineConfig {
    cfg.optimizer(OptimizerKind::Tplo).morsel_pages(u32::MAX)
}

/// Summed simulated cost of windows `1..` (the repeated refreshes).
fn repeat_sim(outs: &[WindowOutcome]) -> SimTime {
    outs[1..]
        .iter()
        .fold(SimTime::ZERO, |acc, o| acc + o.report.exec.sim)
}

/// What the cache gate compares.
pub struct CacheGate {
    /// Simulated cost of the repeated refreshes on a cache-less engine.
    pub cold_repeat_sim: SimTime,
    /// The same refreshes on a warm cache at the default byte budget.
    pub warm_repeat_sim: SimTime,
    /// Refresh 1 alone on the warm cache: the refresh whose probe is
    /// answered by subsumption rollup.
    pub subsumption_sim: SimTime,
    /// Cache counters of the default-budget warm leg.
    pub stats: CacheStats,
    /// Every leg's occupancy stayed within its budget after every refresh.
    pub within_budget: bool,
    /// Evictions under the tight budget (one byte short of the working
    /// set).
    pub tight_evictions: u64,
    /// Every cached answer, at every budget, matched the cache-less
    /// engine bit-for-bit.
    pub differential_ok: bool,
}

/// Runs the dashboard mix cache-less, warm at the default budget, and
/// warm under a quarter of and one byte short of the default leg's
/// occupancy.
pub fn cache_gate(scale: f64) -> CacheGate {
    let spec = PaperCubeSpec::scaled(scale);
    let cached = |budget: usize| {
        pinned_plans(EngineConfig::paper())
            .result_cache(true)
            .cache_bytes(budget)
            .build_paper(spec)
    };
    let mut cold = pinned_plans(EngineConfig::paper()).build_paper(spec);
    let cold_outs: Vec<WindowOutcome> = (0..DASHBOARD_REFRESHES)
        .map(|r| refresh_window(&mut cold, r))
        .collect();

    // One warm leg under `budget`, checking occupancy after each refresh.
    let warm_leg = |budget: usize| {
        let mut e = cached(budget);
        let mut within = true;
        let outs: Vec<WindowOutcome> = (0..DASHBOARD_REFRESHES)
            .map(|r| {
                let out = refresh_window(&mut e, r);
                within &= e.cache_bytes() <= budget;
                out
            })
            .collect();
        let ok = leg_equal(&outs, &cold_outs);
        (outs, within, ok, e.cache_stats(), e.cache_bytes())
    };
    let (warm_outs, default_within, default_ok, stats, occupancy) =
        warm_leg(EngineConfig::DEFAULT_CACHE_BYTES);
    // Swept budgets are sized off the default leg's occupancy: "tight"
    // admits every entry but cannot hold them all, so it must evict.
    let (_, quarter_within, quarter_ok, ..) = warm_leg((occupancy / 4).max(1));
    let (_, tight_within, tight_ok, tight_stats, _) = warm_leg(occupancy.saturating_sub(1).max(1));

    CacheGate {
        cold_repeat_sim: repeat_sim(&cold_outs),
        warm_repeat_sim: repeat_sim(&warm_outs),
        subsumption_sim: warm_outs[1].report.exec.sim,
        stats,
        within_budget: default_within && quarter_within && tight_within,
        tight_evictions: tight_stats.evictions,
        differential_ok: default_ok && quarter_ok && tight_ok,
    }
}

// ---------------------------------------------------------------------------
// Streaming: delta patching against epoch drop under appends
// ---------------------------------------------------------------------------

/// Append-then-refresh rounds after the cold fill.
pub const STREAM_ROUNDS: usize = 4;

/// Salt separating the append draws from every other stream.
const STREAM_SALT: u64 = 0x57e4_11a9_b01d_u64;

/// Deterministic append batches: keys within the leaf cardinalities,
/// measures in quarter units.
fn stream_batches(spec: PaperCubeSpec, rows_per: usize) -> Vec<Vec<(Vec<u32>, f64)>> {
    let schema = paper_schema(spec.d_leaf);
    let cards: Vec<u32> = (0..schema.n_dims())
        .map(|d| schema.dim(d).cardinality(0))
        .collect();
    (0..STREAM_ROUNDS as u64)
        .map(|round| {
            let mut rng = Prng::seed_from_u64(STREAM_SALT ^ (round << 32));
            (0..rows_per)
                .map(|_| {
                    let key = cards.iter().map(|&c| rng.gen_range(0..c)).collect();
                    (key, rng.gen_range(0u32..400) as f64 * 0.25)
                })
                .collect()
        })
        .collect()
}

/// One streaming leg: the windows, the simulated cost of the rounds after
/// the fill (appends included), and the append share of it.
struct StreamLeg {
    outs: Vec<WindowOutcome>,
    round_sim: SimTime,
    append_sim: SimTime,
    stats: CacheStats,
}

fn stream_leg(
    cfg: EngineConfig,
    spec: PaperCubeSpec,
    batches: &[Vec<(Vec<u32>, f64)>],
) -> StreamLeg {
    let mut e = pinned_plans(cfg).build_paper(spec);
    let mut outs = vec![refresh_window(&mut e, 1)];
    let mut round_sim = SimTime::ZERO;
    let mut append_sim = SimTime::ZERO;
    for batch in batches {
        let a = e.append_facts(batch).expect("append batch lands");
        append_sim += a.report.sim;
        let w = refresh_window(&mut e, 1);
        round_sim += a.report.sim + w.report.exec.sim;
        outs.push(w);
    }
    StreamLeg {
        outs,
        round_sim,
        append_sim,
        stats: e.cache_stats(),
    }
}

/// What the streaming gate compares.
pub struct StreamingGate {
    /// Rounds on the delta-patching cached engine: patch CPU plus warm
    /// refreshes.
    pub patched_round_sim: SimTime,
    /// The patch-CPU share of `patched_round_sim`.
    pub patched_append_sim: SimTime,
    /// The same rounds on a cache-less engine: free appends, every
    /// refresh recomputes.
    pub reference_round_sim: SimTime,
    /// Entries delta-patched on the patched leg.
    pub patched: u64,
    /// The patched leg matched the cache-less reference bit-for-bit, every
    /// round.
    pub differential_ok: bool,
}

/// Runs one cold fill then [`STREAM_ROUNDS`] rounds of (append, refresh)
/// on a patched and a cache-less engine.
pub fn streaming_gate(scale: f64) -> StreamingGate {
    let spec = PaperCubeSpec::scaled(scale);
    let batches = stream_batches(spec, ((spec.base_rows / 100) as usize).max(32));
    let reference = stream_leg(EngineConfig::paper(), spec, &batches);
    let patched = stream_leg(EngineConfig::paper().result_cache(true), spec, &batches);
    StreamingGate {
        patched_round_sim: patched.round_sim,
        patched_append_sim: patched.append_sim,
        reference_round_sim: reference.round_sim,
        patched: patched.stats.patched,
        differential_ok: leg_equal(&patched.outs, &reference.outs),
    }
}

// ---------------------------------------------------------------------------
// Storage: compressed, zone-pruned scans and a budgeted build
// ---------------------------------------------------------------------------

/// Bytes-scanned reduction the dashboard leg must reach (plain /
/// compressed, zone pruning and packed pages combined).
pub const DASHBOARD_MIN_BYTES_RATIO: f64 = 4.0;

/// Storage budget of the full-scale budget leg (256 MiB, 20 M rows);
/// prorated by rows below full scale.
pub const STORAGE_BUDGET_BYTES: u64 = 256 * 1024 * 1024;

/// Rows floor for both storage legs: below ~12 zones the pruning claim
/// becomes noise.
const ROWS_FLOOR: u64 = 600_000;

/// The selective dashboard mix: four panels, each pinning a narrow band
/// of the clustered dimension A, so zone maps prune most partitions.
fn storage_queries(cube: &Cube) -> Vec<GroupByQuery> {
    let all = MemberPred::All;
    vec![
        GroupByQuery::new(
            cube.groupby("A'B'C'D'"),
            vec![MemberPred::eq(1, 1), all.clone(), all.clone(), all.clone()],
        ),
        GroupByQuery::new(
            cube.groupby("A'B''C''D''"),
            vec![
                MemberPred::eq(1, 1),
                MemberPred::eq(2, 1),
                all.clone(),
                all.clone(),
            ],
        ),
        GroupByQuery::new(
            cube.groupby("A''B'C'D'"),
            vec![
                MemberPred::eq(1, 4),
                all.clone(),
                MemberPred::members_in(1, vec![0, 3]),
                all.clone(),
            ],
        ),
        GroupByQuery::new(
            cube.groupby("A'B'C''D''"),
            vec![
                MemberPred::members_in(1, vec![1, 4]),
                all.clone(),
                all,
                MemberPred::eq(2, 2),
            ],
        ),
    ]
}

/// Facts clustered by dimension A, the layout zone maps can prune.
fn clustered(rows: u64, d_leaf: u32) -> CubeBuilder {
    CubeBuilder::new(paper_schema(d_leaf))
        .rows(rows)
        .seed(1998)
        .cluster_by("A")
}

/// Runs `plan` cold on a fresh one-thread engine over `cube`.
fn run_storage_leg(cube: Cube, plan: &GlobalPlan) -> (Engine, Vec<QueryResult>, ExecReport) {
    let mut engine = EngineConfig::paper().build(cube, HardwareModel::paper_1998());
    engine.flush();
    let exec = engine.execute_plan(plan).expect("leg executes");
    (engine, exec.results, exec.total)
}

/// Whether `plan` run cold at 4 threads returns exactly `results`.
fn same_at_four_threads(engine: &mut Engine, plan: &GlobalPlan, results: &[QueryResult]) -> bool {
    let threads = engine.threads();
    engine.set_threads(4);
    engine.flush();
    let threaded = engine.execute_plan(plan).expect("threaded leg executes");
    engine.set_threads(threads);
    threaded.results == results
}

/// What the storage gates compare.
pub struct StorageGate {
    /// Zones of the compressed dashboard heap.
    pub zones: u32,
    /// Bytes scanned by the plain and the compressed dashboard legs.
    pub plain_bytes: u64,
    /// See `plain_bytes`.
    pub comp_bytes: u64,
    /// Sequential faults of each dashboard leg.
    pub plain_seq_faults: u64,
    /// See `plain_seq_faults`.
    pub comp_seq_faults: u64,
    /// Simulated time of each dashboard leg (decompression CPU included).
    pub plain_sim: SimTime,
    /// See `plain_sim`.
    pub comp_sim: SimTime,
    /// Compressed dashboard rows equal plain rows, every query.
    pub bit_identical: bool,
    /// Compressed dashboard rows identical at 1 and 4 threads.
    pub threads_identical: bool,
    /// The budget the ten-times build must hold.
    pub budget_bytes: u64,
    /// What those facts cost uncompressed (pages × page size).
    pub raw_bytes: u64,
    /// What the compressed build holds resident.
    pub resident_bytes: u64,
    /// Rows answered by the budget leg's hybrid mix.
    pub result_rows: usize,
    /// Budget-leg rows identical at 1 and 4 threads.
    pub budget_threads_identical: bool,
}

impl StorageGate {
    /// Plain bytes scanned / compressed bytes scanned.
    pub fn bytes_ratio(&self) -> f64 {
        self.plain_bytes as f64 / (self.comp_bytes as f64).max(1.0)
    }
}

/// Runs the dashboard mix over plain and compressed clustered facts at
/// `scale`, and the hybrid mix over a compressed build ten times larger
/// under a prorated [`STORAGE_BUDGET_BYTES`]; both legs are lifted to
/// [`ROWS_FLOOR`] rows.
pub fn storage_gate(scale: f64) -> StorageGate {
    let full = PaperCubeSpec::full();
    let d_leaf = PaperCubeSpec::scaled(scale).d_leaf;
    let rows_dash = ((full.base_rows as f64 * scale) as u64).max(ROWS_FLOOR);
    let rows_10 = ((full.base_rows as f64 * scale * 10.0) as u64).max(ROWS_FLOOR);
    let budget_bytes =
        (STORAGE_BUDGET_BYTES as f64 * rows_10 as f64 / (full.base_rows * 10) as f64) as u64;

    // Dashboard leg: plain vs compressed over identical clustered facts.
    let plain_cube = clustered(rows_dash, d_leaf).build();
    let comp_cube = clustered(rows_dash, d_leaf).compress().build();
    let t = comp_cube.catalog.base_table().expect("base table");
    let zones = comp_cube.catalog.table(t).heap().zone_count();
    let plan = forced_class(
        t,
        storage_queries(&comp_cube)
            .into_iter()
            .map(|q| (q, JoinMethod::Hash))
            .collect(),
    );
    let (_, plain_rs, plain) = run_storage_leg(plain_cube, &plan);
    let (mut engine, comp_rs, comp) = run_storage_leg(comp_cube, &plan);
    let threads_identical = same_at_four_threads(&mut engine, &plan, &comp_rs);

    // Budget leg: built compressed from the start, with a compressed A'
    // index, running three scan panels plus one index probe.
    let cube = clustered(rows_10, d_leaf)
        .compress()
        .index("ABCD", "A'")
        .index_format(IndexFormat::Compressed)
        .build();
    let t = cube.catalog.base_table().expect("base table");
    let heap = cube.catalog.table(t).heap();
    let raw_bytes = heap.page_count() as u64 * PAGE_SIZE as u64;
    let resident_bytes = heap.resident_bytes();
    let mut plans: Vec<(GroupByQuery, JoinMethod)> = storage_queries(&cube)
        .into_iter()
        .take(3)
        .map(|q| (q, JoinMethod::Hash))
        .collect();
    plans.push((
        GroupByQuery::new(
            cube.groupby("A'B'C'D'"),
            vec![
                MemberPred::eq(1, 4),
                MemberPred::All,
                MemberPred::All,
                MemberPred::All,
            ],
        ),
        JoinMethod::Index,
    ));
    let plan = forced_class(t, plans);
    let (mut engine, budget_rs, _) = run_storage_leg(cube, &plan);
    let budget_threads_identical = same_at_four_threads(&mut engine, &plan, &budget_rs);

    StorageGate {
        zones,
        plain_bytes: plain.io.bytes_scanned(),
        comp_bytes: comp.io.bytes_scanned(),
        plain_seq_faults: plain.io.seq_faults,
        comp_seq_faults: comp.io.seq_faults,
        plain_sim: plain.sim,
        comp_sim: comp.sim,
        bit_identical: plain_rs == comp_rs,
        threads_identical,
        budget_bytes,
        raw_bytes,
        resident_bytes,
        result_rows: budget_rs.iter().map(|r| r.rows.len()).sum(),
        budget_threads_identical,
    }
}
