//! Compressed-storage bench: partition-pruned compressed scans vs the
//! plain layout, and a scale-10 fact table under a storage budget.
//!
//! Two legs, both on fact tables *clustered* by dimension A (the layout
//! zone maps can prune — the default generated order leaves every
//! zone's bounds wide, see `starshare_exec::prune`):
//!
//! * **dashboard** — a selective dashboard mix (every panel predicates a
//!   narrow band of A) over the same clustered facts stored plain and
//!   compressed. The compressed leg must answer **bit-identically** — at
//!   one thread and under the morsel scheduler — while scanning at least
//!   [`DASHBOARD_MIN_BYTES_RATIO`]× fewer bytes (zone pruning × packed
//!   pages) and beating the plain leg on the simulated clock
//!   (decompression CPU is charged against the saved I/O, and must win).
//! * **scale10** — a fact table ten times the dashboard scale, built
//!   compressed + clustered with a compressed bitmap index, that must fit
//!   a storage budget its raw footprint exceeds
//!   ([`budget for the full-scale leg`](STORAGE_BUDGET_BYTES), prorated at
//!   smaller scales). The fig10-style hybrid workload (three selective
//!   scan panels + one single-member index probe) must complete under the
//!   budgeted build and answer identically at 1 and 4 threads.
//!
//! Timing claims are gated on the simulated 1998 clock; walls are
//! recorded, not gated.

use std::time::{Duration, Instant};

use starshare_core::{
    execute_class, paper_schema, ClassSpec, CubeBuilder, Engine, EngineConfig, ExecContext,
    ExecStrategy, GroupByQuery, HardwareModel, IndexFormat, JoinMethod, MemberPred,
    MetricsSnapshot, MorselSpec, PaperCubeSpec, QueryResult, SimTime, Telemetry, TelemetryConfig,
    PAGE_SIZE,
};

use crate::forced_class;

/// Bytes-scanned reduction the dashboard leg must reach (plain /
/// compressed, zone pruning and packed pages combined).
pub const DASHBOARD_MIN_BYTES_RATIO: f64 = 4.0;

/// Storage budget of the full scale-10 leg (256 MiB). The raw footprint
/// of the scale-10 facts (~470 MiB) cannot hold it; the compressed build
/// must. Prorated linearly when the bench runs below full scale.
pub const STORAGE_BUDGET_BYTES: u64 = 256 * 1024 * 1024;

/// Rows floor for both legs: below ~12 zones the pruning claim becomes
/// noise, so tiny `STARSHARE_SCALE` runs are lifted to this many rows.
const ROWS_FLOOR: u64 = 600_000;

/// The dashboard leg: plain vs compressed over identical clustered facts.
#[derive(Debug, Clone)]
pub struct DashboardLeg {
    /// Fact rows (clustered by A's leaf key).
    pub rows: u64,
    /// Panels in the mix.
    pub queries: usize,
    /// Zones of the compressed heap.
    pub zones: u32,
    /// Bytes scanned by the plain leg.
    pub plain_bytes: u64,
    /// Bytes scanned by the compressed + pruned leg.
    pub comp_bytes: u64,
    /// Sequential faults of each leg (pruning must cut whole zones).
    pub plain_seq_faults: u64,
    /// See `plain_seq_faults`.
    pub comp_seq_faults: u64,
    /// Simulated time of the plain leg.
    pub plain_sim: SimTime,
    /// Simulated time of the compressed leg (decompression CPU included).
    pub comp_sim: SimTime,
    /// Best host walls (informational).
    pub plain_wall: Duration,
    /// See `plain_wall`.
    pub comp_wall: Duration,
    /// Compressed rows bitwise equal to plain rows, every query.
    pub bit_identical: bool,
    /// Compressed results identical at 1 and 4 threads, faults included.
    pub threads_identical: bool,
}

impl DashboardLeg {
    /// Plain bytes scanned / compressed bytes scanned.
    pub fn bytes_ratio(&self) -> f64 {
        self.plain_bytes as f64 / (self.comp_bytes as f64).max(1.0)
    }
}

/// The scale-10 leg: a budgeted compressed build running the hybrid mix.
#[derive(Debug, Clone)]
pub struct BudgetLeg {
    /// Fact rows (10× the dashboard leg's scale).
    pub rows: u64,
    /// The storage budget this build must hold.
    pub budget_bytes: u64,
    /// What the same facts cost uncompressed (pages × 8 KiB).
    pub raw_bytes: u64,
    /// What the compressed build actually holds resident.
    pub resident_bytes: u64,
    /// Pages of the compressed A' bitmap index.
    pub index_pages: u32,
    /// Rows answered across the workload (completion proof).
    pub result_rows: usize,
    /// Simulated time of the sequential run.
    pub sim: SimTime,
    /// Best host wall (informational).
    pub wall: Duration,
    /// Results identical at 1 and 4 threads.
    pub threads_identical: bool,
}

/// Outcome of [`storage_bench`].
#[derive(Debug, Clone)]
pub struct StorageBenchResult {
    /// Scale factor (1.0 = the paper's 2 M-row database; the budget leg
    /// runs at 10×).
    pub scale: f64,
    /// Timed repeats per leg (walls keep the best; sims are invariant).
    pub repeats: u32,
    /// The plain-vs-compressed dashboard leg.
    pub dashboard: DashboardLeg,
    /// The scale-10 budget leg.
    pub scale10: BudgetLeg,
    /// Unified metrics snapshot from a telemetry-armed morsel rerun of
    /// the compressed dashboard leg (the timed legs run unarmed; the
    /// plan-execution entry point bypasses the engine's own accounting,
    /// so the bench stands in for it like the parallel bench does).
    pub metrics: Option<MetricsSnapshot>,
}

/// The selective dashboard mix: four panels, each pinning a narrow band
/// of the clustered dimension A, with varied group-bys and co-predicates.
/// Their A-bands union to well under half the key space, so zone maps
/// prune most partitions for the whole class.
fn dashboard_queries(cube: &starshare_core::Cube) -> Vec<GroupByQuery> {
    vec![
        GroupByQuery::new(
            cube.groupby("A'B'C'D'"),
            vec![
                MemberPred::eq(1, 1),
                MemberPred::All,
                MemberPred::All,
                MemberPred::All,
            ],
        ),
        GroupByQuery::new(
            cube.groupby("A'B''C''D''"),
            vec![
                MemberPred::eq(1, 1),
                MemberPred::eq(2, 1),
                MemberPred::All,
                MemberPred::All,
            ],
        ),
        GroupByQuery::new(
            cube.groupby("A''B'C'D'"),
            vec![
                MemberPred::eq(1, 4),
                MemberPred::All,
                MemberPred::members_in(1, vec![0, 3]),
                MemberPred::All,
            ],
        ),
        GroupByQuery::new(
            cube.groupby("A'B'C''D''"),
            vec![
                MemberPred::members_in(1, vec![1, 4]),
                MemberPred::All,
                MemberPred::All,
                MemberPred::eq(2, 2),
            ],
        ),
    ]
}

fn clustered_cube(rows: u64, d_leaf: u32, compress: bool) -> starshare_core::Cube {
    let b = CubeBuilder::new(paper_schema(d_leaf))
        .rows(rows)
        .seed(1998)
        .cluster_by("A");
    if compress {
        b.compress().build()
    } else {
        b.build()
    }
}

/// Runs `plan` on a fresh one-thread engine over `cube`, `repeats` times
/// (sim is invariant; walls keep the best).
fn run_leg(
    cube: starshare_core::Cube,
    plan: &starshare_core::GlobalPlan,
    repeats: u32,
) -> (
    Vec<QueryResult>,
    starshare_core::ExecReport,
    Duration,
    Engine,
) {
    let mut engine = EngineConfig::paper().build(cube, HardwareModel::paper_1998());
    let mut wall = Duration::MAX;
    let mut kept = None;
    for _ in 0..repeats.max(1) {
        engine.flush();
        let started = Instant::now();
        let exec = engine.execute_plan(plan).expect("leg executes");
        wall = wall.min(started.elapsed());
        kept = Some((exec.results, exec.total));
    }
    let (results, total) = kept.expect("at least one repeat");
    (results, total, wall, engine)
}

fn dashboard_leg(rows: u64, d_leaf: u32, repeats: u32) -> DashboardLeg {
    let plain_cube = clustered_cube(rows, d_leaf, false);
    let comp_cube = clustered_cube(rows, d_leaf, true);
    let t = comp_cube.catalog.base_table().expect("base table");
    let zones = comp_cube.catalog.table(t).heap().zone_count();
    let queries = dashboard_queries(&comp_cube);
    let plan = forced_class(
        t,
        queries
            .iter()
            .map(|q| (q.clone(), JoinMethod::Hash))
            .collect(),
    );

    let (plain_rs, plain_total, plain_wall, _) = run_leg(plain_cube, &plan, repeats);
    let (comp_rs, comp_total, comp_wall, mut comp_engine) = run_leg(comp_cube, &plan, repeats);

    // The same compressed facts under the morsel scheduler: results must
    // not move a bit with the thread count.
    comp_engine.flush();
    let threaded = comp_engine
        .execute_plan_threads(&plan, 4)
        .expect("threaded leg executes");

    DashboardLeg {
        rows,
        queries: queries.len(),
        zones,
        plain_bytes: plain_total.io.bytes_scanned(),
        comp_bytes: comp_total.io.bytes_scanned(),
        plain_seq_faults: plain_total.io.seq_faults,
        comp_seq_faults: comp_total.io.seq_faults,
        plain_sim: plain_total.sim,
        comp_sim: comp_total.sim,
        plain_wall,
        comp_wall,
        bit_identical: plain_rs == comp_rs,
        threads_identical: threaded.results == comp_rs,
    }
}

fn budget_leg(rows: u64, d_leaf: u32, budget_bytes: u64, repeats: u32) -> BudgetLeg {
    // Built compressed from the start: the raw facts never need to be
    // held whole — that is the point of the budget.
    let cube = CubeBuilder::new(paper_schema(d_leaf))
        .rows(rows)
        .seed(1998)
        .cluster_by("A")
        .compress()
        .index("ABCD", "A'")
        .index_format(IndexFormat::Compressed)
        .build();
    let t = cube.catalog.base_table().expect("base table");
    let heap = cube.catalog.table(t).heap();
    let raw_bytes = heap.page_count() as u64 * PAGE_SIZE as u64;
    let resident_bytes = heap.resident_bytes();
    let index_pages = cube
        .catalog
        .table(t)
        .index(0)
        .expect("A' index")
        .index
        .total_pages();

    // Fig10-style hybrid mix: three selective scan panels plus a
    // single-member index probe through the compressed bitmap index.
    let mut plans: Vec<(GroupByQuery, JoinMethod)> = dashboard_queries(&cube)
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

    let (results, total, wall, mut engine) = run_leg(cube, &plan, repeats);
    engine.flush();
    let threaded = engine
        .execute_plan_threads(&plan, 4)
        .expect("threaded leg executes");

    BudgetLeg {
        rows,
        budget_bytes,
        raw_bytes,
        resident_bytes,
        index_pages,
        result_rows: results.iter().map(|r| r.rows.len()).sum(),
        sim: total.sim,
        wall,
        threads_identical: threaded.results == results,
    }
}

/// Runs both legs at `scale` (dashboard at `scale`, budget at 10×, both
/// floored to stay above the zone-map noise floor).
pub fn storage_bench(scale: f64, repeats: u32) -> StorageBenchResult {
    let repeats = repeats.max(1);
    let full = PaperCubeSpec::full();
    let d_leaf = PaperCubeSpec::scaled(scale.min(1.0)).d_leaf;
    let rows_dash = ((full.base_rows as f64 * scale) as u64).max(ROWS_FLOOR);
    let rows_10 = ((full.base_rows as f64 * scale * 10.0) as u64).max(ROWS_FLOOR);
    // The budget is pinned to the full-scale leg and prorated by rows, so
    // scaled-down runs gate the same compression claim.
    let budget_bytes =
        (STORAGE_BUDGET_BYTES as f64 * rows_10 as f64 / (full.base_rows * 10) as f64) as u64;
    StorageBenchResult {
        scale,
        repeats,
        dashboard: dashboard_leg(rows_dash, d_leaf, repeats),
        scale10: budget_leg(rows_10, d_leaf, budget_bytes, repeats),
        metrics: armed_metrics(rows_dash, d_leaf),
    }
}

/// One telemetry-armed morsel run of the compressed dashboard leg, for
/// the artifact's `"metrics"` snapshot.
fn armed_metrics(rows: u64, d_leaf: u32) -> Option<MetricsSnapshot> {
    let cube = clustered_cube(rows, d_leaf, true);
    let t = cube.catalog.base_table()?;
    let spec = ClassSpec {
        table: t,
        hash_queries: dashboard_queries(&cube),
        index_queries: Vec::new(),
    };
    let tele = Telemetry::new(TelemetryConfig::enabled(0));
    let mut ctx = ExecContext::paper_1998();
    ctx.telemetry = tele.clone();
    let strategy = ExecStrategy::Morsel(MorselSpec::whole_table());
    let oc = execute_class(&mut ctx, &cube, &spec, 4, strategy).ok()?;
    tele.metrics(|m| m.observe_exec(&oc.report.io, oc.report.sim, oc.report.critical));
    tele.snapshot()
}

/// Renders the run as a text report.
pub fn render_storage_bench(r: &StorageBenchResult) -> String {
    use std::fmt::Write as _;
    let d = &r.dashboard;
    let b = &r.scale10;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "dashboard mix: {} selective panels over {} clustered rows ({} zones)",
        d.queries, d.rows, d.zones
    );
    let _ = writeln!(
        out,
        "plain       {:>12} bytes  {:>6} seq faults  {:>9.3}s sim  (wall {:?})",
        d.plain_bytes,
        d.plain_seq_faults,
        d.plain_sim.as_secs_f64(),
        d.plain_wall
    );
    let _ = writeln!(
        out,
        "compressed  {:>12} bytes  {:>6} seq faults  {:>9.3}s sim  (wall {:?})",
        d.comp_bytes,
        d.comp_seq_faults,
        d.comp_sim.as_secs_f64(),
        d.comp_wall
    );
    let _ = writeln!(
        out,
        "bytes scanned {:.2}x down, bits {}, threads {}",
        d.bytes_ratio(),
        if d.bit_identical { "ok" } else { "DRIFT" },
        if d.threads_identical { "ok" } else { "DRIFT" },
    );
    let _ = writeln!(
        out,
        "\nscale-10 budget leg: {} rows under {} MiB",
        b.rows,
        b.budget_bytes / (1024 * 1024)
    );
    let _ = writeln!(
        out,
        "raw {:>12} bytes ({})  compressed resident {:>12} bytes ({})",
        b.raw_bytes,
        if b.raw_bytes > b.budget_bytes {
            "over budget"
        } else {
            "fits"
        },
        b.resident_bytes,
        if b.resident_bytes <= b.budget_bytes {
            "fits"
        } else {
            "OVER BUDGET"
        },
    );
    let _ = writeln!(
        out,
        "hybrid mix: {} result rows, {} index pages, {:.3}s sim (wall {:?}), threads {}",
        b.result_rows,
        b.index_pages,
        b.sim.as_secs_f64(),
        b.wall,
        if b.threads_identical { "ok" } else { "DRIFT" },
    );
    out
}

/// Serializes the run as the committed `BENCH_storage.json` payload.
pub fn storage_bench_json(r: &StorageBenchResult) -> String {
    let d = &r.dashboard;
    let b = &r.scale10;
    format!(
        concat!(
            "{{\n",
            "  \"bench\": \"storage\",\n",
            "  \"scale\": {scale},\n",
            "  \"repeats\": {repeats},\n",
            "  \"dashboard\": {{\n",
            "    \"rows\": {drows},\n",
            "    \"queries\": {dq},\n",
            "    \"zones\": {zones},\n",
            "    \"plain_bytes_scanned\": {pbytes},\n",
            "    \"compressed_bytes_scanned\": {cbytes},\n",
            "    \"bytes_ratio\": {ratio:.3},\n",
            "    \"plain_seq_faults\": {pfaults},\n",
            "    \"compressed_seq_faults\": {cfaults},\n",
            "    \"plain_sim_ms\": {psim:.3},\n",
            "    \"compressed_sim_ms\": {csim:.3},\n",
            "    \"plain_wall_ms\": {pwall:.3},\n",
            "    \"compressed_wall_ms\": {cwall:.3},\n",
            "    \"bit_identical\": {dbits},\n",
            "    \"threads_identical\": {dthreads}\n",
            "  }},\n",
            "  \"scale10\": {{\n",
            "    \"rows\": {brows},\n",
            "    \"budget_bytes\": {budget},\n",
            "    \"raw_bytes\": {raw},\n",
            "    \"resident_bytes\": {resident},\n",
            "    \"raw_over_budget\": {rawover},\n",
            "    \"fits_budget\": {fits},\n",
            "    \"index_pages\": {ipages},\n",
            "    \"result_rows\": {rrows},\n",
            "    \"sim_ms\": {bsim:.3},\n",
            "    \"wall_ms\": {bwall:.3},\n",
            "    \"threads_identical\": {bthreads}\n",
            "  }},\n",
            "  \"metrics\": {metrics}\n",
            "}}\n"
        ),
        scale = r.scale,
        repeats = r.repeats,
        drows = d.rows,
        dq = d.queries,
        zones = d.zones,
        pbytes = d.plain_bytes,
        cbytes = d.comp_bytes,
        ratio = d.bytes_ratio(),
        pfaults = d.plain_seq_faults,
        cfaults = d.comp_seq_faults,
        psim = d.plain_sim.as_secs_f64() * 1e3,
        csim = d.comp_sim.as_secs_f64() * 1e3,
        pwall = d.plain_wall.as_secs_f64() * 1e3,
        cwall = d.comp_wall.as_secs_f64() * 1e3,
        dbits = d.bit_identical,
        dthreads = d.threads_identical,
        brows = b.rows,
        budget = b.budget_bytes,
        raw = b.raw_bytes,
        resident = b.resident_bytes,
        rawover = b.raw_bytes > b.budget_bytes,
        fits = b.resident_bytes <= b.budget_bytes,
        ipages = b.index_pages,
        rrows = b.result_rows,
        bsim = b.sim.as_secs_f64() * 1e3,
        bwall = b.wall.as_secs_f64() * 1e3,
        bthreads = b.threads_identical,
        metrics = crate::metrics_json(&r.metrics),
    )
}

/// The gates the `storage` binary (and CI) enforce; `Err` carries every
/// failed gate.
pub fn storage_bench_gates(r: &StorageBenchResult) -> Result<(), Vec<String>> {
    let d = &r.dashboard;
    let b = &r.scale10;
    let mut fails = Vec::new();
    if !d.bit_identical {
        fails.push("dashboard: compressed answers drifted from plain".into());
    }
    if !d.threads_identical {
        fails.push("dashboard: compressed answers moved with the thread count".into());
    }
    if d.bytes_ratio() < DASHBOARD_MIN_BYTES_RATIO {
        fails.push(format!(
            "dashboard: bytes scanned only {:.2}x down (need >= {DASHBOARD_MIN_BYTES_RATIO}x)",
            d.bytes_ratio()
        ));
    }
    if d.comp_seq_faults >= d.plain_seq_faults {
        fails.push("dashboard: pruning never skipped a zone".into());
    }
    if d.comp_sim >= d.plain_sim {
        fails.push(format!(
            "dashboard: decompression CPU ate the I/O saving ({:.3}s vs {:.3}s sim)",
            d.comp_sim.as_secs_f64(),
            d.plain_sim.as_secs_f64()
        ));
    }
    if b.raw_bytes <= b.budget_bytes {
        fails.push(format!(
            "scale10: raw footprint {} fits the {} budget — the leg proves nothing",
            b.raw_bytes, b.budget_bytes
        ));
    }
    if b.resident_bytes > b.budget_bytes {
        fails.push(format!(
            "scale10: compressed build {} exceeds the {} budget",
            b.resident_bytes, b.budget_bytes
        ));
    }
    if b.result_rows == 0 {
        fails.push("scale10: the hybrid mix answered nothing".into());
    }
    if !b.threads_identical {
        fails.push("scale10: answers moved with the thread count".into());
    }
    if fails.is_empty() {
        Ok(())
    } else {
        Err(fails)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floored_storage_mix_holds_every_gate() {
        // Tiny scale: both legs run at the rows floor (~14 zones), which
        // must already clear every gate the full-scale run is held to.
        let r = storage_bench(0.002, 1);
        if let Err(fails) = storage_bench_gates(&r) {
            panic!("gates failed: {fails:?}\n{}", render_storage_bench(&r));
        }
        assert!(r.dashboard.zones >= 12, "floor must give real zones");
        let json = storage_bench_json(&r);
        assert!(json.contains("\"bench\": \"storage\""), "{json}");
        assert!(json.contains("\"bytes_ratio\""), "{json}");
        assert!(render_storage_bench(&r).contains("scale-10 budget leg"));
    }
}
