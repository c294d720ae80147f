//! Experiment harness for the paper's evaluation section.
//!
//! Every table and figure in §7 has a function here returning structured
//! data and a binary that prints it (`table1`, `fig10`, `fig11`, `fig12`,
//! `table2`); `ablations` and `scaling` go beyond the paper, and two
//! dependency-free wall-clock benches (`benches/`) time the same code
//! paths. EXPERIMENTS.md records the output of the full-scale runs next
//! to the paper's numbers. The integration test `sim_baseline` pins these
//! figures at a small scale against the committed `BENCH_sim.json`;
//! `feature_gates` holds the acceptance gates of the engine's features.
//!
//! Scale: the binaries run at the paper's full scale (2 M base rows) by
//! default; set `STARSHARE_SCALE` (e.g. `0.05`) for quick runs. All
//! reported times are *simulated seconds* under the 1998 hardware model
//! (deterministic); wall times on the host are printed alongside.

use std::time::Duration;

use starshare_core::{
    paper_queries::{bind_paper_query, paper_test_queries},
    Engine, EngineConfig, ExecReport, GlobalPlan, GroupByQuery, JoinMethod, OptimizerKind,
    PaperCubeSpec, PlanClass, QueryPlan, SimTime, TableId,
};

/// Parses a `STARSHARE_SCALE` value: unset means 1.0 (the paper's 2 M-row
/// database); anything else must be a number in (0, 1].
pub fn parse_scale(raw: Option<&str>) -> Result<f64, String> {
    let Some(raw) = raw else { return Ok(1.0) };
    match raw.trim().parse::<f64>() {
        Ok(f) if f > 0.0 && f <= 1.0 => Ok(f),
        _ => Err(format!("STARSHARE_SCALE={raw:?} is not a number in (0, 1]")),
    }
}

/// Reads the scale factor from `STARSHARE_SCALE` (see [`parse_scale`]).
/// An invalid value prints an `error:` line and exits with status 1.
pub fn scale_from_env() -> f64 {
    let raw = std::env::var_os("STARSHARE_SCALE");
    let raw = raw.as_ref().map(|s| s.to_str().unwrap_or("<not UTF-8>"));
    parse_scale(raw).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1)
    })
}

/// Builds the engine over the paper cube at `scale`.
pub fn build_engine(scale: f64) -> Engine {
    Engine::paper(PaperCubeSpec::scaled(scale))
}

/// Binds paper query `n` against an engine's schema.
pub fn query(engine: &Engine, n: usize) -> GroupByQuery {
    bind_paper_query(&engine.cube().schema, n).expect("paper query binds")
}

/// Table id by name.
pub fn table(engine: &Engine, name: &str) -> TableId {
    engine
        .cube()
        .catalog
        .find_by_name(name)
        .unwrap_or_else(|| panic!("no table {name}"))
}

/// Builds a one-class global plan (for the forced-plan figure experiments).
pub fn forced_class(t: TableId, plans: Vec<(GroupByQuery, JoinMethod)>) -> GlobalPlan {
    GlobalPlan {
        classes: vec![PlanClass {
            table: t,
            plans: plans
                .into_iter()
                .map(|(query, method)| QueryPlan { query, method })
                .collect(),
        }],
        estimated_cost: SimTime::ZERO,
    }
}

// ---------------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------------

/// Table 1: the materialized group-bys and their (measured) sizes.
pub fn table1(engine: &Engine) -> Vec<(String, u64, u32)> {
    engine
        .cube()
        .catalog
        .iter()
        .map(|(_, t)| (t.name().to_string(), t.n_rows(), t.pages()))
        .collect()
}

// ---------------------------------------------------------------------------
// Figures 10–12 (Tests 1–3): shared operators vs separate execution
// ---------------------------------------------------------------------------

/// One figure: for k = 1..=n queries, total time running them separately
/// (the paper's dotted bars) vs with the shared operator (solid bars).
#[derive(Debug, Clone)]
pub struct FigureData {
    /// Figure label.
    pub title: String,
    /// Per query-count `(k, separate, shared)` in simulated seconds, plus
    /// wall times.
    pub points: Vec<FigPoint>,
}

/// One bar pair.
#[derive(Debug, Clone, Copy)]
pub struct FigPoint {
    /// Number of queries evaluated together.
    pub k: usize,
    /// Total simulated time of k separate runs.
    pub separate: SimTime,
    /// Simulated time of the shared operator over all k.
    pub shared: SimTime,
    /// Host wall time of the shared run.
    pub shared_wall: Duration,
}

fn run_figure(
    engine: &mut Engine,
    title: &str,
    t: TableId,
    plans: &[(GroupByQuery, JoinMethod)],
) -> FigureData {
    let mut points = Vec::new();
    for k in 1..=plans.len() {
        let subset = &plans[..k];
        // Separate: each query alone, cold pool each time.
        let sep_plans: Vec<_> = subset.iter().map(|(q, m)| (t, q.clone(), *m)).collect();
        let (_, sep_report) = engine
            .execute_separately(&sep_plans)
            .expect("separate execution");
        // Shared: one class, cold pool.
        engine.flush();
        let plan = forced_class(t, subset.to_vec());
        let exec = engine.execute_plan(&plan).expect("shared execution");
        points.push(FigPoint {
            k,
            separate: sep_report.sim,
            shared: exec.total.sim,
            shared_wall: exec.total.wall,
        });
    }
    FigureData {
        title: title.to_string(),
        points,
    }
}

/// Figure 10 (Test 1): Queries 1–4, hash star join on `ABCD`, shared scan.
pub fn fig10(engine: &mut Engine) -> FigureData {
    let t = table(engine, "ABCD");
    let plans: Vec<_> = [1, 2, 3, 4]
        .iter()
        .map(|&n| (query(engine, n), JoinMethod::Hash))
        .collect();
    run_figure(
        engine,
        "Figure 10 (Test 1): shared scan hash star join on ABCD, Q1–Q4",
        t,
        &plans,
    )
}

/// Figure 11 (Test 2): Queries 5–8, bitmap index join on `A'B'C'D`, shared
/// index join.
pub fn fig11(engine: &mut Engine) -> FigureData {
    let t = table(engine, "A'B'C'D");
    let plans: Vec<_> = [5, 6, 7, 8]
        .iter()
        .map(|&n| (query(engine, n), JoinMethod::Index))
        .collect();
    run_figure(
        engine,
        "Figure 11 (Test 2): shared index star join on A'B'C'D, Q5–Q8",
        t,
        &plans,
    )
}

/// Figure 12 (Test 3): Query 3 hash + Queries 5–7 index, all on `A'B'C'D`,
/// shared hybrid scan.
pub fn fig12(engine: &mut Engine) -> FigureData {
    let t = table(engine, "A'B'C'D");
    let mut plans = vec![(query(engine, 3), JoinMethod::Hash)];
    plans.extend(
        [5, 6, 7]
            .iter()
            .map(|&n| (query(engine, n), JoinMethod::Index)),
    );
    run_figure(
        engine,
        "Figure 12 (Test 3): shared hybrid scan on A'B'C'D, Q3 hash + Q5–Q7 index",
        t,
        &plans,
    )
}

/// Renders a figure as paper-style horizontal bars.
pub fn render_figure(fig: &FigureData) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{}", fig.title);
    let max = fig
        .points
        .iter()
        .map(|p| p.separate.as_secs_f64().max(p.shared.as_secs_f64()))
        .fold(0.0f64, f64::max)
        .max(1e-9);
    for p in &fig.points {
        let bar = |v: f64, ch: char| {
            let w = ((v / max) * 50.0).round() as usize;
            ch.to_string().repeat(w.max(1))
        };
        let _ = writeln!(
            out,
            "{} queries  separate {:>9.3}s  {}",
            p.k,
            p.separate.as_secs_f64(),
            bar(p.separate.as_secs_f64(), '░'),
        );
        let _ = writeln!(
            out,
            "           shared   {:>9.3}s  {}   (wall {:?})",
            p.shared.as_secs_f64(),
            bar(p.shared.as_secs_f64(), '█'),
            p.shared_wall,
        );
    }
    out
}

// ---------------------------------------------------------------------------
// Table 2 (Tests 4–7): the optimization algorithms
// ---------------------------------------------------------------------------

/// One algorithm's row in Table 2.
#[derive(Debug, Clone)]
pub struct AlgoRow {
    /// Which algorithm.
    pub algo: OptimizerKind,
    /// The plan it produced (paper-style notation).
    pub plan_text: String,
    /// Its own cost estimate.
    pub estimated: SimTime,
    /// Measured simulated time of executing the plan (cold pool).
    pub measured: SimTime,
    /// Simulated critical path of that execution.
    pub critical: SimTime,
    /// Host wall time of the execution.
    pub wall: Duration,
    /// Number of classes (sharing units).
    pub classes: usize,
}

/// Runs one of Tests 4–7 through all four algorithms.
pub fn table2_test(engine: &mut Engine, test: usize) -> Vec<AlgoRow> {
    let queries: Vec<GroupByQuery> = paper_test_queries(test)
        .iter()
        .map(|&n| query(engine, n))
        .collect();
    let mut rows = Vec::new();
    for kind in OptimizerKind::ALL {
        let plan = engine
            .optimize(&queries, kind)
            .expect("paper workloads are plannable");
        engine.flush();
        let exec = engine.execute_plan(&plan).expect("plan executes");
        rows.push(AlgoRow {
            algo: kind,
            plan_text: plan.explain(engine.cube()),
            estimated: plan.estimated_cost,
            measured: exec.total.sim,
            critical: exec.total.critical,
            wall: exec.total.wall,
            classes: plan.classes.len(),
        });
    }
    rows
}

/// Renders a Table 2 test as text.
pub fn render_table2(test: usize, rows: &[AlgoRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "Test {test} — queries {:?}", paper_test_queries(test));
    let _ = writeln!(
        out,
        "{:<8} {:>12} {:>12} {:>8} {:>12}",
        "algo", "estimated", "measured", "classes", "wall"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<8} {:>11.3}s {:>11.3}s {:>8} {:>12?}",
            r.algo.to_string(),
            r.estimated.as_secs_f64(),
            r.measured.as_secs_f64(),
            r.classes,
            r.wall
        );
    }
    for r in rows {
        let _ = writeln!(out, "--- {} plan ---\n{}", r.algo, r.plan_text);
    }
    out
}

// ---------------------------------------------------------------------------
// Ablations (beyond the paper)
// ---------------------------------------------------------------------------

/// Ablation: how the shared-scan advantage responds to the CPU/I-O cost
/// ratio. Returns `(io_scale, separate, shared)` for the Test-4 workload's
/// GG plan vs TPLO plan.
pub fn ablation_io_ratio(scale: f64) -> Vec<(f64, SimTime, SimTime)> {
    let mut rows = Vec::new();
    for io_scale in [0.25, 0.5, 1.0, 2.0, 4.0] {
        let mut hw = starshare_core::HardwareModel::paper_1998();
        hw.seq_page_read_ns = (hw.seq_page_read_ns as f64 * io_scale) as u64;
        hw.random_page_read_ns = (hw.random_page_read_ns as f64 * io_scale) as u64;
        let cube = starshare_core::paper_cube(PaperCubeSpec::scaled(scale));
        // Sequential engine: the ablation compares simulated costs under the
        // paper's single-CPU model.
        let mut engine = EngineConfig::paper().build(cube, hw);
        let queries: Vec<GroupByQuery> = paper_test_queries(4)
            .iter()
            .map(|&n| query(&engine, n))
            .collect();
        let tplo_plan = engine.optimize(&queries, OptimizerKind::Tplo).unwrap();
        let gg_plan = engine.optimize(&queries, OptimizerKind::Gg).unwrap();
        engine.flush();
        let t = engine.execute_plan(&tplo_plan).unwrap().total.sim;
        engine.flush();
        let g = engine.execute_plan(&gg_plan).unwrap().total.sim;
        rows.push((io_scale, t, g));
    }
    rows
}

/// Ablation: buffer-pool size sweep over the Test-1 shared scan (does a
/// bigger pool rescue the separate plans?). Returns `(pool_pages,
/// separate, shared)`.
pub fn ablation_pool_size(scale: f64) -> Vec<(usize, SimTime, SimTime)> {
    let mut rows = Vec::new();
    for pool_pages in [256usize, 1024, 2048, 8192, 32768] {
        let mut hw = starshare_core::HardwareModel::paper_1998();
        hw.buffer_pool_pages = pool_pages;
        let cube = starshare_core::paper_cube(PaperCubeSpec::scaled(scale));
        // The "separate without flushing" leg below depends on sequential
        // execution warming the shared pool between queries; the threaded
        // path deliberately never does (workers snapshot residency).
        let mut engine = EngineConfig::paper().build(cube, hw);
        let t = table(&engine, "ABCD");
        let plans: Vec<_> = [1, 2, 3, 4]
            .iter()
            .map(|&n| (query(&engine, n), JoinMethod::Hash))
            .collect();
        // Separate *without* flushing between queries: a big enough pool
        // lets later queries hit cache, a small one does not.
        let mut sep = ExecReport::default();
        engine.flush();
        for (q, m) in &plans {
            let p = forced_class(t, vec![(q.clone(), *m)]);
            let e = engine.execute_plan(&p).unwrap();
            sep.merge(&e.total);
        }
        engine.flush();
        let shared = engine
            .execute_plan(&forced_class(t, plans.clone()))
            .unwrap()
            .total;
        rows.push((pool_pages, sep.sim, shared.sim));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Engine {
        build_engine(0.002)
    }

    #[test]
    fn table1_lists_all_views() {
        let e = tiny();
        let t1 = table1(&e);
        assert_eq!(t1.len(), 5);
        assert_eq!(t1[0].0, "ABCD");
        assert!(t1[0].1 >= t1[1].1, "base is largest");
    }

    #[test]
    fn figures_show_shared_wins_and_monotone_growth() {
        let mut e = tiny();
        for fig in [fig10(&mut e), fig11(&mut e), fig12(&mut e)] {
            assert_eq!(fig.points.len(), 4);
            for p in &fig.points {
                assert!(
                    p.shared <= p.separate,
                    "{}: k={} shared {} > separate {}",
                    fig.title,
                    p.k,
                    p.shared,
                    p.separate
                );
            }
            // The absolute gap grows with k.
            let gap = |p: &FigPoint| p.separate.as_secs_f64() - p.shared.as_secs_f64();
            assert!(
                gap(&fig.points[3]) >= gap(&fig.points[0]),
                "{}: gap should grow",
                fig.title
            );
            let rendered = render_figure(&fig);
            assert!(rendered.contains("4 queries"), "{rendered}");
        }
    }

    #[test]
    fn table2_orders_algorithms_correctly() {
        let mut e = tiny();
        for test in 4..=7 {
            let rows = table2_test(&mut e, test);
            assert_eq!(rows.len(), 4);
            let get = |k: OptimizerKind| rows.iter().find(|r| r.algo == k).unwrap();
            let tplo = get(OptimizerKind::Tplo);
            let gg = get(OptimizerKind::Gg);
            let opt = get(OptimizerKind::Optimal);
            assert!(
                opt.estimated <= gg.estimated && gg.estimated <= tplo.estimated,
                "test {test}: estimates out of order"
            );
            let rendered = render_table2(test, &rows);
            assert!(rendered.contains("GG"), "{rendered}");
        }
    }

    #[test]
    fn scale_must_be_a_number_in_the_unit_interval() {
        assert_eq!(parse_scale(None), Ok(1.0));
        assert_eq!(parse_scale(Some("0.01")), Ok(0.01));
        assert_eq!(parse_scale(Some("1")), Ok(1.0));
        for bad in ["0", "-0.5", "1.5", "NaN", "inf", "abc", ""] {
            let err = parse_scale(Some(bad)).unwrap_err();
            assert!(err.contains("STARSHARE_SCALE"), "{bad}: {err}");
        }
    }

    #[test]
    fn ablations_produce_rows() {
        let rows = ablation_io_ratio(0.002);
        assert_eq!(rows.len(), 5);
        let rows = ablation_pool_size(0.002);
        assert_eq!(rows.len(), 5);
    }
}

// ---------------------------------------------------------------------------
// Extension ablations: GGI and index storage formats
// ---------------------------------------------------------------------------

/// Random workloads (paper schema) for the GGI study: each query draws a
/// target group-by and coarse predicates.
pub fn random_workload(
    engine: &Engine,
    rng: &mut starshare_prng::Prng,
    n_queries: usize,
) -> Vec<GroupByQuery> {
    use starshare_core::{GroupBy, LevelRef, MemberPred};
    let schema = &engine.cube().schema;
    (0..n_queries)
        .map(|_| {
            let mut levels = Vec::new();
            let mut preds = Vec::new();
            for d in 0..schema.n_dims() {
                levels.push(LevelRef::Level(rng.gen_range(0..3u8)));
                if rng.gen_bool(0.7) {
                    let lvl = rng.gen_range(1..3u8);
                    let card = schema.dim(d).cardinality(lvl);
                    let k = rng.gen_range(1..=card.min(3));
                    let members: Vec<u32> = (0..k).map(|_| rng.gen_range(0..card)).collect();
                    preds.push(MemberPred::members_in(lvl, members));
                } else {
                    preds.push(MemberPred::All);
                }
            }
            GroupByQuery::new(GroupBy::new(levels), preds)
        })
        .collect()
}

/// Ablation: GG vs GGI (improvement passes) on random workloads. Returns
/// `(workloads_run, improved_count, mean_cost_ratio_ggi_over_gg,
/// mean_plan_time_ratio)`.
pub fn ablation_ggi(scale: f64, workloads: usize, queries_per: usize) -> (usize, usize, f64, f64) {
    use std::time::Instant;
    let engine = build_engine(scale);
    let cm = engine.cost_model();
    let mut rng = starshare_prng::Prng::seed_from_u64(0xBEEF);
    let mut improved = 0;
    let mut cost_ratio_sum = 0.0;
    let mut time_ratio_sum = 0.0;
    for _ in 0..workloads {
        let ws = random_workload(&engine, &mut rng, queries_per);
        let t0 = Instant::now();
        let g = starshare_core::gg(&cm, &ws).expect("gg plans");
        let t_gg = t0.elapsed();
        let t1 = Instant::now();
        let i = starshare_core::ggi(&cm, &ws).expect("ggi plans");
        let t_ggi = t1.elapsed();
        if i.estimated_cost < g.estimated_cost {
            improved += 1;
        }
        cost_ratio_sum +=
            i.estimated_cost.as_secs_f64() / g.estimated_cost.as_secs_f64().max(1e-12);
        time_ratio_sum += t_ggi.as_secs_f64() / t_gg.as_secs_f64().max(1e-12);
    }
    (
        workloads,
        improved,
        cost_ratio_sum / workloads as f64,
        time_ratio_sum / workloads as f64,
    )
}

/// Ablation: plain vs compressed index storage, on two physical layouts of
/// the same fact data — the engine's hash-ordered layout (no clustering)
/// and a load-order layout clustered by dimension A (a fact table loaded
/// in, say, time order). Returns
/// `(layout, format, total_index_pages, probe_query_sim)` rows.
pub fn ablation_index_format(scale: f64) -> Vec<(String, String, u32, SimTime)> {
    use starshare_core::{
        Catalog, Cube, GroupBy, HardwareModel, HeapFile, IndexFormat, LevelRef, MemberPred,
        StoredTable, TupleLayout,
    };
    let spec = PaperCubeSpec::scaled(scale);
    let mut out = Vec::new();
    for clustered in [false, true] {
        // Generate the base table; optionally sorted by dimension A
        // (load-order clustering).
        let schema = starshare_core::paper_schema(spec.d_leaf);
        let mut rng = starshare_prng::Prng::seed_from_u64(spec.seed);
        let cards: Vec<u32> = (0..4).map(|d| schema.dim(d).cardinality(0)).collect();
        let mut rows: Vec<([u32; 4], f64)> = (0..spec.base_rows)
            .map(|_| {
                let k = [
                    rng.gen_range(0..cards[0]),
                    rng.gen_range(0..cards[1]),
                    rng.gen_range(0..cards[2]),
                    rng.gen_range(0..cards[3]),
                ];
                (k, rng.gen_range(0.0..100.0))
            })
            .collect();
        if clustered {
            rows.sort_by_key(|(k, _)| k[0]);
        }
        for (fmt_name, format) in [
            ("plain", IndexFormat::Plain),
            ("compressed", IndexFormat::Compressed),
        ] {
            let mut catalog = Catalog::new();
            let file = catalog.alloc_file_id();
            let heap = HeapFile::from_rows(file, TupleLayout::new(4), rows.iter().cloned());
            let tid = catalog.add_table(StoredTable::new("ABCD", GroupBy::finest(4), heap));
            let ix_file = catalog.alloc_file_id();
            catalog
                .table_mut(tid)
                .build_index_with_format(&schema, 0, 1, format, ix_file);
            let pages = catalog.table(tid).index(0).unwrap().index.total_pages();
            let cube = Cube::new(starshare_core::paper_schema(spec.d_leaf), catalog);
            let mut engine = Engine::new(cube, HardwareModel::paper_1998());
            // A single-member A' probe: the index-load I/O is the term the
            // format changes.
            let q = GroupByQuery::new(
                GroupBy::new(vec![
                    LevelRef::Level(1),
                    LevelRef::All,
                    LevelRef::All,
                    LevelRef::All,
                ]),
                vec![
                    MemberPred::eq(1, 1),
                    MemberPred::All,
                    MemberPred::All,
                    MemberPred::All,
                ],
            );
            engine.flush();
            let plan = forced_class(starshare_core::TableId(0), vec![(q, JoinMethod::Index)]);
            let sim = engine.execute_plan(&plan).expect("runs").total.sim;
            out.push((
                if clustered { "clustered" } else { "hash-order" }.to_string(),
                fmt_name.to_string(),
                pages,
                sim,
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// §8 scaling study: planning time vs plan quality as query count grows
// ---------------------------------------------------------------------------

/// One row of the scaling study.
#[derive(Debug, Clone)]
pub struct ScalingRow {
    /// Queries in the workload.
    pub n_queries: usize,
    /// Per algorithm: (name, mean planning wall time, mean estimated cost),
    /// averaged over the sampled workloads. Optimal is skipped where its
    /// search space explodes.
    pub algos: Vec<(String, Duration, SimTime)>,
}

/// One algorithm runner in the scaling study.
type PlanRunner<'a> = Box<dyn Fn() -> Result<GlobalPlan, starshare_core::OptError> + 'a>;

/// The paper's §8 question: "the run time of GG is bigger than that of
/// ETPLG, and ETPLG is slower than TPLO" — by how much, and what does the
/// extra search buy? Random workloads of growing size, `samples` each.
pub fn scaling_study(scale: f64, sizes: &[usize], samples: usize) -> Vec<ScalingRow> {
    use std::time::Instant;
    let engine = build_engine(scale);
    let cm = engine.cost_model();
    let mut rng = starshare_prng::Prng::seed_from_u64(0x5CA1E);
    let mut rows = Vec::new();
    for &n in sizes {
        // (name, total time, total cost, runs completed)
        let mut acc: Vec<(String, Duration, f64, u32)> = vec![
            ("TPLO".into(), Duration::ZERO, 0.0, 0),
            ("ETPLG".into(), Duration::ZERO, 0.0, 0),
            ("GG".into(), Duration::ZERO, 0.0, 0),
            ("GGI".into(), Duration::ZERO, 0.0, 0),
            ("Optimal".into(), Duration::ZERO, 0.0, 0),
        ];
        // Optimal only counts when it ran on *every* sample of this size —
        // per-sample skipping would make its mean incomparable.
        let mut optimal_ok = true;
        for _ in 0..samples {
            let ws = random_workload(&engine, &mut rng, n);
            let runs: Vec<(usize, PlanRunner)> = vec![
                (0, Box::new(|| starshare_core::tplo(&cm, &ws))),
                (1, Box::new(|| starshare_core::etplg(&cm, &ws))),
                (2, Box::new(|| starshare_core::gg(&cm, &ws))),
                (3, Box::new(|| starshare_core::ggi(&cm, &ws))),
                (4, Box::new(|| starshare_core::optimal(&cm, &ws))),
            ];
            for (i, run) in runs {
                if i == 4 && !optimal_ok {
                    continue;
                }
                let t = Instant::now();
                match run() {
                    Ok(plan) => {
                        acc[i].1 += t.elapsed();
                        acc[i].2 += plan.estimated_cost.as_secs_f64();
                        acc[i].3 += 1;
                    }
                    Err(_) => {
                        if i == 4 {
                            optimal_ok = false;
                        }
                    }
                }
            }
        }
        let algos = acc
            .into_iter()
            .filter(|(_, _, _, runs)| *runs == samples as u32)
            .map(|(name, t, c, runs)| {
                (
                    name,
                    t / runs,
                    SimTime::from_nanos((c / runs as f64 * 1e9) as u64),
                )
            })
            .collect();
        rows.push(ScalingRow {
            n_queries: n,
            algos,
        });
    }
    rows
}

/// Ablation: how far skew (Zipf θ) pushes measured times away from the
/// cost model's uniformity-based estimates, for both plan families:
/// the Test-4 scan workload (robust — the dominant scan term uses *actual*
/// table sizes) and the Test-6 index workload (exposed — candidate counts
/// are estimated as `rows × uniform selectivity`, and the paper's queries
/// predicate the low member ids that Zipf makes heavy).
/// The third element reports whether the cube carried histogram
/// statistics. Returns `(theta, with_stats, workload, estimated, measured)`.
pub fn ablation_skew(scale: f64) -> Vec<(f64, bool, &'static str, SimTime, SimTime)> {
    use starshare_core::{paper_queries::bind_paper_test, HardwareModel};
    let spec = PaperCubeSpec::scaled(scale);
    let mut rows = Vec::new();
    for (theta, with_stats) in [
        (0.0, false),
        (0.5, false),
        (1.0, false),
        (0.5, true),
        (1.0, true),
    ] {
        let schema = starshare_core::paper_schema(spec.d_leaf);
        let mut builder = starshare_core::CubeBuilder::new(schema)
            .rows(spec.base_rows)
            .seed(spec.seed)
            .base_name("ABCD")
            .materialize("A'B'C'D")
            .materialize("A'B''C'D")
            .materialize("A''B'C'D")
            .materialize("A''B''C''D")
            .skew(theta);
        for table in ["ABCD", "A'B'C'D"] {
            for level in ["A'", "B'", "C'", "D'"] {
                builder = builder.index(table, level);
            }
        }
        if with_stats {
            builder = builder.collect_stats();
        }
        let mut engine = Engine::new(builder.build(), HardwareModel::paper_1998());
        for (label, test) in [("scan (Test 4)", 4), ("index (Test 6)", 6)] {
            let queries = bind_paper_test(&engine.cube().schema, test).expect("binds");
            let plan = engine
                .optimize(&queries, OptimizerKind::Gg)
                .expect("plannable");
            engine.flush();
            let measured = engine.execute_plan(&plan).expect("runs").total.sim;
            rows.push((theta, with_stats, label, plan.estimated_cost, measured));
        }
    }
    rows
}
