//! Property tests on the optimizers: every algorithm, on random workloads,
//! must produce a *valid* plan (each query exactly once, every assignment
//! answerable, index methods only where indexes apply), the exhaustive
//! search must dominate every heuristic on estimates, and executing any
//! produced plan must yield reference answers. (The greedy algorithms are
//! deliberately *not* asserted to be totally ordered — see
//! `optimal_dominates_every_heuristic`.)

use std::sync::OnceLock;

use starshare::{
    paper_cube, reference_eval, Cube, Engine, GroupBy, GroupByQuery, HardwareModel, JoinMethod,
    LevelRef, MemberPred, OptimizerKind, PaperCubeSpec, SimTime,
};
use starshare_prng::Prng;

fn cube_spec() -> PaperCubeSpec {
    PaperCubeSpec {
        base_rows: 3_000,
        d_leaf: 24,
        seed: 13,
        with_indexes: true,
    }
}

fn cube() -> &'static Cube {
    static CUBE: OnceLock<Cube> = OnceLock::new();
    CUBE.get_or_init(|| paper_cube(cube_spec()))
}

/// Queries whose predicate levels are no finer than level 1, so several
/// materialized views stay candidates (keeps the search interesting).
fn random_query(rng: &mut Prng) -> GroupByQuery {
    fn dim(rng: &mut Prng, card1: u32) -> (LevelRef, MemberPred) {
        let level = if rng.gen_bool(0.5) {
            LevelRef::All
        } else {
            LevelRef::Level(rng.gen_range(0u8..3))
        };
        let pred = if rng.gen_bool(0.4) {
            MemberPred::All
        } else {
            let lvl = rng.gen_range(1u8..3);
            let card = if lvl == 1 { card1 } else { 3 };
            let n = rng.gen_range(1usize..4);
            let ms: Vec<u32> = (0..n).map(|_| rng.gen_range(0u32..24) % card).collect();
            MemberPred::members_in(lvl, ms)
        };
        (level, pred)
    }
    let specs = [dim(rng, 6), dim(rng, 6), dim(rng, 6), dim(rng, 24)];
    let (levels, preds): (Vec<LevelRef>, Vec<MemberPred>) = specs.into_iter().unzip();
    GroupByQuery::new(GroupBy::new(levels), preds)
}

fn random_workload(rng: &mut Prng, lo: usize, hi: usize) -> Vec<GroupByQuery> {
    let n = rng.gen_range(lo..hi);
    (0..n).map(|_| random_query(rng)).collect()
}

/// Queries in the shape of the bench's random workloads: every dimension
/// grouped at level 0–2 and predicated 70 % of the time on 1–3 members of
/// level 1 or 2. Most of them can only be answered from the base table,
/// where any predicate is index-servable, so one class there gathers many
/// index-capable members.
fn grouped_query(rng: &mut Prng) -> GroupByQuery {
    let schema = &cube().schema;
    let (levels, preds) = (0..schema.n_dims())
        .map(|d| {
            let level = LevelRef::Level(rng.gen_range(0..3u8));
            let pred = if rng.gen_bool(0.7) {
                let lvl = rng.gen_range(1..3u8);
                let card = schema.dim(d).cardinality(lvl);
                let k = rng.gen_range(1..=card.min(3));
                MemberPred::members_in(lvl, (0..k).map(|_| rng.gen_range(0..card)).collect())
            } else {
                MemberPred::All
            };
            (level, pred)
        })
        .unzip();
    GroupByQuery::new(GroupBy::new(levels), preds)
}

#[test]
fn plans_are_valid_for_all_algorithms() {
    let cube = cube();
    let engine = Engine::new(paper_cube(cube_spec()), HardwareModel::paper_1998());
    let cm = engine.cost_model();
    let mut rng = Prng::seed_from_u64(0x0971_0001);
    for _ in 0..24 {
        let qs = random_workload(&mut rng, 1, 5);
        for kind in OptimizerKind::ALL {
            let plan = kind.run(&cm, &qs).expect("paper cube answers everything");
            assert_eq!(plan.n_queries(), qs.len(), "{}", kind);
            // Each input query appears exactly once.
            for q in &qs {
                let want = qs.iter().filter(|x| *x == q).count();
                let got = plan.assignments().filter(|(_, pq, _)| *pq == q).count();
                assert_eq!(got, want, "{}: {}", kind, q.display(&cube.schema));
            }
            for (t, q, m) in plan.assignments() {
                assert!(
                    q.answerable_from(engine.cube().catalog.table(t).group_by()),
                    "{}: unanswerable assignment",
                    kind
                );
                if m == JoinMethod::Index {
                    assert!(cm.index_applicable(q, t), "{}: bogus index method", kind);
                }
            }
            // No two classes share a base table (they should have merged).
            for (i, a) in plan.classes.iter().enumerate() {
                for b in &plan.classes[i + 1..] {
                    assert!(a.table != b.table, "{}: duplicate class base", kind);
                }
            }
        }
    }
}

#[test]
fn search_power_ordering_holds() {
    let engine = Engine::new(paper_cube(cube_spec()), HardwareModel::paper_1998());
    let cm = engine.cost_model();
    let mut rng = Prng::seed_from_u64(0x0971_0002);
    for _ in 0..24 {
        let qs = random_workload(&mut rng, 1, 4);
        let gg = OptimizerKind::Gg.run(&cm, &qs).unwrap().estimated_cost;
        let opt = OptimizerKind::Optimal.run(&cm, &qs).unwrap().estimated_cost;
        assert!(opt <= gg, "optimal {} > GG {}", opt, gg);
        // Singleton workloads: all algorithms find the same best plan.
        if qs.len() == 1 {
            let tplo = OptimizerKind::Tplo.run(&cm, &qs).unwrap().estimated_cost;
            assert_eq!(tplo, opt);
        }
    }
}

#[test]
fn executing_any_plan_gives_reference_answers() {
    let cube = cube();
    let base = cube.catalog.base_table().unwrap();
    let mut engine = Engine::new(paper_cube(cube_spec()), HardwareModel::paper_1998());
    let mut rng = Prng::seed_from_u64(0x0971_0003);
    for _ in 0..24 {
        let qs = random_workload(&mut rng, 1, 4);
        for kind in [OptimizerKind::Tplo, OptimizerKind::Gg] {
            let plan = engine.optimize(&qs, kind).unwrap();
            engine.flush();
            let exec = engine.execute_plan(&plan).unwrap();
            let plan_queries: Vec<GroupByQuery> =
                plan.assignments().map(|(_, q, _)| q.clone()).collect();
            for (q, r) in plan_queries.iter().zip(&exec.results) {
                let expect = reference_eval(cube, base, q);
                assert!(
                    r.approx_eq(&expect, 1e-9),
                    "{}: {}",
                    kind,
                    q.display(&cube.schema)
                );
            }
        }
    }
}

#[test]
fn optimal_dominates_every_heuristic() {
    // The only *guaranteed* ordering: the exhaustive search is at least
    // as good as every heuristic, GGI never loses to GG (it starts from
    // GG's plan and accepts only improvements), and no plan costs more
    // than running every query alone on its best local plan (sharing
    // never loses to no sharing). Nothing guarantees the greedy
    // algorithms a total order — one greedy step can commit a class that
    // later queries would have split better — so no GG ≤ ETPLG ≤ TPLO
    // assertion here; the paper-workload tests pin those orderings where
    // the paper claims them.
    //
    // Sizes run from 2 to 16 queries. The grouped workloads put more than
    // 12 index-capable members into one class, which the sweep must see.
    let engine = Engine::new(paper_cube(cube_spec()), HardwareModel::paper_1998());
    let cm = engine.cost_model();
    let mut rng = Prng::seed_from_u64(0x0971_0004);
    let mut wide_classes = 0;
    for n in 2..=16 {
        for sample in 0..6 {
            let qs: Vec<GroupByQuery> = if sample < 2 {
                (0..n).map(|_| random_query(&mut rng)).collect()
            } else {
                (0..n).map(|_| grouped_query(&mut rng)).collect()
            };
            let Ok(optimal) = OptimizerKind::Optimal.run(&cm, &qs) else {
                continue; // the assignment space is too large to enumerate
            };
            let opt = optimal.estimated_cost;
            let alone: SimTime = qs.iter().map(|q| cm.best_local(q).unwrap().2).sum();
            let tplo = OptimizerKind::Tplo.run(&cm, &qs).unwrap().estimated_cost;
            let etplg = OptimizerKind::Etplg.run(&cm, &qs).unwrap().estimated_cost;
            let gg = OptimizerKind::Gg.run(&cm, &qs).unwrap().estimated_cost;
            let ggi = starshare::ggi(&cm, &qs).unwrap().estimated_cost;
            for (name, c) in [
                ("TPLO", tplo),
                ("ETPLG", etplg),
                ("GG", gg),
                ("GGI", ggi),
                ("Optimal", opt),
            ] {
                assert!(opt <= c, "{n} queries: optimal {opt} > {name} {c}");
                assert!(c <= alone, "{n} queries: {name} {c} > unshared {alone}");
            }
            assert!(ggi <= gg, "{n} queries: GGI {ggi} > GG {gg}");
            for class in &optimal.classes {
                let flexible = class
                    .queries()
                    .filter(|q| cm.index_applicable(q, class.table));
                wide_classes += usize::from(flexible.count() > 12);
            }
        }
    }
    assert!(
        wide_classes > 0,
        "no class had more than 12 index-capable members"
    );
}
