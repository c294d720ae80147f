//! End-to-end incremental maintenance: append facts through the engine,
//! keep querying, and verify every answer against brute force over the
//! grown base — across views, indexes, statistics, and snapshots.

use starshare::paper_queries::paper_query_text;
use starshare::{
    load_cube, reference_eval, save_cube, Engine, EngineConfig, HardwareModel, OlapError,
    PaperCubeSpec,
};
use starshare_prng::Prng;

/// Salt separating this suite's append-row draws from every other seeded
/// stream in the repo (reusing bare small seeds across streams is how
/// seed-sensitive flakes are born).
const MAINT_SALT: u64 = 0x3a1e_7e57_5eed_u64;

fn spec() -> PaperCubeSpec {
    PaperCubeSpec {
        base_rows: 3_000,
        d_leaf: 24,
        seed: 42,
        with_indexes: true,
    }
}

fn engine() -> Engine {
    EngineConfig::paper().build_paper(spec())
}

fn random_rows(e: &Engine, n: usize, seed: u64) -> Vec<(Vec<u32>, f64)> {
    let schema = &e.cube().schema;
    let mut rng = Prng::seed_from_u64(seed ^ MAINT_SALT);
    (0..n)
        .map(|_| {
            let keys: Vec<u32> = (0..schema.n_dims())
                .map(|d| rng.gen_range(0..schema.dim(d).cardinality(0)))
                .collect();
            (keys, rng.gen_range(0..400u32) as f64 * 0.25)
        })
        .collect()
}

#[test]
fn queries_track_appends_exactly() {
    let mut e = engine();
    let mut last_epoch = e.cube().epoch;
    for round in 0..3u64 {
        let rows = random_rows(&e, 500, round);
        let out = e.append_facts(&rows).unwrap();
        assert_eq!(out.appended, 500);
        assert!(out.epoch > last_epoch, "every append must move the epoch");
        last_epoch = out.epoch;
        for n in [1, 2, 5, 7] {
            let out = e.mdx(paper_query_text(n)).unwrap();
            let base = e.cube().catalog.base_table().unwrap();
            let q = &out.expr(0).bound.queries[0];
            let expect = reference_eval(e.cube(), base, q);
            assert!(
                out.result(0).bit_eq(&expect),
                "round {round} Q{n} diverged after append"
            );
        }
    }
    let base = e.cube().catalog.base_table().unwrap();
    assert_eq!(e.cube().catalog.table(base).n_rows(), 3_000 + 3 * 500);
}

/// The same tracking property with the result cache on: patched entries
/// must answer exactly what a from-scratch reference does — the tolerance
/// is zero, because the measures lie in the measure domain.
#[test]
fn cached_queries_track_appends_within_tolerance() {
    let mut e = EngineConfig::paper().result_cache(true).build_paper(spec());
    for round in 10..13u64 {
        let rows = random_rows(&e, 300, round);
        e.append_facts(&rows).unwrap();
        for n in [1, 2] {
            let out = e.mdx(paper_query_text(n)).unwrap();
            let base = e.cube().catalog.base_table().unwrap();
            let q = &out.expr(0).bound.queries[0];
            let expect = reference_eval(e.cube(), base, q);
            assert!(
                out.result(0).bit_eq(&expect),
                "round {round} Q{n} diverged on the cached engine"
            );
        }
    }
    assert!(
        e.cache_stats().patched > 0,
        "the cached rounds must exercise delta patching"
    );
}

#[test]
fn appended_cube_round_trips_through_snapshot() {
    let mut e = engine();
    e.append_facts(&random_rows(&e, 400, 9)).unwrap();
    let path = std::env::temp_dir().join(format!("starshare-maint-{}.ss", std::process::id()));
    save_cube(e.cube(), &path).unwrap();
    let loaded = load_cube(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let mut e2 = EngineConfig::paper().build(loaded, HardwareModel::paper_1998());
    let out1 = e.mdx(paper_query_text(3)).unwrap();
    let out2 = e2.mdx(paper_query_text(3)).unwrap();
    assert!(out1.result(0).bit_eq(out2.result(0)));
}

#[test]
fn append_then_plan_uses_grown_sizes() {
    // After a large append, the views grow; the optimizer's cost estimates
    // must see the new sizes (they read the catalog, not a cache).
    let mut e = engine();
    let before = e
        .optimize(
            &[starshare::paper_queries::bind_paper_query(&e.cube().schema, 1).unwrap()],
            starshare::OptimizerKind::Gg,
        )
        .unwrap()
        .estimated_cost;
    e.append_facts(&random_rows(&e, 3_000, 1)).unwrap();
    let after = e
        .optimize(
            &[starshare::paper_queries::bind_paper_query(&e.cube().schema, 1).unwrap()],
            starshare::OptimizerKind::Gg,
        )
        .unwrap()
        .estimated_cost;
    assert!(after > before, "doubling the data must raise the estimate");
}

#[test]
fn failed_append_mutates_nothing() {
    let mut e = engine();
    let epoch = e.cube().epoch;
    let base = e.cube().catalog.base_table().unwrap();
    let rows_before = e.cube().catalog.table(base).n_rows();
    let reference = e.mdx(paper_query_text(1)).unwrap();
    // One good row followed by a bad one (wrong arity): all-or-nothing.
    let bad = vec![(vec![0, 0, 0, 0], 1.0), (vec![0, 0], 2.0)];
    assert!(e.append_facts(&bad).is_err());
    assert_eq!(
        e.cube().epoch,
        epoch,
        "failed append must not move the epoch"
    );
    assert_eq!(e.cube().catalog.table(base).n_rows(), rows_before);
    let again = e.mdx(paper_query_text(1)).unwrap();
    assert!(reference.result(0).bit_eq(again.result(0)));
}

/// A measure outside the measure domain — inexact, negative zero, too
/// large, NaN or infinite — is refused at the engine boundary with the
/// typed error, before the cube, the cache, or the epoch is touched.
#[test]
fn non_finite_measures_are_rejected_at_the_engine() {
    let mut e = EngineConfig::paper().result_cache(true).build_paper(spec());
    let reference = e.mdx(paper_query_text(1)).unwrap();
    let epoch = e.cube().epoch;
    let base = e.cube().catalog.base_table().unwrap();
    let rows_before = e.cube().catalog.table(base).n_rows();
    let (cached, cache_stats) = (e.cached_results(), e.cache_stats());
    let too_big = (1u64 << 20) as f64;
    for bad in [
        0.1,
        -0.0,
        too_big,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ] {
        let rows = vec![(vec![0, 0, 0, 0], 1.0), (vec![1, 1, 1, 1], bad)];
        match e.append_facts(&rows) {
            Err(e @ starshare::Error::Append(OlapError::InexactMeasure { row: 1, value })) => {
                assert_eq!(value.to_bits(), bad.to_bits());
                assert!(e.to_string().starts_with("append rejected: "), "{e}");
            }
            other => panic!("{bad:?} must be rejected as inexact, got {other:?}"),
        }
        assert_eq!(
            e.cube().epoch,
            epoch,
            "a rejected batch must not move the epoch"
        );
        assert_eq!(
            e.cached_results(),
            cached,
            "a rejected batch must not touch the cache"
        );
        assert_eq!(e.cache_stats(), cache_stats);
    }
    assert_eq!(e.cube().catalog.table(base).n_rows(), rows_before);
    let again = e.mdx(paper_query_text(1)).unwrap();
    assert!(reference.result(0).bit_eq(again.result(0)));
}
