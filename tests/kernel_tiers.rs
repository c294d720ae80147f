//! Property tests for the tiered aggregation kernels.
//!
//! Three schemas whose base-table group-by spaces force each kernel tier
//! (dense flat-array, packed-u64 hash, `Vec<u32>` spill), driven with
//! randomized group-bys and predicates. Every query must
//!
//! * compile to the tier its exact cardinality product predicts,
//! * produce exactly the reference evaluator's answer, and
//! * yield bit-identical rows, `CpuCounters`, and simulated totals when the
//!   same class runs partitioned at threads 1 and 4.

use starshare::{
    execute_class, hash_star_join, reference_eval, ClassSpec, Cube, CubeBuilder, DimPipeline,
    Dimension, ExecContext, GroupBy, GroupByQuery, KernelTier, LevelRef, MemberPred, StarSchema,
    DEFAULT_MORSEL_PAGES, DENSE_MAX_GROUPS,
};
use starshare_prng::Prng;

/// A base-only cube over `dims`, populated with `rows` random facts.
fn build_cube(dims: Vec<Dimension>, rows: u64, seed: u64) -> Cube {
    CubeBuilder::new(StarSchema::new(dims, "m"))
        .rows(rows)
        .seed(seed)
        .build()
}

/// Cardinality product 32³ = 32768 ≤ [`DENSE_MAX_GROUPS`] at the leaves:
/// even the finest query stays dense.
fn dense_cube() -> Cube {
    build_cube(
        vec![
            Dimension::uniform("A", 2, &[4, 4]),
            Dimension::uniform("B", 2, &[4, 4]),
            Dimension::uniform("C", 2, &[4, 4]),
        ],
        3_000,
        11,
    )
}

/// 120⁴ ≈ 2·10⁸ leaf groups: far past dense, comfortably inside `u64`.
fn packed_cube() -> Cube {
    build_cube(
        vec![
            Dimension::uniform("A", 3, &[5, 8]),
            Dimension::uniform("B", 3, &[5, 8]),
            Dimension::uniform("C", 3, &[5, 8]),
            Dimension::uniform("D", 3, &[5, 8]),
        ],
        3_000,
        13,
    )
}

/// 1024⁷ = 2⁷⁰ leaf groups: the cardinality product overflows `u64`, so
/// the finest queries must spill to `Vec<u32>` keys.
fn spill_cube() -> Cube {
    build_cube(
        (0..7)
            .map(|d| Dimension::uniform(format!("D{d}"), 1, &[32, 32]))
            .collect(),
        2_000,
        17,
    )
}

/// A random query over `cube`'s schema: per dimension a random target level
/// (or All) and, sometimes, a random member predicate.
fn random_query(cube: &Cube, rng: &mut Prng) -> GroupByQuery {
    let schema = &cube.schema;
    let mut levels = Vec::new();
    let mut preds = Vec::new();
    for d in 0..schema.n_dims() {
        let n_levels = schema.dim(d).n_levels();
        levels.push(if rng.gen_bool(0.25) {
            LevelRef::All
        } else {
            LevelRef::Level(rng.gen_range(0u8..n_levels))
        });
        preds.push(if rng.gen_bool(0.5) {
            MemberPred::All
        } else {
            let lvl = rng.gen_range(0u8..n_levels);
            let card = schema.dim(d).cardinality(lvl);
            let n = rng.gen_range(1usize..4);
            MemberPred::members_in(lvl, (0..n).map(|_| rng.gen_range(0u32..card)).collect())
        });
    }
    GroupByQuery::new(GroupBy::new(levels), preds)
}

/// The tier the kernel must pick, from the exact group-by cardinality
/// product ([`GroupBy::exact_combinations`]).
fn expected_tier(cube: &Cube, q: &GroupByQuery) -> KernelTier {
    match q.group_by.exact_combinations(&cube.schema) {
        Some(t) if t <= DENSE_MAX_GROUPS => KernelTier::Dense,
        Some(_) => KernelTier::Packed,
        None => KernelTier::Spill,
    }
}

/// Runs `iters` random queries (plus the finest unfiltered query first)
/// against `cube`, asserting tier selection, reference equality, and
/// thread-count invariance. Returns which tiers were exercised.
fn check_cube(cube: &Cube, headline: KernelTier, seed: u64, iters: usize) {
    let base = cube.catalog.base_table().expect("base table");
    let stored = cube.catalog.table(base).group_by().clone();
    let mut rng = Prng::seed_from_u64(seed);
    let mut seen = Vec::new();

    let finest = GroupByQuery::unfiltered(stored.clone());
    for i in 0..=iters {
        let q = if i == 0 {
            finest.clone()
        } else {
            random_query(cube, &mut rng)
        };

        // Tier selection is exactly what the cardinality product predicts.
        let pipeline = DimPipeline::compile(&cube.schema, &stored, &q).expect("answerable");
        let tier = pipeline.kernel_tier();
        assert_eq!(tier, expected_tier(cube, &q), "{}", q.display(&cube.schema));
        if !seen.contains(&tier) {
            seen.push(tier);
        }

        // The one-morsel operator matches the reference evaluator.
        let expect = reference_eval(cube, base, &q);
        let mut ctx = ExecContext::paper_1998();
        let (seq, _) = hash_star_join(&mut ctx, cube, base, &q).expect("runs");
        assert!(seq.approx_eq(&expect, 1e-9), "{}", q.display(&cube.schema));

        // Partitioned execution: threads 1 and 4 agree bit-for-bit on
        // rows, counters, and the simulated clock, and match the
        // reference.
        let spec = ClassSpec {
            table: base,
            hash_queries: vec![q.clone()],
            index_queries: vec![],
        };
        let outs: Vec<_> = [1usize, 4]
            .iter()
            .map(|&threads| {
                let mut ctx = ExecContext::paper_1998();
                execute_class(&mut ctx, cube, &spec, threads, DEFAULT_MORSEL_PAGES).expect("runs")
            })
            .collect();
        assert!(
            outs[0].results[0].approx_eq(&expect, 1e-9),
            "{}",
            q.display(&cube.schema)
        );
        assert_eq!(outs[0].results[0].rows, outs[1].results[0].rows);
        assert_eq!(outs[0].report.sim, outs[1].report.sim);
        assert_eq!(outs[0].report.critical, outs[1].report.critical);
        assert_eq!(outs[0].report.io, outs[1].report.io);
        assert_eq!(outs[0].report.cpu, outs[1].report.cpu);
    }
    assert!(
        seen.contains(&headline),
        "schema never exercised its headline tier {headline:?} (saw {seen:?})"
    );
}

#[test]
fn dense_schema_agrees_with_reference_at_threads_1_and_4() {
    check_cube(&dense_cube(), KernelTier::Dense, 0x4E61_0001, 20);
}

#[test]
fn packed_schema_agrees_with_reference_at_threads_1_and_4() {
    check_cube(&packed_cube(), KernelTier::Packed, 0x4E61_0002, 20);
}

#[test]
fn spill_schema_agrees_with_reference_at_threads_1_and_4() {
    check_cube(&spill_cube(), KernelTier::Spill, 0x4E61_0003, 16);
}

#[test]
fn shared_class_mixing_tiers_matches_reference() {
    // One shared scan feeding queries whose kernels land in different
    // tiers: a coarse (dense) roll-up and the finest (packed) group-by.
    let cube = packed_cube();
    let base = cube.catalog.base_table().expect("base table");
    let stored = cube.catalog.table(base).group_by().clone();
    let coarse = GroupByQuery::unfiltered(GroupBy::new(vec![
        LevelRef::Level(2),
        LevelRef::Level(2),
        LevelRef::All,
        LevelRef::Level(1),
    ]));
    let fine = GroupByQuery::unfiltered(stored.clone());
    let p_coarse = DimPipeline::compile(&cube.schema, &stored, &coarse).unwrap();
    let p_fine = DimPipeline::compile(&cube.schema, &stored, &fine).unwrap();
    assert_eq!(p_coarse.kernel_tier(), KernelTier::Dense);
    assert_eq!(p_fine.kernel_tier(), KernelTier::Packed);

    let spec = ClassSpec {
        table: base,
        hash_queries: vec![coarse.clone(), fine.clone()],
        index_queries: vec![],
    };
    let mut ctx = ExecContext::paper_1998();
    let out = execute_class(&mut ctx, &cube, &spec, 4, DEFAULT_MORSEL_PAGES).expect("runs");
    for (r, q) in out.results.iter().zip([&coarse, &fine]) {
        let expect = reference_eval(&cube, base, q);
        assert!(r.approx_eq(&expect, 1e-9), "{}", q.display(&cube.schema));
    }
}
