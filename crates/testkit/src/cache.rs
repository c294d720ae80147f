//! The result-cache differential check: warm replays must be bit-identical
//! to a cache-less engine, across faults and appends.
//!
//! Three properties of the engine's subsumption result cache
//! (`starshare_exec::ResultCache` behind `EngineConfig::result_cache`) are
//! checked per generated session:
//!
//! 1. **Replay bit-identity** — a seeded session replayed several times on
//!    one cached engine (cold fill, then warm hits — exact and rollup)
//!    answers every query bitwise equal to a cache-less engine's run. A
//!    rollup answer that drifts from the scan by even one ULP fails here.
//! 2. **Fault transparency** — with an injected [`FaultPlan`], a cached
//!    query either still matches the clean cache-less bits or degrades
//!    with the typed fault error; faults must never push a wrong result
//!    *into* the cache (later warm replays re-compare against the clean
//!    reference).
//! 3. **Append freshness** — after `append_facts` lands identical rows on
//!    both engines, every cached entry must be accounted for: delta-patched
//!    to the new epoch in place, or dropped where patching is unsound
//!    (AVG, uncompilable predicates). The next replay must match the
//!    cache-less engine's *post-append* answers, never the pre-append bits
//!    — a patch that drifts by one ULP fails here.

use starshare_core::{
    paper_queries::paper_query_text, paper_schema, EngineConfig, Error, FaultPlan, PaperCubeSpec,
    WindowOutcome,
};
use starshare_prng::Prng;

use crate::session::generate_session;
use crate::storage::StorageProfile;

/// Warm replays per session before the append (the first is the cold fill).
pub const CACHE_REPLAYS: usize = 3;

/// A drill-up of paper Q1 (its `A''.A1.CHILDREN` axis collapsed to the
/// parent): appended with Q1 to every generated session so each seed
/// exercises the subsumption (rollup) path, not just exact hits — random
/// sessions almost never contain derivable pairs on their own.
pub(crate) const COARSE_PROBE: &str = "{A''.A1} on COLUMNS \
     {B''.B1} on ROWS \
     {C''.C1} on PAGES \
     CONTEXT ABCD FILTER (D.DD1);";

/// Fact rows appended for the invalidation phase.
pub const APPEND_ROWS: usize = 16;

/// Salt separating the append-row draws from every other stream.
const APPEND_SALT: u64 = 0xcac4_e5ee_d111_u64;

/// Tallies from one cache check, for the harness's sanity asserts.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheCheck {
    /// Expressions in the generated session.
    pub expressions: usize,
    /// Individual cached-vs-reference row comparisons made.
    pub comparisons: u64,
    /// Exact cache hits across all replays.
    pub exact_hits: u64,
    /// Subsumption (rollup) hits across all replays.
    pub subsumption_hits: u64,
    /// Entries delta-patched in place by the append.
    pub patched: u64,
    /// Entries dropped because the append could not patch them.
    pub patch_drops: u64,
    /// Queries that degraded with a typed fault (fault checks only).
    pub degraded: usize,
}

/// Both the cached engine and its cache-less reference are built under the
/// seed's [`StorageProfile`], so warm replays, fault transparency, and
/// append freshness (which drives `append_facts` — sealed-page growth and
/// `BitmapJoinIndex::extend` — on compressed layouts) are swept across the
/// storage axis too.
fn engine(spec: PaperCubeSpec, cached: bool, seed: u64) -> starshare_core::Engine {
    StorageProfile::from_seed(seed).build_paper(EngineConfig::paper().result_cache(cached), spec)
}

pub(crate) fn run(
    e: &mut starshare_core::Engine,
    exprs: &[String],
) -> Result<WindowOutcome, Error> {
    e.mdx_window(&[exprs])
}

/// Deterministic append batch for `seed`: keys drawn within the leaf
/// cardinalities, measures in quarter units like the generator's.
fn append_rows(spec: PaperCubeSpec, seed: u64) -> Vec<(Vec<u32>, f64)> {
    let schema = paper_schema(spec.d_leaf);
    let cards: Vec<u32> = (0..schema.n_dims())
        .map(|d| schema.dim(d).cardinality(0))
        .collect();
    let mut rng = Prng::seed_from_u64(seed ^ APPEND_SALT);
    (0..APPEND_ROWS)
        .map(|_| {
            let key = cards.iter().map(|&c| rng.gen_range(0..c)).collect();
            (key, rng.gen_range(0u32..400) as f64 * 0.25)
        })
        .collect()
}

/// Compares cached expression outcomes against the cache-less reference's.
/// `faulted` relaxes the cached side to "bit-identical or typed fault".
/// (Shared with the `maintenance` differential, which tallies into its own
/// counters.)
pub(crate) fn compare(
    cached: &[starshare_core::Result<starshare_core::ExprOutcome>],
    reference: &[starshare_core::Result<starshare_core::ExprOutcome>],
    faulted: bool,
    label: &str,
    comparisons: &mut u64,
    degraded: &mut usize,
) -> Result<(), String> {
    for (xi, (c, r)) in cached.iter().zip(reference).enumerate() {
        let at = |d: &str| format!("{label} expression {xi}: {d}");
        let (c, r) = match (c, r) {
            (Ok(c), Ok(r)) => (c, r),
            (Err(Error::Fault(_)), _) if faulted => {
                *degraded += 1;
                continue;
            }
            (Err(a), Err(b)) => {
                if std::mem::discriminant(a) != std::mem::discriminant(b) {
                    return Err(at("error kind differs from the cache-less engine"));
                }
                continue;
            }
            (Err(e), Ok(_)) => return Err(at(&format!("cached run failed: {e}"))),
            (Ok(_), Err(e)) => return Err(at(&format!("reference run failed: {e}"))),
        };
        for (qi, (cr, rr)) in c.results.iter().zip(&r.results).enumerate() {
            match (cr, rr) {
                (Ok(cr), Ok(rr)) => {
                    *comparisons += 1;
                    if !cr.bit_eq(rr) {
                        return Err(at(&format!(
                            "query {qi}: cached rows differ from the cache-less engine"
                        )));
                    }
                }
                (Err(Error::Fault(_)), _) if faulted => *degraded += 1,
                (Err(a), Err(b)) => {
                    if std::mem::discriminant(a) != std::mem::discriminant(b) {
                        return Err(at(&format!("query {qi}: error kind differs")));
                    }
                }
                (Err(e), Ok(_)) => return Err(at(&format!("query {qi}: cached failed: {e}"))),
                (Ok(_), Err(e)) => return Err(at(&format!("query {qi}: reference failed: {e}"))),
            }
        }
    }
    Ok(())
}

/// Checks all three cache properties for `seed`; `fault` arms the cached
/// engine's injector (the reference always runs clean).
pub fn check_cache_differential(
    spec: PaperCubeSpec,
    seed: u64,
    fault: Option<FaultPlan>,
) -> Result<CacheCheck, String> {
    let mut session = generate_session(&paper_schema(spec.d_leaf), seed);
    session.exprs.push(paper_query_text(1).to_string());
    session.exprs.push(COARSE_PROBE.to_string());
    let mut check = CacheCheck {
        expressions: session.exprs.len(),
        ..CacheCheck::default()
    };

    let mut reference = engine(spec, false, seed);
    let pre_ref = run(&mut reference, &session.exprs)
        .map_err(|e| format!("seed {seed}: reference run failed: {e}"))?;

    let mut cached = engine(spec, true, seed);
    if let Some(f) = fault {
        cached.inject_faults(f);
    }
    // Replay 0 submits one window per expression: later expressions can
    // then hit — exactly or by rollup — results the earlier ones just
    // cached (the one-window reference stays valid bit-for-bit because
    // windowed and solo answers are bit-identical).
    for (xi, expr) in session.exprs.iter().enumerate() {
        let label = format!("seed {seed} replay 0 window {xi}");
        match run(&mut cached, std::slice::from_ref(expr)) {
            Ok(out) => compare(
                out.submission(0),
                &pre_ref.submission(0)[xi..xi + 1],
                fault.is_some(),
                &label,
                &mut check.comparisons,
                &mut check.degraded,
            )?,
            Err(e) if fault.is_some() && e.is_fault() => check.degraded += 1,
            Err(e) => return Err(format!("{label}: cached run failed: {e}")),
        }
    }
    for replay in 1..CACHE_REPLAYS {
        let label = format!("seed {seed} replay {replay}");
        match run(&mut cached, &session.exprs) {
            Ok(out) => compare(
                out.submission(0),
                pre_ref.submission(0),
                fault.is_some(),
                &label,
                &mut check.comparisons,
                &mut check.degraded,
            )?,
            Err(e) if fault.is_some() && e.is_fault() => check.degraded += session.exprs.len(),
            Err(e) => return Err(format!("{label}: cached run failed: {e}")),
        }
    }

    // The append moves the cube's epoch on both engines; every cached
    // entry predates it and must be accounted for — delta-patched to the
    // new epoch or dropped as unpatchable, never silently carried stale.
    let rows = append_rows(spec, seed);
    reference
        .append_facts(&rows)
        .map_err(|e| format!("seed {seed}: reference append failed: {e}"))?;
    let filled = cached.cached_results();
    let out = cached
        .append_facts(&rows)
        .map_err(|e| format!("seed {seed}: cached append failed: {e}"))?;
    if out.cache.patched + out.cache.patch_drops + out.cache.invalidations != filled as u64 {
        return Err(format!(
            "seed {seed}: append accounted for {} + {} + {} of {filled} cached entries",
            out.cache.patched, out.cache.patch_drops, out.cache.invalidations
        ));
    }
    if fault.is_none() && filled > 0 && out.cache.patched == 0 {
        return Err(format!(
            "seed {seed}: cache held {filled} entries (incl. SUM queries) but the append patched none"
        ));
    }

    let post_ref = run(&mut reference, &session.exprs)
        .map_err(|e| format!("seed {seed}: post-append reference failed: {e}"))?;
    let label = format!("seed {seed} post-append");
    match run(&mut cached, &session.exprs) {
        Ok(out) => compare(
            out.submission(0),
            post_ref.submission(0),
            fault.is_some(),
            &label,
            &mut check.comparisons,
            &mut check.degraded,
        )?,
        Err(e) if fault.is_some() && e.is_fault() => check.degraded += session.exprs.len(),
        Err(e) => return Err(format!("{label}: cached run failed: {e}")),
    }

    let stats = cached.cache_stats();
    check.exact_hits = stats.exact_hits;
    check.subsumption_hits = stats.subsumption_hits;
    check.patched = stats.patched;
    check.patch_drops = stats.patch_drops;
    Ok(check)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::harness_spec;

    #[test]
    fn warm_replays_match_the_cacheless_engine_across_seeds() {
        let (mut exact, mut rollups, mut patched) = (0u64, 0u64, 0u64);
        for seed in 0..6 {
            let check = check_cache_differential(harness_spec(), seed, None).unwrap();
            assert!(check.comparisons > 0, "seed {seed} compared nothing");
            exact += check.exact_hits;
            rollups += check.subsumption_hits;
            patched += check.patched;
        }
        assert!(exact > 0, "sweep never exact-hit the cache");
        assert!(rollups > 0, "sweep never exercised a subsumption rollup");
        assert!(patched > 0, "sweep never exercised delta patching");
    }

    #[test]
    fn faulted_replays_degrade_gracefully_or_match() {
        let mut degraded = 0usize;
        for seed in 0..6u64 {
            let fault = crate::sweep_faults(seed.wrapping_mul(7919));
            let check = check_cache_differential(harness_spec(), seed, Some(fault)).unwrap();
            degraded += check.degraded;
        }
        let _ = degraded; // rates are tuned to degrade sometimes, not always
    }
}
