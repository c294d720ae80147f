//! The streaming-maintenance freshness differential: sessions interleaved
//! with append batches must answer from delta-patched state exactly as a
//! from-scratch engine would.
//!
//! Each seeded check drives one long-lived *cached* engine through
//! alternating rounds of MDX and `append_facts`, and after every round
//! rebuilds a fresh cache-less engine, replays the append prefix onto it
//! from scratch, and compares every answer bit-for-bit. That closes the
//! loop the cache differential ([`crate::cache`]) leaves open: here the
//! live engine's state is the *accumulated* product of patches across many
//! epochs, not a single append, so any drift a patch introduces compounds
//! where this harness can see it.
//!
//! Each appending round also fires a *faulted* append first — a batch with
//! a malformed row — and asserts it is rejected atomically: no epoch bump,
//! no partial rows, and the next differential still matches. Generated
//! measures lie in the measure domain (quarter units), so the comparison
//! can demand bit equality.
//!
//! A failure is a [`Case`] whose `appends` are non-empty, which routes
//! [`run_case`](crate::run_case) back through this differential — the
//! shrinker then minimizes the `(spec, session, appends, fault)` quadruple
//! with the same machinery as the pure-query harnesses.

use starshare_core::{
    paper_queries::paper_query_text, paper_schema, EngineConfig, Error, FaultPlan, PaperCubeSpec,
    WindowOutcome,
};
use starshare_prng::Prng;

use crate::cache::{compare, COARSE_PROBE};
use crate::session::generate_session;
use crate::shrink::Case;
use crate::storage::StorageProfile;

/// Append batches per generated maintenance session (rounds of MDX run
/// between them, plus one cold round before the first batch).
pub const MAINT_ROUNDS: usize = 3;

/// Rows per generated append batch.
pub const MAINT_APPEND_ROWS: usize = 24;

/// Salt separating maintenance append draws from every other stream.
const MAINT_SALT: u64 = 0x3a11_7e4a_9ce5_u64;

/// Tallies from one maintenance check, for the harness's sanity asserts.
#[derive(Debug, Clone, Copy, Default)]
pub struct MaintenanceCheck {
    /// Expressions replayed each round.
    pub expressions: usize,
    /// Rounds run (append batches + the cold round).
    pub rounds: usize,
    /// Individual live-vs-fresh row comparisons made.
    pub comparisons: u64,
    /// Cache entries delta-patched in place across all appends.
    pub patched: u64,
    /// Cache entries dropped as unpatchable across all appends.
    pub patch_drops: u64,
    /// Malformed appends rejected (one probe per appending round).
    pub rejected_appends: u64,
    /// Queries that degraded with a typed fault (fault checks only).
    pub degraded: usize,
}

/// The expressions a maintenance session replays every round: a generated
/// session plus paper Q1 and its drill-up probe, so every seed holds both
/// patchable (SUM) entries and the subsumption path between appends.
pub fn maintenance_exprs(spec: PaperCubeSpec, seed: u64) -> Vec<String> {
    let mut session = generate_session(&paper_schema(spec.d_leaf), seed);
    session.exprs.push(paper_query_text(1).to_string());
    session.exprs.push(COARSE_PROBE.to_string());
    session.exprs
}

/// Deterministic append batches for `seed`: keys within the leaf
/// cardinalities, measures in quarter units like the generator's.
pub fn maintenance_appends(spec: PaperCubeSpec, seed: u64) -> Vec<Vec<(Vec<u32>, f64)>> {
    let schema = paper_schema(spec.d_leaf);
    let cards: Vec<u32> = (0..schema.n_dims())
        .map(|d| schema.dim(d).cardinality(0))
        .collect();
    (0..MAINT_ROUNDS as u64)
        .map(|round| {
            let mut rng = Prng::seed_from_u64(seed ^ MAINT_SALT ^ (round << 32));
            (0..MAINT_APPEND_ROWS)
                .map(|_| {
                    let key = cards.iter().map(|&c| rng.gen_range(0..c)).collect();
                    (key, rng.gen_range(0u32..400) as f64 * 0.25)
                })
                .collect()
        })
        .collect()
}

/// The fully generated maintenance case for `seed` — what the `testkit`
/// binary's sweep runs and, on failure, hands to the shrinker.
pub fn maintenance_case(spec: PaperCubeSpec, seed: u64, fault: Option<FaultPlan>) -> Case {
    Case {
        spec,
        seed,
        exprs: maintenance_exprs(spec, seed),
        optimizer: starshare_core::OptimizerKind::Tplo,
        threads: 1,
        fault: fault.unwrap_or_else(FaultPlan::none),
        appends: maintenance_appends(spec, seed),
    }
}

/// Checks the freshness differential for `seed`; `fault` arms the live
/// engine's injector (the fresh reference always runs clean).
pub fn check_maintenance_differential(
    spec: PaperCubeSpec,
    seed: u64,
    fault: Option<FaultPlan>,
) -> Result<MaintenanceCheck, String> {
    run_maintenance_core(&maintenance_case(spec, seed, fault))
}

/// [`run_case`](crate::run_case)'s view of a maintenance case: pass/fail
/// with the tallies dropped.
pub(crate) fn run_maintenance_case(case: &Case) -> Result<(), String> {
    run_maintenance_core(case).map(|_| ())
}

fn window(e: &mut starshare_core::Engine, case: &Case) -> Result<WindowOutcome, Error> {
    e.mdx_window(&[case.exprs.as_slice()])
}

fn run_maintenance_core(case: &Case) -> Result<MaintenanceCheck, String> {
    let seed = case.seed;
    let faulted = !case.fault.is_none();
    let mut check = MaintenanceCheck {
        expressions: case.exprs.len(),
        rounds: case.appends.len() + 1,
        ..MaintenanceCheck::default()
    };
    // Both the live engine and every fresh from-scratch reference are
    // built under the seed's storage profile: on compressed layouts each
    // append grows sealed pages and runs `BitmapJoinIndex::extend` on the
    // compressed format, and the freshness differential must still hold to
    // the bit.
    let storage = StorageProfile::from_seed(seed);
    let build = |cached: bool| {
        storage
            .apply(
                EngineConfig::paper()
                    .optimizer(case.optimizer)
                    .threads(case.threads)
                    .result_cache(cached),
            )
            .build_paper(case.spec)
    };

    let mut live = build(true);
    if faulted {
        live.inject_faults(case.fault);
    }
    let n_dims = paper_schema(case.spec.d_leaf).n_dims();

    for round in 0..=case.appends.len() {
        if round > 0 {
            let batch = &case.appends[round - 1];

            // A faulted append first: one malformed row must poison the
            // whole batch atomically — rejected, epoch untouched.
            let epoch_before = live.cube().epoch;
            let poison = vec![
                (vec![0u32; n_dims], 0.25),
                (vec![0u32; n_dims.saturating_sub(1)], 0.25),
            ];
            if live.append_facts(&poison).is_ok() {
                return Err(format!(
                    "seed {seed} round {round}: malformed append was accepted"
                ));
            }
            if live.cube().epoch != epoch_before {
                return Err(format!(
                    "seed {seed} round {round}: rejected append still bumped the epoch"
                ));
            }
            check.rejected_appends += 1;

            // The real batch: every cached entry must be accounted for.
            let filled = live.cached_results() as u64;
            let out = live
                .append_facts(batch)
                .map_err(|e| format!("seed {seed} round {round}: append failed: {e}"))?;
            if out.appended != batch.len() as u64 {
                return Err(format!(
                    "seed {seed} round {round}: appended {} of {} rows",
                    out.appended,
                    batch.len()
                ));
            }
            if out.cache.patched + out.cache.patch_drops + out.cache.invalidations != filled {
                return Err(format!(
                    "seed {seed} round {round}: append accounted for {} + {} + {} of {filled} cached entries",
                    out.cache.patched, out.cache.patch_drops, out.cache.invalidations
                ));
            }
            check.patched += out.cache.patched;
            check.patch_drops += out.cache.patch_drops;
        }

        // The freshness differential: a fresh cache-less engine replays
        // the append prefix from scratch and must agree to the bit.
        let mut reference = build(false);
        for (bi, batch) in case.appends[..round].iter().enumerate() {
            reference.append_facts(batch).map_err(|e| {
                format!("seed {seed} round {round}: reference append {bi} failed: {e}")
            })?;
        }
        let ref_out = window(&mut reference, case)
            .map_err(|e| format!("seed {seed} round {round}: reference run failed: {e}"))?;
        let label = format!("seed {seed} round {round}");
        match window(&mut live, case) {
            Ok(out) => compare(
                out.submission(0),
                ref_out.submission(0),
                faulted,
                &label,
                &mut check.comparisons,
                &mut check.degraded,
            )?,
            Err(e) if faulted && e.is_fault() => check.degraded += case.exprs.len(),
            Err(e) => return Err(format!("{label}: live run failed: {e}")),
        }
    }

    if !faulted && !case.appends.is_empty() && check.patched == 0 {
        return Err(format!(
            "seed {seed}: session held SUM queries across {} appends but none patched",
            case.appends.len()
        ));
    }
    Ok(check)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::harness_spec;

    #[test]
    fn maintenance_differential_holds_across_seeds() {
        let (mut patched, mut rejected) = (0u64, 0u64);
        for seed in 0..4 {
            let check = check_maintenance_differential(harness_spec(), seed, None).unwrap();
            assert!(check.comparisons > 0, "seed {seed} compared nothing");
            assert_eq!(check.rounds, MAINT_ROUNDS + 1);
            patched += check.patched;
            rejected += check.rejected_appends;
        }
        assert!(patched > 0, "sweep never delta-patched a live entry");
        assert_eq!(rejected, 4 * MAINT_ROUNDS as u64);
    }

    #[test]
    fn faulted_maintenance_degrades_gracefully_or_matches() {
        for seed in 0..3u64 {
            let fault = FaultPlan {
                seed: seed.wrapping_mul(6151),
                transient: 0.05,
                poison: 0.01,
            };
            check_maintenance_differential(harness_spec(), seed, Some(fault)).unwrap();
        }
    }

    #[test]
    fn appends_route_a_case_through_the_maintenance_differential() {
        let case = maintenance_case(harness_spec(), 2, None);
        assert!(!case.appends.is_empty());
        crate::run_case(&case).unwrap();
    }
}
