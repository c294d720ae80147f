//! The multi-session windowing check: windowed results must be
//! bit-identical to solo runs, and one session's faults must stay its own.
//!
//! Two properties of [`Engine::mdx_window`] (the serving layer's engine
//! entry point) are checked, both against randomly generated co-tenants,
//! on engines at their default optimizer and morsel size — what the
//! server runs — at each of [`WINDOW_THREADS`]:
//!
//! 1. **Differential bit-identity** — for every generated submission, its
//!    per-query result rows *and* its attributed (solo-priced) cost are
//!    bitwise equal whether the submission runs alone or windowed with
//!    random window-mates. This is the serving determinism contract.
//! 2. **Fault isolation** — under an injected fault schedule, a query
//!    either answers bit-identically to the clean solo run or degrades
//!    with the typed fault error; a window-mate of a faulted submission
//!    never fails on its behalf.
//!
//! [`Engine::mdx_window`]: starshare_core::Engine::mdx_window

use starshare_core::{EngineConfig, Error, FaultPlan, PaperCubeSpec, WindowOutcome};
use starshare_prng::Prng;

use crate::session::generate_session;
use crate::storage::StorageProfile;

/// Submissions per generated window, inclusive bounds.
pub const MIN_SUBMISSIONS: usize = 2;
pub const MAX_SUBMISSIONS: usize = 4;

/// The worker-thread counts every check runs at.
pub const WINDOW_THREADS: [usize; 2] = [1, 4];

/// Salt separating window-composition draws from every other stream.
const WINDOW_SALT: u64 = 0x77d0_3a1c_9e55_u64;

/// Tallies from one windowing check, for the harness's sanity asserts.
#[derive(Debug, Clone, Copy, Default)]
pub struct WindowCheck {
    /// Submissions pooled into the window.
    pub submissions: usize,
    /// Queries across the window.
    pub queries: usize,
    /// Classes fed by more than one submission.
    pub cross_submission_classes: usize,
    /// Individual windowed-vs-solo comparisons made.
    pub comparisons: u64,
    /// Queries that degraded with a typed fault (fault checks only).
    pub degraded: usize,
}

/// Every engine in one seed's check — solo twins and the shared window —
/// is built under the seed's [`StorageProfile`], so the windowing
/// bit-identity and fault-isolation contracts are swept across compressed
/// indexes and compressed, zone-pruned heaps too.
fn engine(spec: PaperCubeSpec, seed: u64, threads: usize) -> starshare_core::Engine {
    StorageProfile::from_seed(seed).build_paper(EngineConfig::new().threads(threads), spec)
}

/// Generates the window composition for `seed`: 2–4 sessions, each from
/// its own derived seed.
pub(crate) fn generate_window(spec: PaperCubeSpec, seed: u64) -> Vec<Vec<String>> {
    let schema = starshare_core::paper_schema(spec.d_leaf);
    let mut rng = Prng::seed_from_u64(seed ^ WINDOW_SALT);
    let n = rng.gen_range(MIN_SUBMISSIONS..=MAX_SUBMISSIONS);
    (0..n)
        .map(|k| generate_session(&schema, seed.wrapping_mul(31).wrapping_add(k as u64)).exprs)
        .collect()
}

fn run_window(
    e: &mut starshare_core::Engine,
    submissions: &[Vec<String>],
) -> Result<WindowOutcome, String> {
    let slices: Vec<&[String]> = submissions.iter().map(Vec::as_slice).collect();
    e.mdx_window(&slices)
        .map_err(|e| format!("window failed: {e}"))
}

/// Checks property 1 for `seed`: every submission of a generated window is
/// bit-identical (rows and attributed cost) to running it alone.
pub fn check_windowed_vs_solo(spec: PaperCubeSpec, seed: u64) -> Result<WindowCheck, String> {
    let submissions = generate_window(spec, seed);
    let mut check = WindowCheck {
        submissions: submissions.len(),
        ..WindowCheck::default()
    };
    for threads in WINDOW_THREADS {
        let mut e = engine(spec, seed, threads);
        let windowed = run_window(&mut e, &submissions)?;
        check.queries = windowed.sharing.n_queries;
        check.cross_submission_classes = windowed.sharing.cross_submission_classes;
        for (si, sub) in submissions.iter().enumerate() {
            // Fresh engine per solo run: cold pool, same cube bits.
            let mut solo_engine = engine(spec, seed, threads);
            let solo = run_window(&mut solo_engine, std::slice::from_ref(sub))
                .map_err(|e| format!("submission {si} alone: {e}"))?;
            if windowed.attributed[si] != solo.attributed[0] {
                return Err(format!(
                    "seed {seed} threads {threads} submission {si}: attributed cost depends \
                     on window-mates ({} windowed vs {} alone)",
                    windowed.attributed[si], solo.attributed[0]
                ));
            }
            let w_exprs = windowed.submission(si);
            let s_exprs = solo.submission(0);
            for (xi, (w, s)) in w_exprs.iter().zip(s_exprs).enumerate() {
                let at = |d: &str| {
                    format!("seed {seed} threads {threads} submission {si} expression {xi}: {d}")
                };
                match (w, s) {
                    (Ok(w), Ok(s)) => {
                        for (qi, (wr, sr)) in w.results.iter().zip(&s.results).enumerate() {
                            let (wr, sr) = match (wr, sr) {
                                (Ok(w), Ok(s)) => (w, s),
                                _ => return Err(at(&format!("query {qi}: Ok/Err flip"))),
                            };
                            check.comparisons += 1;
                            if !wr.bit_eq(sr) {
                                return Err(at(&format!(
                                    "query {qi}: windowed rows differ from solo rows"
                                )));
                            }
                        }
                    }
                    (Err(a), Err(b)) => {
                        // Parse/bind failures must at least agree in kind.
                        if std::mem::discriminant(a) != std::mem::discriminant(b) {
                            return Err(at("error kind flipped under windowing"));
                        }
                    }
                    _ => return Err(at("outcome flipped Ok/Err under windowing")),
                }
            }
        }
    }
    Ok(check)
}

/// Checks property 2 for `seed`: under `fault`, a windowed query either
/// answers bit-identically to its clean solo run or carries the typed
/// fault error — window-mates of faulted submissions still answer.
pub fn check_fault_isolation(
    spec: PaperCubeSpec,
    seed: u64,
    fault: FaultPlan,
) -> Result<WindowCheck, String> {
    let submissions = generate_window(spec, seed);

    // Clean solo reference rows per submission.
    let mut clean: Vec<WindowOutcome> = Vec::new();
    for sub in &submissions {
        let mut e = engine(spec, seed, 1);
        clean.push(run_window(&mut e, std::slice::from_ref(sub))?);
    }

    let mut check = WindowCheck {
        submissions: submissions.len(),
        ..WindowCheck::default()
    };
    for threads in WINDOW_THREADS {
        let mut e = engine(spec, seed, threads);
        e.inject_faults(fault);
        let windowed = run_window(&mut e, &submissions)?;
        let stats = e.clear_faults().expect("injector was armed");
        check.queries = windowed.sharing.n_queries;
        check.cross_submission_classes = windowed.sharing.cross_submission_classes;
        let degraded_before = check.degraded;
        for (si, reference) in clean.iter().enumerate() {
            for (xi, (w, s)) in windowed
                .submission(si)
                .iter()
                .zip(reference.submission(0))
                .enumerate()
            {
                let at = |d: &str| {
                    format!("seed {seed} threads {threads} submission {si} expression {xi}: {d}")
                };
                let (w, s) = match (w, s) {
                    (Ok(w), Ok(s)) => (w, s),
                    (Err(Error::Fault(_)), _) => {
                        check.degraded += 1;
                        continue;
                    }
                    (Err(e), _) => return Err(at(&format!("non-fault failure under faults: {e}"))),
                    (Ok(_), Err(e)) => return Err(at(&format!("clean run failed: {e}"))),
                };
                for (qi, (wr, sr)) in w.results.iter().zip(&s.results).enumerate() {
                    match wr {
                        Ok(wr) => {
                            let sr = sr
                                .as_ref()
                                .map_err(|e| at(&format!("clean run failed: {e}")))?;
                            check.comparisons += 1;
                            if !wr.bit_eq(sr) {
                                return Err(at(&format!(
                                    "query {qi}: surviving rows differ from the clean run"
                                )));
                            }
                        }
                        Err(Error::Fault(_)) => check.degraded += 1,
                        Err(e) => {
                            return Err(at(&format!("query {qi}: degraded with a non-fault: {e}")))
                        }
                    }
                }
            }
        }
        if check.degraded > degraded_before && stats.denials() == 0 {
            return Err(format!(
                "seed {seed} threads {threads}: {} queries degraded but the injector \
                 denied nothing",
                check.degraded - degraded_before
            ));
        }
    }
    Ok(check)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::harness_spec;

    #[test]
    fn windowed_matches_solo_across_seeds() {
        let mut cross = 0usize;
        for seed in 0..6 {
            let check = check_windowed_vs_solo(harness_spec(), seed).unwrap();
            assert!(check.comparisons > 0, "seed {seed} compared nothing");
            cross += check.cross_submission_classes;
        }
        // Random sessions overlap often enough that the sweep must have
        // exercised genuine cross-submission sharing somewhere.
        assert!(cross > 0, "sweep never produced a cross-submission class");
    }

    #[test]
    fn faults_stay_inside_their_submission() {
        let mut degraded = 0usize;
        for seed in 0..6u64 {
            let fault = crate::sweep_faults(seed.wrapping_mul(7919));
            let check = check_fault_isolation(harness_spec(), seed, fault).unwrap();
            degraded += check.degraded;
        }
        let _ = degraded; // rates are tuned to degrade sometimes, not always
    }
}
