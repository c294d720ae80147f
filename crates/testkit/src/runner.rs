//! Single-case replay: run one [`Case`] and judge it.
//!
//! This is the common executable core behind `testkit replay` and the
//! shrinker's `still_fails` predicate: build the case's cube and
//! configuration from scratch, run the session (with faults armed if the
//! case has a schedule), and check every per-query outcome — answered
//! queries must match [`reference_eval`] bit for bit, failed queries must
//! carry the typed fault error and only exist when the injector actually
//! denied something.

use starshare_core::{reference_eval, EngineConfig, Error, QueryResult};

use crate::shrink::Case;
use crate::storage::StorageProfile;

/// Runs `case` once. `Ok(())` means the engine honoured its contract on
/// this case; `Err(detail)` is a human-readable account of the violation
/// (the thing a fuzz run shrinks against).
///
/// Cases carrying append batches are maintenance cases: they replay
/// through the freshness differential instead (see [`crate::maintenance`]),
/// so one repro format and one shrinker serve both harnesses.
pub fn run_case(case: &Case) -> Result<(), String> {
    if !case.appends.is_empty() {
        return crate::maintenance::run_maintenance_case(case);
    }
    // The case's storage profile is a function of its seed (the same
    // rotation every sweep uses), so a shrunk repro replays on the same
    // layout it failed under — shrinking keeps the seed.
    let mut engine = StorageProfile::from_seed(case.seed).build_paper(
        EngineConfig::paper()
            .optimizer(case.optimizer)
            .threads(case.threads),
        case.spec,
    );

    // Expected answers, from the row-at-a-time reference.
    let mut expected: Vec<Vec<QueryResult>> = Vec::new();
    {
        let cube = engine.cube();
        let base = cube.catalog.base_table().ok_or("cube has no base table")?;
        for (xi, text) in case.exprs.iter().enumerate() {
            let expr = starshare_core::parse(text)
                .map_err(|e| format!("expression {xi} failed to parse: {e}"))?;
            let bound = starshare_core::bind(&cube.schema, &expr)
                .map_err(|e| format!("expression {xi} failed to bind: {e}"))?;
            expected.push(
                bound
                    .queries
                    .iter()
                    .map(|q| reference_eval(cube, base, q))
                    .collect(),
            );
        }
    }

    let faulted = !case.fault.is_none();
    if faulted {
        engine.inject_faults(case.fault);
    }
    let texts: Vec<&str> = case.exprs.iter().map(String::as_str).collect();
    let out = engine
        .mdx_many(&texts)
        .map_err(|e| format!("whole batch failed: {e}"))?;
    let stats = engine.clear_faults();

    let mut degraded = 0usize;
    for (xi, (outcome, exp)) in out.outcomes.iter().zip(&expected).enumerate() {
        let oc = outcome
            .as_ref()
            .map_err(|e| format!("expression {xi} failed: {e}"))?;
        if oc.results.len() != exp.len() {
            return Err(format!(
                "expression {xi}: {} results for {} queries",
                oc.results.len(),
                exp.len()
            ));
        }
        for (qi, (r, want)) in oc.results.iter().zip(exp).enumerate() {
            match r {
                Ok(r) => {
                    if !r.bit_eq(want) {
                        return Err(format!(
                            "expression {xi} query {qi}: answer disagrees with reference_eval"
                        ));
                    }
                }
                Err(e @ Error::Fault(_)) if faulted => {
                    degraded += 1;
                    let _ = e;
                }
                Err(e) => {
                    return Err(format!("expression {xi} query {qi}: unexpected error: {e}"));
                }
            }
        }
    }
    if let Some(stats) = stats {
        if degraded > 0 && stats.denials() == 0 {
            return Err(format!(
                "{degraded} queries degraded but the injector denied nothing"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::harness_spec;
    use crate::session::generate_session;
    use starshare_core::{paper_schema, FaultPlan, OptimizerKind};

    fn base_case(fault: FaultPlan) -> Case {
        let schema = paper_schema(24);
        let session = generate_session(&schema, 11);
        Case {
            spec: harness_spec(),
            seed: session.seed,
            exprs: session.exprs,
            optimizer: OptimizerKind::Gg,
            threads: 1,
            fault,
            appends: Vec::new(),
        }
    }

    #[test]
    fn clean_case_passes() {
        run_case(&base_case(FaultPlan::none())).unwrap();
    }

    #[test]
    fn faulted_case_still_honours_the_contract() {
        run_case(&base_case(FaultPlan::seeded(5))).unwrap();
    }

    #[test]
    fn malformed_expression_is_reported() {
        let mut c = base_case(FaultPlan::none());
        c.exprs = vec!["this is not MDX".to_string()];
        let e = run_case(&c).unwrap_err();
        assert!(e.contains("parse"), "{e}");
    }
}
