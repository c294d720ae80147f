//! The fault-injection harness: faulted runs versus their fault-free twin.
//!
//! The property under test is the engine's graceful-degradation contract
//! ([`Engine::mdx_many`] + `starshare_storage::fault`):
//!
//! 1. every injected fault is either retried to success inside the
//!    executor or reported as a per-query typed error
//!    ([`Error::Fault`](starshare_core::Error)) — never a panic, never a
//!    wrong answer;
//! 2. every query that still answers returns rows **bit-identical** to the
//!    fault-free run of the same session (a denied page access charges
//!    nothing, so a successful retry is invisible to both the results and
//!    the simulated clock).
//!
//! Fault injection lives on the engine's own buffer pool, which the
//! executor charges every page access to in morsel order whatever the
//! thread count, so the harness runs each fault plan at 1 and at 4 threads
//! and also requires the two runs to agree: the same injector tally and
//! the same per-query outcomes.
//!
//! [`Engine::mdx_many`]: starshare_core::Engine::mdx_many

use starshare_core::{
    Engine, EngineConfig, Error, FaultPlan, FaultStats, OptimizerKind, PaperCubeSpec,
};

use crate::session::Session;
use crate::storage::StorageProfile;

/// The thread counts [`FaultHarness::compare`] runs every fault plan at.
pub const FAULT_THREADS: [usize; 2] = [1, 4];

/// The fault plan every `--faults` sweep draws: rates at which a sweep
/// degrades queries as well as retrying reads to success.
pub fn sweep_faults(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        transient: 0.05,
        poison: 0.01,
    }
}

/// One query's result rows, as the engine returns them.
type QueryRows = Vec<(Vec<u32>, f64)>;

/// Per-query outcome of a faulted run, aligned with the fault-free run.
#[derive(Debug, PartialEq)]
pub enum FaultedQuery {
    /// The query answered; its rows were bit-identical to the fault-free
    /// run.
    Survived,
    /// The query failed with the typed fault error shown.
    Degraded(String),
}

/// What one faulted session run looked like next to its fault-free twin.
#[derive(Debug)]
pub struct FaultedComparison {
    /// Per-query outcomes, in (expression, binding) order.
    pub queries: Vec<FaultedQuery>,
    /// The injector's tally for the faulted run.
    pub stats: FaultStats,
    /// Contract violations (empty = the degradation contract held).
    pub violations: Vec<String>,
}

impl FaultedComparison {
    /// Queries that degraded (returned a typed error).
    pub fn n_degraded(&self) -> usize {
        self.queries
            .iter()
            .filter(|q| matches!(q, FaultedQuery::Degraded(_)))
            .count()
    }

    /// Queries that survived with bit-identical rows.
    pub fn n_survived(&self) -> usize {
        self.queries.len() - self.n_degraded()
    }

    /// True when the degradation contract held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The harness: a persistent fault-free baseline engine plus a fresh,
/// identically-built engine per faulted run (fresh so each fault schedule
/// starts from a clean injector and cold pool).
///
/// [`compare`](Self::compare) runs each fault plan at
/// [`FAULT_THREADS`]; [`compare_at`](Self::compare_at) runs it at one
/// chosen thread count.
pub struct FaultHarness {
    spec: PaperCubeSpec,
    optimizer: OptimizerKind,
    storage: StorageProfile,
    baseline: Engine,
}

impl FaultHarness {
    /// Builds the harness over `spec` with the given optimizer.
    pub fn new(spec: PaperCubeSpec, optimizer: OptimizerKind) -> Self {
        Self::with_storage(spec, optimizer, StorageProfile::Plain)
    }

    /// Like [`new`](Self::new), but both the baseline and every per-fault
    /// fresh engine are built under `storage` — so the degradation
    /// contract (typed errors or bit-identical survivors, retries
    /// invisible) is checked on compressed indexes and compressed,
    /// zone-pruned heaps too.
    pub fn with_storage(
        spec: PaperCubeSpec,
        optimizer: OptimizerKind,
        storage: StorageProfile,
    ) -> Self {
        FaultHarness {
            spec,
            optimizer,
            storage,
            baseline: storage.build_paper(EngineConfig::paper().optimizer(optimizer), spec),
        }
    }

    /// The schema sessions should be generated against.
    pub fn schema(&self) -> &starshare_core::StarSchema {
        &self.baseline.cube().schema
    }

    /// Runs `session` fault-free on the baseline engine; panics if the
    /// batch does not fully answer (generated sessions always do).
    fn baseline_rows(&mut self, session: &Session) -> Vec<Vec<QueryRows>> {
        self.baseline.flush();
        let out = self
            .baseline
            .mdx_many(&session.texts())
            .expect("fault-free batch runs");
        out.outcomes
            .iter()
            .map(|o| {
                o.as_ref()
                    .expect("generated expressions bind")
                    .results
                    .iter()
                    .map(|r| r.as_ref().expect("fault-free queries answer").rows.clone())
                    .collect()
            })
            .collect()
    }

    /// Runs `session` under `fault` at every thread count in
    /// [`FAULT_THREADS`], checks the degradation contract against the
    /// fault-free twin at each, and requires every run to match the first:
    /// the same injector tally and the same per-query outcomes, error
    /// messages included. Returns the first run's comparison carrying
    /// every run's violations.
    pub fn compare(&mut self, session: &Session, fault: FaultPlan) -> FaultedComparison {
        let [first, rest @ ..] = FAULT_THREADS;
        let mut cmp = self.compare_at(session, fault, first);
        for threads in rest {
            let other = self.compare_at(session, fault, threads);
            if other.stats != cmp.stats {
                cmp.violations.push(format!(
                    "fault tally moved with the thread count: {:?} at {first} threads, \
                     {:?} at {threads}",
                    cmp.stats, other.stats
                ));
            }
            if other.queries != cmp.queries {
                cmp.violations.push(format!(
                    "per-query outcomes moved with the thread count: {:?} at {first} \
                     threads, {:?} at {threads}",
                    cmp.queries, other.queries
                ));
            }
            cmp.violations.extend(
                other
                    .violations
                    .into_iter()
                    .map(|v| format!("{threads} threads: {v}")),
            );
        }
        cmp
    }

    /// Runs `session` under `fault` on a fresh engine at `threads` worker
    /// threads and checks the degradation contract against the fault-free
    /// twin.
    pub fn compare_at(
        &mut self,
        session: &Session,
        fault: FaultPlan,
        threads: usize,
    ) -> FaultedComparison {
        let baseline = self.baseline_rows(session);
        let mut engine = self.storage.build_paper(
            EngineConfig::paper()
                .optimizer(self.optimizer)
                .threads(threads),
            self.spec,
        );
        engine.inject_faults(fault);
        let mut queries = Vec::new();
        let mut violations = Vec::new();
        match engine.mdx_many(&session.texts()) {
            Ok(out) => {
                for (xi, (outcome, base_expr)) in out.outcomes.iter().zip(&baseline).enumerate() {
                    let oc = match outcome {
                        Ok(oc) => oc,
                        Err(e) => {
                            violations.push(format!(
                                "expression {xi}: bind/parse flipped under faults: {e}"
                            ));
                            continue;
                        }
                    };
                    for (qi, (r, base_rows)) in oc.results.iter().zip(base_expr).enumerate() {
                        match r {
                            Ok(r) => {
                                if &r.rows != base_rows {
                                    violations.push(format!(
                                        "expression {xi} query {qi}: surviving rows differ \
                                         from the fault-free run"
                                    ));
                                }
                                queries.push(FaultedQuery::Survived);
                            }
                            Err(e @ Error::Fault(_)) => {
                                queries.push(FaultedQuery::Degraded(e.to_string()));
                            }
                            Err(e) => {
                                violations.push(format!(
                                    "expression {xi} query {qi}: non-fault error under \
                                     injection: {e}"
                                ));
                                queries.push(FaultedQuery::Degraded(e.to_string()));
                            }
                        }
                    }
                }
            }
            Err(e) => violations.push(format!("whole batch failed (no degradation): {e}")),
        }
        let stats = engine
            .clear_faults()
            .expect("injector was armed for this run");
        // Unrecovered faults and per-query errors must agree in spirit: if
        // nothing was ever denied, nothing may have degraded.
        let degraded = queries
            .iter()
            .filter(|q| matches!(q, FaultedQuery::Degraded(_)))
            .count();
        if stats.denials() == 0 && degraded > 0 {
            violations.push(format!(
                "{degraded} queries degraded but the injector denied nothing"
            ));
        }
        FaultedComparison {
            queries,
            stats,
            violations,
        }
    }
}
