//! The differential oracle: one session, many configurations, one answer.
//!
//! The engine's contract is that *how* a batch is evaluated — which
//! optimizer groups the queries, how many worker threads run the classes,
//! which aggregation kernel tier each pipeline compiles to — never changes
//! *what* it answers. The oracle checks that contract the brute-force way:
//!
//! * every configuration's results are compared against
//!   [`reference_eval`], the row-at-a-time scan oracle;
//! * each configuration is run twice (flushed in between) and must
//!   reproduce its own results **bit-identically** along with its
//!   invariant counters (`sim`, `critical`, `io`) — the determinism
//!   contract;
//! * kernel-tier coverage is recorded per plan, so the harness can prove
//!   the sweep exercised more than one tier rather than silently living in
//!   `Dense` the whole time.
//!
//! Every comparison is bitwise, against the reference and across
//! configurations: aggregation is exact on the measure domain, so no
//! optimizer, thread count, morsel size or merge order may move a bit.

use std::collections::BTreeSet;
use std::fmt;

use starshare_core::{
    reference_eval, DimPipeline, Engine, EngineConfig, KernelTier, OptimizerKind, Outcome,
    PaperCubeSpec, QueryResult,
};

use crate::session::Session;
use crate::storage::StorageProfile;

/// The optimizers the oracle sweeps.
pub const ORACLE_OPTIMIZERS: [OptimizerKind; 3] =
    [OptimizerKind::Tplo, OptimizerKind::Etplg, OptimizerKind::Gg];

/// The thread counts the oracle sweeps: one worker, then the morsel
/// scheduler at widths below, at, and above typical host core counts
/// (16 > the morsel count of most harness classes, so stealing
/// saturates).
pub const ORACLE_THREADS: [usize; 4] = [1, 2, 7, 16];

/// The small-but-real cube the harness runs against: big enough that every
/// paper view exists, finest-level group-bys overflow the dense kernel, and
/// scans span many pages; small enough that a 500-session sweep stays in
/// test-suite territory.
pub fn harness_spec() -> PaperCubeSpec {
    PaperCubeSpec {
        base_rows: 800,
        d_leaf: 24,
        seed: 7,
        with_indexes: true,
    }
}

/// A differential disagreement (or broken invariant), with enough identity
/// to replay it: the session seed plus the configuration that diverged.
#[derive(Debug, Clone)]
pub struct Mismatch {
    /// Seed of the offending session.
    pub seed: u64,
    /// Optimizer of the diverging configuration.
    pub optimizer: OptimizerKind,
    /// Thread count of the diverging configuration.
    pub threads: usize,
    /// What went wrong, in words.
    pub detail: String,
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "session seed {}: [{:?} x{}] {}",
            self.seed, self.optimizer, self.threads, self.detail
        )
    }
}

/// Aggregate tallies across a sweep, for the harness's own sanity asserts.
#[derive(Debug, Clone, Copy, Default)]
pub struct OracleStats {
    /// Sessions checked.
    pub sessions: u64,
    /// Individual (query, configuration) comparisons against the
    /// reference.
    pub comparisons: u64,
    /// Determinism double-runs performed.
    pub reruns: u64,
    /// Storage-profile differential checks performed (one engine per
    /// session, round-robined by seed).
    pub storage_checks: u64,
}

/// The differential oracle: a fixed cube, one engine per configuration.
///
/// All engines are built from the **same** [`PaperCubeSpec`]; data
/// generation is deterministic, so they hold identical cubes without the
/// catalog needing to be clonable.
pub struct Oracle {
    /// Source of truth for binding and [`reference_eval`].
    reference: Engine,
    engines: Vec<(OptimizerKind, usize, Engine)>,
    /// The storage axis: engines identical to the plain Gg configuration
    /// except for [`StorageProfile`] (compressed indexes and/or compressed
    /// heaps + zone pruning). Each session checks one of them —
    /// round-robined by seed — against a fresh run of `reference`, and the
    /// rows must match bitwise: compression is a layout change, never a
    /// numeric one.
    storage_engines: Vec<(StorageProfile, Engine)>,
    /// Kernel tiers any checked plan compiled to, as `{:?}` names.
    pub tiers_seen: BTreeSet<&'static str>,
    /// Running tallies.
    pub stats: OracleStats,
}

impl Oracle {
    /// Builds the reference engine plus the full default configuration
    /// matrix over `spec`: [`ORACLE_OPTIMIZERS`] × [`ORACLE_THREADS`] at
    /// the default morsel size.
    pub fn new(spec: PaperCubeSpec) -> Self {
        let mut oracle = Self::with_matrix(
            spec,
            &ORACLE_OPTIMIZERS,
            &ORACLE_THREADS,
            starshare_core::DEFAULT_MORSEL_PAGES,
        );
        // The storage axis rides along only in the full default sweep:
        // every non-plain profile on one thread plus the full production
        // layout on four, so pruning runs under work-stealing too.
        oracle.storage_engines = [
            (StorageProfile::CompressedIndex, 1),
            (StorageProfile::CompressedHeap, 1),
            (StorageProfile::Compressed, 1),
            (StorageProfile::Compressed, 4),
        ]
        .into_iter()
        .map(|(profile, threads)| {
            let e = profile.build_paper(EngineConfig::paper().threads(threads), spec);
            (profile, e)
        })
        .collect();
        oracle
    }

    /// Builds an oracle over an explicit configuration matrix: every
    /// `optimizers` × `threads` engine, each at `morsel_pages` pages per
    /// morsel. Property tests that sweep the morsel size build one oracle
    /// per size (with a reduced optimizer set, to keep the engine count
    /// honest).
    pub fn with_matrix(
        spec: PaperCubeSpec,
        optimizers: &[OptimizerKind],
        threads: &[usize],
        morsel_pages: u32,
    ) -> Self {
        let engines = optimizers
            .iter()
            .flat_map(|&opt| threads.iter().map(move |&t| (opt, t)))
            .map(|(opt, threads)| {
                let e = EngineConfig::paper()
                    .optimizer(opt)
                    .threads(threads)
                    .morsel_pages(morsel_pages)
                    .build_paper(spec);
                (opt, threads, e)
            })
            .collect();
        Oracle {
            reference: Engine::paper(spec),
            engines,
            storage_engines: Vec::new(),
            tiers_seen: BTreeSet::new(),
            stats: OracleStats::default(),
        }
    }

    /// The schema sessions should be generated against.
    pub fn schema(&self) -> &starshare_core::StarSchema {
        &self.reference.cube().schema
    }

    /// Checks one session across the whole configuration matrix. `rerun`
    /// additionally runs every configuration twice and asserts the second
    /// run reproduces the first bit-for-bit (results *and* invariant
    /// counters).
    pub fn check_session(&mut self, session: &Session, rerun: bool) -> Result<(), Mismatch> {
        let texts = session.texts();
        // Expected answers via the row-at-a-time reference, per expression
        // in binding order.
        let mut expected: Vec<Vec<QueryResult>> = Vec::new();
        {
            let cube = self.reference.cube();
            let base = cube.catalog.base_table().expect("paper cube has a base");
            for text in &texts {
                let expr = parse_ok(text, session.seed)?;
                let bound = starshare_core::bind(&cube.schema, &expr).map_err(|e| Mismatch {
                    seed: session.seed,
                    optimizer: OptimizerKind::Gg,
                    threads: 1,
                    detail: format!("generated expression failed to bind: {e}"),
                })?;
                expected.push(
                    bound
                        .queries
                        .iter()
                        .map(|q| reference_eval(cube, base, q))
                        .collect(),
                );
            }
        }

        for ei in 0..self.engines.len() {
            let (opt, threads) = (self.engines[ei].0, self.engines[ei].2.threads());
            let mismatch = |detail: String| Mismatch {
                seed: session.seed,
                optimizer: opt,
                threads,
                detail,
            };
            let out = {
                let engine = &mut self.engines[ei].2;
                engine.flush();
                engine
                    .mdx_many(&texts)
                    .map_err(|e| mismatch(format!("batch failed fault-free: {e}")))?
            };
            self.record_tiers(&out);
            compare_to_expected(&out, &expected, &mut self.stats.comparisons).map_err(mismatch)?;
            if rerun {
                let engine = &mut self.engines[ei].2;
                engine.flush();
                let again = engine
                    .mdx_many(&texts)
                    .map_err(|e| mismatch(format!("rerun failed: {e}")))?;
                self.stats.reruns += 1;
                assert_bit_identical(&out, &again).map_err(mismatch)?;
            }
        }

        // The storage axis: one profile per session (round-robined by
        // seed), answered bitwise like the reference. The clocks
        // legitimately differ — compressed scans charge decompression CPU
        // and prune zones — so only the result rows are compared.
        if !self.storage_engines.is_empty() {
            let si = (session.seed as usize) % self.storage_engines.len();
            let (profile, threads) = (
                self.storage_engines[si].0,
                self.storage_engines[si].1.threads(),
            );
            let mismatch = |detail: String| Mismatch {
                seed: session.seed,
                optimizer: OptimizerKind::Gg,
                threads,
                detail: format!("[storage {profile:?}] {detail}"),
            };
            let out = {
                let engine = &mut self.storage_engines[si].1;
                engine.flush();
                engine
                    .mdx_many(&texts)
                    .map_err(|e| mismatch(format!("batch failed fault-free: {e}")))?
            };
            compare_to_expected(&out, &expected, &mut self.stats.comparisons).map_err(mismatch)?;
            self.stats.storage_checks += 1;
        }

        self.stats.sessions += 1;
        Ok(())
    }

    /// Records which kernel tiers the plan's assignments compile to.
    fn record_tiers(&mut self, out: &Outcome) {
        let cube = self.reference.cube();
        for (t, q, _) in out.plan.assignments() {
            let stored = cube.catalog.table(t).group_by();
            if let Ok(p) = DimPipeline::compile(&cube.schema, stored, q) {
                self.tiers_seen.insert(match p.kernel_tier() {
                    KernelTier::Dense => "Dense",
                    KernelTier::Packed => "Packed",
                    KernelTier::Spill => "Spill",
                });
            }
        }
    }
}

fn parse_ok(text: &str, seed: u64) -> Result<starshare_core::MdxExpr, Mismatch> {
    starshare_core::parse(text).map_err(|e| Mismatch {
        seed,
        optimizer: OptimizerKind::Gg,
        threads: 1,
        detail: format!("generated expression failed to parse: {e}"),
    })
}

/// Every query of every expression answered, and matches the reference bit
/// for bit.
fn compare_to_expected(
    out: &Outcome,
    expected: &[Vec<QueryResult>],
    comparisons: &mut u64,
) -> Result<(), String> {
    if out.outcomes.len() != expected.len() {
        return Err(format!(
            "{} outcomes for {} expressions",
            out.outcomes.len(),
            expected.len()
        ));
    }
    for (xi, (outcome, exp)) in out.outcomes.iter().zip(expected).enumerate() {
        let oc = match outcome {
            Ok(oc) => oc,
            Err(e) => return Err(format!("expression {xi} failed fault-free: {e}")),
        };
        if oc.results.len() != exp.len() {
            return Err(format!(
                "expression {xi}: {} results for {} queries",
                oc.results.len(),
                exp.len()
            ));
        }
        for (qi, (r, want)) in oc.results.iter().zip(exp).enumerate() {
            let r = r
                .as_ref()
                .map_err(|e| format!("expression {xi} query {qi} failed fault-free: {e}"))?;
            *comparisons += 1;
            if r.query != want.query {
                return Err(format!(
                    "expression {xi} query {qi}: result belongs to a different query"
                ));
            }
            if !r.bit_eq(want) {
                return Err(format!(
                    "expression {xi} query {qi}: result disagrees with reference_eval"
                ));
            }
        }
    }
    Ok(())
}

/// Two runs of one configuration must agree bit-for-bit: identical result
/// rows and identical invariant counters.
fn assert_bit_identical(a: &Outcome, b: &Outcome) -> Result<(), String> {
    if a.report.sim != b.report.sim
        || a.report.critical != b.report.critical
        || a.report.io != b.report.io
    {
        return Err(format!(
            "rerun moved the deterministic clock: sim {} vs {}, io {:?} vs {:?}",
            a.report.sim, b.report.sim, a.report.io, b.report.io
        ));
    }
    for (xi, (oa, ob)) in a.outcomes.iter().zip(&b.outcomes).enumerate() {
        match (oa, ob) {
            (Ok(ra), Ok(rb)) => {
                for (qi, (qa, qb)) in ra.results.iter().zip(&rb.results).enumerate() {
                    match (qa, qb) {
                        (Ok(qa), Ok(qb)) => {
                            if !qa.bit_eq(qb) {
                                return Err(format!(
                                    "expression {xi} query {qi}: rerun rows not bit-identical"
                                ));
                            }
                        }
                        _ => return Err(format!("expression {xi} query {qi}: Ok/Err flip")),
                    }
                }
            }
            _ => return Err(format!("expression {xi}: outcome flip across reruns")),
        }
    }
    Ok(())
}
