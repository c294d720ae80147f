//! One optimization window as a pipeline of stages.
//!
//! [`Engine::mdx_window`] is the sequence bind → probe → plan → execute →
//! route → admit → observe. Each stage is a private function that takes
//! earlier stages' named values (`Bound`, `Probed`, `Planned`,
//! `Executed`, `Routed`) and returns its own; DESIGN.md §7 ("The window
//! pipeline") says what each hands on. [`WindowReport`] and its
//! stopwatch [`WindowTimer`] give the window's host-time envelope.

use std::time::{Duration, Instant};

use starshare_exec::{
    CacheHit, CacheStats, ExecReport, Provenance, QueryProfile, QueryResult, Telemetry,
};
use starshare_mdx::BoundMdx;
use starshare_olap::GroupByQuery;
use starshare_opt::{plan_window, CostModel, GlobalPlan, PlanClass, SharingStats, WindowPlan};
use starshare_storage::SimTime;

use crate::engine::{observe_cache, Engine, ExprOutcome};
use crate::error::{Error, Result};

/// The outcome of one optimization **window** ([`Engine::mdx_window`]): a
/// batch of *submissions* (each its own list of MDX expressions, e.g. one
/// per serving session) planned as a single pooled query set, executed
/// once, and routed back per submission.
#[derive(Debug)]
pub struct WindowOutcome {
    /// The shared plan over the union of every submission's queries.
    pub plan: GlobalPlan,
    /// Per submission, in input order: one outcome per expression (the
    /// same shape as [`Outcome::outcomes`](crate::Outcome::outcomes)).
    pub submissions: Vec<Vec<Result<ExprOutcome>>>,
    /// Per submission: the simulated cost its query set would have cost
    /// *alone* under the same optimizer — the window's cost-attribution
    /// figure, independent of window-mates by construction. With the
    /// result cache on, this is the submission's cache charges (zero for
    /// exact hits, rollup CPU for subsumption hits) plus the solo cost of
    /// its misses; zero for submissions with no bound queries.
    pub attributed: Vec<SimTime>,
    /// How much cross-submission sharing the plan achieved.
    pub sharing: SharingStats,
    /// What the result cache did for this window: exact and subsumption
    /// hits, misses, insertions, evictions (all zero when the cache is
    /// disabled).
    pub cache: CacheStats,
    /// Window-level accounting (plan wall, execution totals, envelope).
    pub report: WindowReport,
    /// Per submission, one profile per bound query (binding order): cache
    /// provenance plus phase attribution of the simulated time. Empty
    /// when telemetry is off
    /// ([`EngineConfig::telemetry`](crate::EngineConfig::telemetry)).
    pub profiles: Vec<Vec<QueryProfile>>,
}

impl WindowOutcome {
    /// The `i`-th submission's expression outcomes.
    pub fn submission(&self, i: usize) -> &[Result<ExprOutcome>] {
        &self.submissions[i]
    }

    /// True when every expression of every submission fully answered.
    pub fn all_ok(&self) -> bool {
        self.submissions
            .iter()
            .flatten()
            .all(|o| o.as_ref().is_ok_and(ExprOutcome::all_ok))
    }
}

/// What one optimization window cost, end to end.
#[derive(Debug, Clone, Copy, Default)]
pub struct WindowReport {
    /// The executor's accounting for the shared plan run (simulated clock,
    /// I/O, CPU, per-run wall/busy).
    pub exec: ExecReport,
    /// Host wall time spent in parse/bind/optimize before execution began.
    pub plan_wall: Duration,
    /// Host wall time for the whole window: close → plan → execute →
    /// route. Always ≥ `exec.wall + plan_wall`.
    pub wall: Duration,
    /// Submissions the window carried.
    pub n_submissions: usize,
    /// Queries across all submissions (after binding).
    pub n_queries: usize,
    /// Classes in the shared plan (shared-operator runs).
    pub n_classes: usize,
}

impl WindowReport {
    /// Total host CPU time the window consumed: the executor's summed
    /// worker busy time plus the single-threaded planning envelope.
    pub fn busy(&self) -> Duration {
        self.exec.busy + self.plan_wall
    }
}

/// Stopwatch for one window's phases: start it when the window closes
/// (submissions frozen), mark [`planned`](WindowTimer::planned) when the
/// optimizer hands back the shared plan, and
/// [`finish`](WindowTimer::finish) once results are routed. Phases are
/// cumulative from [`start`](WindowTimer::start); skipping `planned`
/// leaves `plan_wall` zero.
#[derive(Debug)]
pub struct WindowTimer {
    started: Instant,
    plan_wall: Duration,
}

impl WindowTimer {
    /// Starts timing a window (call when the window closes).
    pub fn start() -> Self {
        WindowTimer {
            started: Instant::now(),
            plan_wall: Duration::ZERO,
        }
    }

    /// Marks the end of the planning phase (parse/bind/optimize done).
    pub fn planned(&mut self) {
        self.plan_wall = self.started.elapsed();
    }

    /// Finishes the window and assembles its report.
    pub fn finish(
        self,
        exec: ExecReport,
        n_submissions: usize,
        n_queries: usize,
        n_classes: usize,
    ) -> WindowReport {
        WindowReport {
            exec,
            plan_wall: self.plan_wall,
            wall: self.started.elapsed(),
            n_submissions,
            n_queries,
            n_classes,
        }
    }
}

/// Stage `bind`: per submission, per expression, its binding or the
/// parse/bind error that fails only that expression.
struct Bound {
    exprs: Vec<Vec<Result<BoundMdx>>>,
}

impl Bound {
    /// Submission `si`'s bound queries, in binding order.
    fn queries(&self, si: usize) -> impl Iterator<Item = &GroupByQuery> {
        self.exprs[si].iter().flatten().flat_map(|b| &b.queries)
    }

    fn n_queries(&self) -> usize {
        self.exprs
            .iter()
            .flatten()
            .flatten()
            .map(|b| b.queries.len())
            .sum()
    }
}

/// One query answered by the result cache, with its profile.
struct Hit {
    result: QueryResult,
    profile: QueryProfile,
}

/// Stage `probe`: the window split into cache answers and misses.
struct Probed {
    /// `hits[si][j]` answers submission `si`'s `j`-th query; `None` for a miss.
    hits: Vec<Vec<Option<Hit>>>,
    /// Per submission, its misses in binding order — all that is planned.
    misses: Vec<Vec<GroupByQuery>>,
    /// Per submission, the rollup CPU its subsumption hits cost.
    charges: Vec<SimTime>,
    /// The rollups' report, which counts as window work.
    rollups: ExecReport,
}

/// Stage `plan`: the misses' plan with its slot map (`sharing.n_queries`
/// counts the whole window), and each submission's solo cost.
struct Planned {
    window: WindowPlan,
    attributed: Vec<SimTime>,
}

/// Stage `execute`: each plan slot's outcome and profile (no profiles
/// when telemetry is off), and the window's totals, rollups included.
struct Executed {
    results: Vec<Result<QueryResult>>,
    profiles: Vec<QueryProfile>,
    total: ExecReport,
}

/// Stage `route`: per submission, each expression's outcome and each
/// bound query's profile, in binding order.
struct Routed {
    submissions: Vec<Vec<Result<ExprOutcome>>>,
    profiles: Vec<Vec<QueryProfile>>,
}

impl Engine {
    /// Evaluates one optimization **window**: several independent
    /// *submissions* (each its own batch of MDX expressions — e.g. one
    /// per serving session), planned as a single pooled query set with the
    /// engine's optimizer, executed once at its morsel size, and routed
    /// back per submission. This is the entry point `starshare-serve`
    /// drives; the engine's own [`mdx_many`](Engine::mdx_many) is the
    /// single-submission special case.
    ///
    /// Per-submission isolation inside the shared run:
    ///
    /// * parse/bind errors fail only their expression's slot;
    /// * an execution failure (e.g. an injected storage fault) in a class
    ///   shared by several submissions triggers a **per-owner re-run** of
    ///   that class, so one submission's fault cannot fail a window-mate —
    ///   each owner's sub-class either answers or fails alone (a window
    ///   with a single submission skips this and keeps plain per-class
    ///   degradation);
    /// * [`WindowOutcome::attributed`] prices each submission's query set
    ///   *as if it ran alone* — independent of window-mates.
    pub fn mdx_window<S: AsRef<str>>(&mut self, submissions: &[&[S]]) -> Result<WindowOutcome> {
        let mut timer = WindowTimer::start();
        let stats_before = self.cache_stats();
        let bound = self.bind(submissions);
        let probed = self.probe(&bound);
        let planned = self.plan(&bound, &probed)?;
        timer.planned();
        let executed = self.execute(&planned, &probed.rollups);
        let total = executed.total;
        let tele = &self.ctx.telemetry;
        let routed = route(bound, probed, &planned.window.slots, executed, tele);
        self.admit(&routed.submissions);
        let cache = self.observe(stats_before, &routed.submissions, &planned.window, &total);
        let WindowPlan { plan, sharing, .. } = planned.window;
        Ok(WindowOutcome {
            plan,
            submissions: routed.submissions,
            attributed: planned.attributed,
            sharing,
            cache,
            report: timer.finish(
                total,
                sharing.n_submissions,
                sharing.n_queries,
                sharing.n_classes,
            ),
            profiles: routed.profiles,
        })
    }

    /// Stage `bind`: parses and binds every expression, and opens the
    /// window's `window.close` trace span (closed by `observe`).
    fn bind<S: AsRef<str>>(&self, submissions: &[&[S]]) -> Bound {
        let bind = |text: &S| {
            let expr = starshare_mdx::parse(text.as_ref())?;
            Ok(starshare_mdx::bind(&self.cube.schema, &expr)?)
        };
        let bound = Bound {
            exprs: submissions
                .iter()
                .map(|texts| texts.iter().map(bind).collect())
                .collect(),
        };
        self.ctx.telemetry.trace(|t| {
            t.start(
                "window.close",
                vec![
                    ("n_submissions", bound.exprs.len().into()),
                    (
                        "n_exprs",
                        bound.exprs.iter().map(Vec::len).sum::<usize>().into(),
                    ),
                    ("n_queries", bound.n_queries().into()),
                ],
            )
        });
        bound
    }

    /// Stage `probe`: answers what the result cache can — exact hits free,
    /// subsumption hits charged as rollup CPU to their submission and to
    /// the window — and leaves the misses for planning.
    fn probe(&mut self, bound: &Bound) -> Probed {
        let n_subs = bound.exprs.len();
        let mut probed = Probed {
            hits: Vec::with_capacity(n_subs),
            misses: Vec::with_capacity(n_subs),
            charges: vec![SimTime::ZERO; n_subs],
            rollups: ExecReport::default(),
        };
        if let Some(cache) = &mut self.cache {
            cache.advance_epoch(self.cube.epoch);
        }
        let tele = &self.ctx.telemetry;
        for si in 0..n_subs {
            let mut misses = Vec::new();
            let hits = bound.queries(si).map(|q| {
                let Some(cache) = &mut self.cache else {
                    misses.push(q.clone());
                    return None;
                };
                let hit = match cache.lookup(&self.cube.schema, q, &self.ctx.model) {
                    Some(CacheHit::Exact { result, patched }) => {
                        let provenance = if patched {
                            Provenance::DeltaPatched
                        } else {
                            Provenance::ExactHit
                        };
                        let profile = QueryProfile::cached(provenance, SimTime::ZERO);
                        Some(Hit { result, profile })
                    }
                    Some(CacheHit::Subsumption { result, report }) => {
                        probed.charges[si] += report.sim;
                        probed.rollups.merge(&report);
                        let profile =
                            QueryProfile::cached(Provenance::SubsumptionRollup, report.sim);
                        Some(Hit { result, profile })
                    }
                    None => {
                        misses.push(q.clone());
                        None
                    }
                };
                tele.trace(|t| {
                    let profile = hit.as_ref().map(|h| h.profile);
                    let outcome = profile.map_or("miss", |p| p.provenance.as_str());
                    let mut fields = vec![("submission", si.into()), ("outcome", outcome.into())];
                    if let Some(p) =
                        profile.filter(|p| p.provenance == Provenance::SubsumptionRollup)
                    {
                        t.advance(p.rollup);
                        fields.push(("rollup_ns", p.rollup.into()));
                    }
                    t.event("cache.probe", fields);
                });
                hit
            });
            probed.hits.push(hits.collect());
            probed.misses.push(misses);
        }
        probed
    }

    /// Stage `plan`: plans the misses as one pooled set and prices each
    /// submission as if it ran alone. A planning error closes the open
    /// trace spans and fails the window.
    fn plan(&self, bound: &Bound, probed: &Probed) -> Result<Planned> {
        let optimizer = self.config.optimizer;
        let tele = &self.ctx.telemetry;
        let n_miss: usize = probed.misses.iter().map(Vec::len).sum();
        tele.trace(|t| {
            t.start(
                "opt.plan",
                vec![
                    ("heuristic", optimizer.to_string().into()),
                    ("n_miss_queries", n_miss.into()),
                ],
            )
        });
        let planned = (|| -> Result<Planned> {
            let cm = self.cost_model();
            let mut window = plan_window(&cm, &probed.misses, optimizer)?;
            // A submission's solo cost is its cache charges plus its
            // misses' own plan; a single-submission window's miss plan
            // *is* its solo run.
            let solo = |set: &[GroupByQuery]| -> Result<SimTime> {
                Ok(match set.len() {
                    0 => SimTime::ZERO,
                    _ if probed.misses.len() == 1 => window.plan.estimated_cost,
                    _ => optimizer.run(&cm, set)?.estimated_cost,
                })
            };
            let attributed = (probed.misses.iter().zip(&probed.charges))
                .map(|(set, &charge)| Ok(charge + solo(set)?))
                .collect::<Result<_>>()?;
            // The serving layer counts queries served, not scanned.
            window.sharing.n_queries = bound.n_queries();
            Ok(Planned { window, attributed })
        })()
        .inspect_err(|_| {
            // Close the open spans so a failed window cannot skew the
            // nesting of later ones.
            tele.trace(|t| {
                t.end("opt.plan", Vec::new());
                t.end("window.close", Vec::new());
            })
        })?;
        let sharing = &planned.window.sharing;
        tele.trace(|t| {
            t.end(
                "opt.plan",
                vec![
                    ("n_classes", sharing.n_classes.into()),
                    (
                        "cross_submission_classes",
                        sharing.cross_submission_classes.into(),
                    ),
                    ("shared_scan_ratio", sharing.shared_scan_ratio.into()),
                    (
                        "estimated_cost_ns",
                        planned.window.plan.estimated_cost.into(),
                    ),
                ],
            )
        });
        Ok(planned)
    }

    /// Stage `execute`: runs the plan with per-class degradation. A failed
    /// class whose slots belong to more than one submission is re-run
    /// once per owner, so one submission's fault cannot take a
    /// window-mate's queries down; single-owner failures stand as that
    /// submission's own degradation.
    fn execute(&mut self, planned: &Planned, rollups: &ExecReport) -> Executed {
        let window = &planned.window;
        let plan = &window.plan;
        let pages = self.morsel_pages();
        let (exec, _) = self.run_plan(plan, pages, false);
        let mut results = exec.results;
        let mut total = exec.total;
        total.merge(rollups);

        // A query's profile is the phase attribution of the shared
        // operator pass that produced its answer (class counters minus the
        // fold charge, which gets its own merge phase) — members of a
        // multi-query class share it.
        let mut profiles = Vec::new();
        if self.ctx.telemetry.enabled() {
            let model = self.ctx.model;
            let per_class = exec.per_class.iter().zip(&exec.merge_cpu);
            for (class, (report, merge_cpu)) in plan.classes.iter().zip(per_class) {
                let provenance = if class.plans.len() > 1 {
                    Provenance::WindowShared
                } else {
                    Provenance::Direct
                };
                let scan_cpu = report.cpu.since(merge_cpu);
                let profile =
                    QueryProfile::executed(provenance, &model, &report.io, &scan_cpu, merge_cpu);
                profiles.extend(std::iter::repeat_n(profile, class.plans.len()));
            }
        }

        if window.sharing.n_submissions > 1 {
            let mut base = 0usize;
            for (ci, class) in plan.classes.iter().enumerate() {
                let slots = base..base + class.plans.len();
                base = slots.end;
                if slots.is_empty() || !results[slots.clone()].iter().all(Result::is_err) {
                    continue;
                }
                let owners = window.class_owners(ci);
                if owners.len() < 2 {
                    continue;
                }
                for o in owners {
                    let mine: Vec<usize> =
                        slots.clone().filter(|&s| window.owners[s] == o).collect();
                    let sub = PlanClass {
                        table: class.table,
                        plans: mine
                            .iter()
                            .map(|&s| class.plans[s - slots.start].clone())
                            .collect(),
                    };
                    match self.run_class(&sub, pages) {
                        Ok((rs, report, _)) => {
                            // `run_class` answers exactly `sub.plans`, in order.
                            for (&slot, r) in mine.iter().zip(rs) {
                                results[slot] = Ok(r);
                            }
                            total.merge(&report);
                        }
                        Err(e) => {
                            for &slot in &mine {
                                results[slot] = Err(Error::from(e.clone()));
                            }
                        }
                    }
                }
            }
        }
        Executed {
            results,
            profiles,
            total,
        }
    }

    /// Stage `admit`: caches every fresh result (executed misses and
    /// subsumption rollups — exact hits are already resident), seeded with
    /// its estimated solo production cost: the simulated time a future hit
    /// saves, which is what eviction ranks by. Alone, a query's plan under
    /// every optimizer is its best local plan.
    fn admit(&mut self, submissions: &[Vec<Result<ExprOutcome>>]) {
        let Some(cache) = &mut self.cache else {
            return;
        };
        let cm = CostModel::new(&self.cube, self.ctx.model);
        for oc in submissions.iter().flatten().flatten() {
            for r in oc.results.iter().flatten() {
                if cache.contains_exact(&r.query) {
                    continue;
                }
                let cost = cm.best_local(&r.query).map_or(SimTime::ZERO, |(_, _, c)| c);
                cache.insert(r.query.clone(), r.clone(), cost);
            }
        }
    }

    /// Stage `observe`: folds the window into the metrics registry and
    /// closes its `window.close` span; returns the window's cache delta.
    fn observe(
        &self,
        stats_before: CacheStats,
        submissions: &[Vec<Result<ExprOutcome>>],
        window: &WindowPlan,
        total: &ExecReport,
    ) -> CacheStats {
        let cache = self.cache_stats().since(stats_before);
        let n_exprs: usize = submissions.iter().map(Vec::len).sum();
        let (tele, sharing, faults) = (&self.ctx.telemetry, &window.sharing, self.fault_stats());
        tele.metrics(|m| {
            m.observe_window(
                sharing.n_submissions as u64,
                sharing.n_queries as u64,
                sharing.n_classes as u64,
                sharing.cross_submission_classes as u64,
                n_exprs as u64,
            );
            m.observe_exec(&total.io, total.sim, total.critical);
            observe_cache(m, &cache);
            if let Some(f) = faults {
                m.set_faults(f.checked, f.transient, f.poisoned_pages, f.poison_denials);
            }
        });
        tele.trace(|t| {
            if cache.insertions > 0 {
                t.event("cache.admit", vec![("count", cache.insertions.into())]);
            }
            if cache.evictions > 0 {
                t.event("cache.evict", vec![("count", cache.evictions.into())]);
            }
            t.end(
                "window.close",
                vec![
                    ("n_classes", sharing.n_classes.into()),
                    ("sim_ns", total.sim.into()),
                    ("critical_ns", total.critical.into()),
                ],
            );
        });
        cache
    }
}

/// Stage `route`: hands every query its answer — its cache hit, or the
/// plan slot `slots[si][m]` that answers submission `si`'s `m`-th miss —
/// and regroups the answers per expression, in binding order. Profiles
/// are routed the same way, and stored, when telemetry is on.
fn route(
    bound: Bound,
    probed: Probed,
    slots: &[Vec<usize>],
    executed: Executed,
    tele: &Telemetry,
) -> Routed {
    let profiling = tele.enabled();
    let mut results: Vec<Option<Result<QueryResult>>> =
        executed.results.into_iter().map(Some).collect();
    let mut profiles = Vec::with_capacity(slots.len());
    let submissions = bound
        .exprs
        .into_iter()
        .zip(probed.hits)
        .zip(slots)
        .map(|((exprs, hits), slots)| {
            let mut slots = slots.iter();
            let mut sub_profiles = Vec::new();
            let mut answers = hits.into_iter().filter_map(|hit| match hit {
                Some(hit) => {
                    if profiling {
                        sub_profiles.push(hit.profile);
                    }
                    Some(Ok(hit.result))
                }
                None => {
                    let &slot = slots.next()?;
                    sub_profiles.extend(executed.profiles.get(slot));
                    results[slot].take()
                }
            });
            let outcomes = exprs
                .into_iter()
                .map(|e| {
                    e.map(|bound| {
                        let results = answers.by_ref().take(bound.queries.len()).collect();
                        ExprOutcome { bound, results }
                    })
                })
                .collect();
            drop(answers);
            profiles.push(sub_profiles);
            outcomes
        })
        .collect();
    tele.store_profiles(profiles.iter().flatten().copied().collect());
    Routed {
        submissions,
        profiles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EngineConfig, PaperCubeSpec};
    use starshare_mdx::paper_queries::paper_query_text;
    use starshare_storage::FaultPlan;

    fn spec() -> PaperCubeSpec {
        PaperCubeSpec {
            base_rows: 5_000,
            d_leaf: 48,
            seed: 17,
            with_indexes: true,
        }
    }

    fn engine() -> Engine {
        Engine::paper(spec())
    }

    #[test]
    fn window_routes_every_submission_in_order() {
        let mut e = engine();
        let sub_a = [paper_query_text(1), paper_query_text(2)];
        let sub_b = [paper_query_text(3)];
        let subs: Vec<&[&str]> = vec![&sub_a, &sub_b];
        let w = e.mdx_window(&subs).unwrap();
        assert!(w.all_ok());
        assert_eq!(w.submissions.len(), 2);
        assert_eq!(w.submission(0).len(), 2);
        assert_eq!(w.submission(1).len(), 1);
        assert_eq!(w.sharing.n_submissions, 2);
        assert_eq!(w.attributed.len(), 2);
        // Each expression's results come back in its own binding order.
        for sub in &w.submissions {
            for oc in sub.iter().flatten() {
                for (q, r) in oc.bound.queries.iter().zip(&oc.results) {
                    assert_eq!(&r.as_ref().unwrap().query, q);
                }
            }
        }
    }

    #[test]
    fn windowed_results_are_bit_identical_to_solo_runs() {
        // The serving determinism contract: at the engine's own optimizer
        // and morsel size, a submission's answers do not depend on
        // window-mates.
        let texts = [
            paper_query_text(1),
            paper_query_text(2),
            paper_query_text(3),
        ];
        let mut e = engine();
        let subs: Vec<&[&str]> = texts.iter().map(std::slice::from_ref).collect();
        let windowed = e.mdx_window(&subs).unwrap();
        assert!(windowed.all_ok());
        for (si, text) in texts.iter().enumerate() {
            let mut solo_engine = engine();
            let solo = solo_engine
                .mdx_window(&[std::slice::from_ref(text)])
                .unwrap();
            let w_oc = windowed.submission(si)[0].as_ref().unwrap();
            let s_oc = solo.submission(0)[0].as_ref().unwrap();
            for (wr, sr) in w_oc.results.iter().zip(&s_oc.results) {
                assert_eq!(
                    wr.as_ref().unwrap().rows,
                    sr.as_ref().unwrap().rows,
                    "submission {si} must be bit-identical alone vs windowed"
                );
            }
            assert_eq!(
                windowed.attributed[si], solo.attributed[0],
                "attributed cost must be co-tenant independent"
            );
        }
    }

    #[test]
    fn duplicate_submissions_share_one_class_and_both_answer() {
        let mut e = engine();
        let t = paper_query_text(1);
        let w = e.mdx_window(&[&[t], &[t]]).unwrap();
        assert!(w.all_ok());
        // Identical queries merge into one class fed by both submitters.
        assert!(w.sharing.cross_submission_classes >= 1);
        assert!(w.sharing.shared_scan_ratio > 1.0);
        let a = w.submission(0)[0].as_ref().unwrap().result(0);
        let b = w.submission(1)[0].as_ref().unwrap().result(0);
        assert_eq!(a.rows, b.rows);
        assert_eq!(w.attributed[0], w.attributed[1]);
    }

    #[test]
    fn parse_errors_stay_inside_their_submission() {
        let mut e = engine();
        let sub_b = [paper_query_text(2)];
        let subs: Vec<&[&str]> = vec![&["this is not MDX"], &sub_b];
        let w = e.mdx_window(&subs).unwrap();
        assert!(matches!(w.submission(0)[0], Err(Error::Parse(_))));
        assert!(w.submission(1)[0].as_ref().unwrap().all_ok());
        assert_eq!(w.attributed[0], SimTime::ZERO);
        assert!(w.attributed[1] > SimTime::ZERO);
    }

    /// Routing by the plan's slot map: duplicates within and across
    /// submissions, exact and subsumption cache hits, a multi-query
    /// expression and a parse failure, all in one window. Every answer
    /// must reach the query that asked it, in binding order, bit-identical
    /// to that expression's solo run, with a profile that says where it
    /// came from.
    #[test]
    fn routing_gives_every_query_its_own_answer() {
        let spec = PaperCubeSpec {
            base_rows: 2_000,
            d_leaf: 24,
            seed: 50,
            with_indexes: true,
        };
        let (fine, miss) = (paper_query_text(1), paper_query_text(2));
        // Derivable from `fine`'s cached result: a subsumption hit.
        let coarser = "{A''.A1} on COLUMNS {B''.B1} on ROWS {C''.C1} on PAGES \
                       CONTEXT ABCD FILTER (D.DD1);";
        let pair = "{A''.A1.CHILDREN, A''.A2} on COLUMNS {B''.B1} on ROWS \
                    CONTEXT ABCD FILTER (D.DD1);";
        let sub_a = [miss, fine, "this is not MDX", miss, coarser];
        let sub_b = [coarser, pair, miss, fine, pair];

        let mut e = EngineConfig::paper()
            .result_cache(true)
            .telemetry(starshare_exec::TelemetryConfig::enabled(7))
            .build_paper(spec);
        e.mdx(fine).unwrap();
        let w = e.mdx_window(&[&sub_a[..], &sub_b[..]]).unwrap();
        assert_eq!(w.cache.exact_hits, 2, "`fine` twice");
        assert_eq!(w.cache.subsumption_hits, 2, "`coarser` twice");
        assert!(matches!(w.submission(0)[2], Err(Error::Parse(_))));

        let mut solo = Engine::paper(spec);
        for (si, texts) in [&sub_a[..], &sub_b[..]].into_iter().enumerate() {
            let mut profiles = w.profiles[si].iter();
            for (ei, text) in texts.iter().enumerate() {
                let Ok(oc) = &w.submission(si)[ei] else {
                    assert_eq!(*text, "this is not MDX");
                    continue;
                };
                let alone = solo.mdx(text).unwrap();
                assert_eq!(oc.results.len(), oc.bound.queries.len());
                for (qi, (q, r)) in oc.bound.queries.iter().zip(&oc.results).enumerate() {
                    let r = r.as_ref().unwrap();
                    assert_eq!(&r.query, q, "submission {si} expr {ei}: binding order");
                    assert!(
                        r.bit_eq(alone.expr(0).result(qi)),
                        "submission {si} expr {ei} query {qi}: not its solo answer"
                    );
                    let got = profiles.next().unwrap().provenance;
                    let want = match *text {
                        t if t == fine => Some(Provenance::ExactHit),
                        t if t == coarser => Some(Provenance::SubsumptionRollup),
                        _ => None,
                    };
                    match want {
                        Some(want) => assert_eq!(got, want, "submission {si} expr {ei}"),
                        None => assert!(
                            matches!(got, Provenance::Direct | Provenance::WindowShared),
                            "submission {si} expr {ei}: {got:?}"
                        ),
                    }
                }
            }
            assert!(profiles.next().is_none(), "one profile per bound query");
        }
    }

    #[test]
    fn empty_window_reports_degenerate_sharing() {
        let mut e = engine();
        let subs: Vec<&[&str]> = vec![&["nope"], &[]];
        let w = e.mdx_window(&subs).unwrap();
        assert_eq!(w.sharing.n_classes, 0);
        assert_eq!(w.sharing.shared_scan_ratio, 1.0);
        assert!(matches!(w.submission(0)[0], Err(Error::Parse(_))));
        assert!(w.submission(1).is_empty());
    }

    #[test]
    fn one_submissions_fault_cannot_fail_a_window_mate() {
        // Two submissions of the same query share one class; a fault
        // striking that class triggers the per-owner re-run, so failures
        // (if any) are per submission — and survivors stay bit-identical
        // to the clean run.
        let t = paper_query_text(1);
        let clean_rows = {
            let mut e = engine();
            let w = e.mdx_window(&[&[t], &[t]]).unwrap();
            w.submission(0)[0].as_ref().unwrap().result(0).rows.clone()
        };
        let mut faulted_submissions = 0usize;
        for seed in 0..24u64 {
            let mut e = engine();
            e.inject_faults(FaultPlan {
                seed,
                transient: 0.05,
                poison: 0.01,
            });
            let w = e.mdx_window(&[&[t], &[t]]).unwrap();
            for si in 0..2 {
                match &w.submission(si)[0].as_ref().unwrap().results[0] {
                    Ok(r) => assert_eq!(
                        r.rows, clean_rows,
                        "seed {seed}: survivor must match the clean run bit-for-bit"
                    ),
                    Err(e) => {
                        assert!(e.is_fault(), "seed {seed}: {e}");
                        faulted_submissions += 1;
                    }
                }
            }
        }
        // The sweep must actually exercise the isolation path.
        assert!(faulted_submissions > 0, "no seed produced a fault");
    }

    #[test]
    fn window_report_envelope_covers_planning_and_execution() {
        let mut e = engine();
        let sub_a = [paper_query_text(1)];
        let sub_b = [paper_query_text(3)];
        let subs: Vec<&[&str]> = vec![&sub_a, &sub_b];
        let w = e.mdx_window(&subs).unwrap();
        assert_eq!(w.report.n_submissions, 2);
        assert_eq!(w.report.n_queries, w.sharing.n_queries);
        assert_eq!(w.report.n_classes, w.plan.classes.len());
        assert!(w.report.wall >= w.report.plan_wall);
        assert!(w.report.busy() >= w.report.plan_wall);
        assert!(w.report.exec.sim > SimTime::ZERO);
    }

    #[test]
    fn phases_are_cumulative_and_ordered() {
        let mut t = WindowTimer::start();
        std::thread::sleep(Duration::from_millis(1));
        t.planned();
        std::thread::sleep(Duration::from_millis(1));
        let r = t.finish(ExecReport::default(), 2, 5, 3);
        assert!(r.plan_wall >= Duration::from_millis(1));
        assert!(r.wall > r.plan_wall);
        assert_eq!((r.n_submissions, r.n_queries, r.n_classes), (2, 5, 3));
        // With a default exec report, window busy is just the plan phase.
        assert_eq!(r.busy(), r.plan_wall);
    }

    #[test]
    fn skipping_planned_leaves_plan_wall_zero() {
        let t = WindowTimer::start();
        let r = t.finish(ExecReport::default(), 1, 0, 0);
        assert_eq!(r.plan_wall, Duration::ZERO);
    }
}
