//! Deterministic storage fault injection.
//!
//! A production engine must survive the disk lying to it: a read that fails
//! once and succeeds on retry (a *transient* fault — loose cable, kernel
//! hiccup, remote-store timeout), and a page that is simply gone (a
//! *poisoned* page — latent sector error, torn write). This module models
//! both, **deterministically**: a [`FaultPlan`] is a seed plus two
//! probabilities, and an armed [`FaultInjector`] draws from its own
//! [`Prng`] stream once per *checked* page access, so
//! the same plan against the same access sequence injects exactly the same
//! faults, run after run. That is what makes failures from the fuzzing
//! harness (`starshare-testkit`) replayable and shrinkable.
//!
//! The injector is armed on a [`BufferPool`](crate::BufferPool) via
//! [`BufferPool::inject_faults`](crate::BufferPool::inject_faults) and
//! consulted only by the *fallible* accessors
//! ([`BufferPool::try_access`](crate::BufferPool::try_access),
//! [`BufferPool::try_access_sized`](crate::BufferPool::try_access_sized)),
//! which the executor charges every page access of a query through —
//! the infallible accessors never observe faults, so load-time code and
//! accounting-only call sites are unaffected. A denied access charges
//! nothing to the pool: the simulated read never happened, and the caller's
//! retry performs the real (accounted) access.

use std::collections::BTreeSet;
use std::fmt;

use starshare_prng::Prng;

use crate::page::{FileId, PageId};

/// What kind of storage fault was injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The read failed this time; an immediate retry may succeed.
    TransientRead,
    /// The page is permanently unreadable; every retry fails.
    PoisonedPage,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::TransientRead => f.write_str("transient read error"),
            FaultKind::PoisonedPage => f.write_str("poisoned page"),
        }
    }
}

/// A denied page access: which page, what kind of fault, and the injector's
/// access ordinal at the time (for replay diagnostics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultError {
    /// The file whose page was denied.
    pub file: FileId,
    /// The denied page.
    pub page: PageId,
    /// Transient or permanent.
    pub kind: FaultKind,
    /// 1-based ordinal of the checked access that was denied.
    pub access_no: u64,
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} reading page {} of file {} (checked access #{})",
            self.kind, self.page, self.file.0, self.access_no
        )
    }
}

impl std::error::Error for FaultError {}

/// A deterministic fault schedule: seed + per-access probabilities.
///
/// With both probabilities zero the plan never fires (useful as a control).
/// Probabilities are per *checked* access; the poison draw marks the page
/// permanently unreadable, so its effective rate compounds over a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed for the injector's private PRNG stream.
    pub seed: u64,
    /// Probability that a checked access fails transiently.
    pub transient: f64,
    /// Probability that a checked access poisons its page (first access
    /// only — already-poisoned pages fail without a draw).
    pub poison: f64,
}

impl FaultPlan {
    /// A plan with typical fuzzing rates: ~2 % transient, ~0.05 % poison.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            transient: 0.02,
            poison: 0.0005,
        }
    }

    /// Transient-only plan (every fault is recoverable by retry).
    pub fn transient_only(seed: u64, transient: f64) -> Self {
        FaultPlan {
            seed,
            transient,
            poison: 0.0,
        }
    }

    /// A plan that never fires.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            transient: 0.0,
            poison: 0.0,
        }
    }

    /// True if this plan can never inject a fault.
    pub fn is_none(&self) -> bool {
        self.transient <= 0.0 && self.poison <= 0.0
    }
}

/// Counters the injector keeps while armed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Checked accesses observed.
    pub checked: u64,
    /// Transient faults injected.
    pub transient: u64,
    /// Distinct pages poisoned.
    pub poisoned_pages: u64,
    /// Accesses denied because their page was already poisoned.
    pub poison_denials: u64,
}

impl FaultStats {
    /// Total denials of any kind.
    pub fn denials(&self) -> u64 {
        self.transient + self.poisoned_pages + self.poison_denials
    }
}

/// The armed form of a [`FaultPlan`]: plan + PRNG stream + poisoned-page
/// set + counters. Lives inside a [`BufferPool`](crate::BufferPool).
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: Prng,
    /// `BTreeSet` keeps iteration (and Debug output) deterministic.
    poisoned: BTreeSet<(FileId, PageId)>,
    stats: FaultStats,
}

impl FaultInjector {
    /// Arms a plan.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            rng: Prng::seed_from_u64(plan.seed),
            plan,
            poisoned: BTreeSet::new(),
            stats: FaultStats::default(),
        }
    }

    /// The plan this injector was armed with.
    pub fn plan(&self) -> FaultPlan {
        self.plan
    }

    /// Counters so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// True if `(file, page)` has been poisoned.
    pub fn is_poisoned(&self, file: FileId, page: PageId) -> bool {
        self.poisoned.contains(&(file, page))
    }

    /// Checks one access: `Ok(())` lets the read proceed, `Err` denies it.
    /// Exactly one PRNG draw per non-poisoned access keeps the schedule a
    /// pure function of (plan, access sequence).
    pub fn check(&mut self, file: FileId, page: PageId) -> Result<(), FaultError> {
        self.stats.checked += 1;
        let access_no = self.stats.checked;
        if self.poisoned.contains(&(file, page)) {
            self.stats.poison_denials += 1;
            return Err(FaultError {
                file,
                page,
                kind: FaultKind::PoisonedPage,
                access_no,
            });
        }
        if self.plan.is_none() {
            return Ok(());
        }
        let draw = self.rng.gen_f64();
        if draw < self.plan.poison {
            self.poisoned.insert((file, page));
            self.stats.poisoned_pages += 1;
            return Err(FaultError {
                file,
                page,
                kind: FaultKind::PoisonedPage,
                access_no,
            });
        }
        if draw < self.plan.poison + self.plan.transient {
            self.stats.transient += 1;
            return Err(FaultError {
                file,
                page,
                kind: FaultKind::TransientRead,
                access_no,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(i: u32) -> FileId {
        FileId(i)
    }

    #[test]
    fn none_plan_never_fires() {
        let mut inj = FaultInjector::new(FaultPlan::none());
        for p in 0..10_000u32 {
            assert!(inj.check(f(0), p).is_ok());
        }
        assert_eq!(inj.stats().denials(), 0);
        assert_eq!(inj.stats().checked, 10_000);
    }

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let plan = FaultPlan::seeded(42);
        let run = |mut inj: FaultInjector| -> Vec<Option<FaultError>> {
            (0..5_000u32)
                .map(|p| inj.check(f(1), p % 64).err())
                .collect()
        };
        let a = run(FaultInjector::new(plan));
        let b = run(FaultInjector::new(plan));
        assert_eq!(a, b, "same plan, same access order, same faults");
        assert!(a.iter().any(Option::is_some), "plan should fire at ~2 %");
        let c = run(FaultInjector::new(FaultPlan::seeded(43)));
        assert_ne!(a, c, "different seeds diverge");
    }

    #[test]
    fn poisoned_page_fails_forever() {
        // Force a poison quickly.
        let mut inj = FaultInjector::new(FaultPlan {
            seed: 7,
            transient: 0.0,
            poison: 1.0,
        });
        let e1 = inj.check(f(0), 3).unwrap_err();
        assert_eq!(e1.kind, FaultKind::PoisonedPage);
        assert!(inj.is_poisoned(f(0), 3));
        // Retries keep failing, without consuming PRNG draws.
        for _ in 0..5 {
            let e = inj.check(f(0), 3).unwrap_err();
            assert_eq!(e.kind, FaultKind::PoisonedPage);
        }
        let s = inj.stats();
        assert_eq!(s.poisoned_pages, 1);
        assert_eq!(s.poison_denials, 5);
    }

    #[test]
    fn transient_faults_pass_on_a_lucky_retry() {
        let mut inj = FaultInjector::new(FaultPlan::transient_only(9, 0.5));
        let mut recovered = 0;
        for p in 0..1_000u32 {
            let mut tries = 0;
            loop {
                match inj.check(f(0), p) {
                    Ok(()) => break,
                    Err(e) => {
                        assert_eq!(e.kind, FaultKind::TransientRead);
                        tries += 1;
                        assert!(tries < 64, "p=0.5 must recover well before 64 tries");
                    }
                }
            }
            if tries > 0 {
                recovered += 1;
            }
        }
        assert!(recovered > 300, "{recovered} recoveries at p=0.5");
        assert_eq!(inj.stats().poisoned_pages, 0);
    }

    #[test]
    fn fault_error_displays_the_story() {
        let e = FaultError {
            file: f(2),
            page: 17,
            kind: FaultKind::TransientRead,
            access_no: 99,
        };
        let s = e.to_string();
        assert!(s.contains("transient"), "{s}");
        assert!(
            s.contains("17") && s.contains('2') && s.contains("99"),
            "{s}"
        );
    }
}
