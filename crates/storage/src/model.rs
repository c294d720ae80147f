//! The deterministic hardware time model.
//!
//! [`HardwareModel`] holds per-operation costs in nanoseconds, calibrated to
//! the paper's testbed (200 MHz Pentium Pro, 64 MB RAM, Quantum Fireball
//! disk, Paradise v0.5 with a 16 MB buffer pool). [`CpuCounters`] accumulates
//! *counted work* — hash probes performed, tuples aggregated, bitmap words
//! combined — and the model converts counters into [`SimTime`].
//!
//! The weights are read here and nowhere else. Work is priced as a
//! [`Work`] vector — one count per [`CpuCounters`] field plus sequential
//! and random page reads — by [`HardwareModel::price`]. The optimizer's
//! cost model (in `starshare-opt`) estimates such a vector per plan class
//! from cardinality formulas; the executor's measured counters convert
//! into one exactly ([`HardwareModel::cpu_time`]). Estimates and
//! measurements therefore agree exactly when cardinality estimates are
//! exact, diverge when they are not — the same relationship a real
//! optimizer has with its runtime — and can be compared counter by counter.

use std::ops::{Add, AddAssign};

/// Simulated elapsed time, stored in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct SimTime {
    nanos: u64,
}

impl SimTime {
    /// Zero elapsed time.
    pub const ZERO: SimTime = SimTime { nanos: 0 };

    /// Constructs from nanoseconds.
    pub fn from_nanos(nanos: u64) -> Self {
        SimTime { nanos }
    }

    /// Raw nanoseconds.
    pub fn as_nanos(self) -> u64 {
        self.nanos
    }

    /// Seconds as a float (the unit the paper's charts use).
    pub fn as_secs_f64(self) -> f64 {
        self.nanos as f64 / 1e9
    }

    /// Saturating difference.
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime {
            nanos: self.nanos.saturating_sub(other.nanos),
        }
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime {
            nanos: self.nanos + rhs.nanos,
        }
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.nanos += rhs.nanos;
    }
}

impl std::iter::Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, |a, b| a + b)
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

/// Per-operation costs, in nanoseconds, for the simulated 1998 machine.
///
/// Calibration rationale (see DESIGN.md §2 and EXPERIMENTS.md):
/// * disk: ~8 MB/s sequential → one 8 KiB page ≈ 1 ms; a random page read
///   pays seek + rotational latency ≈ 10 ms;
/// * CPU: the paper notes "the CPU cost for hash-based star join is not
///   small due to memory copying ... and probing of hash tables". Its Test 4
///   numbers (≈14 s to join+aggregate a 700–750 K tuple view on the 200 MHz
///   Pentium Pro) imply ≈15–20 µs of CPU per tuple end-to-end, dominated by
///   *per-tuple* pipeline overhead (iterator calls, expression evaluation,
///   result copying — `tuple_copy_ns`) with a smaller *per-dimension* probe
///   term (`hash_probe_ns`). That split matters: the shared operators pay
///   per-tuple costs once per scanned tuple and per-dimension probes once
///   per class, so the calibration decides where sharing pays off.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HardwareModel {
    /// Cost of faulting one page in during a sequential scan.
    pub seq_page_read_ns: u64,
    /// Cost of faulting one page in via a random probe.
    pub random_page_read_ns: u64,
    /// Inserting one tuple into a hash table (dimension build side).
    pub hash_build_ns: u64,
    /// Probing a hash table once (star join or aggregation lookup).
    pub hash_probe_ns: u64,
    /// Updating one aggregate cell (after its group has been located).
    pub agg_update_ns: u64,
    /// Materializing / copying one joined tuple between operators.
    pub tuple_copy_ns: u64,
    /// Evaluating one selection predicate on one tuple.
    pub predicate_eval_ns: u64,
    /// Combining one 64-bit word of two bitmaps (AND/OR/ANDNOT).
    pub bitmap_word_ns: u64,
    /// Testing a single bit of a bitmap (per-tuple routing in the shared
    /// index join's "Filter tuples" operators).
    pub bitmap_test_ns: u64,
    /// CPU overhead of one index lookup (walking the index metadata to find
    /// a member's bitmap; its page reads are charged separately).
    pub index_lookup_ns: u64,
    /// Decompressing one byte of a compressed page after it faults in
    /// (~50 MB/s — era-appropriate lightweight codec throughput, well under
    /// the ~122 ns/byte sequential disk rate so compression above ~1.2×
    /// is a net win on the simulated clock).
    pub decompress_byte_ns: u64,
    /// Pages occupied by one stored bitmap over `n` fact tuples are charged
    /// as sequential reads when the bitmap is loaded from an index.
    pub buffer_pool_pages: usize,
}

impl HardwareModel {
    /// The calibrated 1998 testbed. See type-level docs.
    pub fn paper_1998() -> Self {
        HardwareModel {
            seq_page_read_ns: 1_000_000,
            random_page_read_ns: 10_000_000,
            hash_build_ns: 4_000,
            hash_probe_ns: 2_000,
            agg_update_ns: 4_000,
            tuple_copy_ns: 8_000,
            predicate_eval_ns: 500,
            bitmap_word_ns: 100,
            bitmap_test_ns: 40,
            index_lookup_ns: 50_000,
            decompress_byte_ns: 20,
            buffer_pool_pages: 2048, // 16 MB of 8 KiB pages
        }
    }

    /// Simulated time for `n` sequential page reads.
    pub fn seq_read(&self, n: u64) -> SimTime {
        SimTime::from_nanos(n * self.seq_page_read_ns)
    }

    /// Simulated time for `n` random page reads.
    pub fn random_read(&self, n: u64) -> SimTime {
        SimTime::from_nanos(n * self.random_page_read_ns)
    }

    /// Simulated time for sequentially reading `bytes` from disk, priced at
    /// the per-page rate pro-rated by actual bytes transferred. Equals
    /// [`Self::seq_read`] when every page is a full
    /// [`PAGE_SIZE`](crate::page::PAGE_SIZE); compressed
    /// pages transfer fewer bytes and cost proportionally less.
    pub fn seq_read_bytes(&self, bytes: u64) -> SimTime {
        let nanos = bytes as u128 * self.seq_page_read_ns as u128 / crate::page::PAGE_SIZE as u128;
        SimTime::from_nanos(nanos as u64)
    }

    /// Simulated time to decompress `bytes` of faulted-in compressed pages.
    pub fn decompress(&self, bytes: u64) -> SimTime {
        SimTime::from_nanos(bytes * self.decompress_byte_ns)
    }

    /// `w` priced in nanoseconds, unrounded: each count times its weight,
    /// CPU terms first, then page reads.
    pub fn nanos(&self, w: &Work) -> f64 {
        w.hash_builds * self.hash_build_ns as f64
            + w.hash_probes * self.hash_probe_ns as f64
            + w.agg_updates * self.agg_update_ns as f64
            + w.tuple_copies * self.tuple_copy_ns as f64
            + w.predicate_evals * self.predicate_eval_ns as f64
            + w.bitmap_words * self.bitmap_word_ns as f64
            + w.bitmap_tests * self.bitmap_test_ns as f64
            + w.index_lookups * self.index_lookup_ns as f64
            + w.seq_pages * self.seq_page_read_ns as f64
            + w.random_pages * self.random_page_read_ns as f64
    }

    /// Simulated time for `w`: [`nanos`](Self::nanos) rounded once to whole
    /// nanoseconds.
    pub fn price(&self, w: &Work) -> SimTime {
        SimTime::from_nanos(self.nanos(w).round() as u64)
    }

    /// Converts accumulated CPU counters into simulated time: the
    /// [`price`](Self::price) of their counts. Exact — equal to the integer
    /// sum of count × weight — while that total stays below 2^53 ns (about
    /// 104 simulated days): every count, product and partial sum is then an
    /// integer an `f64` holds exactly.
    pub fn cpu_time(&self, c: &CpuCounters) -> SimTime {
        self.price(&Work::from(c))
    }
}

impl Default for HardwareModel {
    fn default() -> Self {
        Self::paper_1998()
    }
}

/// Counters for CPU-side work performed by operators.
///
/// Operators increment these as they do the corresponding real work; the
/// [`HardwareModel`] prices them afterwards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuCounters {
    /// Tuples inserted into hash tables.
    pub hash_builds: u64,
    /// Hash table probes (join + aggregation).
    pub hash_probes: u64,
    /// Aggregate cell updates.
    pub agg_updates: u64,
    /// Tuples copied between operators.
    pub tuple_copies: u64,
    /// Predicate evaluations.
    pub predicate_evals: u64,
    /// 64-bit bitmap words combined.
    pub bitmap_words: u64,
    /// Single-bit bitmap tests.
    pub bitmap_tests: u64,
    /// Index metadata lookups.
    pub index_lookups: u64,
}

impl CpuCounters {
    /// Merges another counter set into this one.
    pub fn merge(&mut self, other: &CpuCounters) {
        self.hash_builds += other.hash_builds;
        self.hash_probes += other.hash_probes;
        self.agg_updates += other.agg_updates;
        self.tuple_copies += other.tuple_copies;
        self.predicate_evals += other.predicate_evals;
        self.bitmap_words += other.bitmap_words;
        self.bitmap_tests += other.bitmap_tests;
        self.index_lookups += other.index_lookups;
    }

    /// Per-field saturating difference from `earlier`.
    pub fn since(&self, earlier: &CpuCounters) -> CpuCounters {
        CpuCounters {
            hash_builds: self.hash_builds.saturating_sub(earlier.hash_builds),
            hash_probes: self.hash_probes.saturating_sub(earlier.hash_probes),
            agg_updates: self.agg_updates.saturating_sub(earlier.agg_updates),
            tuple_copies: self.tuple_copies.saturating_sub(earlier.tuple_copies),
            predicate_evals: self.predicate_evals.saturating_sub(earlier.predicate_evals),
            bitmap_words: self.bitmap_words.saturating_sub(earlier.bitmap_words),
            bitmap_tests: self.bitmap_tests.saturating_sub(earlier.bitmap_tests),
            index_lookups: self.index_lookups.saturating_sub(earlier.index_lookups),
        }
    }

    /// True if no work has been counted.
    pub fn is_zero(&self) -> bool {
        *self == CpuCounters::default()
    }
}

/// Work to be priced: one count per [`CpuCounters`] field plus page reads.
///
/// Counts are `f64` so an estimate can hold expected, fractional counts;
/// measured counters convert exactly (`Work::from(&counters)`).
/// [`HardwareModel::price`] prices either.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Work {
    /// Tuples inserted into hash tables.
    pub hash_builds: f64,
    /// Hash table probes (join + aggregation).
    pub hash_probes: f64,
    /// Aggregate cell updates.
    pub agg_updates: f64,
    /// Tuples copied between operators.
    pub tuple_copies: f64,
    /// Predicate evaluations.
    pub predicate_evals: f64,
    /// 64-bit bitmap words combined.
    pub bitmap_words: f64,
    /// Single-bit bitmap tests.
    pub bitmap_tests: f64,
    /// Index metadata lookups.
    pub index_lookups: f64,
    /// Pages faulted in by sequential reads.
    pub seq_pages: f64,
    /// Pages faulted in by random reads.
    pub random_pages: f64,
}

impl AddAssign for Work {
    fn add_assign(&mut self, rhs: Work) {
        self.hash_builds += rhs.hash_builds;
        self.hash_probes += rhs.hash_probes;
        self.agg_updates += rhs.agg_updates;
        self.tuple_copies += rhs.tuple_copies;
        self.predicate_evals += rhs.predicate_evals;
        self.bitmap_words += rhs.bitmap_words;
        self.bitmap_tests += rhs.bitmap_tests;
        self.index_lookups += rhs.index_lookups;
        self.seq_pages += rhs.seq_pages;
        self.random_pages += rhs.random_pages;
    }
}

impl From<&CpuCounters> for Work {
    fn from(c: &CpuCounters) -> Work {
        Work {
            hash_builds: c.hash_builds as f64,
            hash_probes: c.hash_probes as f64,
            agg_updates: c.agg_updates as f64,
            tuple_copies: c.tuple_copies as f64,
            predicate_evals: c.predicate_evals as f64,
            bitmap_words: c.bitmap_words as f64,
            bitmap_tests: c.bitmap_tests as f64,
            index_lookups: c.index_lookups as f64,
            seq_pages: 0.0,
            random_pages: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simtime_arithmetic() {
        let a = SimTime::from_nanos(1_500_000_000);
        let b = SimTime::from_nanos(500_000_000);
        assert_eq!((a + b).as_secs_f64(), 2.0);
        assert_eq!(a.saturating_sub(b).as_secs_f64(), 1.0);
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        let total: SimTime = vec![a, b, b].into_iter().sum();
        assert_eq!(total.as_secs_f64(), 2.5);
        assert_eq!(a.to_string(), "1.500s");
    }

    #[test]
    fn cpu_since_is_a_saturating_difference() {
        let a = CpuCounters {
            hash_probes: 5,
            agg_updates: 2,
            ..CpuCounters::default()
        };
        let b = CpuCounters {
            hash_probes: 3,
            agg_updates: 4,
            ..CpuCounters::default()
        };
        let d = a.since(&b);
        assert_eq!((d.hash_probes, d.agg_updates), (2, 0));
        assert!(a.since(&a).is_zero());
    }

    #[test]
    fn model_prices_io() {
        let m = HardwareModel::paper_1998();
        assert_eq!(m.seq_read(1000).as_secs_f64(), 1.0);
        assert_eq!(m.random_read(100).as_secs_f64(), 1.0);
    }

    #[test]
    fn byte_priced_io_matches_page_priced_io_on_full_pages() {
        let m = HardwareModel::paper_1998();
        let pages = 1000u64;
        assert_eq!(
            m.seq_read_bytes(pages * crate::page::PAGE_SIZE as u64),
            m.seq_read(pages)
        );
        // Half-size pages cost exactly half.
        assert_eq!(
            m.seq_read_bytes(pages * crate::page::PAGE_SIZE as u64 / 2)
                .as_secs_f64(),
            0.5
        );
        // Decompression is priced per byte.
        assert_eq!(m.decompress(1_000_000).as_secs_f64(), 0.02);
    }

    #[test]
    fn model_prices_cpu_counters() {
        let m = HardwareModel::paper_1998();
        let c = CpuCounters {
            hash_probes: 1_000_000,
            ..Default::default()
        };
        assert_eq!(m.cpu_time(&c).as_secs_f64(), 2.0);
        assert!(m.cpu_time(&CpuCounters::default()) == SimTime::ZERO);
    }

    /// The `f64` route is exact: on random counter sets (each count up to
    /// 2^32) and random weights, `cpu_time` equals the integer dot product.
    #[test]
    fn cpu_time_equals_integer_dot_product() {
        fn reference(m: &HardwareModel, c: &CpuCounters) -> u64 {
            c.hash_builds * m.hash_build_ns
                + c.hash_probes * m.hash_probe_ns
                + c.agg_updates * m.agg_update_ns
                + c.tuple_copies * m.tuple_copy_ns
                + c.predicate_evals * m.predicate_eval_ns
                + c.bitmap_words * m.bitmap_word_ns
                + c.bitmap_tests * m.bitmap_test_ns
                + c.index_lookups * m.index_lookup_ns
        }
        let mut rng = starshare_prng::Prng::seed_from_u64(0x5EED);
        let mut count = || rng.gen_range(0..=1u64 << 32);
        let counters: Vec<CpuCounters> = (0..1_000)
            .map(|_| CpuCounters {
                hash_builds: count(),
                hash_probes: count(),
                agg_updates: count(),
                tuple_copies: count(),
                predicate_evals: count(),
                bitmap_words: count(),
                bitmap_tests: count(),
                index_lookups: count(),
            })
            .collect();
        let mut rng = starshare_prng::Prng::seed_from_u64(0x3EED);
        let mut weight = || rng.gen_range(0..=1u64 << 16);
        let random = HardwareModel {
            hash_build_ns: weight(),
            hash_probe_ns: weight(),
            agg_update_ns: weight(),
            tuple_copy_ns: weight(),
            predicate_eval_ns: weight(),
            bitmap_word_ns: weight(),
            bitmap_test_ns: weight(),
            index_lookup_ns: weight(),
            ..HardwareModel::paper_1998()
        };
        for m in [HardwareModel::paper_1998(), random] {
            for c in &counters {
                assert_eq!(m.cpu_time(c).as_nanos(), reference(&m, c), "{c:?}");
            }
        }
    }

    #[test]
    fn price_sums_every_component_then_rounds_once() {
        let m = HardwareModel::paper_1998();
        let w = Work {
            hash_probes: 0.25,
            tuple_copies: 0.25,
            seq_pages: 2.0,
            random_pages: 0.5,
            ..Work::default()
        };
        // 500 + 2000 + 2_000_000 + 5_000_000 ns.
        assert_eq!(m.price(&w).as_nanos(), 7_002_500);
        // 0.48828125 + 0.390625 ns: each term alone rounds to 0.
        let mut small = Work {
            predicate_evals: 1.0 / 1024.0,
            ..Work::default()
        };
        assert_eq!(m.price(&small), SimTime::ZERO);
        small += Work {
            bitmap_words: 1.0 / 256.0,
            ..Work::default()
        };
        assert_eq!(m.nanos(&small), 0.87890625);
        assert_eq!(m.price(&small).as_nanos(), 1);
    }

    #[test]
    fn counters_merge() {
        let mut a = CpuCounters {
            hash_probes: 1,
            agg_updates: 2,
            ..Default::default()
        };
        let b = CpuCounters {
            hash_probes: 10,
            bitmap_words: 5,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.hash_probes, 11);
        assert_eq!(a.agg_updates, 2);
        assert_eq!(a.bitmap_words, 5);
        assert!(!a.is_zero());
        assert!(CpuCounters::default().is_zero());
    }
}
