//! Morsel boundaries and the work-stealing scheduler.
//!
//! A *morsel* is a small page-aligned tuple range — the unit of work the
//! executor hands to worker threads. Boundaries are computed
//! **deterministically from data** before any thread runs:
//!
//! * scan classes carve the heap into fixed-size page chunks
//!   ([`scan_morsels`]);
//! * probe classes balance by *candidate count* instead — a greedy
//!   page-walk over the OR'd candidate bitmap closes a morsel whenever it
//!   has accumulated its fair share of set bits ([`probe_morsels`]) — so a
//!   skewed bitmap no longer leaves one range with all the probes;
//! * page alignment keeps morsels on disjoint pages, so charging them one
//!   after another makes exactly the page accesses of one sequential pass,
//!   no matter how the table is carved.
//!
//! Dispatch is classic work-stealing: unit `i` is seeded into worker
//! `i % threads`' deque; a worker pops its own deque from the front and,
//! when empty, steals from the *back* of a victim's. Stealing only decides
//! *which thread* runs a unit and *when* — each unit writes into its own
//! pre-assigned slot, so nothing observable depends on the schedule.

use std::collections::VecDeque;
use std::sync::Mutex;

use starshare_bitmap::Bitmap;
use starshare_storage::HeapFile;

/// Default pages per scan morsel. Small enough that a skewed class splits
/// into many units (good load balance), big enough that per-morsel
/// overheads stay in the noise. The binding overhead is not the pool
/// snapshot but the partial accumulators: every morsel allocates one
/// accumulator per query and hands it to the merge tree, so with
/// high-cardinality group-bys (dense arrays near the tier cap, packed
/// hash tables where most tuples open a fresh group) each extra morsel
/// re-merges nearly every group it saw. 128 pages keeps that re-merge
/// tax under the scan work itself while still cutting a paper-scale
/// (2 M row) base table into ~90 units.
pub const DEFAULT_MORSEL_PAGES: u32 = 128;

/// Probe morsels smaller than this many candidates are not worth their
/// per-morsel overhead; the candidate-balancer caps the morsel count so no
/// morsel targets fewer.
const MIN_PROBE_CANDIDATES_PER_MORSEL: u64 = 32;

/// Morsel sizing knob. Boundaries derived from a spec depend only on the
/// spec and the data — never on thread count or scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MorselSpec {
    /// Pages per scan morsel, and the page-count cap for probe morsels.
    /// `u32::MAX` yields a single whole-table morsel.
    pub pages: u32,
}

impl Default for MorselSpec {
    fn default() -> Self {
        MorselSpec {
            pages: DEFAULT_MORSEL_PAGES,
        }
    }
}

impl MorselSpec {
    /// A spec with the given pages-per-morsel (clamped to at least 1).
    pub fn with_pages(pages: u32) -> Self {
        MorselSpec {
            pages: pages.max(1),
        }
    }

    /// One morsel spanning the whole table: parallelism degenerates to one
    /// unit per class, which is exactly the sequential work split.
    pub fn whole_table() -> Self {
        MorselSpec { pages: u32::MAX }
    }
}

/// Carves `heap` into contiguous `pages`-page tuple ranges `[lo, hi)`.
/// Deterministic in `(heap, pages)`; empty tables yield no morsels.
pub(crate) fn scan_morsels(heap: &HeapFile, pages: u32) -> Vec<(u64, u64)> {
    let n = heap.n_tuples();
    if n == 0 {
        return Vec::new();
    }
    let chunk = (pages.max(1) as u64).saturating_mul(heap.layout().tuples_per_page() as u64);
    let mut out = Vec::with_capacity((n / chunk.max(1) + 1) as usize);
    let mut lo = 0u64;
    while lo < n {
        let hi = lo.saturating_add(chunk).min(n);
        out.push((lo, hi));
        lo = hi;
    }
    out
}

/// Like [`scan_morsels`], but only within the given page-aligned tuple
/// `ranges` (the zone-map survivors from [`crate::prune`]): each range is
/// carved into `pages`-page chunks independently, so morsels never span a
/// pruned gap. Since ranges start on zone boundaries (multiples of the
/// zone's page count), every morsel stays page-aligned.
pub(crate) fn scan_morsels_in_ranges(
    heap: &HeapFile,
    pages: u32,
    ranges: &[(u64, u64)],
) -> Vec<(u64, u64)> {
    let chunk = (pages.max(1) as u64).saturating_mul(heap.layout().tuples_per_page() as u64);
    let mut out = Vec::new();
    for &(start, end) in ranges {
        let mut lo = start;
        while lo < end {
            let hi = lo.saturating_add(chunk).min(end);
            out.push((lo, hi));
            lo = hi;
        }
    }
    out
}

/// Carves `heap` into page-aligned ranges balanced by *candidate count*: a
/// greedy walk accumulates the per-page popcount of `total` and closes a
/// morsel once it holds its proportional share of candidates.
///
/// The morsel count targets one morsel per `pages` pages, but never more
/// than one per [`MIN_PROBE_CANDIDATES_PER_MORSEL`] candidates — a sparse
/// bitmap over a huge table must not shatter into thousands of nearly-empty
/// units. Trailing candidate-free pages are dropped (nothing to probe
/// there); a bitmap with no set bits yields no morsels at all.
pub(crate) fn probe_morsels(heap: &HeapFile, total: &Bitmap, pages: u32) -> Vec<(u64, u64)> {
    let n = heap.n_tuples();
    if n == 0 {
        return Vec::new();
    }
    let candidates = total.count_ones_in(0, n);
    if candidates == 0 {
        return Vec::new();
    }
    let per_page = heap.layout().tuples_per_page() as u64;
    let page_cap = (heap.page_count() as u64).div_ceil(pages.max(1) as u64);
    let cand_cap = candidates.div_ceil(MIN_PROBE_CANDIDATES_PER_MORSEL);
    let target = candidates.div_ceil(page_cap.min(cand_cap).max(1));

    let mut out = Vec::new();
    let mut lo = 0u64;
    let mut acc = 0u64;
    let mut page = 0u64;
    while page * per_page < n {
        let plo = page * per_page;
        let phi = ((page + 1) * per_page).min(n);
        acc += total.count_ones_in(plo, phi);
        if acc >= target {
            out.push((lo, phi));
            lo = phi;
            acc = 0;
        }
        page += 1;
    }
    if acc > 0 {
        out.push((lo, n));
    }
    out
}

/// Runs units `0..n_units` across `threads` workers with work-stealing;
/// the calling thread is worker 0.
///
/// Each worker owns a scratch value from `make_scratch` (reused across all
/// units it runs). `run(scratch, unit)` must write its output somewhere
/// unit-indexed; the scheduler guarantees each unit runs exactly once but
/// promises nothing about *where* or *in what order* — that is the whole
/// determinism bargain.
///
/// Returns the number of successful steals — a scheduling accident, not a
/// data-derived quantity: callers may count it in metrics but must never
/// let it into traces or anything priced on the simulated clock.
pub(crate) fn run_units<S>(
    threads: usize,
    n_units: usize,
    make_scratch: impl Fn() -> S + Sync,
    run: impl Fn(&mut S, usize) + Sync,
) -> u64 {
    if n_units == 0 {
        return 0;
    }
    let threads = threads.max(1).min(n_units);
    // Seed round-robin: unit u starts in deque u % threads. All units exist
    // up front (none are spawned mid-run), so "every deque empty" is a
    // sound termination condition: a worker exits after a full sweep finds
    // nothing, and any unit it missed was already claimed by someone else.
    let deques: Vec<Mutex<VecDeque<usize>>> = (0..threads)
        .map(|w| Mutex::new((w..n_units).step_by(threads).collect()))
        .collect();
    let pop = |d: &Mutex<VecDeque<usize>>| d.lock().expect("no panics hold deques").pop_front();
    let steal = |d: &Mutex<VecDeque<usize>>| d.lock().expect("no panics hold deques").pop_back();
    let steals = std::sync::atomic::AtomicU64::new(0);
    let worker = |w: usize| {
        let mut scratch = make_scratch();
        loop {
            let unit = pop(&deques[w]).or_else(|| {
                (1..threads).find_map(|v| {
                    let u = steal(&deques[(w + v) % threads]);
                    if u.is_some() {
                        steals.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                    u
                })
            });
            match unit {
                Some(u) => run(&mut scratch, u),
                None => break,
            }
        }
    };
    std::thread::scope(|s| {
        for w in 1..threads {
            let worker = &worker;
            s.spawn(move || worker(w));
        }
        worker(0);
    });
    steals.into_inner()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn heap_with_rows(rows: u64) -> HeapFile {
        use starshare_storage::{FileId, TupleLayout};
        HeapFile::from_rows(
            FileId(0),
            TupleLayout::new(2),
            (0..rows).map(|i| (vec![i as u32, 0], 1.0)),
        )
    }

    #[test]
    fn scan_morsels_are_aligned_contiguous_and_cover() {
        let heap = heap_with_rows(10_000);
        let per_page = heap.layout().tuples_per_page() as u64;
        for pages in [1u32, 4, 16, u32::MAX] {
            let ms = scan_morsels(&heap, pages);
            assert!(!ms.is_empty(), "pages={pages}");
            let mut expect_lo = 0;
            for &(lo, hi) in &ms {
                assert_eq!(lo, expect_lo, "contiguous");
                assert_eq!(lo % per_page, 0, "page-aligned start");
                assert!(lo < hi);
                expect_lo = hi;
            }
            assert_eq!(expect_lo, heap.n_tuples(), "full coverage");
        }
        assert_eq!(scan_morsels(&heap, u32::MAX).len(), 1);
        assert!(scan_morsels(&heap_with_rows(0), 16).is_empty());
    }

    #[test]
    fn probe_morsels_balance_candidates() {
        let heap = heap_with_rows(50_000);
        let n = heap.n_tuples();
        // All candidates clustered in the last 2% of the table.
        let start = n - n / 50;
        let positions: Vec<u64> = (start..n).step_by(3).collect();
        let bm = Bitmap::from_positions(n, &positions);
        let ms = probe_morsels(&heap, &bm, 1);
        assert!(ms.len() > 1, "clustered candidates must split");
        let per_page = heap.layout().tuples_per_page() as u64;
        let total: u64 = ms.iter().map(|&(lo, hi)| bm.count_ones_in(lo, hi)).sum();
        assert_eq!(total, positions.len() as u64, "every candidate covered");
        for window in ms.windows(2) {
            assert!(window[0].1 <= window[1].0, "ordered and disjoint");
        }
        for &(lo, _) in &ms {
            assert_eq!(lo % per_page, 0, "page-aligned start");
        }
        // Page-balanced would put all candidates in the final range; the
        // candidate-balancer must spread them instead.
        let max_share = ms
            .iter()
            .map(|&(lo, hi)| bm.count_ones_in(lo, hi))
            .max()
            .unwrap();
        assert!(
            max_share < positions.len() as u64,
            "no morsel holds every candidate"
        );
    }

    #[test]
    fn probe_morsels_cap_the_unit_count_for_sparse_bitmaps() {
        let heap = heap_with_rows(100_000);
        let n = heap.n_tuples();
        // 64 candidates spread across the whole table: at most
        // 64 / MIN_PROBE_CANDIDATES_PER_MORSEL = 2 morsels, even at
        // 1-page granularity.
        let positions: Vec<u64> = (0..64).map(|i| i * (n / 64)).collect();
        let bm = Bitmap::from_positions(n, &positions);
        let ms = probe_morsels(&heap, &bm, 1);
        assert!(ms.len() <= 2, "sparse bitmap must not shatter: {ms:?}");
        let total: u64 = ms.iter().map(|&(lo, hi)| bm.count_ones_in(lo, hi)).sum();
        assert_eq!(total, 64);
    }

    #[test]
    fn probe_morsels_empty_bitmap_yields_no_units() {
        let heap = heap_with_rows(5_000);
        let bm = Bitmap::new(heap.n_tuples());
        assert!(probe_morsels(&heap, &bm, 16).is_empty());
    }

    #[test]
    fn boundaries_are_deterministic() {
        let heap = heap_with_rows(30_000);
        let n = heap.n_tuples();
        let positions: Vec<u64> = (0..n).step_by(97).collect();
        let bm = Bitmap::from_positions(n, &positions);
        for pages in [1u32, 16] {
            assert_eq!(scan_morsels(&heap, pages), scan_morsels(&heap, pages));
            assert_eq!(
                probe_morsels(&heap, &bm, pages),
                probe_morsels(&heap, &bm, pages)
            );
        }
    }

    #[test]
    fn run_units_runs_each_unit_exactly_once() {
        for threads in [1usize, 2, 7, 16] {
            for n_units in [0usize, 1, 5, 64] {
                let counts: Vec<AtomicUsize> = (0..n_units).map(|_| AtomicUsize::new(0)).collect();
                run_units(
                    threads,
                    n_units,
                    || (),
                    |_, u| {
                        counts[u].fetch_add(1, Ordering::Relaxed);
                    },
                );
                for (u, c) in counts.iter().enumerate() {
                    assert_eq!(
                        c.load(Ordering::Relaxed),
                        1,
                        "unit {u} at {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn run_units_scratch_is_per_worker() {
        // Workers mutate their scratch freely; totals still cover all units.
        let sum = AtomicUsize::new(0);
        run_units(
            4,
            100,
            || 0usize,
            |acc, u| {
                *acc += u;
                sum.fetch_add(u, Ordering::Relaxed);
            },
        );
        assert_eq!(sum.load(Ordering::Relaxed), (0..100).sum::<usize>());
    }
}
