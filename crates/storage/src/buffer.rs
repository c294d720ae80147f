//! Buffer pool with LRU replacement.
//!
//! The pool tracks which `(file, page)` pairs are resident and counts the
//! faults that bring pages in, classified as *sequential* (part of a table
//! scan) or *random* (an index-directed probe). The distinction matters
//! because the hardware model prices them an order of magnitude apart, which
//! is what makes the paper's shared-scan operators profitable.
//!
//! The pool deliberately does **not** own page bytes — tables keep their own
//! bytes in [`crate::heap::HeapFile`] — it simulates residency and charges
//! the clock. This keeps the data path simple (callers read bytes directly)
//! while the accounting stays faithful: a page evicted here really will be
//! charged again on its next access.

use std::collections::HashMap;

use crate::fault::{FaultError, FaultInjector, FaultPlan, FaultStats};
use crate::model::{HardwareModel, SimTime};
use crate::page::{FileId, PageId, PAGE_SIZE};

/// How a page access reached the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Next page of a table scan: on a miss, the disk arm is already in
    /// position, so the fault costs one sequential transfer.
    Sequential,
    /// Index-directed probe: a miss pays seek + rotational latency.
    Random,
}

/// I/O activity observed by the pool.
///
/// Fault *counts* drive eviction behaviour and the random-read charge;
/// fault *bytes* drive the sequential-transfer charge and the
/// `bytes_scanned` telemetry. On uncompressed storage every fault moves
/// exactly [`PAGE_SIZE`] bytes, so the byte counters are redundant there
/// (`seq_bytes == seq_faults × PAGE_SIZE`) and the priced time is
/// identical to the historical per-fault pricing. Compressed pages move
/// fewer bytes per fault and add a decompression charge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Faults served as sequential transfers.
    pub seq_faults: u64,
    /// Faults served as random reads.
    pub random_faults: u64,
    /// Accesses satisfied from the pool.
    pub hits: u64,
    /// Bytes moved by sequential faults (stored — possibly compressed —
    /// page bytes; hits move nothing).
    pub seq_bytes: u64,
    /// Bytes moved by random faults.
    pub random_bytes: u64,
    /// Compressed bytes decoded to serve faults (0 on raw pages). Charged
    /// as CPU in [`io_time`](Self::io_time) — the cycles compression
    /// spends to save transfer bytes.
    pub decompress_bytes: u64,
}

impl IoStats {
    /// Prices the recorded I/O under `model`. Hits are free. Sequential
    /// transfers are priced by *bytes* (at the model's per-page rate over
    /// [`PAGE_SIZE`]), random reads per fault (seek-dominated), and
    /// decompression per byte decoded.
    pub fn io_time(&self, model: &HardwareModel) -> SimTime {
        model.seq_read_bytes(self.seq_bytes)
            + model.random_read(self.random_faults)
            + model.decompress(self.decompress_bytes)
    }

    /// Total page accesses (hits + faults).
    pub fn accesses(&self) -> u64 {
        self.hits + self.seq_faults + self.random_faults
    }

    /// Bytes actually read from storage (sequential + random fault bytes).
    pub fn bytes_scanned(&self) -> u64 {
        self.seq_bytes + self.random_bytes
    }

    /// Merges another stats record into this one.
    pub fn merge(&mut self, other: &IoStats) {
        self.seq_faults += other.seq_faults;
        self.random_faults += other.random_faults;
        self.hits += other.hits;
        self.seq_bytes += other.seq_bytes;
        self.random_bytes += other.random_bytes;
        self.decompress_bytes += other.decompress_bytes;
    }

    /// Difference since an earlier snapshot (all counters are monotone).
    pub fn since(&self, earlier: &IoStats) -> IoStats {
        IoStats {
            seq_faults: self.seq_faults - earlier.seq_faults,
            random_faults: self.random_faults - earlier.random_faults,
            hits: self.hits - earlier.hits,
            seq_bytes: self.seq_bytes - earlier.seq_bytes,
            random_bytes: self.random_bytes - earlier.random_bytes,
            decompress_bytes: self.decompress_bytes - earlier.decompress_bytes,
        }
    }
}

type Key = (FileId, PageId);

const NIL: usize = usize::MAX;

#[derive(Debug, Clone, Copy)]
struct Node {
    key: Key,
    prev: usize,
    next: usize,
}

/// An LRU buffer pool over `(file, page)` keys.
///
/// Capacity is measured in pages; the paper's configuration (16 MB of 8 KiB
/// pages → 2048 pages) is the default via
/// [`HardwareModel::paper_1998`](crate::model::HardwareModel::paper_1998).
#[derive(Debug)]
pub struct BufferPool {
    capacity: usize,
    map: HashMap<Key, usize>,
    nodes: Vec<Node>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    stats: IoStats,
    /// Optional deterministic fault injector, consulted only by
    /// [`try_access`](Self::try_access).
    injector: Option<FaultInjector>,
}

impl BufferPool {
    /// Creates a pool that can hold `capacity` pages.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "buffer pool needs at least one page");
        BufferPool {
            capacity,
            map: HashMap::with_capacity(capacity),
            nodes: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            stats: IoStats::default(),
            injector: None,
        }
    }

    /// Creates a pool sized per `model.buffer_pool_pages`.
    pub fn for_model(model: &HardwareModel) -> Self {
        Self::new(model.buffer_pool_pages)
    }

    /// Capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Pages currently resident.
    pub fn resident(&self) -> usize {
        self.map.len()
    }

    /// True if `(file, page)` is resident (does not touch LRU order).
    pub fn contains(&self, file: FileId, page: PageId) -> bool {
        self.map.contains_key(&(file, page))
    }

    /// Touches `(file, page)`: records a hit if resident, otherwise faults
    /// the page in (evicting the LRU page if full) and records a fault of
    /// `kind` moving a full [`PAGE_SIZE`] of bytes. Returns `true` on a
    /// hit.
    pub fn access(&mut self, file: FileId, page: PageId, kind: AccessKind) -> bool {
        self.access_sized(file, page, kind, PAGE_SIZE as u64, 0)
    }

    /// [`access`](Self::access) for a page whose stored form is `io_bytes`
    /// long and needs `decompress_bytes` of decoding when faulted in
    /// (compressed heap pages). Residency, eviction, and the fault/hit
    /// counters are identical to `access`; only the byte accounting — and
    /// therefore the priced sequential/decompression time — differs. Hits
    /// record no bytes: the pool holds pages in decoded form.
    pub fn access_sized(
        &mut self,
        file: FileId,
        page: PageId,
        kind: AccessKind,
        io_bytes: u64,
        decompress_bytes: u64,
    ) -> bool {
        let key = (file, page);
        if let Some(&idx) = self.map.get(&key) {
            self.stats.hits += 1;
            self.move_to_front(idx);
            return true;
        }
        match kind {
            AccessKind::Sequential => {
                self.stats.seq_faults += 1;
                self.stats.seq_bytes += io_bytes;
            }
            AccessKind::Random => {
                self.stats.random_faults += 1;
                self.stats.random_bytes += io_bytes;
            }
        }
        self.stats.decompress_bytes += decompress_bytes;
        if self.map.len() == self.capacity {
            self.evict_lru();
        }
        let idx = self.alloc_node(key);
        self.push_front(idx);
        self.map.insert(key, idx);
        false
    }

    /// Like [`access`](Self::access), but consults the armed
    /// [`FaultInjector`] first: a denied access returns `Err` and charges
    /// **nothing** (no hit, no fault, no LRU movement — the simulated read
    /// never happened), so a successful retry produces exactly the
    /// accounting a fault-free run would. With no injector armed this never
    /// fails.
    pub fn try_access(
        &mut self,
        file: FileId,
        page: PageId,
        kind: AccessKind,
    ) -> Result<bool, FaultError> {
        self.try_access_sized(file, page, kind, PAGE_SIZE as u64, 0)
    }

    /// Fault-checked [`access_sized`](Self::access_sized).
    pub fn try_access_sized(
        &mut self,
        file: FileId,
        page: PageId,
        kind: AccessKind,
        io_bytes: u64,
        decompress_bytes: u64,
    ) -> Result<bool, FaultError> {
        if let Some(inj) = &mut self.injector {
            inj.check(file, page)?;
        }
        Ok(self.access_sized(file, page, kind, io_bytes, decompress_bytes))
    }

    /// Arms `plan` on this pool, replacing any previous injector (and its
    /// counters). Faults fire only on the fallible accessors; see
    /// [`crate::fault`] for the model.
    pub fn inject_faults(&mut self, plan: FaultPlan) {
        self.injector = Some(FaultInjector::new(plan));
    }

    /// Disarms fault injection, returning the final counters (or `None` if
    /// no injector was armed).
    pub fn clear_faults(&mut self) -> Option<FaultStats> {
        self.injector.take().map(|inj| inj.stats())
    }

    /// Counters of the armed injector (`None` when not armed).
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.injector.as_ref().map(FaultInjector::stats)
    }

    /// Empties the pool (the paper flushes buffers before each test) without
    /// resetting statistics.
    pub fn flush(&mut self) {
        self.map.clear();
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Current cumulative statistics.
    pub fn stats(&self) -> IoStats {
        self.stats
    }

    /// Resets statistics to zero (residency is unaffected).
    pub fn reset_stats(&mut self) {
        self.stats = IoStats::default();
    }

    fn alloc_node(&mut self, key: Key) -> usize {
        if let Some(idx) = self.free.pop() {
            self.nodes[idx] = Node {
                key,
                prev: NIL,
                next: NIL,
            };
            idx
        } else {
            self.nodes.push(Node {
                key,
                prev: NIL,
                next: NIL,
            });
            self.nodes.len() - 1
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn unlink(&mut self, idx: usize) {
        let Node { prev, next, .. } = self.nodes[idx];
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn move_to_front(&mut self, idx: usize) {
        if self.head == idx {
            return;
        }
        self.unlink(idx);
        self.push_front(idx);
    }

    fn evict_lru(&mut self) {
        let idx = self.tail;
        debug_assert_ne!(idx, NIL, "evict called on empty pool");
        let key = self.nodes[idx].key;
        self.unlink(idx);
        self.map.remove(&key);
        self.free.push(idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(i: u32) -> FileId {
        FileId(i)
    }

    #[test]
    fn hit_after_fault() {
        let mut p = BufferPool::new(4);
        assert!(!p.access(f(0), 0, AccessKind::Sequential));
        assert!(p.access(f(0), 0, AccessKind::Random));
        assert_eq!(p.stats().seq_faults, 1);
        assert_eq!(p.stats().random_faults, 0);
        assert_eq!(p.stats().hits, 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut p = BufferPool::new(2);
        p.access(f(0), 0, AccessKind::Sequential);
        p.access(f(0), 1, AccessKind::Sequential);
        // Touch page 0 so page 1 becomes LRU.
        p.access(f(0), 0, AccessKind::Sequential);
        // Fault page 2 → evicts page 1.
        p.access(f(0), 2, AccessKind::Sequential);
        assert!(p.contains(f(0), 0));
        assert!(!p.contains(f(0), 1));
        assert!(p.contains(f(0), 2));
        assert_eq!(p.resident(), 2);
    }

    #[test]
    fn sequential_flooding_rereads_everything() {
        // A scan larger than the pool leaves no useful residue for the next
        // scan — the classic LRU sequential-flooding behaviour the paper's
        // repeated-scan costs rely on.
        let mut p = BufferPool::new(10);
        for round in 0..3 {
            for pg in 0..20 {
                let hit = p.access(f(0), pg, AccessKind::Sequential);
                assert!(!hit, "round {round} page {pg} unexpectedly hit");
            }
        }
        assert_eq!(p.stats().seq_faults, 60);
        assert_eq!(p.stats().hits, 0);
    }

    #[test]
    fn small_table_stays_resident() {
        let mut p = BufferPool::new(10);
        for _ in 0..3 {
            for pg in 0..5 {
                p.access(f(1), pg, AccessKind::Sequential);
            }
        }
        assert_eq!(p.stats().seq_faults, 5);
        assert_eq!(p.stats().hits, 10);
    }

    #[test]
    fn flush_forgets_residency_but_keeps_stats() {
        let mut p = BufferPool::new(4);
        p.access(f(0), 0, AccessKind::Random);
        p.flush();
        assert_eq!(p.resident(), 0);
        assert_eq!(p.stats().random_faults, 1);
        assert!(!p.access(f(0), 0, AccessKind::Random));
        assert_eq!(p.stats().random_faults, 2);
    }

    #[test]
    fn stats_since_snapshot() {
        let mut p = BufferPool::new(4);
        p.access(f(0), 0, AccessKind::Sequential);
        let snap = p.stats();
        p.access(f(0), 0, AccessKind::Sequential);
        p.access(f(0), 1, AccessKind::Random);
        let d = p.stats().since(&snap);
        assert_eq!(d.hits, 1);
        assert_eq!(d.random_faults, 1);
        assert_eq!(d.seq_faults, 0);
        assert_eq!(d.accesses(), 2);
    }

    #[test]
    fn io_time_prices_by_kind() {
        let model = HardwareModel::paper_1998();
        let s = IoStats {
            seq_faults: 10,
            random_faults: 10,
            hits: 100,
            seq_bytes: 10 * PAGE_SIZE as u64,
            random_bytes: 10 * PAGE_SIZE as u64,
            decompress_bytes: 0,
        };
        // 10 × 1 ms + 10 × 10 ms = 110 ms.
        assert_eq!(s.io_time(&model).as_secs_f64(), 0.11);
    }

    #[test]
    fn io_time_prices_sequential_by_bytes() {
        let model = HardwareModel::paper_1998();
        // Half-size pages halve the sequential charge…
        let s = IoStats {
            seq_faults: 10,
            seq_bytes: 10 * PAGE_SIZE as u64 / 2,
            ..Default::default()
        };
        assert_eq!(s.io_time(&model).as_secs_f64(), 0.005);
        // …while random faults stay seek-priced regardless of bytes.
        let r = IoStats {
            random_faults: 10,
            random_bytes: 10,
            ..Default::default()
        };
        assert_eq!(r.io_time(&model).as_secs_f64(), 0.1);
        assert_eq!(r.bytes_scanned(), 10);
    }

    #[test]
    fn sized_access_records_bytes_on_faults_only() {
        let mut p = BufferPool::new(4);
        assert!(!p.access_sized(f(0), 0, AccessKind::Sequential, 100, 40));
        assert!(p.access_sized(f(0), 0, AccessKind::Sequential, 100, 40));
        let s = p.stats();
        assert_eq!(s.seq_faults, 1);
        assert_eq!(s.hits, 1);
        assert_eq!(s.seq_bytes, 100, "hit added no bytes");
        assert_eq!(s.decompress_bytes, 40);
        assert_eq!(s.bytes_scanned(), 100);
        // Default access moves a full page and decodes nothing.
        p.access(f(0), 1, AccessKind::Random);
        let s = p.stats();
        assert_eq!(s.random_bytes, PAGE_SIZE as u64);
        assert_eq!(s.decompress_bytes, 40);
    }

    #[test]
    fn files_do_not_collide() {
        let mut p = BufferPool::new(4);
        p.access(f(0), 7, AccessKind::Sequential);
        assert!(!p.access(f(1), 7, AccessKind::Sequential));
        assert_eq!(p.stats().seq_faults, 2);
    }

    #[test]
    fn capacity_one_pool_works() {
        let mut p = BufferPool::new(1);
        p.access(f(0), 0, AccessKind::Sequential);
        assert!(p.access(f(0), 0, AccessKind::Sequential));
        p.access(f(0), 1, AccessKind::Sequential);
        assert!(!p.contains(f(0), 0));
        assert!(p.contains(f(0), 1));
    }

    #[test]
    fn merge_stats() {
        let mut a = IoStats {
            seq_faults: 1,
            random_faults: 2,
            hits: 3,
            seq_bytes: 4,
            random_bytes: 5,
            decompress_bytes: 6,
        };
        a.merge(&IoStats {
            seq_faults: 10,
            random_faults: 20,
            hits: 30,
            seq_bytes: 40,
            random_bytes: 50,
            decompress_bytes: 60,
        });
        assert_eq!(a.seq_faults, 11);
        assert_eq!(a.random_faults, 22);
        assert_eq!(a.hits, 33);
        assert_eq!(a.seq_bytes, 44);
        assert_eq!(a.random_bytes, 55);
        assert_eq!(a.decompress_bytes, 66);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use starshare_prng::Prng;

    /// A trivially correct LRU reference: a Vec ordered MRU-first.
    struct NaiveLru {
        capacity: usize,
        order: Vec<Key>,
        stats: IoStats,
    }

    impl NaiveLru {
        fn new(capacity: usize) -> Self {
            NaiveLru {
                capacity,
                order: Vec::new(),
                stats: IoStats::default(),
            }
        }

        fn access(&mut self, key: Key, kind: AccessKind) -> bool {
            if let Some(i) = self.order.iter().position(|k| *k == key) {
                self.order.remove(i);
                self.order.insert(0, key);
                self.stats.hits += 1;
                return true;
            }
            match kind {
                AccessKind::Sequential => {
                    self.stats.seq_faults += 1;
                    self.stats.seq_bytes += PAGE_SIZE as u64;
                }
                AccessKind::Random => {
                    self.stats.random_faults += 1;
                    self.stats.random_bytes += PAGE_SIZE as u64;
                }
            }
            if self.order.len() == self.capacity {
                self.order.pop();
            }
            self.order.insert(0, key);
            false
        }
    }

    /// The linked-list pool behaves exactly like the naive reference on
    /// random access traces: same hit/fault classification at every step,
    /// same residency at the end.
    #[test]
    fn pool_matches_naive_lru_model() {
        let mut rng = Prng::seed_from_u64(0x1_F001);
        for _ in 0..64 {
            let capacity = rng.gen_range(1usize..12);
            let mut pool = BufferPool::new(capacity);
            let mut model = NaiveLru::new(capacity);
            let steps = rng.gen_range(0usize..200);
            for _ in 0..steps {
                let file = rng.gen_range(0u32..4);
                let page = rng.gen_range(0u32..16);
                let kind = if rng.gen_bool(0.5) {
                    AccessKind::Random
                } else {
                    AccessKind::Sequential
                };
                let hit_pool = pool.access(FileId(file), page, kind);
                let hit_model = model.access((FileId(file), page), kind);
                assert_eq!(hit_pool, hit_model, "divergent hit/fault");
            }
            assert_eq!(pool.stats(), model.stats);
            assert_eq!(pool.resident(), model.order.len());
            for key in &model.order {
                assert!(pool.contains(key.0, key.1), "{key:?} missing from pool");
            }
        }
    }

    /// `since` and `merge` are inverses: for any snapshot taken mid-trace,
    /// folding the delta back onto the snapshot reproduces the final
    /// totals, and deltas over adjacent snapshot intervals merge to the
    /// whole — the identity the executor relies on when it splits a class's
    /// charged I/O into per-morsel shares and folds them back together.
    #[test]
    fn stats_since_and_merge_round_trip() {
        let mut rng = Prng::seed_from_u64(0x4_F001);
        for _ in 0..64 {
            let mut pool = BufferPool::new(rng.gen_range(1usize..8));
            let mut snapshots = vec![pool.stats()];
            for _ in 0..rng.gen_range(1usize..6) {
                for _ in 0..rng.gen_range(0usize..50) {
                    let page = rng.gen_range(0u32..16);
                    let kind = if rng.gen_bool(0.5) {
                        AccessKind::Random
                    } else {
                        AccessKind::Sequential
                    };
                    pool.access(FileId(0), page, kind);
                }
                snapshots.push(pool.stats());
            }
            let total = pool.stats();
            // since ∘ merge is the identity from any snapshot.
            for snap in &snapshots {
                let mut rebuilt = *snap;
                rebuilt.merge(&total.since(snap));
                assert_eq!(rebuilt, total);
            }
            // Adjacent interval deltas merge back to the whole trace.
            let mut folded = IoStats::default();
            for pair in snapshots.windows(2) {
                folded.merge(&pair[1].since(&pair[0]));
            }
            assert_eq!(folded, total.since(&snapshots[0]));
            assert_eq!(folded.accesses(), total.accesses());
        }
    }

    /// Flush mid-trace never corrupts the structure.
    #[test]
    fn pool_survives_interleaved_flushes() {
        let mut rng = Prng::seed_from_u64(0x2_F001);
        for _ in 0..64 {
            let capacity = rng.gen_range(1usize..8);
            let mut pool = BufferPool::new(capacity);
            let steps = rng.gen_range(0usize..100);
            for _ in 0..steps {
                let page = rng.gen_range(0u32..8);
                if rng.gen_bool(0.5) {
                    pool.flush();
                    assert_eq!(pool.resident(), 0);
                } else {
                    pool.access(FileId(0), page, AccessKind::Sequential);
                    assert!(pool.resident() <= capacity);
                    assert!(pool.contains(FileId(0), page));
                }
            }
        }
    }
}
