//! Bitmap join indexes.
//!
//! A [`BitmapJoinIndex`] is built on one dimension attribute of a stored
//! table, *at a chosen hierarchy level*: for every member of that level it
//! holds a bitmap over the table's tuple positions, with bit `p` set iff
//! tuple `p`'s dimension key rolls up to that member. This is the paper's
//! "join bitmap index built on each attribute A, B, and C of the base table"
//! (§3.2): the index already encodes the fact↔dimension join, so a
//! selection predicate `A' IN (a1, a2)` becomes an OR of two stored bitmaps.
//!
//! The index occupies pages in its own virtual file; [`lookup`] charges
//! those page reads through the buffer pool, so repeated lookups of a hot
//! bitmap hit cache exactly as they would in the real system. Under
//! [`IndexFormat::Compressed`] each member is stored as a
//! [`CompressedBitmap`] when that is smaller than the plain form, and both
//! the page layout and the charged I/O shrink accordingly; the
//! [`MemberBits`] handle a lookup returns hides the format from operators
//! and charges identical CPU either way.
//!
//! [`lookup`]: BitmapJoinIndex::lookup

use std::collections::BTreeMap;

use starshare_storage::{AccessKind, BufferPool, FileId, HeapFile, PageId, ScanBatch, PAGE_SIZE};

use crate::bitvec::Bitmap;
use crate::compressed::CompressedBitmap;

/// How member bitmaps are stored (page accounting *and* in-memory form).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexFormat {
    /// One plain bitmap per member: `n_rows / 8` bytes each.
    #[default]
    Plain,
    /// Per member, the smaller of the plain and the chunked-container
    /// compressed form ([`CompressedBitmap`]) — what a production
    /// deployment would store. Lowers both the resident footprint and the
    /// index-load I/O for clustered or skewed data.
    Compressed,
}

/// One member's stored bitmap, in whichever form the format chose.
#[derive(Debug, Clone, PartialEq, Eq)]
enum MemberSlot {
    Plain(Bitmap),
    Compressed(CompressedBitmap),
}

impl MemberSlot {
    fn byte_size(&self) -> u64 {
        match self {
            MemberSlot::Plain(bm) => bm.byte_size(),
            MemberSlot::Compressed(cb) => cb.byte_size(),
        }
    }
}

/// A borrowed view of one member's bitmap, independent of storage format.
///
/// Operators consume this instead of `&Bitmap` so the simulated CPU charge
/// of assembling a query bitmap ([`or_into`](Self::or_into)) is identical
/// whether the member was stored plain or compressed — only the *I/O*
/// accounting (pages charged by [`BitmapJoinIndex::lookup`]) differs.
#[derive(Debug, Clone, Copy)]
pub enum MemberBits<'a> {
    /// Stored uncompressed.
    Plain(&'a Bitmap),
    /// Stored in chunked-container compressed form.
    Compressed(&'a CompressedBitmap),
}

impl MemberBits<'_> {
    /// Bits in the member bitmap (= rows of the indexed table).
    pub fn len(&self) -> u64 {
        match self {
            MemberBits::Plain(bm) => bm.len(),
            MemberBits::Compressed(cb) => cb.len(),
        }
    }

    /// True if the bitmap has zero length.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u64 {
        match self {
            MemberBits::Plain(bm) => bm.count_ones(),
            MemberBits::Compressed(cb) => cb.count_ones(),
        }
    }

    /// Reads bit `pos`.
    pub fn get(&self, pos: u64) -> bool {
        match self {
            MemberBits::Plain(bm) => bm.get(pos),
            MemberBits::Compressed(cb) => cb.get(pos),
        }
    }

    /// ORs this member into a plain accumulator, returning the words to
    /// charge the simulated clock. Both arms report the accumulator's full
    /// word count — exactly what [`Bitmap::or_assign`] reports — so query
    /// CPU counters do not depend on the index storage format.
    pub fn or_into(&self, target: &mut Bitmap) -> u64 {
        match self {
            MemberBits::Plain(bm) => target.or_assign(bm),
            MemberBits::Compressed(cb) => cb.or_into(target),
        }
    }

    /// Materializes a plain copy (tests, persistence checks).
    pub fn to_bitmap(&self) -> Bitmap {
        match self {
            MemberBits::Plain(bm) => (*bm).clone(),
            MemberBits::Compressed(cb) => cb.to_bitmap(),
        }
    }

    /// Set-bit positions, ascending.
    pub fn iter_ones(&self) -> Box<dyn Iterator<Item = u64> + '_> {
        match self {
            MemberBits::Plain(bm) => Box::new(bm.iter_ones()),
            MemberBits::Compressed(cb) => Box::new(cb.iter_ones()),
        }
    }
}

/// Logical equality: two member views are equal iff they hold the same
/// bits, regardless of storage format.
impl PartialEq for MemberBits<'_> {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (MemberBits::Plain(a), MemberBits::Plain(b)) => a == b,
            (MemberBits::Compressed(a), MemberBits::Compressed(b)) => a == b,
            (a, b) => {
                a.len() == b.len()
                    && a.count_ones() == b.count_ones()
                    && a.to_bitmap() == b.to_bitmap()
            }
        }
    }
}

/// A bitmap join index over one dimension attribute of one table.
#[derive(Debug, Clone)]
pub struct BitmapJoinIndex {
    name: String,
    file_id: FileId,
    n_rows: u64,
    format: IndexFormat,
    /// member id → stored bitmap of matching tuple positions. BTreeMap
    /// keeps member/page assignment deterministic.
    bitmaps: BTreeMap<u32, MemberSlot>,
    /// member id → (first page, page count) inside `file_id`.
    page_ranges: BTreeMap<u32, (PageId, u32)>,
    total_pages: u32,
}

impl BitmapJoinIndex {
    /// Builds a [`IndexFormat::Plain`] index on dimension column `dim` of
    /// `heap`.
    ///
    /// `roll_up` maps the stored dimension key to the member id at the
    /// indexed level (the identity closure indexes the stored level itself).
    /// Building reads the table raw — index construction is load-time work,
    /// not charged to query clocks.
    pub fn build<F>(
        name: impl Into<String>,
        file_id: FileId,
        heap: &HeapFile,
        dim: usize,
        roll_up: F,
    ) -> Self
    where
        F: Fn(u32) -> u32,
    {
        Self::build_with_format(name, file_id, heap, dim, IndexFormat::Plain, roll_up)
    }

    /// Builds an index with an explicit storage format: an empty index
    /// [`extend`](Self::extend)ed over the whole heap.
    pub fn build_with_format<F>(
        name: impl Into<String>,
        file_id: FileId,
        heap: &HeapFile,
        dim: usize,
        format: IndexFormat,
        roll_up: F,
    ) -> Self
    where
        F: Fn(u32) -> u32,
    {
        let mut idx = BitmapJoinIndex {
            name: name.into(),
            file_id,
            n_rows: 0,
            format,
            bitmaps: BTreeMap::new(),
            page_ranges: BTreeMap::new(),
            total_pages: 0,
        };
        idx.extend(heap, dim, roll_up);
        idx
    }

    /// Re-chooses each member's storage form for the index format, shrinks
    /// allocations to fit, and lays the members out on consecutive pages.
    ///
    /// The form choice depends only on the member's bit content and the
    /// bitmap length, so a freshly built index and an incrementally
    /// [`extend`](Self::extend)ed one over the same data produce identical
    /// layouts (and therefore identical charged I/O).
    fn reseal_and_relayout(&mut self) {
        for slot in self.bitmaps.values_mut() {
            match self.format {
                IndexFormat::Plain => {
                    if let MemberSlot::Plain(bm) = slot {
                        bm.shrink_to_fit();
                    }
                }
                IndexFormat::Compressed => match slot {
                    MemberSlot::Plain(bm) => {
                        bm.shrink_to_fit();
                        let cb = CompressedBitmap::from_bitmap(bm);
                        if cb.byte_size() < bm.byte_size() {
                            *slot = MemberSlot::Compressed(cb);
                        }
                    }
                    MemberSlot::Compressed(cb) => {
                        let plain_bytes = cb.len().div_ceil(64) * 8;
                        if cb.byte_size() >= plain_bytes {
                            let mut bm = cb.to_bitmap();
                            bm.shrink_to_fit();
                            *slot = MemberSlot::Plain(bm);
                        }
                    }
                },
            }
        }
        let mut next_page: PageId = 0;
        self.page_ranges.clear();
        for (&member, slot) in &self.bitmaps {
            let pages = (slot.byte_size().div_ceil(PAGE_SIZE as u64)).max(1) as u32;
            self.page_ranges.insert(member, (next_page, pages));
            next_page += pages;
        }
        self.total_pages = next_page;
    }

    /// The storage format.
    pub fn format(&self) -> IndexFormat {
        self.format
    }

    /// Index name, e.g. `"ABCD.A'"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The virtual file holding the index.
    pub fn file_id(&self) -> FileId {
        self.file_id
    }

    /// Rows of the indexed table (= bits per bitmap).
    pub fn n_rows(&self) -> u64 {
        self.n_rows
    }

    /// Distinct members indexed.
    pub fn n_members(&self) -> usize {
        self.bitmaps.len()
    }

    /// Total pages the index occupies.
    pub fn total_pages(&self) -> u32 {
        self.total_pages
    }

    /// Stored bytes across all members (the compressed footprint under
    /// [`IndexFormat::Compressed`]).
    pub fn byte_size(&self) -> u64 {
        self.bitmaps.values().map(|s| s.byte_size()).sum()
    }

    /// Members present in the index, ascending.
    pub fn members(&self) -> impl Iterator<Item = u32> + '_ {
        self.bitmaps.keys().copied()
    }

    /// Members stored in compressed form (0 for plain indexes).
    pub fn compressed_members(&self) -> usize {
        self.bitmaps
            .values()
            .filter(|s| matches!(s, MemberSlot::Compressed(_)))
            .count()
    }

    /// Fetches the bitmap for `member`, charging its pages as sequential
    /// reads through `pool`. Returns `None` for a member with no rows.
    /// Compressed members occupy fewer pages, so the charge shrinks with
    /// the stored size.
    pub fn lookup(&self, member: u32, pool: &mut BufferPool) -> Option<MemberBits<'_>> {
        let slot = self.bitmaps.get(&member)?;
        let (first, count) = self.page_ranges[&member];
        for p in first..first + count {
            pool.access(self.file_id, p, AccessKind::Sequential);
        }
        Some(slot_bits(slot))
    }

    /// Fault-checked variant of [`lookup`](Self::lookup): each index page
    /// access goes through [`BufferPool::try_access`], so an armed fault
    /// injector can deny the load. Pages read before the denial stay
    /// charged (they really were read); a retry re-touches them as pool
    /// hits, leaving residency — and therefore the answer — unchanged.
    pub fn try_lookup(
        &self,
        member: u32,
        pool: &mut BufferPool,
    ) -> Result<Option<MemberBits<'_>>, starshare_storage::FaultError> {
        let Some(slot) = self.bitmaps.get(&member) else {
            return Ok(None);
        };
        let (first, count) = self.page_ranges[&member];
        for p in first..first + count {
            pool.try_access(self.file_id, p, AccessKind::Sequential)?;
        }
        Ok(Some(slot_bits(slot)))
    }

    /// Unaccounted access (tests, planning-time size inspection).
    pub fn peek(&self, member: u32) -> Option<MemberBits<'_>> {
        self.bitmaps.get(&member).map(slot_bits)
    }

    /// Pages that [`lookup`](Self::lookup) of `member` would touch.
    pub fn lookup_pages(&self, member: u32) -> u32 {
        self.page_ranges.get(&member).map_or(0, |&(_, c)| c)
    }

    /// Incrementally extends the index over rows appended to `heap` since
    /// the index covered `self.n_rows()` rows: grows every member bitmap
    /// and indexes the new tail, then re-chooses storage forms and
    /// recomputes the page layout. The result is identical to rebuilding
    /// from scratch.
    ///
    /// # Panics
    /// Panics if the heap has fewer rows than the index already covers.
    pub fn extend<F>(&mut self, heap: &HeapFile, dim: usize, roll_up: F)
    where
        F: Fn(u32) -> u32,
    {
        let new_rows = heap.n_tuples();
        assert!(
            new_rows >= self.n_rows,
            "heap shrank below the indexed row count"
        );
        // Collect the tail's positions per member (ascending by
        // construction), so compressed members can bulk-append. Members
        // are a level's dense ids, so a vector indexed by member holds them.
        let mut tail: Vec<Vec<u64>> = Vec::new();
        let mut cursor = heap.scan_batches(self.n_rows, new_rows);
        let mut batch = ScanBatch::new(heap.layout());
        while cursor.read_next(&mut batch) {
            for (i, &key) in batch.col(dim).iter().enumerate() {
                let member = roll_up(key) as usize;
                if member >= tail.len() {
                    tail.resize_with(member + 1, Vec::new);
                }
                tail[member].push(batch.pos(i));
            }
        }
        for (member, positions) in tail.iter().enumerate() {
            if !positions.is_empty() {
                let old_rows = self.n_rows;
                self.bitmaps
                    .entry(member as u32)
                    .or_insert_with(|| MemberSlot::Plain(Bitmap::new(old_rows)));
            }
        }
        for (&member, slot) in &mut self.bitmaps {
            let positions = tail.get(member as usize).map_or(&[][..], Vec::as_slice);
            match slot {
                MemberSlot::Plain(bm) => {
                    bm.grow(new_rows);
                    for &p in positions {
                        bm.set(p);
                    }
                }
                // extend_with grows the bitmap itself (its append-only
                // check needs the pre-growth length).
                MemberSlot::Compressed(cb) => cb.extend_with(new_rows, positions),
            }
        }
        self.n_rows = new_rows;
        self.reseal_and_relayout();
    }
}

fn slot_bits(slot: &MemberSlot) -> MemberBits<'_> {
    match slot {
        MemberSlot::Plain(bm) => MemberBits::Plain(bm),
        MemberSlot::Compressed(cb) => MemberBits::Compressed(cb),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starshare_storage::TupleLayout;

    /// A tiny table: dim0 cycles 0..4, dim1 = pos % 3.
    fn test_heap(n: u64) -> HeapFile {
        HeapFile::from_rows(
            FileId(0),
            TupleLayout::new(2),
            (0..n).map(|i| ([(i % 4) as u32, (i % 3) as u32], i as f64)),
        )
    }

    #[test]
    fn index_positions_are_exact() {
        let heap = test_heap(20);
        let idx = BitmapJoinIndex::build("t.d0", FileId(100), &heap, 0, |k| k);
        assert_eq!(idx.n_members(), 4);
        assert_eq!(idx.n_rows(), 20);
        let bm = idx.peek(1).unwrap();
        let expect: Vec<u64> = (0..20).filter(|p| p % 4 == 1).collect();
        assert_eq!(bm.iter_ones().collect::<Vec<_>>(), expect);
    }

    #[test]
    fn roll_up_groups_members() {
        let heap = test_heap(20);
        // Roll keys 0..4 up to 2 parents: {0,1}→0, {2,3}→1.
        let idx = BitmapJoinIndex::build("t.d0'", FileId(100), &heap, 0, |k| k / 2);
        assert_eq!(idx.n_members(), 2);
        let bm = idx.peek(0).unwrap();
        let expect: Vec<u64> = (0..20).filter(|p| p % 4 <= 1).collect();
        assert_eq!(bm.iter_ones().collect::<Vec<_>>(), expect);
        // Each row appears in exactly one member bitmap.
        let total: u64 = idx
            .members()
            .map(|m| idx.peek(m).unwrap().count_ones())
            .sum();
        assert_eq!(total, 20);
    }

    #[test]
    fn lookup_charges_pages_and_caches() {
        let heap = test_heap(1000);
        let idx = BitmapJoinIndex::build("t.d1", FileId(7), &heap, 1, |k| k);
        let mut pool = BufferPool::new(64);
        let before = pool.stats();
        idx.lookup(0, &mut pool).unwrap();
        let d1 = pool.stats().since(&before);
        assert_eq!(d1.seq_faults as u32, idx.lookup_pages(0));
        assert!(d1.seq_faults >= 1);
        // Second lookup hits the pool.
        let snap = pool.stats();
        idx.lookup(0, &mut pool).unwrap();
        let d2 = pool.stats().since(&snap);
        assert_eq!(d2.seq_faults, 0);
        assert_eq!(d2.hits as u32, idx.lookup_pages(0));
    }

    #[test]
    fn missing_member_returns_none() {
        let heap = test_heap(10);
        let idx = BitmapJoinIndex::build("t.d0", FileId(1), &heap, 0, |k| k);
        let mut pool = BufferPool::new(8);
        assert!(idx.lookup(99, &mut pool).is_none());
        assert_eq!(pool.stats().accesses(), 0);
        assert_eq!(idx.lookup_pages(99), 0);
    }

    #[test]
    fn distinct_members_get_distinct_pages() {
        let heap = test_heap(100);
        let idx = BitmapJoinIndex::build("t.d0", FileId(1), &heap, 0, |k| k);
        let mut pool = BufferPool::new(64);
        idx.lookup(0, &mut pool);
        let snap = pool.stats();
        idx.lookup(1, &mut pool);
        // Different member → different pages → faults, not hits.
        let d = pool.stats().since(&snap);
        assert!(d.seq_faults > 0);
        assert_eq!(d.hits, 0);
        assert_eq!(idx.total_pages(), 4);
    }

    #[test]
    fn or_of_all_members_covers_table() {
        let heap = test_heap(37);
        let idx = BitmapJoinIndex::build("t.d0", FileId(1), &heap, 0, |k| k);
        let mut acc = Bitmap::new(37);
        for m in idx.members().collect::<Vec<_>>() {
            idx.peek(m).unwrap().or_into(&mut acc);
        }
        assert_eq!(acc.count_ones(), 37);
    }
}

#[cfg(test)]
mod format_tests {
    use super::*;
    use starshare_storage::TupleLayout;

    /// Heavily clustered data: dim0 is sorted runs → run containers win.
    fn clustered_heap(n: u64) -> HeapFile {
        HeapFile::from_rows(
            FileId(0),
            TupleLayout::new(1),
            (0..n).map(|i| ([(i / (n / 4)) as u32], 1.0)),
        )
    }

    #[test]
    fn compressed_format_shrinks_clustered_indexes() {
        let heap = clustered_heap(100_000);
        let plain =
            BitmapJoinIndex::build_with_format("p", FileId(1), &heap, 0, IndexFormat::Plain, |k| k);
        let comp = BitmapJoinIndex::build_with_format(
            "c",
            FileId(2),
            &heap,
            0,
            IndexFormat::Compressed,
            |k| k,
        );
        assert_eq!(plain.format(), IndexFormat::Plain);
        assert_eq!(comp.format(), IndexFormat::Compressed);
        assert!(
            comp.total_pages() < plain.total_pages(),
            "compressed {} vs plain {}",
            comp.total_pages(),
            plain.total_pages()
        );
        assert_eq!(comp.compressed_members(), comp.n_members());
        assert!(comp.byte_size() < plain.byte_size());
        // Same logical content regardless of format.
        for m in plain.members().collect::<Vec<_>>() {
            assert_eq!(plain.peek(m), comp.peek(m));
        }
        // Lookups charge fewer pages.
        let mut pool = BufferPool::new(1024);
        comp.lookup(0, &mut pool).unwrap();
        let comp_faults = pool.stats().seq_faults;
        let mut pool2 = BufferPool::new(1024);
        plain.lookup(0, &mut pool2).unwrap();
        assert!(comp_faults < pool2.stats().seq_faults);
    }

    #[test]
    fn compressed_never_larger_than_plain() {
        // Fine-interleaved data: compression cannot win, so every member
        // falls back to plain storage and the layout matches.
        let heap = HeapFile::from_rows(
            FileId(0),
            TupleLayout::new(1),
            (0..10_000u64).map(|i| ([(i % 7) as u32], 1.0)),
        );
        let plain =
            BitmapJoinIndex::build_with_format("p", FileId(1), &heap, 0, IndexFormat::Plain, |k| k);
        let comp = BitmapJoinIndex::build_with_format(
            "c",
            FileId(2),
            &heap,
            0,
            IndexFormat::Compressed,
            |k| k,
        );
        assert!(comp.total_pages() <= plain.total_pages());
    }

    #[test]
    fn or_into_charges_identically_across_formats() {
        let heap = clustered_heap(50_000);
        let plain =
            BitmapJoinIndex::build_with_format("p", FileId(1), &heap, 0, IndexFormat::Plain, |k| k);
        let comp = BitmapJoinIndex::build_with_format(
            "c",
            FileId(2),
            &heap,
            0,
            IndexFormat::Compressed,
            |k| k,
        );
        for m in plain.members().collect::<Vec<_>>() {
            let mut acc_p = Bitmap::new(heap.n_tuples());
            let mut acc_c = Bitmap::new(heap.n_tuples());
            let wp = plain.peek(m).unwrap().or_into(&mut acc_p);
            let wc = comp.peek(m).unwrap().or_into(&mut acc_c);
            assert_eq!(wp, wc, "CPU charge must not depend on format");
            assert_eq!(acc_p, acc_c, "bits must not depend on format");
        }
    }

    #[test]
    fn extend_matches_fresh_rebuild_in_both_formats() {
        for format in [IndexFormat::Plain, IndexFormat::Compressed] {
            let full = clustered_heap(80_000);
            // Build over a truncated prefix by re-reading the first rows.
            let prefix = HeapFile::from_rows(
                FileId(0),
                TupleLayout::new(1),
                (0..60_000u64).map(|i| ([(i / 20_000) as u32], 1.0)),
            );
            let mut grown =
                BitmapJoinIndex::build_with_format("x", FileId(1), &prefix, 0, format, |k| k);
            grown.extend(&full, 0, |k| k);
            let fresh = BitmapJoinIndex::build_with_format("x", FileId(1), &full, 0, format, |k| k);
            assert_eq!(grown.n_rows(), fresh.n_rows());
            assert_eq!(grown.n_members(), fresh.n_members());
            assert_eq!(grown.total_pages(), fresh.total_pages(), "{format:?}");
            assert_eq!(grown.byte_size(), fresh.byte_size(), "{format:?}");
            for m in fresh.members().collect::<Vec<_>>() {
                assert_eq!(grown.peek(m), fresh.peek(m), "{format:?} member {m}");
                assert_eq!(grown.lookup_pages(m), fresh.lookup_pages(m));
            }
        }
    }

    /// The index build before page batches: one `read_at` per row into a
    /// `BTreeMap` of plain bitmaps, then the format's reseal and layout.
    fn build_row_at_a_time(
        heap: &HeapFile,
        dim: usize,
        format: IndexFormat,
        roll_up: impl Fn(u32) -> u32,
    ) -> BitmapJoinIndex {
        let n_rows = heap.n_tuples();
        let mut plain: BTreeMap<u32, Bitmap> = BTreeMap::new();
        let mut keys = vec![0u32; heap.layout().n_dims()];
        for pos in 0..n_rows {
            heap.read_at(pos, &mut keys);
            plain
                .entry(roll_up(keys[dim]))
                .or_insert_with(|| Bitmap::new(n_rows))
                .set(pos);
        }
        let mut idx = BitmapJoinIndex {
            name: "x".into(),
            file_id: FileId(1),
            n_rows,
            format,
            bitmaps: plain
                .into_iter()
                .map(|(m, bm)| (m, MemberSlot::Plain(bm)))
                .collect(),
            page_ranges: BTreeMap::new(),
            total_pages: 0,
        };
        idx.reseal_and_relayout();
        idx
    }

    fn assert_same_index(a: &BitmapJoinIndex, b: &BitmapJoinIndex, what: &str) {
        assert_eq!(a.n_rows, b.n_rows, "{what}: rows");
        assert_eq!(a.bitmaps, b.bitmaps, "{what}: member bitmaps and forms");
        assert_eq!(a.page_ranges, b.page_ranges, "{what}: page ranges");
        assert_eq!(a.total_pages, b.total_pages, "{what}: pages");
    }

    /// A fresh build equals the row-at-a-time oracle and an index extended
    /// in two steps as the same heap grew, in both formats: interleaved
    /// members (plain wins), clustered runs (compressed wins), a member
    /// that first appears in the last step, and members never present.
    #[test]
    fn build_equals_two_step_extend_and_row_oracle() {
        let mut rng = starshare_prng::Prng::seed_from_u64(0x1d8);
        for format in [IndexFormat::Plain, IndexFormat::Compressed] {
            for clustered in [false, true] {
                let mut heap = HeapFile::new(FileId(0), TupleLayout::new(2));
                let mut extended =
                    BitmapJoinIndex::build_with_format("x", FileId(1), &heap, 1, format, |k| k / 3);
                for (step, rows) in [(0u32, 30_000u64), (1, 25_000)] {
                    for i in 0..rows {
                        let key = match (clustered, step) {
                            (_, 1) if i % 1000 == 0 => 40,
                            (true, _) => (i / 2_000) as u32 % 12,
                            (false, _) => rng.gen_range(0..12u32) * 2,
                        };
                        heap.append(&[i as u32, key], i as f64);
                    }
                    extended.extend(&heap, 1, |k| k / 3);
                }
                let what = format!("{format:?} clustered={clustered}");
                let fresh =
                    BitmapJoinIndex::build_with_format("x", FileId(1), &heap, 1, format, |k| k / 3);
                assert!(fresh.peek(13).is_some() && fresh.peek(12).is_none());
                let oracle = build_row_at_a_time(&heap, 1, format, |k| k / 3);
                assert_same_index(&fresh, &oracle, &what);
                assert_same_index(&extended, &fresh, &what);
                if format == IndexFormat::Compressed && clustered {
                    assert!(fresh.compressed_members() > 0, "{what}");
                }
            }
        }
    }
}
