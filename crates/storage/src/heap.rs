//! Heap files: paged tables of fixed-width tuples, optionally compressed.
//!
//! A [`HeapFile`] owns its page data. Reads come in two flavours:
//!
//! * *accounted* ([`HeapFile::fetch`], [`HeapFile::scan`]) — go through a
//!   [`BufferPool`] so faults are counted and priced; operators use these;
//! * *raw* ([`HeapFile::read_at`]) — bypass accounting; loaders and tests
//!   use these.
//!
//! Tuple positions are dense `0..n_tuples` (no deletions — OLAP tables here
//! are load-once), so a position maps to a page by pure arithmetic, and the
//! bitmap join indexes in `starshare-bitmap` can use positions as bit
//! indexes, exactly like the paper's "use the tuples' position" routing.
//!
//! ## Page compression
//!
//! A compressed heap ([`HeapFile::new_compressed`] or
//! [`HeapFile::compress`]) seals each page as it fills: every dimension
//! column is stored as a constant or as bit-packed offsets from the page
//! minimum, and the measure column is stored as bit-packed quarter units.
//! Decoding is exact — a compressed heap returns bit-identical tuples to
//! its uncompressed twin. A page stays raw when packing would not shrink
//! it or when a measure lies outside the quarter-unit domain
//! ([`quarter_units`]); only direct heap users can store such measures.
//! The tail page is always raw until it fills, so a heap built compressed
//! and a heap compressed after the fact have identical page layouts.
//!
//! Accounted accesses charge the *stored* byte count of the page as
//! sequential I/O plus the same count as decompression work, so the
//! simulated clock trades saved disk bytes against decode CPU.
//!
//! ## Zone maps
//!
//! Every heap (compressed or not) maintains per-dimension min/max stored
//! keys over each [`ZONE_PAGES`]-page partition. Executors consult
//! [`HeapFile::zone_bounds`] to prune whole partitions whose key ranges
//! cannot satisfy any query before scheduling scan morsels.

use crate::batch::ScanBatch;
use crate::buffer::{AccessKind, BufferPool};
use crate::measure::{quarter_units, PARTIAL_LIMIT_UNITS};
use crate::page::{FileId, PageId, PAGE_SIZE};
use crate::tuple::TupleLayout;

/// Pages per zone-map partition.
pub const ZONE_PAGES: u32 = 128;

/// Fixed per-page header charged to a packed page's stored size.
const PACKED_HEADER_BYTES: usize = 16;

/// One dimension column of a sealed page.
#[derive(Debug, Clone)]
enum DimCol {
    /// Every tuple in the page has this key.
    Const(u32),
    /// Keys stored as `bits`-wide offsets from `base`, little-endian packed.
    Packed {
        base: u32,
        bits: u32,
        words: Box<[u64]>,
    },
}

/// The measure column of a sealed page, in quarter units:
/// value = (base + delta) / 4.
#[derive(Debug, Clone)]
struct MeasureCol {
    base: i64,
    bits: u32,
    words: Box<[u64]>,
}

/// A sealed (compressed) page: per-column packed data plus its simulated
/// on-disk size.
#[derive(Debug, Clone)]
struct PackedPage {
    n: usize,
    dims: Vec<DimCol>,
    measure: MeasureCol,
    stored_bytes: u32,
}

/// Physical representation of one page.
#[derive(Debug, Clone)]
enum PageRepr {
    Raw(Box<[u8]>),
    Packed(PackedPage),
}

/// Packs `n` values (each `< 2^bits`) little-endian into 64-bit words, with
/// one trailing padding word so unaligned reads may always touch two words.
fn pack_words(values: impl Iterator<Item = u64>, n: usize, bits: u32) -> Box<[u64]> {
    let n_words = (n * bits as usize).div_ceil(64) + 1;
    let mut words = vec![0u64; n_words];
    for (i, v) in values.enumerate() {
        let bitpos = i * bits as usize;
        let (w, o) = (bitpos / 64, bitpos % 64);
        words[w] |= v << o;
        if o + bits as usize > 64 {
            words[w + 1] |= v >> (64 - o);
        }
    }
    words.into_boxed_slice()
}

/// Reads value `i` from a [`pack_words`] buffer. `1 <= bits <= 64`.
#[inline]
fn unpack_word(words: &[u64], bits: u32, i: usize) -> u64 {
    let bitpos = i * bits as usize;
    let (w, o) = (bitpos / 64, bitpos % 64);
    let mask = if bits == 64 { !0 } else { (1u64 << bits) - 1 };
    let lo = words[w] >> o;
    let v = if o + bits as usize > 64 {
        lo | (words[w + 1] << (64 - o))
    } else {
        lo
    };
    v & mask
}

/// Bit width of `range` (which is `>= 1`).
fn bits_for(range: u64) -> u32 {
    64 - range.leading_zeros()
}

impl PackedPage {
    /// Dimension `d`'s key in page slot `slot`.
    #[inline]
    fn key(&self, d: usize, slot: usize) -> u32 {
        match &self.dims[d] {
            DimCol::Const(v) => *v,
            DimCol::Packed { base, bits, words } => base + unpack_word(words, *bits, slot) as u32,
        }
    }

    /// The measure in page slot `slot` — bit-identical to what was sealed.
    #[inline]
    fn measure(&self, slot: usize) -> f64 {
        let MeasureCol { base, bits, words } = &self.measure;
        let delta = if *bits == 0 {
            0
        } else {
            unpack_word(words, *bits, slot) as i64
        };
        (base + delta) as f64 / 4.0
    }
}

/// Packs every measure as quarter units, or `None` when one lies outside
/// the domain of stored aggregates.
fn quantize_measures(ms: &[f64]) -> Option<MeasureCol> {
    let qs = ms
        .iter()
        .map(|&m| quarter_units(m, PARTIAL_LIMIT_UNITS))
        .collect::<Option<Vec<i64>>>()?;
    let base = *qs.iter().min()?;
    let range = (*qs.iter().max()? - base) as u64;
    let bits = if range == 0 { 0 } else { bits_for(range) };
    let words = pack_words(qs.iter().map(|&q| (q - base) as u64), qs.len(), bits);
    Some(MeasureCol { base, bits, words })
}

/// Seals `n` tuples of raw page bytes into a [`PackedPage`], or `None` when
/// a measure lies outside the quarter-unit domain or the packed form would
/// not be smaller than the raw page.
fn seal_page(layout: &TupleLayout, bytes: &[u8], n: usize) -> Option<PackedPage> {
    let rec = layout.record_size();
    let mut stored = PACKED_HEADER_BYTES;
    let mut dims = Vec::with_capacity(layout.n_dims());
    let mut col = Vec::with_capacity(n);
    for d in 0..layout.n_dims() {
        col.clear();
        let mut off = d * 4;
        for _ in 0..n {
            col.push(u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()));
            off += rec;
        }
        let min = *col.iter().min().expect("page has tuples");
        let max = *col.iter().max().expect("page has tuples");
        if min == max {
            stored += 8;
            dims.push(DimCol::Const(min));
        } else {
            let bits = bits_for((max - min) as u64);
            stored += 12 + (n * bits as usize).div_ceil(8);
            let words = pack_words(col.iter().map(|&v| (v - min) as u64), n, bits);
            dims.push(DimCol::Packed {
                base: min,
                bits,
                words,
            });
        }
    }
    let mut measures = Vec::with_capacity(n);
    let mut off = layout.n_dims() * 4;
    for _ in 0..n {
        measures.push(f64::from_le_bytes(bytes[off..off + 8].try_into().unwrap()));
        off += rec;
    }
    let measure = quantize_measures(&measures)?;
    stored += 16 + (n * measure.bits as usize).div_ceil(8);
    if stored >= PAGE_SIZE {
        return None;
    }
    Some(PackedPage {
        n,
        dims,
        measure,
        stored_bytes: stored as u32,
    })
}

/// A paged, append-only table of fixed-width tuples.
#[derive(Debug, Clone)]
pub struct HeapFile {
    file_id: FileId,
    layout: TupleLayout,
    pages: Vec<PageRepr>,
    n_tuples: u64,
    compressed: bool,
    /// Per-zone, per-dimension `(min, max)` stored keys.
    zones: Vec<Vec<(u32, u32)>>,
}

impl HeapFile {
    /// Creates an empty heap file.
    pub fn new(file_id: FileId, layout: TupleLayout) -> Self {
        HeapFile {
            file_id,
            layout,
            pages: Vec::new(),
            n_tuples: 0,
            compressed: false,
            zones: Vec::new(),
        }
    }

    /// Creates an empty heap file that seals each page as it fills.
    pub fn new_compressed(file_id: FileId, layout: TupleLayout) -> Self {
        let mut h = Self::new(file_id, layout);
        h.compressed = true;
        h
    }

    /// Builds a heap file from an iterator of `(keys, measure)` rows.
    ///
    /// # Panics
    /// Panics if any row's key count differs from the layout's.
    pub fn from_rows<I, K>(file_id: FileId, layout: TupleLayout, rows: I) -> Self
    where
        I: IntoIterator<Item = (K, f64)>,
        K: AsRef<[u32]>,
    {
        let mut h = Self::new(file_id, layout);
        for (keys, measure) in rows {
            h.append(keys.as_ref(), measure);
        }
        h
    }

    /// Like [`from_rows`](Self::from_rows) but sealing pages as they fill,
    /// so a raw copy of the table never has to be resident.
    pub fn from_rows_compressed<I, K>(file_id: FileId, layout: TupleLayout, rows: I) -> Self
    where
        I: IntoIterator<Item = (K, f64)>,
        K: AsRef<[u32]>,
    {
        let mut h = Self::new_compressed(file_id, layout);
        for (keys, measure) in rows {
            h.append(keys.as_ref(), measure);
        }
        h
    }

    /// The file's id (key used by the buffer pool).
    pub fn file_id(&self) -> FileId {
        self.file_id
    }

    /// The tuple layout.
    pub fn layout(&self) -> TupleLayout {
        self.layout
    }

    /// Number of tuples stored.
    pub fn n_tuples(&self) -> u64 {
        self.n_tuples
    }

    /// Number of pages occupied.
    pub fn page_count(&self) -> u32 {
        self.pages.len() as u32
    }

    /// Which page holds tuple `pos`.
    pub fn page_of(&self, pos: u64) -> PageId {
        (pos / self.layout.tuples_per_page() as u64) as PageId
    }

    /// True when this heap seals pages as they fill.
    pub fn is_compressed(&self) -> bool {
        self.compressed
    }

    /// Turns page sealing on and seals every already-full page, leaving the
    /// partial tail raw. A heap compressed after loading has page layouts
    /// identical to one built with [`new_compressed`](Self::new_compressed)
    /// from the same rows.
    pub fn compress(&mut self) {
        self.compressed = true;
        let per_page = self.layout.tuples_per_page() as u64;
        let full_pages = (self.n_tuples / per_page) as usize;
        for idx in 0..full_pages {
            self.seal_at(idx);
        }
    }

    /// Simulated I/O cost of faulting in `page`: `(io_bytes,
    /// decompress_bytes)`. Raw pages transfer a full [`PAGE_SIZE`] and need
    /// no decoding; sealed pages transfer and decode their stored size.
    pub fn page_cost(&self, page: PageId) -> (u64, u64) {
        match &self.pages[page as usize] {
            PageRepr::Raw(_) => (PAGE_SIZE as u64, 0),
            PageRepr::Packed(p) => (p.stored_bytes as u64, p.stored_bytes as u64),
        }
    }

    /// Total simulated resident footprint of the table's pages: stored size
    /// for sealed pages, [`PAGE_SIZE`] for raw ones.
    pub fn resident_bytes(&self) -> u64 {
        self.pages
            .iter()
            .map(|p| match p {
                PageRepr::Raw(_) => PAGE_SIZE as u64,
                PageRepr::Packed(pk) => pk.stored_bytes as u64,
            })
            .sum()
    }

    /// Number of zone-map partitions (`page_count` / [`ZONE_PAGES`],
    /// rounded up).
    pub fn zone_count(&self) -> u32 {
        self.zones.len() as u32
    }

    /// `(min, max)` stored key of dimension `dim` over zone `zone`.
    ///
    /// # Panics
    /// Panics if `zone >= zone_count()` or `dim >= n_dims`.
    pub fn zone_bounds(&self, zone: u32, dim: usize) -> (u32, u32) {
        self.zones[zone as usize][dim]
    }

    /// Tuple positions `[start, end)` covered by zone `zone` (end clamped
    /// to the table).
    pub fn zone_tuple_range(&self, zone: u32) -> (u64, u64) {
        let per_zone = self.layout.tuples_per_page() as u64 * ZONE_PAGES as u64;
        let start = zone as u64 * per_zone;
        (
            start.min(self.n_tuples),
            (start + per_zone).min(self.n_tuples),
        )
    }

    /// Appends one tuple.
    pub fn append(&mut self, keys: &[u32], measure: f64) {
        let per_page = self.layout.tuples_per_page() as u64;
        let slot = (self.n_tuples % per_page) as usize;
        if slot == 0 {
            self.pages
                .push(PageRepr::Raw(vec![0u8; PAGE_SIZE].into_boxed_slice()));
        }
        let page_idx = self.pages.len() - 1;
        let PageRepr::Raw(page) = &mut self.pages[page_idx] else {
            unreachable!("tail page is always raw");
        };
        let off = slot * self.layout.record_size();
        self.layout.encode(
            keys,
            measure,
            &mut page[off..off + self.layout.record_size()],
        );
        self.n_tuples += 1;
        if self.compressed && self.n_tuples.is_multiple_of(per_page) {
            self.seal_at(page_idx);
        }

        let zone = page_idx / ZONE_PAGES as usize;
        if self.zones.len() <= zone {
            self.zones.push(vec![(u32::MAX, 0); self.layout.n_dims()]);
        }
        for (d, &k) in keys.iter().enumerate() {
            let (lo, hi) = &mut self.zones[zone][d];
            *lo = (*lo).min(k);
            *hi = (*hi).max(k);
        }
    }

    /// Seals page `idx` if it is raw and packing shrinks it.
    fn seal_at(&mut self, idx: usize) {
        let n = self.tuples_in_page(idx);
        if let PageRepr::Raw(bytes) = &self.pages[idx] {
            if let Some(packed) = seal_page(&self.layout, bytes, n) {
                self.pages[idx] = PageRepr::Packed(packed);
            }
        }
    }

    /// Tuples held by page `idx` (the last page may be partial).
    fn tuples_in_page(&self, idx: usize) -> usize {
        let per_page = self.layout.tuples_per_page() as u64;
        (self.n_tuples - idx as u64 * per_page).min(per_page) as usize
    }

    /// Overwrites the measures of the tuples at the given positions in place
    /// (keys unchanged). Used by incremental view maintenance; unaccounted,
    /// like all load-time mutation. Updates are applied page by page in
    /// position order: a sealed page is decoded once, patched with every
    /// update it holds, and resealed once, so the result is identical to a
    /// fresh build of the updated rows. When a position repeats, its last
    /// update wins.
    ///
    /// # Panics
    /// Panics if any position is `>= n_tuples()`.
    pub fn update_measures(&mut self, updates: &[(u64, f64)]) {
        let mut order: Vec<&(u64, f64)> = updates.iter().collect();
        order.sort_by_key(|&&(pos, _)| pos);
        let per_page = self.layout.tuples_per_page() as u64;
        let rec = self.layout.record_size();
        let moff = self.layout.n_dims() * 4;
        for run in order.chunk_by(|a, b| a.0 / per_page == b.0 / per_page) {
            let (first, last) = (run[0].0, run[run.len() - 1].0);
            assert!(last < self.n_tuples, "tuple position out of range");
            let page_idx = (first / per_page) as usize;
            let sealed = matches!(self.pages[page_idx], PageRepr::Packed(_));
            if sealed {
                self.pages[page_idx] = PageRepr::Raw(self.unseal(page_idx));
            }
            let PageRepr::Raw(page) = &mut self.pages[page_idx] else {
                unreachable!("page was just unsealed");
            };
            for &&(pos, measure) in run {
                let off = (pos % per_page) as usize * rec + moff;
                page[off..off + 8].copy_from_slice(&measure.to_le_bytes());
            }
            if sealed {
                self.seal_at(page_idx);
            }
        }
    }

    /// Decodes sealed page `idx` back into raw page bytes.
    fn unseal(&self, idx: usize) -> Box<[u8]> {
        let PageRepr::Packed(p) = &self.pages[idx] else {
            unreachable!("unseal called on a raw page");
        };
        let n = p.n;
        let mut bytes = vec![0u8; PAGE_SIZE].into_boxed_slice();
        let mut keys = vec![0u32; self.layout.n_dims()];
        for slot in 0..n {
            for (d, k) in keys.iter_mut().enumerate() {
                *k = p.key(d, slot);
            }
            let off = slot * self.layout.record_size();
            self.layout.encode(
                &keys,
                p.measure(slot),
                &mut bytes[off..off + self.layout.record_size()],
            );
        }
        bytes
    }

    /// Raw (unaccounted) read of tuple `pos`. Returns the measure and fills
    /// `keys_out`.
    ///
    /// # Panics
    /// Panics if `pos >= n_tuples()`.
    pub fn read_at(&self, pos: u64, keys_out: &mut [u32]) -> f64 {
        assert!(pos < self.n_tuples, "tuple position out of range");
        let (page_idx, slot) = self.locate(pos);
        match &self.pages[page_idx] {
            PageRepr::Raw(page) => {
                let off = slot * self.layout.record_size();
                self.layout
                    .decode(&page[off..off + self.layout.record_size()], keys_out)
            }
            PageRepr::Packed(p) => {
                for (d, k) in keys_out.iter_mut().enumerate() {
                    *k = p.key(d, slot);
                }
                p.measure(slot)
            }
        }
    }

    /// Starts an accounted sequential scan.
    pub fn scan(&self) -> ScanCursor<'_> {
        self.scan_range(0, self.n_tuples)
    }

    /// Starts an accounted sequential scan over tuple positions
    /// `start..end` (clamped to the table). Partitioned execution hands each
    /// worker a page-aligned range so partitions touch disjoint pages.
    pub fn scan_range(&self, start: u64, end: u64) -> ScanCursor<'_> {
        let end = end.min(self.n_tuples);
        ScanCursor {
            heap: self,
            pos: start.min(end),
            end,
            touched_page: None,
        }
    }

    /// Starts an accounted page-batched scan over tuple positions
    /// `start..end` (clamped to the table). Each [`BatchCursor::next_into`]
    /// call decodes the rest of one page into a columnar [`ScanBatch`] and
    /// charges exactly one sequential access for it — the same accesses, in
    /// the same order, as [`scan_range`](Self::scan_range) over the same
    /// positions, so `IoStats` are identical between the two paths.
    pub fn scan_batches(&self, start: u64, end: u64) -> BatchCursor<'_> {
        let end = end.min(self.n_tuples);
        BatchCursor {
            heap: self,
            pos: start.min(end),
            end,
        }
    }

    fn locate(&self, pos: u64) -> (usize, usize) {
        let per_page = self.layout.tuples_per_page() as u64;
        ((pos / per_page) as usize, (pos % per_page) as usize)
    }
}

/// Cursor over a heap file that charges one sequential page access per page
/// crossed.
#[derive(Debug)]
pub struct ScanCursor<'a> {
    heap: &'a HeapFile,
    pos: u64,
    end: u64,
    touched_page: Option<PageId>,
}

impl<'a> ScanCursor<'a> {
    /// Reads the next tuple into `keys_out`; returns the measure, or `None`
    /// at end of table. The tuple's position is written to `pos_out`.
    pub fn next_into(
        &mut self,
        pool: &mut BufferPool,
        keys_out: &mut [u32],
        pos_out: &mut u64,
    ) -> Option<f64> {
        if self.pos >= self.end {
            return None;
        }
        let page = self.heap.page_of(self.pos);
        if self.touched_page != Some(page) {
            let (io, dec) = self.heap.page_cost(page);
            pool.access_sized(self.heap.file_id, page, AccessKind::Sequential, io, dec);
            self.touched_page = Some(page);
        }
        *pos_out = self.pos;
        let m = self.heap.read_at(self.pos, keys_out);
        self.pos += 1;
        Some(m)
    }

    /// Tuples remaining.
    pub fn remaining(&self) -> u64 {
        self.end - self.pos
    }
}

/// Cursor over a heap file that decodes one page per step into a columnar
/// [`ScanBatch`], charging one sequential page access per batch.
#[derive(Debug)]
pub struct BatchCursor<'a> {
    heap: &'a HeapFile,
    pos: u64,
    end: u64,
}

impl<'a> BatchCursor<'a> {
    /// Fills `batch` with the tuples from the current position to the end of
    /// its page (or the scan's end, whichever is first), charging the page's
    /// sequential access to `pool`. Returns `false` at end of range, leaving
    /// `batch` untouched.
    pub fn next_into(&mut self, pool: &mut BufferPool, batch: &mut ScanBatch) -> bool {
        if self.pos >= self.end {
            return false;
        }
        let page = self.heap.page_of(self.pos);
        let (io, dec) = self.heap.page_cost(page);
        pool.access_sized(self.heap.file_id, page, AccessKind::Sequential, io, dec);
        self.read_next(batch)
    }

    /// [`next_into`](Self::next_into) without the pool: decodes the same
    /// tuples and advances the same way, but charges nothing — for callers
    /// that account for the page access themselves.
    pub fn read_next(&mut self, batch: &mut ScanBatch) -> bool {
        if self.pos >= self.end {
            return false;
        }
        let page = self.heap.page_of(self.pos);
        let per_page = self.heap.layout.tuples_per_page() as u64;
        let page_end = (page as u64 + 1) * per_page;
        let batch_end = self.end.min(page_end);
        let first_slot = (self.pos % per_page) as usize;
        let n = (batch_end - self.pos) as usize;
        match &self.heap.pages[page as usize] {
            PageRepr::Raw(bytes) => {
                batch.fill(&self.heap.layout, bytes, first_slot, n, self.pos);
            }
            PageRepr::Packed(p) => {
                batch.fill_with(
                    n,
                    self.pos,
                    |d, i| p.key(d, first_slot + i),
                    |i| p.measure(first_slot + i),
                );
            }
        }
        self.pos = batch_end;
        true
    }

    /// Tuples remaining.
    pub fn remaining(&self) -> u64 {
        self.end - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_heap(n: u64) -> HeapFile {
        let layout = TupleLayout::new(2);
        HeapFile::from_rows(
            FileId(0),
            layout,
            (0..n).map(|i| ([i as u32, (i * 2) as u32], i as f64)),
        )
    }

    #[test]
    fn append_and_read_back() {
        let h = small_heap(10);
        assert_eq!(h.n_tuples(), 10);
        let mut keys = [0u32; 2];
        for i in 0..10u64 {
            let m = h.read_at(i, &mut keys);
            assert_eq!(keys, [i as u32, (i * 2) as u32]);
            assert_eq!(m, i as f64);
        }
    }

    #[test]
    fn page_count_grows_with_tuples() {
        let layout = TupleLayout::new(2);
        let per_page = layout.tuples_per_page() as u64;
        let h = small_heap(per_page);
        assert_eq!(h.page_count(), 1);
        let h2 = small_heap(per_page + 1);
        assert_eq!(h2.page_count(), 2);
        assert_eq!(h2.page_of(per_page), 1);
        assert_eq!(h2.page_of(per_page - 1), 0);
    }

    #[test]
    fn scan_charges_one_seq_access_per_page() {
        let layout = TupleLayout::new(2);
        let per_page = layout.tuples_per_page() as u64;
        let n = per_page * 3 + 5;
        let h = small_heap(n);
        let mut pool = BufferPool::new(100);
        let mut cursor = h.scan();
        let mut keys = [0u32; 2];
        let mut pos = 0u64;
        let mut count = 0u64;
        let mut sum = 0.0;
        while let Some(m) = cursor.next_into(&mut pool, &mut keys, &mut pos) {
            assert_eq!(pos, count);
            sum += m;
            count += 1;
        }
        assert_eq!(count, n);
        assert_eq!(sum, (n * (n - 1) / 2) as f64);
        assert_eq!(pool.stats().accesses(), 4); // 4 pages, touched once each
        assert_eq!(pool.stats().seq_faults, 4);
        assert_eq!(pool.stats().seq_bytes, 4 * PAGE_SIZE as u64);
        assert_eq!(pool.stats().decompress_bytes, 0);
    }

    #[test]
    fn scan_range_covers_exactly_its_tuples() {
        let layout = TupleLayout::new(2);
        let per_page = layout.tuples_per_page() as u64;
        let n = per_page * 4;
        let h = small_heap(n);
        // Page-aligned halves partition the scan: same tuples, same pages,
        // no page touched by both halves.
        let mid = per_page * 2;
        let mut seen = Vec::new();
        let mut total_faults = 0;
        for (lo, hi) in [(0, mid), (mid, n)] {
            let mut pool = BufferPool::new(100);
            let mut cursor = h.scan_range(lo, hi);
            assert_eq!(cursor.remaining(), hi - lo);
            let mut keys = [0u32; 2];
            let mut pos = 0u64;
            while cursor.next_into(&mut pool, &mut keys, &mut pos).is_some() {
                seen.push(pos);
            }
            total_faults += pool.stats().seq_faults;
        }
        assert_eq!(seen, (0..n).collect::<Vec<_>>());
        assert_eq!(total_faults, 4, "each page faulted exactly once overall");
        // Out-of-range bounds clamp.
        let mut pool = BufferPool::new(10);
        let mut cursor = h.scan_range(n + 5, n + 9);
        let mut keys = [0u32; 2];
        let mut pos = 0u64;
        assert!(cursor.next_into(&mut pool, &mut keys, &mut pos).is_none());
    }

    #[test]
    fn read_next_decodes_like_next_into_but_charges_nothing() {
        let h = small_heap(1_000);
        let mut pool = BufferPool::new(100);
        let mut charged = h.scan_batches(10, 900);
        let mut free = h.scan_batches(10, 900);
        let mut a = ScanBatch::new(h.layout());
        let mut b = ScanBatch::new(h.layout());
        let mut batches = 0;
        while charged.next_into(&mut pool, &mut a) {
            assert!(free.read_next(&mut b));
            assert_eq!(a.len(), b.len());
            for i in 0..a.len() {
                assert_eq!(a.pos(i), b.pos(i));
                assert_eq!(a.key(0, i), b.key(0, i));
                assert_eq!(a.measure(i).to_bits(), b.measure(i).to_bits());
            }
            batches += 1;
        }
        assert!(!free.read_next(&mut b), "both cursors end together");
        assert_eq!(
            pool.stats().seq_faults,
            batches,
            "next_into charges each page"
        );
    }

    #[test]
    fn empty_scan_touches_nothing() {
        let h = HeapFile::new(FileId(9), TupleLayout::new(1));
        let mut pool = BufferPool::new(10);
        let mut cursor = h.scan();
        let mut keys = [0u32; 1];
        let mut pos = 0u64;
        assert!(cursor.next_into(&mut pool, &mut keys, &mut pos).is_none());
        assert_eq!(pool.stats().accesses(), 0);
    }

    #[test]
    fn scan_remaining_counts_down() {
        let h = small_heap(3);
        let mut pool = BufferPool::new(10);
        let mut cursor = h.scan();
        assert_eq!(cursor.remaining(), 3);
        let mut keys = [0u32; 2];
        let mut pos = 0u64;
        cursor.next_into(&mut pool, &mut keys, &mut pos);
        assert_eq!(cursor.remaining(), 2);
    }

    #[test]
    fn batch_scan_matches_cursor_scan_exactly() {
        let layout = TupleLayout::new(2);
        let per_page = layout.tuples_per_page() as u64;
        let n = per_page * 3 + 5;
        for compressed in [false, true] {
            let mut h = small_heap(n);
            if compressed {
                h.compress();
            }
            // Ranges: full table, page-aligned slice, unaligned slice, clamped.
            for (lo, hi) in [
                (0, n),
                (per_page, per_page * 2),
                (per_page / 2, per_page * 2 + 3),
                (0, n + 100),
            ] {
                let mut cur_pool = BufferPool::new(100);
                let mut cursor = h.scan_range(lo, hi);
                let mut keys = [0u32; 2];
                let mut pos = 0u64;
                let mut expected = Vec::new();
                while let Some(m) = cursor.next_into(&mut cur_pool, &mut keys, &mut pos) {
                    expected.push((pos, keys.to_vec(), m));
                }

                let mut batch_pool = BufferPool::new(100);
                let mut batches = h.scan_batches(lo, hi);
                assert_eq!(batches.remaining(), hi.min(n) - lo.min(n));
                let mut batch = ScanBatch::new(layout);
                let mut got = Vec::new();
                while batches.next_into(&mut batch_pool, &mut batch) {
                    for i in 0..batch.len() {
                        let k = vec![batch.key(0, i), batch.key(1, i)];
                        got.push((batch.pos(i), k, batch.measure(i)));
                    }
                }
                assert_eq!(got, expected, "tuples differ for range {lo}..{hi}");
                assert_eq!(
                    batch_pool.stats(),
                    cur_pool.stats(),
                    "I/O accounting differs for range {lo}..{hi}"
                );
            }
        }
    }

    #[test]
    fn batch_scan_empty_range_touches_nothing() {
        let h = small_heap(10);
        let mut pool = BufferPool::new(10);
        let mut batches = h.scan_batches(10, 10);
        let mut batch = ScanBatch::new(h.layout());
        assert!(!batches.next_into(&mut pool, &mut batch));
        assert_eq!(pool.stats().accesses(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn read_past_end_panics() {
        let h = small_heap(1);
        let mut keys = [0u32; 2];
        h.read_at(1, &mut keys);
    }

    // ---- compression ----

    /// Quarter units on every page but page 1, which mixes in adversarial
    /// measures outside the domain: values that don't quantize, negative
    /// zero, non-finite floats and magnitudes past any partial aggregate.
    fn tricky_measure(i: u64, per_page: u64) -> f64 {
        if i / per_page != 1 {
            return (i % 400) as f64 * 0.25 - 50.0;
        }
        match i % 7 {
            0 => i as f64,
            1 => i as f64 + 0.25,
            2 => i as f64 + 0.1, // does not quantize
            3 => -(i as f64) - 0.75,
            4 => -0.0,
            5 => f64::INFINITY,
            _ => (i as f64) * 1e15,
        }
    }

    #[test]
    fn compressed_heap_reads_back_bit_identically() {
        let layout = TupleLayout::new(3);
        let per_page = layout.tuples_per_page() as u64;
        let n = per_page * 5 + 17;
        let rows: Vec<([u32; 3], f64)> = (0..n)
            .map(|i| {
                (
                    [(i / 50) as u32, 7, (i % 3) as u32 + 1000],
                    tricky_measure(i, per_page),
                )
            })
            .collect();
        let plain = HeapFile::from_rows(FileId(0), layout, rows.iter().cloned());
        let comp = HeapFile::from_rows_compressed(FileId(0), layout, rows.iter().cloned());
        assert!(comp.is_compressed());
        assert_eq!(comp.n_tuples(), plain.n_tuples());
        let mut ka = [0u32; 3];
        let mut kb = [0u32; 3];
        for pos in 0..n {
            let ma = plain.read_at(pos, &mut ka);
            let mb = comp.read_at(pos, &mut kb);
            assert_eq!(ka, kb, "keys differ at {pos}");
            assert_eq!(ma.to_bits(), mb.to_bits(), "measure differs at {pos}");
        }
        // In-domain full pages shrank; page 1 (measures outside the
        // domain) and the partial tail stay raw at full size.
        assert!(comp.resident_bytes() < plain.resident_bytes());
        let last = comp.page_count() - 1;
        assert_eq!(comp.page_cost(last), (PAGE_SIZE as u64, 0));
        assert_eq!(comp.page_cost(1), (PAGE_SIZE as u64, 0));
        let (io, dec) = comp.page_cost(0);
        assert!(io < PAGE_SIZE as u64);
        assert_eq!(io, dec);
    }

    #[test]
    fn compress_after_load_matches_compressed_from_start() {
        let layout = TupleLayout::new(2);
        let per_page = layout.tuples_per_page() as u64;
        let n = per_page * 3 + 9;
        let rows: Vec<([u32; 2], f64)> = (0..n)
            .map(|i| {
                (
                    [(i % 17) as u32, (i / 64) as u32],
                    tricky_measure(i, per_page),
                )
            })
            .collect();
        let mut late = HeapFile::from_rows(FileId(1), layout, rows.iter().cloned());
        late.compress();
        let early = HeapFile::from_rows_compressed(FileId(1), layout, rows.iter().cloned());
        assert_eq!(late.resident_bytes(), early.resident_bytes());
        for page in 0..late.page_count() {
            assert_eq!(late.page_cost(page), early.page_cost(page), "page {page}");
        }
    }

    #[test]
    fn incompressible_page_stays_raw() {
        // Full-range keys and unquantizable measures: packing cannot win.
        let layout = TupleLayout::new(2);
        let per_page = layout.tuples_per_page() as u64;
        let mut x = 0x9e3779b97f4a7c15u64;
        let rows: Vec<([u32; 2], f64)> = (0..per_page)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ([x as u32, (x >> 32) as u32], (x as f64) * 1e-7 + 0.1)
            })
            .collect();
        let h = HeapFile::from_rows_compressed(FileId(2), layout, rows.iter().cloned());
        assert_eq!(h.page_cost(0), (PAGE_SIZE as u64, 0));
        assert_eq!(h.resident_bytes(), PAGE_SIZE as u64);
        let mut keys = [0u32; 2];
        for (pos, (k, m)) in rows.iter().enumerate() {
            let got = h.read_at(pos as u64, &mut keys);
            assert_eq!(&keys, k);
            assert_eq!(got.to_bits(), m.to_bits());
        }
    }

    #[test]
    fn update_measures_reseal_identically_to_fresh_build() {
        let layout = TupleLayout::new(2);
        let per_page = layout.tuples_per_page() as u64;
        let n = per_page * 2 + 3; // two sealed pages and a raw tail
        let rows: Vec<([u32; 2], f64)> = (0..n).map(|i| ([(i % 5) as u32, 3], i as f64)).collect();
        let mut h = HeapFile::from_rows_compressed(FileId(3), layout, rows.iter().cloned());
        // Unsorted, spanning every page, with one position updated twice
        // (the last update wins); page 1 gets an unquantizable measure, so
        // it falls back to raw.
        let updates = [
            (per_page + 1, 0.1),
            (7, 99.0),
            (n - 1, 4.25),
            (3, 8.5),
            (7, 123.5),
            (per_page + 2, 6.0),
        ];
        h.update_measures(&updates);
        let mut updated = rows.clone();
        for &(pos, m) in &updates {
            updated[pos as usize].1 = m;
        }
        let fresh = HeapFile::from_rows_compressed(FileId(3), layout, updated.iter().cloned());
        assert_eq!(h.resident_bytes(), fresh.resident_bytes());
        for page in 0..h.page_count() {
            assert_eq!(h.page_cost(page), fresh.page_cost(page), "page {page}");
        }
        // Page 0 took only quarter-unit measures: it stays packed.
        assert!(
            h.page_cost(0).1 > 0,
            "an updated packed page must stay packed"
        );
        assert_eq!(h.page_cost(1), (PAGE_SIZE as u64, 0));
        let mut ka = [0u32; 2];
        let mut kb = [0u32; 2];
        for pos in 0..n {
            let ma = h.read_at(pos, &mut ka);
            let mb = fresh.read_at(pos, &mut kb);
            assert_eq!(ka, kb);
            assert_eq!(ma.to_bits(), mb.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "tuple position out of range")]
    fn update_measures_rejects_positions_past_the_end() {
        let mut h = small_heap(10);
        h.update_measures(&[(10, 1.0)]);
    }

    #[test]
    fn compressed_scan_charges_fewer_bytes_same_faults() {
        let layout = TupleLayout::new(2);
        let per_page = layout.tuples_per_page() as u64;
        let n = per_page * 4;
        let rows: Vec<([u32; 2], f64)> = (0..n)
            .map(|i| ([(i % 8) as u32, (i / 100) as u32], (i % 50) as f64))
            .collect();
        let plain = HeapFile::from_rows(FileId(4), layout, rows.iter().cloned());
        let comp = HeapFile::from_rows_compressed(FileId(4), layout, rows.iter().cloned());

        let run = |h: &HeapFile| {
            let mut pool = BufferPool::new(100);
            let mut cursor = h.scan();
            let mut keys = [0u32; 2];
            let mut pos = 0u64;
            let mut sum = 0.0;
            while let Some(m) = cursor.next_into(&mut pool, &mut keys, &mut pos) {
                sum += m;
            }
            (sum, pool.stats())
        };
        let (sum_p, st_p) = run(&plain);
        let (sum_c, st_c) = run(&comp);
        assert_eq!(sum_p.to_bits(), sum_c.to_bits());
        assert_eq!(st_p.seq_faults, st_c.seq_faults);
        assert!(st_c.seq_bytes < st_p.seq_bytes);
        assert_eq!(st_c.decompress_bytes, st_c.seq_bytes);
        assert_eq!(st_p.decompress_bytes, 0);
    }

    #[test]
    fn zone_maps_track_per_dimension_bounds() {
        let layout = TupleLayout::new(2);
        let per_page = layout.tuples_per_page() as u64;
        let per_zone = per_page * ZONE_PAGES as u64;
        // Two zones: dim 0 is clustered (zone-distinguishing), dim 1 is not.
        let n = per_zone + per_page * 3;
        let rows = (0..n).map(|i| {
            let zone = i / per_zone;
            ([zone as u32 * 100 + (i % 10) as u32, (i % 7) as u32], 1.0)
        });
        let h = HeapFile::from_rows(FileId(5), layout, rows);
        assert_eq!(h.zone_count(), 2);
        assert_eq!(h.zone_bounds(0, 0), (0, 9));
        assert_eq!(h.zone_bounds(1, 0), (100, 109));
        assert_eq!(h.zone_bounds(0, 1), (0, 6));
        assert_eq!(h.zone_tuple_range(0), (0, per_zone));
        assert_eq!(h.zone_tuple_range(1), (per_zone, n));
        // Bounds are identical on the compressed twin.
        let rows2 = (0..n).map(|i| {
            let zone = i / per_zone;
            ([zone as u32 * 100 + (i % 10) as u32, (i % 7) as u32], 1.0)
        });
        let hc = HeapFile::from_rows_compressed(FileId(5), layout, rows2);
        for z in 0..h.zone_count() {
            for d in 0..2 {
                assert_eq!(h.zone_bounds(z, d), hc.zone_bounds(z, d));
            }
        }
    }

    #[test]
    fn compression_achieves_large_ratio_on_clustered_data() {
        // Dashboard-style facts: small per-page key ranges, integer measures.
        let layout = TupleLayout::new(4);
        let per_page = layout.tuples_per_page() as u64;
        let n = per_page * 16;
        let rows = (0..n).map(|i| {
            (
                [
                    (i / 1000) as u32,
                    (i % 12) as u32,
                    ((i / 7) % 30) as u32,
                    2024,
                ],
                (i % 1000) as f64,
            )
        });
        let h = HeapFile::from_rows_compressed(FileId(6), layout, rows);
        let raw = h.page_count() as u64 * PAGE_SIZE as u64;
        assert!(
            h.resident_bytes() * 4 <= raw,
            "expected >=4x: {} vs {}",
            h.resident_bytes(),
            raw
        );
    }
}
