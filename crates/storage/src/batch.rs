//! Page-batched, columnar tuple decoding.
//!
//! The operators' inner loop used to decode tuples one at a time into a
//! caller-provided key slice. A [`ScanBatch`] instead decodes a whole
//! page's worth of tuples in one pass — column by column, into reusable
//! `Vec`s — so the per-tuple work left in the aggregation loop is pure
//! arithmetic on dense arrays. Batches are filled by
//! [`HeapFile::scan_batches`](crate::HeapFile::scan_batches), which charges
//! exactly the same buffer-pool accesses as the tuple-at-a-time
//! [`ScanCursor`](crate::ScanCursor): one sequential access per page
//! touched. Batching changes wall-clock time only, never the simulated
//! clock.

use crate::tuple::TupleLayout;

/// A reusable columnar buffer holding the decoded tuples of (at most) one
/// page: one `u32` column per dimension plus the measure column.
///
/// Positions are dense: the tuple in row `i` of the batch sits at heap
/// position [`base_pos`](Self::base_pos)` + i`.
#[derive(Debug, Clone)]
pub struct ScanBatch {
    /// One column per dimension, each `len` entries.
    cols: Vec<Vec<u32>>,
    /// The measure column, `len` entries.
    measures: Vec<f64>,
    /// Heap position of row 0.
    base_pos: u64,
    /// Rows currently held.
    len: usize,
}

impl ScanBatch {
    /// An empty batch shaped for `layout` (capacity grows on first fill).
    pub fn new(layout: TupleLayout) -> Self {
        ScanBatch {
            cols: vec![Vec::new(); layout.n_dims()],
            measures: Vec::new(),
            base_pos: 0,
            len: 0,
        }
    }

    /// Rows currently held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Heap position of row 0.
    pub fn base_pos(&self) -> u64 {
        self.base_pos
    }

    /// Heap position of row `i`.
    #[inline]
    pub fn pos(&self, i: usize) -> u64 {
        self.base_pos + i as u64
    }

    /// Dimension `d`'s key in row `i`.
    #[inline]
    pub fn key(&self, d: usize, i: usize) -> u32 {
        self.cols[d][i]
    }

    /// Dimension `d`'s whole key column (`len` entries) — the vectorized
    /// filter path iterates these directly.
    #[inline]
    pub fn col(&self, d: usize) -> &[u32] {
        &self.cols[d]
    }

    /// The measure in row `i`.
    #[inline]
    pub fn measure(&self, i: usize) -> f64 {
        self.measures[i]
    }

    /// Refills the batch from raw page bytes: `n` consecutive tuples
    /// starting at slot `first_slot`, whose first tuple sits at heap
    /// position `base_pos`. Columnar decode: one pass per column over the
    /// page's records.
    pub(crate) fn fill(
        &mut self,
        layout: &TupleLayout,
        page: &[u8],
        first_slot: usize,
        n: usize,
        base_pos: u64,
    ) {
        let rec = layout.record_size();
        let start = first_slot * rec;
        for (d, col) in self.cols.iter_mut().enumerate() {
            col.clear();
            let mut off = start + d * 4;
            for _ in 0..n {
                col.push(u32::from_le_bytes(page[off..off + 4].try_into().unwrap()));
                off += rec;
            }
        }
        self.measures.clear();
        let mut off = start + layout.n_dims() * 4;
        for _ in 0..n {
            self.measures
                .push(f64::from_le_bytes(page[off..off + 8].try_into().unwrap()));
            off += rec;
        }
        self.base_pos = base_pos;
        self.len = n;
    }

    /// Refills the batch from per-value closures instead of raw page bytes
    /// — the decode path for sealed (compressed) pages. `key_at(d, i)` and
    /// `measure_at(i)` address row `i` of the batch (the caller offsets by
    /// its first slot).
    pub(crate) fn fill_with(
        &mut self,
        n: usize,
        base_pos: u64,
        mut key_at: impl FnMut(usize, usize) -> u32,
        mut measure_at: impl FnMut(usize) -> f64,
    ) {
        for (d, col) in self.cols.iter_mut().enumerate() {
            col.clear();
            for i in 0..n {
                col.push(key_at(d, i));
            }
        }
        self.measures.clear();
        for i in 0..n {
            self.measures.push(measure_at(i));
        }
        self.base_pos = base_pos;
        self.len = n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_decodes_columns() {
        let layout = TupleLayout::new(3);
        let mut page = vec![0u8; crate::page::PAGE_SIZE];
        for i in 0..5u32 {
            let off = i as usize * layout.record_size();
            layout.encode(
                &[i, i * 10, i * 100],
                i as f64 + 0.5,
                &mut page[off..off + layout.record_size()],
            );
        }
        let mut b = ScanBatch::new(layout);
        b.fill(&layout, &page, 1, 3, 17);
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        assert_eq!(b.base_pos(), 17);
        assert_eq!(b.pos(2), 19);
        assert_eq!(b.key(0, 0), 1);
        assert_eq!(b.key(1, 2), 30);
        assert_eq!(b.key(2, 1), 200);
        assert_eq!(b.measure(0), 1.5);
        assert_eq!([b.key(0, 2), b.key(1, 2), b.key(2, 2)], [3, 30, 300]);
        // Refill reuses the buffers.
        b.fill(&layout, &page, 0, 1, 0);
        assert_eq!(b.len(), 1);
        assert_eq!(b.key(0, 0), 0);
    }
}
