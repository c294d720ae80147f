//! Roaring-style compressed bitmaps.
//!
//! A [`CompressedBitmap`] splits the position space into 64 Ki-bit chunks
//! and stores each chunk in whichever container encodes it smallest,
//! chosen by density at build time:
//!
//! * **Array** — sorted `u16` offsets; wins when the chunk is sparse
//!   (2 bytes per set bit).
//! * **Bitset** — plain `u64` words covering the chunk's span; wins at
//!   medium density (at most 8 KiB, never larger than the plain form).
//! * **Runs** — sorted `(start, last)` inclusive `u16` pairs; wins when
//!   set bits cluster (4 bytes per run).
//!
//! The query-visible operations (`get`, `count_ones_in`, `iter_ones_in`,
//! `and`/`or`/`and_not`) match the plain [`Bitmap`] semantics bit for bit:
//! `iter_ones_in` seeks straight to the containing word/element instead of
//! scanning from zero, so morsel popcount balancing and probe-run
//! coalescing behave identically on either format.
//! [`or_into`](CompressedBitmap::or_into) decompresses into a plain target and
//! reports the same word charge as [`Bitmap::or_assign`], keeping the
//! simulated CPU clock independent of the storage format.

use crate::bitvec::Bitmap;

/// Bits per chunk (64 Ki).
pub const CHUNK_BITS: u64 = 1 << 16;

/// One chunk's container, chosen by encoded size.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Container {
    /// Sorted chunk-local offsets of set bits.
    Array(Vec<u16>),
    /// Plain words covering the chunk's span (≤ 1024 words).
    Bitset(Vec<u64>),
    /// Sorted, disjoint, non-adjacent inclusive runs `(start, last)`.
    Runs(Vec<(u16, u16)>),
}

/// Which container a chunk ended up in (exposed for tests/benches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContainerKind {
    /// Sparse: sorted offset array.
    Array,
    /// Dense: plain words.
    Bitset,
    /// Clustered: run list.
    Runs,
}

/// A chunked, per-container-compressed bitmap, logically identical to a
/// plain [`Bitmap`] of the same length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressedBitmap {
    len: u64,
    chunks: Vec<Container>,
}

impl CompressedBitmap {
    /// An all-zero compressed bitmap of `len` bits.
    pub fn new(len: u64) -> Self {
        CompressedBitmap {
            len,
            chunks: vec![Container::Array(Vec::new()); Self::chunks_for(len)],
        }
    }

    fn chunks_for(len: u64) -> usize {
        len.div_ceil(CHUNK_BITS) as usize
    }

    /// Bits covered by chunk `i` (the last chunk may be short).
    fn chunk_span(&self, i: usize) -> u64 {
        let base = i as u64 * CHUNK_BITS;
        (self.len - base).min(CHUNK_BITS)
    }

    /// Compresses a plain bitmap, choosing each chunk's container by size.
    pub fn from_bitmap(bm: &Bitmap) -> Self {
        let words = bm.words();
        let len = bm.len();
        let n_chunks = Self::chunks_for(len);
        let words_per_chunk = (CHUNK_BITS / 64) as usize;
        let mut chunks = Vec::with_capacity(n_chunks);
        for c in 0..n_chunks {
            let base = c as u64 * CHUNK_BITS;
            let span = (len - base).min(CHUNK_BITS);
            let w0 = c * words_per_chunk;
            let w1 = (w0 + span.div_ceil(64) as usize).min(words.len());
            chunks.push(seal(&words[w0..w1], span));
        }
        CompressedBitmap { len, chunks }
    }

    /// Decompresses back to a plain bitmap.
    pub fn to_bitmap(&self) -> Bitmap {
        let mut bm = Bitmap::new(self.len);
        self.or_into(&mut bm);
        bm
    }

    /// Length in bits.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True if the bitmap has zero length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of chunks.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// The container kind chosen for chunk `i`.
    pub fn container_kind(&self, i: usize) -> ContainerKind {
        match &self.chunks[i] {
            Container::Array(_) => ContainerKind::Array,
            Container::Bitset(_) => ContainerKind::Bitset,
            Container::Runs(_) => ContainerKind::Runs,
        }
    }

    /// Stored size in bytes: per-chunk payload (at allocated capacity, so
    /// accounting stays honest) plus a 4-byte header per chunk and a
    /// 16-byte bitmap header.
    pub fn byte_size(&self) -> u64 {
        let payload: u64 = self
            .chunks
            .iter()
            .map(|c| match c {
                Container::Array(v) => v.capacity() as u64 * 2,
                Container::Bitset(w) => w.capacity() as u64 * 8,
                Container::Runs(r) => r.capacity() as u64 * 4,
            })
            .sum();
        16 + self.chunks.len() as u64 * 4 + payload
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u64 {
        self.chunks
            .iter()
            .map(|c| match c {
                Container::Array(v) => v.len() as u64,
                Container::Bitset(w) => w.iter().map(|w| w.count_ones() as u64).sum(),
                Container::Runs(r) => r
                    .iter()
                    .map(|&(s, l)| (l as u64) - (s as u64) + 1)
                    .sum::<u64>(),
            })
            .sum()
    }

    /// True if no bit is set.
    pub fn is_zero(&self) -> bool {
        self.chunks.iter().all(|c| match c {
            Container::Array(v) => v.is_empty(),
            Container::Bitset(w) => w.iter().all(|&w| w == 0),
            Container::Runs(r) => r.is_empty(),
        })
    }

    /// Reads bit `pos`.
    ///
    /// # Panics
    /// Panics if `pos >= len`.
    pub fn get(&self, pos: u64) -> bool {
        assert!(pos < self.len, "bit {pos} out of range (len {})", self.len);
        let local = (pos % CHUNK_BITS) as u16;
        match &self.chunks[(pos / CHUNK_BITS) as usize] {
            Container::Array(v) => v.binary_search(&local).is_ok(),
            Container::Bitset(w) => (w[(local / 64) as usize] >> (local % 64)) & 1 == 1,
            Container::Runs(r) => match r.binary_search_by(|&(s, _)| s.cmp(&local)) {
                Ok(_) => true,
                Err(0) => false,
                Err(i) => local <= r[i - 1].1,
            },
        }
    }

    /// Extends the bitmap to `new_len` bits; new bits are zero.
    ///
    /// # Panics
    /// Panics if `new_len < len`.
    pub fn grow(&mut self, new_len: u64) {
        assert!(new_len >= self.len, "grow cannot shrink");
        self.len = new_len;
        self.chunks
            .resize(Self::chunks_for(new_len), Container::Array(Vec::new()));
    }

    /// Grows to `new_len` and sets `positions`, which must be sorted
    /// ascending and all `>= self.len()` (append-only, as index maintenance
    /// produces them). Touched chunks are re-sealed once.
    ///
    /// # Panics
    /// Panics if a position is out of order, below the old length, or at or
    /// beyond `new_len`.
    pub fn extend_with(&mut self, new_len: u64, positions: &[u64]) {
        let old_len = self.len;
        self.grow(new_len);
        let mut i = 0;
        let mut last = None;
        while i < positions.len() {
            let p = positions[i];
            assert!(p >= old_len, "extend_with position {p} below old length");
            assert!(p < new_len, "extend_with position {p} out of range");
            assert!(last.is_none_or(|l| l < p), "extend_with not ascending");
            let chunk = (p / CHUNK_BITS) as usize;
            let base = chunk as u64 * CHUNK_BITS;
            let end = base + CHUNK_BITS;
            // Decompress the chunk, set every position that lands in it,
            // then re-seal.
            let span = self.chunk_span(chunk);
            let mut words = vec![0u64; span.div_ceil(64) as usize];
            fill_words(&self.chunks[chunk], &mut words);
            while i < positions.len() && positions[i] < end {
                let p = positions[i];
                assert!(last.is_none_or(|l| l < p), "extend_with not ascending");
                last = Some(p);
                let local = p - base;
                words[(local / 64) as usize] |= 1u64 << (local % 64);
                i += 1;
            }
            self.chunks[chunk] = seal(&words, span);
        }
    }

    /// `self & other` as a new compressed bitmap.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn and(&self, other: &CompressedBitmap) -> CompressedBitmap {
        self.zip(other, |a, b| *a &= b)
    }

    /// `self | other` as a new compressed bitmap.
    pub fn or(&self, other: &CompressedBitmap) -> CompressedBitmap {
        self.zip(other, |a, b| *a |= b)
    }

    /// `self & !other` as a new compressed bitmap.
    pub fn and_not(&self, other: &CompressedBitmap) -> CompressedBitmap {
        self.zip(other, |a, b| *a &= !b)
    }

    fn zip(&self, other: &CompressedBitmap, f: impl Fn(&mut u64, u64)) -> CompressedBitmap {
        assert_eq!(
            self.len, other.len,
            "bitmap length mismatch: {} vs {}",
            self.len, other.len
        );
        let mut chunks = Vec::with_capacity(self.chunks.len());
        let mut a = Vec::new();
        let mut b = Vec::new();
        for i in 0..self.chunks.len() {
            let span = self.chunk_span(i);
            let n_words = span.div_ceil(64) as usize;
            a.clear();
            a.resize(n_words, 0);
            b.clear();
            b.resize(n_words, 0);
            fill_words(&self.chunks[i], &mut a);
            fill_words(&other.chunks[i], &mut b);
            for (x, &y) in a.iter_mut().zip(&b) {
                f(x, y);
            }
            // Bits past the span are zero in both inputs, and `and`/`or`/
            // `and_not` of zeros is zero, so no tail mask is needed.
            chunks.push(seal(&a, span));
        }
        CompressedBitmap {
            len: self.len,
            chunks,
        }
    }

    /// ORs this bitmap into a plain target of the same length, returning
    /// the word count charged — identical to what
    /// [`Bitmap::or_assign`] would return, so the simulated CPU cost of
    /// assembling a query bitmap does not depend on the index format.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn or_into(&self, target: &mut Bitmap) -> u64 {
        assert_eq!(
            self.len,
            target.len(),
            "bitmap length mismatch: {} vs {}",
            self.len,
            target.len()
        );
        let words_per_chunk = (CHUNK_BITS / 64) as usize;
        let words = target.words_mut();
        for (i, chunk) in self.chunks.iter().enumerate() {
            let w0 = i * words_per_chunk;
            or_words(chunk, &mut words[w0..]);
        }
        target.word_count()
    }

    /// Number of set bits in `lo..hi` (`hi` exclusive, clamped to the
    /// length), matching [`Bitmap::count_ones_in`].
    pub fn count_ones_in(&self, lo: u64, hi: u64) -> u64 {
        let hi = hi.min(self.len);
        if lo >= hi {
            return 0;
        }
        let c0 = (lo / CHUNK_BITS) as usize;
        let c1 = ((hi - 1) / CHUNK_BITS) as usize;
        let mut n = 0;
        for c in c0..=c1 {
            let base = c as u64 * CHUNK_BITS;
            let l = lo.saturating_sub(base).min(CHUNK_BITS) as u32;
            let h = (hi - base).min(CHUNK_BITS) as u32;
            n += count_in_container(&self.chunks[c], l, h);
        }
        n
    }

    /// Iterator over set bits, ascending.
    pub fn iter_ones(&self) -> CompressedOnesIter<'_> {
        self.iter_ones_in(0, self.len)
    }

    /// Iterator over set bits in `lo..hi` (ascending, `hi` exclusive,
    /// clamped to the length), matching [`Bitmap::iter_ones_in`]: seeks
    /// straight to the containing chunk and element, so a narrow range of a
    /// wide bitmap costs work proportional to the range.
    pub fn iter_ones_in(&self, lo: u64, hi: u64) -> CompressedOnesIter<'_> {
        let hi = hi.min(self.len);
        if lo >= hi {
            return CompressedOnesIter {
                bm: self,
                chunk_idx: self.chunks.len(),
                state: IterState::Exhausted,
                end: 0,
            };
        }
        let chunk_idx = (lo / CHUNK_BITS) as usize;
        let state = seek_in_container(&self.chunks[chunk_idx], (lo % CHUNK_BITS) as u32);
        CompressedOnesIter {
            bm: self,
            chunk_idx,
            state,
            end: hi,
        }
    }
}

/// Writes a container's bits into zeroed `words` (chunk-local).
fn fill_words(c: &Container, words: &mut [u64]) {
    or_words(c, words)
}

/// ORs a container's bits into `words` (chunk-local).
fn or_words(c: &Container, words: &mut [u64]) {
    match c {
        Container::Array(v) => {
            for &p in v {
                words[(p / 64) as usize] |= 1u64 << (p % 64);
            }
        }
        Container::Bitset(w) => {
            for (dst, &src) in words.iter_mut().zip(w) {
                *dst |= src;
            }
        }
        Container::Runs(r) => {
            for &(s, l) in r {
                set_range(words, s as u32, l as u32);
            }
        }
    }
}

/// Sets bits `s..=l` (chunk-local) in `words` using word masks.
fn set_range(words: &mut [u64], s: u32, l: u32) {
    let (ws, wl) = ((s / 64) as usize, (l / 64) as usize);
    let head = !0u64 << (s % 64);
    let tail = !0u64 >> (63 - l % 64);
    if ws == wl {
        words[ws] |= head & tail;
        return;
    }
    words[ws] |= head;
    for w in &mut words[ws + 1..wl] {
        *w = !0;
    }
    words[wl] |= tail;
}

/// Chooses the smallest container for a chunk given its plain words.
/// `span` is the number of bits the chunk covers.
fn seal(words: &[u64], span: u64) -> Container {
    let ones: u64 = words.iter().map(|w| w.count_ones() as u64).sum();
    if ones == 0 {
        return Container::Array(Vec::new());
    }
    // Count runs: 0→1 transitions, carrying the previous word's top bit.
    let mut runs = 0u64;
    let mut carry = 0u64; // previous word's bit 63, shifted to bit 0
    for &w in words {
        runs += (w & !((w << 1) | carry)).count_ones() as u64;
        carry = w >> 63;
    }
    let array_bytes = ones * 2;
    let run_bytes = runs * 4;
    let bitset_bytes = span.div_ceil(64) * 8;
    if run_bytes <= array_bytes && run_bytes < bitset_bytes {
        let mut v = Vec::with_capacity(runs as usize);
        let mut start: Option<u32> = None;
        let mut prev: u32 = 0;
        for p in iter_word_bits(words) {
            match start {
                Some(_) if p == prev + 1 => prev = p,
                _ => {
                    if let Some(s) = start {
                        v.push((s as u16, prev as u16));
                    }
                    start = Some(p);
                    prev = p;
                }
            }
        }
        if let Some(s) = start {
            v.push((s as u16, prev as u16));
        }
        Container::Runs(v)
    } else if array_bytes < bitset_bytes {
        let mut v = Vec::with_capacity(ones as usize);
        v.extend(iter_word_bits(words).map(|p| p as u16));
        Container::Array(v)
    } else {
        let mut v = Vec::with_capacity(span.div_ceil(64) as usize);
        v.extend_from_slice(words);
        v.resize(span.div_ceil(64) as usize, 0);
        Container::Bitset(v)
    }
}

/// Iterates set-bit offsets of chunk-local words.
fn iter_word_bits(words: &[u64]) -> impl Iterator<Item = u32> + '_ {
    words.iter().enumerate().flat_map(|(i, &w)| {
        let mut w = w;
        std::iter::from_fn(move || {
            if w == 0 {
                return None;
            }
            let b = w.trailing_zeros();
            w &= w - 1;
            Some(i as u32 * 64 + b)
        })
    })
}

/// Set bits of a container in chunk-local `lo..hi` (`hi` exclusive).
fn count_in_container(c: &Container, lo: u32, hi: u32) -> u64 {
    if lo >= hi {
        return 0;
    }
    match c {
        Container::Array(v) => {
            let a = v.partition_point(|&p| (p as u32) < lo);
            let b = v.partition_point(|&p| (p as u32) < hi);
            (b - a) as u64
        }
        Container::Bitset(w) => {
            let last = hi - 1;
            let (wl, wh) = ((lo / 64) as usize, (last / 64) as usize);
            let head = !0u64 << (lo % 64);
            let tail = !0u64 >> (63 - last % 64);
            if wl == wh {
                return (w[wl] & head & tail).count_ones() as u64;
            }
            let mut n = (w[wl] & head).count_ones() as u64;
            for w in &w[wl + 1..wh] {
                n += w.count_ones() as u64;
            }
            n + (w[wh] & tail).count_ones() as u64
        }
        Container::Runs(r) => {
            let mut n = 0;
            let i = r.partition_point(|&(_, l)| (l as u32) < lo);
            for &(s, l) in &r[i..] {
                if s as u32 >= hi {
                    break;
                }
                let a = (s as u32).max(lo);
                let b = (l as u32 + 1).min(hi);
                n += (b - a) as u64;
            }
            n
        }
    }
}

/// Position within the current chunk's container.
#[derive(Debug)]
enum IterState {
    /// Next element index into an Array container.
    Array(usize),
    /// Word index + remaining masked bits of a Bitset container.
    Bitset { word: usize, current: u64 },
    /// Run index + next chunk-local offset to yield in a Runs container.
    Runs { run: usize, next: u32 },
    /// Iteration finished.
    Exhausted,
}

/// Iterator over set-bit positions of a [`CompressedBitmap`], bounded by
/// an exclusive end position.
#[derive(Debug)]
pub struct CompressedOnesIter<'a> {
    bm: &'a CompressedBitmap,
    chunk_idx: usize,
    state: IterState,
    end: u64,
}

/// Entry state for a container starting at chunk-local offset `lo`.
fn seek_in_container(c: &Container, lo: u32) -> IterState {
    match c {
        Container::Array(v) => IterState::Array(v.partition_point(|&p| (p as u32) < lo)),
        Container::Bitset(w) => {
            let word = (lo / 64) as usize;
            let current = w.get(word).copied().unwrap_or(0) & (!0u64 << (lo % 64));
            IterState::Bitset { word, current }
        }
        Container::Runs(r) => {
            let run = r.partition_point(|&(_, l)| (l as u32) < lo);
            let next = r.get(run).map_or(0, |&(s, _)| (s as u32).max(lo));
            IterState::Runs { run, next }
        }
    }
}

impl Iterator for CompressedOnesIter<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        loop {
            let base = self.chunk_idx as u64 * CHUNK_BITS;
            // Yield the next chunk-local offset in the current container,
            // or None when the chunk is exhausted.
            let local = match &mut self.state {
                IterState::Exhausted => return None,
                IterState::Array(i) => {
                    let Container::Array(v) = &self.bm.chunks[self.chunk_idx] else {
                        unreachable!("iterator state desynced from container");
                    };
                    if *i < v.len() {
                        let p = v[*i] as u32;
                        *i += 1;
                        Some(p)
                    } else {
                        None
                    }
                }
                IterState::Bitset { word, current } => {
                    let Container::Bitset(w) = &self.bm.chunks[self.chunk_idx] else {
                        unreachable!("iterator state desynced from container");
                    };
                    loop {
                        if *current != 0 {
                            let b = current.trailing_zeros();
                            *current &= *current - 1;
                            break Some(*word as u32 * 64 + b);
                        }
                        *word += 1;
                        if *word >= w.len() {
                            break None;
                        }
                        *current = w[*word];
                    }
                }
                IterState::Runs { run, next } => {
                    let Container::Runs(r) = &self.bm.chunks[self.chunk_idx] else {
                        unreachable!("iterator state desynced from container");
                    };
                    if *run < r.len() {
                        let p = *next;
                        if p >= r[*run].1 as u32 {
                            *run += 1;
                            *next = r.get(*run).map_or(0, |&(s, _)| s as u32);
                        } else {
                            *next = p + 1;
                        }
                        Some(p)
                    } else {
                        None
                    }
                }
            };
            match local {
                Some(p) => {
                    let pos = base + p as u64;
                    if pos >= self.end {
                        self.state = IterState::Exhausted;
                        return None;
                    }
                    return Some(pos);
                }
                None => {
                    self.chunk_idx += 1;
                    if self.chunk_idx >= self.bm.chunks.len()
                        || self.chunk_idx as u64 * CHUNK_BITS >= self.end
                    {
                        self.state = IterState::Exhausted;
                        return None;
                    }
                    self.state = seek_in_container(&self.bm.chunks[self.chunk_idx], 0);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starshare_prng::Prng;

    /// Adversarial densities from the satellite checklist: empty, a single
    /// bit at every seam, alternating bits, dense runs — plus random mixes.
    fn adversarial_cases(len: u64) -> Vec<Vec<u64>> {
        let mut cases = vec![Vec::new()];
        // Single bit at every seam: word seams and chunk seams.
        let mut seams = Vec::new();
        for s in [0, 63, 64, 65, CHUNK_BITS - 1, CHUNK_BITS, CHUNK_BITS + 1] {
            if s < len {
                seams.push(s);
            }
        }
        if len > 0 {
            seams.push(len - 1);
        }
        for &s in &seams {
            cases.push(vec![s]);
        }
        cases.push(seams.clone());
        // Alternating bits over the first stretch.
        cases.push((0..len.min(4096)).step_by(2).collect());
        // Dense runs straddling chunk and word boundaries.
        if len > CHUNK_BITS + 200 {
            cases.push((CHUNK_BITS - 100..CHUNK_BITS + 100).collect());
        }
        cases.push((0..len.min(300)).collect());
        cases
    }

    fn build_pair(len: u64, positions: &[u64]) -> (Bitmap, CompressedBitmap) {
        let bm = Bitmap::from_positions(len, positions);
        let cb = CompressedBitmap::from_bitmap(&bm);
        (bm, cb)
    }

    #[test]
    fn roundtrip_and_counts_match_oracle() {
        for len in [0, 1, 64, 65, CHUNK_BITS, CHUNK_BITS + 1, 3 * CHUNK_BITS / 2] {
            for positions in adversarial_cases(len) {
                let (bm, cb) = build_pair(len, &positions);
                assert_eq!(cb.len(), bm.len());
                assert_eq!(cb.count_ones(), bm.count_ones());
                assert_eq!(cb.is_zero(), bm.is_zero());
                assert_eq!(cb.to_bitmap(), bm, "len {len}");
                assert_eq!(
                    cb.iter_ones().collect::<Vec<_>>(),
                    bm.iter_ones().collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn get_matches_oracle_at_seams() {
        let len = 2 * CHUNK_BITS;
        for positions in adversarial_cases(len) {
            let (bm, cb) = build_pair(len, &positions);
            for s in [
                0,
                1,
                63,
                64,
                65,
                CHUNK_BITS - 1,
                CHUNK_BITS,
                CHUNK_BITS + 1,
                len - 1,
            ] {
                assert_eq!(cb.get(s), bm.get(s), "pos {s}");
            }
        }
    }

    #[test]
    fn range_ops_match_oracle_at_seams() {
        let len = 2 * CHUNK_BITS + 100;
        let bounds = [
            0,
            1,
            63,
            64,
            65,
            127,
            128,
            CHUNK_BITS - 1,
            CHUNK_BITS,
            CHUNK_BITS + 1,
            2 * CHUNK_BITS,
            len - 1,
            len,
            len + 999,
        ];
        for positions in adversarial_cases(len) {
            let (bm, cb) = build_pair(len, &positions);
            for &lo in &bounds {
                for &hi in &bounds {
                    assert_eq!(
                        cb.count_ones_in(lo, hi),
                        bm.count_ones_in(lo, hi),
                        "count {lo}..{hi}"
                    );
                    assert_eq!(
                        cb.iter_ones_in(lo, hi).collect::<Vec<_>>(),
                        bm.iter_ones_in(lo, hi).collect::<Vec<_>>(),
                        "iter {lo}..{hi}"
                    );
                }
            }
        }
    }

    #[test]
    fn prop_random_ranges_match_oracle() {
        let mut rng = Prng::seed_from_u64(0xC0DE_0001);
        let len = 3 * CHUNK_BITS;
        for round in 0..24 {
            // Sweep densities from very sparse to dense.
            let n = 1usize << (round % 12);
            let positions: std::collections::BTreeSet<u64> =
                (0..n).map(|_| rng.gen_range(0..len)).collect();
            let positions: Vec<u64> = positions.into_iter().collect();
            let (bm, cb) = build_pair(len, &positions);
            assert_eq!(cb.to_bitmap(), bm);
            for _ in 0..16 {
                let lo = rng.gen_range(0..len);
                let hi = rng.gen_range(0..=len);
                assert_eq!(cb.count_ones_in(lo, hi), bm.count_ones_in(lo, hi));
                assert_eq!(
                    cb.iter_ones_in(lo, hi).collect::<Vec<_>>(),
                    bm.iter_ones_in(lo, hi).collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn boolean_ops_match_oracle() {
        let mut rng = Prng::seed_from_u64(0xC0DE_0002);
        let len = CHUNK_BITS + 500;
        for round in 0..16 {
            let n = 1usize << (round % 10);
            let xs: Vec<u64> = (0..n).map(|_| rng.gen_range(0..len)).collect();
            let ys: Vec<u64> = (0..n).map(|_| rng.gen_range(0..len)).collect();
            let (ba, ca) = build_pair(len, &xs);
            let (bb, cb) = build_pair(len, &ys);

            let mut and = ba.clone();
            and.and_assign(&bb);
            assert_eq!(ca.and(&cb).to_bitmap(), and);

            let mut or = ba.clone();
            or.or_assign(&bb);
            assert_eq!(ca.or(&cb).to_bitmap(), or);

            let mut diff = ba.clone();
            diff.and_not_assign(&bb);
            assert_eq!(ca.and_not(&cb).to_bitmap(), diff);
        }
    }

    #[test]
    fn or_into_matches_plain_charge_and_result() {
        let len = CHUNK_BITS + 100;
        let (ba, ca) = build_pair(len, &[0, 63, 64, CHUNK_BITS - 1, CHUNK_BITS, len - 1]);
        let (_, _) = (&ba, &ca);
        let mut plain_target = Bitmap::from_positions(len, &[1, CHUNK_BITS]);
        let mut comp_target = plain_target.clone();
        let plain_words = plain_target.or_assign(&ba);
        let comp_words = ca.or_into(&mut comp_target);
        assert_eq!(comp_target, plain_target, "same bits");
        assert_eq!(comp_words, plain_words, "same simulated CPU charge");
    }

    #[test]
    fn container_choice_follows_density() {
        // Sparse scattered bits → Array.
        let sparse: Vec<u64> = (0..20).map(|i| i * 3001).collect();
        let (_, cb) = build_pair(CHUNK_BITS, &sparse);
        assert_eq!(cb.container_kind(0), ContainerKind::Array);

        // One dense run → Runs.
        let run: Vec<u64> = (1000..21000).collect();
        let (_, cb) = build_pair(CHUNK_BITS, &run);
        assert_eq!(cb.container_kind(0), ContainerKind::Runs);

        // Alternating bits everywhere → Bitset (arrays/runs both bigger).
        let alt: Vec<u64> = (0..CHUNK_BITS).step_by(2).collect();
        let (bm, cb) = build_pair(CHUNK_BITS, &alt);
        assert_eq!(cb.container_kind(0), ContainerKind::Bitset);
        // And the bitset container costs about the plain size, no more
        // than a small header over it.
        assert!(cb.byte_size() <= bm.byte_size() + 32);
    }

    #[test]
    fn compresses_clustered_bitmaps_well() {
        // A clustered member bitmap: 8 runs over a million rows.
        let mut positions = Vec::new();
        for r in 0..8u64 {
            let base = r * 125_000;
            positions.extend(base..base + 2_000);
        }
        let (bm, cb) = build_pair(1_000_000, &positions);
        assert!(
            cb.byte_size() * 4 <= bm.byte_size(),
            "clustered bitmap should compress ≥4×: {} vs {}",
            cb.byte_size(),
            bm.byte_size()
        );
        assert_eq!(cb.to_bitmap(), bm);
    }

    #[test]
    fn extend_with_appends_sorted_tail_positions() {
        let mut rng = Prng::seed_from_u64(0xC0DE_0003);
        for _ in 0..8 {
            let old_len = rng.gen_range(1..2 * CHUNK_BITS);
            let new_len = old_len + rng.gen_range(1..CHUNK_BITS);
            let head: std::collections::BTreeSet<u64> =
                (0..200).map(|_| rng.gen_range(0..old_len)).collect();
            let tail: std::collections::BTreeSet<u64> =
                (0..200).map(|_| rng.gen_range(old_len..new_len)).collect();
            let head: Vec<u64> = head.into_iter().collect();
            let tail: Vec<u64> = tail.into_iter().collect();

            let (_, mut cb) = build_pair(old_len, &head);
            cb.extend_with(new_len, &tail);

            let mut all = head.clone();
            all.extend(&tail);
            let oracle = Bitmap::from_positions(new_len, &all);
            assert_eq!(cb.to_bitmap(), oracle);
            assert_eq!(cb.len(), new_len);
        }
    }

    #[test]
    fn grow_keeps_bits_and_zero_fills() {
        let (_, mut cb) = build_pair(100, &[0, 50, 99]);
        cb.grow(CHUNK_BITS * 2 + 10);
        assert_eq!(cb.len(), CHUNK_BITS * 2 + 10);
        assert_eq!(cb.count_ones(), 3);
        assert!(!cb.get(CHUNK_BITS));
        assert!(cb.get(99));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        CompressedBitmap::new(10).get(10);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        let a = CompressedBitmap::new(10);
        let b = CompressedBitmap::new(11);
        let _ = a.and(&b);
    }

    #[test]
    #[should_panic(expected = "not ascending")]
    fn extend_with_rejects_unsorted() {
        let mut cb = CompressedBitmap::new(10);
        cb.extend_with(20, &[15, 12]);
    }
}
