//! Tiered aggregation kernels.
//!
//! The scan+aggregate inner loop dominates every strategy in the paper
//! (§3, §7), and the naive accumulator — a `HashMap<Vec<u32>, AggState>`
//! keyed by a heap-allocated key built per tuple — pays an allocation, a
//! multi-word hash, and (before this module) a double probe on every new
//! group. An [`AggKernel`] is compiled per query at `QueryState::compile`
//! time from *exact* catalog cardinalities and picks the cheapest
//! representation the group-by space allows:
//!
//! * [`KernelTier::Dense`] — the target group-by's total cardinality is
//!   small (≤ [`DENSE_MAX_GROUPS`]): pack the rolled keys into a mixed-radix
//!   `u64` offset and accumulate into a flat slot array. No hashing at all.
//! * [`KernelTier::Packed`] — the key space fits 64 bits but is too large
//!   (or too sparse) for a flat array: the same packed `u64` keys a
//!   `HashMap` with a constant-time integer hash.
//! * [`KernelTier::Spill`] — the cardinality product overflows `u64`: fall
//!   back to the original `Vec<u32>` keys (now with a single `entry()`
//!   probe).
//!
//! The load-bearing invariant: **every tier charges the identical
//! [`CpuCounters`]** — one `hash_probes` per qualifying tuple, one
//! `hash_builds` per new group, one `agg_updates` and `tuple_copies` per
//! qualifying tuple — and per-group measures fold in scan order in every
//! tier, so query results, counters, and the simulated clock are
//! bit-identical across tiers. The kernels change real wall time only.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use starshare_olap::{AggState, CombineMode};
use starshare_storage::{CpuCounters, ScanBatch};

/// Largest exact group-by cardinality that gets a flat dense accumulator
/// (64 Ki slots ≈ 1 MiB of `AggState` per accumulator).
pub const DENSE_MAX_GROUPS: u64 = 1 << 16;

/// Hasher for packed `u64` group keys: the SplitMix64 finalizer, applied to
/// the single `write_u64` the map performs per operation. Deterministic
/// (unlike `RandomState`) and a handful of arithmetic ops instead of
/// SipHash rounds.
#[derive(Debug, Default)]
pub struct PackedKeyHasher(u64);

impl Hasher for PackedKeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Only reached if someone keys something other than u64; FNV-1a
        // keeps it correct.
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = z ^ (z >> 31);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// The packed-hash tier's map type.
pub type PackedMap = HashMap<u64, AggState, BuildHasherDefault<PackedKeyHasher>>;

/// Which representation a kernel compiled to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelTier {
    /// Flat slot array indexed by the packed key.
    Dense,
    /// `HashMap<u64, AggState>` on packed keys.
    Packed,
    /// `HashMap<Vec<u32>, AggState>` fallback.
    Spill,
}

/// One dimension's contribution to the packed key: roll the stored key by
/// `divisor`, weight by the mixed-radix multiplier.
#[derive(Debug, Clone)]
struct PackDim {
    dim: usize,
    divisor: u32,
    weight: u64,
}

#[derive(Debug, Clone)]
enum TierPlan {
    Dense {
        dims: Vec<PackDim>,
        cards: Vec<u32>,
        total: usize,
    },
    Packed {
        dims: Vec<PackDim>,
        cards: Vec<u32>,
    },
    Spill,
}

/// A compiled aggregation kernel: how one query's qualifying tuples become
/// `(group key, AggState)` pairs. Immutable after compilation — partitioned
/// workers share one kernel and give each partition a private [`GroupAcc`].
#[derive(Debug, Clone)]
pub struct AggKernel {
    /// `(dim, divisor)` per grouped dimension, in dimension order — the
    /// spill tier's key extraction (identical to the pipeline's).
    extract: Vec<(usize, u32)>,
    tier: TierPlan,
}

impl AggKernel {
    /// Compiles a kernel for a group-by whose grouped dimensions are
    /// `extract` (`(source dim, roll-up divisor)` in dimension order) with
    /// exact target cardinalities `cards` (parallel to `extract`).
    pub fn compile(extract: Vec<(usize, u32)>, cards: Vec<u32>) -> Self {
        assert_eq!(
            extract.len(),
            cards.len(),
            "one cardinality per grouped dimension"
        );
        let total = cards
            .iter()
            .try_fold(1u64, |acc, &c| acc.checked_mul(c as u64));
        let tier = match total {
            Some(t) if t <= DENSE_MAX_GROUPS => TierPlan::Dense {
                dims: Self::pack_dims(&extract, &cards),
                cards,
                total: t as usize,
            },
            Some(_) => TierPlan::Packed {
                dims: Self::pack_dims(&extract, &cards),
                cards,
            },
            None => TierPlan::Spill,
        };
        AggKernel { extract, tier }
    }

    /// Mixed-radix weights: dimension `i`'s weight is the product of the
    /// cardinalities after it, so `key = Σ rolledᵢ · weightᵢ` enumerates
    /// `0..Πcards` in lexicographic key order (Horner's rule).
    fn pack_dims(extract: &[(usize, u32)], cards: &[u32]) -> Vec<PackDim> {
        let mut weight = 1u64;
        let mut dims: Vec<PackDim> = extract
            .iter()
            .zip(cards)
            .rev()
            .map(|(&(dim, divisor), &card)| {
                let pd = PackDim {
                    dim,
                    divisor,
                    weight,
                };
                weight = weight.saturating_mul(card as u64);
                pd
            })
            .collect();
        dims.reverse();
        dims
    }

    /// The representation this kernel compiled to.
    pub fn tier(&self) -> KernelTier {
        match self.tier {
            TierPlan::Dense { .. } => KernelTier::Dense,
            TierPlan::Packed { .. } => KernelTier::Packed,
            TierPlan::Spill => KernelTier::Spill,
        }
    }

    /// A fresh accumulator for this kernel.
    pub fn new_acc(&self) -> GroupAcc {
        match &self.tier {
            TierPlan::Dense { total, .. } => GroupAcc::Dense {
                slots: vec![AggState::default(); *total],
                occupied: vec![0u64; total.div_ceil(64)],
            },
            TierPlan::Packed { .. } => GroupAcc::Packed(PackedMap::default()),
            TierPlan::Spill => GroupAcc::Spill(HashMap::new()),
        }
    }

    /// Packs rolled keys into the mixed-radix offset; `get(dim)` supplies
    /// the stored key for a dimension (a row-major slice or a batch column).
    #[inline]
    fn pack_with(dims: &[PackDim], get: impl Fn(usize) -> u32) -> u64 {
        let mut off = 0u64;
        for pd in dims {
            off += (get(pd.dim) / pd.divisor) as u64 * pd.weight;
        }
        off
    }

    /// Absorbs one qualifying tuple into `acc`.
    ///
    /// Counter contract (identical in every tier, identical to the
    /// pre-kernel accumulator): `hash_probes += 1` for the
    /// aggregation-table lookup, `hash_builds += 1` iff the group is new,
    /// then `agg_updates += 1` and `tuple_copies += 1`.
    #[inline]
    pub fn absorb(
        &self,
        acc: &mut GroupAcc,
        mode: CombineMode,
        keys: &[u32],
        measure: f64,
        scratch: &mut Vec<u32>,
        cpu: &mut CpuCounters,
    ) {
        self.absorb_keyed(acc, mode, |d| keys[d], measure, scratch, cpu);
    }

    /// [`absorb`](Self::absorb) for one row of a columnar [`ScanBatch`]:
    /// reads only the grouped dimensions' columns, no row-major key copy.
    #[inline]
    pub fn absorb_row(
        &self,
        acc: &mut GroupAcc,
        mode: CombineMode,
        batch: &ScanBatch,
        row: usize,
        scratch: &mut Vec<u32>,
        cpu: &mut CpuCounters,
    ) {
        self.absorb_keyed(
            acc,
            mode,
            |d| batch.key(d, row),
            batch.measure(row),
            scratch,
            cpu,
        );
    }

    #[inline]
    fn absorb_keyed(
        &self,
        acc: &mut GroupAcc,
        mode: CombineMode,
        get: impl Fn(usize) -> u32,
        measure: f64,
        scratch: &mut Vec<u32>,
        cpu: &mut CpuCounters,
    ) {
        cpu.hash_probes += 1; // aggregation-table lookup
        match (&self.tier, acc) {
            (TierPlan::Dense { dims, .. }, GroupAcc::Dense { slots, occupied }) => {
                let off = Self::pack_with(dims, get) as usize;
                let (word, bit) = (off / 64, off % 64);
                if occupied[word] >> bit & 1 == 1 {
                    slots[off].fold(mode, measure);
                } else {
                    cpu.hash_builds += 1;
                    occupied[word] |= 1 << bit;
                    slots[off] = AggState::first(mode, measure);
                }
            }
            (TierPlan::Packed { dims, .. }, GroupAcc::Packed(map)) => {
                match map.entry(Self::pack_with(dims, get)) {
                    std::collections::hash_map::Entry::Occupied(mut e) => {
                        e.get_mut().fold(mode, measure);
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        cpu.hash_builds += 1;
                        e.insert(AggState::first(mode, measure));
                    }
                }
            }
            (TierPlan::Spill, GroupAcc::Spill(map)) => {
                scratch.clear();
                scratch.extend(self.extract.iter().map(|&(d, div)| get(d) / div));
                // Single entry() probe: one lookup done, one charged.
                match map.entry(scratch.clone()) {
                    std::collections::hash_map::Entry::Occupied(mut e) => {
                        e.get_mut().fold(mode, measure);
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        cpu.hash_builds += 1;
                        e.insert(AggState::first(mode, measure));
                    }
                }
            }
            _ => unreachable!("accumulator built by a different kernel tier"),
        }
        cpu.agg_updates += 1;
        cpu.tuple_copies += 1;
    }

    /// Merges a partition's partial accumulator into `dst` (partitioned
    /// execution, phase 3). Counter contract, identical to the pre-kernel
    /// merge loop: per source group one `hash_probes`, then `agg_updates`
    /// on a hit or `hash_builds` on a miss.
    pub fn merge_partial(
        &self,
        dst: &mut GroupAcc,
        src: &GroupAcc,
        mode: CombineMode,
        cpu: &mut CpuCounters,
    ) {
        match (dst, src) {
            (
                GroupAcc::Dense { slots, occupied },
                GroupAcc::Dense {
                    slots: src_slots,
                    occupied: src_occ,
                },
            ) => {
                for (word, &src_word) in src_occ.iter().enumerate() {
                    let mut rest = src_word;
                    while rest != 0 {
                        let bit = rest.trailing_zeros() as usize;
                        rest &= rest - 1;
                        let off = word * 64 + bit;
                        cpu.hash_probes += 1;
                        if occupied[word] >> bit & 1 == 1 {
                            slots[off].merge(mode, &src_slots[off]);
                            cpu.agg_updates += 1;
                        } else {
                            cpu.hash_builds += 1;
                            occupied[word] |= 1 << bit;
                            slots[off] = src_slots[off];
                        }
                    }
                }
            }
            (GroupAcc::Packed(dst_map), GroupAcc::Packed(src_map)) => {
                for (&k, st) in src_map {
                    cpu.hash_probes += 1;
                    match dst_map.entry(k) {
                        std::collections::hash_map::Entry::Occupied(mut e) => {
                            e.get_mut().merge(mode, st);
                            cpu.agg_updates += 1;
                        }
                        std::collections::hash_map::Entry::Vacant(e) => {
                            cpu.hash_builds += 1;
                            e.insert(*st);
                        }
                    }
                }
            }
            (GroupAcc::Spill(dst_map), GroupAcc::Spill(src_map)) => {
                for (k, st) in src_map {
                    cpu.hash_probes += 1;
                    if let Some(acc) = dst_map.get_mut(k) {
                        acc.merge(mode, st);
                        cpu.agg_updates += 1;
                    } else {
                        cpu.hash_builds += 1;
                        dst_map.insert(k.clone(), *st);
                    }
                }
            }
            _ => unreachable!("merging accumulators of different kernel tiers"),
        }
    }

    /// Consumes an accumulator into `(group key, state)` pairs with the
    /// keys unpacked back to `Vec<u32>` form (unordered — results are
    /// sorted downstream by `QueryResult::from_groups`).
    pub fn into_groups(&self, acc: GroupAcc) -> Vec<(Vec<u32>, AggState)> {
        match (acc, &self.tier) {
            (GroupAcc::Dense { slots, occupied }, TierPlan::Dense { cards, .. }) => {
                let mut out = Vec::new();
                for (word, &w) in occupied.iter().enumerate() {
                    let mut rest = w;
                    while rest != 0 {
                        let bit = rest.trailing_zeros() as usize;
                        rest &= rest - 1;
                        let off = word * 64 + bit;
                        out.push((Self::unpack(cards, off as u64), slots[off]));
                    }
                }
                out
            }
            (GroupAcc::Packed(map), TierPlan::Packed { cards, .. }) => map
                .into_iter()
                .map(|(k, st)| (Self::unpack(cards, k), st))
                .collect(),
            (GroupAcc::Spill(map), TierPlan::Spill) => map.into_iter().collect(),
            _ => unreachable!("accumulator built by a different kernel tier"),
        }
    }

    /// Inverts [`pack`](Self::pack): mixed-radix digits, most significant
    /// dimension first.
    fn unpack(cards: &[u32], mut key: u64) -> Vec<u32> {
        let mut out = vec![0u32; cards.len()];
        for (slot, &card) in out.iter_mut().zip(cards).rev() {
            *slot = (key % card as u64) as u32;
            key /= card as u64;
        }
        out
    }

    /// Groups currently held in `acc`.
    pub fn n_groups(&self, acc: &GroupAcc) -> usize {
        match acc {
            GroupAcc::Dense { occupied, .. } => {
                occupied.iter().map(|w| w.count_ones() as usize).sum()
            }
            GroupAcc::Packed(m) => m.len(),
            GroupAcc::Spill(m) => m.len(),
        }
    }
}

/// A per-worker mutable accumulator, shaped by the kernel that created it
/// ([`AggKernel::new_acc`]).
#[derive(Debug, Clone)]
pub enum GroupAcc {
    /// Flat slots indexed by packed key; `occupied` is a bitset marking
    /// which slots hold a live group (a default `AggState` is a
    /// placeholder, not a group).
    Dense {
        slots: Vec<AggState>,
        occupied: Vec<u64>,
    },
    /// Packed-key hash accumulator.
    Packed(PackedMap),
    /// `Vec<u32>`-keyed fallback.
    Spill(HashMap<Vec<u32>, AggState>),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn absorb_all(
        kernel: &AggKernel,
        rows: &[(&[u32], f64)],
        mode: CombineMode,
    ) -> (Vec<(Vec<u32>, f64)>, CpuCounters) {
        let mut acc = kernel.new_acc();
        let mut scratch = Vec::new();
        let mut cpu = CpuCounters::default();
        for &(keys, m) in rows {
            kernel.absorb(&mut acc, mode, keys, m, &mut scratch, &mut cpu);
        }
        let mut out: Vec<(Vec<u32>, f64)> = kernel
            .into_groups(acc)
            .into_iter()
            .map(|(k, st)| (k, st.value(mode)))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        (out, cpu)
    }

    #[test]
    fn tier_selection_follows_cardinality_product() {
        let k = AggKernel::compile(vec![(0, 1), (1, 2)], vec![100, 100]);
        assert_eq!(k.tier(), KernelTier::Dense);
        let k = AggKernel::compile(vec![(0, 1), (1, 1)], vec![1 << 16, 2]);
        assert_eq!(k.tier(), KernelTier::Packed);
        // 7 dims × 2^10 each = 2^70 > u64::MAX.
        let k = AggKernel::compile(vec![(0, 1); 7], vec![1 << 10; 7]);
        assert_eq!(k.tier(), KernelTier::Spill);
        // Empty group-by (everything aggregated away): one dense slot.
        let k = AggKernel::compile(vec![], vec![]);
        assert_eq!(k.tier(), KernelTier::Dense);
    }

    #[test]
    fn all_tiers_agree_and_charge_identically() {
        // Same extraction compiled three ways by varying claimed cards
        // (claimed cardinalities only need to be upper bounds for packing
        // to be injective).
        let rows: Vec<(&[u32], f64)> = vec![
            (&[5, 9], 1.0),
            (&[5, 9], 2.5),
            (&[0, 3], -1.0),
            (&[7, 9], 4.0),
            (&[5, 8], 0.25),
        ];
        let dense = AggKernel::compile(vec![(0, 1), (1, 2)], vec![10, 5]);
        let packed = AggKernel::compile(vec![(0, 1), (1, 2)], vec![1 << 20, 1 << 20]);
        let spill = AggKernel::compile(
            vec![(0, 1), (1, 2), (0, 1), (0, 1), (0, 1), (0, 1), (0, 1)],
            vec![1 << 10; 7],
        );
        assert_eq!(dense.tier(), KernelTier::Dense);
        assert_eq!(packed.tier(), KernelTier::Packed);
        assert_eq!(spill.tier(), KernelTier::Spill);
        for mode in [
            CombineMode::Add,
            CombineMode::CountRows,
            CombineMode::TakeMin,
            CombineMode::TakeMax,
            CombineMode::Average,
        ] {
            let (rd, cd) = absorb_all(&dense, &rows, mode);
            let (rp, cp) = absorb_all(&packed, &rows, mode);
            assert_eq!(rd, rp, "dense vs packed, {mode:?}");
            assert_eq!(cd, cp, "counters dense vs packed, {mode:?}");
            // Spill extracts 7 key parts; compare group count + charges.
            let (rs, cs) = absorb_all(&spill, &rows, mode);
            assert_eq!(rs.len(), rd.len());
            assert_eq!(cs, cd, "counters spill vs dense, {mode:?}");
            assert_eq!(cd.hash_probes, rows.len() as u64);
            assert_eq!(cd.hash_builds, rd.len() as u64);
            assert_eq!(cd.agg_updates, rows.len() as u64);
        }
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let cards = vec![6u32, 3, 7200];
        let extract = vec![(0usize, 1u32), (1, 1), (2, 1)];
        let k = AggKernel::compile(extract, cards.clone());
        let dims = match &k.tier {
            TierPlan::Dense { dims, .. } | TierPlan::Packed { dims, .. } => dims,
            TierPlan::Spill => unreachable!(),
        };
        let pack = |keys: &[u32; 3]| AggKernel::pack_with(dims, |d| keys[d]);
        for keys in [[0u32, 0, 0], [5, 2, 7199], [3, 1, 4096]] {
            let packed = pack(&keys);
            assert_eq!(AggKernel::unpack(&cards, packed), keys.to_vec());
        }
        // Packing is lexicographic in key order.
        assert!(pack(&[1, 0, 0]) > pack(&[0, 2, 7199]));
    }

    #[test]
    fn merge_matches_single_accumulator() {
        let kernel = AggKernel::compile(vec![(0, 1)], vec![16]);
        let mode = CombineMode::Add;
        let mut scratch = Vec::new();
        // One accumulator over all rows...
        let all: Vec<(&[u32], f64)> = vec![(&[1], 1.0), (&[2], 2.0), (&[1], 3.0), (&[3], 4.0)];
        let (expect, _) = absorb_all(&kernel, &all, mode);
        // ...versus two partials merged.
        let mut cpu = CpuCounters::default();
        let mut a = kernel.new_acc();
        let mut b = kernel.new_acc();
        for &(k, m) in &all[..2] {
            kernel.absorb(&mut a, mode, k, m, &mut scratch, &mut cpu);
        }
        for &(k, m) in &all[2..] {
            kernel.absorb(&mut b, mode, k, m, &mut scratch, &mut cpu);
        }
        let mut merged = kernel.new_acc();
        let mut merge_cpu = CpuCounters::default();
        kernel.merge_partial(&mut merged, &a, mode, &mut merge_cpu);
        kernel.merge_partial(&mut merged, &b, mode, &mut merge_cpu);
        assert_eq!(kernel.n_groups(&merged), 3);
        // Per partial group: one probe; builds + updates partition them.
        assert_eq!(merge_cpu.hash_probes, 4);
        assert_eq!(merge_cpu.hash_builds, 3);
        assert_eq!(merge_cpu.agg_updates, 1);
        let mut got: Vec<(Vec<u32>, f64)> = kernel
            .into_groups(merged)
            .into_iter()
            .map(|(k, st)| (k, st.value(mode)))
            .collect();
        got.sort_by(|x, y| x.0.cmp(&y.0));
        assert_eq!(got, expect);
    }
}
