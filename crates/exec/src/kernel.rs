//! Tiered aggregation kernels.
//!
//! The scan+aggregate inner loop dominates every strategy in the paper
//! (§3, §7). An [`AggKernel`] is compiled per query at `QueryState::compile`
//! time from *exact* catalog cardinalities through the cube's group-key
//! codec ([`starshare_olap::groupkey`]), whose tier picks the accumulator:
//! a flat slot array indexed by the packed mixed-radix key when the
//! group-by has at most [`DENSE_MAX_GROUPS`] keys ([`KernelTier::Dense`]),
//! a hash map on the packed `u64` key when the key space fits 64 bits
//! ([`KernelTier::Packed`]), and one on the codec's spilled key past that
//! ([`KernelTier::Spill`]). Every tier probes its table once per tuple.
//!
//! The load-bearing invariant: **every tier charges the identical
//! [`CpuCounters`]** — one `hash_probes` per qualifying tuple, one
//! `hash_builds` per new group, one `agg_updates` and `tuple_copies` per
//! qualifying tuple — and per-group measures fold in scan order in every
//! tier, so query results, counters, and the simulated clock are
//! bit-identical across tiers. The kernels change real wall time only.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};

use starshare_olap::groupkey::{GroupKey, GroupKeyCodec, GroupMap, PackedMap};
use starshare_olap::{AggState, CombineMode};
use starshare_storage::{CpuCounters, ScanBatch};

pub use starshare_olap::groupkey::KeyTier as KernelTier;

/// Largest exact group-by cardinality that gets a flat dense accumulator
/// (64 Ki slots ≈ 1 MiB of `AggState` per accumulator).
pub const DENSE_MAX_GROUPS: u64 = 1 << 16;

/// A compiled aggregation kernel: how one query's qualifying tuples become
/// `(group key, AggState)` pairs. Immutable after compilation — partitioned
/// workers share one kernel and give each partition a private [`GroupAcc`].
#[derive(Debug, Clone)]
pub struct AggKernel {
    codec: GroupKeyCodec,
}

impl AggKernel {
    /// Compiles a kernel for a group-by whose grouped dimensions are
    /// `extract` (`(source dim, roll-up divisor)` in dimension order) with
    /// exact target cardinalities `cards` (parallel to `extract`).
    pub fn compile(extract: Vec<(usize, u32)>, cards: Vec<u32>) -> Self {
        AggKernel {
            codec: GroupKeyCodec::new(&extract, cards, DENSE_MAX_GROUPS),
        }
    }

    /// The codec this kernel packs keys with.
    pub(crate) fn codec(&self) -> &GroupKeyCodec {
        &self.codec
    }

    /// The representation this kernel compiled to.
    pub fn tier(&self) -> KernelTier {
        self.codec.tier()
    }

    /// A fresh accumulator for this kernel.
    pub fn new_acc(&self) -> GroupAcc {
        match (self.codec.tier(), self.codec.domain()) {
            (KernelTier::Dense, Some(total)) => GroupAcc::Dense {
                slots: vec![AggState::default(); total as usize],
                occupied: vec![0u64; (total as usize).div_ceil(64)],
            },
            (KernelTier::Spill, _) => GroupAcc::Spill(GroupMap::default()),
            _ => GroupAcc::Packed(PackedMap::default()),
        }
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
        cpu: &mut CpuCounters,
    ) {
        self.absorb_keyed(acc, mode, |d| keys[d], measure, cpu);
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
        cpu: &mut CpuCounters,
    ) {
        self.absorb_keyed(acc, mode, |d| batch.key(d, row), batch.measure(row), cpu);
    }

    #[inline]
    fn absorb_keyed(
        &self,
        acc: &mut GroupAcc,
        mode: CombineMode,
        get: impl Fn(usize) -> u32,
        measure: f64,
        cpu: &mut CpuCounters,
    ) {
        cpu.hash_probes += 1; // aggregation-table lookup
        match acc {
            GroupAcc::Dense { slots, occupied } => {
                let off = self.codec.pack_with(get) as usize;
                let (word, bit) = (off / 64, off % 64);
                if occupied[word] >> bit & 1 == 1 {
                    slots[off].fold(mode, measure);
                } else {
                    cpu.hash_builds += 1;
                    occupied[word] |= 1 << bit;
                    slots[off] = AggState::first(mode, measure);
                }
            }
            GroupAcc::Packed(map) => {
                absorb_entry(map.entry(self.codec.pack_with(get)), mode, measure, cpu)
            }
            GroupAcc::Spill(map) => {
                absorb_entry(map.entry(self.codec.key(get)), mode, measure, cpu)
            }
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
            (GroupAcc::Packed(dst), GroupAcc::Packed(src)) => merge_map(dst, src, mode, cpu),
            (GroupAcc::Spill(dst), GroupAcc::Spill(src)) => merge_map(dst, src, mode, cpu),
            _ => unreachable!("merging accumulators of different kernel tiers"),
        }
    }

    /// Consumes an accumulator into `(group key, state)` pairs with the
    /// keys unpacked back to `Vec<u32>` form (unordered — results are
    /// sorted downstream by `QueryResult::from_groups`).
    pub fn into_groups(&self, acc: GroupAcc) -> Vec<(Vec<u32>, AggState)> {
        match acc {
            GroupAcc::Dense { slots, occupied } => {
                let mut out = Vec::new();
                for (word, &w) in occupied.iter().enumerate() {
                    let mut rest = w;
                    while rest != 0 {
                        let bit = rest.trailing_zeros() as usize;
                        rest &= rest - 1;
                        let off = word * 64 + bit;
                        out.push((self.codec.unpack(&GroupKey::Packed(off as u64)), slots[off]));
                    }
                }
                out
            }
            GroupAcc::Packed(map) => map
                .into_iter()
                .map(|(k, st)| (self.codec.unpack(&GroupKey::Packed(k)), st))
                .collect(),
            GroupAcc::Spill(map) => map
                .into_iter()
                .map(|(k, st)| (self.codec.unpack(&k), st))
                .collect(),
        }
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

/// Folds `measure` into `entry`'s group, charging `hash_builds` for a new
/// one.
#[inline]
fn absorb_entry<K>(
    entry: Entry<'_, K, AggState>,
    mode: CombineMode,
    measure: f64,
    cpu: &mut CpuCounters,
) {
    match entry {
        Entry::Occupied(mut e) => e.get_mut().fold(mode, measure),
        Entry::Vacant(e) => {
            cpu.hash_builds += 1;
            e.insert(AggState::first(mode, measure));
        }
    }
}

/// Merges every group of `src` into `dst`: one `hash_probes` each, then
/// `agg_updates` on a hit or `hash_builds` on a miss.
fn merge_map<K: Clone + Eq + Hash, S: BuildHasher>(
    dst: &mut HashMap<K, AggState, S>,
    src: &HashMap<K, AggState, S>,
    mode: CombineMode,
    cpu: &mut CpuCounters,
) {
    for (k, st) in src {
        cpu.hash_probes += 1;
        match dst.entry(k.clone()) {
            Entry::Occupied(mut e) => {
                e.get_mut().merge(mode, st);
                cpu.agg_updates += 1;
            }
            Entry::Vacant(e) => {
                cpu.hash_builds += 1;
                e.insert(*st);
            }
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
    Packed(PackedMap<AggState>),
    /// Hash accumulator on the codec's spilled keys.
    Spill(GroupMap<AggState>),
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
        let mut cpu = CpuCounters::default();
        for &(keys, m) in rows {
            kernel.absorb(&mut acc, mode, keys, m, &mut cpu);
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
    fn merge_matches_single_accumulator() {
        let kernel = AggKernel::compile(vec![(0, 1)], vec![16]);
        let mode = CombineMode::Add;
        // One accumulator over all rows...
        let all: Vec<(&[u32], f64)> = vec![(&[1], 1.0), (&[2], 2.0), (&[1], 3.0), (&[3], 4.0)];
        let (expect, _) = absorb_all(&kernel, &all, mode);
        // ...versus two partials merged.
        let mut cpu = CpuCounters::default();
        let mut a = kernel.new_acc();
        let mut b = kernel.new_acc();
        for &(k, m) in &all[..2] {
            kernel.absorb(&mut a, mode, k, m, &mut cpu);
        }
        for &(k, m) in &all[2..] {
            kernel.absorb(&mut b, mode, k, m, &mut cpu);
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
