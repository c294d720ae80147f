//! One group-key codec for the cube lattice.
//!
//! Aggregation kernels, view materialization, a view's group-position
//! index, an append's delta and the result cache's patches and roll-ups
//! all roll stored keys up to a group-by and key a map by the result; a
//! [`GroupKeyCodec`] is the one place that is done, and [`fold`] the one
//! place partial aggregates outside the scan kernel combine. Keys pack
//! lexicographically (mixed radix, Horner's rule), so packed order is key
//! order. DESIGN.md ("One group-key codec") has the tiers and each
//! caller's cap.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use starshare_storage::ScanBatch;

use crate::query::{Distributive, GroupBy};
use crate::schema::StarSchema;

/// Hasher for packed `u64` group keys: the SplitMix64 finalizer, applied to
/// the single `write_u64` the map performs per operation. Deterministic
/// (unlike `RandomState`) and a handful of arithmetic ops instead of
/// SipHash rounds.
#[derive(Debug, Default)]
pub struct PackedKeyHasher(u64);

impl Hasher for PackedKeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Reached by spilled key vectors; FNV-1a keeps them correct.
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// A [`GroupKey`]'s variant tag, overwritten by the packed key after
    /// it; a spilled key's length, which FNV-1a continues from.
    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
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

/// A hash map on packed keys.
pub type PackedMap<V> = HashMap<u64, V, BuildHasherDefault<PackedKeyHasher>>;

/// A hash map on [`GroupKey`]s.
pub type GroupMap<V> = HashMap<GroupKey, V, BuildHasherDefault<PackedKeyHasher>>;

/// Which representation a codec's keys take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyTier {
    /// The domain is within the caller's cap: packed keys index a flat array.
    Dense,
    /// The domain fits `u64`: packed keys key a hash map.
    Packed,
    /// The domain overflows `u64`: keys stay vectors of rolled keys.
    Spill,
}

/// A group key as its codec represents it. Keys of one codec share a
/// variant, and their order is key order.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GroupKey {
    /// Packed (the Dense and Packed tiers).
    Packed(u64),
    /// The rolled keys (the Spill tier).
    Spill(Box<[u32]>),
}

/// Packs, unpacks and tiers the group keys of one group-by.
#[derive(Debug, Clone)]
pub struct GroupKeyCodec {
    /// Per grouped dimension `(dim, divisor, weight)`: the digit is the
    /// stored key of `dim` divided by `divisor`, and weighs `weight`.
    dims: Vec<(usize, u32, u64)>,
    cards: Vec<u32>,
    domain: Option<u64>,
    tier: KeyTier,
}

impl GroupKeyCodec {
    /// A codec for grouped dimensions `extract` (`(source dim, roll-up
    /// divisor)`, in dimension order) whose rolled keys have the exact
    /// cardinalities `cards`; Dense when the domain is at most `dense_max`.
    ///
    /// # Panics
    /// Panics if `extract` and `cards` differ in length.
    pub fn new(extract: &[(usize, u32)], cards: Vec<u32>, dense_max: u64) -> Self {
        assert_eq!(extract.len(), cards.len(), "one card per dimension");
        let domain = cards
            .iter()
            .try_fold(1u64, |acc, &c| acc.checked_mul(c as u64));
        let tier = match domain {
            Some(n) if n <= dense_max => KeyTier::Dense,
            Some(_) => KeyTier::Packed,
            None => KeyTier::Spill,
        };
        // A digit weighs the product of the cardinalities after it.
        let mut weight = 1u64;
        let mut dims: Vec<(usize, u32, u64)> = extract
            .iter()
            .zip(&cards)
            .rev()
            .map(|(&(dim, divisor), &card)| {
                let digit = (dim, divisor, weight);
                weight = weight.saturating_mul(card as u64);
                digit
            })
            .collect();
        dims.reverse();
        GroupKeyCodec {
            dims,
            cards,
            domain,
            tier,
        }
    }

    /// The codec rolling keys stored at `from` to `to`, one digit per
    /// dimension (All is a level of one member): it unpacks to the stored
    /// keys of a table at `to`.
    pub fn rolling(schema: &StarSchema, from: &GroupBy, to: &GroupBy, dense_max: u64) -> Self {
        let n = schema.n_dims();
        let cards: Vec<u32> = (0..n)
            .map(|d| to.level(d).cardinality(schema.dim(d)))
            .collect();
        let extract: Vec<(usize, u32)> = (0..n)
            .map(|d| (d, from.level(d).cardinality(schema.dim(d)) / cards[d]))
            .collect();
        Self::new(&extract, cards, dense_max)
    }

    /// The representation this codec's keys take.
    pub fn tier(&self) -> KeyTier {
        self.tier
    }

    /// Number of possible keys, `None` past `u64`.
    pub fn domain(&self) -> Option<u64> {
        self.domain
    }

    /// Panics unless every grouped column of `batch` holds keys within the
    /// level it is rolled from (`divisor · card` members).
    pub fn assert_in_domain(&self, batch: &ScanBatch) {
        for (&(dim, divisor, _), &card) in self.dims.iter().zip(&self.cards) {
            let members = divisor as u64 * card as u64;
            let col = batch.col(dim);
            assert!(
                col.iter().all(|&k| (k as u64) < members),
                "key outside its level"
            );
        }
    }

    /// Packs the rolled keys; `get(dim)` supplies a source dimension's
    /// stored key. Meaningless in the Spill tier.
    #[inline]
    pub fn pack_with(&self, get: impl Fn(usize) -> u32) -> u64 {
        let mut off = 0u64;
        for &(dim, divisor, weight) in &self.dims {
            off += (get(dim) / divisor) as u64 * weight;
        }
        off
    }

    /// The rolled keys, one per grouped dimension.
    #[inline]
    pub fn rolled<'a>(&'a self, get: impl Fn(usize) -> u32 + 'a) -> impl Iterator<Item = u32> + 'a {
        self.dims
            .iter()
            .map(move |&(dim, divisor, _)| get(dim) / divisor)
    }

    /// A row's key in this codec's representation.
    #[inline]
    pub fn key(&self, get: impl Fn(usize) -> u32) -> GroupKey {
        match self.tier {
            KeyTier::Spill => GroupKey::Spill(self.rolled(get).collect()),
            _ => GroupKey::Packed(self.pack_with(get)),
        }
    }

    /// Inverts [`key`](Self::key): `key`'s rolled keys, one per grouped
    /// dimension.
    pub fn unpack(&self, key: &GroupKey) -> Vec<u32> {
        let mut out = vec![0u32; self.cards.len()];
        self.unpack_into(key, &mut out);
        out
    }

    /// Writes `key`'s rolled keys to `out`, one per grouped dimension.
    pub fn unpack_into(&self, key: &GroupKey, out: &mut [u32]) {
        match key {
            GroupKey::Packed(packed) => {
                let mut rest = *packed;
                for (slot, &card) in out.iter_mut().zip(&self.cards).rev() {
                    *slot = (rest % card as u64) as u32;
                    rest /= card as u64;
                }
            }
            GroupKey::Spill(keys) => out.copy_from_slice(keys),
        }
    }
}

/// Folds `(key, partial)` pairs with `agg`, combining each key's partials
/// in pair order: one pair per distinct key, in key order. Keys come from
/// one codec, so they share a variant. Counts nothing; callers charge the
/// work.
pub fn fold(
    agg: Distributive,
    pairs: impl IntoIterator<Item = (GroupKey, f64)>,
) -> Vec<(GroupKey, f64)> {
    let mut groups: GroupMap<f64> = GroupMap::default();
    for (key, v) in pairs {
        groups
            .entry(key)
            .and_modify(|acc| *acc = agg.combine(*acc, v))
            .or_insert(v);
    }
    let mut out: Vec<(GroupKey, f64)> = groups.into_iter().collect();
    out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use starshare_prng::Prng;

    /// Random cardinalities (some of one member) and keys within them.
    fn random_case(rng: &mut Prng, max_card: u32) -> (Vec<u32>, Vec<Vec<u32>>) {
        let n = rng.gen_range(0..6u32) as usize;
        let cards: Vec<u32> = (0..n).map(|_| rng.gen_range(1..max_card)).collect();
        let keys = (0..50)
            .map(|_| cards.iter().map(|&c| rng.gen_range(0..c)).collect())
            .collect();
        (cards, keys)
    }

    fn identity(n: usize) -> Vec<(usize, u32)> {
        (0..n).map(|d| (d, 1)).collect()
    }

    #[test]
    fn unpack_inverts_pack() {
        let mut rng = Prng::seed_from_u64(0x6b01);
        for _ in 0..200 {
            let (cards, keys) = random_case(&mut rng, 5000);
            let codec = GroupKeyCodec::new(&identity(cards.len()), cards, 1 << 16);
            for k in keys {
                let packed = codec.pack_with(|d| k[d]);
                assert!(packed < codec.domain().unwrap());
                assert_eq!(codec.unpack(&GroupKey::Packed(packed)), k);
                assert_eq!(codec.unpack(&codec.key(|d| k[d])), k);
            }
        }
    }

    #[test]
    fn packing_is_monotone_in_key_order() {
        let mut rng = Prng::seed_from_u64(0x6b02);
        for _ in 0..200 {
            let (cards, keys) = random_case(&mut rng, 40);
            let codec = GroupKeyCodec::new(&identity(cards.len()), cards, 0);
            for a in &keys {
                for b in &keys {
                    let (pa, pb) = (codec.pack_with(|d| a[d]), codec.pack_with(|d| b[d]));
                    assert_eq!(pa.cmp(&pb), a.cmp(b), "{a:?} vs {b:?}");
                }
            }
        }
    }

    #[test]
    fn divisors_roll_source_keys() {
        // A stored at 60 members rolled to 6, B kept at 3.
        let codec = GroupKeyCodec::new(&[(2, 10), (0, 1)], vec![6, 3], 0);
        let stored = [2u32, 99, 47];
        assert_eq!(codec.unpack(&codec.key(|d| stored[d])), vec![4, 2]);
        assert_eq!(codec.rolled(|d| stored[d]).collect::<Vec<_>>(), vec![4, 2]);
    }

    #[test]
    fn tier_boundaries() {
        let cap = 6 * 7;
        let tier = |cards: Vec<u32>| GroupKeyCodec::new(&identity(cards.len()), cards, cap).tier();
        assert_eq!(tier(vec![6, 7]), KeyTier::Dense);
        assert_eq!(tier(vec![43]), KeyTier::Packed);
        assert_eq!(tier(vec![]), KeyTier::Dense, "no dimensions: one key");
        assert_eq!(tier(vec![u32::MAX, u32::MAX]), KeyTier::Packed);
        assert_eq!(tier(vec![1 << 16; 4]), KeyTier::Spill, "2^64 keys");
        let edge = GroupKeyCodec::new(
            &identity(4),
            vec![1 << 16, 1 << 16, 1 << 16, (1 << 16) - 1],
            0,
        );
        assert_eq!(edge.domain(), Some((1 << 48) * ((1 << 16) - 1)));
        assert_eq!(edge.tier(), KeyTier::Packed);
        let top = [(1 << 16) - 1, (1 << 16) - 1, (1 << 16) - 1, (1 << 16) - 2];
        assert_eq!(edge.pack_with(|d| top[d]), edge.domain().unwrap() - 1);
    }

    #[test]
    fn spilled_keys_round_trip_in_key_order() {
        let codec = GroupKeyCodec::new(&identity(4), vec![1 << 16; 4], 0);
        assert_eq!(codec.tier(), KeyTier::Spill);
        assert_eq!(codec.domain(), None);
        let (a, b) = ([3u32, 0, 9, 9], [3u32, 1, 0, 0]);
        let (ka, kb) = (codec.key(|d| a[d]), codec.key(|d| b[d]));
        assert!(ka < kb);
        assert_eq!(codec.unpack(&kb), b);
    }

    /// `fold` against a `BTreeMap` on the rolled keys: one pair per key, in
    /// key order, every aggregate.
    fn check_fold(codec: &GroupKeyCodec, keys: &[Vec<u32>], rng: &mut Prng) {
        for agg in [
            Distributive::Sum,
            Distributive::Count,
            Distributive::Min,
            Distributive::Max,
        ] {
            let pairs: Vec<(Vec<u32>, f64)> = keys
                .iter()
                .map(|k| (k.clone(), rng.gen_range(0..400u32) as f64 * 0.25))
                .collect();
            let mut want = std::collections::BTreeMap::new();
            for (k, v) in &pairs {
                want.entry(k.clone())
                    .and_modify(|acc| *acc = agg.combine(*acc, *v))
                    .or_insert(*v);
            }
            let got: Vec<(Vec<u32>, f64)> =
                fold(agg, pairs.iter().map(|(k, v)| (codec.key(|d| k[d]), *v)))
                    .into_iter()
                    .map(|(key, v)| (codec.unpack(&key), v))
                    .collect();
            assert_eq!(got, want.into_iter().collect::<Vec<_>>(), "{agg:?}");
        }
    }

    #[test]
    fn fold_returns_one_pair_per_key_in_key_order() {
        let mut rng = Prng::seed_from_u64(0x6b03);
        for _ in 0..100 {
            let (cards, keys) = random_case(&mut rng, 6);
            let codec = GroupKeyCodec::new(&identity(cards.len()), cards, 0);
            check_fold(&codec, &keys, &mut rng);
        }
    }

    #[test]
    fn fold_combines_in_pair_order() {
        // 1e16 + 1 rounds back to 1e16, so the sum's value tells the order.
        let (k, other) = (GroupKey::Packed(3), GroupKey::Packed(1));
        let pairs = [
            (k.clone(), 1e16),
            (other.clone(), 2.0),
            (k.clone(), 1.0),
            (k.clone(), 1.0),
        ];
        assert_eq!(
            fold(Distributive::Sum, pairs),
            vec![(other, 2.0), (k.clone(), 1e16)]
        );
        let pairs = [(k.clone(), 1.0), (k.clone(), 1.0), (k.clone(), 1e16)];
        assert_eq!(fold(Distributive::Sum, pairs), vec![(k, 1e16 + 2.0)]);
    }

    #[test]
    fn fold_orders_spilled_keys() {
        let codec = GroupKeyCodec::new(&identity(4), vec![1 << 16; 4], 0);
        assert_eq!(codec.tier(), KeyTier::Spill);
        let mut rng = Prng::seed_from_u64(0x6b04);
        // Few distinct values per digit, so keys repeat and share prefixes.
        let keys: Vec<Vec<u32>> = (0..300)
            .map(|_| (0..4).map(|_| rng.gen_range(0..3u32) << 15).collect())
            .collect();
        check_fold(&codec, &keys, &mut rng);
    }
}
