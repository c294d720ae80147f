//! Compiled per-query pipelines.
//!
//! Before execution, a query is *compiled against a source table* into a
//! [`DimPipeline`]: per-dimension divisors that roll stored keys up to the
//! predicate and target levels, the predicate member lists, and the set of
//! dimensions that require a dimension-table probe.
//!
//! In a real star schema the roll-up is a foreign-key join with a dimension
//! table; with dense member ids and uniform fan-outs it is integer
//! division. The *work accounting* still models the join: each tuple pays
//! one hash probe per dimension that needs mapping (shared across queries
//! by the shared operators — that is precisely the §3.1 "share hash tables
//! instead of redundantly building and probing" saving), and building those
//! tables costs one hash insert per dimension row.

use starshare_olap::{CombineMode, GroupBy, GroupByQuery, LevelRef, StarSchema};
use starshare_storage::{CpuCounters, ScanBatch};

use crate::error::ExecError;
use crate::kernel::{AggKernel, GroupAcc, KernelTier};

/// Stored-key domains up to this size (1 Ki words = 8 KiB, L1-resident) get
/// the roll-up divisor folded into the bitset at compile time, making the
/// hot membership test a single divisionless bit probe. The class kernel
/// (`crate::class_kernel`) uses the same bound for its per-key query masks.
pub(crate) const STORED_BITSET_MAX_DOMAIN: u64 = 1 << 16;

/// Member domains up to this size get a word-level bitset membership test
/// on the *rolled* key (16 words max); larger domains binary-search the
/// sorted member list.
const ROLLED_BITSET_MAX_DOMAIN: u32 = 1024;

/// How a compiled predicate tests membership.
#[derive(Debug, Clone)]
enum PredTest {
    /// Bit `k` set iff *stored* key `k` rolls up to a qualifying member —
    /// the roll-up division is pre-applied over the whole stored domain at
    /// compile time.
    StoredBitset(Vec<u64>),
    /// Bit `m` set iff member `m` qualifies; indexed by the rolled key.
    RolledBitset(Vec<u64>),
    /// Roll up, then binary-search the sorted member list.
    Sorted,
}

/// One compiled predicate on a stored-key dimension.
#[derive(Debug, Clone)]
struct PredStep {
    dim: usize,
    divisor: u32,
    /// Sorted member ids at the predicate level.
    members: Vec<u32>,
    test: PredTest,
}

#[inline]
fn bit_set(words: &[u64], k: u32) -> bool {
    words
        .get((k / 64) as usize)
        .is_some_and(|w| w >> (k % 64) & 1 == 1)
}

impl PredStep {
    fn compile(dim: usize, divisor: u32, members: Vec<u32>, domain: u32) -> Self {
        debug_assert!(
            members.windows(2).all(|w| w[0] < w[1]),
            "predicate members must be sorted and deduplicated"
        );
        let stored_domain = domain as u64 * divisor as u64;
        let test = if stored_domain <= STORED_BITSET_MAX_DOMAIN {
            let mut words = vec![0u64; (stored_domain as usize).div_ceil(64).max(1)];
            for &m in &members {
                // Every stored key in [m·divisor, (m+1)·divisor) rolls up
                // to member m.
                for k in m * divisor..(m + 1) * divisor {
                    words[(k / 64) as usize] |= 1 << (k % 64);
                }
            }
            PredTest::StoredBitset(words)
        } else if domain <= ROLLED_BITSET_MAX_DOMAIN {
            let mut words = vec![0u64; (domain as usize).div_ceil(64).max(1)];
            for &m in &members {
                words[(m / 64) as usize] |= 1 << (m % 64);
            }
            PredTest::RolledBitset(words)
        } else {
            PredTest::Sorted
        };
        PredStep {
            dim,
            divisor,
            members,
            test,
        }
    }

    /// Membership test on the *stored* key (the roll-up happens inside,
    /// where the compiled representation can skip it).
    #[inline]
    fn matches_stored(&self, key: u32) -> bool {
        match &self.test {
            PredTest::StoredBitset(words) => bit_set(words, key),
            PredTest::RolledBitset(words) => bit_set(words, key / self.divisor),
            PredTest::Sorted => self.members.binary_search(&(key / self.divisor)).is_ok(),
        }
    }

    /// Applies this predicate to one batch column, narrowing the selection
    /// vector. `seeded == false` means `sel` is conceptually all of
    /// `0..col.len()` and gets rebuilt; otherwise `sel`'s rows are filtered
    /// in place. The representation dispatch happens once per column, and
    /// the per-element compaction is branchless, keeping the hot loop to a
    /// load, a bit probe, and an unconditional store.
    fn filter_col(&self, col: &[u32], sel: &mut Vec<u32>, seeded: bool) {
        match &self.test {
            PredTest::StoredBitset(words) => sift(col, sel, seeded, |k| bit_set(words, k)),
            PredTest::RolledBitset(words) => {
                let d = self.divisor;
                sift(col, sel, seeded, |k| bit_set(words, k / d))
            }
            PredTest::Sorted => {
                let d = self.divisor;
                sift(col, sel, seeded, |k| {
                    self.members.binary_search(&(k / d)).is_ok()
                })
            }
        }
    }
}

/// Branchless selection-vector compaction: writes the row index on every
/// iteration and advances the output cursor only when `keep` holds.
#[inline]
fn sift(col: &[u32], sel: &mut Vec<u32>, seeded: bool, keep: impl Fn(u32) -> bool) {
    let mut out = 0usize;
    if !seeded {
        sel.clear();
        sel.resize(col.len(), 0);
        for (i, &k) in col.iter().enumerate() {
            sel[out] = i as u32;
            out += keep(k) as usize;
        }
    } else {
        for j in 0..sel.len() {
            let i = sel[j];
            sel[out] = i;
            out += keep(col[i as usize]) as usize;
        }
    }
    sel.truncate(out);
}

/// A query compiled against a specific source table.
#[derive(Debug, Clone)]
pub struct DimPipeline {
    preds: Vec<PredStep>,
    /// Bit `d` set iff dimension `d` needs a dimension-table probe (its
    /// target or predicate level is coarser than the stored level).
    probe_mask: u64,
    /// Rows to insert when building the needed dimension hash tables: the
    /// summed cardinality of the probed dimensions at their stored levels.
    build_rows: u64,
    /// The aggregation kernel chosen from the target group-by's exact
    /// cardinalities.
    kernel: AggKernel,
}

impl DimPipeline {
    /// Compiles `query` against a table storing `stored` levels.
    ///
    /// Fails if the table cannot answer the query.
    pub fn compile(
        schema: &StarSchema,
        stored: &GroupBy,
        query: &GroupByQuery,
    ) -> Result<Self, ExecError> {
        if !query.answerable_from(stored) {
            return Err(ExecError::new(format!(
                "query {} is not answerable from {}",
                query.display(schema),
                stored.display(schema)
            )));
        }
        let mut preds = Vec::new();
        let mut agg_extract = Vec::new();
        let mut agg_cards = Vec::new();
        let mut probe_mask = 0u64;
        let mut build_rows = 0u64;
        for d in 0..schema.n_dims() {
            let dim = schema.dim(d);
            let s = match stored.level(d) {
                LevelRef::Level(s) => s,
                LevelRef::All => continue, // target and pred are All too
            };
            let mut needs_probe = false;
            if let LevelRef::Level(t) = query.group_by.level(d) {
                agg_extract.push((d, dim.cardinality(s) / dim.cardinality(t)));
                agg_cards.push(dim.cardinality(t));
                needs_probe |= t > s;
            }
            if let starshare_olap::MemberPred::In { level: p, members } = &query.preds[d] {
                preds.push(PredStep::compile(
                    d,
                    dim.cardinality(s) / dim.cardinality(*p),
                    members.clone(),
                    dim.cardinality(*p),
                ));
                needs_probe |= *p > s;
            }
            if needs_probe {
                probe_mask |= 1 << d;
                build_rows += dim.cardinality(s) as u64;
            }
        }
        debug_assert_eq!(
            agg_cards,
            query.group_by.key_cardinalities(schema),
            "grouped dimensions must line up with the query's key space"
        );
        Ok(DimPipeline {
            kernel: AggKernel::compile(agg_extract, agg_cards),
            preds,
            probe_mask,
            build_rows,
        })
    }

    /// The compiled aggregation kernel.
    pub fn kernel(&self) -> &AggKernel {
        &self.kernel
    }

    /// Which representation the aggregation kernel compiled to.
    pub fn kernel_tier(&self) -> KernelTier {
        self.kernel.tier()
    }

    /// Dimensions needing a dimension-table probe, as a bit mask.
    pub fn probe_mask(&self) -> u64 {
        self.probe_mask
    }

    /// Hash-table rows to build for this pipeline's probed dimensions.
    pub fn build_rows(&self) -> u64 {
        self.build_rows
    }

    /// Evaluates the predicates on a stored-key tuple, skipping those on
    /// dimensions in `skip_mask` (already guaranteed by a bitmap-index
    /// lookup) and charging one predicate evaluation per step actually
    /// executed (short-circuit).
    pub fn filter_skipping(&self, keys: &[u32], cpu: &mut CpuCounters, skip_mask: u64) -> bool {
        for p in &self.preds {
            if skip_mask & (1 << p.dim) != 0 {
                continue;
            }
            cpu.predicate_evals += 1;
            if !p.matches_stored(keys[p.dim]) {
                return false;
            }
        }
        true
    }

    /// Feeds a whole columnar [`ScanBatch`] into `acc`: a selection-vector
    /// cascade over the predicate columns, then the kernel absorbs the
    /// survivors straight from the batch.
    ///
    /// With `seeded == false` the cascade starts from every row of the
    /// batch and `sel` is only scratch space; with `seeded == true` it
    /// starts from the rows already in `sel` (ascending) — an index
    /// member's bitmap candidates.
    ///
    /// Charge-equivalent to calling [`filter_skipping`](Self::filter_skipping)
    /// plus [`AggKernel::absorb`] on every starting row: predicate `k` runs
    /// (and charges one `predicate_evals`) exactly for the rows that
    /// survived predicates `1..k` — the same rows the per-row short-circuit
    /// would have reached it with — and survivors absorb in row order, so
    /// results, counters, and the simulated clock are bit-identical to the
    /// row-at-a-time path. Only the memory access pattern changes: each
    /// predicate streams one dense `u32` column instead of striding across
    /// row-major tuples.
    #[allow(clippy::too_many_arguments)]
    pub fn feed_batch(
        &self,
        mode: CombineMode,
        skip_mask: u64,
        batch: &ScanBatch,
        acc: &mut GroupAcc,
        sel: &mut Vec<u32>,
        seeded: bool,
        cpu: &mut CpuCounters,
    ) {
        self.select(|d| batch.col(d), batch.len(), skip_mask, sel, seeded, cpu);
        self.absorb_selected(mode, batch, sel, acc, cpu);
    }

    /// The predicate cascade of [`feed_batch`](Self::feed_batch) over any
    /// `n`-row column set (`col(d)` is dimension `d`'s stored keys): leaves
    /// in `sel`, ascending, the starting rows that pass every predicate not
    /// in `skip_mask`. Predicates run one column at a time in dimension
    /// order, and each charges one `predicate_evals` per row it sees —
    /// exactly the rows the per-row short-circuit of
    /// [`filter_skipping`](Self::filter_skipping) would test it on.
    #[inline]
    pub(crate) fn select<'c>(
        &self,
        col: impl Fn(usize) -> &'c [u32],
        n: usize,
        skip_mask: u64,
        sel: &mut Vec<u32>,
        mut seeded: bool,
        cpu: &mut CpuCounters,
    ) {
        for p in &self.preds {
            if skip_mask & (1 << p.dim) != 0 {
                continue;
            }
            cpu.predicate_evals += if seeded { sel.len() } else { n } as u64;
            p.filter_col(col(p.dim), sel, seeded);
            seeded = true;
        }
        if !seeded {
            sel.clear();
            sel.extend(0..n as u32);
        }
    }

    /// Absorbs the batch rows listed in `sel` (ascending) into `acc`.
    pub(crate) fn absorb_selected(
        &self,
        mode: CombineMode,
        batch: &ScanBatch,
        sel: &[u32],
        acc: &mut GroupAcc,
        cpu: &mut CpuCounters,
    ) {
        for &i in sel {
            self.kernel.absorb_row(acc, mode, batch, i as usize, cpu);
        }
    }

    /// The predicate on dimension `d`, if any, as the half-open ranges of
    /// *stored* keys that satisfy it (one range per qualifying member,
    /// ascending; ranges are not clipped to the stored domain).
    pub(crate) fn stored_ranges(&self, d: usize) -> Option<impl Iterator<Item = (u64, u64)> + '_> {
        let p = self.preds.iter().find(|p| p.dim == d)?;
        let div = u64::from(p.divisor);
        Some(
            p.members
                .iter()
                .map(move |&m| (u64::from(m) * div, (u64::from(m) + 1) * div)),
        )
    }

    /// True if the query has any predicate not covered by `skip_mask`.
    pub fn has_residual_preds(&self, skip_mask: u64) -> bool {
        self.preds.iter().any(|p| skip_mask & (1 << p.dim) == 0)
    }

    /// Dimensions carrying predicates, as a bit mask.
    pub fn pred_mask(&self) -> u64 {
        self.preds.iter().fold(0, |m, p| m | 1 << p.dim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starshare_olap::{Dimension, GroupBy, GroupByQuery, MemberPred};

    /// A stored-key tuple's aggregation key, rolled to the target levels.
    fn rolled(p: &DimPipeline, keys: &[u32]) -> Vec<u32> {
        p.kernel().codec().rolled(|d| keys[d]).collect()
    }

    fn schema() -> StarSchema {
        StarSchema::new(
            vec![
                Dimension::uniform("A", 3, &[2, 10]),
                Dimension::uniform("B", 3, &[2, 10]),
            ],
            "m",
        )
    }

    #[test]
    fn compile_rejects_unanswerable() {
        let s = schema();
        let stored = GroupBy::parse(&s, "A'B'").unwrap();
        let q = GroupByQuery::unfiltered(GroupBy::finest(2));
        assert!(DimPipeline::compile(&s, &stored, &q).is_err());
    }

    #[test]
    fn probe_mask_reflects_levels() {
        let s = schema();
        let stored = GroupBy::finest(2);
        // Target A' B: A needs a probe (roll 0→1), B does not.
        let q = GroupByQuery::unfiltered(GroupBy::parse(&s, "A'B").unwrap());
        let p = DimPipeline::compile(&s, &stored, &q).unwrap();
        assert_eq!(p.probe_mask(), 0b01);
        assert_eq!(p.build_rows(), 60);
        // Predicate at a coarser level also forces a probe.
        let q2 = GroupByQuery::new(
            GroupBy::finest(2),
            vec![MemberPred::All, MemberPred::eq(2, 0)],
        );
        let p2 = DimPipeline::compile(&s, &stored, &q2).unwrap();
        assert_eq!(p2.probe_mask(), 0b10);
        // Target == stored, pred at stored level: no probes at all.
        let q3 = GroupByQuery::new(
            GroupBy::finest(2),
            vec![MemberPred::eq(0, 5), MemberPred::All],
        );
        let p3 = DimPipeline::compile(&s, &stored, &q3).unwrap();
        assert_eq!(p3.probe_mask(), 0);
        assert_eq!(p3.build_rows(), 0);
    }

    #[test]
    fn filter_rolls_and_tests() {
        let s = schema();
        let stored = GroupBy::finest(2);
        // A'' = A1 (top member 0): leaves 0..20 qualify.
        let q = GroupByQuery::new(
            GroupBy::parse(&s, "A''B").unwrap(),
            vec![MemberPred::eq(2, 0), MemberPred::All],
        );
        let p = DimPipeline::compile(&s, &stored, &q).unwrap();
        let mut cpu = CpuCounters::default();
        assert!(p.filter_skipping(&[0, 0], &mut cpu, 0));
        assert!(p.filter_skipping(&[19, 0], &mut cpu, 0));
        assert!(!p.filter_skipping(&[20, 0], &mut cpu, 0));
        assert_eq!(cpu.predicate_evals, 3);
    }

    #[test]
    fn filter_short_circuits() {
        let s = schema();
        let stored = GroupBy::finest(2);
        let q = GroupByQuery::new(
            GroupBy::finest(2),
            vec![MemberPred::eq(2, 0), MemberPred::eq(2, 0)],
        );
        let p = DimPipeline::compile(&s, &stored, &q).unwrap();
        let mut cpu = CpuCounters::default();
        // First pred fails → second never evaluated.
        assert!(!p.filter_skipping(&[59, 0], &mut cpu, 0));
        assert_eq!(cpu.predicate_evals, 1);
    }

    #[test]
    fn filter_skipping_honours_mask() {
        let s = schema();
        let stored = GroupBy::finest(2);
        let q = GroupByQuery::new(
            GroupBy::finest(2),
            vec![MemberPred::eq(2, 0), MemberPred::eq(2, 0)],
        );
        let p = DimPipeline::compile(&s, &stored, &q).unwrap();
        let mut cpu = CpuCounters::default();
        // Skip dim 0's pred: tuple failing only on dim 0 now passes dim 1.
        assert!(p.filter_skipping(&[59, 0], &mut cpu, 0b01));
        assert_eq!(cpu.predicate_evals, 1);
        assert!(p.has_residual_preds(0b01));
        assert!(!p.has_residual_preds(0b11));
        assert_eq!(p.pred_mask(), 0b11);
    }

    #[test]
    fn agg_key_extraction() {
        let s = schema();
        let stored = GroupBy::finest(2);
        let q = GroupByQuery::unfiltered(GroupBy::parse(&s, "A''B*").unwrap());
        let p = DimPipeline::compile(&s, &stored, &q).unwrap();
        assert_eq!(rolled(&p, &[25, 3]), vec![1]); // leaf 25 → top 1; B aggregated away
        let q2 = GroupByQuery::unfiltered(GroupBy::parse(&s, "AB'").unwrap());
        let p2 = DimPipeline::compile(&s, &stored, &q2).unwrap();
        assert_eq!(rolled(&p2, &[25, 33]), vec![25, 3]);
    }

    #[test]
    fn compile_against_all_dimension() {
        let s = schema();
        let stored = GroupBy::new(vec![LevelRef::Level(1), LevelRef::All]);
        let q = GroupByQuery::unfiltered(GroupBy::new(vec![LevelRef::Level(2), LevelRef::All]));
        let p = DimPipeline::compile(&s, &stored, &q).unwrap();
        assert_eq!(rolled(&p, &[3, 0]), vec![1]); // A' 3 → A'' 1
        assert_eq!(p.probe_mask(), 0b01);
    }
}
