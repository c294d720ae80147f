//! Lattice-subsumption result cache.
//!
//! A bounded, epoch-aware cache of [`QueryResult`]s, shared by every
//! session an engine serves. Entries are keyed on the full query identity —
//! target group-by, predicate set, aggregate — plus the cube's data
//! *epoch* (bumped by `starshare_olap::append_facts`), so stale answers
//! can never leak across a data change. An epoch move carries entries
//! forward two ways: [`ResultCache::apply_append`] **delta-patches** live
//! entries with the appended rows (the streaming-append fast path), while
//! [`ResultCache::advance_epoch`] drops everything stale (the fallback for
//! any other data change).
//!
//! Lookups answer two ways:
//!
//! * an **exact hit** returns the stored result directly (a memory read —
//!   charged nothing on the simulated clock, matching the engine's
//!   long-standing repeated-query semantics);
//! * a **subsumption hit** finds a cached *strictly finer* entry whose
//!   predicates cover the probe (Gray et al.'s data-cube derivability:
//!   a coarser group-by is re-aggregable from any finer one) and answers
//!   by rolling the cached rows up through the probe's [`DimPipeline`].
//!   A roll-up is an append patch of an empty result: the cached rows are
//!   the partials, and both fold through the group-key codec
//!   ([`starshare_olap::groupkey::fold`]). The rollup is charged honestly
//!   on the deterministic sim clock: one predicate evaluation per compiled
//!   step per cached row (short-circuit), one hash probe and one aggregate
//!   update per surviving row, and one tuple copy per emitted group — CPU
//!   over the cached rows instead of scan I/O over the base table.
//!
//! Eviction is **cost-based**, not LRU: each entry carries a *benefit* —
//! the simulated time a hit saves, seeded with the production cost of the
//! entry and grown on every hit — and the entry with the lowest
//! benefit-per-byte is evicted first whenever the configured byte budget
//! overflows. An entry larger than the whole budget is never admitted.
//!
//! Rollups and patches merge partial aggregates with
//! [`Distributive::combine`], which is exact on the measure domain, so
//! they reproduce direct evaluation bit for bit. AVG is not distributive
//! and is answered only by exact hits.

use starshare_olap::groupkey::{fold, GroupKeyCodec};
use starshare_olap::{Distributive, GroupBy, GroupByQuery, LevelRef, MemberPred, StarSchema};
use starshare_storage::{CpuCounters, HardwareModel, SimTime};

use crate::context::ExecReport;
use crate::result::QueryResult;
use crate::rollup::DimPipeline;

/// Fixed per-entry overhead charged to the byte budget (key vector headers,
/// bookkeeping) on top of the row payload.
const ENTRY_OVERHEAD_BYTES: usize = 64;

/// Counters describing everything a [`ResultCache`] has done.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Probes answered by an identical cached entry.
    pub exact_hits: u64,
    /// Probes answered by rolling up a strictly finer cached entry.
    pub subsumption_hits: u64,
    /// Probes no cached entry could answer.
    pub misses: u64,
    /// Entries admitted.
    pub insertions: u64,
    /// Entries evicted by the byte budget.
    pub evictions: u64,
    /// Entries dropped by an epoch bump.
    pub invalidations: u64,
    /// Entries carried across an append by delta patching.
    pub patched: u64,
    /// Entries dropped during an append patch because their aggregate is
    /// not delta-maintainable (AVG) or their predicates failed to compile.
    pub patch_drops: u64,
}

impl CacheStats {
    /// Total hits (exact + subsumption).
    pub fn hits(&self) -> u64 {
        self.exact_hits + self.subsumption_hits
    }

    /// Hits over probes (`None` when nothing was probed).
    pub fn hit_ratio(&self) -> Option<f64> {
        let probes = self.hits() + self.misses;
        (probes > 0).then(|| self.hits() as f64 / probes as f64)
    }

    /// The activity between an `earlier` snapshot and this one (counters
    /// are monotone, so per-field subtraction is the interval's delta).
    pub fn since(&self, earlier: CacheStats) -> CacheStats {
        CacheStats {
            exact_hits: self.exact_hits - earlier.exact_hits,
            subsumption_hits: self.subsumption_hits - earlier.subsumption_hits,
            misses: self.misses - earlier.misses,
            insertions: self.insertions - earlier.insertions,
            evictions: self.evictions - earlier.evictions,
            invalidations: self.invalidations - earlier.invalidations,
            patched: self.patched - earlier.patched,
            patch_drops: self.patch_drops - earlier.patch_drops,
        }
    }

    /// JSON object with stable key order (declaration order).
    pub fn to_json(&self) -> String {
        let mut o = starshare_obs::json::Obj::new();
        o.field_u64("exact_hits", self.exact_hits);
        o.field_u64("subsumption_hits", self.subsumption_hits);
        o.field_u64("misses", self.misses);
        o.field_u64("insertions", self.insertions);
        o.field_u64("evictions", self.evictions);
        o.field_u64("invalidations", self.invalidations);
        o.field_u64("patched", self.patched);
        o.field_u64("patch_drops", self.patch_drops);
        o.field_opt_f64("hit_ratio", self.hit_ratio());
        o.finish()
    }
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let hit = self
            .hit_ratio()
            .map_or_else(|| "n/a".to_string(), |r| format!("{:.0}%", r * 100.0));
        write!(
            f,
            "{} exact / {} subsumption hits, {} misses ({hit} hit); {} inserted, {} evicted, {} invalidated, {} patched (+{} drops)",
            self.exact_hits,
            self.subsumption_hits,
            self.misses,
            self.insertions,
            self.evictions,
            self.invalidations,
            self.patched,
            self.patch_drops
        )
    }
}

/// How a cache lookup answered.
#[derive(Debug)]
pub enum CacheHit {
    /// An identical entry: the stored result, a memory read.
    Exact {
        /// The stored answer.
        result: QueryResult,
        /// True when the entry was carried to the current epoch by a
        /// streaming-append delta patch (telemetry provenance).
        patched: bool,
    },
    /// A strictly finer covering entry, rolled up to the probe: the
    /// derived result plus the rollup's CPU charge on the simulated clock.
    Subsumption {
        /// The rolled-up answer.
        result: QueryResult,
        /// The rollup's cost: CPU over the cached rows, zero I/O.
        report: ExecReport,
    },
}

impl CacheHit {
    /// The answer, whichever way it was produced.
    pub fn into_result(self) -> QueryResult {
        match self {
            CacheHit::Exact { result, .. } => result,
            CacheHit::Subsumption { result, .. } => result,
        }
    }

    /// True for a subsumption (non-exact) hit.
    pub fn is_subsumption(&self) -> bool {
        matches!(self, CacheHit::Subsumption { .. })
    }
}

#[derive(Debug)]
struct Entry {
    query: GroupByQuery,
    result: QueryResult,
    /// Cube epoch the result was computed at.
    epoch: u64,
    /// Byte-budget charge of this entry.
    bytes: usize,
    /// Simulated cost of producing the result — what one future hit saves.
    base_cost: SimTime,
    /// Accumulated saved simulated time: the eviction benefit.
    benefit: SimTime,
    /// Insertion sequence, for deterministic eviction ties.
    seq: u64,
    /// True once a streaming append has delta-patched this entry.
    patched: bool,
    /// The query compiled against the leaf, the patch's source: compiled
    /// on the entry's first append and reused by every later one.
    leaf_pipeline: LeafPipeline,
}

/// An entry's patch pipeline (see [`ResultCache::apply_append`]).
#[derive(Debug)]
enum LeafPipeline {
    /// No append has reached the entry yet.
    Pending,
    /// The entry's aggregate, and its query compiled against the leaf
    /// group-by.
    Ready(Distributive, DimPipeline),
    /// The entry cannot be delta-patched: AVG, or predicates that do not
    /// compile against the leaf.
    Unpatchable,
}

/// The bounded, subsumption-aware, epoch-invalidated result cache.
///
/// Entries live in insertion order and are probed linearly — cache
/// populations are small (bounded by the byte budget) and a deterministic
/// order is what makes eviction, and therefore every downstream simulated
/// time, reproducible run to run.
#[derive(Debug)]
pub struct ResultCache {
    entries: Vec<Entry>,
    max_bytes: usize,
    bytes: usize,
    epoch: u64,
    next_seq: u64,
    stats: CacheStats,
}

impl ResultCache {
    /// An empty cache bounded to `max_bytes` of result payload.
    pub fn new(max_bytes: usize) -> Self {
        ResultCache {
            entries: Vec::new(),
            max_bytes,
            bytes: 0,
            epoch: 0,
            next_seq: 0,
            stats: CacheStats::default(),
        }
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Bytes currently charged against the budget.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// The configured byte budget.
    pub fn max_bytes(&self) -> usize {
        self.max_bytes
    }

    /// The epoch the cache currently serves.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Lifetime counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Moves the cache to `epoch`, dropping every entry computed at an
    /// older one. A no-op when the epoch is unchanged.
    pub fn advance_epoch(&mut self, epoch: u64) {
        if epoch == self.epoch {
            return;
        }
        self.epoch = epoch;
        let before = self.entries.len();
        self.entries.retain(|e| e.epoch == epoch);
        self.stats.invalidations += (before - self.entries.len()) as u64;
        self.bytes = self.entries.iter().map(|e| e.bytes).sum();
    }

    /// Moves the cache to `epoch` by **delta-patching** every live entry
    /// with the appended `rows` instead of dropping it: the delta is
    /// aggregated once at the leaf per cached aggregate, laid out as key
    /// columns, filtered by each entry's predicates one column at a time
    /// (through the entry's [`DimPipeline`], compiled once on its first
    /// append), rolled up to the entry's group-by, and merged into the
    /// entry's sorted rows in one linear pass. Sound for SUM and COUNT
    /// unconditionally and for MIN/MAX under the engine's insert-only
    /// append model; AVG entries — and any entry whose predicates fail to
    /// compile against the leaf — are dropped, counted in
    /// [`CacheStats::patch_drops`]. A delta row an entry's predicates
    /// reject leaves that entry untouched (but still carried to the new
    /// epoch); a delta row grouping to a key the entry has never seen
    /// inserts a fresh row at its sorted position. Patched entries can
    /// grow, so the byte budget is re-enforced afterwards — a patch can
    /// race entries out of the cache.
    ///
    /// The patch work is charged on the deterministic simulated clock and
    /// returned as a pure-CPU [`ExecReport`]: one hash probe plus one
    /// aggregate update per raw row per leaf delta built, one predicate
    /// cascade per leaf delta group per entry (short-circuit: a predicate
    /// is charged only for the groups every earlier one kept), one probe
    /// plus update per surviving group, and one tuple copy per merged row.
    /// A no-op (equal epoch) returns an empty report.
    pub fn apply_append(
        &mut self,
        schema: &StarSchema,
        epoch: u64,
        rows: &[(Vec<u32>, f64)],
        model: &HardwareModel,
    ) -> ExecReport {
        if epoch == self.epoch {
            return ExecReport::default();
        }
        let from = self.epoch;
        self.epoch = epoch;
        let finest = GroupBy::finest(schema.n_dims());

        let mut cpu = CpuCounters::default();
        // The leaf delta, folded once per cached aggregate and shared by
        // every entry carrying it.
        let mut deltas = Vec::new();
        let mut sel = Vec::new();

        let mut kept = Vec::with_capacity(self.entries.len());
        let mut bytes = 0usize;
        for mut e in std::mem::take(&mut self.entries) {
            if e.epoch != from {
                // Predates even the epoch we are patching from: stale.
                self.stats.invalidations += 1;
                continue;
            }
            if matches!(e.leaf_pipeline, LeafPipeline::Pending) {
                let ready = e.query.agg.distributive().and_then(|agg| {
                    let pipeline = DimPipeline::compile(schema, &finest, &e.query).ok()?;
                    Some(LeafPipeline::Ready(agg, pipeline))
                });
                e.leaf_pipeline = ready.unwrap_or(LeafPipeline::Unpatchable);
            }
            let LeafPipeline::Ready(agg, pipeline) = &e.leaf_pipeline else {
                self.stats.patch_drops += 1;
                continue;
            };
            let agg = *agg;
            let i = match deltas.iter().position(|(a, _)| *a == agg) {
                Some(i) => i,
                None => {
                    deltas.push((agg, leaf_delta(schema, agg, rows, &mut cpu)));
                    deltas.len() - 1
                }
            };
            let (cols, measures) = &deltas[i].1;
            patch_rows(
                pipeline,
                agg,
                cols,
                measures,
                &mut e.result.rows,
                &mut sel,
                &mut cpu,
            );
            e.bytes = result_bytes(&e.result);
            e.epoch = epoch;
            e.patched = true;
            self.stats.patched += 1;
            bytes += e.bytes;
            kept.push(e);
        }
        self.entries = kept;
        self.bytes = bytes;
        self.evict_to_budget();

        let sim = model.cpu_time(&cpu);
        ExecReport {
            cpu,
            sim,
            critical: sim,
            ..ExecReport::default()
        }
    }

    /// True when an identical query is cached at the current epoch.
    pub fn contains_exact(&self, query: &GroupByQuery) -> bool {
        self.entries
            .iter()
            .any(|e| e.epoch == self.epoch && e.query == *query)
    }

    /// Probes the cache: an exact entry wins; otherwise the smallest
    /// covering strictly-finer entry is rolled up through a
    /// [`DimPipeline`]. Returns `None` on a miss.
    pub fn lookup(
        &mut self,
        schema: &StarSchema,
        probe: &GroupByQuery,
        model: &HardwareModel,
    ) -> Option<CacheHit> {
        if let Some(e) = self
            .entries
            .iter_mut()
            .find(|e| e.epoch == self.epoch && e.query == *probe)
        {
            // The hit saved re-producing the result.
            e.benefit += e.base_cost;
            self.stats.exact_hits += 1;
            let result = e.result.clone();
            return Some(CacheHit::Exact {
                result,
                patched: e.patched,
            });
        }

        // Subsumption: among covering finer entries, roll up the one with
        // the fewest rows (cheapest rollup); ties go to the oldest entry.
        let candidate = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.epoch == self.epoch)
            .filter_map(|(i, e)| Some((i, e, covers(schema, &e.query, probe)?)))
            .min_by_key(|(_, e, _)| (e.result.rows.len(), e.seq))
            .map(|(i, _, agg)| (i, agg));
        if let Some((i, agg)) = candidate {
            match roll_up(schema, &self.entries[i].result, probe, agg, model) {
                Ok((result, report)) => {
                    let e = &mut self.entries[i];
                    // Credit the saved time: the probe avoided producing a
                    // result of (at least) this entry's class, paying only
                    // the rollup.
                    e.benefit += e.base_cost.saturating_sub(report.sim);
                    self.stats.subsumption_hits += 1;
                    return Some(CacheHit::Subsumption { result, report });
                }
                Err(_) => {
                    // Defensive: a covering entry the pipeline rejects is a
                    // coverage-rule bug; degrade to a miss rather than fail
                    // the query.
                    debug_assert!(false, "covering cache entry failed to compile");
                }
            }
        }
        self.stats.misses += 1;
        None
    }

    /// Admits a result produced at the current epoch, seeded with the
    /// simulated `cost` of producing it (the benefit a future hit saves).
    /// Skips silently when an identical entry already exists or the result
    /// alone exceeds the whole budget; evicts lowest benefit-per-byte
    /// entries until the budget holds.
    pub fn insert(&mut self, query: GroupByQuery, result: QueryResult, cost: SimTime) {
        if self.contains_exact(&query) {
            return;
        }
        let bytes = result_bytes(&result);
        if bytes > self.max_bytes {
            return;
        }
        self.entries.push(Entry {
            query,
            result,
            epoch: self.epoch,
            bytes,
            base_cost: cost,
            benefit: cost,
            seq: self.next_seq,
            patched: false,
            leaf_pipeline: LeafPipeline::Pending,
        });
        self.next_seq += 1;
        self.bytes += bytes;
        self.stats.insertions += 1;
        self.evict_to_budget();
    }

    /// Evicts lowest benefit-per-byte entries (ties: oldest first) until
    /// the byte budget holds.
    fn evict_to_budget(&mut self) {
        while self.bytes > self.max_bytes {
            let victim = self
                .entries
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    let da = a.benefit.as_nanos() as u128 * b.bytes as u128;
                    let db = b.benefit.as_nanos() as u128 * a.bytes as u128;
                    da.cmp(&db).then(a.seq.cmp(&b.seq))
                })
                .map(|(i, _)| i)
                .expect("over budget implies at least one entry");
            let e = self.entries.remove(victim);
            self.bytes -= e.bytes;
            self.stats.evictions += 1;
        }
    }
}

/// An append's `rows` folded at the leaf with `agg`, in row order: the
/// distinct leaf keys, in key order, as one column per dimension — the
/// columns every entry's predicate cascade runs over — and each key's
/// partial. Charges one hash probe plus one aggregate update per row.
fn leaf_delta(
    schema: &StarSchema,
    agg: Distributive,
    rows: &[(Vec<u32>, f64)],
    cpu: &mut CpuCounters,
) -> (Vec<Vec<u32>>, Vec<f64>) {
    let finest = GroupBy::finest(schema.n_dims());
    let codec = GroupKeyCodec::rolling(schema, &finest, &finest, 0);
    cpu.hash_probes += rows.len() as u64;
    cpu.agg_updates += rows.len() as u64;
    let delta = fold(
        agg,
        rows.iter()
            .map(|(keys, m)| (codec.key(|d| keys[d]), agg.of_fact(*m))),
    );
    let mut cols = vec![Vec::with_capacity(delta.len()); schema.n_dims()];
    let mut measures = Vec::with_capacity(delta.len());
    let mut keys = vec![0u32; schema.n_dims()];
    for (key, v) in delta {
        codec.unpack_into(&key, &mut keys);
        cols.iter_mut().zip(&keys).for_each(|(col, &k)| col.push(k));
        measures.push(v);
    }
    (cols, measures)
}

/// Patches one entry's sorted `rows` with partials keyed by the
/// dimension-indexed columns `cols` (`measures[i]` is row `i`'s partial):
/// the entry's predicates cascade over the columns, the survivors fold
/// through the pipeline's codec to the entry's group-by, and the sorted
/// patch merges into `rows` in one linear pass. Charges exactly what
/// testing each row with the per-row short-circuit filter would: one
/// predicate evaluation per row each predicate sees, one probe plus update
/// per survivor, one tuple copy per patch group.
fn patch_rows(
    pipeline: &DimPipeline,
    agg: Distributive,
    cols: &[Vec<u32>],
    measures: &[f64],
    rows: &mut Vec<(Vec<u32>, f64)>,
    sel: &mut Vec<u32>,
    cpu: &mut CpuCounters,
) {
    pipeline.select(|d| &cols[d], measures.len(), 0, sel, false, cpu);
    let codec = pipeline.kernel().codec();
    cpu.hash_probes += sel.len() as u64;
    cpu.agg_updates += sel.len() as u64;
    let patch = fold(
        agg,
        sel.iter().map(|&i| {
            let i = i as usize;
            (codec.key(|d| cols[d][i]), measures[i])
        }),
    );
    if patch.is_empty() {
        return;
    }
    // Existing groups combine, brand-new groups insert at their sorted
    // position.
    cpu.tuple_copies += patch.len() as u64;
    let mut old = std::mem::take(rows).into_iter().peekable();
    rows.reserve(old.len() + patch.len());
    for (key, dv) in patch {
        let k = codec.unpack(&key);
        while let Some(r) = old.next_if(|(rk, _)| *rk < k) {
            rows.push(r);
        }
        match old.next_if(|(rk, _)| *rk == k) {
            Some((rk, v)) => rows.push((rk, agg.combine(v, dv))),
            None => rows.push((k, dv)),
        }
    }
    rows.extend(old);
}

/// Byte-budget charge of one result: fixed overhead plus the row payload
/// (one `u32` per key component, one `f64` measure per row).
pub fn result_bytes(result: &QueryResult) -> usize {
    let key_width = result.rows.first().map_or(0, |(k, _)| k.len());
    ENTRY_OVERHEAD_BYTES + result.rows.len() * (key_width * 4 + 8)
}

/// The aggregate to re-aggregate with when a probe is answerable from
/// `cached`'s result: the same distributive aggregate (AVG is not), a
/// cached group-by that derives everything the probe needs, and cached
/// predicates that each cover the probe's on their dimension (no row the
/// probe wants was filtered away). `None` otherwise.
fn covers(
    schema: &StarSchema,
    cached: &GroupByQuery,
    probe: &GroupByQuery,
) -> Option<Distributive> {
    let agg = probe
        .agg
        .distributive()
        .filter(|_| cached.agg == probe.agg)?;
    let covered = probe.answerable_from(&cached.group_by)
        && cached
            .preds
            .iter()
            .zip(&probe.preds)
            .enumerate()
            .all(|(d, (cp, pp))| pred_covers(schema, d, cp, pp));
    covered.then_some(agg)
}

/// True when every row the probe's predicate wants on dimension `d`
/// survived the cached predicate — i.e. the cached filter is a superset of
/// the probe's, possibly at a different hierarchy level. (`MemberPred::In`
/// members are sorted and deduplicated, so binary search applies.)
fn pred_covers(schema: &StarSchema, d: usize, cached: &MemberPred, probe: &MemberPred) -> bool {
    match (cached, probe) {
        // An unfiltered cached dimension covers any probe predicate.
        (MemberPred::All, _) => true,
        // A filtered cached dimension cannot cover an unfiltered probe.
        (MemberPred::In { .. }, MemberPred::All) => false,
        (
            MemberPred::In {
                level: lc,
                members: mc,
            },
            MemberPred::In {
                level: lp,
                members: mp,
            },
        ) => {
            if lc == lp {
                return mp.iter().all(|m| mc.binary_search(m).is_ok());
            }
            let dim = schema.dim(d);
            if lc < lp {
                // Cached filtered at a finer level: every finer member
                // under a wanted coarser member must have been kept.
                (0..dim.cardinality(*lc)).all(|x| {
                    mp.binary_search(&dim.roll_up(x, *lc, *lp)).is_err()
                        || mc.binary_search(&x).is_ok()
                })
            } else {
                // Cached filtered at a coarser level: every wanted finer
                // member's ancestor must have been kept.
                mp.iter()
                    .all(|m| mc.binary_search(&dim.roll_up(*m, *lp, *lc)).is_ok())
            }
        }
    }
}

/// Rolls a cached finer result up to `probe`: a patch of an empty result
/// with the cached rows, which play the part of a (tiny) stored table whose
/// "stored levels" are the cached query's group-by. The work is charged on
/// the simulated clock as [`patch_rows`] charges it.
fn roll_up(
    schema: &StarSchema,
    cached: &QueryResult,
    probe: &GroupByQuery,
    agg: Distributive,
    model: &HardwareModel,
) -> Result<(QueryResult, ExecReport), crate::error::ExecError> {
    let stored = &cached.query.group_by;
    let pipeline = DimPipeline::compile(schema, stored, probe)?;

    // Cached row keys hold only the grouped dimensions (in dimension
    // order); lay them out as the dimension-indexed columns the pipeline
    // addresses. All-aggregated dimensions stay empty — derivability
    // guarantees the probe neither groups nor filters them.
    let mut cols = vec![Vec::new(); schema.n_dims()];
    let grouped = (0..schema.n_dims()).filter(|&d| stored.level(d) != LevelRef::All);
    for (slot, d) in grouped.enumerate() {
        cols[d] = cached.rows.iter().map(|(key, _)| key[slot]).collect();
    }
    let measures: Vec<f64> = cached.rows.iter().map(|&(_, m)| m).collect();

    let mut cpu = CpuCounters::default();
    let mut rows = Vec::new();
    patch_rows(
        &pipeline,
        agg,
        &cols,
        &measures,
        &mut rows,
        &mut Vec::new(),
        &mut cpu,
    );
    let sim = model.cpu_time(&cpu);
    let report = ExecReport {
        cpu,
        sim,
        critical: sim,
        ..ExecReport::default()
    };
    Ok((
        QueryResult {
            query: probe.clone(),
            rows,
        },
        report,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelTier;
    use crate::reference::reference_eval;
    use starshare_olap::{
        append_facts, lattice_nodes, paper_cube, AggFn, CubeBuilder, Dimension, GroupBy,
        PaperCubeSpec,
    };
    use std::collections::BTreeMap;

    fn cube() -> starshare_olap::Cube {
        paper_cube(PaperCubeSpec {
            base_rows: 300,
            d_leaf: 24,
            seed: 11,
            with_indexes: false,
        })
    }

    fn model() -> HardwareModel {
        HardwareModel::paper_1998()
    }

    fn rows_bits(r: &QueryResult) -> Vec<(Vec<u32>, u64)> {
        r.rows
            .iter()
            .map(|(k, m)| (k.clone(), m.to_bits()))
            .collect()
    }

    #[test]
    fn exact_hit_returns_the_stored_result() {
        let cube = cube();
        let base = cube.catalog.base_table().unwrap();
        let q = GroupByQuery::unfiltered(cube.groupby("A''B''C''D*"));
        let r = reference_eval(&cube, base, &q);
        let mut cache = ResultCache::new(1 << 20);
        cache.insert(q.clone(), r.clone(), SimTime::from_nanos(1_000_000));
        let hit = cache.lookup(&cube.schema, &q, &model()).expect("hit");
        assert!(!hit.is_subsumption());
        assert_eq!(rows_bits(&hit.into_result()), rows_bits(&r));
        assert_eq!(cache.stats().exact_hits, 1);
        assert_eq!(cache.stats().misses, 0);
    }

    /// The keystone property: for *every* derivable pair of lattice nodes
    /// on the paper schema, answering the coarser query by rolling up a
    /// cached finer result is bit-identical to evaluating the coarser
    /// query directly from the base table.
    #[test]
    fn rollup_from_finer_matches_direct_evaluation_for_every_derivable_pair() {
        let cube = cube();
        let base = cube.catalog.base_table().unwrap();
        let mut nodes = lattice_nodes(&cube.schema);
        nodes.push(GroupBy::finest(cube.schema.n_dims()));
        let results: Vec<QueryResult> = nodes
            .iter()
            .map(|g| reference_eval(&cube, base, &GroupByQuery::unfiltered(g.clone())))
            .collect();

        let mut pairs = 0usize;
        let mut subsumption_hits = 0usize;
        for (fi, finer) in nodes.iter().enumerate() {
            for (ci, coarser) in nodes.iter().enumerate() {
                if fi == ci || !finer.derives(coarser) {
                    continue;
                }
                pairs += 1;
                let probe = GroupByQuery::unfiltered(coarser.clone());
                let mut cache = ResultCache::new(usize::MAX);
                cache.insert(
                    GroupByQuery::unfiltered(finer.clone()),
                    results[fi].clone(),
                    SimTime::from_nanos(1_000_000),
                );
                let hit = cache
                    .lookup(&cube.schema, &probe, &model())
                    .unwrap_or_else(|| panic!("derivable pair {fi}->{ci} missed"));
                let CacheHit::Subsumption { result, report } = hit else {
                    panic!("derivable pair {fi}->{ci} hit exactly");
                };
                subsumption_hits += 1;
                assert_eq!(
                    rows_bits(&result),
                    rows_bits(&results[ci]),
                    "rollup {} -> {} must be bit-identical to direct evaluation",
                    finer.display(&cube.schema),
                    coarser.display(&cube.schema),
                );
                // The charges are the row-at-a-time roll-up's, over the
                // cached keys widened to every dimension (All ones read 0).
                let wide: Vec<(Vec<u32>, f64)> = results[fi]
                    .rows
                    .iter()
                    .map(|(key, m)| {
                        let mut slots = key.iter();
                        let full = (0..cube.schema.n_dims())
                            .map(|d| match finer.level(d) {
                                LevelRef::All => 0,
                                LevelRef::Level(_) => *slots.next().unwrap(),
                            })
                            .collect();
                        (full, *m)
                    })
                    .collect();
                let pipeline = DimPipeline::compile(&cube.schema, finer, &probe).unwrap();
                let (mut want, mut want_cpu) = (Vec::new(), CpuCounters::default());
                merge_rowwise(
                    &pipeline,
                    Distributive::Sum,
                    &wide,
                    &mut want,
                    &mut want_cpu,
                );
                assert_eq!(report.cpu, want_cpu, "rollup {fi} -> {ci}");
            }
        }
        assert!(
            pairs > 100,
            "paper lattice has many derivable pairs: {pairs}"
        );
        assert_eq!(pairs, subsumption_hits);
    }

    #[test]
    fn covering_predicates_roll_up_bit_identically() {
        let cube = cube();
        let base = cube.catalog.base_table().unwrap();
        // Cached: finer group-by, superset members on A at level 1.
        let cached_q = GroupByQuery::new(
            cube.groupby("A'B''C''D"),
            vec![
                MemberPred::members_in(1, vec![0, 1, 2]),
                MemberPred::All,
                MemberPred::All,
                MemberPred::All,
            ],
        );
        // Probe: coarser group-by, subset members on A, extra pred on B.
        let probe = GroupByQuery::new(
            cube.groupby("A''B''C*D"),
            vec![
                MemberPred::members_in(1, vec![0, 2]),
                MemberPred::eq(2, 0),
                MemberPred::All,
                MemberPred::All,
            ],
        );
        let cached_r = reference_eval(&cube, base, &cached_q);
        let direct = reference_eval(&cube, base, &probe);
        let mut cache = ResultCache::new(1 << 20);
        cache.insert(cached_q, cached_r, SimTime::from_nanos(1_000_000));
        let hit = cache.lookup(&cube.schema, &probe, &model()).expect("hit");
        assert!(hit.is_subsumption());
        let CacheHit::Subsumption { result, report } = hit else {
            unreachable!()
        };
        assert_eq!(rows_bits(&result), rows_bits(&direct));
        // The rollup is charged: predicate evals + probes + agg updates.
        assert!(report.sim > SimTime::ZERO);
        assert!(report.cpu.predicate_evals > 0);
        assert_eq!(report.io.seq_faults + report.io.random_faults, 0);
    }

    /// Cross-level coverage: a cached filter at a finer level covers a
    /// probe filter at a coarser level exactly when every finer member
    /// under the wanted coarser members was kept.
    #[test]
    fn cross_level_predicates_cover_when_the_member_set_matches() {
        let cube = cube();
        let base = cube.catalog.base_table().unwrap();
        // A has fan-out 2 from level 2 to level 1: level-2 member 0 owns
        // level-1 members {0, 1}.
        let all = MemberPred::All;
        let cached_q = GroupByQuery::new(
            cube.groupby("A'B''C''D"),
            vec![
                MemberPred::members_in(1, vec![0, 1]),
                all.clone(),
                all.clone(),
                all.clone(),
            ],
        );
        let probe = GroupByQuery::new(
            cube.groupby("A''B''C''D*"),
            vec![MemberPred::eq(2, 0), all.clone(), all.clone(), all.clone()],
        );
        let cached_r = reference_eval(&cube, base, &cached_q);
        let direct = reference_eval(&cube, base, &probe);
        let mut cache = ResultCache::new(1 << 20);
        cache.insert(cached_q, cached_r, SimTime::from_nanos(1_000_000));
        let hit = cache
            .lookup(&cube.schema, &probe, &model())
            .expect("finer filter covering the whole coarser member must hit");
        assert!(hit.is_subsumption());
        assert_eq!(rows_bits(&hit.into_result()), rows_bits(&direct));

        // A *partial* child set does not cover the coarser member.
        let partial_q = GroupByQuery::new(
            cube.groupby("A'B''C''D"),
            vec![MemberPred::eq(1, 0), all.clone(), all.clone(), all],
        );
        let partial_r = reference_eval(&cube, base, &partial_q);
        let mut cache = ResultCache::new(1 << 20);
        cache.insert(partial_q, partial_r, SimTime::from_nanos(1));
        assert!(cache.lookup(&cube.schema, &probe, &model()).is_none());
    }

    #[test]
    fn non_covering_predicates_miss() {
        let cube = cube();
        let base = cube.catalog.base_table().unwrap();
        // Cached entry filtered to members {0}; probe wants {0, 1}.
        let cached_q = GroupByQuery::new(
            cube.groupby("A'B''C''D"),
            vec![
                MemberPred::eq(1, 0),
                MemberPred::All,
                MemberPred::All,
                MemberPred::All,
            ],
        );
        let probe = GroupByQuery::new(
            cube.groupby("A''B''C''D"),
            vec![
                MemberPred::members_in(1, vec![0, 1]),
                MemberPred::All,
                MemberPred::All,
                MemberPred::All,
            ],
        );
        let r = reference_eval(&cube, base, &cached_q);
        let mut cache = ResultCache::new(1 << 20);
        cache.insert(cached_q, r, SimTime::from_nanos(1));
        assert!(cache.lookup(&cube.schema, &probe, &model()).is_none());
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn avg_is_never_answered_by_subsumption() {
        let cube = cube();
        let base = cube.catalog.base_table().unwrap();
        let finer = GroupByQuery::unfiltered(cube.groupby("A'B''C''D")).with_agg(AggFn::Avg);
        let coarser = GroupByQuery::unfiltered(cube.groupby("A''B''C''D")).with_agg(AggFn::Avg);
        let r = reference_eval(&cube, base, &finer);
        let mut cache = ResultCache::new(1 << 20);
        cache.insert(finer.clone(), r, SimTime::from_nanos(1));
        assert!(cache.lookup(&cube.schema, &coarser, &model()).is_none());
        // The identical AVG query still exact-hits.
        assert!(cache.lookup(&cube.schema, &finer, &model()).is_some());
    }

    #[test]
    fn min_max_count_roll_up_correctly() {
        let cube = cube();
        let base = cube.catalog.base_table().unwrap();
        for agg in [AggFn::Min, AggFn::Max, AggFn::Count] {
            let finer = GroupByQuery::unfiltered(cube.groupby("A'B''C''D")).with_agg(agg);
            let coarser = GroupByQuery::unfiltered(cube.groupby("A''B*C''D*")).with_agg(agg);
            let cached = reference_eval(&cube, base, &finer);
            let direct = reference_eval(&cube, base, &coarser);
            let mut cache = ResultCache::new(1 << 20);
            cache.insert(finer, cached, SimTime::from_nanos(1_000_000));
            let hit = cache
                .lookup(&cube.schema, &coarser, &model())
                .unwrap_or_else(|| panic!("{agg} should subsumption-hit"));
            assert!(hit.is_subsumption());
            assert_eq!(rows_bits(&hit.into_result()), rows_bits(&direct), "{agg}");
        }
    }

    #[test]
    fn mismatched_aggregates_do_not_cover() {
        let cube = cube();
        let base = cube.catalog.base_table().unwrap();
        let finer = GroupByQuery::unfiltered(cube.groupby("A'B''C''D"));
        let coarser = GroupByQuery::unfiltered(cube.groupby("A''B''C''D")).with_agg(AggFn::Count);
        let r = reference_eval(&cube, base, &finer);
        let mut cache = ResultCache::new(1 << 20);
        cache.insert(finer, r, SimTime::from_nanos(1));
        assert!(
            cache.lookup(&cube.schema, &coarser, &model()).is_none(),
            "a SUM entry must not answer a COUNT probe"
        );
    }

    #[test]
    fn epoch_bump_invalidates_and_keys_by_epoch() {
        let cube = cube();
        let base = cube.catalog.base_table().unwrap();
        let q = GroupByQuery::unfiltered(cube.groupby("A''B''C''D*"));
        let r = reference_eval(&cube, base, &q);
        let mut cache = ResultCache::new(1 << 20);
        cache.insert(q.clone(), r.clone(), SimTime::from_nanos(1));
        assert!(cache.contains_exact(&q));
        cache.advance_epoch(1);
        assert!(!cache.contains_exact(&q));
        assert!(cache.lookup(&cube.schema, &q, &model()).is_none());
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.bytes(), 0);
        assert_eq!(cache.stats().invalidations, 1);
        // Re-inserting at the new epoch serves again.
        cache.insert(q.clone(), r, SimTime::from_nanos(1));
        assert!(cache.lookup(&cube.schema, &q, &model()).is_some());
    }

    #[test]
    fn eviction_holds_the_byte_budget_and_keeps_high_benefit_entries() {
        let cube = cube();
        let base = cube.catalog.base_table().unwrap();
        let queries = [
            GroupByQuery::unfiltered(cube.groupby("A''B''C''D*")),
            GroupByQuery::unfiltered(cube.groupby("A''B*C''D*")),
            GroupByQuery::unfiltered(cube.groupby("A*B''C''D*")),
            GroupByQuery::unfiltered(cube.groupby("A''B''C*D*")),
        ];
        let results: Vec<QueryResult> = queries
            .iter()
            .map(|q| reference_eval(&cube, base, q))
            .collect();
        // Budget fits roughly two entries.
        let budget = result_bytes(&results[0]) + result_bytes(&results[1]) + 16;
        let mut cache = ResultCache::new(budget);
        // Entry 0 is precious (huge production cost), the rest are cheap.
        cache.insert(
            queries[0].clone(),
            results[0].clone(),
            SimTime::from_nanos(1 << 40),
        );
        for (q, r) in queries.iter().zip(&results).skip(1) {
            cache.insert(q.clone(), r.clone(), SimTime::from_nanos(1_000));
            assert!(
                cache.bytes() <= cache.max_bytes(),
                "cache must stay within its byte budget"
            );
        }
        assert!(
            cache.stats().evictions > 0,
            "budget must have forced eviction"
        );
        assert!(
            cache.contains_exact(&queries[0]),
            "benefit-based eviction must keep the high-benefit entry"
        );
    }

    /// Deterministic quantized delta rows within the schema's leaf
    /// cardinalities (quarter units keep every sum exact, so patched
    /// entries must be *bit*-identical to recomputation).
    fn delta_rows(schema: &StarSchema, n: usize) -> Vec<(Vec<u32>, f64)> {
        let cards: Vec<u32> = (0..schema.n_dims())
            .map(|d| schema.dim(d).cardinality(0))
            .collect();
        (0..n)
            .map(|i| {
                let key = cards
                    .iter()
                    .enumerate()
                    .map(|(d, &c)| ((i * (d + 3) + 7 * d) as u32) % c)
                    .collect();
                (key, ((i * 7 + 3) % 400) as f64 * 0.25)
            })
            .collect()
    }

    #[test]
    fn append_patch_matches_recompute_bit_for_bit() {
        let mut cube = cube();
        let base = cube.catalog.base_table().unwrap();
        let all = MemberPred::All;
        let queries = vec![
            GroupByQuery::unfiltered(cube.groupby("A''B''C''D*")),
            GroupByQuery::unfiltered(cube.groupby("A'B''C''D")),
            GroupByQuery::new(
                cube.groupby("A'B''C''D"),
                vec![
                    MemberPred::members_in(1, vec![0, 1, 2]),
                    all.clone(),
                    all.clone(),
                    all.clone(),
                ],
            ),
            GroupByQuery::unfiltered(cube.groupby("A''B*C''D*")).with_agg(AggFn::Count),
            GroupByQuery::unfiltered(cube.groupby("A''B''C*D*")).with_agg(AggFn::Min),
            GroupByQuery::unfiltered(cube.groupby("A''B''C*D*")).with_agg(AggFn::Max),
        ];
        let mut cache = ResultCache::new(1 << 20);
        for q in &queries {
            let r = reference_eval(&cube, base, q);
            cache.insert(q.clone(), r, SimTime::from_nanos(1_000_000));
        }

        let rows = delta_rows(&cube.schema, 40);
        starshare_olap::append_facts(&mut cube, &rows).unwrap();
        let report = cache.apply_append(&cube.schema, cube.epoch, &rows, &model());

        // The patch is charged as pure CPU on the simulated clock.
        assert!(report.sim > SimTime::ZERO);
        assert!(report.cpu.agg_updates > 0);
        assert_eq!(report.io.seq_faults + report.io.random_faults, 0);
        assert_eq!(cache.epoch(), cube.epoch);
        assert_eq!(cache.stats().patched, queries.len() as u64);
        assert_eq!(cache.stats().invalidations, 0);

        for q in &queries {
            let direct = reference_eval(&cube, base, q);
            let hit = cache
                .lookup(&cube.schema, q, &model())
                .unwrap_or_else(|| panic!("patched entry must still answer {:?}", q.agg));
            assert!(!hit.is_subsumption());
            assert_eq!(
                rows_bits(&hit.into_result()),
                rows_bits(&direct),
                "{:?} patched entry drifted from recomputation",
                q.agg
            );
        }
    }

    #[test]
    fn append_patch_inserts_brand_new_group_keys() {
        let mut cube = cube();
        let base = cube.catalog.base_table().unwrap();
        // A sparse fine group-by: 300 rows over thousands of possible
        // groups, so absent keys exist.
        let q = GroupByQuery::unfiltered(cube.groupby("A'B'C'D"));
        let cached = reference_eval(&cube, base, &q);
        // Find a group key no base row produced, and a leaf key that rolls
        // up to it (level-1 member m owns leaf range [m*div, (m+1)*div)).
        let divs: Vec<u32> = (0..3)
            .map(|d| {
                let dim = cube.schema.dim(d);
                dim.cardinality(0) / dim.cardinality(1)
            })
            .collect();
        let cards: Vec<u32> = (0..3).map(|d| cube.schema.dim(d).cardinality(1)).collect();
        let d_card = cube.schema.dim(3).cardinality(0);
        let mut fresh = None;
        'search: for a in 0..cards[0] {
            for b in 0..cards[1] {
                for c in 0..cards[2] {
                    for dd in 0..d_card {
                        let gkey = vec![a, b, c, dd];
                        if cached.rows.binary_search_by(|(k, _)| k.cmp(&gkey)).is_err() {
                            fresh = Some(gkey);
                            break 'search;
                        }
                    }
                }
            }
        }
        let gkey = fresh.expect("a 300-row cube cannot fill 5184 groups");
        let leaf = vec![
            gkey[0] * divs[0],
            gkey[1] * divs[1],
            gkey[2] * divs[2],
            gkey[3],
        ];

        let mut cache = ResultCache::new(1 << 20);
        cache.insert(q.clone(), cached, SimTime::from_nanos(1_000_000));
        let rows = vec![(leaf, 12.25)];
        starshare_olap::append_facts(&mut cube, &rows).unwrap();
        cache.apply_append(&cube.schema, cube.epoch, &rows, &model());

        let hit = cache.lookup(&cube.schema, &q, &model()).expect("patched");
        let patched = hit.into_result();
        let i = patched
            .rows
            .binary_search_by(|(k, _)| k.cmp(&gkey))
            .expect("the brand-new group key must appear at its sorted slot");
        assert_eq!(patched.rows[i].1.to_bits(), 12.25f64.to_bits());
        let direct = reference_eval(&cube, base, &q);
        assert_eq!(rows_bits(&patched), rows_bits(&direct));
    }

    #[test]
    fn append_patch_drops_avg_entries_and_keeps_the_rest() {
        let mut cube = cube();
        let base = cube.catalog.base_table().unwrap();
        let sum_q = GroupByQuery::unfiltered(cube.groupby("A''B''C''D*"));
        let avg_q = GroupByQuery::unfiltered(cube.groupby("A''B''C''D*")).with_agg(AggFn::Avg);
        let mut cache = ResultCache::new(1 << 20);
        cache.insert(
            sum_q.clone(),
            reference_eval(&cube, base, &sum_q),
            SimTime::from_nanos(1),
        );
        cache.insert(
            avg_q.clone(),
            reference_eval(&cube, base, &avg_q),
            SimTime::from_nanos(1),
        );
        let rows = delta_rows(&cube.schema, 8);
        starshare_olap::append_facts(&mut cube, &rows).unwrap();
        cache.apply_append(&cube.schema, cube.epoch, &rows, &model());
        assert_eq!(
            cache.stats().patch_drops,
            1,
            "AVG is not delta-maintainable"
        );
        assert_eq!(cache.stats().patched, 1);
        assert!(!cache.contains_exact(&avg_q));
        assert!(cache.contains_exact(&sum_q));
    }

    #[test]
    fn append_touching_zero_entries_still_carries_them_forward() {
        let mut cube = cube();
        let base = cube.catalog.base_table().unwrap();
        // Cached entry filtered to A level-1 member 0; the delta lands
        // entirely in member 5's leaf range, so the patch changes nothing.
        let q = GroupByQuery::new(
            cube.groupby("A'B''C''D"),
            vec![
                MemberPred::eq(1, 0),
                MemberPred::All,
                MemberPred::All,
                MemberPred::All,
            ],
        );
        let before = reference_eval(&cube, base, &q);
        let mut cache = ResultCache::new(1 << 20);
        cache.insert(q.clone(), before.clone(), SimTime::from_nanos(1));
        let dim = cube.schema.dim(0);
        let div = dim.cardinality(0) / dim.cardinality(1);
        let rows = vec![(vec![5 * div, 0, 0, 0], 3.5)];
        starshare_olap::append_facts(&mut cube, &rows).unwrap();
        cache.apply_append(&cube.schema, cube.epoch, &rows, &model());
        assert_eq!(cache.stats().patched, 1);
        let hit = cache
            .lookup(&cube.schema, &q, &model())
            .expect("still live");
        assert_eq!(rows_bits(&hit.into_result()), rows_bits(&before));
        // And it still matches a recompute over the appended cube (the
        // filtered-out delta row cannot affect this slice).
        assert_eq!(
            rows_bits(&before),
            rows_bits(&reference_eval(&cube, base, &q))
        );
    }

    #[test]
    fn eviction_races_a_patch_under_a_tight_budget() {
        let mut cube = cube();
        let base = cube.catalog.base_table().unwrap();
        let q1 = GroupByQuery::unfiltered(cube.groupby("A'B'C'D"));
        let q2 = GroupByQuery::unfiltered(cube.groupby("A'B''C''D"));
        let r1 = reference_eval(&cube, base, &q1);
        let r2 = reference_eval(&cube, base, &q2);
        // Budget exactly fits both entries as produced; any growth from
        // patched-in new group keys must force an eviction mid-patch.
        let budget = result_bytes(&r1) + result_bytes(&r2);
        let mut cache = ResultCache::new(budget);
        cache.insert(q1.clone(), r1, SimTime::from_nanos(1));
        cache.insert(q2.clone(), r2, SimTime::from_nanos(1 << 40));
        assert_eq!(cache.len(), 2);

        // Spread delta keys across the leaf space: with 5184 possible
        // fine groups and 300 base rows, most of these open new groups.
        let rows = delta_rows(&cube.schema, 64);
        starshare_olap::append_facts(&mut cube, &rows).unwrap();
        cache.apply_append(&cube.schema, cube.epoch, &rows, &model());

        assert!(
            cache.bytes() <= cache.max_bytes(),
            "patched cache must re-enforce its byte budget"
        );
        assert!(cache.stats().evictions > 0, "growth must have evicted");
        assert!(
            cache.contains_exact(&q2),
            "the high-benefit entry must survive the race"
        );
        // Whatever survived still answers bit-identically.
        let direct = reference_eval(&cube, base, &q2);
        let hit = cache.lookup(&cube.schema, &q2, &model()).expect("kept");
        assert_eq!(rows_bits(&hit.into_result()), rows_bits(&direct));
    }

    #[test]
    fn oversized_results_are_never_admitted() {
        let cube = cube();
        let base = cube.catalog.base_table().unwrap();
        let q = GroupByQuery::unfiltered(cube.groupby("A'B'C'D"));
        let r = reference_eval(&cube, base, &q);
        let mut cache = ResultCache::new(ENTRY_OVERHEAD_BYTES); // smaller than any payload
        cache.insert(q.clone(), r, SimTime::from_nanos(1));
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.stats().insertions, 0);
    }

    /// The per-row patch `apply_append` ran before the columnar cascade:
    /// the leaf delta in a `BTreeMap`, then [`merge_rowwise`]. [`patch_rows`]
    /// must match it row for row and counter for counter.
    fn patch_rows_rowwise(
        pipeline: &DimPipeline,
        agg: Distributive,
        delta_rows: &[(Vec<u32>, f64)],
        rows: &mut Vec<(Vec<u32>, f64)>,
        cpu: &mut CpuCounters,
    ) {
        let mut delta: BTreeMap<Vec<u32>, f64> = BTreeMap::new();
        for (key, m) in delta_rows {
            cpu.hash_probes += 1;
            cpu.agg_updates += 1;
            let v = agg.of_fact(*m);
            delta
                .entry(key.clone())
                .and_modify(|acc| *acc = agg.combine(*acc, v))
                .or_insert(v);
        }
        let delta: Vec<(Vec<u32>, f64)> = delta.into_iter().collect();
        merge_rowwise(pipeline, agg, &delta, rows, cpu);
    }

    /// The row-at-a-time merge of dimension-indexed `partials` into sorted
    /// `rows`: the short-circuit filter on every partial, its key rolled
    /// through the codec into a `BTreeMap`, and a binary-search-and-insert
    /// merge. On an empty `rows` it is the subsumption roll-up's oracle.
    fn merge_rowwise(
        pipeline: &DimPipeline,
        agg: Distributive,
        partials: &[(Vec<u32>, f64)],
        rows: &mut Vec<(Vec<u32>, f64)>,
        cpu: &mut CpuCounters,
    ) {
        let mut patch: BTreeMap<Vec<u32>, f64> = BTreeMap::new();
        for (key, m) in partials {
            if !pipeline.filter_skipping(key, cpu, 0) {
                continue;
            }
            cpu.hash_probes += 1;
            cpu.agg_updates += 1;
            patch
                .entry(pipeline.kernel().codec().rolled(|d| key[d]).collect())
                .and_modify(|acc| *acc = agg.combine(*acc, *m))
                .or_insert(*m);
        }
        for (k, dv) in patch {
            cpu.tuple_copies += 1;
            match rows.binary_search_by(|(rk, _)| rk.cmp(&k)) {
                Ok(i) => rows[i].1 = agg.combine(rows[i].1, dv),
                Err(i) => rows.insert(i, (k, dv)),
            }
        }
    }

    /// The columnar patch against the row-at-a-time oracle over random
    /// entries: every lattice group-by, 0–4 predicated dimensions at
    /// random levels, all four patchable aggregates, and deltas drawn both
    /// from keys the base already holds (no new groups) and from the whole
    /// leaf space (brand-new groups). Rows and every counter must match.
    #[test]
    fn columnar_patch_matches_the_row_at_a_time_oracle() {
        let cube = cube();
        let schema = &cube.schema;
        let base = cube.catalog.base_table().unwrap();
        let finest = GroupBy::finest(schema.n_dims());
        let mut nodes = lattice_nodes(schema);
        nodes.push(finest.clone());
        let table = cube.catalog.table(base);
        let mut key = vec![0u32; schema.n_dims()];
        let base_keys: Vec<Vec<u32>> = (0..table.n_rows())
            .map(|pos| {
                table.heap().read_at(pos, &mut key);
                key.clone()
            })
            .collect();

        let mut rng = starshare_prng::Prng::seed_from_u64(0x0ca7_c4e5);
        let (mut grew, mut filtered, mut sel) = (0, 0, Vec::new());
        for case in 0..400usize {
            let agg_fn = [AggFn::Sum, AggFn::Count, AggFn::Min, AggFn::Max][case % 4];
            let agg = agg_fn.distributive().unwrap();
            let mut dims: Vec<usize> = (0..schema.n_dims()).collect();
            rng.shuffle(&mut dims);
            let n_preds = rng.gen_range(0..schema.n_dims() + 1);
            let preds = (0..schema.n_dims())
                .map(|d| {
                    if !dims[..n_preds].contains(&d) {
                        return MemberPred::All;
                    }
                    let level = rng.gen_range(0..schema.dim(d).n_levels());
                    let card = schema.dim(d).cardinality(level);
                    let n = rng.gen_range(1..card.min(4) + 1);
                    MemberPred::members_in(level, (0..n).map(|_| rng.gen_range(0..card)).collect())
                })
                .collect();
            let group_by = nodes[rng.gen_range(0..nodes.len())].clone();
            let query = GroupByQuery::new(group_by, preds).with_agg(agg_fn);
            let entry = reference_eval(&cube, base, &query).rows;
            let from_base = case % 8 < 4;
            let delta: Vec<(Vec<u32>, f64)> = (0..rng.gen_range(0..80usize))
                .map(|_| {
                    let key = if from_base {
                        base_keys[rng.gen_range(0..base_keys.len())].clone()
                    } else {
                        (0..schema.n_dims())
                            .map(|d| rng.gen_range(0..schema.dim(d).cardinality(0)))
                            .collect()
                    };
                    (key, rng.gen_range(0..400u32) as f64 * 0.25)
                })
                .collect();
            let pipeline = DimPipeline::compile(schema, &finest, &query).unwrap();

            let (mut want, mut want_cpu) = (entry.clone(), CpuCounters::default());
            patch_rows_rowwise(&pipeline, agg, &delta, &mut want, &mut want_cpu);
            let (mut got, mut got_cpu) = (entry.clone(), CpuCounters::default());
            let (cols, measures) = leaf_delta(schema, agg, &delta, &mut got_cpu);
            patch_rows(
                &pipeline,
                agg,
                &cols,
                &measures,
                &mut got,
                &mut sel,
                &mut got_cpu,
            );

            let bits = |rows: &[(Vec<u32>, f64)]| -> Vec<(Vec<u32>, u64)> {
                rows.iter().map(|(k, m)| (k.clone(), m.to_bits())).collect()
            };
            assert_eq!(bits(&got), bits(&want), "case {case}: {query:?}");
            assert_eq!(got_cpu, want_cpu, "case {case}: {query:?}");
            assert!(!from_base || want.len() == entry.len(), "case {case}");
            grew += usize::from(want.len() > entry.len());
            filtered += usize::from(sel.len() < measures.len());
        }
        assert!(grew > 20, "brand-new groups exercised in {grew} cases");
        assert!(
            filtered > 100,
            "predicates rejected keys in {filtered} cases"
        );
    }

    #[test]
    fn hit_ratio_is_none_until_something_is_probed() {
        let mut stats = CacheStats::default();
        assert_eq!(stats.hit_ratio(), None);
        assert!(stats.to_json().contains("\"hit_ratio\":null"));
        assert!(stats.to_string().contains("(n/a hit)"), "{stats}");
        stats.exact_hits = 1;
        stats.misses = 1;
        assert_eq!(stats.hit_ratio(), Some(0.5));
        assert!(stats.to_string().contains("(50% hit)"), "{stats}");
    }

    /// The Spill tier end to end: on four dimensions of 2^16 leaves the
    /// finest group-by's keys overflow `u64`, so the leaf delta, a roll-up
    /// at the finest group-by and the patch all fold spilled keys. A cached
    /// finest-level entry is rolled up (to the finest and to a packed
    /// coarser group-by) and then patched: rows are bitwise those of direct
    /// evaluation, and counters those of the row-at-a-time oracle.
    #[test]
    fn spilled_keys_roll_up_and_patch_like_the_oracle() {
        let schema = StarSchema::new(
            ["P", "Q", "R", "S"]
                .map(|n| Dimension::uniform(n, 1 << 12, &[16]))
                .to_vec(),
            "m",
        );
        let mut cube = CubeBuilder::new(schema)
            .rows(2_000)
            .seed(6)
            .base_name("base")
            .build();
        let schema = cube.schema.clone();
        let base = cube.catalog.base_table().unwrap();
        let finest = GroupBy::finest(4);
        let coarse = GroupBy::new(vec![LevelRef::Level(1); 4]);
        let top = |members: std::ops::Range<u32>| MemberPred::members_in(1, members.collect());
        let all = MemberPred::All;
        let cached_q = GroupByQuery::new(
            finest.clone(),
            vec![top(0..2048), all.clone(), all.clone(), all.clone()],
        );
        let probes = [
            GroupByQuery::new(
                finest.clone(),
                vec![top(0..1024), top(1024..4096), all.clone(), all.clone()],
            ),
            GroupByQuery::new(coarse, vec![top(0..2048), all.clone(), all.clone(), all]),
        ];
        let tier = |q: &GroupByQuery| {
            DimPipeline::compile(&schema, &finest, q)
                .unwrap()
                .kernel_tier()
        };
        assert_eq!(tier(&cached_q), KernelTier::Spill);
        assert_eq!(tier(&probes[0]), KernelTier::Spill);
        assert_eq!(tier(&probes[1]), KernelTier::Packed);

        let cached = reference_eval(&cube, base, &cached_q).rows;
        let mut cache = ResultCache::new(usize::MAX);
        cache.insert(
            cached_q.clone(),
            QueryResult {
                query: cached_q.clone(),
                rows: cached.clone(),
            },
            SimTime::from_nanos(1_000_000),
        );
        for probe in &probes {
            let Some(CacheHit::Subsumption { result, report }) =
                cache.lookup(&schema, probe, &model())
            else {
                panic!("{probe:?} must roll up the finest entry");
            };
            let direct = reference_eval(&cube, base, probe);
            assert!(direct.n_groups() > 100, "{}", direct.n_groups());
            assert_eq!(rows_bits(&result), rows_bits(&direct));
            let pipeline = DimPipeline::compile(&schema, &finest, probe).unwrap();
            let (mut want, mut want_cpu) = (Vec::new(), CpuCounters::default());
            merge_rowwise(
                &pipeline,
                Distributive::Sum,
                &cached,
                &mut want,
                &mut want_cpu,
            );
            assert_eq!(report.cpu, want_cpu, "{probe:?}");
        }

        // Half the delta lands on groups the entry holds, half anywhere:
        // some combine, some open new groups, some are filtered away.
        let mut rng = starshare_prng::Prng::seed_from_u64(0x5b11);
        let delta: Vec<(Vec<u32>, f64)> = (0..200)
            .map(|i| {
                let key = if i % 2 == 0 {
                    cached[rng.gen_range(0..cached.len())].0.clone()
                } else {
                    (0..4).map(|_| rng.gen_range(0..1u32 << 16)).collect()
                };
                (key, rng.gen_range(0..400u32) as f64 * 0.25)
            })
            .collect();
        append_facts(&mut cube, &delta).unwrap();
        let report = cache.apply_append(&schema, cube.epoch, &delta, &model());
        let pipeline = DimPipeline::compile(&schema, &finest, &cached_q).unwrap();
        let (mut want, mut want_cpu) = (cached.clone(), CpuCounters::default());
        patch_rows_rowwise(
            &pipeline,
            Distributive::Sum,
            &delta,
            &mut want,
            &mut want_cpu,
        );
        assert_eq!(report.cpu, want_cpu);
        assert!(want.len() > cached.len(), "new groups opened");
        assert!(
            delta.iter().any(|(k, _)| k[0] >= 2048 * 16),
            "rows filtered"
        );

        let direct = reference_eval(&cube, base, &cached_q);
        let hit = cache.lookup(&schema, &cached_q, &model()).expect("patched");
        assert!(!hit.is_subsumption());
        assert_eq!(rows_bits(&hit.into_result()), rows_bits(&direct));
        let probe = &probes[0];
        let hit = cache.lookup(&schema, probe, &model()).expect("rolls up");
        assert_eq!(
            rows_bits(&hit.into_result()),
            rows_bits(&reference_eval(&cube, base, probe))
        );
    }
}
