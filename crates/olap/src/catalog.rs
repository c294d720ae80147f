//! Stored tables and the materialized group-by catalog.
//!
//! A [`StoredTable`] is one on-"disk" table: the base fact table or a
//! precomputed group-by. It stores, per dimension, the member id at that
//! dimension's *stored level* (dimensions aggregated to `All` store key 0),
//! plus one measure column whose meaning is its [`MeasureKind`] (raw fact
//! data, or a SUM/COUNT/MIN/MAX aggregate). Tables may carry bitmap join
//! indexes on individual dimensions — the paper's "star join bitmap
//! indexes created on attributes A, B and C" (§7.2).
//!
//! The [`Catalog`] owns all stored tables; [`Catalog::candidates_for`]
//! answers the question at the heart of the paper's optimizers: *which
//! materialized group-bys can this query be computed from?*

use starshare_bitmap::{BitmapJoinIndex, IndexFormat};
use starshare_storage::{FileId, HeapFile, ScanBatch, TupleLayout};

use crate::groupkey::{GroupKey, GroupKeyCodec, GroupMap};
use crate::maintain::GroupPositions;
use crate::query::{AggFn, GroupBy, GroupByQuery};
use crate::schema::{DimId, StarSchema};

/// What a stored table's measure column means.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MeasureKind {
    /// Un-aggregated fact data (the base table): answers any aggregate.
    #[default]
    Raw,
    /// Each row holds `agg` of the underlying facts for its group.
    Aggregated(AggFn),
}

impl MeasureKind {
    /// True if a table with this measure can answer a query using `agg`.
    ///
    /// Raw data answers everything. An aggregated view answers only the
    /// *same* distributive function: SUM-of-SUMs, MIN-of-MINs,
    /// MAX-of-MAXes are the originals, and COUNT views re-aggregate by
    /// summing their cells. AVG is not distributive
    /// ([`AggFn::distributive`]), so no view answers it.
    pub fn answers(self, agg: AggFn) -> bool {
        match self {
            MeasureKind::Raw => true,
            MeasureKind::Aggregated(stored) => stored == agg && agg.distributive().is_some(),
        }
    }
}

impl std::fmt::Display for MeasureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MeasureKind::Raw => write!(f, "raw"),
            MeasureKind::Aggregated(a) => write!(f, "{a}"),
        }
    }
}

/// Index of a stored table within the catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(pub usize);

impl std::fmt::Display for TableId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "table#{}", self.0)
    }
}

/// A bitmap join index on one dimension of a stored table, built at a
/// chosen hierarchy level.
///
/// The level may be coarser than the table's stored level (indexing
/// `ABCD`'s D column at `D'` keeps the index small while still serving the
/// paper's `FILTER(D.DD1)` predicates); a predicate is index-servable iff
/// its level is at least as coarse as the index's.
#[derive(Debug, Clone)]
pub struct DimIndex {
    /// The hierarchy level the index keys on.
    pub level: u8,
    /// The bitmaps.
    pub index: BitmapJoinIndex,
}

impl DimIndex {
    /// True if a predicate at `pred_level` can be answered from this index
    /// (by ORing the bitmaps of the predicate members' descendants at the
    /// index level).
    pub fn serves_level(&self, pred_level: u8) -> bool {
        pred_level >= self.level
    }
}

/// One stored table: a heap file at a fixed group-by, plus optional bitmap
/// join indexes per dimension.
#[derive(Debug, Clone)]
pub struct StoredTable {
    name: String,
    group_by: GroupBy,
    heap: HeapFile,
    indexes: Vec<Option<DimIndex>>,
    measure: MeasureKind,
    /// Group-key → row-position index of an aggregated view, built on the
    /// view's first append (see [`crate::maintain`]).
    positions: Option<GroupPositions>,
}

impl StoredTable {
    /// Wraps a heap file as a stored table holding raw (un-aggregated)
    /// measures.
    ///
    /// # Panics
    /// Panics if the heap's key width differs from the group-by's dimension
    /// count.
    pub fn new(name: impl Into<String>, group_by: GroupBy, heap: HeapFile) -> Self {
        Self::with_measure(name, group_by, heap, MeasureKind::Raw)
    }

    /// Wraps a heap file with an explicit measure meaning.
    pub fn with_measure(
        name: impl Into<String>,
        group_by: GroupBy,
        heap: HeapFile,
        measure: MeasureKind,
    ) -> Self {
        assert_eq!(
            heap.layout().n_dims(),
            group_by.n_dims(),
            "heap layout does not match group-by"
        );
        let n = group_by.n_dims();
        StoredTable {
            name: name.into(),
            group_by,
            heap,
            indexes: vec![None; n],
            measure,
            positions: None,
        }
    }

    /// What the measure column holds.
    pub fn measure(&self) -> MeasureKind {
        self.measure
    }

    /// Mutable heap access for load-time mutation (incremental
    /// maintenance). Indexes are NOT kept in sync automatically — call
    /// [`extend_indexes`](Self::extend_indexes) after appending.
    pub fn heap_mut(&mut self) -> &mut HeapFile {
        &mut self.heap
    }

    /// The heap together with its group-key → position index, building the
    /// index (one pass over the heap) on first use and extending it over any
    /// rows appended since. Only meaningful for aggregated views, whose
    /// group keys are unique.
    pub(crate) fn heap_and_positions(
        &mut self,
        schema: &StarSchema,
    ) -> (&mut HeapFile, &mut GroupPositions) {
        let positions = self
            .positions
            .get_or_insert_with(|| GroupPositions::new(schema, &self.group_by));
        positions.extend(&self.heap);
        (&mut self.heap, positions)
    }

    /// The group-key → position index, if an append has built it.
    #[cfg(test)]
    pub(crate) fn group_positions(&self) -> Option<&GroupPositions> {
        self.positions.as_ref()
    }

    /// Extends every index over rows appended to the heap since the index
    /// was built or last extended.
    pub fn extend_indexes(&mut self, schema: &StarSchema) {
        for d in 0..self.indexes.len() {
            // Take the index out so the heap can be borrowed immutably
            // alongside the mutable index (no heap copy).
            let Some(mut ix) = self.indexes[d].take() else {
                continue;
            };
            let stored = self
                .stored_level(d)
                .expect("indexed dimension cannot be All");
            let dim = schema.dim(d);
            let level = ix.level;
            ix.index
                .extend(&self.heap, d, |k| dim.roll_up(k, stored, level));
            self.indexes[d] = Some(ix);
        }
    }

    /// True if this table can answer `query`: its levels derive the
    /// query's required levels *and* its measure supports the query's
    /// aggregate.
    pub fn can_answer(&self, query: &GroupByQuery) -> bool {
        query.answerable_from(&self.group_by) && self.measure.answers(query.agg)
    }

    /// Table name (conventionally the group-by shorthand, e.g. `A'B'C'D`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The levels this table stores.
    pub fn group_by(&self) -> &GroupBy {
        &self.group_by
    }

    /// The stored level of dimension `d` (`None` when aggregated to All).
    pub fn stored_level(&self, d: DimId) -> Option<u8> {
        self.group_by.level(d).level()
    }

    /// The heap file.
    pub fn heap(&self) -> &HeapFile {
        &self.heap
    }

    /// Rows stored.
    pub fn n_rows(&self) -> u64 {
        self.heap.n_tuples()
    }

    /// Pages occupied.
    pub fn pages(&self) -> u32 {
        self.heap.page_count()
    }

    /// The bitmap join index on dimension `d`, if built.
    pub fn index(&self, d: DimId) -> Option<&DimIndex> {
        self.indexes[d].as_ref()
    }

    /// True if dimension `d` has an index that can serve a predicate at
    /// `pred_level`.
    pub fn index_serves(&self, d: DimId, pred_level: u8) -> bool {
        self.indexes[d]
            .as_ref()
            .is_some_and(|ix| ix.serves_level(pred_level))
    }

    /// True if every dimension a query predicates on has an index at a
    /// level fine enough to serve that predicate (the precondition for a
    /// *fully indexed* star join on this table; partially indexed plans
    /// evaluate the rest as residual predicates).
    pub fn has_indexes_for(&self, query: &GroupByQuery) -> bool {
        query
            .preds
            .iter()
            .enumerate()
            .all(|(d, p)| match p.level() {
                None => true,
                Some(pl) => self.index_serves(d, pl),
            })
    }

    /// Builds a bitmap join index on dimension `d` at hierarchy level
    /// `level` (which must be at least as coarse as the stored level).
    ///
    /// # Panics
    /// Panics if dimension `d` is aggregated to All in this table or
    /// `level` is finer than the stored level.
    pub fn build_index(&mut self, schema: &StarSchema, d: DimId, level: u8, index_file: FileId) {
        self.build_index_with_format(schema, d, level, IndexFormat::Plain, index_file);
    }

    /// Like [`build_index`](Self::build_index) with an explicit storage
    /// format (see [`IndexFormat`]).
    pub fn build_index_with_format(
        &mut self,
        schema: &StarSchema,
        d: DimId,
        level: u8,
        format: IndexFormat,
        index_file: FileId,
    ) {
        let stored = self
            .stored_level(d)
            .expect("cannot index a dimension aggregated to All");
        assert!(
            level >= stored,
            "index level {level} finer than stored level {stored}"
        );
        let name = format!("{}.{}", self.name, schema.dim(d).level(level).name);
        let dim = schema.dim(d).clone();
        let idx =
            BitmapJoinIndex::build_with_format(name, index_file, &self.heap, d, format, |k| {
                dim.roll_up(k, stored, level)
            });
        self.indexes[d] = Some(DimIndex { level, index: idx });
    }
}

/// The set of stored tables available to the optimizer.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: Vec<StoredTable>,
    next_file: u32,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Allocates a fresh file id (tables and indexes share the space).
    pub fn alloc_file_id(&mut self) -> FileId {
        let id = FileId(self.next_file);
        self.next_file += 1;
        id
    }

    /// Raises the file-id watermark so future allocations do not collide
    /// with ids assigned elsewhere (used when loading a persisted cube).
    pub fn ensure_file_watermark(&mut self, min_next: u32) {
        self.next_file = self.next_file.max(min_next);
    }

    /// Adds a table, returning its id.
    pub fn add_table(&mut self, table: StoredTable) -> TableId {
        self.tables.push(table);
        TableId(self.tables.len() - 1)
    }

    /// Number of tables.
    pub fn n_tables(&self) -> usize {
        self.tables.len()
    }

    /// The table with id `id`.
    ///
    /// # Panics
    /// Panics if out of range.
    pub fn table(&self, id: TableId) -> &StoredTable {
        &self.tables[id.0]
    }

    /// Mutable access (index building).
    pub fn table_mut(&mut self, id: TableId) -> &mut StoredTable {
        &mut self.tables[id.0]
    }

    /// All `(id, table)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (TableId, &StoredTable)> {
        self.tables.iter().enumerate().map(|(i, t)| (TableId(i), t))
    }

    /// Finds a table storing exactly `group_by`.
    pub fn find_by_groupby(&self, group_by: &GroupBy) -> Option<TableId> {
        self.iter()
            .find(|(_, t)| t.group_by() == group_by)
            .map(|(id, _)| id)
    }

    /// Finds a table by name.
    pub fn find_by_name(&self, name: &str) -> Option<TableId> {
        self.iter()
            .find(|(_, t)| t.name() == name)
            .map(|(id, _)| id)
    }

    /// All tables that can answer `query` (levels *and* measure), smallest
    /// first.
    pub fn candidates_for(&self, query: &GroupByQuery) -> Vec<TableId> {
        let mut c: Vec<TableId> = self
            .iter()
            .filter(|(_, t)| t.can_answer(query))
            .map(|(id, _)| id)
            .collect();
        c.sort_by_key(|id| self.table(*id).n_rows());
        c
    }

    /// The finest stored table (the paper's `LL`), if present: a table
    /// whose group-by derives every other table's.
    pub fn base_table(&self) -> Option<TableId> {
        self.iter()
            .find(|(_, t)| {
                self.tables
                    .iter()
                    .all(|o| t.group_by().derives(o.group_by()))
            })
            .map(|(id, _)| id)
    }
}

/// A complete cube: schema plus catalog, plus optional statistics.
#[derive(Debug)]
pub struct Cube {
    /// The star schema.
    pub schema: StarSchema,
    /// The stored tables.
    pub catalog: Catalog,
    /// Optional per-dimension histograms (see [`crate::stats`]); `None` is
    /// the paper-faithful uniform-assumption configuration.
    pub stats: Option<crate::stats::CubeStats>,
    /// Data epoch: bumped by every successful [`crate::append_facts`], so
    /// anything derived from the cube's contents (e.g. a result cache) can
    /// tell at a glance whether it is stale. Starts at 0 for a fresh cube.
    pub epoch: u64,
}

impl Cube {
    /// A cube without statistics, at epoch 0.
    pub fn new(schema: StarSchema, catalog: Catalog) -> Self {
        Cube {
            schema,
            catalog,
            stats: None,
            epoch: 0,
        }
    }

    /// Advances the data epoch (called after every successful mutation of
    /// the cube's contents).
    pub fn bump_epoch(&mut self) {
        self.epoch += 1;
    }

    /// Collects (or refreshes) per-dimension statistics from the base
    /// table.
    ///
    /// # Panics
    /// Panics if the catalog has no leaf-level base table.
    pub fn collect_stats(&mut self) {
        let base = self
            .catalog
            .base_table()
            .expect("statistics need a base table");
        self.stats = Some(crate::stats::CubeStats::collect(
            &self.schema,
            self.catalog.table(base),
        ));
    }

    /// Parses a group-by shorthand against this cube's schema.
    pub fn groupby(&self, s: &str) -> GroupBy {
        GroupBy::parse(&self.schema, s).unwrap_or_else(|e| panic!("{e}"))
    }
}

/// How one source measure folds into a group accumulator, given the
/// aggregate being computed and the source table's measure kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CombineMode {
    /// `acc += m` (SUM from raw/SUM data; COUNT from a COUNT view, whose
    /// cells are summed).
    Add,
    /// `acc += 1` (COUNT over raw rows).
    CountRows,
    /// `acc = min(acc, m)`.
    TakeMin,
    /// `acc = max(acc, m)`.
    TakeMax,
    /// `sum += m; n += 1`, finalized as `sum / n` (AVG over raw rows).
    Average,
}

/// Picks the fold for `(agg, source)`.
///
/// # Panics
/// Panics if the source cannot answer the aggregate (callers must check
/// [`MeasureKind::answers`] first).
pub fn combine_mode(agg: AggFn, source: MeasureKind) -> CombineMode {
    assert!(
        source.answers(agg),
        "a {source} table cannot answer {agg} queries"
    );
    match (agg, source) {
        (AggFn::Sum, _) => CombineMode::Add,
        (AggFn::Count, MeasureKind::Raw) => CombineMode::CountRows,
        (AggFn::Count, MeasureKind::Aggregated(_)) => CombineMode::Add,
        (AggFn::Min, _) => CombineMode::TakeMin,
        (AggFn::Max, _) => CombineMode::TakeMax,
        (AggFn::Avg, _) => CombineMode::Average,
    }
}

/// Per-group accumulator shared by materialization, the executor's
/// aggregation hash tables, and the reference evaluator.
///
/// `Default` is the *unoccupied* placeholder the executor's dense kernel
/// fills its flat slot array with; a slot's value is only meaningful once
/// its occupancy bit is set (the first real measure arrives via
/// [`AggState::first`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AggState {
    acc: f64,
    n: u64,
}

impl AggState {
    /// Starts a group from its first measure.
    pub fn first(mode: CombineMode, m: f64) -> Self {
        match mode {
            CombineMode::Add | CombineMode::TakeMin | CombineMode::TakeMax => {
                AggState { acc: m, n: 1 }
            }
            CombineMode::CountRows => AggState { acc: 1.0, n: 1 },
            CombineMode::Average => AggState { acc: m, n: 1 },
        }
    }

    /// Folds another measure in.
    pub fn fold(&mut self, mode: CombineMode, m: f64) {
        match mode {
            CombineMode::Add => self.acc += m,
            CombineMode::CountRows => self.acc += 1.0,
            CombineMode::TakeMin => self.acc = self.acc.min(m),
            CombineMode::TakeMax => self.acc = self.acc.max(m),
            CombineMode::Average => {
                self.acc += m;
                self.n += 1;
            }
        }
    }

    /// Folds another *partial state* for the same group in (partitioned
    /// aggregation: each partition accumulates privately, then partials
    /// merge).
    pub fn merge(&mut self, mode: CombineMode, other: &AggState) {
        match mode {
            CombineMode::Add | CombineMode::CountRows | CombineMode::Average => {
                self.acc += other.acc;
                self.n += other.n;
            }
            CombineMode::TakeMin => self.acc = self.acc.min(other.acc),
            CombineMode::TakeMax => self.acc = self.acc.max(other.acc),
        }
    }

    /// The group's final value.
    pub fn value(&self, mode: CombineMode) -> f64 {
        match mode {
            CombineMode::Average => self.acc / self.n as f64,
            _ => self.acc,
        }
    }
}

/// Aggregates `source` to `target` levels into a new SUM view.
///
/// This is load-time work (building the precomputed group-bys the optimizer
/// chooses among), so it reads the source's page batches unaccounted and
/// groups them through the [`GroupKeyCodec`] rolling source to target.
///
/// Output rows are stored in *deterministic hash order* ([`hash_order`] of
/// the group key, ties by key): the order a hash-aggregation operator of
/// the paper's era would emit them, effectively random with respect to the
/// key. This matters for fidelity: it leaves views unclustered, so
/// bitmap-directed probes really do touch ~one page per candidate tuple —
/// the same assumption the §5.1 cost model's random-I/O term makes. (A
/// key-sorted layout would make index plans far cheaper than the optimizer
/// estimates and distort every hash-vs-index crossover.) The order depends
/// only on the key set, so two materializations of the same target agree
/// row-for-row regardless of source.
///
/// # Panics
/// Panics if `source` cannot derive `target`, or a stored key lies outside
/// its level.
pub fn materialize(
    schema: &StarSchema,
    source: &StoredTable,
    target: GroupBy,
    name: impl Into<String>,
    file_id: FileId,
) -> StoredTable {
    materialize_agg(schema, source, target, AggFn::Sum, name, file_id)
}

/// Like [`materialize`] but for an arbitrary re-aggregatable function:
/// the view's cells hold `agg` of the underlying facts and its measure
/// kind is `Aggregated(agg)`.
///
/// # Panics
/// Panics if `source` cannot derive `target`, the source's measure cannot
/// answer `agg`, `agg` is AVG (an AVG view could never be used —
/// averages do not re-aggregate), or a stored key lies outside its level.
pub fn materialize_agg(
    schema: &StarSchema,
    source: &StoredTable,
    target: GroupBy,
    agg: AggFn,
    name: impl Into<String>,
    file_id: FileId,
) -> StoredTable {
    assert!(
        source.group_by().derives(&target),
        "cannot materialize {} from {}",
        target.display(schema),
        source.group_by().display(schema)
    );
    assert!(agg != AggFn::Avg, "AVG views are not re-aggregatable");
    let mode = combine_mode(agg, source.measure());
    let n_dims = schema.n_dims();
    // View domains are sparse: hash, never a dense array.
    let codec = GroupKeyCodec::rolling(schema, source.group_by(), &target, 0);
    let mut groups: GroupMap<AggState> = GroupMap::default();
    let mut cursor = source.heap().scan_batches(0, source.n_rows());
    let mut batch = ScanBatch::new(source.heap().layout());
    while cursor.read_next(&mut batch) {
        codec.assert_in_domain(&batch);
        for i in 0..batch.len() {
            let m = batch.measure(i);
            groups
                .entry(codec.key(|d| batch.key(d, i)))
                .and_modify(|st| st.fold(mode, m))
                .or_insert_with(|| AggState::first(mode, m));
        }
    }
    let mut key = vec![0u32; n_dims];
    let mut rows: Vec<(u64, GroupKey, f64)> = groups
        .into_iter()
        .map(|(k, st)| {
            codec.unpack_into(&k, &mut key);
            (hash_order(&key), k, st.value(mode))
        })
        .collect();
    rows.sort_unstable_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
    let mut heap = HeapFile::new(file_id, TupleLayout::new(n_dims));
    for (_, k, v) in rows {
        codec.unpack_into(&k, &mut key);
        heap.append(&key, v);
    }
    StoredTable::with_measure(name, target, heap, MeasureKind::Aggregated(agg))
}

/// The deterministic "hash order" rank of a group key (see [`materialize`]).
fn hash_order(key: &[u32]) -> u64 {
    // FNV-1a over the key words: stable across runs and platforms, unlike
    // `DefaultHasher`'s unspecified algorithm.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &k in key {
        for b in k.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1_0000_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{LevelRef, MemberPred};
    use crate::schema::Dimension;
    use starshare_prng::Prng;

    /// The materialization before the group-key codec: one `read_at` per
    /// row into a `HashMap<Vec<u32>, AggState>`, rows sorted by
    /// `(hash_order, key)`. Returns the rows as keys and measure bits.
    fn materialize_oracle(
        schema: &StarSchema,
        source: &StoredTable,
        target: &GroupBy,
        agg: AggFn,
    ) -> Vec<(Vec<u32>, u64)> {
        let mode = combine_mode(agg, source.measure());
        let n_dims = schema.n_dims();
        let mut acc: std::collections::HashMap<Vec<u32>, AggState> =
            std::collections::HashMap::new();
        let mut keys = vec![0u32; n_dims];
        let mut out_keys = vec![0u32; n_dims];
        for pos in 0..source.n_rows() {
            let m = source.heap().read_at(pos, &mut keys);
            for d in 0..n_dims {
                out_keys[d] = match (source.group_by().level(d), target.level(d)) {
                    (_, LevelRef::All) => 0,
                    (LevelRef::Level(f), LevelRef::Level(t)) => {
                        schema.dim(d).roll_up(keys[d], f, t)
                    }
                    (LevelRef::All, LevelRef::Level(_)) => panic!("cannot refine an All dimension"),
                };
            }
            match acc.get_mut(out_keys.as_slice()) {
                Some(st) => st.fold(mode, m),
                None => {
                    acc.insert(out_keys.clone(), AggState::first(mode, m));
                }
            }
        }
        let mut rows: Vec<(Vec<u32>, f64)> =
            acc.into_iter().map(|(k, st)| (k, st.value(mode))).collect();
        rows.sort_by_cached_key(|(k, _)| (hash_order(k), k.clone()));
        rows.into_iter().map(|(k, v)| (k, v.to_bits())).collect()
    }

    /// Every row of a table in heap order: keys and measure bits.
    fn rows_of(t: &StoredTable) -> Vec<(Vec<u32>, u64)> {
        let mut keys = vec![0u32; t.group_by().n_dims()];
        (0..t.n_rows())
            .map(|pos| {
                let m = t.heap().read_at(pos, &mut keys);
                (keys.clone(), m.to_bits())
            })
            .collect()
    }

    /// Views built through the codec equal the oracle's row for row and
    /// bit for bit, over random small schemas, random targets (from the
    /// base and from a view) and every re-aggregatable function. Every
    /// tenth schema has four dimensions of 2^16 leaves and first
    /// re-aggregates the base at its own levels, a domain that overflows
    /// `u64` and spills.
    #[test]
    fn codec_materialization_matches_the_row_at_a_time_oracle() {
        let mut rng = Prng::seed_from_u64(0xc0dec);
        let mut spilled = 0;
        for case in 0..40 {
            let dims: Vec<Dimension> = if case % 10 == 0 {
                (0..4)
                    .map(|d| Dimension::uniform(format!("H{d}"), 1 << 8, &[1 << 8]))
                    .collect()
            } else {
                (0..rng.gen_range(1..5u32))
                    .map(|d| {
                        let fan_outs: Vec<u32> = (0..rng.gen_range(0..3u32))
                            .map(|_| rng.gen_range(1..6u32))
                            .collect();
                        Dimension::uniform(format!("D{d}"), rng.gen_range(1..5u32), &fan_outs)
                    })
                    .collect()
            };
            let schema = StarSchema::new(dims, "m");
            let cube = crate::datagen::CubeBuilder::new(schema.clone())
                .rows(rng.gen_range(0..600u64))
                .seed(case)
                .build();
            let base = cube.catalog.table(TableId(0));
            let random_target = |rng: &mut Prng, from: &GroupBy| {
                GroupBy::new(
                    (0..schema.n_dims())
                        .map(|d| match from.level(d) {
                            LevelRef::Level(l) => {
                                let top = schema.dim(d).n_levels();
                                match rng.gen_range(l as u32..top as u32 + 1) {
                                    t if t == top as u32 => LevelRef::All,
                                    t => LevelRef::Level(t as u8),
                                }
                            }
                            LevelRef::All => LevelRef::All,
                        })
                        .collect(),
                )
            };
            for agg in [AggFn::Sum, AggFn::Min, AggFn::Max, AggFn::Count] {
                let mid = match case % 10 {
                    0 => base.group_by().clone(),
                    _ => random_target(&mut rng, base.group_by()),
                };
                let view = materialize_agg(&schema, base, mid.clone(), agg, "v", FileId(1));
                assert_eq!(rows_of(&view), materialize_oracle(&schema, base, &mid, agg));
                let top = random_target(&mut rng, &mid);
                let rolled = materialize_agg(&schema, &view, top.clone(), agg, "w", FileId(2));
                assert_eq!(
                    rows_of(&rolled),
                    materialize_oracle(&schema, &view, &top, agg)
                );
                let codec =
                    crate::groupkey::GroupKeyCodec::rolling(&schema, base.group_by(), &mid, 0);
                spilled += usize::from(
                    codec.tier() == crate::groupkey::KeyTier::Spill && view.n_rows() > 0,
                );
            }
        }
        assert!(spilled > 0, "some case must spill");
    }

    #[test]
    fn agg_state_merge_equals_unpartitioned_fold() {
        let measures = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0];
        for mode in [
            CombineMode::Add,
            CombineMode::CountRows,
            CombineMode::TakeMin,
            CombineMode::TakeMax,
            CombineMode::Average,
        ] {
            let mut whole = AggState::first(mode, measures[0]);
            for &m in &measures[1..] {
                whole.fold(mode, m);
            }
            // Same stream split at every cut point: merge(left, right) must
            // finalize to the same value.
            for cut in 1..measures.len() {
                let mut left = AggState::first(mode, measures[0]);
                for &m in &measures[1..cut] {
                    left.fold(mode, m);
                }
                let mut right = AggState::first(mode, measures[cut]);
                for &m in &measures[cut + 1..] {
                    right.fold(mode, m);
                }
                left.merge(mode, &right);
                assert_eq!(
                    left.value(mode),
                    whole.value(mode),
                    "{mode:?} split at {cut}"
                );
            }
        }
    }

    fn schema() -> StarSchema {
        StarSchema::new(
            vec![
                Dimension::uniform("A", 2, &[2]),
                Dimension::uniform("B", 2, &[3]),
            ],
            "m",
        )
    }

    /// 24 rows: every (a, b) in 4×6, measure = a*10 + b.
    fn base_table(s: &StarSchema) -> StoredTable {
        let layout = TupleLayout::new(2);
        let rows = (0..4u32).flat_map(|a| (0..6u32).map(move |b| ([a, b], (a * 10 + b) as f64)));
        let heap = HeapFile::from_rows(FileId(0), layout, rows);
        StoredTable::new("AB", GroupBy::finest(s.n_dims()), heap)
    }

    #[test]
    fn materialize_aggregates_correctly() {
        let s = schema();
        let base = base_table(&s);
        let target = GroupBy::parse(&s, "A'B").unwrap();
        let t = materialize(&s, &base, target.clone(), "A'B", FileId(1));
        // 2 A' members × 6 B members = 12 rows.
        assert_eq!(t.n_rows(), 12);
        let mut keys = [0u32; 2];
        let mut total = 0.0;
        for pos in 0..t.n_rows() {
            total += t.heap().read_at(pos, &mut keys);
        }
        let expect: f64 = (0..4)
            .flat_map(|a| (0..6).map(move |b| (a * 10 + b) as f64))
            .sum();
        assert_eq!(total, expect);
        // Row for (A'=0, B=0) should sum a∈{0,1}: 0 + 10 = 10.
        let mut found = false;
        for pos in 0..t.n_rows() {
            let m = t.heap().read_at(pos, &mut keys);
            if keys == [0, 0] {
                assert_eq!(m, 10.0);
                found = true;
            }
        }
        assert!(found);
    }

    #[test]
    fn materialize_to_all_collapses_dimension() {
        let s = schema();
        let base = base_table(&s);
        let target = GroupBy::new(vec![LevelRef::All, LevelRef::Level(0)]);
        let t = materialize(&s, &base, target, "A*B", FileId(1));
        assert_eq!(t.n_rows(), 6);
        let mut keys = [0u32; 2];
        t.heap().read_at(0, &mut keys);
        assert_eq!(keys[0], 0); // All stores 0
    }

    #[test]
    fn materialize_is_deterministic_and_unclustered() {
        let s = schema();
        let base = base_table(&s);
        let target = GroupBy::parse(&s, "A'B").unwrap();
        let t1 = materialize(&s, &base, target.clone(), "v", FileId(1));
        let t2 = materialize(&s, &base, target, "v", FileId(1));
        let mut k1 = [0u32; 2];
        let mut k2 = [0u32; 2];
        let mut keys_seen = std::collections::HashSet::new();
        let mut sorted_runs = 0u32;
        let mut prev: Option<[u32; 2]> = None;
        for pos in 0..t1.n_rows() {
            let m1 = t1.heap().read_at(pos, &mut k1);
            let m2 = t2.heap().read_at(pos, &mut k2);
            assert_eq!(k1, k2, "two materializations must agree row-for-row");
            assert_eq!(m1, m2);
            assert!(keys_seen.insert(k1), "keys must be unique");
            if prev.is_some_and(|p| p < k1) {
                sorted_runs += 1;
            }
            prev = Some(k1);
        }
        // Hash order is not key order: with 12 rows, far fewer than 11
        // ascending adjacencies.
        assert!(
            sorted_runs < t1.n_rows() as u32 - 1,
            "rows should be in hash order, not key-sorted"
        );
    }

    #[test]
    #[should_panic(expected = "cannot materialize")]
    fn materialize_rejects_underivable_target() {
        let s = schema();
        let base = base_table(&s);
        let coarse = materialize(
            &s,
            &base,
            GroupBy::parse(&s, "A'B'").unwrap(),
            "v",
            FileId(1),
        );
        // Refining A' back to A is impossible.
        materialize(&s, &coarse, GroupBy::finest(2), "bad", FileId(2));
    }

    #[test]
    fn catalog_candidates_sorted_by_size() {
        let s = schema();
        let mut cat = Catalog::new();
        let base = base_table(&s);
        let f1 = cat.alloc_file_id();
        let v1 = materialize(&s, &base, GroupBy::parse(&s, "A'B").unwrap(), "A'B", f1);
        let f2 = cat.alloc_file_id();
        let v2 = materialize(&s, &base, GroupBy::parse(&s, "A'B'").unwrap(), "A'B'", f2);
        let base_id = cat.add_table(base);
        let v1_id = cat.add_table(v1);
        let v2_id = cat.add_table(v2);

        let q = GroupByQuery::unfiltered(GroupBy::parse(&s, "A'B'").unwrap());
        let c = cat.candidates_for(&q);
        // All three can answer; smallest (A'B', 4 rows) first, base last.
        assert_eq!(c, vec![v2_id, v1_id, base_id]);

        // A query needing leaf A only answerable from base.
        let q2 = GroupByQuery::unfiltered(GroupBy::finest(2));
        assert_eq!(cat.candidates_for(&q2), vec![base_id]);

        assert_eq!(cat.base_table(), Some(base_id));
        assert_eq!(cat.find_by_name("A'B"), Some(v1_id));
        assert_eq!(
            cat.find_by_groupby(&GroupBy::parse(&s, "A'B'").unwrap()),
            Some(v2_id)
        );
        assert_eq!(cat.find_by_name("nope"), None);
    }

    #[test]
    fn candidates_respect_predicate_levels() {
        let s = schema();
        let mut cat = Catalog::new();
        let base = base_table(&s);
        let v = materialize(
            &s,
            &base,
            GroupBy::parse(&s, "A'B").unwrap(),
            "A'B",
            FileId(5),
        );
        let base_id = cat.add_table(base);
        let v_id = cat.add_table(v);
        // Target is coarse (A') but the predicate is at leaf A → only base.
        let q = GroupByQuery::new(
            GroupBy::parse(&s, "A'B").unwrap(),
            vec![MemberPred::eq(0, 1), MemberPred::All],
        );
        assert_eq!(cat.candidates_for(&q), vec![base_id]);
        // Predicate at A' → both.
        let q2 = GroupByQuery::new(
            GroupBy::parse(&s, "A'B").unwrap(),
            vec![MemberPred::eq(1, 1), MemberPred::All],
        );
        let c = cat.candidates_for(&q2);
        assert!(c.contains(&base_id) && c.contains(&v_id));
    }

    #[test]
    fn build_index_on_stored_level() {
        let s = schema();
        let mut base = base_table(&s);
        base.build_index(&s, 0, 0, FileId(50));
        let idx = base.index(0).unwrap();
        assert_eq!(idx.level, 0);
        assert_eq!(idx.index.n_members(), 4);
        assert_eq!(idx.index.n_rows(), 24);
        assert!(base.index(1).is_none());
        let q = GroupByQuery::new(
            GroupBy::finest(2),
            vec![MemberPred::eq(0, 1), MemberPred::All],
        );
        assert!(base.has_indexes_for(&q));
        let q2 = GroupByQuery::new(
            GroupBy::finest(2),
            vec![MemberPred::eq(0, 1), MemberPred::eq(0, 2)],
        );
        assert!(!base.has_indexes_for(&q2));
    }

    #[test]
    fn coarse_index_serves_only_coarse_predicates() {
        let s = schema();
        let mut base = base_table(&s);
        // Index A at level A' (coarser than the stored leaf level).
        base.build_index(&s, 0, 1, FileId(50));
        let ix = base.index(0).unwrap();
        assert_eq!(ix.level, 1);
        assert_eq!(ix.index.n_members(), 2);
        // Every leaf rolls into its parent's bitmap.
        let bm0 = ix.index.peek(0).unwrap();
        assert_eq!(bm0.count_ones(), 12); // leaves 0,1 → parent 0: half of 24 rows
        assert!(base.index_serves(0, 1));
        assert!(!base.index_serves(0, 0)); // leaf predicate too fine
                                           // has_indexes_for respects predicate level.
        let q_coarse = GroupByQuery::new(
            GroupBy::parse(&s, "A'B").unwrap(),
            vec![MemberPred::eq(1, 0), MemberPred::All],
        );
        assert!(base.has_indexes_for(&q_coarse));
        let q_fine = GroupByQuery::new(
            GroupBy::finest(2),
            vec![MemberPred::eq(0, 0), MemberPred::All],
        );
        assert!(!base.has_indexes_for(&q_fine));
    }

    #[test]
    fn file_id_allocation_is_unique() {
        let mut cat = Catalog::new();
        let a = cat.alloc_file_id();
        let b = cat.alloc_file_id();
        assert_ne!(a, b);
    }
}
