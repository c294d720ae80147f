//! Incremental maintenance of materialized group-bys.
//!
//! The paper positions itself next to "efficient schemes for creating and
//! maintaining precomputed group-bys"; this module supplies the
//! maintenance half for the append-only OLAP setting: [`append_facts`]
//! adds new rows to the base table and propagates the delta to
//!
//! * every materialized view — by aggregating only the *delta* to each
//!   view's group-by and merging it in (existing groups are updated in
//!   place, new groups appended in key order), which is sound for
//!   SUM/COUNT views always and for MIN/MAX views under insert-only
//!   workloads;
//! * every bitmap join index — bitmaps grow and the new tail is indexed;
//! * the optional statistics — histogram counts absorb the delta.
//!
//! The work is proportional to the delta, not to the views: each view
//! keeps a `GroupPositions` index from group key to heap row, built by
//! one pass over the view on its first append and extended as new groups
//! land, so a merge reads and rewrites only the rows it updates.
//!
//! Deletions and updates are out of scope (the engine's tables are
//! append-only by design); a deleting workload would need either
//! re-aggregation or the classic summary-delta method with counts.

use starshare_storage::{quarter_units, HeapFile, ScanBatch, MAX_FACT_ROWS, MEASURE_LIMIT_UNITS};

use crate::catalog::{Cube, MeasureKind};
use crate::error::OlapError;
use crate::groupkey::{fold, GroupKey, GroupKeyCodec, GroupMap, KeyTier};
use crate::query::GroupBy;
use crate::schema::StarSchema;

/// Largest group-key domain — the product of a view's stored-level
/// cardinalities — that gets a dense position array: 4 Mi slots, 16 MiB
/// of `u32` per view. Larger domains hash the packed key instead.
pub(crate) const DENSE_POSITION_MAX_SLOTS: u64 = 1 << 22;

/// Group-key → row-position index of one aggregated view: which heap row
/// holds each group, so an append finds the groups it merges into without
/// scanning the view. Rows `0..covered` of the heap are indexed.
#[derive(Debug, Clone)]
pub(crate) struct GroupPositions {
    codec: GroupKeyCodec,
    slots: Slots,
    covered: u64,
}

#[derive(Debug, Clone)]
enum Slots {
    /// `slots[packed key]` is the group's position, `u32::MAX` when the
    /// group is absent.
    Dense(Vec<u32>),
    /// Domains past [`DENSE_POSITION_MAX_SLOTS`].
    Hashed(GroupMap<u64>),
}

impl GroupPositions {
    /// An empty index over the key domain of a view storing `group_by`.
    pub(crate) fn new(schema: &StarSchema, group_by: &GroupBy) -> Self {
        let codec = GroupKeyCodec::rolling(schema, group_by, group_by, DENSE_POSITION_MAX_SLOTS);
        let slots = match (codec.tier(), codec.domain()) {
            (KeyTier::Dense, Some(n)) => Slots::Dense(vec![u32::MAX; n as usize]),
            _ => Slots::Hashed(GroupMap::default()),
        };
        GroupPositions {
            codec,
            slots,
            covered: 0,
        }
    }

    /// The heap position of group `key`, if the view holds it. Keys come
    /// from any codec rolling to this view's group-by.
    pub(crate) fn get(&self, key: &GroupKey) -> Option<u64> {
        match (&self.slots, key) {
            (Slots::Dense(slots), GroupKey::Packed(p)) => {
                let pos = slots[*p as usize];
                (pos != u32::MAX).then_some(pos as u64)
            }
            (Slots::Hashed(map), key) => map.get(key).copied(),
            _ => unreachable!("a dense domain packs"),
        }
    }

    /// Records that group `key` was just appended at the heap's next
    /// position.
    pub(crate) fn push(&mut self, key: GroupKey) {
        let pos = self.covered;
        match (&mut self.slots, key) {
            (Slots::Dense(slots), GroupKey::Packed(p)) => {
                let slot = &mut slots[p as usize];
                debug_assert_eq!(*slot, u32::MAX, "group {p} is already indexed");
                *slot = u32::try_from(pos).expect("dense views hold < 2^32 groups");
            }
            (Slots::Hashed(map), key) => {
                let prev = map.insert(key, pos);
                debug_assert!(prev.is_none(), "group is already indexed");
            }
            _ => unreachable!("a dense domain packs"),
        }
        self.covered += 1;
    }

    /// Indexes the heap rows appended since the index last covered it —
    /// the whole heap on first use.
    pub(crate) fn extend(&mut self, heap: &HeapFile) {
        let mut cursor = heap.scan_batches(self.covered, heap.n_tuples());
        let mut batch = ScanBatch::new(heap.layout());
        while cursor.read_next(&mut batch) {
            for i in 0..batch.len() {
                let key = self.codec.key(|d| batch.key(d, i));
                self.push(key);
            }
        }
    }
}

/// Refuses a fact table of `rows` rows: the measure domain's exactness
/// bound holds for fewer than [`MAX_FACT_ROWS`].
pub(crate) fn check_fact_rows(rows: u64) -> Result<(), OlapError> {
    if rows < MAX_FACT_ROWS {
        Ok(())
    } else {
        Err(OlapError::new(format!(
            "{rows} fact rows; a fact table holds fewer than 2^31"
        )))
    }
}

/// Appends `rows` (leaf-level keys + raw measure) to the cube's base table
/// and incrementally maintains every view, index, and statistic.
///
/// Returns the number of rows appended. Fails (without modifying anything)
/// if any row has the wrong arity, an out-of-range key, or a measure
/// outside the measure domain ([`OlapError::InexactMeasure`]), if the base
/// table would reach 2^31 rows, or if the catalog lacks a leaf-level raw
/// base table or holds a view that cannot be maintained.
pub fn append_facts(cube: &mut Cube, rows: &[(Vec<u32>, f64)]) -> Result<u64, OlapError> {
    let schema = cube.schema.clone();
    let n_dims = schema.n_dims();
    // Validate before mutating.
    for (row, (keys, m)) in rows.iter().enumerate() {
        if keys.len() != n_dims {
            return Err(OlapError::new(format!(
                "row has {} keys; schema has {n_dims} dimensions",
                keys.len()
            )));
        }
        for (d, &k) in keys.iter().enumerate() {
            if k >= schema.dim(d).cardinality(0) {
                return Err(OlapError::new(format!(
                    "key {k} out of range for dimension {}",
                    schema.dim(d).name()
                )));
            }
        }
        if quarter_units(*m, MEASURE_LIMIT_UNITS).is_none() {
            return Err(OlapError::InexactMeasure { row, value: *m });
        }
    }
    let base_id = cube
        .catalog
        .base_table()
        .ok_or("catalog has no base table")?;
    let base = cube.catalog.table(base_id);
    if base.measure() != MeasureKind::Raw {
        return Err("base table must hold raw measures".into());
    }
    check_fact_rows(base.n_rows().saturating_add(rows.len() as u64))?;
    let mut views = Vec::new();
    for (id, view) in cube.catalog.iter().filter(|(id, _)| *id != base_id) {
        let MeasureKind::Aggregated(agg) = view.measure() else {
            return Err(OlapError::new(format!(
                "view {} is not aggregated",
                view.name()
            )));
        };
        let agg = agg
            .distributive()
            .ok_or("AVG views cannot be maintained (or built)")?;
        views.push((id, agg));
    }

    // 1. Append to the base heap and extend its indexes.
    let base = cube.catalog.table_mut(base_id);
    for (keys, m) in rows {
        base.heap_mut().append(keys, *m);
    }
    base.extend_indexes(&schema);

    // 2. Delta-maintain every view.
    for (vid, agg) in views {
        let view = cube.catalog.table_mut(vid);
        // Delta-aggregate the new rows to the view's group-by, in key
        // order, so new groups land at the same positions in every run.
        let codec = GroupKeyCodec::rolling(&schema, &GroupBy::finest(n_dims), view.group_by(), 0);
        let delta = fold(
            agg,
            rows.iter()
                .map(|(keys, m)| (codec.key(|d| keys[d]), agg.of_fact(*m))),
        );
        // Merge: update existing groups in place (one reseal per touched
        // page) or append new ones.
        let (heap, positions) = view.heap_and_positions(&schema);
        let mut gk = vec![0u32; n_dims];
        let mut updates = Vec::new();
        let mut fresh = Vec::new();
        for (key, delta_val) in delta {
            match positions.get(&key) {
                Some(pos) => {
                    let old = heap.read_at(pos, &mut gk);
                    updates.push((pos, agg.combine(old, delta_val)));
                }
                None => fresh.push((key, delta_val)),
            }
        }
        heap.update_measures(&updates);
        for (key, v) in fresh {
            codec.unpack_into(&key, &mut gk);
            heap.append(&gk, v);
            positions.push(key);
        }
        view.extend_indexes(&schema);
    }

    // 3. Statistics absorb the delta.
    if let Some(stats) = &mut cube.stats {
        stats.absorb(rows);
    }

    // 4. The data changed: advance the epoch so derived state (result
    // caches, planner snapshots) can detect staleness.
    cube.bump_epoch();
    Ok(rows.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::materialize_agg;
    use crate::datagen::{paper_cube, CubeBuilder, PaperCubeSpec};
    use crate::query::{AggFn, GroupBy, GroupByQuery, MemberPred};
    use crate::schema::Dimension;
    use crate::stats::CubeStats;
    use starshare_prng::Prng;

    fn spec() -> PaperCubeSpec {
        PaperCubeSpec {
            base_rows: 2_000,
            d_leaf: 24,
            seed: 20,
            with_indexes: true,
        }
    }

    /// Random fact rows: leaf keys, and measures in whole quarter units
    /// in [0, 100) — the measure domain, where every fold is exact in any
    /// association, so comparisons can be bitwise.
    fn random_rows(schema: &StarSchema, n: usize, seed: u64) -> Vec<(Vec<u32>, f64)> {
        let mut rng = Prng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let keys: Vec<u32> = (0..schema.n_dims())
                    .map(|d| rng.gen_range(0..schema.dim(d).cardinality(0)))
                    .collect();
                (keys, rng.gen_range(0..400u32) as f64 * 0.25)
            })
            .collect()
    }

    /// The gold standard: a cube maintained incrementally must be
    /// group-for-group identical (as a set) to one rebuilt from scratch on
    /// the concatenated data.
    #[test]
    fn incremental_equals_rebuild() {
        let mut cube = paper_cube(spec());
        let delta = random_rows(&cube.schema, 500, 77);
        append_facts(&mut cube, &delta).unwrap();

        // Rebuild from scratch over base ∪ delta.
        let rebuilt = {
            let mut fresh = paper_cube(spec());
            append_base_only(&mut fresh, &delta);
            fresh
        };
        for (_, view) in cube.catalog.iter() {
            if view.name() == "ABCD" {
                continue;
            }
            let direct = materialize_agg(
                &rebuilt.schema,
                rebuilt.catalog.table(rebuilt.catalog.base_table().unwrap()),
                view.group_by().clone(),
                AggFn::Sum,
                "check",
                starshare_storage::FileId(999),
            );
            assert_eq!(view.n_rows(), direct.n_rows(), "{}", view.name());
            // Compare as key→value maps (row order differs: merged views
            // append new groups at the end).
            assert_eq!(group_bits(view), group_bits(&direct), "{}", view.name());
        }
    }

    /// Helper: append rows to the base heap only (for building the rebuild
    /// comparison cube).
    fn append_base_only(cube: &mut Cube, rows: &[(Vec<u32>, f64)]) {
        let base = cube.catalog.base_table().unwrap();
        let t = cube.catalog.table_mut(base);
        for (k, m) in rows {
            t.heap_mut().append(k, *m);
        }
    }

    #[test]
    fn indexes_stay_consistent_after_append() {
        let mut cube = paper_cube(spec());
        let delta = random_rows(&cube.schema, 300, 9);
        append_facts(&mut cube, &delta).unwrap();
        for (_, t) in cube.catalog.iter() {
            for d in 0..4 {
                let Some(ix) = t.index(d) else { continue };
                assert_eq!(ix.index.n_rows(), t.n_rows(), "{} dim {d}", t.name());
                // Brute-force check a few members.
                let mut keys = vec![0u32; 4];
                for m in ix.index.members().take(3).collect::<Vec<_>>() {
                    let bm = ix.index.peek(m).unwrap();
                    for pos in (0..t.n_rows()).step_by(17) {
                        t.heap().read_at(pos, &mut keys);
                        let stored = t.stored_level(d).unwrap();
                        let expect = cube.schema.dim(d).roll_up(keys[d], stored, ix.level) == m;
                        assert_eq!(bm.get(pos), expect, "{} dim {d} pos {pos}", t.name());
                    }
                }
            }
        }
    }

    #[test]
    fn queries_stay_correct_after_many_appends() {
        let mut cube = paper_cube(spec());
        for round in 0..3 {
            let delta = random_rows(&cube.schema, 200, round);
            append_facts(&mut cube, &delta).unwrap();
        }
        // Sum over everything must equal base total, through every view.
        let base = cube.catalog.base_table().unwrap();
        let t = cube.catalog.table(base);
        let mut keys = vec![0u32; 4];
        let total: f64 = (0..t.n_rows())
            .map(|p| t.heap().read_at(p, &mut keys))
            .sum();
        for (id, view) in cube.catalog.iter().collect::<Vec<_>>() {
            let _ = id;
            let mut vkeys = vec![0u32; 4];
            let vtotal: f64 = (0..view.n_rows())
                .map(|p| view.heap().read_at(p, &mut vkeys))
                .sum();
            assert_eq!(
                vtotal.to_bits(),
                total.to_bits(),
                "{}: {vtotal} vs {total}",
                view.name()
            );
        }
    }

    #[test]
    fn min_max_views_maintained_under_inserts() {
        let schema = StarSchema::new(vec![Dimension::uniform("X", 2, &[3])], "m");
        let mut cube = CubeBuilder::new(schema)
            .rows(500)
            .seed(3)
            .materialize_agg("X'", AggFn::Min)
            .materialize_agg("X'", AggFn::Max)
            .build();
        // Append a new global minimum and maximum into group X'=0.
        append_facts(&mut cube, &[(vec![0], -5.0), (vec![2], 1e6)]).unwrap();
        let check = |name: &str, want: f64| {
            let v = cube.catalog.table(cube.catalog.find_by_name(name).unwrap());
            let mut keys = [0u32; 1];
            let mut found = None;
            for pos in 0..v.n_rows() {
                let m = v.heap().read_at(pos, &mut keys);
                if keys[0] == 0 {
                    found = Some(m);
                }
            }
            assert_eq!(found, Some(want), "{name}");
        };
        check("MIN:X'", -5.0);
        check("MAX:X'", 1e6);
    }

    #[test]
    fn stats_absorb_the_delta() {
        let schema = StarSchema::new(vec![Dimension::uniform("X", 2, &[3])], "m");
        let mut cube = CubeBuilder::new(schema)
            .rows(100)
            .seed(3)
            .collect_stats()
            .build();
        let before = cube.stats.as_ref().unwrap().histogram(0).total();
        append_facts(&mut cube, &[(vec![0], 1.0), (vec![5], 2.0)]).unwrap();
        let after = cube.stats.as_ref().unwrap().histogram(0).total();
        assert_eq!(after, before + 2);

        // Several appends later, the absorbed counts are exactly what a
        // fresh collection over the grown base table finds.
        let mut cube = CubeBuilder::new(crate::datagen::paper_schema(24))
            .rows(500)
            .seed(4)
            .materialize("A'B'C'D")
            .collect_stats()
            .build();
        for round in 0..4u64 {
            let delta = random_rows(&cube.schema, 150, 0x57a7 ^ round);
            append_facts(&mut cube, &delta).unwrap();
        }
        let base = cube.catalog.table(cube.catalog.base_table().unwrap());
        let fresh = CubeStats::collect(&cube.schema, base);
        assert_eq!(cube.stats.as_ref(), Some(&fresh));
        assert_eq!(fresh.histogram(0).total(), 500 + 4 * 150);
    }

    /// Measures outside the measure domain, one of each kind.
    const INEXACT: [f64; 6] = [
        0.1,
        -0.0,
        (1u64 << 20) as f64,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];

    #[test]
    fn bad_rows_are_rejected_without_mutation() {
        let mut cube = paper_cube(spec());
        let before: Vec<_> = cube.catalog.iter().map(|(_, t)| heap_rows(t)).collect();
        assert!(append_facts(&mut cube, &[(vec![0, 0, 0], 1.0)]).is_err()); // wrong arity
        assert!(append_facts(&mut cube, &[(vec![999, 0, 0, 0], 1.0)]).is_err()); // out of range
        for bad in INEXACT {
            let rows = [(vec![0, 0, 0, 0], 1.0), (vec![1, 1, 1, 1], bad)];
            match append_facts(&mut cube, &rows) {
                Err(OlapError::InexactMeasure { row, value }) => {
                    assert_eq!(row, 1);
                    assert_eq!(value.to_bits(), bad.to_bits());
                }
                other => panic!("{bad:?} must be rejected as inexact, got {other:?}"),
            }
        }
        let after: Vec<_> = cube.catalog.iter().map(|(_, t)| heap_rows(t)).collect();
        assert!(before == after, "failed append must not mutate");
        assert_eq!(cube.epoch, 0, "failed append must not bump the epoch");
        // The largest in-domain measures are accepted.
        let top = (1u64 << 20) as f64 - 0.25;
        append_facts(
            &mut cube,
            &[(vec![0, 0, 0, 0], top), (vec![0, 0, 0, 0], -top)],
        )
        .unwrap();
    }

    #[test]
    fn fact_row_count_stops_below_two_to_the_31() {
        assert!(check_fact_rows(0).is_ok());
        assert!(check_fact_rows(MAX_FACT_ROWS - 1).is_ok());
        assert!(check_fact_rows(MAX_FACT_ROWS).is_err());
        assert!(check_fact_rows(u64::MAX).is_err());
    }

    #[test]
    fn every_successful_append_bumps_the_epoch() {
        let mut cube = paper_cube(spec());
        assert_eq!(cube.epoch, 0);
        append_facts(&mut cube, &[(vec![0, 0, 0, 0], 1.0)]).unwrap();
        assert_eq!(cube.epoch, 1);
        append_facts(&mut cube, &[(vec![1, 1, 1, 1], 2.0)]).unwrap();
        assert_eq!(cube.epoch, 2);
    }

    #[test]
    fn new_groups_are_appended() {
        // A view over a tiny slice: appending rows in a previously-empty
        // group must create it.
        let schema = StarSchema::new(vec![Dimension::uniform("X", 4, &[1])], "m");
        let mut cube = CubeBuilder::new(schema).rows(0).materialize("X'").build();
        assert_eq!(cube.catalog.table(crate::catalog::TableId(1)).n_rows(), 0);
        append_facts(&mut cube, &[(vec![1], 7.0), (vec![1], 3.0)]).unwrap();
        let v = cube.catalog.table(crate::catalog::TableId(1));
        assert_eq!(v.n_rows(), 1);
        let mut keys = [0u32; 1];
        assert_eq!(v.heap().read_at(0, &mut keys), 10.0);
        assert_eq!(keys[0], 1);
    }

    #[test]
    fn paper_queries_match_reference_after_append() {
        let mut cube = paper_cube(spec());
        let delta = random_rows(&cube.schema, 400, 55);
        append_facts(&mut cube, &delta).unwrap();
        // A broad query answered from a maintained view must equal the
        // brute-force answer over the maintained base.
        let q = GroupByQuery::new(
            GroupBy::parse(&cube.schema, "A'B''C''D").unwrap(),
            vec![
                MemberPred::members_in(1, vec![0, 1]),
                MemberPred::eq(2, 0),
                MemberPred::All,
                MemberPred::eq(1, 0),
            ],
        );
        // Manual reference over the base (exec crate is not a dependency).
        let base = cube.catalog.table(cube.catalog.base_table().unwrap());
        let mut keys = vec![0u32; 4];
        let mut expect: std::collections::BTreeMap<Vec<u32>, f64> = Default::default();
        for pos in 0..base.n_rows() {
            let m = base.heap().read_at(pos, &mut keys);
            if (0..4).all(|d| q.preds[d].matches(&cube.schema, d, 0, keys[d])) {
                let gk: Vec<u32> = vec![
                    cube.schema.dim(0).roll_up(keys[0], 0, 1),
                    cube.schema.dim(1).roll_up(keys[1], 0, 2),
                    cube.schema.dim(2).roll_up(keys[2], 0, 2),
                    keys[3],
                ];
                *expect.entry(gk).or_insert(0.0) += m;
            }
        }
        // Answer from the maintained A'B''C'D view.
        let view = cube
            .catalog
            .table(cube.catalog.find_by_name("A'B''C'D").unwrap());
        let mut got: std::collections::BTreeMap<Vec<u32>, f64> = Default::default();
        let mut vkeys = vec![0u32; 4];
        for pos in 0..view.n_rows() {
            let m = view.heap().read_at(pos, &mut vkeys);
            let ok = q.preds[0].matches(&cube.schema, 0, 1, vkeys[0])
                && q.preds[1].matches(&cube.schema, 1, 2, vkeys[1])
                && q.preds[3].matches(&cube.schema, 3, 0, vkeys[3]);
            if ok {
                let gk = vec![
                    vkeys[0],
                    vkeys[1],
                    cube.schema.dim(2).roll_up(vkeys[2], 1, 2),
                    vkeys[3],
                ];
                *got.entry(gk).or_insert(0.0) += m;
            }
        }
        let bits = |m: &std::collections::BTreeMap<Vec<u32>, f64>| {
            m.iter()
                .map(|(k, v)| (k.clone(), v.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&expect), bits(&got));
    }

    /// Append-then-query must equal rebuild-then-query at *every*
    /// materialized level and for every re-aggregatable function. The cube
    /// mixes SUM, MIN, MAX, and COUNT views across the lattice; after three
    /// append rounds each view is compared bitwise against a from-scratch
    /// materialization over base ∪ delta (builder measures and the
    /// quantized deltas are exact binary fractions, and MIN/MAX pick an
    /// element of the same set either way, so no tolerance is needed).
    #[test]
    fn append_equals_rebuild_at_every_view_level_for_every_agg() {
        let build = || {
            CubeBuilder::new(crate::datagen::paper_schema(24))
                .rows(800)
                .seed(11)
                .base_name("ABCD")
                .materialize("A'B'C'D")
                .materialize("A''B'C''D")
                .materialize_agg("A'B'C'D", AggFn::Min)
                .materialize_agg("A''B''C''D'", AggFn::Max)
                .materialize_agg("A'B''C'D", AggFn::Count)
                .build()
        };
        let mut cube = build();
        let mut rebuilt = build();
        for round in 0..3u64 {
            let delta = random_rows(&cube.schema, 250, 0xde17a ^ round);
            append_facts(&mut cube, &delta).unwrap();
            append_base_only(&mut rebuilt, &delta);
        }
        let to_map = |t: &crate::catalog::StoredTable| {
            let mut m = std::collections::BTreeMap::new();
            let mut keys = vec![0u32; 4];
            for pos in 0..t.n_rows() {
                let v = t.heap().read_at(pos, &mut keys);
                m.insert(keys.clone(), v);
            }
            m
        };
        for (_, view) in cube.catalog.iter() {
            let MeasureKind::Aggregated(agg) = view.measure() else {
                continue; // the raw base is the input, not a maintained view
            };
            let direct = materialize_agg(
                &rebuilt.schema,
                rebuilt.catalog.table(rebuilt.catalog.base_table().unwrap()),
                view.group_by().clone(),
                agg,
                "check",
                starshare_storage::FileId(990),
            );
            assert_eq!(view.n_rows(), direct.n_rows(), "{}", view.name());
            let a = to_map(view);
            let b = to_map(&direct);
            for (k, va) in &a {
                assert_eq!(
                    va.to_bits(),
                    b[k].to_bits(),
                    "{} group {k:?}: {va} vs {}",
                    view.name(),
                    b[k]
                );
            }
            // The same property through a query lens: a filtered rollup
            // read off the maintained view equals one read off the rebuilt
            // materialization (pred at A's top level, rolled up from
            // whatever level this view stores).
            let pred = MemberPred::eq(2, 0);
            let fold = |t: &crate::catalog::StoredTable| -> Option<f64> {
                let crate::query::LevelRef::Level(lvl) = t.group_by().level(0) else {
                    return None;
                };
                let mut keys = vec![0u32; 4];
                let mut acc: Option<f64> = None;
                for pos in 0..t.n_rows() {
                    let m = t.heap().read_at(pos, &mut keys);
                    if !pred.matches(&cube.schema, 0, lvl, keys[0]) {
                        continue;
                    }
                    acc = Some(match (acc, agg) {
                        (None, _) => m,
                        (Some(x), AggFn::Min) => x.min(m),
                        (Some(x), AggFn::Max) => x.max(m),
                        (Some(x), _) => x + m,
                    });
                }
                acc
            };
            let (qa, qb) = (fold(view), fold(&direct));
            assert!(qa.is_some(), "{}: probe matched nothing", view.name());
            assert_eq!(
                qa.map(f64::to_bits),
                qb.map(f64::to_bits),
                "{}: rollup query diverged",
                view.name()
            );
        }
    }

    /// MIN/MAX views stay sound under arbitrary insert-only workloads:
    /// after every round of random appends, each maintained
    /// group holds exactly the brute-force min/max over the grown base.
    #[test]
    fn min_max_stay_sound_under_random_insert_only_workloads() {
        let schema = StarSchema::new(vec![Dimension::uniform("X", 3, &[4])], "m");
        let mut cube = CubeBuilder::new(schema)
            .rows(300)
            .seed(6)
            .materialize_agg("X'", AggFn::Min)
            .materialize_agg("X'", AggFn::Max)
            .build();
        for round in 0..5u64 {
            let delta = random_rows(&cube.schema, 60, 0x3135 ^ round);
            append_facts(&mut cube, &delta).unwrap();
            let base = cube.catalog.table(cube.catalog.base_table().unwrap());
            let mut lo: std::collections::BTreeMap<u32, f64> = Default::default();
            let mut hi: std::collections::BTreeMap<u32, f64> = Default::default();
            let mut keys = [0u32; 1];
            for pos in 0..base.n_rows() {
                let m = base.heap().read_at(pos, &mut keys);
                let g = cube.schema.dim(0).roll_up(keys[0], 0, 1);
                lo.entry(g).and_modify(|v| *v = v.min(m)).or_insert(m);
                hi.entry(g).and_modify(|v| *v = v.max(m)).or_insert(m);
            }
            for (name, want) in [("MIN:X'", &lo), ("MAX:X'", &hi)] {
                let v = cube.catalog.table(cube.catalog.find_by_name(name).unwrap());
                assert_eq!(v.n_rows(), want.len() as u64, "round {round} {name}");
                for pos in 0..v.n_rows() {
                    let m = v.heap().read_at(pos, &mut keys);
                    assert_eq!(
                        m.to_bits(),
                        want[&keys[0]].to_bits(),
                        "round {round} {name} group {}",
                        keys[0]
                    );
                }
            }
        }
    }

    /// The no-mutation-on-invalid-row guarantee, in full: a failed append
    /// (poison pill hidden behind valid rows, so all-or-nothing is what is
    /// actually being tested) leaves the base, every view heap, every
    /// bitmap index, the statistics, and the epoch untouched — and the
    /// cube still accepts good batches afterwards.
    #[test]
    fn failed_append_leaves_views_indexes_and_stats_untouched() {
        let mut cube = CubeBuilder::new(crate::datagen::paper_schema(24))
            .rows(600)
            .seed(8)
            .base_name("ABCD")
            .materialize("A'B'C'D")
            .materialize_agg("A''B''C''D", AggFn::Min)
            .index("ABCD", "A'")
            .index("A'B'C'D", "B'")
            .collect_stats()
            .build();
        type TableSnap = (
            String,
            Vec<(Vec<u32>, u64)>,
            Vec<(u8, u64, Vec<(u32, Vec<u64>)>)>,
        );
        type StatSnap = Vec<(u64, Vec<u64>)>;
        let snapshot = |cube: &Cube| -> (u64, Vec<TableSnap>, StatSnap) {
            let mut tables = Vec::new();
            for (_, t) in cube.catalog.iter() {
                let mut keys = vec![0u32; 4];
                let rows: Vec<(Vec<u32>, u64)> = (0..t.n_rows())
                    .map(|pos| {
                        let m = t.heap().read_at(pos, &mut keys);
                        (keys.clone(), m.to_bits())
                    })
                    .collect();
                let mut indexes = Vec::new();
                for d in 0..4 {
                    let Some(ix) = t.index(d) else { continue };
                    let members: Vec<(u32, Vec<u64>)> = ix
                        .index
                        .members()
                        .map(|m| {
                            let bm = ix.index.peek(m).unwrap();
                            (m, (0..t.n_rows()).filter(|&p| bm.get(p)).collect())
                        })
                        .collect();
                    indexes.push((ix.level, ix.index.n_rows(), members));
                }
                tables.push((t.name().to_string(), rows, indexes));
            }
            let stats = cube.stats.as_ref().unwrap();
            let histograms: Vec<(u64, Vec<u64>)> = (0..4)
                .map(|d| {
                    let h = stats.histogram(d);
                    let fracs = (0..cube.schema.dim(d).cardinality(0))
                        .map(|m| h.fraction_of([m]).to_bits())
                        .collect();
                    (h.total(), fracs)
                })
                .collect();
            (cube.epoch, tables, histograms)
        };
        let before = snapshot(&cube);
        let bad_arity = vec![(vec![0, 0, 0, 0], 1.0), (vec![0, 0], 2.0)];
        let out_of_range = vec![(vec![1, 1, 1, 1], 3.0), (vec![0, 0, 0, 9_999], 4.0)];
        assert!(append_facts(&mut cube, &bad_arity).is_err());
        assert!(append_facts(&mut cube, &out_of_range).is_err());
        for bad in INEXACT {
            let inexact = vec![(vec![1, 1, 1, 1], 3.0), (vec![2, 2, 2, 2], bad)];
            assert!(append_facts(&mut cube, &inexact).is_err());
        }
        assert_eq!(before, snapshot(&cube), "failed append must mutate nothing");
        append_facts(&mut cube, &[(vec![0, 0, 0, 0], 1.0)]).unwrap();
        assert_eq!(cube.epoch, 1, "a failed append must not poison the cube");
    }

    /// Every row of a view, in heap order: keys plus measure bits.
    fn heap_rows(t: &crate::catalog::StoredTable) -> Vec<(Vec<u32>, u64)> {
        let mut keys = vec![0u32; t.group_by().n_dims()];
        (0..t.n_rows())
            .map(|pos| {
                let m = t.heap().read_at(pos, &mut keys);
                (keys.clone(), m.to_bits())
            })
            .collect()
    }

    /// A view as a group → measure-bits map (order-free).
    fn group_bits(t: &crate::catalog::StoredTable) -> std::collections::BTreeMap<Vec<u32>, u64> {
        heap_rows(t).into_iter().collect()
    }

    /// Asserts every aggregated view of `cube` equals, group for group and
    /// bitwise, a from-scratch materialization over `rebuilt`'s base.
    fn assert_views_equal_rebuild(cube: &Cube, rebuilt: &Cube) {
        let base = rebuilt.catalog.table(rebuilt.catalog.base_table().unwrap());
        for (_, view) in cube.catalog.iter() {
            let MeasureKind::Aggregated(agg) = view.measure() else {
                continue;
            };
            let direct = materialize_agg(
                &rebuilt.schema,
                base,
                view.group_by().clone(),
                agg,
                "check",
                starshare_storage::FileId(991),
            );
            assert_eq!(group_bits(view), group_bits(&direct), "{}", view.name());
        }
    }

    /// New groups land at the same heap positions in every process and
    /// every cube: two identical cubes given the same rows hold
    /// positionally identical views.
    #[test]
    fn appended_groups_land_in_the_same_positions_in_every_cube() {
        let mut a = paper_cube(spec());
        let mut b = paper_cube(spec());
        let sizes: Vec<u64> = a.catalog.iter().map(|(_, t)| t.n_rows()).collect();
        for round in 0..3u64 {
            let delta = random_rows(&a.schema, 400, 0x9051 ^ round);
            append_facts(&mut a, &delta).unwrap();
            append_facts(&mut b, &delta).unwrap();
        }
        let mut grown = 0;
        for (((_, va), (_, vb)), size) in a.catalog.iter().zip(b.catalog.iter()).zip(sizes) {
            assert_eq!(heap_rows(va), heap_rows(vb), "{}", va.name());
            grown += usize::from(va.n_rows() > size);
        }
        assert!(grown > 1, "the appends must have opened new groups");
    }

    /// The position index is exact after any sequence of appends: every
    /// row's key maps to that row, and a key no row holds maps to nothing.
    /// Covers the dense tier (every paper view), the packed hashed tier (a
    /// finest-level view whose domain exceeds the dense bound) and spilled
    /// keys (a view whose domain overflows `u64`).
    #[test]
    fn position_index_maps_every_row_and_nothing_else() {
        let wide = StarSchema::new(
            vec![
                Dimension::uniform("X", 64, &[64]),
                Dimension::uniform("Y", 64, &[64]),
            ],
            "m",
        );
        let huge = StarSchema::new(
            ["P", "Q", "R", "S"]
                .map(|n| Dimension::uniform(n, 1 << 16, &[]))
                .to_vec(),
            "m",
        );
        let cubes = [
            paper_cube(spec()),
            CubeBuilder::new(wide)
                .rows(3_000)
                .seed(5)
                .base_name("base")
                .materialize("XY")
                .materialize("X'Y")
                .materialize_agg("X'Y'", AggFn::Max)
                .build(),
            CubeBuilder::new(huge)
                .rows(2_000)
                .seed(6)
                .base_name("base")
                .materialize("PQRS")
                .materialize_agg("PQR*S*", AggFn::Min)
                .build(),
        ];
        for (ci, mut cube) in cubes.into_iter().enumerate() {
            let mut rng = Prng::seed_from_u64(0x9051 ^ ci as u64);
            for round in 0..4u64 {
                let delta = random_rows(&cube.schema, 300, rng.next_u64() ^ round);
                append_facts(&mut cube, &delta).unwrap();
                for (_, view) in cube.catalog.iter() {
                    if view.measure() == MeasureKind::Raw {
                        continue;
                    }
                    let index = view.group_positions().expect("built on first append");
                    let hashed = matches!(index.slots, Slots::Hashed(_));
                    let expect = ["XY", "PQRS", "MIN:PQR*S*"].contains(&view.name());
                    assert_eq!(hashed, expect, "{}: tier", view.name());
                    let spilled = index.codec.tier() == KeyTier::Spill;
                    assert_eq!(spilled, view.name() == "PQRS", "{}: tier", view.name());
                    let get = |key: &[u32]| index.get(&index.codec.key(|d| key[d]));
                    let rows = group_bits(view);
                    for (pos, (key, _)) in heap_rows(view).into_iter().enumerate() {
                        assert_eq!(get(&key), Some(pos as u64), "{} {key:?}", view.name());
                    }
                    // Probe random keys of the view's domain: present iff
                    // some row holds them.
                    let cards: Vec<u32> = (0..cube.schema.n_dims())
                        .map(|d| view.group_by().level(d).cardinality(cube.schema.dim(d)))
                        .collect();
                    for _ in 0..500 {
                        let key: Vec<u32> = cards.iter().map(|&c| rng.gen_range(0..c)).collect();
                        assert_eq!(
                            get(&key).is_some(),
                            rows.contains_key(&key),
                            "{} {key:?}",
                            view.name()
                        );
                    }
                }
            }
        }
    }

    /// A cube loaded from a snapshot builds its position indexes on its
    /// first append and then maintains exactly like a rebuild.
    #[test]
    fn loaded_cube_appends_like_a_rebuild() {
        let cube = paper_cube(spec());
        let path =
            std::env::temp_dir().join(format!("starshare-maintain-load-{}.ss", std::process::id()));
        crate::persist::save_cube(&cube, &path).unwrap();
        let mut loaded = crate::persist::load_cube(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let mut rebuilt = paper_cube(spec());
        for round in 0..2u64 {
            let delta = random_rows(&loaded.schema, 300, 0x10ad ^ round);
            append_facts(&mut loaded, &delta).unwrap();
            append_base_only(&mut rebuilt, &delta);
        }
        assert_views_equal_rebuild(&loaded, &rebuilt);
    }

    /// On a compressed cube the page-grouped in-place updates still give
    /// a rebuild's groups bit for bit, and a full sealed page whose
    /// measures an append rewrote stays sealed.
    #[test]
    fn compressed_views_merge_like_a_rebuild_and_stay_packed() {
        let build = || {
            CubeBuilder::new(crate::datagen::paper_schema(24))
                .rows(3_000)
                .seed(12)
                .base_name("ABCD")
                .materialize("A'B'C'D")
                .materialize_agg("A''B''C''D", AggFn::Min)
                .materialize_agg("A'B''C'D", AggFn::Count)
                .compress()
                .build()
        };
        let mut cube = build();
        let mut rebuilt = build();
        let before: Vec<_> = cube.catalog.iter().map(|(_, t)| heap_rows(t)).collect();
        for round in 0..3u64 {
            let delta = random_rows(&cube.schema, 400, 0xc0de ^ round);
            append_facts(&mut cube, &delta).unwrap();
            append_base_only(&mut rebuilt, &delta);
        }
        assert_views_equal_rebuild(&cube, &rebuilt);

        let mut rewritten = 0;
        for ((_, view), old) in cube.catalog.iter().zip(&before) {
            if view.measure() == MeasureKind::Raw {
                continue;
            }
            let heap = view.heap();
            let per_page = heap.layout().tuples_per_page();
            let now = heap_rows(view);
            for page in 0..old.len() / per_page {
                assert!(
                    heap.page_cost(page as u32).1 > 0,
                    "{} full page {page} must stay sealed",
                    view.name()
                );
                let span = page * per_page..(page + 1) * per_page;
                rewritten += usize::from(now[span.clone()] != old[span]);
            }
        }
        assert!(
            rewritten > 0,
            "the appends must have rewritten a sealed page"
        );
    }
}
