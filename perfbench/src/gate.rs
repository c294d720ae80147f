//! The correctness gate, run outside the timed phase.
//!
//! Every distinct answer — one per (expression, epoch) — is compared with
//! `reference_eval` on the base table, to the testkit oracle's 1e-9
//! relative tolerance. An answer read at epoch `e` of `append-stream` is
//! compared with the reference over the original base rows combined with
//! the reference over each of the first `e` append batches, each batch
//! loaded as a base table of its own; the bench's queries are SUMs, which
//! combine exactly over quarter-unit measures.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use starshare_core::{
    reference_eval, Catalog, Cube, GroupBy, GroupByQuery, HeapFile, QueryResult, StoredTable,
    TableId, TupleLayout,
};

use crate::drive::Answers;
use crate::workload::Batch;

/// Gate outcome.
#[derive(Clone, Copy, Debug, Default)]
pub struct Verdict {
    /// Query answers compared.
    pub checked: u64,
    /// Answers that disagreed with the reference.
    pub wrong: u64,
}

/// A cube holding only `rows`, as its base table.
fn batch_cube(cube0: &Cube, rows: &Batch) -> (Cube, TableId) {
    let schema = cube0.schema.clone();
    let n = schema.n_dims();
    let mut catalog = Catalog::new();
    let file = catalog.alloc_file_id();
    let heap = HeapFile::from_rows(
        file,
        TupleLayout::new(n),
        rows.iter().map(|(k, m)| (k.as_slice(), *m)),
    );
    let table = catalog.add_table(StoredTable::new("ABCD", GroupBy::finest(n), heap));
    (Cube::new(schema, catalog), table)
}

/// Adds one batch's SUM reference into the running one.
fn add(acc: &mut BTreeMap<Vec<u32>, f64>, part: QueryResult) {
    for (key, v) in part.rows {
        *acc.entry(key).or_insert(0.0) += v;
    }
}

/// Checks every kept answer against the reference. `cube0` is the cube as
/// generated (epoch 0) and `batches[i]` the batch that moved it to epoch
/// `i + 1`. Work is spread over `threads` threads.
pub fn check(answers: &Answers, cube0: &Cube, batches: &[Batch], threads: usize) -> Verdict {
    // Group the answers by query so each query's reference is built up
    // once, epoch by epoch.
    let mut by_query: HashMap<&GroupByQuery, Vec<(u64, &QueryResult)>> = HashMap::new();
    for (&(_, epoch), (_, results)) in &answers.reps {
        for r in results {
            by_query.entry(&r.query).or_default().push((epoch, r));
        }
    }
    let mut groups: Vec<_> = by_query.into_iter().collect();
    for (_, items) in &mut groups {
        items.sort_by_key(|&(epoch, _)| epoch);
    }
    let max_epoch = groups
        .iter()
        .flat_map(|(_, items)| items.last().map(|&(e, _)| e))
        .max()
        .unwrap_or(0) as usize;
    // Epochs only move on appends, so every epoch read has its batch.
    let deltas: Vec<(Cube, TableId)> = batches[..max_epoch]
        .iter()
        .map(|b| batch_cube(cube0, b))
        .collect();
    let base = cube0.catalog.base_table().expect("cube has a base table");

    let next = AtomicUsize::new(0);
    let checked = AtomicU64::new(0);
    let wrong = AtomicU64::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads.max(1) {
            s.spawn(|| {
                while let Some((query, items)) = groups.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let mut acc: BTreeMap<Vec<u32>, f64> = reference_eval(cube0, base, query)
                        .rows
                        .into_iter()
                        .collect();
                    let mut applied = 0usize;
                    for &(epoch, got) in items {
                        while applied < epoch as usize {
                            let (cube, table) = &deltas[applied];
                            add(&mut acc, reference_eval(cube, *table, query));
                            applied += 1;
                        }
                        let want = QueryResult::from_groups((*query).clone(), acc.clone());
                        checked.fetch_add(1, Ordering::Relaxed);
                        if !got.approx_eq(&want, 1e-9) {
                            wrong.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    Verdict {
        checked: checked.into_inner(),
        wrong: wrong.into_inner(),
    }
}
