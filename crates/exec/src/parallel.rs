//! Morsel-driven, multi-threaded execution of one class of a global
//! plan, with a deterministic clock. This is the only executor: every
//! class runs here, at every thread count.
//!
//! A class's dominant cost is its base-table pass; it is carved into
//! page-aligned *morsels* (see [`crate::morsel`]): scan classes into
//! fixed-size page chunks, probe classes into ranges balanced by the
//! candidate popcount of the OR'd bitmap, so skewed bitmaps do not pile all
//! the work into one range. Morsels are dispatched through per-worker
//! deques with work-stealing, each absorbed into *private* per-morsel
//! aggregation states that merge afterwards in a deterministic balanced
//! binary tree. A plan's classes run one [`execute_class`] call after
//! another (the paper's §3 evaluates each class as one shared-operator
//! pass), so a plan's critical path is the sum of its classes'.
//!
//! Page accounting never leaves the coordinator. Phase 1 (index bitmaps,
//! hash-table builds) reads through the context's live pool; then the
//! coordinator charges the class's base-table page accesses to that same
//! pool, one morsel after another in morsel order — a scan morsel's pages
//! (after zone pruning), a probe morsel's candidate pages, one checked
//! access per candidate — through the fault-checked accessors with
//! [`with_retry`]. That is exactly the access sequence of one sequential
//! pass over the class, so:
//!
//! * I/O counters, the LRU residency the class leaves behind for the next
//!   one, and the fault injector's draws are pure functions of the morsel
//!   boundaries — identical at every thread count, and equal to the
//!   sequential semantics the paper models;
//! * an unrecovered fault (a poisoned page, or a transient one past the
//!   retry budget) fails the class before any worker runs.
//!
//! Workers only decode, filter and aggregate; they never touch a pool.
//! Everything else the simulated clock sees is independent of how many host
//! threads actually ran:
//!
//! * morsel boundaries are computed **from the data and the morsel page
//!   count** before any thread runs — never from the thread count or the
//!   stealing order;
//! * each worker counts CPU privately, writing into its morsel's
//!   pre-assigned slot; the coordinator folds the partials back in morsel
//!   order, pairing each with the morsel's share of the charged I/O;
//! * partial aggregates merge pairwise in a balanced tree whose shape is a
//!   pure function of the morsel count — `new[i] = merge(old[2*i] <-
//!   old[2*i+1])` level by level, an odd leftover passing through — so
//!   the merge levels [`ExecReport::critical`] charges are too (the sums
//!   themselves are exact in any order on the measure domain);
//! * [`ExecReport::sim`] still totals *all* work, while
//!   [`ExecReport::critical`] reports the critical path — the coordinator
//!   phase, plus the slowest morsel, plus the slowest pair of each merge
//!   level — which is what an ideally-parallel 1998 machine's clock would
//!   read.
//!
//! Only wall time varies with the thread count; that is the point. The
//! report's [`ExecReport::wall`] is *elapsed* latency (what an observer
//! with a stopwatch sees shrink as threads are added) and
//! [`ExecReport::busy`] is *summed* worker time (total host work, roughly
//! flat across thread counts).

use std::sync::Mutex;
use std::time::{Duration, Instant};

use starshare_bitmap::Bitmap;
use starshare_olap::{Cube, GroupByQuery, TableId};
use starshare_storage::{
    AccessKind, BufferPool, CpuCounters, HardwareModel, HeapFile, IoStats, ScanBatch, SimTime,
};

use crate::class_kernel::{ClassKernel, CompileKernel, KernelScratch};
use crate::context::{ExecContext, ExecReport};
use crate::error::ExecError;
use crate::kernel::GroupAcc;
use crate::morsel::{probe_morsels, run_units, scan_morsels, scan_morsels_in_ranges};
use crate::operators::{charge_hash_builds, QueryState};
use crate::plan_io::build_query_bitmap;
use crate::prune::keep_tuple_ranges;
use crate::result::QueryResult;
use crate::retry::with_retry;

pub use crate::morsel::DEFAULT_MORSEL_PAGES;

/// One class of a global plan, ready for partitioned execution: the shared
/// base table plus its member queries split by join method.
#[derive(Debug, Clone)]
pub struct ClassSpec {
    /// The shared base table.
    pub table: TableId,
    /// Queries evaluated by scanning (hash-based star joins).
    pub hash_queries: Vec<GroupByQuery>,
    /// Queries evaluated through bitmap indexes.
    pub index_queries: Vec<GroupByQuery>,
}

/// One executed class: results in hash-then-index input order, plus the
/// class's report (with `critical` = phase 1 + slowest morsel + merge
/// tree's per-level maxima).
#[derive(Debug)]
pub struct ClassOutcome {
    /// One result per query: all hash queries, then all index queries.
    pub results: Vec<QueryResult>,
    /// The class's cost report.
    pub report: ExecReport,
    /// The partial-merge portion of the class's CPU (already included in
    /// `report.cpu`), broken out so per-query profiles can attribute the
    /// fold separately.
    pub merge_cpu: CpuCounters,
    /// Morsels the class split into.
    pub n_morsels: u64,
}

/// How a class's morsels read the base table.
enum ScanKind {
    /// Any hash member forces a full scan (the §3.3 hybrid: index members
    /// filter by bitmap during the same pass).
    Scan,
    /// Index-only class: probe the candidate positions of the OR'd member
    /// bitmaps — every position when some member has no index-servable
    /// predicate (`None`).
    Probe(Option<Bitmap>),
}

/// A class after the coordinator's phase 1 (compile + bitmaps + hash-table
/// builds), immutable during the parallel phase.
struct PreparedClass<'a> {
    heap: &'a HeapFile,
    /// Hash states first, then index states.
    states: Vec<QueryState>,
    /// The class's batch kernel over `states`.
    kernel: ClassKernel,
    scan: ScanKind,
    /// Page-aligned `[lo, hi)` tuple ranges (empty ranges dropped).
    morsels: Vec<(u64, u64)>,
    phase1_io: IoStats,
    phase1_cpu: CpuCounters,
}

/// What one morsel worker produced: private accumulators and privately
/// counted CPU work (its I/O is charged by the coordinator).
struct MorselOutput {
    /// One kernel accumulator per class query, in the class's state order.
    groups: Vec<GroupAcc>,
    cpu: CpuCounters,
    wall: Duration,
}

/// Reusable per-worker buffers: one columnar batch, the class kernel's
/// selection vectors, and the probe path's row-major key buffer, reused
/// across every morsel the worker runs.
#[derive(Default)]
struct WorkerScratch {
    batch: Option<ScanBatch>,
    kernel: KernelScratch,
    keys: Vec<u32>,
}

/// Computes a prepared class's morsel boundaries at `pages` pages per
/// scan morsel.
fn class_morsels(heap: &HeapFile, scan: &ScanKind, pages: u32) -> Vec<(u64, u64)> {
    match scan {
        ScanKind::Probe(Some(tot)) => probe_morsels(heap, tot, pages),
        // Probing everything is a uniform pass: page chunks are already
        // candidate-balanced.
        ScanKind::Scan | ScanKind::Probe(None) => scan_morsels(heap, pages),
    }
}

/// Charges a prepared class's base-table page accesses to `pool`, one
/// morsel after another in morsel order, and returns each morsel's share
/// of the charged [`IoStats`].
///
/// A scan morsel touches each of its pages once, sequentially; a probe
/// morsel touches each candidate's page once per candidate, at random —
/// the accesses a sequential pass over the class makes, in its order. Every
/// access is fault-checked and retried.
fn charge_morsels(
    pool: &mut BufferPool,
    class: &PreparedClass<'_>,
) -> Result<Vec<IoStats>, ExecError> {
    let heap = class.heap;
    let file = heap.file_id();
    let per_page = heap.layout().tuples_per_page() as u64;
    let mut shares = Vec::with_capacity(class.morsels.len());
    for &(lo, hi) in &class.morsels {
        let before = pool.stats();
        for page in heap.page_of(lo)..=heap.page_of(hi - 1) {
            let (kind, touches) = match &class.scan {
                ScanKind::Scan => (AccessKind::Sequential, 1),
                ScanKind::Probe(total) => {
                    let plo = lo.max(u64::from(page) * per_page);
                    let phi = hi.min((u64::from(page) + 1) * per_page);
                    let candidates = total
                        .as_ref()
                        .map_or(phi - plo, |tot| tot.count_ones_in(plo, phi));
                    (AccessKind::Random, candidates)
                }
            };
            let (io, dec) = heap.page_cost(page);
            for _ in 0..touches {
                with_retry(|| pool.try_access_sized(file, page, kind, io, dec))?;
            }
        }
        shares.push(pool.stats().since(&before));
    }
    Ok(shares)
}

/// Runs one morsel of one prepared class: decode, filter, aggregate. Pure
/// with respect to shared state — everything mutable is local or in `ws`
/// (whose contents never leak into outputs) — so any worker may run it at
/// any time with identical outcome.
fn run_morsel(
    cube: &Cube,
    class: &PreparedClass<'_>,
    lo: u64,
    hi: u64,
    ws: &mut WorkerScratch,
) -> MorselOutput {
    let start = Instant::now();
    let mut cpu = CpuCounters::default();
    let mut groups: Vec<GroupAcc> = class.states.iter().map(QueryState::new_acc).collect();
    let WorkerScratch {
        batch,
        kernel,
        keys,
    } = ws;
    match &class.scan {
        ScanKind::Scan => {
            // Page-batched; the class kernel filters each batch once for
            // every member: shared predicate masks or per-member cascades
            // for hash members, bitmap-seeded selection vectors for index
            // members.
            let mut batches = class.heap.scan_batches(lo, hi);
            let batch = batch.get_or_insert_with(|| ScanBatch::new(class.heap.layout()));
            while batches.read_next(batch) {
                class
                    .kernel
                    .feed_batch(&class.states, &mut groups, batch, kernel, &mut cpu);
            }
        }
        ScanKind::Probe(total) => {
            // Every member is index-fed: per candidate, one tuple copy, the
            // shared dimension probes, then each member's bitmap test,
            // residual filter and absorb.
            keys.clear();
            keys.resize(cube.schema.n_dims(), 0);
            let mut probe = |pos: u64| {
                let measure = class.heap.read_at(pos, keys);
                cpu.tuple_copies += 1;
                cpu.hash_probes += class.kernel.probes_per_tuple();
                for (st, acc) in class.states.iter().zip(&mut groups) {
                    st.probe(pos, keys, measure, acc, &mut cpu);
                }
            };
            match total {
                // Seek straight into the range's words instead of walking
                // the whole bitmap and discarding out-of-range positions.
                Some(tot) => tot.iter_ones_in(lo, hi).for_each(&mut probe),
                None => (lo..hi).for_each(&mut probe),
            }
        }
    }
    MorselOutput {
        groups,
        cpu,
        wall: start.elapsed(),
    }
}

/// What a class's partial-aggregate merge cost.
struct MergeCost {
    cpu: CpuCounters,
    /// Critical path through the merge: the sum over levels of each
    /// level's slowest pair.
    critical: SimTime,
    /// Summed worker time spent merging.
    busy: Duration,
    /// Pair merges performed (exactly `morsels - 1`). Deterministic.
    pairs: u64,
    /// Successful steals inside the merge scheduler — a scheduling
    /// accident, reported to metrics only.
    steals: u64,
}

/// A merge pair's input slot: destination and source accumulator sets,
/// taken by whichever worker runs the pair.
type MergePairInput = Mutex<Option<(Vec<GroupAcc>, Vec<GroupAcc>)>>;

/// A merge pair's output slot: the merged accumulators plus the pair's
/// counted work and host time.
type MergePairOutput = Mutex<Option<(Vec<GroupAcc>, CpuCounters, Duration)>>;

/// Merges per-morsel accumulator sets with a deterministic balanced binary
/// tree: level by level, `new[i] = merge(old[2*i] <- old[2*i+1])`, an odd
/// leftover passing through to the next level's last slot. Tree positions
/// are keyed by morsel index alone, pairs of one level run in parallel
/// through the work-stealing scheduler, and counters fold in pair order —
/// so results, counters, and the merge's critical path are all pure
/// functions of the morsel partials.
fn tree_merge(
    states: &[QueryState],
    model: &HardwareModel,
    mut layer: Vec<Vec<GroupAcc>>,
    threads: usize,
) -> (Vec<GroupAcc>, MergeCost) {
    let mut cost = MergeCost {
        cpu: CpuCounters::default(),
        critical: SimTime::ZERO,
        busy: Duration::ZERO,
        pairs: 0,
        steals: 0,
    };
    if layer.is_empty() {
        // No morsels (empty table or empty candidate set): fresh, empty
        // accumulators.
        let fresh = states.iter().map(QueryState::new_acc).collect();
        return (fresh, cost);
    }
    while layer.len() > 1 {
        let n_pairs = layer.len() / 2;
        let mut drain = std::mem::take(&mut layer).into_iter();
        let inputs: Vec<MergePairInput> = (0..n_pairs)
            .map(|_| {
                let dst = drain.next().expect("2*n_pairs elements");
                let src = drain.next().expect("2*n_pairs elements");
                Mutex::new(Some((dst, src)))
            })
            .collect();
        let leftover = drain.next();
        let outputs: Vec<MergePairOutput> = (0..n_pairs).map(|_| Mutex::new(None)).collect();
        cost.pairs += n_pairs as u64;
        cost.steals += run_units(
            threads,
            n_pairs,
            || (),
            |_, i| {
                let start = Instant::now();
                let (mut dst, src) = inputs[i]
                    .lock()
                    .expect("no panics hold merge slots")
                    .take()
                    .expect("each pair taken once");
                let mut cpu = CpuCounters::default();
                for (qi, st) in states.iter().enumerate() {
                    st.pipeline
                        .kernel()
                        .merge_partial(&mut dst[qi], &src[qi], st.mode, &mut cpu);
                }
                *outputs[i].lock().expect("no panics hold merge slots") =
                    Some((dst, cpu, start.elapsed()));
            },
        );
        let mut level_max = SimTime::ZERO;
        for out in outputs {
            let (dst, cpu, wall) = out
                .into_inner()
                .expect("scheduler joined")
                .expect("pair ran");
            level_max = level_max.max(model.cpu_time(&cpu));
            cost.cpu.merge(&cpu);
            cost.busy += wall;
            layer.push(dst);
        }
        layer.extend(leftover);
        cost.critical += level_max;
    }
    let merged = layer.pop().expect("non-empty layer");
    (merged, cost)
}

/// Caps a requested worker count at the host's available parallelism
/// (passing the request through unchanged when the host won't say).
fn host_capped(threads: usize) -> usize {
    std::thread::available_parallelism().map_or(threads, |n| threads.min(n.get()))
}

/// Executes one class on `threads` worker threads, carving its
/// base-table pass into morsels of `morsel_pages` pages (the page-count
/// cap for probe morsels; clamped to ≥ 1, and `u32::MAX` yields one
/// whole-table morsel).
///
/// The class's morsels are the units of the work-stealing scheduler.
/// Results come back in hash-then-index order. Phase 1 and the class's
/// page accesses are charged to `ctx.pool` itself, in morsel order (see
/// the module docs), so the pages the class faults in stay resident for
/// whatever runs next and an armed fault injector sees the same checked
/// accesses at every thread count.
pub fn execute_class(
    ctx: &mut ExecContext,
    cube: &Cube,
    spec: &ClassSpec,
    threads: usize,
    morsel_pages: u32,
) -> Result<ClassOutcome, ExecError> {
    execute_class_compiled(ctx, cube, spec, threads, morsel_pages, ClassKernel::compile)
}

/// Phase 1 on the coordinator: compiles the member states and the class
/// kernel, builds the index members' bitmaps (reading index pages through
/// `pool`) and the hash tables, and computes the morsel boundaries.
fn prepare<'a>(
    pool: &mut BufferPool,
    cube: &'a Cube,
    spec: &ClassSpec,
    pages: u32,
    compile: CompileKernel,
) -> Result<PreparedClass<'a>, ExecError> {
    if spec.hash_queries.is_empty() && spec.index_queries.is_empty() {
        return Err("a plan class needs at least one query".into());
    }
    let mut states: Vec<QueryState> = spec
        .hash_queries
        .iter()
        .chain(&spec.index_queries)
        .map(|q| QueryState::compile(cube, spec.table, q))
        .collect::<Result<_, _>>()?;
    let n_hash = spec.hash_queries.len();

    let io_before = pool.stats();
    let mut cpu = CpuCounters::default();
    let t = cube.catalog.table(spec.table);
    // Index members need their result bitmaps up front in both shapes.
    for st in states.iter_mut().skip(n_hash) {
        st.bitmap = Some(build_query_bitmap(
            &cube.schema,
            t,
            &st.query,
            pool,
            &mut cpu,
        )?);
    }
    let kernel = compile(cube, spec.table, &states, n_hash);
    charge_hash_builds(cube, spec.table, kernel.probe_mask(), &mut cpu);

    let scan = if n_hash > 0 {
        ScanKind::Scan
    } else {
        // OR the member bitmaps into the candidate set; a member without
        // one makes every position a candidate.
        let mut total: Option<Bitmap> = None;
        let mut everything = false;
        for st in &states {
            match st.bitmap.as_ref().and_then(|qb| qb.bitmap.as_ref()) {
                Some(bm) => match total.as_mut() {
                    Some(tot) => cpu.bitmap_words += tot.or_assign(bm),
                    None => total = Some(bm.clone()),
                },
                None => everything = true,
            }
        }
        ScanKind::Probe(total.filter(|_| !everything))
    };
    let heap = t.heap();
    // Boundary computation (page counts, range popcounts, zone-map checks)
    // is coordinator scheduling bookkeeping: it is not charged to the
    // simulated clock. See DESIGN.md.
    //
    // Scan classes over compressed heaps first consult the zone maps: a
    // zone no class query can match is never scheduled (or charged) at
    // all. Probe classes are already position-exact.
    let pruned = match scan {
        ScanKind::Scan => keep_tuple_ranges(&cube.schema, t, states.iter().map(|s| &s.query)),
        ScanKind::Probe(_) => None,
    };
    let morsels = match pruned {
        Some(ranges) => scan_morsels_in_ranges(heap, pages, &ranges),
        None => class_morsels(heap, &scan, pages),
    };
    Ok(PreparedClass {
        morsels,
        heap,
        states,
        kernel,
        scan,
        phase1_io: pool.stats().since(&io_before),
        phase1_cpu: cpu,
    })
}

/// [`execute_class`] with the class kernel compiled by `compile`.
pub(crate) fn execute_class_compiled(
    ctx: &mut ExecContext,
    cube: &Cube,
    spec: &ClassSpec,
    threads: usize,
    morsel_pages: u32,
    compile: CompileKernel,
) -> Result<ClassOutcome, ExecError> {
    let start = Instant::now();
    let model = ctx.model;

    // ---- Phase 1 (coordinator): compile, bitmaps, builds, boundaries,
    // then the class's page accesses, charged in morsel order.
    let class = prepare(&mut ctx.pool, cube, spec, morsel_pages, compile)?;
    let morsel_io = charge_morsels(&mut ctx.pool, &class)?;
    let phase1_wall = start.elapsed();

    // ---- Phase 2 (parallel): every morsel is one stealable unit. The
    // scheduler never spawns more workers than the host has cores:
    // oversubscription cannot speed up a work-stealing pool, it only
    // inflates every unit's elapsed time with involuntary context switches.
    // The determinism contract makes this safe — outcomes depend on morsel
    // boundaries, never on which worker ran a morsel — so the requested
    // thread count is purely a resource ceiling here.
    let workers = host_capped(threads.max(1));
    let slots: Vec<Mutex<Option<MorselOutput>>> =
        class.morsels.iter().map(|_| Mutex::new(None)).collect();
    let steals = run_units(workers, slots.len(), WorkerScratch::default, |ws, m| {
        let (lo, hi) = class.morsels[m];
        let out = run_morsel(cube, &class, lo, hi, ws);
        *slots[m].lock().expect("no panics hold result slots") = Some(out);
    });
    // Steals are scheduling accidents: metrics only, never traced (see the
    // determinism rules in `starshare_obs::trace`).
    let tele = ctx.telemetry.clone();
    tele.metrics(|m| {
        m.morsels += slots.len() as u64;
        m.steals += steals;
    });

    // ---- Phase 3 (coordinator): fold partials in morsel order, merge.
    // Trace emission happens here, in morsel slot order, from data-derived
    // quantities only — byte-identical across thread counts.
    let mut io = class.phase1_io;
    let mut cpu = class.phase1_cpu;
    let sim1 = class.phase1_io.io_time(&model) + model.cpu_time(&class.phase1_cpu);
    let mut sim = sim1;
    let mut slowest = SimTime::ZERO;
    let mut busy = phase1_wall;
    tele.trace(|t| {
        t.start(
            "exec.class",
            vec![
                ("n_queries", class.states.len().into()),
                ("n_morsels", slots.len().into()),
                ("prepare_ns", sim1.into()),
            ],
        )
    });
    let mut groups_per_morsel = Vec::with_capacity(slots.len());
    for (mi, (slot, part_io)) in slots.into_iter().zip(&morsel_io).enumerate() {
        let part = slot.into_inner().expect("scope joined").expect("unit ran");
        io.merge(part_io);
        cpu.merge(&part.cpu);
        let part_sim = part_io.io_time(&model) + model.cpu_time(&part.cpu);
        sim += part_sim;
        slowest = slowest.max(part_sim);
        busy += part.wall;
        tele.trace(|t| {
            let (lo, hi) = class.morsels[mi];
            t.event(
                "exec.morsel",
                vec![
                    ("slot", mi.into()),
                    ("lo", lo.into()),
                    ("hi", hi.into()),
                    ("sim_ns", part_sim.into()),
                    ("seq_faults", part_io.seq_faults.into()),
                    ("random_faults", part_io.random_faults.into()),
                ],
            )
        });
        groups_per_morsel.push(part.groups);
    }
    let n_morsels = groups_per_morsel.len() as u64;

    let (merged, merge) = tree_merge(&class.states, &model, groups_per_morsel, workers);
    cpu.merge(&merge.cpu);
    sim += model.cpu_time(&merge.cpu);
    busy += merge.busy;
    tele.metrics(|m| {
        m.merge_pairs += merge.pairs;
        m.steals += merge.steals;
    });
    tele.trace(|t| {
        t.event(
            "exec.merge",
            vec![
                ("pairs", merge.pairs.into()),
                ("cpu_ns", model.cpu_time(&merge.cpu).into()),
                ("critical_ns", merge.critical.into()),
            ],
        )
    });

    let results: Vec<QueryResult> = class
        .states
        .iter()
        .zip(merged)
        .map(|(st, acc)| st.finish(acc))
        .collect();

    let critical = sim1 + slowest + merge.critical;
    tele.trace(|t| {
        t.advance(critical);
        t.end(
            "exec.class",
            vec![("sim_ns", sim.into()), ("critical_ns", critical.into())],
        )
    });
    Ok(ClassOutcome {
        results,
        report: ExecReport {
            io,
            cpu,
            sim,
            critical,
            wall: start.elapsed(),
            busy,
        },
        merge_cpu: merge.cpu,
        n_morsels,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::reference_eval;
    use starshare_olap::{paper_cube, GroupByQuery, MemberPred, PaperCubeSpec};
    use starshare_storage::FaultPlan;

    fn cube() -> Cube {
        paper_cube(PaperCubeSpec {
            base_rows: 4_000,
            d_leaf: 48,
            seed: 5,
            with_indexes: true,
        })
    }

    fn q_broad(cube: &Cube) -> GroupByQuery {
        GroupByQuery::new(
            cube.groupby("A'B''C''D"),
            vec![
                MemberPred::members_in(1, vec![0, 1, 2]),
                MemberPred::All,
                MemberPred::All,
                MemberPred::eq(1, 0),
            ],
        )
    }

    fn q_selective(cube: &Cube) -> GroupByQuery {
        GroupByQuery::new(
            cube.groupby("A'B''C''D"),
            vec![
                MemberPred::eq(1, 1),
                MemberPred::eq(2, 0),
                MemberPred::eq(2, 2),
                MemberPred::eq(1, 0),
            ],
        )
    }

    fn assert_matches_reference(cube: &Cube, spec: &ClassSpec, out: &ClassOutcome) {
        let queries = spec.hash_queries.iter().chain(&spec.index_queries);
        assert_eq!(out.results.len(), queries.clone().count());
        for (r, q) in out.results.iter().zip(queries) {
            let expect = reference_eval(cube, spec.table, q);
            assert!(r.bit_eq(&expect), "{}", q.display(&cube.schema));
        }
    }

    #[test]
    fn morsels_are_page_aligned_and_cover_the_table() {
        let cube = cube();
        let t = cube.catalog.base_table().unwrap();
        let heap = cube.catalog.table(t).heap();
        for pages in [1, DEFAULT_MORSEL_PAGES, u32::MAX] {
            let parts = class_morsels(heap, &ScanKind::Scan, pages);
            assert!(!parts.is_empty(), "{pages} pages");
            let per_page = heap.layout().tuples_per_page() as u64;
            let mut expect_lo = 0;
            for &(lo, hi) in &parts {
                assert_eq!(lo, expect_lo, "contiguous ({pages} pages)");
                assert_eq!(lo % per_page, 0, "page-aligned start ({pages} pages)");
                expect_lo = hi;
            }
            assert_eq!(expect_lo, heap.n_tuples(), "full coverage ({pages} pages)");
        }
    }

    #[test]
    fn partitioned_scan_matches_reference() {
        let cube = cube();
        let spec = ClassSpec {
            table: cube.catalog.find_by_name("A'B'C'D").unwrap(),
            hash_queries: vec![q_broad(&cube)],
            index_queries: vec![q_selective(&cube)],
        };
        let mut ctx = ExecContext::paper_1998();
        let out = execute_class(&mut ctx, &cube, &spec, 2, DEFAULT_MORSEL_PAGES).unwrap();
        assert_matches_reference(&cube, &spec, &out);
        assert!(out.report.critical <= out.report.sim);
        assert!(out.report.critical > SimTime::ZERO);
    }

    #[test]
    fn partitioned_probe_matches_reference() {
        let cube = cube();
        let spec = ClassSpec {
            table: cube.catalog.find_by_name("A'B'C'D").unwrap(),
            hash_queries: vec![],
            index_queries: vec![q_selective(&cube)],
        };
        let mut ctx = ExecContext::paper_1998();
        let out = execute_class(&mut ctx, &cube, &spec, 3, DEFAULT_MORSEL_PAGES).unwrap();
        assert_matches_reference(&cube, &spec, &out);
    }

    #[test]
    fn thread_count_never_changes_the_clock() {
        let cube = cube();
        let t = cube.catalog.base_table().unwrap();
        let spec = ClassSpec {
            table: t,
            hash_queries: vec![q_broad(&cube), q_selective(&cube)],
            index_queries: vec![],
        };
        for pages in [1, DEFAULT_MORSEL_PAGES] {
            let runs: Vec<ClassOutcome> = [1usize, 2, 7, 16]
                .iter()
                .map(|&n| {
                    let mut ctx = ExecContext::paper_1998();
                    execute_class(&mut ctx, &cube, &spec, n, pages).unwrap()
                })
                .collect();
            for other in &runs[1..] {
                assert_eq!(runs[0].report.sim, other.report.sim, "{pages} pages");
                assert_eq!(
                    runs[0].report.critical, other.report.critical,
                    "{pages} pages"
                );
                assert_eq!(runs[0].report.io, other.report.io, "{pages} pages");
                for (a, b) in runs[0].results.iter().zip(&other.results) {
                    assert_eq!(a.rows, b.rows, "bit-identical results ({pages} pages)");
                }
            }
        }
    }

    #[test]
    fn morsel_size_never_changes_io_or_answers() {
        // Morsel boundaries are page-aligned and the coordinator charges
        // them in order, so the access sequence — and with it IoStats and
        // the feed counters — is invariant in the morsel size. Results are
        // bit-identical too: the merge tree follows the morsel count, but
        // every merge order is exact on the measure domain.
        let cube = cube();
        let t = cube.catalog.find_by_name("A'B'C'D").unwrap();
        let spec = ClassSpec {
            table: t,
            hash_queries: vec![q_broad(&cube)],
            index_queries: vec![q_selective(&cube)],
        };
        let runs: Vec<ClassOutcome> = [1u32, DEFAULT_MORSEL_PAGES, u32::MAX]
            .iter()
            .map(|&pages| {
                let mut ctx = ExecContext::paper_1998();
                execute_class(&mut ctx, &cube, &spec, 4, pages).unwrap()
            })
            .collect();
        for other in &runs[1..] {
            assert_eq!(runs[0].report.io, other.report.io);
            assert_eq!(
                runs[0].report.cpu.bitmap_tests,
                other.report.cpu.bitmap_tests
            );
            for (a, b) in runs[0].results.iter().zip(&other.results) {
                assert!(a.bit_eq(b));
            }
        }
    }

    #[test]
    fn probe_everything_query_probes_every_row_once() {
        let cube = cube();
        // A''B''C''D has no indexes: the index class degenerates to probing
        // all positions.
        let t = cube.catalog.find_by_name("A''B''C''D").unwrap();
        let q = GroupByQuery::new(
            cube.groupby("A''B''C''D"),
            vec![
                MemberPred::eq(2, 0),
                MemberPred::All,
                MemberPred::All,
                MemberPred::All,
            ],
        );
        let spec = ClassSpec {
            table: t,
            hash_queries: vec![],
            index_queries: vec![q],
        };
        let mut ctx = ExecContext::paper_1998();
        let out = execute_class(&mut ctx, &cube, &spec, 2, DEFAULT_MORSEL_PAGES).unwrap();
        let n = cube.catalog.table(t).n_rows();
        assert_eq!(out.report.cpu.bitmap_tests, n);
        assert_eq!(out.report.io.accesses(), n, "one access per probed row");
        assert_matches_reference(&cube, &spec, &out);
    }

    #[test]
    fn empty_class_is_rejected() {
        let cube = cube();
        let t = cube.catalog.base_table().unwrap();
        let mut ctx = ExecContext::paper_1998();
        let spec = ClassSpec {
            table: t,
            hash_queries: vec![],
            index_queries: vec![],
        };
        assert!(execute_class(&mut ctx, &cube, &spec, 2, DEFAULT_MORSEL_PAGES).is_err());
    }

    #[test]
    fn stats_flow_back_to_the_shared_pool() {
        let cube = cube();
        let t = cube.catalog.base_table().unwrap();
        let spec = ClassSpec {
            table: t,
            hash_queries: vec![q_broad(&cube)],
            index_queries: vec![],
        };
        let mut ctx = ExecContext::paper_1998();
        let before = ctx.pool.stats();
        let out = execute_class(&mut ctx, &cube, &spec, 2, DEFAULT_MORSEL_PAGES).unwrap();
        let delta = ctx.pool.stats().since(&before);
        assert_eq!(delta, out.report.io);
        assert!(delta.seq_faults > 0);
    }

    #[test]
    fn the_pool_keeps_what_a_class_faulted_in_at_every_thread_count() {
        // The 4,000-row paper cube fits the 2,048-page pool, so a repeat
        // of a class right after it is served entirely from the pool.
        let cube = cube();
        let spec = ClassSpec {
            table: cube.catalog.find_by_name("A'B'C'D").unwrap(),
            hash_queries: vec![q_broad(&cube)],
            index_queries: vec![q_selective(&cube)],
        };
        for threads in [1, 2, 4] {
            let mut ctx = ExecContext::paper_1998();
            let cold = execute_class(&mut ctx, &cube, &spec, threads, DEFAULT_MORSEL_PAGES);
            let warm = execute_class(&mut ctx, &cube, &spec, threads, DEFAULT_MORSEL_PAGES);
            let (cold, warm) = (cold.unwrap().report.io, warm.unwrap().report.io);
            assert!(cold.seq_faults > 0, "{threads} threads");
            assert_eq!(warm.seq_faults + warm.random_faults, 0, "{threads} threads");
            assert_eq!(warm.hits, cold.accesses(), "{threads} threads");
        }
    }

    #[test]
    fn faults_strike_the_same_accesses_at_every_thread_count() {
        let cube = cube();
        let t = cube.catalog.find_by_name("A'B'C'D").unwrap();
        let classes = [
            ClassSpec {
                table: t,
                hash_queries: vec![q_broad(&cube)],
                index_queries: vec![q_selective(&cube)],
            },
            ClassSpec {
                table: t,
                hash_queries: vec![],
                index_queries: vec![q_broad(&cube), q_selective(&cube)],
            },
        ];
        for seed in 0..8 {
            let plan = FaultPlan {
                seed,
                transient: 0.2,
                poison: 0.01,
            };
            let runs: Vec<_> = [1usize, 2, 4]
                .iter()
                .map(|&threads| {
                    let mut ctx = ExecContext::paper_1998();
                    ctx.pool.inject_faults(plan);
                    let outcomes: Vec<_> = classes
                        .iter()
                        .map(|spec| {
                            execute_class(&mut ctx, &cube, spec, threads, DEFAULT_MORSEL_PAGES)
                                .map(|out| (out.results, out.report.io, out.report.sim))
                                .map_err(|e| e.fault().copied())
                        })
                        .collect();
                    (outcomes, ctx.pool.stats(), ctx.pool.clear_faults())
                })
                .collect();
            let (outcomes, io, stats) = &runs[0];
            assert!(stats.unwrap().checked > 0, "seed {seed}");
            for (other, threads) in runs[1..].iter().zip([2, 4]) {
                assert_eq!(other.2, *stats, "seed {seed}, {threads} threads: faults");
                assert_eq!(other.1, *io, "seed {seed}, {threads} threads: pool io");
                for (a, b) in outcomes.iter().zip(&other.0) {
                    match (a, b) {
                        (Ok(a), Ok(b)) => {
                            assert_eq!((a.1, a.2), (b.1, b.2), "seed {seed}: class clock");
                            for (x, y) in a.0.iter().zip(&b.0) {
                                assert_eq!(x.rows, y.rows, "seed {seed}: rows");
                            }
                        }
                        (Err(a), Err(b)) => assert_eq!(a, b, "seed {seed}: fault"),
                        _ => panic!("seed {seed}, {threads} threads: Ok/Err pattern moved"),
                    }
                }
            }
        }
    }
}
