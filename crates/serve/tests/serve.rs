//! Integration tests: multi-tenant windows against a solo reference
//! engine, fault isolation across sessions, shutdown, and counters.

use std::time::Duration;

use starshare_core::{
    Engine, EngineConfig, Error, FaultPlan, OlapError, PaperCubeSpec, WindowConfig,
};
use starshare_serve::{Serve, Server};

fn spec() -> PaperCubeSpec {
    PaperCubeSpec {
        base_rows: 5_000,
        d_leaf: 48,
        seed: 17,
        with_indexes: true,
    }
}

fn engine() -> Engine {
    EngineConfig::paper().build_paper(spec())
}

/// A window policy that pools exactly `n` expressions deterministically:
/// the window closes on count, with a deadline generous enough that test
/// submissions enqueued back-to-back always ride together.
fn pool_exactly(n: usize) -> WindowConfig {
    WindowConfig::default()
        .max_exprs(n)
        .max_wait(Duration::from_secs(5))
}

const Q_CHILDREN: &str = "{A''.A1.CHILDREN} on COLUMNS {B''.B1} on ROWS CONTEXT ABCD;";
const Q_PAGES: &str = "{A''.A1, A''.A2} on COLUMNS {C''.C1} on PAGES CONTEXT ABCD;";
const Q_FILTER: &str = "{A''.A1} on COLUMNS CONTEXT ABCD FILTER (D.DD1);";

/// Bitwise comparison of two expression outcomes' result rows.
fn same_bits(a: &starshare_core::ExprOutcome, b: &starshare_core::ExprOutcome) -> bool {
    a.results.len() == b.results.len()
        && a.results.iter().zip(&b.results).all(|(x, y)| match (x, y) {
            (Ok(x), Ok(y)) => {
                x.rows.len() == y.rows.len()
                    && x.rows
                        .iter()
                        .zip(&y.rows)
                        .all(|((ka, va), (kb, vb))| ka == kb && va.to_bits() == vb.to_bits())
            }
            _ => false,
        })
}

#[test]
fn windowed_replies_are_bit_identical_to_solo_runs() {
    let server = Server::start_with(engine(), pool_exactly(3));
    let dashboards = server.session("dashboards");
    let reports = server.session("reports");

    // Enqueued back-to-back, so the coordinator pools all three
    // expressions into one window (closing on max_exprs).
    let t1 = dashboards.submit(&[Q_CHILDREN]).unwrap();
    let t2 = reports.submit(&[Q_PAGES, Q_FILTER]).unwrap();
    let r1 = t1.wait().unwrap();
    let r2 = t2.wait().unwrap();

    assert_eq!(r1.window.n_submissions, 2);
    assert_eq!(r1.window.window_id, r2.window.window_id);
    assert!(r1.all_ok() && r2.all_ok());

    // Reference: each submission alone on a fresh engine, same config.
    let mut solo = engine();
    let s1 = solo.mdx_window(&[&[Q_CHILDREN]]).unwrap();
    assert!(same_bits(r1.expr(0), s1.submission(0)[0].as_ref().unwrap()));
    assert_eq!(
        r1.attributed, s1.attributed[0],
        "attribution is solo-priced"
    );

    let mut solo = engine();
    let s2 = solo.mdx_window(&[&[Q_PAGES, Q_FILTER]]).unwrap();
    for i in 0..2 {
        assert!(same_bits(r2.expr(i), s2.submission(0)[i].as_ref().unwrap()));
    }
    assert_eq!(r2.attributed, s2.attributed[0]);
}

#[test]
fn identical_queries_from_two_sessions_share_one_class() {
    let server = Server::start_with(engine(), pool_exactly(2));
    let a = server.session("tenant-a");
    let b = server.session("tenant-b");
    let ta = a.submit(&[Q_CHILDREN]).unwrap();
    let tb = b.submit(&[Q_CHILDREN]).unwrap();
    let ra = ta.wait().unwrap();
    let rb = tb.wait().unwrap();

    assert_eq!(ra.window.n_submissions, 2);
    assert!(ra.window.cross_session_classes >= 1);
    assert!(ra.window.shared_scan_ratio > 1.0);
    assert!(same_bits(ra.expr(0), rb.expr(0)));
}

#[test]
fn parse_error_stays_inside_its_session() {
    let server = Server::start_with(engine(), pool_exactly(2));
    let good = server.session("good");
    let bad = server.session("bad");
    let tg = good.submit(&[Q_FILTER]).unwrap();
    let tb = bad.submit(&["this is not MDX"]).unwrap();
    let rg = tg.wait().unwrap();
    let rb = tb.wait().unwrap();
    assert_eq!(rg.window.n_submissions, 2);
    assert!(rg.all_ok());
    assert!(matches!(rb.outcomes[0], Err(Error::Parse(_))));
}

#[test]
fn one_sessions_fault_cannot_fail_a_window_mate() {
    // Clean reference bits first.
    let mut clean = engine();
    let reference = clean.mdx_window(&[&[Q_CHILDREN]]).unwrap();
    let reference = reference.submission(0)[0].as_ref().unwrap();

    let mut saw_fault = false;
    for seed in 0..8u64 {
        let mut e = engine();
        e.inject_faults(FaultPlan {
            seed,
            transient: 0.05,
            poison: 0.02,
        });
        let server = Server::start_with(e, pool_exactly(2));
        let a = server.session("a");
        let b = server.session("b");
        let ta = a.submit(&[Q_CHILDREN]).unwrap();
        let tb = b.submit(&[Q_CHILDREN]).unwrap();
        for r in [ta.wait().unwrap(), tb.wait().unwrap()] {
            match &r.outcomes[0] {
                Ok(out) => match out.results.iter().find_map(|q| q.as_ref().err()) {
                    Some(err) => {
                        assert!(err.is_fault(), "non-fault degradation: {err}");
                        saw_fault = true;
                    }
                    None => assert!(same_bits(out, reference), "survivor bits drifted"),
                },
                Err(err) => {
                    assert!(err.is_fault(), "non-fault failure: {err}");
                    saw_fault = true;
                }
            }
        }
        drop(server);
    }
    assert!(saw_fault, "fault sweep never tripped; raise the rates");
}

#[test]
fn shutdown_returns_the_engine_and_closes_sessions() {
    let server = engine().serve();
    let session = server.session("t");
    assert!(session.mdx(Q_FILTER).unwrap().all_ok());

    let mut back = server.shutdown();
    // The engine came back intact and usable.
    assert!(back.mdx(Q_FILTER).unwrap().all_ok());
    // Late submissions fail fast.
    assert!(matches!(session.submit(&[Q_FILTER]), Err(Error::Closed)));
}

#[test]
fn stats_count_windows_submissions_and_expressions() {
    let server = Server::start_with(engine(), pool_exactly(3));
    let s = server.session("t");
    let t1 = s.submit(&[Q_FILTER]).unwrap();
    let t2 = s.submit(&[Q_PAGES, Q_FILTER]).unwrap();
    let r1 = t1.wait().unwrap();
    let r2 = t2.wait().unwrap();
    assert_eq!(r1.window.window_id, r2.window.window_id);
    let stats = server.stats();
    assert_eq!(stats.windows, 1);
    assert_eq!(stats.submissions, 2);
    assert_eq!(stats.expressions, 3);
    assert_eq!(stats.rejected_queue + stats.rejected_tenant, 0);
}

#[test]
fn repeated_dashboard_traffic_is_served_from_the_shared_cache() {
    // One tenant's refresh warms the cache; another tenant's identical
    // refresh exact-hits, and a coarser derivable probe subsumption-hits
    // — all without a scan, all bit-identical to an uncached engine.
    const Q_COARSE: &str = "{A''.A1} on COLUMNS {B''.B1} on ROWS CONTEXT ABCD;";
    let cached = EngineConfig::paper().result_cache(true).build_paper(spec());
    let server = Server::start_with(cached, pool_exactly(1));
    let a = server.session("tenant-a");
    let b = server.session("tenant-b");

    let cold = a.mdx(Q_CHILDREN).unwrap();
    assert_eq!(cold.window.cache_hits, 0);

    let warm = b.mdx(Q_CHILDREN).unwrap();
    assert_eq!(warm.window.cache_hits, 1);
    assert_eq!(warm.window.cache_subsumption_hits, 0);
    assert_eq!(warm.attributed, starshare_core::SimTime::ZERO);
    assert!(same_bits(cold.expr(0), warm.expr(0)));

    let coarse = b.mdx(Q_COARSE).unwrap();
    assert_eq!(coarse.window.cache_subsumption_hits, 1);

    let stats = server.stats();
    assert_eq!(stats.cache_hits, 2);
    assert_eq!(stats.cache_subsumption_hits, 1);
    assert_eq!(stats.cache_misses, 1);
    drop(server);

    // The rolled-up answer matches a direct uncached evaluation.
    let mut plain = engine();
    let direct = plain.mdx_window(&[&[Q_COARSE]]).unwrap();
    assert!(same_bits(
        coarse.expr(0),
        direct.submission(0)[0].as_ref().unwrap()
    ));
}

/// Salt separating the streaming tests' append draws from every other
/// seeded stream in the repo.
const APPEND_SALT: u64 = 0x5e12_4e55_a99e_u64;

/// A deterministic append batch in the measure domain (quarter units), so
/// a patched cache entry must match a cache-less recompute bit-for-bit.
fn append_batch(cards: &[u32], i: u64, n: usize) -> Vec<(Vec<u32>, f64)> {
    let mut rng = starshare_prng::Prng::seed_from_u64(APPEND_SALT ^ i);
    (0..n)
        .map(|_| {
            let keys = cards.iter().map(|&c| rng.gen_range(0..c)).collect();
            (keys, rng.gen_range(0..400u32) as f64 * 0.25)
        })
        .collect()
}

fn leaf_cards(e: &Engine) -> Vec<u32> {
    (0..e.cube().schema.n_dims())
        .map(|d| e.cube().schema.dim(d).cardinality(0))
        .collect()
}

#[test]
fn concurrent_appends_see_monotonic_snapshots_with_fresh_bits() {
    const BATCHES: u64 = 4;
    const BATCH_ROWS: usize = 64;
    let cached = EngineConfig::paper().result_cache(true).build_paper(spec());
    let cards = leaf_cards(&cached);
    let server = Server::start_with(cached, pool_exactly(1));
    let querier = server.session("dash");
    let appender = server.session("etl");

    // References first: the query's bits at every append prefix, from a
    // plain cache-less engine.
    let refs: Vec<_> = (0..=BATCHES + 1)
        .map(|prefix| {
            let mut plain = engine();
            for i in 0..prefix {
                plain
                    .append_facts(&append_batch(&cards, i, BATCH_ROWS))
                    .unwrap();
            }
            plain.mdx_window(&[&[Q_CHILDREN]]).unwrap()
        })
        .collect();

    // The appender races the querier; the coordinator serializes the
    // batches strictly between windows.
    let appender_cards = cards.clone();
    let appender_t = std::thread::spawn(move || {
        for i in 0..BATCHES {
            let out = appender
                .append(&append_batch(&appender_cards, i, BATCH_ROWS))
                .unwrap();
            assert_eq!(out.appended, BATCH_ROWS as u64);
        }
    });
    // Query until the appender is done, then once more: that last window
    // opens after every batch was applied, however the threads were
    // scheduled.
    let mut seen = Vec::new();
    let mut last_epoch = 0u64;
    loop {
        let appends_done = appender_t.is_finished();
        let r = querier.mdx(Q_CHILDREN).unwrap();
        assert!(
            r.window.epoch >= last_epoch,
            "window {} went back in time: epoch {} after {last_epoch}",
            r.window.window_id,
            r.window.epoch
        );
        last_epoch = r.window.epoch;
        seen.push(r);
        if appends_done {
            break;
        }
    }
    appender_t.join().unwrap();
    assert_eq!(
        last_epoch, BATCHES,
        "the window after the last append must see it"
    );
    // Every answer matches the from-scratch reference at the exact append
    // prefix its window reported — no stale reads, no torn snapshots.
    for r in &seen {
        assert!(
            same_bits(
                r.expr(0),
                refs[r.window.epoch as usize].submission(0)[0]
                    .as_ref()
                    .unwrap()
            ),
            "window {} at epoch {} returned stale or torn bits",
            r.window.window_id,
            r.window.epoch
        );
    }

    // One more batch with the cache warm (the loop's last window filled
    // it): the append must delta-patch the cached entry, and the next
    // answer must still match the fresh reference.
    let out = querier
        .append(&append_batch(&cards, BATCHES, BATCH_ROWS))
        .unwrap();
    assert_eq!(out.epoch, BATCHES + 1);
    assert!(out.cache.patched > 0, "a warm cache must be delta-patched");
    let r = querier.mdx(Q_CHILDREN).unwrap();
    assert_eq!(r.window.epoch, BATCHES + 1);
    assert!(same_bits(
        r.expr(0),
        refs[(BATCHES + 1) as usize].submission(0)[0]
            .as_ref()
            .unwrap()
    ));

    let stats = server.stats();
    assert_eq!(stats.appends, BATCHES + 1);
    assert_eq!(stats.appended_rows, (BATCHES + 1) * BATCH_ROWS as u64);
    assert!(stats.cache_patched >= out.cache.patched);
}

#[test]
fn shutdown_drains_queued_appends_before_returning_the_engine() {
    const ROWS: usize = 32;
    let e = engine();
    let cards = leaf_cards(&e);
    let base = e.cube().catalog.base_table().unwrap();
    let rows_before = e.cube().catalog.table(base).n_rows();
    let cfg = WindowConfig::default()
        .max_exprs(64)
        .max_wait(Duration::from_secs(1));
    let server = Server::start_with(e, cfg);
    let s = server.session("t");

    // Open a window that keeps collecting (64-expr budget, generous
    // deadline)...
    let ticket = s.submit(&[Q_FILTER]).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    // ...then queue an append behind it: the coordinator parks it until
    // the window has executed.
    let batch = append_batch(&cards, 9, ROWS);
    let s2 = s.clone();
    let queued = batch.clone();
    let appender = std::thread::spawn(move || s2.append(&queued));
    std::thread::sleep(Duration::from_millis(50));

    // Shutdown must finish the in-flight window AND apply the queued
    // append before handing the engine back.
    let back = server.shutdown();
    let out = appender
        .join()
        .unwrap()
        .expect("queued append was lost at shutdown");
    assert_eq!(out.appended, ROWS as u64);
    assert!(ticket.wait().unwrap().all_ok());
    let base = back.cube().catalog.base_table().unwrap();
    assert_eq!(
        back.cube().catalog.table(base).n_rows(),
        rows_before + ROWS as u64
    );
    assert_eq!(back.cube().epoch, 1);
    // Post-shutdown appends fail fast.
    assert!(matches!(s.append(&batch), Err(Error::Closed)));
}

#[test]
fn deadline_closes_an_underfilled_window() {
    let cfg = WindowConfig::default()
        .max_exprs(64)
        .max_wait(Duration::from_millis(5));
    let server = Server::start_with(engine(), cfg);
    let s = server.session("t");
    let r = s.mdx(Q_FILTER).unwrap();
    assert_eq!(r.window.n_submissions, 1);
    assert!(r.all_ok());
}

#[test]
fn an_inexact_append_fails_alone_while_window_mates_answer() {
    let e = engine();
    let cards = leaf_cards(&e);
    let server = Server::start_with(e, pool_exactly(2));
    let reader = server.session("reader");
    let mate = server.session("mate");
    let writer = server.session("etl");

    // The append reaches the coordinator while the window collects, or
    // right after it: either way it applies between windows and fails
    // alone, with the typed error.
    let t1 = reader.submit(&[Q_CHILDREN]).unwrap();
    let mut rows = append_batch(&cards, 11, 8);
    rows[5].1 = 0.1;
    let appender = std::thread::spawn(move || writer.append(&rows));
    let t2 = mate.submit(&[Q_FILTER]).unwrap();
    let (r1, r2) = (t1.wait().unwrap(), t2.wait().unwrap());
    match appender.join().unwrap() {
        Err(e @ Error::Append(OlapError::InexactMeasure { row: 5, value })) => {
            assert_eq!(value, 0.1);
            assert!(e.to_string().starts_with("append rejected: row 5"), "{e}");
        }
        other => panic!("an inexact measure must be refused, got {other:?}"),
    }
    assert!(r1.all_ok() && r2.all_ok());
    assert_eq!(r1.window.window_id, r2.window.window_id);

    let mut solo = engine();
    let s1 = solo.mdx_window(&[&[Q_CHILDREN]]).unwrap();
    assert!(same_bits(r1.expr(0), s1.submission(0)[0].as_ref().unwrap()));
    // The failed batch moved nothing: the next window reads epoch 0.
    let again = reader.mdx(Q_CHILDREN).unwrap();
    assert_eq!(again.window.epoch, 0);
    assert!(same_bits(again.expr(0), r1.expr(0)));
    assert_eq!(server.stats().appends, 0);
}
