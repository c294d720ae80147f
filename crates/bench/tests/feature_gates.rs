//! Acceptance gates of the engine's features, each against its baseline
//! on the simulated 1998 clock: compiled kernels, the morsel executor,
//! shared serving windows, the result cache, delta patching under
//! appends, and compressed storage. The workloads live in `common`;
//! `sim_baseline.rs` pins their simulated totals.

mod common;

use common::SCALE;
use starshare_core::SimTime;

#[test]
fn kernels_legacy_loop_reproduces_engine_rows_and_clock() {
    let g = common::kernel_gate(SCALE);
    assert!(g.rows_match, "legacy rows diverge from engine rows");
    assert_eq!(
        g.engine_sim, g.legacy_sim,
        "legacy sim clock diverges from engine"
    );
}

#[test]
fn parallel_thread_counts_agree_and_keep_the_clock_still() {
    for w in common::parallel_gate(SCALE) {
        assert!(w.rows_match, "{}: results diverge across threads", w.name);
        assert!(
            w.clock_invariant(),
            "{}: sim/critical/io moved with threads: {:?}",
            w.name,
            w.runs
        );
    }
}

#[test]
fn serving_shared_window_matches_solo_and_beats_isolation() {
    let rows = common::serving_gate(SCALE);
    for r in &rows {
        assert!(
            r.differential_ok,
            "{} sessions: windowed answers drifted from solo",
            r.sessions
        );
    }
    assert!(
        rows.windows(2)
            .all(|w| w[1].shared_scan_ratio >= w[0].shared_scan_ratio - 1e-9),
        "sharing ratio fell as sessions grew"
    );
    for r in rows.iter().filter(|r| r.sessions >= 4) {
        assert!(
            r.shared_sim <= r.isolated_sim,
            "{} sessions: shared window {} lost to isolation {}",
            r.sessions,
            r.shared_sim,
            r.isolated_sim
        );
    }
    assert!(rows.last().unwrap().cross_session_classes > 0);
}

#[test]
fn cache_warm_dashboard_is_five_times_cheaper_and_bit_identical() {
    let g = common::cache_gate(SCALE);
    assert!(g.differential_ok, "cached answers drifted from cold");
    assert!(g.within_budget, "cache overflowed its byte budget");
    assert!(g.tight_evictions > 0, "the tight budget never evicted");
    assert!(
        g.stats.subsumption_hits >= 1,
        "the drill-up probe never rolled up: {:?}",
        g.stats
    );
    assert!(g.stats.exact_hits >= 1);
    let speedup = g.cold_repeat_sim.as_secs_f64() / g.warm_repeat_sim.as_secs_f64().max(1e-12);
    assert!(speedup >= 5.0, "warm repeat only {speedup:.2}x cheaper");
    assert!(g.warm_repeat_sim > SimTime::ZERO, "rollup CPU is charged");
    assert!(g.subsumption_sim <= g.warm_repeat_sim);
}

#[test]
fn streaming_patched_rounds_are_twice_as_cheap_and_bit_identical() {
    let g = common::streaming_gate(SCALE);
    assert!(g.differential_ok, "a cached leg drifted from the reference");
    assert!(g.patched >= 1, "no entry was ever delta-patched");
    assert!(g.drop_invalidations >= 1, "the drop leg never invalidated");
    let speedup = g.drop_round_sim.as_secs_f64() / g.patched_round_sim.as_secs_f64().max(1e-12);
    assert!(
        speedup >= 2.0,
        "patched rounds only {speedup:.2}x cheaper than epoch-drop"
    );
    assert!(
        g.patched_append_sim > SimTime::ZERO,
        "patch CPU must be charged on the simulated clock"
    );
}

#[test]
fn storage_compressed_scans_prune_and_fit_the_budget() {
    let g = common::storage_gate(SCALE);
    assert!(g.zones >= 12, "the rows floor must give real zones");
    assert!(g.bit_identical, "compressed answers drifted from plain");
    assert!(
        g.threads_identical,
        "compressed answers moved with the thread count"
    );
    assert!(
        g.bytes_ratio() >= common::DASHBOARD_MIN_BYTES_RATIO,
        "bytes scanned only {:.2}x down (need >= {}x)",
        g.bytes_ratio(),
        common::DASHBOARD_MIN_BYTES_RATIO
    );
    assert!(
        g.comp_seq_faults < g.plain_seq_faults,
        "pruning never skipped a zone"
    );
    assert!(
        g.comp_sim < g.plain_sim,
        "decompression CPU ate the I/O saving ({} vs {} sim)",
        g.comp_sim,
        g.plain_sim
    );
    assert!(
        g.raw_bytes > g.budget_bytes,
        "raw footprint {} fits the {} budget; the leg proves nothing",
        g.raw_bytes,
        g.budget_bytes
    );
    assert!(
        g.resident_bytes <= g.budget_bytes,
        "compressed build {} exceeds the {} budget",
        g.resident_bytes,
        g.budget_bytes
    );
    assert!(g.result_rows > 0, "the hybrid mix answered nothing");
    assert!(
        g.budget_threads_identical,
        "budget-leg answers moved with the thread count"
    );
}

#[test]
fn skewed_probe_clusters_the_rare_member_at_the_tail() {
    let w = common::skewed_probe(20_000, 7);
    assert!(
        w.candidates > 1_000 && w.candidates < 2_400,
        "candidates {} outside the ~8% band",
        w.candidates
    );
    let t = w.cube.catalog.table(w.table);
    assert_eq!(t.n_rows(), 20_000);
    assert!(t.index(0).is_some(), "probe dimension must be indexed");
}

#[test]
fn dashboard_refreshes_repeat_panels_and_add_the_probe() {
    let panels = common::DASHBOARD_PANELS;
    assert_eq!(common::dashboard_refresh(0).len(), panels);
    let later = common::dashboard_refresh(1);
    assert_eq!(later.len(), panels + 1);
    assert_eq!(later[..panels], common::dashboard_refresh(0)[..]);
    assert_eq!(later[panels], common::DASHBOARD_COARSE_PROBE);
}
