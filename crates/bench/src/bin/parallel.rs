//! Parallel-execution runner: the thread-count ablation plus the morsel
//! executor's scaling bench.
//!
//! ```text
//! STARSHARE_SCALE=0.1 cargo run --release -p starshare-bench --bin parallel [out.json]
//! ```
//!
//! Prints both reports and writes the scaling bench's JSON payload
//! (default `BENCH_parallel.json` in the current directory). Exits
//! non-zero if result rows diverge across thread counts or the simulated
//! clock moves with the thread count — speedups vary by host, correctness
//! may not.

use starshare_bench::{
    ablation_parallel, parallel_bench, parallel_bench_json, render_parallel, render_parallel_bench,
    scale_from_env,
};

fn main() {
    let scale = scale_from_env();
    let repeats: u32 = std::env::var("STARSHARE_REPEATS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3);
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_parallel.json".to_string());

    println!("== Parallel execution vs thread count (scale {scale}) ==");
    println!("(sim/critical are simulated 1998-hardware seconds and must not");
    println!(" move with the thread count; wall speedup needs real cores)\n");
    let rows = ablation_parallel(scale, &[1, 2, 4, 8]);
    print!("{}", render_parallel(&rows));

    println!("\n== Morsel executor scaling ==");
    let r = parallel_bench(scale, repeats, &[1, 4, 16], None);
    print!("{}", render_parallel_bench(&r));
    std::fs::write(&out, parallel_bench_json(&r)).expect("write bench json");
    println!("wrote {out}");

    if r.workloads
        .iter()
        .any(|w| !w.results_match || !w.clock_invariant)
    {
        eprintln!("FAIL: thread counts diverged (see report above)");
        std::process::exit(1);
    }
}
