//! The paper's §7 numbers and the feature gates' simulated totals, pinned
//! byte-for-byte against the committed repo-root `BENCH_sim.json`.
//!
//! The test renders, at [`common::SCALE`] on the deterministic simulated
//! 1998 clock, one JSON field per line with integer nanoseconds:
//! Table 1's sizes, Figures 10–12 (separate vs shared per k), Tests 1–7 ×
//! {TPLO, ETPLG, GG, Optimal} (estimate, measured sim, critical path,
//! classes, plan), and each feature gate's two compared totals. On a
//! mismatch it writes the rendered text to `CARGO_TARGET_TMPDIR` and fails
//! naming the first differing line; a deliberate change of the simulated
//! figures is made by copying that file over `BENCH_sim.json`, so it shows
//! up in review as a diff.

mod common;

use std::path::Path;

use starshare_bench::{build_engine, fig10, fig11, fig12, table1, table2_test};
use starshare_core::SimTime;

/// The committed baseline.
const BASELINE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json");

/// A flat JSON object rendered one field per line.
#[derive(Default)]
struct Fields(Vec<String>);

impl Fields {
    fn raw(&mut self, key: &str, value: String) {
        self.0.push(format!("  {}: {value}", quote(key)));
    }

    fn int(&mut self, key: &str, value: impl Into<u64>) {
        self.raw(key, value.into().to_string());
    }

    fn sim(&mut self, key: &str, t: SimTime) {
        self.int(&format!("{key}_ns"), t.as_nanos());
    }

    fn text(&mut self, key: &str, value: &str) {
        self.raw(key, quote(value));
    }

    fn finish(self) -> String {
        format!("{{\n{}\n}}\n", self.0.join(",\n"))
    }
}

/// A JSON string literal.
fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if c.is_control() => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders every pinned figure at `scale`. The sections are independent,
/// so each runs on its own thread; their fields join in section order.
fn render(scale: f64) -> String {
    const SECTIONS: [fn(&mut Fields, f64); 7] =
        [paper, kernels, parallel, serving, cache, streaming, storage];
    let sections: Vec<Fields> = std::thread::scope(|s| {
        let handles: Vec<_> = SECTIONS
            .iter()
            .map(|section| {
                s.spawn(move || {
                    let mut f = Fields::default();
                    section(&mut f, scale);
                    f
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("section renders"))
            .collect()
    });
    let mut f = Fields::default();
    f.raw("scale", scale.to_string());
    f.0.extend(sections.into_iter().flat_map(|s| s.0));
    f.finish()
}

/// Table 1, Figures 10–12 and Tests 1–7 on one engine.
fn paper(f: &mut Fields, scale: f64) {
    let mut engine = build_engine(scale);
    for (name, rows, pages) in table1(&engine) {
        f.int(&format!("table1.{name}.rows"), rows);
        f.int(&format!("table1.{name}.pages"), pages);
    }
    for (fig, data) in [
        ("fig10", fig10(&mut engine)),
        ("fig11", fig11(&mut engine)),
        ("fig12", fig12(&mut engine)),
    ] {
        for p in &data.points {
            f.sim(&format!("{fig}.k{}.separate", p.k), p.separate);
            f.sim(&format!("{fig}.k{}.shared", p.k), p.shared);
        }
    }
    for test in 1..=7 {
        for r in table2_test(&mut engine, test) {
            let key = format!("test{test}.{}", r.algo);
            f.sim(&format!("{key}.estimated"), r.estimated);
            f.sim(&format!("{key}.measured"), r.measured);
            f.sim(&format!("{key}.critical"), r.critical);
            f.int(&format!("{key}.classes"), r.classes as u64);
            f.text(&format!("{key}.plan"), r.plan_text.trim_end());
        }
    }
}

fn kernels(f: &mut Fields, scale: f64) {
    let g = common::kernel_gate(scale);
    f.sim("gates.kernels.engine", g.engine_sim);
    f.sim("gates.kernels.legacy", g.legacy_sim);
}

fn parallel(f: &mut Fields, scale: f64) {
    for w in common::parallel_gate(scale) {
        for (threads, (sim, critical, _)) in common::THREAD_COUNTS.iter().zip(&w.runs) {
            let key = format!("gates.parallel.{}.t{threads}", w.name);
            f.sim(&format!("{key}.sim"), *sim);
            f.sim(&format!("{key}.critical"), *critical);
        }
    }
}

fn serving(f: &mut Fields, scale: f64) {
    for r in common::serving_gate(scale) {
        let key = format!("gates.serving.s{}", r.sessions);
        f.sim(&format!("{key}.shared"), r.shared_sim);
        f.sim(&format!("{key}.isolated"), r.isolated_sim);
    }
}

fn cache(f: &mut Fields, scale: f64) {
    let g = common::cache_gate(scale);
    f.sim("gates.cache.cold_repeat", g.cold_repeat_sim);
    f.sim("gates.cache.warm_repeat", g.warm_repeat_sim);
}

fn streaming(f: &mut Fields, scale: f64) {
    let g = common::streaming_gate(scale);
    // The cache-less leg: it costs what dropping the cache on every
    // append cost, so the line keeps that name.
    f.sim("gates.streaming.drop_rounds", g.reference_round_sim);
    f.sim("gates.streaming.patched_rounds", g.patched_round_sim);
}

fn storage(f: &mut Fields, scale: f64) {
    let g = common::storage_gate(scale);
    f.sim("gates.storage.plain", g.plain_sim);
    f.sim("gates.storage.compressed", g.comp_sim);
}

/// `Ok` when `actual` is byte-for-byte `expected`; otherwise an error
/// naming the first differing line.
fn compare(expected: &str, actual: &str) -> Result<(), String> {
    if expected == actual {
        return Ok(());
    }
    let (mut e, mut a) = (expected.lines(), actual.lines());
    for n in 1.. {
        match (e.next(), a.next()) {
            (None, None) => break,
            (x, y) if x == y => {}
            (x, y) => {
                return Err(format!(
                    "line {n} differs\n  committed: {}\n  actual:    {}",
                    x.unwrap_or("<end of file>"),
                    y.unwrap_or("<end of file>")
                ))
            }
        }
    }
    Err("the texts differ only in line endings".into())
}

#[test]
fn sim_figures_match_the_committed_baseline() {
    let actual = render(common::SCALE);
    let expected = std::fs::read_to_string(BASELINE).unwrap_or_default();
    if let Err(diff) = compare(&expected, &actual) {
        let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("BENCH_sim.json");
        std::fs::write(&out, &actual).expect("write the rendered baseline");
        panic!(
            "simulated figures differ from {BASELINE}: {diff}\n\
             if the change is deliberate, copy {} over it and commit the diff",
            out.display()
        );
    }
}

#[test]
fn comparer_names_the_first_differing_line() {
    let committed = "{\n  \"a_ns\": 1,\n  \"b_ns\": 2,\n  \"c_ns\": 3\n}\n";
    let actual = committed.replace("\"b_ns\": 2", "\"b_ns\": 5");
    let err = compare(committed, &actual).unwrap_err();
    assert!(err.starts_with("line 3 differs"), "{err}");
    assert!(err.contains("committed:   \"b_ns\": 2,"), "{err}");
    assert!(err.contains("actual:      \"b_ns\": 5,"), "{err}");

    let truncated = "{\n  \"a_ns\": 1,\n";
    let err = compare(committed, truncated).unwrap_err();
    assert!(err.starts_with("line 3 differs"), "{err}");
    assert!(err.contains("<end of file>"), "{err}");
}

#[test]
fn comparer_accepts_identical_texts() {
    let text = "{\n  \"scale\": 0.01,\n  \"a_ns\": 1\n}\n";
    assert_eq!(compare(text, text), Ok(()));
}
