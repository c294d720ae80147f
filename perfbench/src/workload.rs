//! The four workloads and their seeded inputs.
//!
//! Everything the program under test receives — MDX text and appended fact
//! rows — is generated here from the run's seed, so the same seed always
//! yields the same input sequence.

use std::collections::HashMap;

use starshare_core::paper_queries::{paper_query_text, paper_test_queries};
use starshare_core::{bind, generate_mdx, paper_schema, parse, PaperCubeSpec, StarSchema};
use starshare_prng::Prng;

/// One append batch: leaf keys plus a quarter-unit measure per row.
pub type Batch = Vec<(Vec<u32>, f64)>;

/// Salts separating the benchmark's random streams.
const CUBE_SALT: u64 = 0x9e37_79b9_7f4a_7c15;
const STREAM_SALT: u64 = 0x51ed_2701_a3c4_5e6b;
const APPEND_SALT: u64 = 0x2545_f491_4f6c_dd1d;

/// The named workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, one client: the paper's Tests 1–7 as `mdx_many` batches
    /// at scale 0.5, where the tables outgrow the buffer pool.
    PaperTests,
    /// Closed loop, one client: batches of generated expressions at scale
    /// 0.1, where GG planning dominates.
    AdhocWide,
    /// Open loop at a fixed rate through `Session::submit`: a dashboard
    /// mix of exact hits, drill-ups and fresh expressions on a cached server.
    DashboardOpen,
    /// Closed loop through `Session`: each round appends a batch of facts,
    /// then refreshes a dashboard.
    AppendStream,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperTests,
        Workload::AdhocWide,
        Workload::DashboardOpen,
        Workload::AppendStream,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperTests => "paper-tests",
            Workload::AdhocWide => "adhoc-wide",
            Workload::DashboardOpen => "dashboard-open",
            Workload::AppendStream => "append-stream",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// True for the workloads served through `starshare-serve`.
    pub fn served(self) -> bool {
        matches!(self, Workload::DashboardOpen | Workload::AppendStream)
    }
}

/// The knobs of one run.
#[derive(Clone, Debug)]
pub struct Params {
    /// Paper-cube scale factor.
    pub scale: f64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Closed loops keep going past `seconds` until this many submissions
    /// were sent, so `latency_p95_ms` always has ten samples beyond it.
    pub min_samples: usize,
    /// Set-ups timed per run (the reported `setup_s` is their median).
    pub setup_repeats: usize,
    /// `dashboard-open`: submissions per second.
    pub rate_per_s: f64,
    /// `append-stream`: most rounds started per second.
    pub stream_rounds_per_s: f64,
    /// `adhoc-wide`: distinct batches, cycled.
    pub adhoc_batches: usize,
    /// `adhoc-wide`: expressions per batch.
    pub adhoc_exprs: usize,
    /// `adhoc-wide`: bound queries per batch (batches are drawn until
    /// their expressions bind to exactly this many, so planning work is
    /// alike from seed to seed).
    pub adhoc_queries: usize,
    /// `append-stream`: fact rows per append.
    pub append_rows: usize,
}

impl Params {
    /// The benchmark's settings for `workload`, measuring for `seconds`.
    pub fn new(workload: Workload, seconds: f64) -> Params {
        Params {
            scale: if workload == Workload::PaperTests {
                0.5
            } else {
                0.1
            },
            seconds,
            min_samples: 200,
            // A scale-0.5 set-up takes seconds; the others take a fraction.
            setup_repeats: if workload == Workload::PaperTests {
                3
            } else {
                5
            },
            rate_per_s: 100.0,
            stream_rounds_per_s: 12.5,
            adhoc_batches: 64,
            adhoc_exprs: 8,
            adhoc_queries: 22,
            append_rows: 1000,
        }
    }

    /// A tiny configuration for the self-test: every code path, little work.
    #[cfg(test)]
    pub fn tiny(seconds: f64) -> Params {
        Params {
            scale: 0.01,
            seconds,
            min_samples: 20,
            setup_repeats: 1,
            rate_per_s: 200.0,
            stream_rounds_per_s: 100.0,
            adhoc_batches: 3,
            adhoc_exprs: 4,
            adhoc_queries: 10,
            append_rows: 100,
        }
    }
}

/// One submission: expressions (ids into [`Inputs::text`]) plus, for
/// `append-stream`, the append batch sent just before it.
#[derive(Clone, Debug)]
pub struct Sub {
    /// Expression ids, in submission order.
    pub exprs: Vec<usize>,
    /// Index into [`Inputs::batches`] of the batch appended first.
    pub append: Option<usize>,
}

/// The seeded input stream of one run.
pub struct Inputs {
    workload: Workload,
    /// The cube to generate.
    pub spec: PaperCubeSpec,
    /// Append batches handed out so far (`append-stream`).
    pub batches: Vec<Batch>,
    params: Params,
    schema: StarSchema,
    seed: u64,
    rng: Prng,
    texts: Vec<String>,
    ids: HashMap<String, usize>,
    /// Ids of paper queries Q1..Q9.
    paper: Vec<usize>,
    /// Drill-ups answerable from a cached paper query.
    drill_ups: Vec<usize>,
    /// `adhoc-wide` batches.
    pool: Vec<Vec<usize>>,
    /// `paper-tests`: this round's test order.
    round: Vec<usize>,
}

impl Inputs {
    /// The input stream of `workload` for `seed`.
    pub fn new(workload: Workload, params: &Params, seed: u64) -> Inputs {
        let spec = PaperCubeSpec {
            seed: seed.wrapping_mul(CUBE_SALT) ^ PaperCubeSpec::full().seed,
            ..PaperCubeSpec::scaled(params.scale)
        };
        let schema = paper_schema(spec.d_leaf);
        let mut inputs = Inputs {
            workload,
            spec,
            batches: Vec::new(),
            params: params.clone(),
            schema,
            seed,
            rng: Prng::seed_from_u64(seed ^ STREAM_SALT),
            texts: Vec::new(),
            ids: HashMap::new(),
            paper: Vec::new(),
            drill_ups: Vec::new(),
            pool: Vec::new(),
            round: Vec::new(),
        };
        inputs.paper = (1..=9)
            .map(|n| inputs.intern(paper_query_text(n).to_string()))
            .collect();
        inputs.drill_ups = drill_ups().into_iter().map(|t| inputs.intern(t)).collect();
        if workload == Workload::AdhocWide {
            inputs.pool = (0..params.adhoc_batches)
                .map(|_| inputs.adhoc_batch())
                .collect();
        }
        inputs
    }

    /// The MDX text of expression `id`.
    pub fn text(&self, id: usize) -> &str {
        &self.texts[id]
    }

    /// Expression texts of `sub`.
    pub fn texts(&self, sub: &Sub) -> Vec<&str> {
        sub.exprs.iter().map(|&e| self.text(e)).collect()
    }

    fn intern(&mut self, text: String) -> usize {
        if let Some(&id) = self.ids.get(&text) {
            return id;
        }
        self.texts.push(text.clone());
        self.ids.insert(text, self.texts.len() - 1);
        self.texts.len() - 1
    }

    fn fresh(&mut self) -> usize {
        let text = generate_mdx(&self.schema, "ABCD", &mut self.rng);
        self.intern(text)
    }

    /// Queries `text` binds to on this schema.
    fn bound_queries(&self, text: &str) -> usize {
        parse(text)
            .ok()
            .and_then(|e| bind(&self.schema, &e).ok())
            .map_or(0, |b| b.queries.len())
    }

    /// An `adhoc-wide` batch: generated expressions, redrawn until they
    /// bind to exactly `adhoc_queries` queries.
    fn adhoc_batch(&mut self) -> Vec<usize> {
        loop {
            let texts: Vec<String> = (0..self.params.adhoc_exprs)
                .map(|_| generate_mdx(&self.schema, "ABCD", &mut self.rng))
                .collect();
            let n: usize = texts.iter().map(|t| self.bound_queries(t)).sum();
            if n == self.params.adhoc_queries {
                return texts.into_iter().map(|t| self.intern(t)).collect();
            }
        }
    }

    /// Submission `i`; call with `i = 0, 1, 2, …` in order.
    pub fn next(&mut self, i: usize) -> Sub {
        match self.workload {
            Workload::PaperTests => {
                if i.is_multiple_of(7) {
                    self.round = (1..=7).collect();
                    self.rng.shuffle(&mut self.round);
                }
                let test = self.round[i % 7];
                Sub {
                    exprs: paper_test_queries(test)
                        .iter()
                        .map(|&n| self.paper[n - 1])
                        .collect(),
                    append: None,
                }
            }
            Workload::AdhocWide => Sub {
                exprs: self.pool[i % self.pool.len()].clone(),
                append: None,
            },
            Workload::DashboardOpen => {
                let u = self.rng.gen_f64();
                let expr = if u < 0.7 {
                    self.paper[self.rng.gen_range(0..9usize)]
                } else if u < 0.8 {
                    self.drill_ups[self.rng.gen_range(0..self.drill_ups.len())]
                } else {
                    // A new expression each time, so a miss.
                    self.fresh()
                };
                Sub {
                    exprs: vec![expr],
                    append: None,
                }
            }
            Workload::AppendStream => {
                self.batches.push(self.batch(i));
                let mut exprs: Vec<usize> = self.paper[..4].to_vec();
                exprs.push(self.drill_ups[0]);
                exprs.push(self.fresh());
                Sub {
                    exprs,
                    append: Some(self.batches.len() - 1),
                }
            }
        }
    }

    /// Append batch `i`: keys within the leaf cardinalities, measures in
    /// quarter units like the generator's, so sums stay exact.
    fn batch(&self, i: usize) -> Batch {
        let cards: Vec<u32> = (0..self.schema.n_dims())
            .map(|d| self.schema.dim(d).cardinality(0))
            .collect();
        let mut rng = Prng::seed_from_u64(self.seed ^ APPEND_SALT ^ ((i as u64) << 24));
        (0..self.params.append_rows)
            .map(|_| {
                let key = cards.iter().map(|&c| rng.gen_range(0..c)).collect();
                (key, rng.gen_range(0u32..400) as f64 * 0.25)
            })
            .collect()
    }
}

/// Drill-ups of the paper queries: each keeps a query's filter and narrows
/// or coarsens its axes, so a cached answer to the original covers it and
/// the result cache answers it by rolling that answer up. The first is the
/// coarse probe the dashboard refresh adds (Q1 with `A''.A1.CHILDREN`
/// collapsed to `A''.A1`).
fn drill_ups() -> Vec<String> {
    let subsets = |members: &[&str]| -> Vec<String> {
        (1..1usize << members.len())
            .rev()
            .map(|mask| {
                let picked: Vec<&str> = members
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask & (1 << i) != 0)
                    .map(|(_, m)| *m)
                    .collect();
                format!("{{{}}}", picked.join(", "))
            })
            .collect()
    };
    let one = |s: &str| vec![s.to_string()];
    // Per paper query: the alternatives for each axis, the original first.
    let queries: Vec<[Vec<String>; 3]> = vec![
        [
            one("{A''.A1.CHILDREN}")
                .into_iter()
                .chain(one("{A''.A1}"))
                .collect(),
            one("{B''.B1}"),
            one("{C''.C1}"),
        ],
        [
            subsets(&["A''.A1", "A''.A2", "A''.A3"]),
            vec!["{B''.B2.CHILDREN}".into(), "{B''.B2}".into()],
            one("{C''.C2}"),
        ],
        [
            one("{A''.A2}"),
            one("{B''.B2}"),
            subsets(&["C''.C1", "C''.C3"]),
        ],
        [
            subsets(&["A''.A3", "A''.A2"]),
            one("{B''.B3}"),
            subsets(&["C''.C1", "C''.C2", "C''.C3"]),
        ],
        [
            one("{A''.A2.CHILDREN.AA5}"),
            vec!["{B''.B1.CHILDREN}".into(), "{B''.B1}".into()],
            one("{C''.C3.CHILDREN.CC2}"),
        ],
        [
            vec!["{A''.A1.CHILDREN}".into(), "{A''.A1}".into()],
            subsets(&["B''.B2", "B''.B3"]),
            vec!["{C''.C1.CHILDREN}".into(), "{C''.C1}".into()],
        ],
    ];
    let mut out = Vec::new();
    for [a, b, c] in &queries {
        for (ia, xa) in a.iter().enumerate() {
            for (ib, xb) in b.iter().enumerate() {
                for (ic, xc) in c.iter().enumerate() {
                    if ia + ib + ic > 0 {
                        out.push(format!(
                            "{xa} on COLUMNS {xb} on ROWS {xc} on PAGES \
                             CONTEXT ABCD FILTER (D.DD1);"
                        ));
                    }
                }
            }
        }
    }
    out
}
