//! `starshare-cli` — build, snapshot, and interactively query cubes.
//!
//! ```text
//! starshare-cli build [--scale S] [--out FILE]        build the paper cube, save a snapshot
//! starshare-cli query (--cube FILE | --scale S) MDX…  run one MDX expression
//! starshare-cli repl  [--cube FILE | --scale S]       interactive session
//! starshare-cli tables (--cube FILE | --scale S)      list the catalog
//! starshare-cli advise [--scale S] [--views N]        HRU96 view recommendations
//! ```
//!
//! REPL commands: any MDX expression (end with `;`), or
//! `\tables`, `\algo tplo|etplg|gg|optimal`, `\plan` (toggle plan
//! printing), `\flush`, `\quit`.

use std::io::{BufRead, Write};

use starshare::{load_cube, save_cube, Engine, HardwareModel, OptimizerKind, PaperCubeSpec};

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("run with no arguments for usage");
    std::process::exit(1)
}

struct Opts {
    cube_file: Option<String>,
    out: Option<String>,
    scale: f64,
    rest: Vec<String>,
}

fn parse_opts(args: &[String]) -> Opts {
    let mut o = Opts {
        cube_file: None,
        out: None,
        scale: 0.05,
        rest: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--cube" => {
                o.cube_file = Some(
                    it.next()
                        .unwrap_or_else(|| fail("--cube needs a file"))
                        .clone(),
                )
            }
            "--out" => {
                o.out = Some(
                    it.next()
                        .unwrap_or_else(|| fail("--out needs a file"))
                        .clone(),
                )
            }
            "--scale" => {
                let raw = it.next().unwrap_or_else(|| fail("--scale needs a number"));
                o.scale = match raw.parse::<f64>() {
                    Ok(f) if f > 0.0 && f <= 1.0 => f,
                    Ok(_) => fail(&format!("--scale must be in (0, 1], got {raw}")),
                    Err(_) => fail("--scale needs a number"),
                }
            }
            other => o.rest.push(other.to_string()),
        }
    }
    o
}

fn make_engine(o: &Opts) -> Engine {
    match &o.cube_file {
        Some(f) => {
            eprintln!("loading cube from {f}…");
            let cube = load_cube(f).unwrap_or_else(|e| fail(&format!("loading {f}: {e}")));
            Engine::new(cube, HardwareModel::paper_1998())
        }
        None => {
            eprintln!("building paper cube at scale {}…", o.scale);
            Engine::paper(PaperCubeSpec::scaled(o.scale))
        }
    }
}

fn print_tables(engine: &Engine) {
    println!(
        "{:<16} {:>10} {:>8}  {:<8} indexes",
        "table", "rows", "pages", "measure"
    );
    for (_, t) in engine.cube().catalog.iter() {
        let idx: Vec<String> = (0..engine.cube().schema.n_dims())
            .filter_map(|d| {
                t.index(d)
                    .map(|ix| engine.cube().schema.dim(d).level(ix.level).name.clone())
            })
            .collect();
        println!(
            "{:<16} {:>10} {:>8}  {:<8} {}",
            t.name(),
            t.n_rows(),
            t.pages(),
            t.measure().to_string(),
            if idx.is_empty() {
                "-".into()
            } else {
                idx.join(",")
            }
        );
    }
}

fn run_mdx(engine: &mut Engine, mdx: &str, show_plan: bool) -> bool {
    match engine.mdx(mdx) {
        Err(e) => {
            eprintln!("error: {e}");
            false
        }
        Ok(out) => {
            if show_plan {
                print!("{}", starshare::explain_tree(engine.cube(), &out.plan));
            }
            let schema = engine.cube().schema.clone();
            match starshare::pivot(&schema, &out.expr(0).bound, &out.results()) {
                Some(grid) => print!("{}", starshare::render_pivot(&schema, &grid)),
                None => {
                    for r in out.results() {
                        println!("-- {}  ({} groups)", r.query.display(&schema), r.n_groups());
                        print!("{}", r.display(&schema, 20));
                    }
                }
            }
            println!(
                "time: {} simulated 1998 / {:?} wall  (seq {} / rand {} faults)",
                out.report.sim,
                out.report.wall,
                out.report.io.seq_faults,
                out.report.io.random_faults
            );
            true
        }
    }
}

fn repl(mut engine: Engine) {
    let stdin = std::io::stdin();
    let mut show_plan = true;
    let mut buf = String::new();
    eprintln!("starshare repl — MDX ending with ';', or \\tables \\algo \\plan \\flush \\quit");
    loop {
        if buf.is_empty() {
            eprint!("mdx> ");
        } else {
            eprint!("...> ");
        }
        std::io::stderr().flush().ok();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            return; // EOF
        }
        let trimmed = line.trim();
        if buf.is_empty() && trimmed.starts_with('\\') {
            let mut parts = trimmed[1..].split_whitespace();
            match parts.next() {
                Some("quit") | Some("q") => return,
                Some("tables") => print_tables(&engine),
                Some("flush") => {
                    engine.flush();
                    eprintln!("buffer pool flushed");
                }
                Some("plan") => {
                    show_plan = !show_plan;
                    eprintln!("plan printing {}", if show_plan { "on" } else { "off" });
                }
                Some("algo") => match parts.next().map(str::to_ascii_lowercase).as_deref() {
                    Some("tplo") => engine.set_optimizer(OptimizerKind::Tplo),
                    Some("etplg") => engine.set_optimizer(OptimizerKind::Etplg),
                    Some("gg") => engine.set_optimizer(OptimizerKind::Gg),
                    Some("optimal") => engine.set_optimizer(OptimizerKind::Optimal),
                    _ => eprintln!("usage: \\algo tplo|etplg|gg|optimal"),
                },
                _ => eprintln!("unknown command {trimmed}"),
            }
            continue;
        }
        buf.push_str(&line);
        if buf.contains(';') {
            let mdx = std::mem::take(&mut buf);
            // REPL keeps going after a bad expression.
            let _ = run_mdx(&mut engine, &mdx, show_plan);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().cloned() else {
        eprintln!(
            "usage:\n  starshare-cli build [--scale S] [--out FILE]\n  \
             starshare-cli query (--cube FILE | --scale S) 'MDX…'\n  \
             starshare-cli repl [--cube FILE | --scale S]\n  \
             starshare-cli tables (--cube FILE | --scale S)"
        );
        std::process::exit(2);
    };
    let o = parse_opts(&args[1..]);
    match cmd.as_str() {
        "build" => {
            let engine = make_engine(&o);
            let out = o.out.clone().unwrap_or_else(|| "cube.ss".into());
            save_cube(engine.cube(), &out).unwrap_or_else(|e| fail(&format!("saving {out}: {e}")));
            eprintln!("saved {out}");
            print_tables(&engine);
        }
        "query" => {
            if o.rest.is_empty() {
                fail("query needs an MDX string");
            }
            let mut engine = make_engine(&o);
            let mdx = o.rest.join(" ");
            if !run_mdx(&mut engine, &mdx, true) {
                std::process::exit(1);
            }
        }
        "repl" => repl(make_engine(&o)),
        "tables" => print_tables(&make_engine(&o)),
        "advise" => {
            let spec = starshare::PaperCubeSpec::scaled(o.scale);
            let schema = starshare::paper_schema(spec.d_leaf);
            let n: usize = o.rest.first().and_then(|s| s.parse().ok()).unwrap_or(4);
            println!(
                "HRU96 greedy view selection for the paper schema, {} base rows:",
                spec.base_rows
            );
            let recs = starshare::recommend_views(
                &schema,
                spec.base_rows,
                starshare::AdvisorConfig {
                    max_views: n,
                    row_budget: None,
                },
            );
            println!("{:<14} {:>14} {:>16}", "view", "est rows", "benefit (rows)");
            for r in recs {
                println!(
                    "{:<14} {:>14.0} {:>16.0}",
                    r.group_by.display(&schema),
                    r.est_rows,
                    r.benefit
                );
            }
        }
        other => fail(&format!("unknown command {other}")),
    }
}
