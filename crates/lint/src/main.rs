//! CLI for `ldis-lint`.
//!
//! ```text
//! cargo run -p ldis-lint [-- [lint] [OPTIONS]]
//! cargo run -p ldis-lint -- bench-lint [--out <path>] [--root <path>]
//! cargo xtask lint [OPTIONS]            # alias in .cargo/config.toml
//!
//! OPTIONS:
//!   --root <path>      workspace root (default: discovered from cwd)
//!   --format <fmt>     text (default), json (machine-readable document),
//!                      annotations (GitHub Actions workflow commands),
//!                      sarif (SARIF 2.1.0 for code-scanning upload)
//!
//! The `bench-lint` subcommand times the analysis phases (lex+parse,
//! call-graph, CFG+dataflow, rule evaluation) over the live workspace
//! and writes a BENCH_sweep.json-shaped report (default BENCH_lint.json).
//! ```
//!
//! Exit status: 0 clean, 1 findings, 2 usage or I/O error.

use ldis_lint::report::{render, render_annotation, render_json, render_sarif};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
    Annotations,
    Sarif,
}

struct Options {
    root: Option<PathBuf>,
    format: Format,
}

fn parse_format(name: Option<&str>) -> Result<Format, String> {
    match name {
        Some("text") => Ok(Format::Text),
        Some("json") => Ok(Format::Json),
        Some("annotations") => Ok(Format::Annotations),
        Some("sarif") => Ok(Format::Sarif),
        _ => Err("--format needs one of: text, json, annotations, sarif".into()),
    }
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        root: None,
        format: Format::Text,
    };
    let mut args = std::env::args().skip(1).peekable();
    // Tolerate a leading `lint` so `cargo xtask lint` works.
    if args.peek().is_some_and(|a| a == "lint") {
        args.next();
    }
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                opts.root = Some(PathBuf::from(args.next().ok_or("--root needs a path")?));
            }
            "--format" => opts.format = parse_format(args.next().as_deref())?,
            arg if arg.starts_with("--format=") => {
                opts.format = parse_format(arg.strip_prefix("--format="))?;
            }
            "--help" | "-h" => {
                return Err("usage: ldis-lint [--root <path>] \
                            [--format text|json|annotations|sarif] | \
                            ldis-lint bench-lint [--out <path>] [--root <path>]"
                    .into());
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(opts)
}

/// Parses `bench-lint [--out <path>] [--root <path>]` (after the
/// subcommand name has been consumed).
fn parse_bench_args(
    mut args: impl Iterator<Item = String>,
) -> Result<(Option<PathBuf>, Option<PathBuf>), String> {
    let mut out = None;
    let mut root = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out = Some(PathBuf::from(args.next().ok_or("--out needs a path")?)),
            "--root" => root = Some(PathBuf::from(args.next().ok_or("--root needs a path")?)),
            other => return Err(format!("bench-lint: unknown argument `{other}`")),
        }
    }
    Ok((out, root))
}

/// Times the analysis phases over the live workspace and writes a
/// BENCH_sweep.json-shaped report. Phases are timed as independent
/// passes (each from raw sources) so the numbers are comparable across
/// commits even as the phases share more or less work internally.
#[expect(
    clippy::disallowed_methods,
    reason = "bench-lint times the analysis phases on the wall clock"
)]
fn bench_lint(root: &Path, out_path: &Path) -> Result<(), String> {
    let files: Vec<(String, String)> = ldis_lint::collect_files(root)
        .map_err(|e| format!("listing {}: {e}", root.display()))?
        .into_iter()
        .filter(|rel| rel.ends_with(".rs"))
        .map(|rel| {
            std::fs::read_to_string(root.join(&rel))
                .map(|src| (rel.clone(), src))
                .map_err(|e| format!("reading {rel}: {e}"))
        })
        .collect::<Result<_, _>>()?;
    let lines: usize = files.iter().map(|(_, s)| s.lines().count()).sum();

    let t = Instant::now();
    let mut parsed_files = Vec::new();
    for (_, src) in &files {
        let lexed = ldis_lint::lexer::lex(src);
        let bodies: Vec<_> = {
            let parsed = ldis_lint::parser::parse(&lexed.tokens);
            parsed.fns.iter().map(|f| f.body.clone()).collect()
        };
        parsed_files.push((lexed.tokens, bodies));
    }
    let parse_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let ws = ldis_lint::model::Workspace::build(&files);
    let call_graph_s = t.elapsed().as_secs_f64();
    let fns = ws.fns.len();

    let t = Instant::now();
    let mut nodes = 0usize;
    for (toks, body) in parsed_files
        .iter()
        .flat_map(|(toks, bodies)| bodies.iter().map(move |b| (toks, b)))
    {
        let cfg = ldis_lint::cfg::Cfg::build(toks, body.clone());
        let gk = ldis_lint::dataflow::GenKill {
            must: true,
            boundary: Default::default(),
            gen: vec![Default::default(); cfg.nodes.len()],
            kill: vec![Default::default(); cfg.nodes.len()],
        };
        let sol = ldis_lint::dataflow::solve_forward(&cfg, &gk);
        nodes += sol.input.len();
    }
    let cfg_dataflow_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut findings = 0usize;
    for (rel, src) in &files {
        findings += ldis_lint::scan_file(rel, src).len();
    }
    findings += ldis_lint::analyze::scan_model(&files).len();
    let rules_s = t.elapsed().as_secs_f64();

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"lint\",");
    let _ = writeln!(json, "  \"workload\": {{");
    let _ = writeln!(json, "    \"files\": {},", files.len());
    let _ = writeln!(json, "    \"lines\": {lines},");
    let _ = writeln!(json, "    \"fns\": {fns},");
    let _ = writeln!(json, "    \"cfg_nodes\": {nodes},");
    let _ = writeln!(json, "    \"findings\": {findings}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"results\": [");
    let phases = [
        ("parse", parse_s),
        ("call_graph", call_graph_s),
        ("cfg_dataflow", cfg_dataflow_s),
        ("rules", rules_s),
    ];
    for (i, (phase, secs)) in phases.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"phase\": \"{phase}\", \"wall_s\": {:.3}, \"lines_per_s\": {:.0}}}{}",
            secs,
            if *secs > 0.0 {
                lines as f64 / secs
            } else {
                0.0
            },
            if i + 1 < phases.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"regenerate\": \"cargo run --release --offline -p ldis-lint -- bench-lint --out BENCH_lint.json\""
    );
    let _ = writeln!(json, "}}");
    std::fs::write(out_path, &json).map_err(|e| format!("writing {}: {e}", out_path.display()))?;
    println!(
        "ldis-lint: benched {} files / {lines} lines: parse {:.3}s, call-graph {:.3}s, \
         cfg+dataflow {:.3}s, rules {:.3}s -> {}",
        files.len(),
        parse_s,
        call_graph_s,
        cfg_dataflow_s,
        rules_s,
        out_path.display()
    );
    Ok(())
}

fn main() -> ExitCode {
    {
        let mut args = std::env::args().skip(1).peekable();
        if args.peek().is_some_and(|a| a == "bench-lint") {
            args.next();
            let parsed = parse_bench_args(args).and_then(|(out, root)| {
                let root = root.unwrap_or_else(|| {
                    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
                    ldis_lint::find_root(&cwd)
                });
                let out = out.unwrap_or_else(|| root.join("BENCH_lint.json"));
                bench_lint(&root, &out)
            });
            return match parsed {
                Ok(()) => ExitCode::SUCCESS,
                Err(msg) => {
                    eprintln!("ldis-lint: {msg}");
                    ExitCode::from(2)
                }
            };
        }
    }
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("ldis-lint: {msg}");
            return ExitCode::from(2);
        }
    };
    let root = opts.root.clone().unwrap_or_else(|| {
        let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
        ldis_lint::find_root(&cwd)
    });
    let findings = match ldis_lint::scan_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("ldis-lint: scanning {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    match opts.format {
        Format::Json => print!("{}", render_json(&findings)),
        Format::Sarif => print!("{}", render_sarif(&findings)),
        Format::Annotations => {
            for f in &findings {
                print!("{}", render_annotation(f));
            }
        }
        Format::Text => {
            for f in &findings {
                print!("{}", render(f));
            }
            println!("ldis-lint: {} error(s)", findings.len());
        }
    }
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
