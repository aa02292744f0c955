//! `bwfirst-analyze` — protocol model checking and artifact schema checks.
//!
//! ```text
//! bwfirst-analyze [model|snapshots <path>|trace <path>] [flags]
//!
//!   model            exhaustively model-check the negotiation protocol (default)
//!   snapshots <path> schema-check a monitor snapshot stream (`sim::Snapshot::parse_jsonl`)
//!   trace <path>     schema-check a provenance trace (`obs::causal::Trace::parse`)
//!
//!   --max-nodes N    model-check all trees up to N nodes (default: 7)
//!   --postmortem P   write the first model counterexample to P as a
//!                    `bwfirst-postmortem/1` artifact
//!   --json           machine-readable output on stdout
//! ```
//!
//! The source invariants (exact arithmetic, typed errors, exhaustive message
//! matches) are clippy lints denied in the crates and modules they guard;
//! see `docs/ANALYSIS.md`.
//!
//! The model checker runs on as many threads as the host offers
//! (`std::thread::available_parallelism()`); `--json` reports that width as
//! `threads`.
//!
//! Exit code 0 when clean, 1 on any property violation or schema error, 2 on
//! usage errors.

use bwfirst_analyze::model;
use bwfirst_obs::causal::{Trace, STOCK_BASE};
use bwfirst_obs::json::{obj, Value};
use bwfirst_sim::Snapshot;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

enum Command {
    Model,
    Snapshots(PathBuf),
    Trace(PathBuf),
}

struct Options {
    command: Command,
    max_nodes: usize,
    postmortem: Option<PathBuf>,
    json: bool,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options { command: Command::Model, postmortem: None, max_nodes: 7, json: false };
    let mut it = args.iter();
    let mut saw_command = false;
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => opts.json = true,
            "--max-nodes" => {
                let v = it.next().ok_or("--max-nodes needs a value")?;
                opts.max_nodes = v.parse().map_err(|_| format!("bad --max-nodes `{v}`"))?;
            }
            "--postmortem" => {
                opts.postmortem =
                    Some(PathBuf::from(it.next().ok_or("--postmortem needs a value")?));
            }
            "model" if !saw_command => saw_command = true,
            "snapshots" | "trace" if !saw_command => {
                let path = PathBuf::from(it.next().ok_or(format!("{a} needs a path"))?);
                opts.command =
                    if a == "trace" { Command::Trace(path) } else { Command::Snapshots(path) };
                saw_command = true;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("bwfirst-analyze: {e}");
            eprintln!(
                "usage: bwfirst-analyze [model|snapshots <path>|trace <path>] \
                       [--max-nodes N] [--postmortem P] [--json]"
            );
            return ExitCode::from(2);
        }
    };

    let dirty = match &opts.command {
        Command::Model => Ok(run_model(&opts)),
        Command::Snapshots(path) => run_snapshots(path, opts.json).map(|clean| !clean),
        Command::Trace(path) => run_trace(path, opts.json).map(|clean| !clean),
    };
    match dirty {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::from(1),
        Err(e) => {
            eprintln!("bwfirst-analyze: {e}");
            ExitCode::from(2)
        }
    }
}

/// A schema check's outcome: named counts and a summary line when clean,
/// else `(line, message, rendered)` per error.
type Outcome = Result<(Vec<(&'static str, usize)>, String), Vec<(usize, String, String)>>;

/// Schema-checks a monitor snapshot stream by parsing it: the schema is
/// [`Snapshot::parse_jsonl`]. `Ok(true)` when clean; `Err` means the file
/// itself was unreadable (usage error, exit 2).
fn run_snapshots(path: &Path, json: bool) -> Result<bool, String> {
    let outcome = Snapshot::parse_jsonl(&read(path)?)
        .map(|s| (vec![("snapshots", s.len())], format!("{} snapshot(s)", s.len())))
        .map_err(|errors| {
            errors.iter().map(|e| (e.line, e.message.clone(), e.to_string())).collect()
        });
    Ok(report("snapshots", outcome, json))
}

/// Schema-checks a provenance trace artifact by parsing it:
/// the schema is [`Trace::parse`], the reader every trace consumer uses.
/// `Ok(true)` when clean; `Err` means the file was unreadable (exit 2).
fn run_trace(path: &Path, json: bool) -> Result<bool, String> {
    let outcome = Trace::parse(&read(path)?)
        .map(|trace| {
            let ids = trace.task_ids();
            let stock = ids.iter().filter(|t| **t >= STOCK_BASE).count();
            let (records, injected) = (trace.records.len(), ids.len() - stock);
            let summary =
                format!("{records} record(s), {injected} injected task(s), {stock} stock");
            (vec![("records", records), ("injected", injected), ("stock", stock)], summary)
        })
        .map_err(|e| vec![(e.line, e.message.clone(), e.to_string())]);
    Ok(report("trace", outcome, json))
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// Prints an [`Outcome`] as one JSON object, or as text under `verb`;
/// returns whether the input was clean.
fn report(verb: &str, outcome: Outcome, json: bool) -> bool {
    let clean = outcome.is_ok();
    match (outcome, json) {
        (Ok((counts, _)), true) => {
            let mut members: Vec<_> =
                counts.into_iter().map(|(key, n)| (key, Value::Int(n as i128))).collect();
            members.push(("errors", Value::Array(Vec::new())));
            println!("{}", obj(members).to_string_compact());
        }
        (Ok((_, summary)), false) => println!("{verb}: {summary}, schema clean"),
        (Err(errors), true) => {
            let arr = errors
                .into_iter()
                .map(|(line, message, _)| {
                    obj(vec![("line", Value::Int(line as i128)), ("message", Value::Str(message))])
                })
                .collect();
            println!("{}", obj(vec![("errors", Value::Array(arr))]).to_string_compact());
        }
        (Err(errors), false) => {
            for (_, _, rendered) in &errors {
                println!("{rendered}");
            }
            println!("{verb}: {} error(s)", errors.len());
        }
    }
    clean
}

/// Runs the model checker; returns true when violations were found.
fn run_model(opts: &Options) -> bool {
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let start = std::time::Instant::now();
    let report = model::check(opts.max_nodes, 8, threads);
    let elapsed = start.elapsed();
    if let Some(path) = &opts.postmortem {
        if let Some(v) = report.violations.first() {
            let dump = v.to_postmortem().to_string_pretty();
            match std::fs::write(path, dump + "\n") {
                Ok(()) => {
                    eprintln!("model: counterexample post-mortem written to {}", path.display())
                }
                Err(e) => eprintln!("bwfirst-analyze: cannot write {}: {e}", path.display()),
            }
        }
    }
    if opts.json {
        let violations = Value::Array(
            report
                .violations
                .iter()
                .map(|v| {
                    obj(vec![
                        ("message", Value::from(v.message.as_str())),
                        ("instance", Value::from(v.instance.as_str())),
                        (
                            "trace",
                            Value::Array(v.trace.iter().map(|s| Value::from(s.as_str())).collect()),
                        ),
                    ])
                })
                .collect(),
        );
        let summary = obj(vec![
            ("max_nodes", Value::Int(opts.max_nodes as i128)),
            ("instances", Value::Int(report.instances as i128)),
            ("messages", Value::Int(i128::from(report.messages))),
            ("threads", Value::Int(threads as i128)),
            ("millis", Value::Int(i128::from(elapsed.as_millis() as u64))),
            ("violations", violations),
        ]);
        println!("{}", summary.to_string_compact());
    } else {
        for v in &report.violations {
            println!("{v}");
        }
        println!(
            "model: {} instances (trees up to {} nodes), {} messages, {} violation(s) in {:?}",
            report.instances,
            opts.max_nodes,
            report.messages,
            report.violations.len(),
            elapsed
        );
    }
    !report.violations.is_empty()
}
