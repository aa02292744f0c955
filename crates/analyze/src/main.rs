//! `bwfirst-analyze` — workspace lint + protocol model checking.
//!
//! ```text
//! bwfirst-analyze [lint|model|all|fixture <path>|snapshots <path>|trace <path>] [flags]
//!
//!   lint             run the source invariant rules (R1–R4) over crates/
//!   model            exhaustively model-check the negotiation protocol
//!   all              both layers (default)
//!   fixture <path>   lint one file with every rule, ignoring path scopes
//!   snapshots <path> schema-check a monitor snapshot stream (`sim::Snapshot::parse_jsonl`)
//!   trace <path>     schema-check a provenance trace (`obs::causal::Trace::parse`)
//!
//!   --root DIR       workspace root to lint (default: .)
//!   --max-nodes N    model-check all trees up to N nodes (default: 7)
//!   --threads N      worker threads for the model checker
//!                    (default: available parallelism)
//!   --postmortem P   write the first model counterexample to P as a
//!                    `bwfirst-postmortem/1` artifact
//!   --json           machine-readable findings on stdout
//!   --deny-all       CI mode: also reject unknown rule names in
//!                    `lint: allow(...)` markers
//! ```
//!
//! Exit code 0 when clean, 1 on any finding or property violation, 2 on
//! usage errors.

use bwfirst_analyze::{lexer, model, rules};
use bwfirst_obs::causal::{Trace, STOCK_BASE};
use bwfirst_obs::json::{obj, Value};
use bwfirst_sim::Snapshot;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Options {
    command: String,
    /// Path operand of the `fixture` / `snapshots` commands.
    path: Option<PathBuf>,
    root: PathBuf,
    max_nodes: usize,
    threads: usize,
    postmortem: Option<PathBuf>,
    json: bool,
    deny_all: bool,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        command: "all".to_string(),
        path: None,
        postmortem: None,
        root: PathBuf::from("."),
        max_nodes: 7,
        threads: bwfirst_parallel::available_threads(),
        json: false,
        deny_all: false,
    };
    let mut it = args.iter().peekable();
    let mut saw_command = false;
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => opts.json = true,
            "--deny-all" => opts.deny_all = true,
            "--root" => {
                opts.root = PathBuf::from(it.next().ok_or("--root needs a value")?);
            }
            "--max-nodes" => {
                let v = it.next().ok_or("--max-nodes needs a value")?;
                opts.max_nodes = v.parse().map_err(|_| format!("bad --max-nodes `{v}`"))?;
            }
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                opts.threads = v.parse().map_err(|_| format!("bad --threads `{v}`"))?;
            }
            "--postmortem" => {
                opts.postmortem =
                    Some(PathBuf::from(it.next().ok_or("--postmortem needs a value")?));
            }
            "lint" | "model" | "all" if !saw_command => {
                opts.command = a.clone();
                saw_command = true;
            }
            "fixture" | "snapshots" | "trace" if !saw_command => {
                opts.command = a.clone();
                opts.path = Some(PathBuf::from(it.next().ok_or(format!("{a} needs a path"))?));
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
                "usage: bwfirst-analyze [lint|model|all|fixture <path>|snapshots <path>|\
                       trace <path>] [--root DIR] [--max-nodes N] [--threads N] \
                       [--postmortem P] [--json] [--deny-all]"
            );
            return ExitCode::from(2);
        }
    };

    let mut dirty = false;
    match opts.command.as_str() {
        "lint" => dirty |= run_lint(&opts),
        "model" => dirty |= run_model(&opts),
        "all" => {
            dirty |= run_lint(&opts);
            dirty |= run_model(&opts);
        }
        "snapshots" => {
            let path = opts.path.as_deref().expect("snapshots path parsed");
            match run_snapshots(path, opts.json) {
                Ok(clean) => dirty |= !clean,
                Err(e) => {
                    eprintln!("bwfirst-analyze: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        "trace" => {
            let path = opts.path.as_deref().expect("trace path parsed");
            match run_trace(path, opts.json) {
                Ok(clean) => dirty |= !clean,
                Err(e) => {
                    eprintln!("bwfirst-analyze: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        "fixture" => {
            let path = opts.path.as_deref().expect("fixture path parsed");
            match rules::lint_file_unscoped(path) {
                Ok(findings) => {
                    emit_findings(&findings, opts.json);
                    dirty |= !findings.is_empty();
                }
                Err(e) => {
                    eprintln!("bwfirst-analyze: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        _ => unreachable!("parse() only yields known commands"),
    }

    if dirty {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// Runs the linter; returns true when findings were reported.
fn run_lint(opts: &Options) -> bool {
    let mut findings = match rules::lint_workspace(&opts.root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("bwfirst-analyze: {e}");
            return true;
        }
    };
    if opts.deny_all {
        findings.extend(unknown_allow_markers(&opts.root));
        findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    }
    emit_findings(&findings, opts.json);
    if !opts.json {
        if findings.is_empty() {
            println!("lint: clean ({} rules over crates/)", rules::ALL_RULES.len());
        } else {
            println!("lint: {} finding(s)", findings.len());
        }
    }
    !findings.is_empty()
}

/// `--deny-all` extra: an allow marker naming a rule that does not exist is
/// itself a finding (it silently suppresses nothing — usually a typo).
fn unknown_allow_markers(root: &Path) -> Vec<rules::Finding> {
    let mut out = Vec::new();
    let mut files = Vec::new();
    collect(root.join("crates"), &mut files);
    for path in files {
        let Ok(src) = std::fs::read_to_string(&path) else { continue };
        let rel = path.strip_prefix(root).unwrap_or(&path).display().to_string();
        for (line, rule) in lexer::scan(&src).allows {
            if !rules::ALL_RULES.contains(&rule.as_str()) {
                out.push(rules::Finding {
                    rule: "unknown-allow",
                    file: rel.clone(),
                    line,
                    message: format!("allow marker names unknown rule `{rule}`"),
                });
            }
        }
    }
    out
}

fn collect(dir: PathBuf, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(&dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name != "target" && name != "fixtures" {
                collect(path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

fn emit_findings(findings: &[rules::Finding], json: bool) {
    if json {
        let arr = Value::Array(findings.iter().map(rules::Finding::to_json).collect());
        println!("{}", obj(vec![("findings", arr)]).to_string_compact());
    } else {
        for f in findings {
            println!("{f}");
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
    let start = std::time::Instant::now();
    let report = model::check(opts.max_nodes, 8, opts.threads);
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
            ("threads", Value::Int(opts.threads as i128)),
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
