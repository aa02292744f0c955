//! Totality over a corpus: every command ends in a result or in exactly one
//! `error:` line on stderr, never in a panic (exit 101), an abort (134), a
//! kill (137) or a hang. Each run gets 4 GB of address space and 10 s.
//!
//! The runs that fail today are listed in [`EXPECTED`]. The list is strict:
//! a listed run that passes fails the test too, so a fix deletes its entries.
//!
//! `cargo test --release -p bwfirst-cli --test totality -- --ignored`

use std::os::unix::process::ExitStatusExt;
use std::process::{Command, Stdio};

/// Every command but `dot`, which never solves.
const SOLVING: &str = "solve schedule validate stats simulate/event simulate/clocked \
    simulate/demand simulate/demand-int monitor/event monitor/clocked monitor/demand \
    monitor/demand-int trace-record/event trace-record/clocked trace-record/demand \
    trace-record/demand-int";

/// The runs that fail today, as (exit class, inputs, commands): each input
/// of a row fails each of its commands that way, for the cause above it.
const EXPECTED: &[(&str, &str, &str)] = &[
    // The exact `bw_first` overflows `i128` (`Rat - Rat` in `rat.rs`).
    (
        "panic",
        "hetero-40-2 hetero-40-3 hetero-100-1 hetero-100-2 hetero-100-3 hetero-1000-1 \
        hetero-1000-2 hetero-1000-3 hetero-10000-1 hetero-10000-2 hetero-10000-3",
        SOLVING,
    ),
    // `t_max = r_root + b` overflows `i128` (`Rat + Rat` in `rat.rs`).
    ("panic", "huge-w", SOLVING),
    // The clocked prefill hands its χ stock to the provenance probe one task
    // at a time: a 5 GB allocation fails.
    ("abort", "hetero-8-1 hetero-8-3 hetero-20-3", "trace-record/clocked"),
];

/// The hand-written inputs: a switch root, a near-zero link time and
/// weights near `i128::MAX`.
const HAND_WRITTEN: [(&str, &str); 3] = [
    ("switch-root", r#"{"id": 0, "w": null}, {"id": 1, "parent": 0, "w": "3", "c": "1"}"#),
    ("tiny-c", r#"{"id": 0, "w": "2"}, {"id": 1, "parent": 0, "w": "3", "c": "1/1000000"}"#),
    (
        "huge-w",
        r#"{"id": 0, "w": "170141183460469231731687303715884105727"},
        {"id": 1, "parent": 0, "w": "170141183460469231731687303715884105719", "c": "1"}"#,
    ),
];

/// Runs `bwfirst` under the limits; `None` if it passes, else its exit
/// class and the first line of its stderr.
fn run(args: &[&str]) -> Option<(&'static str, String)> {
    let out = Command::new("sh")
        .args(["-c", r#"ulimit -v 4000000; exec timeout 10 "$0" "$@""#])
        .arg(env!("CARGO_BIN_EXE_bwfirst"))
        .args(args)
        .stdout(Stdio::null())
        .output()
        .expect("run sh");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let class = match (out.status.code(), out.status.signal()) {
        (Some(0), _) => return None,
        (Some(101), _) => "panic",
        (Some(134), _) | (_, Some(6)) => "abort",
        (Some(137), _) | (_, Some(9)) => "killed",
        (Some(124), _) => "timeout",
        _ if stderr.lines().count() == 1 && stderr.starts_with("error:") => return None,
        _ => "unclean",
    };
    Some((class, stderr.lines().find(|l| !l.is_empty()).unwrap_or_default().to_owned()))
}

#[test]
#[ignore = "release corpus; run by CI"]
fn every_command_on_every_input_ends_cleanly() {
    let dir = std::env::temp_dir().join(format!("bwfirst-totality-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut inputs: Vec<(String, Vec<u8>)> = (HAND_WRITTEN.iter())
        .map(|(name, nodes)| (name.to_string(), format!(r#"{{"nodes": [{nodes}]}}"#).into()))
        .collect();
    let mut generate = |name: String, args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_bwfirst")).arg("generate").args(args).output();
        inputs.push((name, out.expect("generate").stdout));
    };
    for n in ["8", "20", "40", "100", "1000", "10000"] {
        for seed in ["1", "2", "3"] {
            generate(format!("hetero-{n}-{seed}"), &["hetero", "--size", n, "--seed", seed]);
        }
    }
    for (family, n) in
        [("wide", "2000"), ("wide", "30000"), ("chain", "100000"), ("star", "100000")]
    {
        generate(format!("{family}-{n}"), &[family, "--size", n, "--seed", "1"]);
    }
    generate("kary-2-16".into(), &["kary", "--arity", "2", "--depth", "16"]);

    let expected: Vec<(&str, &str, &str)> = (EXPECTED.iter())
        .flat_map(|&(class, ins, cmds)| {
            let cmds = cmds.split_whitespace();
            ins.split_whitespace().flat_map(move |i| cmds.clone().map(move |c| (i, c, class)))
        })
        .collect();
    let trace = dir.join("trace.jsonl").display().to_string();
    let mut surprises = Vec::new();
    for (input, json) in &inputs {
        let path = dir.join(input).display().to_string();
        std::fs::write(&path, json).expect("write input");
        for command in std::iter::once("dot").chain(SOLVING.split_whitespace()) {
            let failed = run(&match command.split_once('/') {
                Some(("trace-record", p)) => {
                    vec!["trace", "record", &path, "--out", &trace, "--protocol", p]
                }
                Some((verb, p)) => vec![verb, &path, "--protocol", p],
                None => vec![command, &path],
            });
            let listed = expected.iter().find(|&&(i, c, _)| i == input && c == command);
            let surprise = match (failed, listed) {
                (Some((class, _)), Some(&(_, _, want))) if class == want => continue,
                (Some((class, stderr)), _) => format!("{class} ({stderr})"),
                (None, Some(_)) => "passes; delete its entry".to_owned(),
                (None, None) => continue,
            };
            surprises.push(format!("{input} {command}: {surprise}"));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(surprises.is_empty(), "{} surprise(s):\n{}", surprises.len(), surprises.join("\n"));
}
