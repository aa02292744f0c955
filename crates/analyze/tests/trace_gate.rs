//! `bwfirst-analyze trace` is a thin wrapper over the one trace reader: it
//! must accept what the executors record and reject what `Trace::parse`
//! rejects, naming the bad line.

use std::process::Command;

fn analyze_trace(rel: &str) -> (bool, String) {
    let path = format!("{}/../{rel}", env!("CARGO_MANIFEST_DIR"));
    let out = Command::new(env!("CARGO_BIN_EXE_bwfirst-analyze"))
        .args(["trace", &path])
        .output()
        .expect("run bwfirst-analyze");
    (out.status.success(), String::from_utf8_lossy(&out.stdout).into_owned())
}

#[test]
fn recorded_traces_are_schema_clean() {
    let (ok, out) = analyze_trace("sim/testdata/fig2_clocked_trace.jsonl");
    assert!(ok, "{out}");
    assert_eq!(out, "trace: 275 record(s), 40 injected task(s), 11 stock, schema clean\n");
}

#[test]
fn the_malformed_fixture_fails_with_its_line() {
    let (ok, out) = analyze_trace("obs/testdata/trace_bad_node.jsonl");
    assert!(!ok, "{out}");
    assert!(out.starts_with("trace line 5: `node` is not a node id"), "{out}");
    assert!(out.ends_with("trace: 1 error(s)\n"), "{out}");
}
