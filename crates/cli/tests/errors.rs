//! How the `bwfirst` binary reports failures: a mistaken command line gets
//! the usage text, a run-time failure of a well-formed command gets one
//! `error:` line alone. Parse errors exit 2, dispatch errors exit 1.

use std::process::{Command, Stdio};

/// Runs the binary; returns (exit code, stderr).
fn bwfirst(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_bwfirst")).args(args).output().expect("run bwfirst");
    (out.status.code().expect("exit code"), String::from_utf8_lossy(&out.stderr).into_owned())
}

fn has_usage(stderr: &str) -> bool {
    stderr.contains("\nusage:\n")
}

#[test]
fn usage_errors_print_usage() {
    for (args, code) in [
        (&[][..], 2),
        (&["solve", "--grid"][..], 2),
        (&["solv"][..], 1),
        (&["solve"][..], 1),
        (&["generate", "random", "--size", "many"][..], 1),
        // Unknown flags are refused before the platform file is read.
        (&["solve", "no-such-platform.json", "--bogus", "3"][..], 1),
        (&["dot", "no-such-platform.json", "--horizon", "5"][..], 1),
        (&["simulate", "no-such-platform.json", "--grid", "10000"][..], 1),
        (&["trace", "diff", "a.jsonl", "b.jsonl", "--task", "0"][..], 1),
        (&["stats", "no-such-platform.json", "--threads", "2"][..], 1),
        (&["trace", "record", "no-such-platform.json", "--out", "t.jsonl", "--seed", "3"][..], 1),
    ] {
        let (got, stderr) = bwfirst(args);
        assert_eq!(got, code, "{args:?}: {stderr}");
        assert!(has_usage(&stderr), "{args:?}: {stderr}");
    }
}

#[test]
fn runtime_errors_print_one_line() {
    let (code, stderr) = bwfirst(&["solve", "no-such-platform.json"]);
    assert_eq!(code, 1, "{stderr}");
    assert!(!has_usage(&stderr), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.starts_with("error: platform error: "), "{stderr}");
}

#[test]
fn a_closed_stdout_is_not_a_panic() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_bwfirst"))
        .args(["generate", "kary", "--arity", "2", "--depth", "12"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run bwfirst");
    // Close the read end before anything is read: every write hits EPIPE.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for bwfirst");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// Writes `text` to a fresh file in the temp dir; returns its path.
fn temp_file(name: &str, text: &str) -> String {
    let path = std::env::temp_dir().join(format!("bwfirst-errors-{}-{name}", std::process::id()));
    std::fs::write(&path, text).expect("write temp file");
    path.display().to_string()
}

/// Asserts a clean run-time failure: exit 1 and exactly one `error:` line
/// starting with `prefix`.
fn assert_one_error_line(args: &[&str], prefix: &str) {
    let (code, stderr) = bwfirst(args);
    assert_eq!(code, 1, "{args:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    assert!(stderr.starts_with(prefix), "{args:?}: {stderr}");
}

#[test]
fn engine_time_past_i128_ticks_is_one_error_line() {
    // One unit link saturates the root's port; the pruned children sit
    // behind links 10 + 1/p for the primes up to 103, whose lcm of
    // denominators leaves i128.
    let mut nodes = vec![
        r#"{"id": 0, "w": "1"}"#.to_string(),
        r#"{"id": 1, "parent": 0, "w": "1", "c": "1"}"#.to_string(),
    ];
    for p in (2..=103i128).filter(|&p| (2..p).all(|q| p % q != 0)) {
        let id = nodes.len();
        nodes.push(format!(r#"{{"id": {id}, "parent": 0, "w": "1", "c": "{}/{p}"}}"#, 10 * p + 1));
    }
    let path = temp_file("coprime.json", &format!(r#"{{"nodes": [{}]}}"#, nodes.join(", ")));
    for protocol in ["event", "clocked", "demand", "demand-int"] {
        assert_one_error_line(
            &["simulate", &path, "--protocol", protocol, "--horizon", "100"],
            "error: runtime error: engine time does not fit i128 ticks",
        );
    }
    let _ = std::fs::remove_file(path);
}

#[test]
fn a_prefill_stock_past_the_task_counters_is_one_error_line() {
    // P1's exact χ on this tree is 723,925,204,196,989,792,579 > u64::MAX.
    let out = Command::new(env!("CARGO_BIN_EXE_bwfirst"))
        .args(["generate", "hetero", "--size", "20", "--seed", "1"])
        .output()
        .expect("generate");
    let path = temp_file("hetero-20-1.json", &String::from_utf8_lossy(&out.stdout));
    assert_one_error_line(
        &["simulate", &path, "--protocol", "clocked"],
        "error: runtime error: P1's prefill stock χ = 723925204196989792579 tasks",
    );
    let _ = std::fs::remove_file(path);
}
