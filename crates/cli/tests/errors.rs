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
