//! A TCP session costs a fixed number of threads, whatever the tree's size:
//! one localhost link (four pump threads) carries every edge's messages.
//!
//! The test counts the process's threads, so it is the only test in this
//! binary: the harness runs tests of one binary on parallel threads.

#![cfg(target_os = "linux")]

use bwfirst_platform::generators::kary_tree;
use bwfirst_platform::Weight;
use bwfirst_proto::ProtocolSession;
use bwfirst_rational::rat;

/// The `Threads:` line of `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a Threads: line")
}

#[test]
fn spawn_tcp_starts_one_link_per_session() {
    let p = kary_tree(5, 2, Weight::Time(rat(3, 1)), rat(1, 1));
    assert_eq!(p.len(), 63);
    let before = threads();
    let mut session = ProtocolSession::spawn_tcp(&p).expect("localhost sockets");
    let started = threads().saturating_sub(before);
    assert!(started <= 4, "spawn_tcp on {} nodes started {started} threads", p.len());
    let out = session.negotiate().expect("negotiation over TCP");
    let memory = ProtocolSession::spawn(&p).unwrap().negotiate().unwrap();
    assert_eq!(out.solution, memory.solution);
}
