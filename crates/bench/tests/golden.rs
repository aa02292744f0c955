//! Golden-output tests: the deterministic figure experiments (E2–E4) are
//! exact-rational computations on a fixed tree, so their reports must be
//! byte-identical across runs, platforms, and refactors. A diff here means
//! the reproduction of Figure 4 changed — which should never happen
//! silently. The solver experiments E1 (Proposition 1 on random forks), E6
//! (visits and messages under root-link bottlenecks) and E10 (lazy bounds on
//! infinite trees) are exact and seeded, so they are pinned the same way.

use bwfirst_bench::experiments;

fn check(id: &str, golden: &str) {
    let actual = experiments::run(id).expect("known experiment");
    let actual = actual.trim_end();
    let golden = golden.trim_end();
    assert_eq!(
        actual, golden,
        "\n=== experiment {id} diverged from its golden output ===\n\
         If the change is intentional, regenerate with\n\
         `cargo run -p bwfirst-bench --bin paper_experiments -- {id}`\n\
         and update crates/bench/tests/golden/{id}.txt"
    );
}

#[test]
fn e1_fork_equivalence_is_stable() {
    check("e1", include_str!("golden/e1.txt"));
}

#[test]
fn e2_transaction_trace_is_stable() {
    check("e2", include_str!("golden/e2.txt"));
}

#[test]
fn e3_rate_table_is_stable() {
    check("e3", include_str!("golden/e3.txt"));
}

#[test]
fn e4_local_schedules_are_stable() {
    check("e4", include_str!("golden/e4.txt"));
}

#[test]
fn e6_visit_counts_are_stable() {
    check("e6", include_str!("golden/e6.txt"));
}

#[test]
fn e10_infinite_tree_bounds_are_stable() {
    check("e10", include_str!("golden/e10.txt"));
}
