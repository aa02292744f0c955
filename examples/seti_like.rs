//! A SETI@home-style campaign: a master distributing a huge bag of equal
//! work units over a heterogeneous volunteer tree.
//!
//! Builds a 100-node random platform, computes the optimal bandwidth-centric
//! schedule, then simulates a finite campaign of 2,000 work units and
//! reports throughput, start-up quality, buffering, and wind-down — the
//! full Section 7/8 pipeline on a realistic scale.
//!
//! ```text
//! cargo run --release --example seti_like
//! ```

use bwfirst::core::schedule::{synchronous_period, EventDrivenSchedule};
use bwfirst::core::{bw_first, startup, SteadyState};
use bwfirst::platform::generators::{random_tree, RandomTreeConfig};
use bwfirst::rat;
use bwfirst::sim::{event_driven, SimConfig};
use bwfirst::Rat;

fn main() {
    let platform = random_tree(&RandomTreeConfig {
        size: 100,
        max_children: 5,
        weight_num: (8, 24), // volunteers need 8-24 units per work unit
        weight_den: (1, 1),
        link_num: (1, 2), // links deliver a unit in 1 or 2 time units
        link_den: (1, 1),
        switch_pct: 8, // some relays have no spare CPU
        seed: 2005,
    });

    let solution = bw_first(&platform);
    let ss = SteadyState::from_solution(&solution);
    ss.verify(&platform).expect("feasible");
    println!(
        "volunteers: {} nodes, optimal rate {} work units/time unit",
        platform.len(),
        ss.throughput
    );
    println!(
        "BW-First visited {} nodes ({} pruned as unreachable-by-bandwidth)",
        solution.visit_count(),
        platform.len() - solution.visit_count()
    );

    let schedule = EventDrivenSchedule::standard(&platform, &ss).unwrap();
    let bound = startup::tree_startup_bound(&platform, &schedule.tree);
    println!("Proposition 4 start-up bound: {bound} time units");

    // A campaign of 2,000 work units, then drain.
    let total: u64 = 2_000;
    let est_makespan = Rat::from(total as usize) / ss.throughput * rat(3, 2);
    let cfg = SimConfig {
        horizon: est_makespan,
        stop_injection_at: None,
        total_tasks: Some(total),
        record_gantt: false,
        exact_queue: false,
        seed: 0,
    };
    let report = event_driven::simulate(&platform, &schedule, &cfg).expect("simulate");
    assert_eq!(report.total_computed(), total, "every work unit computed");

    let makespan = report.last_completion().expect("work done");
    let window = Rat::from_int(synchronous_period(&ss).unwrap());
    println!("\ncampaign of {total} work units:");
    println!("  makespan            : {:.2} time units", makespan.to_f64());
    println!("  ideal (rate-limited): {:.2}", (Rat::from(total as usize) / ss.throughput).to_f64());
    println!(
        "  efficiency          : {:.1}%",
        100.0 * (Rat::from(total as usize) / ss.throughput / makespan).to_f64()
    );
    if let Some(entry) =
        report.steady_state_entry(ss.throughput, window, report.injection_stopped_at.unwrap())
    {
        println!("  steady state from   : {:.2} (bound {bound})", entry.to_f64());
    }
    println!("  wind-down           : {:.2} time units", report.wind_down().unwrap().to_f64());
    println!("  peak node buffer    : {} work units", report.peak_buffer());

    // Who did the work? Top five volunteers.
    let mut per_node: Vec<(usize, u64)> = report.computed.iter().copied().enumerate().collect();
    per_node.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    println!("\n  top volunteers:");
    for (i, n) in per_node.into_iter().take(5) {
        println!("    P{i}: {n} work units");
    }
}
