//! Taming period explosion with rate quantization.
//!
//! On platforms with unlucky rational rates, the exact event-driven
//! schedule's per-node periods (`T^ω`) and bunch sizes (`Ψ`) inherit an lcm
//! blow-up — Section 6's "embarrassingly long" period problem moved into the
//! per-node quantities. `core::quantize` rounds all rates down onto a `1/G`
//! grid: feasibility is preserved by construction, the throughput loss is
//! provably below `active_nodes/G`, and every period collapses to at most
//! `G`. This example quantizes an exploding platform and *runs* both
//! schedules in the simulator to show the quantized one delivers its
//! predicted (slightly lower) rate with a far smaller description.
//!
//! ```text
//! cargo run --release --example compact_schedules
//! ```

use bwfirst::core::quantize::{loss_bound, quantize};
use bwfirst::core::schedule::{synchronous_period, EventDrivenSchedule, TreeSchedule};
use bwfirst::core::{bw_first, startup, SteadyState};
use bwfirst::platform::generators::{random_tree, RandomTreeConfig};
use bwfirst::rat;
use bwfirst::sim::{event_driven, SimConfig};
use bwfirst::Rat;

fn describe(label: &str, p: &bwfirst::platform::Platform, ss: &SteadyState) {
    let ts = TreeSchedule::build(p, ss).unwrap();
    let max_omega = ts.iter().map(|s| s.t_omega).max().unwrap_or(1);
    let max_bunch = ts.iter().map(|s| s.bunch).max().unwrap_or(0);
    println!(
        "{label:<12} rate {:>9.6}  sync T {:>12}  max T^w {:>12}  max bunch {:>12}",
        ss.throughput.to_f64(),
        synchronous_period(ss).unwrap(),
        max_omega,
        max_bunch
    );
}

fn main() {
    // Integer-ish weights with slow CPUs: flow fans out widely and the
    // resulting rate denominators produce a large lcm.
    let p = random_tree(&RandomTreeConfig {
        size: 63,
        seed: 1,
        weight_num: (6, 20),
        weight_den: (1, 1),
        link_num: (1, 2),
        link_den: (1, 1),
        ..Default::default()
    });

    let exact = SteadyState::from_solution(&bw_first(&p));
    println!("63-node platform, exact vs quantized schedules:\n");
    describe("exact", &p, &exact);

    let grid = 2520; // lcm(1..=10): a friendly wheel of denominators
    let q = quantize(&p, &exact, grid);
    q.verify(&p).expect("quantized schedule is feasible by construction");
    describe("grid 1/2520", &p, &q);
    println!(
        "\nloss: {:.4}% (a-priori bound {:.4}%)",
        100.0 * ((exact.throughput - q.throughput) / exact.throughput).to_f64(),
        100.0 * (loss_bound(&p, &exact, grid) / exact.throughput).to_f64()
    );

    // Run the quantized schedule for a few periods: it must deliver its own
    // predicted rate exactly.
    let ev = EventDrivenSchedule::standard(&p, &q).unwrap();
    let settle = Rat::from_int(startup::tree_startup_bound(&p, &ev.tree)) + rat(2520, 1);
    let horizon = settle + rat(2520, 1) * rat(2, 1);
    let cfg = SimConfig {
        horizon,
        stop_injection_at: None,
        total_tasks: None,
        record_gantt: false,
        exact_queue: false,
        seed: 0,
    };
    let rep = event_driven::simulate(&p, &ev, &cfg).expect("simulate");
    let measured = rep.throughput_in(settle, settle + rat(2520, 1));
    println!("\nsimulated quantized schedule over one grid period:");
    println!("  predicted {:.6}", q.throughput.to_f64());
    println!("  measured  {:.6}  (exactly equal: {})", measured.to_f64(), measured == q.throughput);
    println!("  peak buffered tasks: {}", rep.peak_buffer());
}
