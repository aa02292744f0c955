//! End-to-end integration: predicted rationals, the discrete-event
//! simulator, and the threaded protocol all tell the same story.

use bwfirst::core::schedule::{synchronous_period, EventDrivenSchedule, TreeSchedule};
use bwfirst::core::{bw_first, startup, SteadyState};
use bwfirst::platform::examples::{example_throughput, example_tree};
use bwfirst::platform::generators::{random_tree, RandomTreeConfig};
use bwfirst::platform::Platform;
use bwfirst::proto::ProtocolSession;
use bwfirst::sim::demand_driven::{self, DemandConfig};
use bwfirst::sim::{event_driven, SimConfig};
use bwfirst::{rat, Rat};

fn supply_tree(size: usize, seed: u64) -> Platform {
    random_tree(&RandomTreeConfig {
        size,
        seed,
        weight_num: (6, 20),
        weight_den: (1, 1),
        link_num: (1, 2),
        link_den: (1, 1),
        ..Default::default()
    })
}

/// The full paper pipeline on the reconstructed example tree.
#[test]
fn example_tree_full_pipeline() {
    let p = example_tree();

    // Solve.
    let sol = bw_first(&p);
    assert_eq!(sol.throughput(), example_throughput());

    // Rates → schedule → Proposition 4 bound.
    let ss = SteadyState::from_solution(&sol);
    ss.verify(&p).unwrap();
    let ev = EventDrivenSchedule::standard(&p, &ss).unwrap();
    let bound = startup::tree_startup_bound(&p, &ev.tree);
    assert_eq!(bound, 27);

    // Simulate: the measured steady rate is *exactly* the predicted one.
    let cfg = SimConfig::to_horizon(rat(220, 1));
    let rep = event_driven::simulate(&p, &ev, &cfg).expect("simulate");
    assert_eq!(rep.throughput_in(rat(76, 1), rat(112, 1)), example_throughput());
    assert!(rep.gantt.as_ref().unwrap().find_overlap().is_none());

    // Distributed protocol agrees with the centralized solver.
    let mut session = ProtocolSession::spawn(&p).expect("spawn actor tree");
    let neg = session.negotiate().expect("negotiation completes");
    assert_eq!(neg.solution, sol);

    // And the actual payload routing matches the ψ proportions.
    let flow = session.run_flow(6, 32).expect("flow completes");
    assert_eq!(flow.total_computed(), 60);
    assert_eq!(flow.computed[0], 6);
}

/// Simulated event-driven throughput equals the predicted rational on
/// a family of random supply-heavy platforms.
#[test]
fn simulator_matches_prediction_on_random_trees() {
    for seed in 0..6u64 {
        let p = supply_tree(31, seed);
        let ss = SteadyState::from_solution(&bw_first(&p));
        if !ss.throughput.is_positive() {
            continue;
        }
        let window = Rat::from_int(synchronous_period(&ss).unwrap());
        // Skip degenerate lcm blow-ups (they are exercised elsewhere).
        if window > rat(5_000, 1) {
            continue;
        }
        let ts = TreeSchedule::build(&p, &ss).unwrap();
        let settle = Rat::from_int(startup::tree_startup_bound(&p, &ts)) + window;
        let horizon = settle + window * rat(3, 1);
        let ev = EventDrivenSchedule::standard(&p, &ss).unwrap();
        let cfg = SimConfig {
            horizon,
            stop_injection_at: None,
            total_tasks: None,
            record_gantt: false,
            exact_queue: false,
            seed: 0,
        };
        let rep = event_driven::simulate(&p, &ev, &cfg).expect("simulate");
        let measured = rep.throughput_in(settle, settle + window * rat(2, 1));
        assert_eq!(measured, ss.throughput, "seed {seed}: measured {measured} vs predicted");
    }
}

/// The demand-driven baseline never beats the optimum, and the event-driven
/// schedule attains it.
#[test]
fn demand_driven_bounded_by_optimum() {
    for seed in [11u64, 12, 13, 14] {
        let p = supply_tree(31, seed);
        let ss = SteadyState::from_solution(&bw_first(&p));
        let horizon = rat(600, 1);
        let cfg = SimConfig {
            horizon,
            stop_injection_at: None,
            total_tasks: None,
            record_gantt: false,
            exact_queue: false,
            seed: 0,
        };
        let rep = demand_driven::simulate(&p, DemandConfig::default(), &cfg);
        let measured = rep.throughput_in(horizon / Rat::TWO, horizon);
        // A finite window can beat the steady rate by draining the backlog
        // buffered at its start: at most STOCK_TARGET tasks per node.
        let backlog = Rat::from(p.len() * demand_driven::STOCK_TARGET as usize);
        let slack = backlog / (horizon / Rat::TWO);
        assert!(
            measured <= ss.throughput + slack,
            "seed {seed}: demand-driven {measured} exceeds optimum {}",
            ss.throughput
        );
    }
}

/// Wind-down drains everything: after injection stops, all accepted tasks
/// complete, with no stragglers at the horizon.
#[test]
fn wind_down_drains_completely() {
    let p = example_tree();
    let ss = SteadyState::from_solution(&bw_first(&p));
    let ev = EventDrivenSchedule::standard(&p, &ss).unwrap();
    let cfg = SimConfig {
        horizon: rat(400, 1),
        stop_injection_at: Some(rat(150, 1)),
        total_tasks: None,
        record_gantt: false,
        exact_queue: false,
        seed: 0,
    };
    let rep = event_driven::simulate(&p, &ev, &cfg).expect("simulate");
    assert_eq!(rep.total_computed(), rep.received[0]);
    // Everything finished well before the horizon.
    assert!(rep.last_completion().unwrap() < rat(200, 1));
}

/// Quantized schedules run end-to-end: feasible, compact, and the simulator
/// delivers exactly the quantized rate.
#[test]
fn quantized_pipeline_delivers_its_rate() {
    use bwfirst::core::quantize::{loss_bound, quantize};
    let p = supply_tree(31, 3);
    let exact = SteadyState::from_solution(&bw_first(&p));
    let grid = 360i128;
    let q = quantize(&p, &exact, grid);
    q.verify(&p).unwrap();
    assert!(exact.throughput - q.throughput <= loss_bound(&p, &exact, grid));
    let ts = TreeSchedule::build(&p, &q).unwrap();
    for s in ts.iter() {
        assert_eq!(grid % s.t_omega, 0);
    }
    let ev = EventDrivenSchedule::standard(&p, &q).unwrap();
    let settle = Rat::from_int(startup::tree_startup_bound(&p, &ts)) + Rat::from_int(grid);
    let horizon = settle + Rat::from_int(2 * grid);
    let cfg = SimConfig {
        horizon,
        stop_injection_at: None,
        total_tasks: None,
        record_gantt: false,
        exact_queue: false,
        seed: 0,
    };
    let rep = event_driven::simulate(&p, &ev, &cfg).expect("simulate");
    assert_eq!(rep.throughput_in(settle, settle + Rat::from_int(grid)), q.throughput);
}

/// Re-weighting a live protocol session tracks the centralized solver
/// across a whole degradation/recovery scenario.
#[test]
fn live_adaptation_tracks_solver() {
    use bwfirst::platform::{NodeId, Weight};
    let p = supply_tree(15, 40);
    let mut session = ProtocolSession::spawn(&p).expect("spawn actor tree");
    assert_eq!(session.negotiate().expect("negotiate").solution, bw_first(&p));

    for (node, c) in [(1u32, rat(9, 1)), (2, rat(5, 2)), (1, rat(1, 1))] {
        let id = NodeId(node.min(p.len() as u32 - 1).max(1));
        session.set_link(id, c).expect("set_link");
        assert_eq!(
            session.negotiate().expect("negotiate").solution,
            bw_first(session.platform()),
            "after setting c({id}) = {c}"
        );
    }
    session.set_weight(NodeId(0), Weight::Time(rat(50, 1))).expect("set_weight");
    assert_eq!(session.negotiate().expect("negotiate").solution, bw_first(session.platform()));
}
