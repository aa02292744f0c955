//! Property tests over the simulator executors on random platforms: the
//! single-port model is never violated, tasks are conserved, and no executor
//! exceeds the optimal steady-state rate by more than its buffered backlog.

use bwfirst::core::schedule::{EventDrivenSchedule, TreeSchedule};
use bwfirst::core::{bw_first, SteadyState};
use bwfirst::platform::generators::{random_tree, RandomTreeConfig};
use bwfirst::platform::Platform;
use bwfirst::sim::clocked::{self, ClockedConfig};
use bwfirst::sim::demand_driven::{self, DemandConfig};
use bwfirst::sim::{event_driven, SimConfig, SimReport};
use bwfirst::{rat, Rat};
use proptest::prelude::*;

fn arb_platform() -> impl Strategy<Value = Platform> {
    (2usize..24, any::<u64>(), 1usize..4).prop_map(|(size, seed, max_children)| {
        random_tree(&RandomTreeConfig {
            size,
            max_children,
            weight_num: (1, 10),
            weight_den: (1, 1),
            link_num: (1, 3),
            link_den: (1, 1),
            switch_pct: 10,
            seed,
        })
    })
}

/// A drain config whose horizon leaves room to empty every buffer. The
/// clocked executor's χ stock takes up to one full period per *level* to
/// flush (each node drains into its children at its steady rate), so the
/// horizon scales with depth × period.
fn drain_cfg(p: &Platform, ss: &SteadyState) -> SimConfig {
    let period = bwfirst::core::schedule::synchronous_period(ss).unwrap();
    let levels = p.height() as i128 + 2;
    SimConfig {
        horizon: rat(120 + levels * period + 200, 1),
        stop_injection_at: Some(rat(120, 1)),
        total_tasks: None,
        record_gantt: true,
        exact_queue: false,
        seed: 0,
    }
}

fn check_no_overlap(rep: &SimReport) -> Result<(), TestCaseError> {
    if let Some(pair) = rep.gantt.as_ref().unwrap().find_overlap() {
        return Err(TestCaseError::fail(format!("port overlap: {pair:?}")));
    }
    Ok(())
}

fn check_conservation(p: &Platform, rep: &SimReport, prefill: &[u64]) -> Result<(), TestCaseError> {
    for id in p.node_ids() {
        let forwarded: u64 =
            p.children(id).iter().map(|&k| rep.received[k.index()] - prefill[k.index()]).sum();
        prop_assert_eq!(
            rep.received[id.index()],
            rep.computed[id.index()] + forwarded,
            "conservation at {}",
            id
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn event_driven_invariants(p in arb_platform()) {
        let ss = SteadyState::from_solution(&bw_first(&p));
        prop_assume!(ss.throughput.is_positive());
        // Period explosions make simulation pointless here.
        prop_assume!(bwfirst::core::schedule::synchronous_period(&ss).unwrap() <= 20_000);
        let ev = EventDrivenSchedule::standard(&p, &ss).unwrap();
        let rep = event_driven::simulate(&p, &ev, &drain_cfg(&p, &ss)).expect("simulate");
        check_no_overlap(&rep)?;
        check_conservation(&p, &rep, &vec![0; p.len()])?;
        // Drained completely.
        prop_assert_eq!(rep.total_computed(), rep.received[0]);
        // Long-run rate cannot beat the optimum.
        let stop = rat(120, 1);
        let done = Rat::from(rep.total_computed() as usize);
        let last = rep.last_completion().unwrap_or(Rat::ZERO).max(stop);
        prop_assert!(done <= ss.throughput * last + Rat::from(p.len()));
    }

    #[test]
    fn demand_driven_invariants(p in arb_platform(), interruptible in any::<bool>()) {
        let ss = SteadyState::from_solution(&bw_first(&p));
        prop_assume!(ss.throughput.is_positive());
        let demand = DemandConfig { interruptible };
        let rep = demand_driven::simulate(&p, demand, &drain_cfg(&p, &ss));
        check_no_overlap(&rep)?;
        check_conservation(&p, &rep, &vec![0; p.len()])?;
        prop_assert_eq!(rep.total_computed(), rep.received[0]);
        let done = Rat::from(rep.total_computed() as usize);
        let last = rep.last_completion().unwrap_or(Rat::ZERO).max(rat(120, 1));
        prop_assert!(done <= ss.throughput * last + Rat::from(p.len() * 3));
    }

    #[test]
    fn clocked_invariants(p in arb_platform(), prefill in any::<bool>()) {
        let ss = SteadyState::from_solution(&bw_first(&p));
        prop_assume!(ss.throughput.is_positive());
        prop_assume!(bwfirst::core::schedule::synchronous_period(&ss).unwrap() <= 5_000);
        let ts = TreeSchedule::build(&p, &ss).unwrap();
        let chi: Vec<u64> = p
            .node_ids()
            .map(|id| ts.get(id).and_then(|s| s.chi_in).unwrap_or(0) as u64)
            .collect();
        let rep = clocked::simulate(&p, &ts, ClockedConfig { prefill }, &drain_cfg(&p, &ss))
            .expect("simulate");
        check_no_overlap(&rep)?;
        let prefilled = if prefill { chi } else { vec![0; p.len()] };
        check_conservation(&p, &rep, &prefilled)?;
    }

    #[test]
    fn executors_agree_on_long_run_rate(p in arb_platform()) {
        // Event-driven and warm clocked must deliver the same optimal rate
        // over aligned steady windows.
        let ss = SteadyState::from_solution(&bw_first(&p));
        prop_assume!(ss.throughput.is_positive());
        let period = bwfirst::core::schedule::synchronous_period(&ss).unwrap();
        prop_assume!(period <= 2_000);
        let window = Rat::from_int(period);
        let ts = TreeSchedule::build(&p, &ss).unwrap();
        let bound = Rat::from_int(bwfirst::core::startup::tree_startup_bound(&p, &ts));
        let start = bound + window;
        let horizon = start + window * rat(3, 1);
        let cfg = SimConfig { horizon, stop_injection_at: None, total_tasks: None, record_gantt: false, exact_queue: false, seed: 0 };
        let ev = EventDrivenSchedule::standard(&p, &ss).unwrap();
        let a = event_driven::simulate(&p, &ev, &cfg).expect("simulate");
        let b = clocked::simulate(&p, &ts, ClockedConfig { prefill: true }, &cfg).expect("simulate");
        let ra = a.throughput_in(start, start + window * Rat::TWO);
        let rb = b.throughput_in(start, start + window * Rat::TWO);
        prop_assert_eq!(ra, ss.throughput);
        prop_assert_eq!(rb, ss.throughput);
    }
}
