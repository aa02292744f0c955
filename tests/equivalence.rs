//! Cross-crate equivalence properties: the two throughput solvers (and the
//! lazy variant) agree on arbitrary platforms, and throughput
//! responds monotonically to resource changes.

use bwfirst::core::bwfirst::PlatformSource;
use bwfirst::core::lazy::throughput_bounds;
use bwfirst::core::{bottom_up, bw_first, SteadyState};
use bwfirst::platform::generators::{random_tree, RandomTreeConfig};
use bwfirst::platform::{NodeId, Platform, Weight};
use bwfirst::{rat, Rat};
use proptest::prelude::*;

fn arb_platform() -> impl Strategy<Value = Platform> {
    (2usize..60, any::<u64>(), 1usize..5, 0u8..30).prop_map(
        |(size, seed, max_children, switch_pct)| {
            random_tree(&RandomTreeConfig {
                size,
                max_children,
                switch_pct,
                seed,
                ..Default::default()
            })
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bw_first_equals_bottom_up(p in arb_platform()) {
        let a = bw_first(&p).throughput();
        let b = bottom_up(&p).throughput;
        prop_assert_eq!(a, b);
    }

    #[test]
    fn steady_state_is_always_feasible(p in arb_platform()) {
        let sol = bw_first(&p);
        let ss = SteadyState::from_solution(&sol);
        prop_assert!(ss.verify(&p).is_ok());
    }

    #[test]
    fn throughput_bounded_by_tmax_and_compute(p in arb_platform()) {
        let sol = bw_first(&p);
        prop_assert!(sol.throughput() <= sol.t_max());
        let compute_ceiling: Rat = p.node_ids().map(|id| p.compute_rate(id)).sum();
        prop_assert!(sol.throughput() <= compute_ceiling);
    }

    #[test]
    fn unvisited_nodes_do_no_work(p in arb_platform()) {
        let sol = bw_first(&p);
        let ss = SteadyState::from_solution(&sol);
        for id in sol.unvisited() {
            prop_assert!(ss.alpha[id.index()].is_zero());
            prop_assert!(ss.eta_in[id.index()].is_zero());
        }
    }

    #[test]
    fn speeding_a_link_never_hurts(p in arb_platform(), pick in any::<u32>()) {
        if p.len() < 2 { return Ok(()); }
        let victim = NodeId(1 + pick % (p.len() as u32 - 1));
        let before = bw_first(&p).throughput();
        let mut faster = p.clone();
        let c = p.link_time(victim).unwrap();
        faster.set_link_time(victim, c / Rat::TWO);
        let after = bw_first(&faster).throughput();
        prop_assert!(after >= before, "halving c at {victim}: {before} -> {after}");
    }

    #[test]
    fn slowing_a_cpu_never_helps(p in arb_platform(), pick in any::<u32>()) {
        let victim = NodeId(pick % p.len() as u32);
        let before = bw_first(&p).throughput();
        let mut slower = p.clone();
        match p.weight(victim) {
            Weight::Time(w) => slower.set_weight(victim, Weight::Time(w * Rat::TWO)),
            Weight::Infinite => return Ok(()),
        }
        let after = bw_first(&slower).throughput();
        prop_assert!(after <= before, "doubling w at {victim}: {before} -> {after}");
    }

    #[test]
    fn adding_a_worker_never_hurts(p in arb_platform(), pick in any::<u32>()) {
        let parent = NodeId(pick % p.len() as u32);
        let before = bw_first(&p).throughput();
        // Rebuild the platform with one extra child under `parent`.
        let mut b = bwfirst::platform::PlatformBuilder::new();
        b.root(p.weight(p.root()));
        for id in p.node_ids().skip(1) {
            b.child(p.parent(id).unwrap(), p.weight(id), p.link_time(id).unwrap());
        }
        b.child(parent, rat(2, 1), rat(1, 1));
        let bigger = b.build().unwrap();
        let after = bw_first(&bigger).throughput();
        prop_assert!(after >= before, "adding a worker under {parent}: {before} -> {after}");
    }

    #[test]
    fn lazy_bounds_bracket_exact(p in arb_platform(), depth in 0usize..6) {
        let exact = bw_first(&p).throughput();
        let (lo, hi) = throughput_bounds(&PlatformSource(&p), depth);
        prop_assert!(lo <= exact);
        prop_assert!(hi >= exact);
        let (flo, fhi) = throughput_bounds(&PlatformSource(&p), p.height() + 1);
        prop_assert_eq!(flo, exact);
        prop_assert_eq!(fhi, exact);
    }

    #[test]
    fn json_roundtrip_preserves_throughput(p in arb_platform()) {
        let json = bwfirst::platform::io::to_json(&p);
        let back = bwfirst::platform::io::from_json(&json).unwrap();
        prop_assert_eq!(bw_first(&p).throughput(), bw_first(&back).throughput());
    }
}

/// The monotonicity tests use a rebuild helper; pin its behaviour once.
#[test]
fn rebuild_keeps_ids_stable() {
    let p = random_tree(&RandomTreeConfig { size: 12, seed: 3, ..Default::default() });
    let mut b = bwfirst::platform::PlatformBuilder::new();
    b.root(p.weight(p.root()));
    for id in p.node_ids().skip(1) {
        b.child(p.parent(id).unwrap(), p.weight(id), p.link_time(id).unwrap());
    }
    let q = b.build().unwrap();
    for id in p.node_ids() {
        assert_eq!(p.parent(id), q.parent(id));
        assert_eq!(p.weight(id), q.weight(id));
    }
}
