//! Property tests for schedule reconstruction: Lemma 1 period minimality
//! and divisibility, integer `ψ`/`φ`/`χ` quantities, conservation across
//! levels, and local-order invariants — on arbitrary random platforms.

use bwfirst::core::schedule::{
    synchronous_period, BunchOrder, EventDrivenSchedule, LocalScheduleKind, SlotAction,
    TreeSchedule,
};
use bwfirst::core::validate_schedule;
use bwfirst::core::{bw_first, SteadyState};
use bwfirst::platform::generators::{hetero_tree, random_tree, RandomTreeConfig};
use bwfirst::platform::Platform;
use bwfirst::Rat;
use proptest::prelude::*;

/// Integer weights keep lcm periods small enough for exhaustive checking.
fn arb_platform() -> impl Strategy<Value = Platform> {
    (2usize..40, any::<u64>(), 1usize..5).prop_map(|(size, seed, max_children)| {
        random_tree(&RandomTreeConfig {
            size,
            max_children,
            weight_num: (1, 12),
            weight_den: (1, 1),
            link_num: (1, 4),
            link_den: (1, 1),
            switch_pct: 10,
            seed,
        })
    })
}

fn build(p: &Platform) -> (SteadyState, TreeSchedule) {
    let ss = SteadyState::from_solution(&bw_first(p));
    let ts = TreeSchedule::build(p, &ss).unwrap();
    (ss, ts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn periods_divide_each_other(p in arb_platform()) {
        let (ss, ts) = build(&p);
        let sync = synchronous_period(&ss).unwrap();
        for s in ts.iter() {
            prop_assert_eq!(s.t_omega % s.t_comp, 0);
            prop_assert_eq!(s.t_omega % s.t_send, 0);
            prop_assert_eq!(s.t_full % s.t_omega, 0);
            if let Some(tr) = s.t_recv {
                prop_assert_eq!(s.t_full % tr, 0);
            }
            // Every local period divides the global synchronous period.
            prop_assert_eq!(sync % s.t_omega, 0, "T^w of {} does not divide T", s.node);
        }
    }

    #[test]
    fn receive_period_is_parents_send_period(p in arb_platform()) {
        let (_, ts) = build(&p);
        for s in ts.iter() {
            if let (Some(parent), Some(tr)) = (p.parent(s.node), s.t_recv) {
                let ps = ts.get(parent).expect("active parent");
                prop_assert_eq!(tr, ps.t_send);
            }
        }
    }

    #[test]
    fn quantities_are_exact_rate_multiples(p in arb_platform()) {
        let (ss, ts) = build(&p);
        for s in ts.iter() {
            let i = s.node.index();
            prop_assert_eq!(Rat::from_int(s.psi_self), ss.alpha[i] * Rat::from_int(s.t_omega));
            if let (Some(phi), Some(tr)) = (s.phi_recv, s.t_recv) {
                prop_assert_eq!(Rat::from_int(phi), ss.eta_in[i] * Rat::from_int(tr));
            }
            if let (Some(chi), _) = (s.chi_in, ()) {
                prop_assert_eq!(Rat::from_int(chi), ss.eta_in[i] * Rat::from_int(s.t_full));
            }
            for &(k, q) in &s.psi_children {
                prop_assert_eq!(Rat::from_int(q), ss.eta_in[k.index()] * Rat::from_int(s.t_omega));
            }
        }
    }

    #[test]
    fn send_period_is_minimal(p in arb_platform()) {
        // T^s is the *shortest* period with integer per-child counts: no
        // proper divisor of it yields all-integer φ quantities.
        let (ss, ts) = build(&p);
        for s in ts.iter() {
            for cand in 1..s.t_send {
                if s.t_send % cand != 0 {
                    continue;
                }
                let all_integer = p
                    .children(s.node)
                    .iter()
                    .all(|&k| (ss.eta_in[k.index()] * Rat::from_int(cand)).is_integer());
                prop_assert!(!all_integer, "T^s at {} is not minimal ({} works)", s.node, cand);
            }
        }
    }

    #[test]
    fn bunch_conserves_tasks(p in arb_platform()) {
        let (_, ts) = build(&p);
        for s in ts.iter() {
            let total: i128 = s.psi_self + s.psi_children.iter().map(|&(_, q)| q).sum::<i128>();
            prop_assert_eq!(total, s.bunch);
            // Over T_full: inflow χ equals the bunches consumed.
            if let Some(chi) = s.chi_in {
                prop_assert_eq!(chi, (s.t_full / s.t_omega) * s.bunch);
            }
        }
    }

    #[test]
    fn local_orders_preserve_counts(p in arb_platform()) {
        let (ss, ts) = build(&p);
        for kind in [LocalScheduleKind::Interleaved, LocalScheduleKind::AllAtOnce, LocalScheduleKind::RoundRobin] {
            let ev = EventDrivenSchedule::build(&p, &ss, kind).unwrap();
            for s in ts.iter() {
                let ls = ev.local(s.node).unwrap();
                prop_assert_eq!(ls.actions.len(), s.bunch);
                let computes = ls.actions.iter().filter(|a| matches!(a, SlotAction::Compute)).count();
                prop_assert_eq!(computes as i128, s.psi_self);
                for &(k, q) in &s.psi_children {
                    let sends = ls.actions.iter().filter(|a| matches!(a, SlotAction::Send(x) if *x == k)).count();
                    prop_assert_eq!(sends as i128, q);
                }
            }
        }
    }

    #[test]
    fn interleaving_spacing_dominates_all_at_once(p in arb_platform()) {
        // The interleaved order's max cyclic gap between same-destination
        // actions is never worse than the all-at-once order's.
        let (ss, ts) = build(&p);
        let inter = EventDrivenSchedule::build(&p, &ss, LocalScheduleKind::Interleaved).unwrap();
        let burst = EventDrivenSchedule::build(&p, &ss, LocalScheduleKind::AllAtOnce).unwrap();
        let max_gap = |order: &BunchOrder, target: &SlotAction| -> usize {
            let actions: Vec<SlotAction> = order.iter().collect();
            let pos: Vec<usize> = actions.iter().enumerate().filter(|(_, a)| *a == target).map(|(i, _)| i).collect();
            if pos.len() < 2 {
                return 0;
            }
            let n = actions.len();
            pos.windows(2).map(|w| w[1] - w[0]).chain([pos[0] + n - pos.last().unwrap()]).max().unwrap()
        };
        for s in ts.iter() {
            for &(k, _) in &s.psi_children {
                let t = SlotAction::Send(k);
                let gi = max_gap(&inter.local(s.node).unwrap().actions, &t);
                let gb = max_gap(&burst.local(s.node).unwrap().actions, &t);
                prop_assert!(gi <= gb, "gap at {} toward {k}: interleaved {gi} > bursty {gb}", s.node);
            }
        }
    }

    #[test]
    fn startup_bounds_sum_ancestor_periods(p in arb_platform()) {
        let (_, ts) = build(&p);
        let bounds = bwfirst::core::startup::startup_bounds(&p, &ts);
        for s in ts.iter() {
            let expect: i128 = p.ancestors(s.node).map(|a| ts.get(a).unwrap().t_omega).sum();
            prop_assert_eq!(bounds[s.node.index()], Some(expect));
        }
    }
}

/// Exact plans on heterogeneous trees, whose bunches reach `Ψ ≈ 10^21` at
/// n = 20: the implicit order builds and validates them in milliseconds.
#[test]
fn exact_hetero_plans_build_and_validate() {
    for n in [8, 10, 15, 20] {
        for seed in 1..=3 {
            let started = std::time::Instant::now();
            let p = hetero_tree(n, seed);
            let ss = SteadyState::from_solution(&bw_first(&p));
            let ev = EventDrivenSchedule::standard(&p, &ss).unwrap();
            let violations = validate_schedule(&p, &ss, &ev);
            assert!(violations.is_empty(), "n={n} seed={seed}: {violations:?}");
            let elapsed = started.elapsed();
            assert!(elapsed.as_secs_f64() < 1.0, "n={n} seed={seed} took {elapsed:?}");
        }
    }
    // The largest bunch is past u64 at n = 20.
    let p = hetero_tree(20, 1);
    let ss = SteadyState::from_solution(&bw_first(&p));
    let ev = EventDrivenSchedule::standard(&p, &ss).unwrap();
    assert!(ev.locals.iter().flatten().any(|l| l.actions.len() > i128::from(u64::MAX)));
}
