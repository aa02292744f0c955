//! Property tests for the distributed protocol: the live session must be
//! observationally identical to the centralized solver — the solution built
//! from the messages it delivered equals `bw_first`'s whole result: the same
//! throughput, per-node rates, visited set and message trace, in order.

use bwfirst::core::schedule::TreeSchedule;
use bwfirst::core::{bw_first, SteadyState};
use bwfirst::platform::generators::{random_tree, RandomTreeConfig};
use bwfirst::platform::Platform;
use bwfirst::proto::ProtocolSession;
use proptest::prelude::*;

fn arb_platform() -> impl Strategy<Value = Platform> {
    (2usize..40, any::<u64>(), 1usize..5, 0u8..25).prop_map(
        |(size, seed, max_children, switch_pct)| {
            random_tree(&RandomTreeConfig {
                size,
                seed,
                max_children,
                switch_pct,
                ..Default::default()
            })
        },
    )
}

proptest! {
    // Thread spawns are not free: keep the case count moderate.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn distributed_equals_centralized(p in arb_platform()) {
        let reference = bw_first(&p);
        let mut session = ProtocolSession::spawn(&p).expect("spawn actor tree");
        let neg = session.negotiate().expect("negotiate");
        prop_assert_eq!(&neg.solution, &reference);
        // One proposal + one ack per transaction, plus the virtual parent's
        // proposal and the root's closing ack.
        prop_assert_eq!(neg.messages(), reference.message_count() + 2);
    }

    #[test]
    fn negotiation_is_idempotent(p in arb_platform()) {
        let mut session = ProtocolSession::spawn(&p).expect("spawn actor tree");
        let a = session.negotiate().expect("negotiate");
        let b = session.negotiate().expect("negotiate");
        prop_assert_eq!(a.solution, b.solution);
    }

    #[test]
    fn flow_routes_psi_proportions(p in arb_platform(), bunches in 1u64..6) {
        let ss = SteadyState::from_solution(&bw_first(&p));
        prop_assume!(ss.throughput.is_positive());
        let ts = TreeSchedule::build(&p, &ss).unwrap();
        let root_bunch = ts.get(p.root()).map_or(0, |s| s.bunch) as u64;
        prop_assume!(root_bunch > 0 && root_bunch * bunches <= 50_000);
        let mut session = ProtocolSession::spawn(&p).expect("spawn actor tree");
        let _ = session.negotiate().expect("negotiate");
        let flow = session.run_flow(bunches, 8).expect("flow completes");
        // Total volume is exact.
        prop_assert_eq!(flow.total_computed(), bunches * root_bunch);
        // The root's own compute share is exact.
        let psi_self = ts.get(p.root()).expect("active root").psi_self as u64;
        prop_assert_eq!(flow.computed[0], bunches * psi_self);
        // Inactive nodes see nothing.
        for id in p.node_ids() {
            if !ss.is_active(id) {
                prop_assert_eq!(flow.computed[id.index()], 0);
                prop_assert_eq!(flow.forwarded[id.index()], 0);
            }
        }
        // Conservation: a node's forwarded count equals its children's
        // combined intake (computed + forwarded).
        for id in p.node_ids() {
            let children_intake: u64 = p
                .children(id)
                .iter()
                .map(|&k| flow.computed[k.index()] + flow.forwarded[k.index()])
                .sum();
            prop_assert_eq!(flow.forwarded[id.index()], children_intake, "at {}", id);
        }
    }
}
