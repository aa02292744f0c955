//! Property tests for the platform model: generator validity, traversal
//! consistency, subtree extraction, and I/O roundtrips on random trees.

use bwfirst::core::{bw_first, bw_first_with_lambda};
use bwfirst::platform::generators::{kary_tree, random_tree, RandomTreeConfig};
use bwfirst::platform::{io, NodeId, Platform, Weight};
use bwfirst::rat;
use proptest::prelude::*;

fn arb_platform() -> impl Strategy<Value = Platform> {
    (2usize..40, any::<u64>(), 1usize..6, 0u8..30).prop_map(
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
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tree_structure_is_consistent(p in arb_platform()) {
        // Exactly one root; every other node's parent lists it as a child.
        prop_assert!(p.parent(p.root()).is_none());
        for id in p.node_ids() {
            match p.parent(id) {
                None => prop_assert_eq!(id, p.root()),
                Some(parent) => {
                    prop_assert!(p.children(parent).contains(&id));
                    prop_assert!(p.link_time(id).unwrap().is_positive());
                    prop_assert_eq!(p.depth(id), p.depth(parent) + 1);
                }
            }
        }
        // Subtree sizes sum correctly and the root's covers everything.
        prop_assert_eq!(p.subtree_size(p.root()), p.len());
        // Preorder covers every node exactly once.
        let mut order = p.preorder_bandwidth_centric(p.root());
        order.sort();
        let all: Vec<NodeId> = p.node_ids().collect();
        prop_assert_eq!(order, all);
    }

    #[test]
    fn bandwidth_centric_order_is_sorted(p in arb_platform()) {
        for id in p.node_ids() {
            let kids = p.children_bandwidth_centric(id);
            for w in kids.windows(2) {
                let ca = p.link_time(w[0]).unwrap();
                let cb = p.link_time(w[1]).unwrap();
                prop_assert!(ca < cb || (ca == cb && w[0] < w[1]));
            }
        }
    }

    #[test]
    fn subtree_extraction_preserves_local_solutions(p in arb_platform(), pick in any::<u32>()) {
        let node = NodeId(pick % p.len() as u32);
        let (sub, map) = p.subtree(node);
        prop_assert_eq!(sub.len(), p.subtree_size(node));
        // Weights/links survive.
        for &(old, new) in &map {
            prop_assert_eq!(p.weight(old), sub.weight(new));
            if old != node {
                prop_assert_eq!(p.link_time(old), sub.link_time(new));
            }
        }
        // The recursion invariant behind Proposition 2: a subtree behaves
        // like a single node of equivalent rate r_f, so feeding it λ yields
        // consumption exactly min(λ, r_f) — where r_f is its unconstrained
        // throughput (the canonical t_max proposal never binds: the port
        // carries at most max bᵢ ≤ t_max − r_root tasks per unit).
        let r_f = bw_first(&sub).throughput();
        for lambda in [rat(1, 7), rat(1, 2), rat(3, 2), r_f, r_f + rat(5, 1)] {
            let consumed = bw_first_with_lambda(&sub, lambda).throughput();
            prop_assert_eq!(consumed, lambda.min(r_f), "feed {} to subtree at {}", lambda, node);
        }
    }

    #[test]
    fn json_io_total_roundtrip(p in arb_platform()) {
        let back = io::from_json(&io::to_json(&p)).unwrap();
        prop_assert_eq!(p.len(), back.len());
        for id in p.node_ids() {
            prop_assert_eq!(p.parent(id), back.parent(id));
            prop_assert_eq!(p.weight(id), back.weight(id));
            prop_assert_eq!(p.link_time(id), back.link_time(id));
        }
    }

    #[test]
    fn dot_export_mentions_every_node_and_edge(p in arb_platform()) {
        let dot = io::to_dot(&p);
        prop_assert_eq!(dot.matches(" -> ").count(), p.len() - 1);
        for id in p.node_ids() {
            // prop_assert! stringifies its condition into a format string,
            // so keep the `{}`-bearing format! calls outside the macro.
            let mentioned =
                dot.contains(&format!("n{} ", id.0)) || dot.contains(&format!("n{} [", id.0));
            prop_assert!(mentioned, "node missing from DOT output");
        }
    }

    #[test]
    fn deterministic_generators_have_exact_shapes(depth in 0usize..5, arity in 1usize..4) {
        let w = Weight::Time(rat(3, 1));
        let k = kary_tree(depth, arity, w, rat(1, 1));
        let expect: usize = (0..=depth).map(|d| arity.pow(d as u32)).sum();
        prop_assert_eq!(k.len(), expect);
        prop_assert_eq!(k.height(), if arity == 0 { 0 } else { depth });
    }
}
