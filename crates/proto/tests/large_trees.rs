//! The live protocol on trees far larger than any thread-per-node runtime
//! could host, and task payloads larger than a socket buffer.
//!
//! Both big trees negotiate through `ProtocolSession::spawn` and must agree
//! with the centralized `bw_first` on the whole solution: every node's
//! rates, which nodes the round visited, and the message trace in order.

use bwfirst_core::bw_first;
use bwfirst_platform::generators::{daisy_chain, kary_tree};
use bwfirst_platform::{NodeId, Platform, PlatformBuilder, Weight};
use bwfirst_proto::ProtocolSession;
use bwfirst_rational::{rat, Rat};

const NODES: usize = 100_000;

/// Negotiates `p` live and checks the outcome against `bw_first`; returns
/// the visited-node and message counts.
fn negotiate_matches_centralized(p: &Platform) -> (usize, usize) {
    let reference = bw_first(p);
    let mut session = ProtocolSession::spawn(p).expect("session over a large tree");
    let out = session.negotiate().expect("negotiation completes");
    assert_eq!(out.solution, reference);
    assert_eq!(out.messages(), reference.message_count() + 2);
    (out.solution.visit_count(), out.messages())
}

#[test]
fn a_hundred_thousand_node_four_ary_tree() {
    // Node i hangs under (i - 1) / 4 and computes with w = 1024 * 2^(i mod 3).
    let mut b = PlatformBuilder::new();
    let mut ids = vec![b.root(Weight::Time(rat(1024, 1)))];
    for i in 1..NODES {
        let w = Weight::Time(rat(1024 << (i % 3), 1));
        ids.push(b.child(ids[(i - 1) / 4], w, Rat::ONE));
    }
    let p = b.build().expect("valid 4-ary tree");
    let reference = bw_first(&p);
    assert_eq!(reference.visit_count(), 1757);
    assert_eq!(reference.message_count(), 3512);
    // Plus the virtual parent's proposal and the root's ack to it.
    assert_eq!(negotiate_matches_centralized(&p), (1757, 3514));
}

#[test]
fn a_round_on_the_131k_node_binary_tree_touches_five_nodes() {
    // Proposition 2 at scale: the root's first child absorbs the whole
    // offer down a four-node path, and the solution holds exactly those
    // visits — nothing for the other 131,066 nodes.
    let p = kary_tree(16, 2, Weight::Time(rat(4, 1)), Rat::ONE);
    assert_eq!(p.len(), 131_071);
    let reference = bw_first(&p);
    assert_eq!(reference.visits.len(), 5);
    assert_eq!(reference.trace().len(), 8);
    let mut session = ProtocolSession::spawn(&p).expect("session over the binary tree");
    assert_eq!(session.negotiate().expect("negotiation completes").solution, reference);
}

#[test]
fn a_hundred_thousand_node_daisy_chain() {
    // Every node computes 1/100000 of a task per time unit over unit links,
    // so the round reaches the tail: all 100,000 nodes take part.
    let w = Weight::Time(rat(NODES as i128, 1));
    let p = daisy_chain(w, &vec![(w, Rat::ONE); NODES - 1]);
    let (visited, messages) = negotiate_matches_centralized(&p);
    assert_eq!(visited, NODES);
    assert_eq!(messages, 2 * NODES);
}

#[test]
fn megabyte_tasks_cross_the_tcp_links() {
    // One root bunch on the example tree is 10 tasks; at 1 MiB each a task
    // is larger than a socket buffer holds.
    let p = bwfirst_platform::examples::example_tree();
    let mut session = ProtocolSession::spawn_tcp(&p).expect("session over TCP");
    session.negotiate().expect("negotiation completes");
    let flow = session.run_flow(1, 1 << 20).expect("flow completes");
    assert_eq!(flow.total_computed(), 10);
    let computed: u64 = flow.bytes_processed.iter().sum();
    assert_eq!(computed, 10 << 20);
    // Re-weighting still reaches a node two hops below the root.
    session.set_weight(NodeId(4), Weight::Time(rat(3, 1))).expect("set_weight");
    let again = session.negotiate().expect("negotiation completes");
    assert_eq!(again.solution, bw_first(session.platform()));
}
