//! Empirical Proposition 2: the `BW-First` procedure visits only the nodes
//! that end up in the bandwidth-centric solution (plus the probed frontier —
//! nodes that receive a proposal and decline all of it), and exchanges at
//! most two rational numbers per visited edge.
//!
//! The checks run on the live actor tree and read the numbers back through
//! the `bwfirst-obs` counters the session records.

use bwfirst_core::{bw_first, SteadyState};
use bwfirst_obs::MemoryRecorder;
use bwfirst_platform::examples::example_tree;
use bwfirst_platform::generators::{random_tree, RandomTreeConfig};
use bwfirst_platform::Platform;
use bwfirst_proto::{wire, ProtocolSession};

/// Runs one negotiation and returns the obs recorder holding its counters.
fn negotiate_recorded(p: &Platform) -> (MemoryRecorder, bwfirst_proto::NegotiationOutcome) {
    let mut session = ProtocolSession::spawn(p).expect("set up protocol session");
    let out = session.negotiate().expect("negotiation completes");
    let mut rec = MemoryRecorder::new();
    out.record(&mut rec);
    (rec, out)
}

#[test]
fn visits_exactly_the_scheduled_nodes_on_the_example_tree() {
    let p = example_tree();
    let (rec, out) = negotiate_recorded(&p);
    let reference = bw_first(&p);

    // Visited = nodes with nonzero inflow or compute rate, plus any probed
    // frontier (nodes proposed to that declined everything). On the paper's
    // example the frontier is empty: the pruned nodes P5, P9, P10, P11 never
    // even hear about the round.
    let ss = SteadyState::from_solution(&out.solution);
    let unvisited = out.solution.unvisited();
    for id in p.node_ids() {
        if ss.is_active(id) {
            assert!(!unvisited.contains(&id), "{id} is scheduled, so it was visited");
        }
    }
    assert_eq!(unvisited, reference.unvisited());
    assert_eq!(rec.metrics.counter("proto.nodes_visited"), 8);
    assert_eq!(rec.metrics.counter("proto.nodes_total"), 12);
}

#[test]
fn two_rationals_per_visited_edge() {
    // Every tree node has exactly one incoming edge (the root's comes from
    // the virtual parent), so "≤ 2 rationals per visited edge" is exactly
    // `messages == 2 × visited`: one proposal down, one ack up, one rational
    // each.
    for seed in [1u64, 7, 23] {
        let p = random_tree(&RandomTreeConfig { size: 40, seed, ..Default::default() });
        let (rec, out) = negotiate_recorded(&p);
        let visited = rec.metrics.counter("proto.nodes_visited");
        assert_eq!(rec.metrics.counter("proto.messages"), 2 * visited, "seed {seed}");
        assert_eq!(rec.metrics.counter("proto.proposals"), visited, "seed {seed}");
        assert_eq!(rec.metrics.counter("proto.acks"), visited, "seed {seed}");
        // A frontier node may decline everything, but nobody outside the
        // proposal wave takes part.
        let ss = SteadyState::from_solution(&out.solution);
        for id in out.solution.unvisited() {
            assert!(!ss.is_active(id), "seed {seed}: {id} scheduled but unvisited");
        }
    }
}

#[test]
fn wire_cost_is_bounded_by_the_message_count() {
    // Each message carries one rational: a 1-byte tag plus two varints. The
    // paper's "single number per message" claim, in octets.
    let p = example_tree();
    let (rec, _) = negotiate_recorded(&p);
    let messages = rec.metrics.counter("proto.messages");
    let bytes = rec.metrics.counter("proto.wire_bytes");
    assert_eq!(wire::negotiation_wire_bytes(&bw_first(&p)) as i128, bytes);
    assert!(bytes >= 2 * messages, "at least tag + one varint pair");
    assert!(bytes <= 35 * messages, "bounded by tag + two maximal varints");
    // On the example tree the values are tiny fractions: under 4 bytes each.
    assert!(bytes <= 4 * messages, "example-tree rationals are compact, got {bytes} octets");
}
