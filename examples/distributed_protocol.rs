//! The protocol, live: one dispatcher runs every node's state machine and
//! delivers each message over its edge's link in per-link FIFO order (no
//! thread per node), and real task payloads flow under the negotiated
//! event-driven schedules.
//!
//! ```text
//! cargo run --release --example distributed_protocol
//! ```

use bwfirst::platform::examples::example_tree;
use bwfirst::platform::NodeId;
use bwfirst::proto::ProtocolSession;
use bwfirst::rat;

fn main() {
    let platform = example_tree();
    println!("setting up {} node state machines...", platform.len());
    let mut session = ProtocolSession::spawn(&platform).expect("spawn actor tree");

    // Phase 1: the negotiation. Every message carries a single rational.
    let neg = session.negotiate().expect("negotiate");
    println!("\nnegotiation:");
    println!("  virtual parent proposed t_max = {}", neg.solution.t_max());
    println!("  agreed throughput = {} tasks/time unit", neg.solution.throughput());
    println!("  {} messages, {:?} wall time", neg.messages(), neg.elapsed);
    let unvisited: Vec<String> = neg.solution.unvisited().iter().map(NodeId::to_string).collect();
    println!("  nodes that never heard a proposal: {}", unvisited.join(", "));

    // Phase 2: move actual work units (4 KiB payloads) through the tree.
    // Each node routes bunches with the schedule derived from its own rates.
    let flow = session.run_flow(50, 4096).expect("flow");
    println!("\nflow phase (50 root bunches of 4 KiB tasks):");
    println!("  {} tasks computed in {:?}", flow.total_computed(), flow.elapsed);
    for (i, (&done, &fwd)) in flow.computed.iter().zip(&flow.forwarded).enumerate() {
        if done + fwd > 0 {
            println!("    P{i}: computed {done}, forwarded {fwd}");
        }
    }

    // A link degrades; the live tree renegotiates without restarting.
    println!("\nP0->P1 link degrades to c=12; renegotiating on the live session:");
    session.set_link(NodeId(1), rat(12, 1)).expect("set_link");
    let neg2 = session.negotiate().expect("negotiate");
    println!(
        "  new throughput = {} ({} messages, {:?})",
        neg2.solution.throughput(),
        neg2.messages(),
        neg2.elapsed
    );

    let flow2 = session.run_flow(50, 4096).expect("flow");
    println!("  task routing after adaptation: {} tasks computed", flow2.total_computed());

    // The same protocol over real localhost TCP sockets: every link becomes
    // a framed byte stream (3-byte messages via the varint codec).
    println!("\nsame tree, links over real TCP sockets:");
    let mut tcp = ProtocolSession::spawn_tcp(&platform).expect("spawn over TCP");
    let neg_tcp = tcp.negotiate().expect("negotiate");
    println!(
        "  throughput = {} ({} messages, {:?})",
        neg_tcp.solution.throughput(),
        neg_tcp.messages(),
        neg_tcp.elapsed
    );
    let flow_tcp = tcp.run_flow(10, 1024).expect("flow");
    println!(
        "  {} tasks of 1 KiB crossed the sockets in {:?}",
        flow_tcp.total_computed(),
        flow_tcp.elapsed
    );
}
