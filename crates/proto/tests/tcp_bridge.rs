//! The protocol over a real socket: bridge a channel link through TCP on
//! localhost and verify the byte stream reproduces every message faithfully
//! — the step from "channels model message passing" to actual networking.

use bwfirst_proto::wire::{self, bridge};
use bwfirst_proto::{ControlMsg, DownMsg};
use bwfirst_rational::rat;
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::channel;

#[test]
fn channel_link_survives_a_tcp_hop() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind localhost");
    let addr = listener.local_addr().expect("addr");

    // Sender side: a channel whose consumer writes frames into TCP.
    let (tx_in, rx_in) = channel::<DownMsg>();
    let writer = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("connect");
        bridge::pump_down_out(&rx_in, &mut stream).expect("pump out");
    });

    // Receiver side: TCP frames re-materialize on a channel.
    let (tx_out, rx_out) = channel::<DownMsg>();
    let reader = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        bridge::pump_down_in(&mut stream, &tx_out).expect("pump in");
    });

    let sent = vec![
        DownMsg::Proposal(rat(10, 9)),
        DownMsg::Control { target: 3, change: ControlMsg::SetLink { child: 7, c: rat(12, 1) } },
        DownMsg::Task(vec![0xAB; 4096].into()),
    ];
    for msg in &sent {
        tx_in.send(msg.clone()).expect("send");
    }
    drop(tx_in);

    let mut received = Vec::new();
    while let Ok(msg) = rx_out.recv() {
        received.push(msg);
    }
    writer.join().expect("writer finishes");
    reader.join().expect("reader finishes");

    assert_eq!(received.len(), sent.len());
    for (a, b) in sent.iter().zip(&received) {
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "message distorted by the wire");
    }
}

#[test]
fn full_session_runs_over_tcp_sockets() {
    use bwfirst_proto::ProtocolSession;
    let p = bwfirst_platform::examples::example_tree();
    let reference = bwfirst_core::bw_first(&p);

    let mut session = ProtocolSession::spawn_tcp(&p).expect("spawn over TCP");
    let neg = session.negotiate().expect("negotiation completes");
    assert_eq!(neg.solution, reference);
    assert_eq!(neg.messages(), reference.message_count() + 2);

    // Real payloads cross the sockets too.
    let flow = session.run_flow(6, 128).expect("flow completes");
    assert_eq!(flow.total_computed(), 60);
    assert_eq!(flow.computed[0], 6);

    // Re-weighting and renegotiation work across TCP.
    session.set_link(bwfirst_platform::NodeId(1), rat(12, 1)).expect("set_link");
    let degraded = session.negotiate().expect("negotiation completes");
    assert_eq!(degraded.solution, bwfirst_core::bw_first(session.platform()));
}

#[test]
fn negotiation_traffic_is_tiny_on_the_wire() {
    // The whole example-tree negotiation, framed, fits in under 100 bytes.
    let p = bwfirst_platform::examples::example_tree();
    let sol = bwfirst_core::bw_first(&p);
    let payload = wire::negotiation_wire_bytes(&sol);
    assert!(payload < 64, "payload {payload} bytes");
    // Compare with a single 4 KiB task: the protocol is noise next to data.
    let task = wire::encode_down(&DownMsg::Task(vec![0u8; 4096].into()));
    assert!(task.len() > 40 * payload / 10, "task frame {} vs negotiation {payload}", task.len());
}
