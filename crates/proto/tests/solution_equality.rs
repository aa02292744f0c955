//! The live protocol returns Algorithm 1's own result: the `BwFirstSolution`
//! a session builds from the messages it delivered equals `bw_first`'s as a
//! whole — throughput, per-node rates, visited set, transactions and the
//! message trace in order — in memory and over TCP, and again after live
//! re-weights. Over TCP every recorded number has crossed the codec.

use bwfirst_core::bw_first;
use bwfirst_obs::MemoryRecorder;
use bwfirst_platform::examples::example_tree;
use bwfirst_platform::generators::{hetero_tree, random_tree, wide_tree, RandomTreeConfig};
use bwfirst_platform::{NodeId, Platform, Weight};
use bwfirst_proto::wire::negotiation_wire_bytes;
use bwfirst_proto::ProtocolSession;
use bwfirst_rational::rat;

/// Negotiates on `session` and checks the whole solution and the recorded
/// wire counters against `bw_first` on the session's platform.
fn assert_round_is_bw_first(session: &mut ProtocolSession, what: &str) {
    let out = session.negotiate().expect("negotiation completes");
    let reference = bw_first(session.platform());
    assert_eq!(out.solution, reference, "{what}");
    let mut rec = MemoryRecorder::new();
    out.record(&mut rec);
    let bytes = negotiation_wire_bytes(&reference) as i128;
    assert_eq!(rec.metrics.counter("proto.wire_bytes"), bytes, "{what}");
    let messages = reference.message_count() as i128 + 2;
    assert_eq!(rec.metrics.counter("proto.messages"), messages, "{what}");
}

/// Checks `p` in memory, and over TCP too if `tcp`.
fn assert_live_is_bw_first(p: &Platform, tcp: bool, what: &str) {
    assert_round_is_bw_first(&mut ProtocolSession::spawn(p).expect("spawn"), what);
    if tcp {
        let mut session = ProtocolSession::spawn_tcp(p).expect("spawn over TCP");
        assert_round_is_bw_first(&mut session, &format!("{what} over TCP"));
    }
}

#[test]
fn example_tree_in_memory_and_over_tcp() {
    assert_live_is_bw_first(&example_tree(), true, "example tree");
}

#[test]
fn three_hundred_random_trees() {
    for seed in 0..300u64 {
        let cfg = RandomTreeConfig {
            size: 3 + (seed as usize * 37) % 198,
            seed,
            max_children: 1 + seed as usize % 5,
            switch_pct: (seed % 25) as u8,
            ..Default::default()
        };
        let p = random_tree(&cfg);
        assert_live_is_bw_first(&p, seed % 10 == 0, &format!("random tree {cfg:?}"));
    }
}

#[test]
fn hetero_and_wide_families() {
    for seed in 1..=3 {
        for n in [8, 15, 20] {
            assert_live_is_bw_first(&hetero_tree(n, seed), true, &format!("hetero {n} #{seed}"));
        }
        assert_live_is_bw_first(&wide_tree(2000, seed), seed == 1, &format!("wide 2000 #{seed}"));
    }
}

#[test]
fn renegotiation_after_live_reweights() {
    let trees = [example_tree(), hetero_tree(15, 1), random_tree(&RandomTreeConfig::default())];
    for (t, p) in trees.iter().enumerate() {
        let last = NodeId(p.len() as u32 - 1);
        for tcp in [false, true] {
            let mut session = if tcp {
                ProtocolSession::spawn_tcp(p).expect("spawn over TCP")
            } else {
                ProtocolSession::spawn(p).expect("spawn")
            };
            let what = |step: &str| format!("tree {t}, tcp {tcp}: {step}");
            assert_round_is_bw_first(&mut session, &what("first round"));
            session.set_link(NodeId(1), rat(7, 2)).expect("set_link");
            assert_round_is_bw_first(&mut session, &what("after set_link"));
            session.set_weight(NodeId(0), Weight::Time(rat(1, 1))).expect("set_weight");
            assert_round_is_bw_first(&mut session, &what("after set_weight at the root"));
            session.set_weight(last, Weight::Time(rat(1, 2))).expect("set_weight");
            assert_round_is_bw_first(&mut session, &what("after set_weight at a leaf"));
        }
    }
}
