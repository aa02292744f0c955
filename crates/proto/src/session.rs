//! The driver: spawns the actor tree and plays the virtual parent.

use crate::actor::{Actor, ChildLink};
use crate::error::ProtoError;
use crate::messages::{ControlMsg, DownMsg, Report, UpMsg};
use bwfirst_obs::{Arg, Event, EventKind, Recorder, Ts};
use bwfirst_platform::{NodeId, Platform, Weight};
use bwfirst_rational::Rat;
use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Result of one distributed negotiation round.
#[derive(Debug, Clone)]
pub struct NegotiationOutcome {
    /// The virtual parent's proposal `t_max`.
    pub t_max: Rat,
    /// Steady-state throughput: `t_max − θ_root`.
    pub throughput: Rat,
    /// Per-node negotiated compute rates (0 for unvisited nodes).
    pub alpha: Vec<Rat>,
    /// Per-node negotiated inflow rates (0 for unvisited nodes).
    pub eta_in: Vec<Rat>,
    /// Which nodes took part in the round.
    pub visited: Vec<bool>,
    /// Proposals each node sent to its children (acks received match
    /// one-for-one; 0 for unvisited nodes and leaves).
    pub proposals_sent: Vec<u64>,
    /// Total protocol messages exchanged (each carries one number), counting
    /// the virtual parent's proposal and the root's final ack.
    pub protocol_messages: u64,
    /// Total encoded octets of the round, virtual-parent edge included.
    pub wire_bytes: u64,
    /// Wall-clock duration of the round.
    pub elapsed: Duration,
}

impl NegotiationOutcome {
    /// How many nodes took part in the round.
    #[must_use]
    pub fn visited_count(&self) -> usize {
        self.visited.iter().filter(|&&v| v).count()
    }

    /// Records the round into a `bwfirst-obs` recorder: one instant event
    /// per visited node (in node order, with its negotiated rates as args)
    /// and the Proposition 2 counters — `proto.proposals`, `proto.acks`,
    /// `proto.messages`, `proto.wire_bytes`, `proto.nodes_visited`,
    /// `proto.nodes_total` — plus a `proto.negotiate_micros` histogram
    /// sample for the round's wall-clock latency.
    pub fn record(&self, rec: &mut impl Recorder) {
        if !rec.enabled() {
            return;
        }
        let proposals: u64 = self.proposals_sent.iter().sum();
        for (i, &v) in self.visited.iter().enumerate() {
            if !v {
                continue;
            }
            rec.event(
                Event::new(
                    Ts::new(i as i128, 1),
                    i as u32,
                    format!("negotiate P{i}"),
                    EventKind::Instant,
                )
                .arg("alpha", Arg::Rat(self.alpha[i].numer(), self.alpha[i].denom()))
                .arg("eta_in", Arg::Rat(self.eta_in[i].numer(), self.eta_in[i].denom()))
                .arg("proposals_sent", Arg::Int(i128::from(self.proposals_sent[i]))),
            );
        }
        // Every proposal down is answered by one ack up; the virtual parent
        // contributes one of each on the driver→root edge.
        rec.add("proto.proposals", i128::from(proposals) + 1);
        rec.add("proto.acks", i128::from(proposals) + 1);
        rec.add("proto.messages", i128::from(self.protocol_messages));
        rec.add("proto.wire_bytes", i128::from(self.wire_bytes));
        rec.add("proto.nodes_visited", self.visited_count() as i128);
        rec.add("proto.nodes_total", self.visited.len() as i128);
        // lint: allow(float) — histogram export is the quantize boundary.
        rec.observe("proto.negotiate_micros", self.elapsed.as_secs_f64() * 1e6);
    }
}

/// Result of one flow phase (real payloads routed through the tree).
#[derive(Debug, Clone)]
pub struct FlowOutcome {
    /// Tasks computed per node.
    pub computed: Vec<u64>,
    /// Tasks forwarded downstream per node.
    pub forwarded: Vec<u64>,
    /// Payload bytes folded into checksums per node.
    pub bytes_processed: Vec<u64>,
    /// Wall-clock duration of the phase.
    pub elapsed: Duration,
}

impl FlowOutcome {
    /// Total tasks computed platform-wide.
    #[must_use]
    pub fn total_computed(&self) -> u64 {
        self.computed.iter().sum()
    }
}

/// The canonical virtual-parent proposal for a platform: the root's compute
/// rate plus its best child bandwidth — the `t_max` a round opens with. Also
/// used by the `crates/analyze` model checker so the exhaustive exploration
/// opens every round exactly like the live driver.
///
/// # Errors
/// [`ProtoError::MissingLink`] if a root child has no link weight.
pub fn virtual_proposal(platform: &Platform) -> Result<Rat, ProtoError> {
    let root = platform.root();
    let mut best = Rat::ZERO;
    for &k in platform.children(root) {
        let bw = platform.bandwidth(k).ok_or(ProtoError::MissingLink { child: k.0 })?;
        best = best.max(bw);
    }
    Ok(platform.compute_rate(root) + best)
}

/// Takes the link endpoint in `slot` out for its one owner.
fn take<T>(slots: &mut [Option<T>], slot: usize) -> Result<T, ProtoError> {
    slots.get_mut(slot).and_then(Option::take).ok_or(ProtoError::DriverLinkClosed)
}

/// A live actor tree. Dropping the session shuts the actors down.
pub struct ProtocolSession {
    platform: Platform,
    root_tx: Sender<DownMsg>,
    root_rx: Receiver<UpMsg>,
    report_rx: Receiver<Report>,
    handles: Vec<JoinHandle<Result<(), ProtoError>>>,
}

impl ProtocolSession {
    /// Spawns one actor thread per platform node, wired with channels that
    /// mirror the tree's edges.
    ///
    /// # Errors
    /// [`ProtoError::Spawn`] if an actor thread cannot be started.
    pub fn spawn(platform: &Platform) -> Result<ProtocolSession, ProtoError> {
        Self::spawn_with_links(platform, || {
            let (dt, dr) = channel();
            let (ut, ur) = channel();
            Ok((dt, dr, ut, ur))
        })
    }

    /// Spawns the actor tree with every link crossing a real localhost TCP
    /// socket pair (framed with the [`crate::wire`] codec). The protocol is
    /// byte-for-byte the one `spawn` runs over channels — this is the
    /// "practical and scalable implementation" of Section 5 on an actual
    /// network stack.
    ///
    /// # Errors
    /// [`ProtoError::Transport`] if localhost sockets cannot be created,
    /// [`ProtoError::Spawn`] if a thread cannot be started.
    pub fn spawn_tcp(platform: &Platform) -> Result<ProtocolSession, ProtoError> {
        Self::spawn_with_links(platform, || {
            crate::wire::bridge::tcp_link().map_err(ProtoError::Transport)
        })
    }

    /// Shared wiring: one actor per node; `make_link` supplies the transport
    /// of each parent→child edge (including the driver→root edge).
    fn spawn_with_links<F>(platform: &Platform, make_link: F) -> Result<ProtocolSession, ProtoError>
    where
        F: Fn() -> Result<crate::wire::bridge::LinkEndpoints, ProtoError>,
    {
        let n = platform.len();
        let (report_tx, report_rx) = channel();
        // Per-node link endpoints for the edge *into* that node. Each endpoint
        // has one owner and is taken out of its slot exactly once; a missing
        // one means the wiring below is broken, which the typed error
        // surfaces instead of a panic.
        let (mut down_tx, mut down_rx, mut up_tx, mut up_rx) = (
            Vec::with_capacity(n),
            Vec::with_capacity(n),
            Vec::with_capacity(n),
            Vec::with_capacity(n),
        );
        for _ in 0..n {
            let (dt, dr, ut, ur) = make_link()?;
            down_tx.push(Some(dt));
            down_rx.push(Some(dr));
            up_tx.push(Some(ut));
            up_rx.push(Some(ur));
        }
        let root_tx = take(&mut down_tx, 0)?;
        let root_rx = take(&mut up_rx, 0)?;

        let mut handles = Vec::with_capacity(n);
        for id in platform.node_ids() {
            let i = id.index();
            let parent_rx = take(&mut down_rx, i)?;
            let parent_tx = take(&mut up_tx, i)?;
            let mut children = Vec::new();
            for &k in platform.children(id) {
                let c = platform.link_time(k).ok_or(ProtoError::MissingLink { child: k.0 })?;
                let link = ChildLink {
                    id: k.0,
                    tx: take(&mut down_tx, k.index())?,
                    rx: take(&mut up_rx, k.index())?,
                };
                children.push((link, c));
            }
            // Harness routing table: descendant → child slot.
            let mut route = HashMap::new();
            for (slot, &k) in platform.children(id).iter().enumerate() {
                for d in platform.preorder_bandwidth_centric(k) {
                    route.insert(d.0, slot);
                }
            }
            let actor = Actor::new(
                id.0,
                platform.weight(id),
                parent_rx,
                parent_tx,
                children,
                route,
                report_tx.clone(),
            );
            handles.push(
                std::thread::Builder::new()
                    .name(format!("bwfirst-{id}"))
                    .spawn(move || actor.run())
                    .map_err(|e| ProtoError::Spawn { node: id.0, error: e.to_string() })?,
            );
        }
        Ok(ProtocolSession { platform: platform.clone(), root_tx, root_rx, report_rx, handles })
    }

    /// The canonical virtual-parent proposal for the current platform state.
    fn t_max(&self) -> Result<Rat, ProtoError> {
        virtual_proposal(&self.platform)
    }

    /// Runs one `BW-First` round over the live actors.
    ///
    /// # Errors
    /// [`ProtoError::DriverLinkClosed`] if the root actor is gone (e.g. a
    /// protocol violation stopped it — join the thread for the cause).
    pub fn negotiate(&self) -> Result<NegotiationOutcome, ProtoError> {
        let t_max = self.t_max()?;
        let started = Instant::now();
        self.root_tx.send(DownMsg::Proposal(t_max)).map_err(|_| ProtoError::DriverLinkClosed)?;
        let UpMsg::Ack(theta) = self.root_rx.recv().map_err(|_| ProtoError::DriverLinkClosed)?;
        let elapsed = started.elapsed();
        let n = self.platform.len();
        let mut alpha = vec![Rat::ZERO; n];
        let mut eta_in = vec![Rat::ZERO; n];
        let mut visited = vec![false; n];
        let mut proposals_sent = vec![0u64; n];
        // The virtual parent's proposal and the root's ack to it.
        let mut protocol_messages = 1u64;
        let mut wire_bytes = crate::wire::encode_down(&DownMsg::Proposal(t_max)).len() as u64;
        // All reports were enqueued before the root's ack (happens-before
        // along the DFS), so a non-blocking drain sees them all.
        for report in self.report_rx.try_iter() {
            if let Report::Negotiation {
                node,
                alpha: a,
                eta_in: e,
                proposals_sent: p,
                wire_bytes_sent: b,
            } = report
            {
                let i = node as usize;
                alpha[i] = a;
                eta_in[i] = e;
                visited[i] = true;
                proposals_sent[i] = p;
                // Each visited node sends its proposals plus its own ack.
                protocol_messages += p + 1;
                wire_bytes += b;
            }
        }
        Ok(NegotiationOutcome {
            t_max,
            throughput: t_max - theta,
            alpha,
            eta_in,
            visited,
            proposals_sent,
            protocol_messages,
            wire_bytes,
            elapsed,
        })
    }

    /// Streams `bunches` root bunches of `payload_len`-byte tasks through
    /// the tree under the negotiated event-driven schedules. Call after at
    /// least one [`negotiate`](Self::negotiate).
    ///
    /// # Errors
    /// [`ProtoError::DriverLinkClosed`] if the actor tree died mid-flow.
    pub fn run_flow(&self, bunches: u64, payload_len: usize) -> Result<FlowOutcome, ProtoError> {
        let n = self.platform.len();
        let started = Instant::now();
        self.root_tx
            .send(DownMsg::StartFlow { bunches, payload_len })
            .map_err(|_| ProtoError::DriverLinkClosed)?;
        let mut computed = vec![0u64; n];
        let mut forwarded = vec![0u64; n];
        let mut bytes_processed = vec![0u64; n];
        let mut seen = 0usize;
        while seen < n {
            match self.report_rx.recv().map_err(|_| ProtoError::DriverLinkClosed)? {
                Report::Flow { node, computed: c, forwarded: f, bytes_processed: b } => {
                    let i = node as usize;
                    computed[i] = c;
                    forwarded[i] = f;
                    bytes_processed[i] = b;
                    seen += 1;
                }
                Report::Negotiation { .. } => {}
            }
        }
        Ok(FlowOutcome { computed, forwarded, bytes_processed, elapsed: started.elapsed() })
    }

    /// Re-weights a node's processing time on the live actor (and in the
    /// driver's mirror). Takes effect for subsequent negotiations.
    ///
    /// # Errors
    /// [`ProtoError::DriverLinkClosed`] if the actor tree is gone.
    pub fn set_weight(&mut self, node: NodeId, w: Weight) -> Result<(), ProtoError> {
        self.platform.set_weight(node, w);
        self.root_tx
            .send(DownMsg::Control { target: node.0, change: ControlMsg::SetWeight(w) })
            .map_err(|_| ProtoError::DriverLinkClosed)
    }

    /// Re-weights the link into `child` on the live parent actor (and in the
    /// driver's mirror).
    ///
    /// # Errors
    /// [`ProtoError::NoParent`] for the root,
    /// [`ProtoError::DriverLinkClosed`] if the actor tree is gone.
    pub fn set_link(&mut self, child: NodeId, c: Rat) -> Result<(), ProtoError> {
        let parent = self.platform.parent(child).ok_or(ProtoError::NoParent { child: child.0 })?;
        self.platform.set_link_time(child, c);
        self.root_tx
            .send(DownMsg::Control {
                target: parent.0,
                change: ControlMsg::SetLink { child: child.0, c },
            })
            .map_err(|_| ProtoError::DriverLinkClosed)
    }

    /// The driver's current view of the platform (mirrors live re-weights).
    #[must_use]
    pub fn platform(&self) -> &Platform {
        &self.platform
    }
}

impl Drop for ProtocolSession {
    fn drop(&mut self) {
        let _ = self.root_tx.send(DownMsg::Shutdown);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwfirst_core::bw_first;
    use bwfirst_platform::examples::{example_throughput, example_tree, example_unvisited};
    use bwfirst_platform::generators::{random_tree, RandomTreeConfig};
    use bwfirst_rational::rat;

    #[test]
    fn distributed_negotiation_matches_centralized() {
        let p = example_tree();
        let session = ProtocolSession::spawn(&p).unwrap();
        let out = session.negotiate().unwrap();
        let reference = bw_first(&p);
        assert_eq!(out.throughput, example_throughput());
        assert_eq!(out.alpha, reference.alpha);
        assert_eq!(out.eta_in, reference.eta_in);
        assert_eq!(out.visited, reference.visited);
        // 7 transactions + the virtual parent's: 8 proposals + 8 acks.
        assert_eq!(out.protocol_messages, 16);
        // Each visited node has exactly one incoming edge (the root's being
        // virtual): 2 messages — one rational each way — per visited edge.
        assert_eq!(out.protocol_messages, 2 * out.visited_count() as u64);
        assert_eq!(out.proposals_sent.iter().sum::<u64>(), 7);
        // The octet count matches the codec replaying the centralized trace.
        assert_eq!(out.wire_bytes, crate::wire::negotiation_wire_bytes(&reference) as u64);
    }

    #[test]
    fn negotiation_records_into_obs() {
        let p = example_tree();
        let session = ProtocolSession::spawn(&p).unwrap();
        let out = session.negotiate().unwrap();
        let mut rec = bwfirst_obs::MemoryRecorder::new();
        out.record(&mut rec);
        assert_eq!(rec.metrics.counter("proto.nodes_visited"), 8);
        assert_eq!(rec.metrics.counter("proto.nodes_total"), 12);
        assert_eq!(rec.metrics.counter("proto.proposals"), 8);
        assert_eq!(rec.metrics.counter("proto.acks"), 8);
        assert_eq!(rec.metrics.counter("proto.messages"), 16);
        assert_eq!(rec.events.len(), 8, "one instant per visited node");
        assert!(rec.metrics.counter("proto.wire_bytes") > 0);
        // The no-op recorder takes the early-out path.
        out.record(&mut bwfirst_obs::Noop);
    }

    #[test]
    fn unvisited_actors_stay_out_of_the_round() {
        let p = example_tree();
        let session = ProtocolSession::spawn(&p).unwrap();
        let out = session.negotiate().unwrap();
        for id in example_unvisited() {
            assert!(!out.visited[id.index()]);
            assert!(out.alpha[id.index()].is_zero());
        }
    }

    #[test]
    fn negotiation_is_repeatable() {
        let p = example_tree();
        let session = ProtocolSession::spawn(&p).unwrap();
        let first = session.negotiate().unwrap();
        for _ in 0..5 {
            let again = session.negotiate().unwrap();
            assert_eq!(again.throughput, first.throughput);
            assert_eq!(again.protocol_messages, first.protocol_messages);
        }
    }

    #[test]
    fn matches_centralized_on_random_trees() {
        for seed in 0..8 {
            let p = random_tree(&RandomTreeConfig { size: 48, seed, ..Default::default() });
            let session = ProtocolSession::spawn(&p).unwrap();
            let out = session.negotiate().unwrap();
            assert_eq!(out.throughput, bw_first(&p).throughput(), "seed {seed}");
        }
    }

    #[test]
    fn reweighting_changes_the_next_round() {
        let p = example_tree();
        let mut session = ProtocolSession::spawn(&p).unwrap();
        assert_eq!(session.negotiate().unwrap().throughput, rat(10, 9));
        // Slow the root→P3 link so P3's subtree starves: the root port can
        // still feed P1 and P2 fully (2/3 busy) and spends the remaining 1/3
        // sending at bandwidth 1/10 → 1/9 + 1/3 + 1/3 + 1/30.
        session.set_link(NodeId(3), rat(10, 1)).unwrap();
        let slowed = session.negotiate().unwrap();
        assert_eq!(slowed.throughput, rat(1, 9) + rat(2, 3) + rat(1, 30));
        // Centralized solver on the mirrored platform agrees.
        assert_eq!(slowed.throughput, bw_first(session.platform()).throughput());
        // Speeding a worker's CPU raises throughput again.
        session.set_weight(NodeId(1), Weight::Time(rat(3, 1))).unwrap();
        let faster = session.negotiate().unwrap();
        assert_eq!(faster.throughput, bw_first(session.platform()).throughput());
        assert!(faster.throughput > slowed.throughput);
    }

    #[test]
    fn reweighting_the_root_link_is_a_typed_error() {
        let p = example_tree();
        let mut session = ProtocolSession::spawn(&p).unwrap();
        assert!(matches!(
            session.set_link(NodeId(0), Rat::ONE),
            Err(ProtoError::NoParent { child: 0 })
        ));
    }

    #[test]
    fn flow_routes_exact_proportions() {
        let p = example_tree();
        let session = ProtocolSession::spawn(&p).unwrap();
        let _ = session.negotiate().unwrap();
        // 12 root bunches of Ψ=10 tasks: η ratios are exact at this horizon.
        let flow = session.run_flow(12, 64).unwrap();
        assert_eq!(flow.total_computed(), 120);
        assert_eq!(flow.computed[0], 12); // ψ_self = 1 of 10
        for i in [1usize, 2, 3] {
            assert_eq!(flow.computed[i] + flow.forwarded[i], 36, "P{i} handles 3 per bunch");
        }
        assert_eq!(flow.computed[4], 18);
        assert_eq!(flow.computed[7], 9);
        assert_eq!(flow.computed[8], 9);
        for i in [5usize, 9, 10, 11] {
            assert_eq!(flow.computed[i], 0);
            assert_eq!(flow.forwarded[i], 0);
        }
        // Every computed task folded its 64-byte payload.
        for (i, &b) in flow.bytes_processed.iter().enumerate() {
            assert_eq!(b, flow.computed[i] * 64, "bytes at P{i}");
        }
    }

    #[test]
    fn flow_can_run_repeatedly() {
        let p = example_tree();
        let session = ProtocolSession::spawn(&p).unwrap();
        let _ = session.negotiate().unwrap();
        let a = session.run_flow(3, 16).unwrap();
        let b = session.run_flow(3, 16).unwrap();
        assert_eq!(a.total_computed(), 30);
        assert_eq!(b.total_computed(), 30);
        assert_eq!(a.computed, b.computed);
    }
}
