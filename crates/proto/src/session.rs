//! The dispatcher: one loop that runs every node's protocol state and plays
//! the root's virtual parent. A negotiation records each proposal and ack
//! as it is delivered into core's `SolutionRecorder`, so a round returns the
//! `BwFirstSolution` of the messages that actually crossed the links.

use crate::error::ProtoError;
use crate::machine::{NodeMachine, Outgoing};
use crate::messages::{ControlMsg, DownMsg, UpMsg};
use crate::wire::bridge::LinkEndpoints;
use crate::wire::negotiation_wire_bytes;
use bwfirst_core::bwfirst::{t_max, PlatformSource, SolutionRecorder};
use bwfirst_core::schedule::{
    BunchCursor, LocalSchedule, LocalScheduleKind, NodeSchedule, SlotAction,
};
use bwfirst_core::BwFirstSolution;
use bwfirst_obs::{Arg, Event, EventKind, MemoryRecorder, Ts};
use bwfirst_platform::{NodeId, Platform, Weight};
use bwfirst_rational::Rat;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};
/// Result of one distributed negotiation round.
#[derive(Debug, Clone)]
pub struct NegotiationOutcome {
    /// Algorithm 1's result, built from the messages the round delivered.
    pub solution: BwFirstSolution,
    /// Wall-clock duration of the round.
    pub elapsed: Duration,
}

impl NegotiationOutcome {
    /// Total protocol messages exchanged (each carries one number): the
    /// solution's trace plus the virtual parent's proposal and the root's
    /// final ack.
    #[must_use]
    pub fn messages(&self) -> usize {
        self.solution.message_count() + 2
    }

    /// Records the round into a `bwfirst-obs` recorder: one instant event
    /// per visited node (in node order, with its negotiated rates as args)
    /// and the Proposition 2 counters — `proto.proposals`, `proto.acks`,
    /// `proto.messages`, `proto.wire_bytes`, `proto.nodes_visited`,
    /// `proto.nodes_total`. The round's wall-clock latency
    /// ([`elapsed`](Self::elapsed)) is not recorded, so a recording is the
    /// same on every run.
    pub fn record(&self, rec: &mut MemoryRecorder) {
        let s = &self.solution;
        let mut visits: Vec<_> = s.visits.iter().map(|v| (v, 0i128)).collect();
        visits.sort_unstable_by_key(|(v, _)| v.node);
        for parent in s.visits.iter().filter_map(|v| v.parent) {
            if let Ok(k) = visits.binary_search_by_key(&parent, |(v, _)| v.node) {
                visits[k].1 += 1;
            }
        }
        for (v, proposals_sent) in visits {
            let (i, eta_in) = (v.node.0, v.eta_in());
            rec.event(
                Event::new(
                    Ts::new(i128::from(i), 1),
                    i,
                    format!("negotiate P{i}"),
                    EventKind::Instant,
                )
                .arg("alpha", Arg::Rat(v.alpha.numer(), v.alpha.denom()))
                .arg("eta_in", Arg::Rat(eta_in.numer(), eta_in.denom()))
                .arg("proposals_sent", Arg::Int(proposals_sent)),
            );
        }
        // Every visited node received one proposal and sent one ack, the
        // root's on the driver→root edge.
        let visited = s.visit_count() as i128;
        rec.add("proto.proposals", visited);
        rec.add("proto.acks", visited);
        rec.add("proto.messages", self.messages() as i128);
        rec.add("proto.wire_bytes", negotiation_wire_bytes(s) as i128);
        rec.add("proto.nodes_visited", visited);
        rec.add("proto.nodes_total", s.nodes as i128);
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

/// How a message crosses the tree edge into a node. The root's edge comes
/// from the virtual parent.
enum Links {
    /// The message is handed over in memory.
    Memory,
    /// One localhost TCP link ([`crate::wire::bridge::tcp_link`]) carries
    /// every edge's messages: each is framed, crosses a socket and is
    /// decoded again. A round keeps one message in flight, so sharing the
    /// link keeps each edge's messages in FIFO order.
    Tcp(LinkEndpoints),
}

impl Links {
    /// Carries `msg` from `k`'s parent over the link into `k`.
    fn down(&self, k: NodeId, msg: DownMsg) -> Result<DownMsg, ProtoError> {
        match self {
            Links::Memory => Ok(msg),
            Links::Tcp((tx, rx, _, _)) => cross(tx, rx, msg, k),
        }
    }

    /// Carries `msg` from `k` over the link to its parent.
    fn up(&self, k: NodeId, msg: UpMsg) -> Result<UpMsg, ProtoError> {
        match self {
            Links::Memory => Ok(msg),
            Links::Tcp((_, _, tx, rx)) => cross(tx, rx, msg, k),
        }
    }
}

/// Sends `msg` into one direction of the link into `k` and takes it out at
/// the far end.
fn cross<T>(tx: &Sender<T>, rx: &Receiver<T>, msg: T, k: NodeId) -> Result<T, ProtoError> {
    tx.send(msg).ok().and_then(|()| rx.recv().ok()).ok_or(ProtoError::ChannelClosed { node: k.0 })
}

/// The one message in flight. A round proposes to one child and waits for
/// its ack, and a task travels to the node that computes it before the next
/// one leaves the root, so each link carries at most one message at a time
/// and delivery is trivially FIFO per link.
enum Hop {
    /// `msg` crosses the link from the node's parent into the node.
    Down(NodeId, DownMsg),
    /// `msg` crosses the link from the node to its parent.
    Up(NodeId, UpMsg),
}

/// One node's state: its negotiation machine and flow-phase counters, all
/// local knowledge.
struct Node {
    machine: NodeMachine,
    schedule: Option<LocalSchedule>,
    cursor: BunchCursor,
    computed: u64,
    forwarded: u64,
    bytes_processed: u64,
    checksum: u64,
}

impl Node {
    fn id(&self) -> u32 {
        self.machine.id()
    }

    /// Builds the event-driven local schedule from the node's own rates —
    /// the Section 6.2 quantities need nothing but `α` and the `η_i`.
    fn build_schedule(&self) -> Result<Option<LocalSchedule>, ProtoError> {
        let alpha = self.machine.alpha();
        let flows = self.machine.flows();
        if !alpha.is_positive() && flows.iter().all(|f| !f.is_positive()) {
            return Ok(None);
        }
        let children =
            self.machine.children().iter().zip(flows).map(|(&(k, c), &eta)| (NodeId(k), c, eta));
        let sched = NodeSchedule::from_rates(NodeId(self.id()), alpha, children)
            .map_err(|_| ProtoError::PeriodOverflow { node: self.id() })?;
        Ok(Some(LocalSchedule::build(&sched, LocalScheduleKind::Interleaved)))
    }

    /// Builds the schedule, with a cursor at its first slot, if the rates
    /// changed since the last one.
    fn ensure_schedule(&mut self) -> Result<(), ProtoError> {
        if self.schedule.is_none() {
            self.schedule = self.build_schedule()?;
            self.cursor = self.schedule.as_ref().map(|s| s.actions.cursor()).unwrap_or_default();
        }
        Ok(())
    }

    /// Routes one arriving task by the next slot of the local schedule:
    /// computes it here or returns the hop to the chosen child.
    fn route_task(&mut self, payload: Arc<[u8]>) -> Result<Option<Hop>, ProtoError> {
        self.ensure_schedule()?;
        let Some((action, _)) = self.cursor.step() else {
            // An inactive node (empty cursor) received a task: the
            // negotiation said it gets none, so this indicates a routing bug
            // upstream.
            return Err(ProtoError::NoSchedule { node: self.id() });
        };
        match action {
            SlotAction::Compute => {
                self.process(&payload);
                Ok(None)
            }
            SlotAction::Send(child) => {
                self.forwarded += 1;
                Ok(Some(Hop::Down(child, DownMsg::Task(payload))))
            }
        }
    }

    /// "Computes" one task: folds the payload into a checksum, standing in
    /// for real work while keeping the bytes actually read.
    fn process(&mut self, payload: &[u8]) {
        let mut acc = self.checksum;
        for chunk in payload.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            acc = acc.rotate_left(7) ^ u64::from_le_bytes(word);
        }
        self.checksum = acc;
        self.bytes_processed += payload.len() as u64;
        self.computed += 1;
    }
}

/// A live protocol session: every node's state plus the links between them,
/// driven on the caller's thread.
pub struct ProtocolSession {
    platform: Platform,
    nodes: Vec<Node>,
    links: Links,
    /// The solution of the round in flight, built as its messages arrive.
    round: Option<SolutionRecorder>,
}

impl ProtocolSession {
    /// Sets up one node state per platform node; messages cross the tree's
    /// edges in memory.
    ///
    /// # Errors
    /// [`ProtoError::MissingLink`] if a non-root node has no link weight.
    pub fn spawn(platform: &Platform) -> Result<ProtocolSession, ProtoError> {
        Self::with_links(platform, Links::Memory)
    }

    /// Sets up the session with every message crossing one real localhost
    /// TCP socket pair (framed with the [`crate::wire`] codec), whatever the
    /// platform's size: four pump threads and two connections. The protocol is
    /// byte-for-byte the one `spawn` runs in memory — this is the "practical
    /// and scalable implementation" of Section 5 on an actual network stack.
    ///
    /// # Errors
    /// [`ProtoError::Transport`] if localhost sockets cannot be created,
    /// [`ProtoError::MissingLink`] if a non-root node has no link weight.
    pub fn spawn_tcp(platform: &Platform) -> Result<ProtocolSession, ProtoError> {
        Self::with_links(platform, Links::Tcp(crate::wire::bridge::tcp_link()?))
    }

    fn with_links(platform: &Platform, links: Links) -> Result<ProtocolSession, ProtoError> {
        let mut nodes = Vec::with_capacity(platform.len());
        for id in platform.node_ids() {
            let mut children = Vec::with_capacity(platform.children(id).len());
            for &k in platform.children(id) {
                let c = platform.link_time(k).ok_or(ProtoError::MissingLink { child: k.0 })?;
                children.push((k.0, c));
            }
            nodes.push(Node {
                machine: NodeMachine::new(id.0, platform.weight(id), children),
                schedule: None,
                cursor: BunchCursor::default(),
                computed: 0,
                forwarded: 0,
                bytes_processed: 0,
                checksum: 0,
            });
        }
        Ok(ProtocolSession { platform: platform.clone(), nodes, links, round: None })
    }

    /// Delivers messages until none is in flight. Returns `true` if the last
    /// message was the root's ack to the virtual parent.
    fn pump(&mut self, mut next: Option<Hop>) -> Result<bool, ProtoError> {
        while let Some(hop) = next {
            next = match hop {
                Hop::Down(k, msg) => {
                    let msg = self.links.down(k, msg)?;
                    self.on_down(k, msg)?
                }
                Hop::Up(k, msg) => {
                    let UpMsg::Ack(theta) = self.links.up(k, msg)?;
                    if let Some(round) = &mut self.round {
                        round.close(theta);
                    }
                    let Some(p) = self.platform.parent(k) else { return Ok(true) };
                    let out = self.nodes[p.index()].machine.on_ack(k.0, theta)?;
                    Some(self.emit(p, out))
                }
            };
        }
        Ok(false)
    }

    /// Node `k` acts on a message from its parent and returns what it sends.
    fn on_down(&mut self, k: NodeId, msg: DownMsg) -> Result<Option<Hop>, ProtoError> {
        let node = &mut self.nodes[k.index()];
        match msg {
            DownMsg::Proposal(lambda) => {
                let out = node.machine.on_proposal(lambda)?;
                if let Some(round) = &mut self.round {
                    round.open(k, lambda, node.machine.alpha());
                }
                Ok(Some(self.emit(k, out)))
            }
            DownMsg::Task(payload) => node.route_task(payload),
            DownMsg::Control { target, change } => {
                if target != k.0 {
                    return Err(ProtoError::UnroutableControl { node: k.0, target });
                }
                match change {
                    ControlMsg::SetWeight(w) => node.machine.set_weight(w),
                    ControlMsg::SetLink { child, c } => node.machine.set_link(child, c)?,
                }
                node.schedule = None;
                Ok(None)
            }
        }
    }

    /// Turns the transmission node `k`'s machine requires into the hop that
    /// carries it.
    fn emit(&mut self, k: NodeId, out: Outgoing) -> Hop {
        match out {
            Outgoing::ToChild { child, beta, .. } => {
                Hop::Down(NodeId(child), DownMsg::Proposal(beta))
            }
            Outgoing::AckParent { theta } => {
                // Rates changed: any previously built schedule is stale.
                self.nodes[k.index()].schedule = None;
                Hop::Up(k, UpMsg::Ack(theta))
            }
        }
    }

    /// Runs one `BW-First` round over the live node states. Its solution is
    /// recorded from the proposals and acks as each is delivered, after it
    /// crossed its link.
    ///
    /// # Errors
    /// A [`ProtoError`] if a node breaks the protocol or a link closes.
    pub fn negotiate(&mut self) -> Result<NegotiationOutcome, ProtoError> {
        let t_max = t_max(&PlatformSource(&self.platform));
        self.round = Some(SolutionRecorder::new(self.nodes.len()));
        let started = Instant::now();
        let root = self.platform.root();
        let closed = self.pump(Some(Hop::Down(root, DownMsg::Proposal(t_max))));
        let elapsed = started.elapsed();
        let round = self.round.take();
        match (closed?, round) {
            (true, Some(round)) => Ok(NegotiationOutcome { solution: round.finish(), elapsed }),
            _ => Err(ProtoError::ChannelClosed { node: root.0 }),
        }
    }

    /// Streams `bunches` root bunches of `payload_len`-byte tasks through
    /// the tree under the negotiated event-driven schedules. Call after at
    /// least one [`negotiate`](Self::negotiate).
    ///
    /// # Errors
    /// A [`ProtoError`] if a schedule cannot be built or a link closes.
    pub fn run_flow(
        &mut self,
        bunches: u64,
        payload_len: usize,
    ) -> Result<FlowOutcome, ProtoError> {
        let started = Instant::now();
        let root = self.platform.root();
        let root_node = &mut self.nodes[root.index()];
        root_node.ensure_schedule()?;
        let bunch = root_node.schedule.as_ref().map_or(0, |s| s.actions.len());
        let template: Arc<[u8]> = vec![0xA5u8; payload_len].into();
        for _ in 0..i128::from(bunches) * bunch {
            let next = self.on_down(root, DownMsg::Task(template.clone()))?;
            self.pump(next)?;
        }
        let elapsed = started.elapsed();
        let n = self.nodes.len();
        let mut outcome = FlowOutcome {
            computed: Vec::with_capacity(n),
            forwarded: Vec::with_capacity(n),
            bytes_processed: Vec::with_capacity(n),
            elapsed,
        };
        for node in &mut self.nodes {
            outcome.computed.push(std::mem::take(&mut node.computed));
            outcome.forwarded.push(std::mem::take(&mut node.forwarded));
            outcome.bytes_processed.push(std::mem::take(&mut node.bytes_processed));
            node.cursor.restart();
        }
        Ok(outcome)
    }

    /// Carries a control message hop by hop along the root→target path,
    /// found from parent pointers, and applies it at the target.
    fn control(&mut self, target: NodeId, change: ControlMsg) -> Result<(), ProtoError> {
        // Nearest ancestor first: popping walks the path from the root.
        let mut relays: Vec<NodeId> = self.platform.ancestors(target).collect();
        let mut msg = DownMsg::Control { target: target.0, change };
        while let Some(k) = relays.pop() {
            msg = self.links.down(k, msg)?;
        }
        self.pump(Some(Hop::Down(target, msg)))?;
        Ok(())
    }

    /// Re-weights a node's processing time on the live node state (and in
    /// the driver's mirror). Takes effect for subsequent negotiations.
    ///
    /// # Errors
    /// [`ProtoError::ChannelClosed`] if a link on the way closes.
    pub fn set_weight(&mut self, node: NodeId, w: Weight) -> Result<(), ProtoError> {
        self.platform.set_weight(node, w);
        self.control(node, ControlMsg::SetWeight(w))
    }

    /// Re-weights the link into `child` on the live parent node (and in the
    /// driver's mirror).
    ///
    /// # Errors
    /// [`ProtoError::NoParent`] for the root,
    /// [`ProtoError::ChannelClosed`] if a link on the way closes.
    pub fn set_link(&mut self, child: NodeId, c: Rat) -> Result<(), ProtoError> {
        let parent = self.platform.parent(child).ok_or(ProtoError::NoParent { child: child.0 })?;
        self.platform.set_link_time(child, c);
        self.control(parent, ControlMsg::SetLink { child: child.0, c })
    }

    /// The driver's current view of the platform (mirrors live re-weights).
    #[must_use]
    pub fn platform(&self) -> &Platform {
        &self.platform
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
        let mut session = ProtocolSession::spawn(&p).unwrap();
        let out = session.negotiate().unwrap();
        assert_eq!(out.solution, bw_first(&p));
        assert_eq!(out.solution.throughput(), example_throughput());
        // 7 transactions + the virtual parent's: 8 proposals + 8 acks.
        assert_eq!(out.messages(), 16);
        // Each visited node has exactly one incoming edge (the root's being
        // virtual): 2 messages — one rational each way — per visited edge.
        assert_eq!(out.messages(), 2 * out.solution.visit_count());
    }

    #[test]
    fn negotiation_records_into_obs() {
        let p = example_tree();
        let mut session = ProtocolSession::spawn(&p).unwrap();
        let out = session.negotiate().unwrap();
        let mut rec = bwfirst_obs::MemoryRecorder::new();
        out.record(&mut rec);
        assert_eq!(rec.metrics.counter("proto.nodes_visited"), 8);
        assert_eq!(rec.metrics.counter("proto.nodes_total"), 12);
        assert_eq!(rec.metrics.counter("proto.proposals"), 8);
        assert_eq!(rec.metrics.counter("proto.acks"), 8);
        assert_eq!(rec.metrics.counter("proto.messages"), 16);
        assert_eq!(rec.events.len(), 8, "one instant per visited node");
        // The octet count is the codec replaying the centralized trace.
        let bytes = crate::wire::negotiation_wire_bytes(&bw_first(&p));
        assert_eq!(rec.metrics.counter("proto.wire_bytes"), bytes as i128);
    }

    #[test]
    fn unvisited_actors_stay_out_of_the_round() {
        let p = example_tree();
        let mut session = ProtocolSession::spawn(&p).unwrap();
        let out = session.negotiate().unwrap();
        assert_eq!(out.solution.unvisited(), example_unvisited());
        for id in example_unvisited() {
            assert!(out.solution.visits.iter().all(|v| v.node != id));
        }
    }

    #[test]
    fn negotiation_is_repeatable() {
        let p = example_tree();
        let mut session = ProtocolSession::spawn(&p).unwrap();
        let first = session.negotiate().unwrap();
        for _ in 0..5 {
            assert_eq!(session.negotiate().unwrap().solution, first.solution);
        }
    }

    #[test]
    fn matches_centralized_on_random_trees() {
        for seed in 0..8 {
            let p = random_tree(&RandomTreeConfig { size: 48, seed, ..Default::default() });
            let mut session = ProtocolSession::spawn(&p).unwrap();
            assert_eq!(session.negotiate().unwrap().solution, bw_first(&p), "seed {seed}");
        }
    }

    #[test]
    fn reweighting_changes_the_next_round() {
        let p = example_tree();
        let mut session = ProtocolSession::spawn(&p).unwrap();
        assert_eq!(session.negotiate().unwrap().solution.throughput(), rat(10, 9));
        // Slow the root→P3 link so P3's subtree starves: the root port can
        // still feed P1 and P2 fully (2/3 busy) and spends the remaining 1/3
        // sending at bandwidth 1/10 → 1/9 + 1/3 + 1/3 + 1/30.
        session.set_link(NodeId(3), rat(10, 1)).unwrap();
        let slowed = session.negotiate().unwrap().solution;
        assert_eq!(slowed.throughput(), rat(1, 9) + rat(2, 3) + rat(1, 30));
        // Centralized solver on the mirrored platform agrees.
        assert_eq!(slowed, bw_first(session.platform()));
        // Speeding a worker's CPU raises throughput again.
        session.set_weight(NodeId(1), Weight::Time(rat(3, 1))).unwrap();
        let faster = session.negotiate().unwrap().solution;
        assert_eq!(faster, bw_first(session.platform()));
        assert!(faster.throughput() > slowed.throughput());
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
        let mut session = ProtocolSession::spawn(&p).unwrap();
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
        let mut session = ProtocolSession::spawn(&p).unwrap();
        let _ = session.negotiate().unwrap();
        let a = session.run_flow(3, 16).unwrap();
        let b = session.run_flow(3, 16).unwrap();
        assert_eq!(a.total_computed(), 30);
        assert_eq!(b.total_computed(), 30);
        assert_eq!(a.computed, b.computed);
    }
}
