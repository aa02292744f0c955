//! A demand-driven autonomous protocol in the style of Kreaseck et al. —
//! the baseline the paper compares against (Sections 2 and 7).
//!
//! No node knows any rates. Instead each node tries to keep a local stock of
//! [`STOCK_TARGET`] tasks on top of what its children asked it for: it
//! *requests* tasks from its parent (control messages of negligible size,
//! modeled as instantaneous), so demand propagates from the actual
//! consumers up to the root and a pure switch never hoards tasks nobody
//! downstream asked for. A parent with a free sending port and a buffered
//! task serves the *fastest-link* child among those with pending requests
//! — the bandwidth-centric tie-break. CPUs consume greedily from the local
//! buffer, with child service taking priority when both want the same task.
//!
//! Both of Kreaseck et al.'s communication models are implemented
//! ([`DemandConfig::interruptible`]):
//!
//! * **non-interruptible** (the paper's own model): once a long send to a
//!   slow child starts, a faster child's request waits — the head-of-line
//!   blocking behind the long start-up phases Section 2 describes;
//! * **interruptible**: a request from a higher-priority (faster-link)
//!   child pauses the ongoing transfer, which resumes later with its
//!   remaining time preserved.
//!
//! As the paper observes of this class of protocols, decisions are locally
//! greedy and can be non-optimal: start-up phases stretch and buffers grow
//! compared with the event-driven schedule (experiment E7).
//!
//! Between events every node below the root holds exactly its demand:
//! `buffered + in-flight + outstanding` equals its own target plus its
//! children's `outstanding` requests. Sends and deliveries keep that
//! balance; a CPU start takes one task and so *climbs*: it adds one to
//! `outstanding` on every node from itself up to the root's child, then
//! dispatches those ancestors root first, from an explicit stack. At
//! `t = 0` (ids list parents first, no task below the root) each node
//! under the root's children requests its subtree's targets, summed in one
//! pass; each root child receives its subtree's targets in node order, a
//! root dispatch after each.

// R2: typed errors, no panics (rules: docs/ANALYSIS.md).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::engine::{Engine, Policy, SimConfig, SimReport};
use crate::error::SimError;
use crate::gantt::SegmentKind;
use crate::probe::{NoProbe, Probe};
use bwfirst_core::schedule::SlotAction;
use bwfirst_platform::{NodeId, Platform};

/// Stock each computing non-root node tries to keep on hand.
pub const STOCK_TARGET: u64 = 2;

/// Tuning of the autonomous protocol; the default is non-interruptible.
#[derive(Debug, Clone, Copy, Default)]
pub struct DemandConfig {
    /// Kreaseck et al.'s interruptible-communication model: faster-link
    /// requests pause ongoing slower transfers.
    pub interruptible: bool,
}

impl DemandConfig {
    /// The interruptible variant.
    #[must_use]
    pub fn interruptible() -> Self {
        DemandConfig { interruptible: true }
    }
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    /// CPU at `node` finished one task.
    CpuEnd(NodeId),
    /// The transfer with this token completed (frees the sender's port and
    /// delivers the task). Stale tokens (interrupted transfers) are ignored.
    TransferEnd { node: NodeId, token: u64 },
}

/// An in-progress transfer on a node's sending port.
struct CurrentSend {
    child: NodeId,
    token: u64,
    seg_start: i128,
    end: i128,
}

/// A transfer paused by an interruption, with its remaining ticks.
struct PausedSend {
    child: NodeId,
    remaining: i128,
}

#[derive(Default)]
struct NodeState {
    /// Compute time in ticks, `None` on a switch.
    w: Option<i128>,
    /// Link time from the parent in ticks (zero at the root).
    link: i128,
    parent: Option<NodeId>,
    /// Children in bandwidth-centric order.
    serve_order: Vec<NodeId>,
    /// Tasks requested from the parent and not yet sent: the parent's
    /// pending requests from this node.
    outstanding: u64,
    cpu_busy: bool,
    current_send: Option<CurrentSend>,
    paused: Vec<PausedSend>,
}

struct Demand<P> {
    eng: Engine<Ev, P>,
    demand: DemandConfig,
    nodes: Vec<NodeState>,
    next_token: u64,
    /// Nodes still to dispatch at the current instant, the next on top.
    stack: Vec<NodeId>,
}

/// What the port could do next.
enum Candidate {
    Resume(usize),
    Fresh(NodeId),
}

impl<P: Probe> Policy for Demand<P> {
    type Event = Ev;
    type Probe = P;

    fn engine(&mut self) -> &mut Engine<Ev, P> {
        &mut self.eng
    }

    fn start(&mut self) -> Result<(), SimError> {
        let root = self.eng.root;
        let own = |n: &NodeState| if n.w.is_some() { STOCK_TARGET } else { 0 };
        // Below the root's children each node requests its subtree's stock
        // targets; ids list parents first, so children are summed first.
        for i in (0..self.nodes.len()).rev() {
            let Some(p) = self.nodes[i].parent.filter(|&p| p != root) else { continue };
            self.nodes[i].outstanding += own(&self.nodes[i]);
            if self.nodes[p.index()].parent != Some(root) {
                let subtree = self.nodes[i].outstanding;
                self.nodes[p.index()].outstanding += subtree;
            }
        }
        // The root's children, one stock target at a time in node order;
        // `top[i]` is the child of the root above node `i`.
        let mut top = vec![root; self.nodes.len()];
        for i in 0..self.nodes.len() {
            let Some(p) = self.nodes[i].parent else { continue };
            top[i] = if p == root { NodeId(i as u32) } else { top[p.index()] };
            if own(&self.nodes[i]) > 0 {
                self.nodes[top[i].index()].outstanding += STOCK_TARGET;
                self.serve(root, 0);
            }
        }
        self.serve(root, 0);
        Ok(())
    }

    fn on_event(&mut self, t: i128, ev: Ev) -> Result<(), SimError> {
        match ev {
            Ev::CpuEnd(node) => {
                self.nodes[node.index()].cpu_busy = false;
                self.eng.complete(node, t);
                self.serve(node, t);
            }
            Ev::TransferEnd { node, token } => self.on_transfer_end(node, token, t),
        }
        Ok(())
    }
}

impl<P: Probe> Demand<P> {
    /// Dispatches `node`, then every ancestor a CPU start climbed past,
    /// until nothing is left to serve at `t`.
    fn serve(&mut self, node: NodeId, t: i128) {
        self.stack.push(node);
        while let Some(next) = self.stack.pop() {
            self.dispatch(next, t);
        }
    }

    /// The best next use of the sending port: the fastest link among paused
    /// transfers and (stock permitting) fresh requests.
    fn best_candidate(&self, node: NodeId, t: i128) -> Option<(i128, Candidate)> {
        let n = &self.nodes[node.index()];
        let link = |child: NodeId| self.nodes[child.index()].link;
        let mut best: Option<(i128, Candidate)> = None;
        for (pi, p) in n.paused.iter().enumerate() {
            let c = link(p.child);
            if best.as_ref().is_none_or(|(bc, _)| c < *bc) {
                best = Some((c, Candidate::Resume(pi)));
            }
        }
        if self.eng.has_task(node, t) {
            let requested = |k: &&NodeId| self.nodes[k.index()].outstanding > 0;
            if let Some(&child) = n.serve_order.iter().find(requested) {
                let c = link(child);
                if best.as_ref().is_none_or(|(bc, _)| c < *bc) {
                    best = Some((c, Candidate::Fresh(child)));
                }
            }
        }
        best
    }

    fn start_send(&mut self, node: NodeId, t: i128, cand: Candidate) {
        let i = node.index();
        let token = self.next_token;
        self.next_token += 1;
        let (child, duration) = match cand {
            Candidate::Resume(pi) => {
                let p = self.nodes[i].paused.swap_remove(pi);
                (p.child, p.remaining)
            }
            Candidate::Fresh(child) => {
                self.eng.take(node, t);
                self.eng.probe.task_dispatch(node, t, SlotAction::Send(child), None);
                let k = &mut self.nodes[child.index()];
                k.outstanding -= 1;
                (child, k.link)
            }
        };
        self.nodes[i].current_send =
            Some(CurrentSend { child, token, seg_start: t, end: t + duration });
        self.eng.queue.push(t + duration, Ev::TransferEnd { node, token });
    }

    /// Pauses the ongoing transfer (interruptible model only). Its pending
    /// `TransferEnd` becomes stale: the token no longer matches.
    fn interrupt(&mut self, node: NodeId, t: i128) {
        let n = &mut self.nodes[node.index()];
        let Some(cur) = n.current_send.take() else { return };
        if t > cur.seg_start {
            self.eng.transfer(node, cur.child, cur.seg_start, t);
        }
        n.paused.push(PausedSend { child: cur.child, remaining: cur.end - t });
    }

    /// Serves pending child requests (port) and the local CPU. A CPU start
    /// climbs: it requests the task it took from the parent, and so on up
    /// to the root, and stacks those ancestors for dispatch, root on top.
    fn dispatch(&mut self, node: NodeId, t: i128) {
        let i = node.index();
        // Interruptible model: a strictly faster candidate preempts.
        if self.demand.interruptible {
            if let Some(cur) = &self.nodes[i].current_send {
                let cur_c = self.nodes[cur.child.index()].link;
                if self.best_candidate(node, t).is_some_and(|(c, _)| c < cur_c) {
                    self.interrupt(node, t);
                }
            }
        }
        if self.nodes[i].current_send.is_none() {
            if let Some((_, cand)) = self.best_candidate(node, t) {
                self.start_send(node, t, cand);
            }
        }
        // Then the CPU.
        if !self.nodes[i].cpu_busy && self.eng.has_task(node, t) {
            if let Some(w) = self.nodes[i].w {
                self.eng.take(node, t);
                self.eng.probe.task_dispatch(node, t, SlotAction::Compute, None);
                self.nodes[i].cpu_busy = true;
                self.eng.probe.segment(node, SegmentKind::Compute, t, t + w);
                self.eng.queue.push(t + w, Ev::CpuEnd(node));
                let mut below = node;
                while let Some(parent) = self.nodes[below.index()].parent {
                    self.nodes[below.index()].outstanding += 1;
                    self.stack.push(parent);
                    below = parent;
                }
            }
        }
    }

    fn on_transfer_end(&mut self, node: NodeId, token: u64, t: i128) {
        let current = &mut self.nodes[node.index()].current_send;
        let Some(cur) = current.take_if(|c| c.token == token) else {
            return; // interrupted transfer's stale completion
        };
        let child = cur.child;
        self.eng.transfer(node, child, cur.seg_start, t);
        self.eng.received[child.index()] += 1;
        self.eng.buffer_add(child, t, 1);
        self.eng.probe.task_delivered(child, t);
        self.serve(child, t);
        self.serve(node, t);
    }
}

/// Simulates the demand-driven autonomous protocol.
///
/// # Panics
/// As [`simulate_probed`].
#[must_use]
pub fn simulate(platform: &Platform, demand: DemandConfig, cfg: &SimConfig) -> SimReport {
    simulate_probed(platform, demand, cfg, &mut NoProbe)
}

/// Simulates the demand-driven protocol, driving a custom [`Probe`].
///
/// # Panics
/// When [`try_simulate_probed`] fails: the run's times do not fit `i128`
/// ticks, or a buffer's time integral leaves `i128`.
#[must_use]
#[expect(
    clippy::expect_used,
    reason = "the infallible entry point benchmarks rely on; the CLI calls try_simulate_probed"
)]
pub fn simulate_probed(
    platform: &Platform,
    demand: DemandConfig,
    cfg: &SimConfig,
    probe: &mut impl Probe,
) -> SimReport {
    try_simulate_probed(platform, demand, cfg, probe).expect("demand-driven run fits i128 ticks")
}

/// Simulates the demand-driven protocol, driving a custom [`Probe`].
///
/// # Errors
/// [`SimError::TickOverflow`] when the run's times do not fit `i128` ticks;
/// [`SimError::BufferOverflow`] when a buffer's time integral does.
pub fn try_simulate_probed(
    platform: &Platform,
    demand: DemandConfig,
    cfg: &SimConfig,
    probe: &mut impl Probe,
) -> Result<SimReport, SimError> {
    // Requests are instantaneous: every event time is a sum of compute and
    // link durations (interruption remainders are differences of the same
    // sums, so they are whole ticks too).
    let eng = Engine::new(platform, cfg, [], probe)?;
    let mut nodes = Vec::with_capacity(platform.len());
    for id in platform.node_ids() {
        nodes.push(NodeState {
            w: platform.weight(id).time().map(|w| eng.ticks(w)).transpose()?,
            link: platform.link_time(id).map_or(Ok(0), |c| eng.ticks(c))?,
            parent: platform.parent(id),
            serve_order: platform.children_bandwidth_centric(id),
            ..NodeState::default()
        });
    }
    Demand { eng, demand, nodes, next_token: 0, stack: Vec::new() }.run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwfirst_platform::examples::example_tree;
    use bwfirst_platform::generators::{daisy_chain, fork, star};
    use bwfirst_platform::Weight;
    use bwfirst_rational::{rat, Rat};

    #[test]
    fn star_reaches_bandwidth_bound() {
        // Root + 4 unit workers behind c=1: optimal = r0 + 1.
        let p = star(Weight::Time(rat(2, 1)), 4, Weight::Time(rat(1, 1)), rat(1, 1));
        let rep = simulate(&p, DemandConfig::default(), &SimConfig::to_horizon(rat(200, 1)));
        let rate = rep.throughput_in(rat(100, 1), rat(200, 1));
        assert!(rate >= rat(13, 10), "demand-driven star too slow: {rate}");
        assert!(rate <= rat(3, 2) + rat(1, 10));
    }

    #[test]
    fn single_port_respected() {
        for demand in [DemandConfig::default(), DemandConfig::interruptible()] {
            let p = example_tree();
            let rep = simulate(&p, demand, &SimConfig::to_horizon(rat(80, 1)));
            assert!(rep.gantt.as_ref().unwrap().find_overlap().is_none());
        }
    }

    #[test]
    fn conservation_of_tasks_after_drain() {
        for demand in [DemandConfig::default(), DemandConfig::interruptible()] {
            let p = example_tree();
            let cfg = SimConfig {
                horizon: rat(400, 1),
                stop_injection_at: Some(rat(150, 1)),
                total_tasks: None,
                record_gantt: false,
                exact_queue: false,
                seed: 0,
            };
            let rep = simulate(&p, demand, &cfg);
            assert_eq!(rep.total_computed(), rep.received[0]);
            for id in p.node_ids() {
                let forwarded: u64 = p.children(id).iter().map(|&k| rep.received[k.index()]).sum();
                assert_eq!(
                    rep.received[id.index()],
                    rep.computed[id.index()] + forwarded,
                    "at {id}"
                );
            }
        }
    }

    #[test]
    fn demand_driven_feeds_pruned_nodes_too() {
        // The autonomous protocol has no global knowledge: even nodes the
        // optimal schedule prunes (P5, P9, P10, P11) receive and compute
        // tasks — one source of its inefficiency.
        let p = example_tree();
        let rep = simulate(&p, DemandConfig::default(), &SimConfig::to_horizon(rat(200, 1)));
        let wasted: u64 = [5usize, 9, 10, 11].iter().map(|&i| rep.received[i]).sum();
        assert!(wasted > 0, "expected the greedy protocol to feed pruned subtrees");
    }

    #[test]
    fn interruption_preempts_slow_sends() {
        // A fork with one very slow link and one fast link. Under the
        // interruptible model the fast child's requests cut into the slow
        // transfer, so the fast child completes strictly more tasks early.
        let w = |n: i128| Weight::Time(rat(n, 1));
        let p = fork(w(100), &[(rat(20, 1), w(1)), (rat(1, 1), w(1))]);
        let horizon = SimConfig::to_horizon(rat(60, 1));
        let non = simulate(&p, DemandConfig::default(), &horizon);
        let int = simulate(&p, DemandConfig::interruptible(), &horizon);
        // Fast child is node 2.
        assert!(
            int.computed[2] >= non.computed[2],
            "interruptible {} vs non {}",
            int.computed[2],
            non.computed[2]
        );
        // The flip side of preemption: the fast child saturates the port
        // (1 task/unit at c = 1), so the slow child's transfer never gets
        // 20 contiguous-equivalent units and *starves* — while the
        // non-interruptible model does serve it. Both behaviours are real
        // properties of the two Kreaseck models.
        assert_eq!(int.received[1], 0, "slow child starves under interruption");
        assert!(non.received[1] >= 1, "non-interruptible serves the slow child");
    }

    #[test]
    fn interrupted_transfers_preserve_total_service_time() {
        // With Gantt recording, the sum of send-segment lengths toward the
        // slow child must be a multiple of its link time c (pauses split
        // segments but never lose time).
        let w = |n: i128| Weight::Time(rat(n, 1));
        let p = fork(w(100), &[(rat(10, 1), w(1)), (rat(1, 1), w(1))]);
        let cfg = SimConfig {
            horizon: rat(200, 1),
            stop_injection_at: Some(rat(100, 1)),
            total_tasks: None,
            record_gantt: true,
            exact_queue: false,
            seed: 0,
        };
        let rep = simulate(&p, DemandConfig::interruptible(), &cfg);
        let g = rep.gantt.as_ref().unwrap();
        let slow = NodeId(1);
        let ticks: i128 = (g.segments.iter())
            .filter(|s| s.kind == SegmentKind::Send(slow))
            .map(|s| s.end - s.start)
            .sum();
        let total = g.scale.rat(ticks);
        let c = rat(10, 1);
        assert_eq!(total, Rat::from(rep.received[1] as usize) * c);
    }

    #[test]
    fn interruptible_not_slower_on_heterogeneous_fork() {
        let w = |n: i128| Weight::Time(rat(n, 1));
        let p = fork(w(50), &[(rat(8, 1), w(2)), (rat(1, 1), w(1)), (rat(2, 1), w(2))]);
        let horizon = SimConfig::to_horizon(rat(400, 1));
        let non = simulate(&p, DemandConfig::default(), &horizon);
        let int = simulate(&p, DemandConfig::interruptible(), &horizon);
        assert!(int.total_computed() + 2 >= non.total_computed());
    }

    #[test]
    fn a_deep_chain_runs_without_recursion() {
        // Every CPU start climbs 20,000 levels: a recursive climb overflows
        // a test thread's stack here.
        let w = || Weight::Time(rat(4, 1));
        let p = daisy_chain(w(), &vec![(w(), rat(1, 1)); 19_999]);
        for demand in [DemandConfig::default(), DemandConfig::interruptible()] {
            let rep = simulate(&p, demand, &SimConfig::to_horizon(rat(200, 1)));
            assert!(rep.total_computed() > 0);
            for id in p.node_ids() {
                let forwarded: u64 = p.children(id).iter().map(|&k| rep.received[k.index()]).sum();
                assert!(
                    rep.received[id.index()] >= rep.computed[id.index()] + forwarded,
                    "at {id}"
                );
            }
        }
    }
}
