//! Result returns: the Section 9 model, on any tree.
//!
//! Folding the time to return a result into the forward cost is wrong: on
//! the paper's 3-node counter-example (a master, two unit-speed workers,
//! `0.5 + 0.5` send/return costs) separate ports sustain 2 tasks per time
//! unit, the merged accounting only 1 (E8: return ratio 1 on
//! `section9_counterexample().platform`, ratio 0 on its `merged()` form).
//! The paper leaves scheduling with returns open; here tasks flow down
//! under the forward-only event-driven schedule and every result relays
//! hop-by-hop back to the master, where a completion is counted.
//!
//! Ports are genuinely bidirectional resources:
//!
//! * a **downward** task transfer `parent → child` occupies the parent's
//!   sending port *and* the child's receiving port for `c` time units;
//! * an **upward** result transfer `child → parent` occupies the child's
//!   sending port *and* the parent's receiving port for `ρ·c` time units
//!   ([`ReturnConfig::return_ratio`] scales each edge's forward cost).
//!
//! A node's sending port therefore arbitrates between forwarding tasks to
//! its children (schedule order, priority) and returning results to its
//! parent (whenever the port would otherwise idle); its receiving port
//! arbitrates between its parent's task deliveries and its children's result
//! returns. None of this contention exists in the forward-only model — the
//! measured throughput gap *is* the open problem, quantified (E19).

// R2: typed errors, no panics (rules: docs/ANALYSIS.md).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::engine::{Engine, Policy, SimConfig, SimReport};
use crate::error::SimError;
use crate::event_driven::{next_action, release_step};
use crate::gantt::SegmentKind;
use crate::probe::{NoProbe, Probe};
use bwfirst_core::schedule::{BunchCursor, EventDrivenSchedule, SlotAction};
use bwfirst_platform::{NodeId, Platform};
use bwfirst_rational::Rat;
use std::collections::VecDeque;

/// Configuration of the return traffic.
#[derive(Debug, Clone, Copy)]
pub struct ReturnConfig {
    /// Result size relative to the input: each edge's return time is
    /// `return_ratio × c`. Zero means results are negligible (the paper's
    /// main model) and completions count at compute end.
    pub return_ratio: Rat,
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    Release,
    CpuEnd(NodeId),
    /// Downward transfer finished: frees parent send + child recv, delivers.
    DownEnd {
        parent: NodeId,
        child: NodeId,
    },
    /// Upward result transfer finished: frees child send + parent recv.
    UpEnd {
        child: NodeId,
        parent: NodeId,
    },
}

#[derive(Default)]
struct NodeState {
    /// Compute time in ticks, `None` on a switch.
    w: Option<i128>,
    /// The parent, the link time from it and the result-return time to it,
    /// in ticks (the root has none).
    up: Option<Up>,
    cursor: BunchCursor,
    pending_cpu: u64,
    send_queue: VecDeque<NodeId>,
    results: u64,
    cpu_busy: bool,
    send_free: bool,
    recv_free: bool,
}

/// A node's edge to its parent.
#[derive(Clone, Copy)]
struct Up {
    parent: NodeId,
    /// Task transfer time `c`, in ticks.
    down: i128,
    /// Result transfer time `ρ·c`, in ticks.
    back: i128,
}

struct Returns<'a, P> {
    eng: Engine<Ev, P>,
    platform: &'a Platform,
    ratio: Rat,
    release_step: i128,
    nodes: Vec<NodeState>,
}

impl<P: Probe> Policy for Returns<'_, P> {
    type Event = Ev;
    type Probe = P;

    fn engine(&mut self) -> &mut Engine<Ev, P> {
        &mut self.eng
    }

    fn start(&mut self) -> Result<(), SimError> {
        self.eng.release_at(0, Ev::Release);
        Ok(())
    }

    fn on_event(&mut self, t: i128, ev: Ev) -> Result<(), SimError> {
        match ev {
            Ev::Release => {
                let root = self.platform.root();
                self.eng.inject(t);
                self.eng.buffer_add(root, t, 1);
                self.assign(root, t)?;
                self.eng.release_at(t + self.release_step, Ev::Release);
            }
            Ev::CpuEnd(node) => {
                self.nodes[node.index()].cpu_busy = false;
                self.eng.computed[node.index()] += 1;
                self.result_at(node, t);
                self.try_cpu(node, t)?;
            }
            Ev::DownEnd { parent, child } => {
                self.nodes[parent.index()].send_free = true;
                self.nodes[child.index()].recv_free = true;
                self.eng.probe.task_delivered(child, t);
                self.eng.received[child.index()] += 1;
                self.eng.buffer_add(child, t, 1);
                self.assign(child, t)?;
                self.wake(parent, t);
                self.wake(child, t);
            }
            Ev::UpEnd { child, parent } => {
                self.nodes[child.index()].send_free = true;
                self.nodes[parent.index()].recv_free = true;
                self.result_at(parent, t);
                self.wake(child, t);
                self.wake(parent, t);
            }
        }
        Ok(())
    }
}

impl<P: Probe> Returns<'_, P> {
    fn assign(&mut self, node: NodeId, t: i128) -> Result<(), SimError> {
        let n = &mut self.nodes[node.index()];
        let (action, slot) = next_action(node, &mut n.cursor)?;
        self.eng.probe.task_dispatch(node, t, action, Some(slot));
        match action {
            SlotAction::Compute => {
                n.pending_cpu += 1;
                self.try_cpu(node, t)
            }
            SlotAction::Send(child) => {
                n.send_queue.push_back(child);
                self.try_send(node, t);
                Ok(())
            }
        }
    }

    fn try_cpu(&mut self, node: NodeId, t: i128) -> Result<(), SimError> {
        let n = &mut self.nodes[node.index()];
        if n.cpu_busy || n.pending_cpu == 0 {
            return Ok(());
        }
        let w = n.w.ok_or(SimError::SwitchComputes(node))?;
        n.pending_cpu -= 1;
        n.cpu_busy = true;
        self.eng.buffer_add(node, t, -1);
        self.eng.probe.segment(node, SegmentKind::Compute, t, t + w);
        self.eng.queue.push(t + w, Ev::CpuEnd(node));
        Ok(())
    }

    /// Attempts to use the node's sending port. **Results go first**: on a
    /// forward-optimal schedule many sending ports are exactly saturated by
    /// task forwards, so a task-priority port would starve returns forever
    /// and results would pile up without bound. Returning first keeps the
    /// pipeline draining; the measured throughput loss relative to the
    /// forward-only prediction quantifies Section 9's open problem.
    fn try_send(&mut self, node: NodeId, t: i128) {
        let i = node.index();
        if !self.nodes[i].send_free {
            return;
        }
        // Return a result if the parent can receive it.
        if self.nodes[i].results > 0 {
            if let Some(Up { parent, back: c, .. }) = self.nodes[i].up {
                if self.nodes[parent.index()].recv_free {
                    self.nodes[i].results -= 1;
                    self.nodes[i].send_free = false;
                    self.nodes[parent.index()].recv_free = false;
                    self.eng.transfer(node, parent, t, t + c);
                    self.eng.queue.push(t + c, Ev::UpEnd { child: node, parent });
                    return;
                }
            }
        }
        // Otherwise forward the head-of-line task.
        let Some(&child) = self.nodes[i].send_queue.front() else { return };
        let Some(Up { down: c, .. }) = self.nodes[child.index()].up else { return };
        if self.nodes[child.index()].recv_free {
            self.nodes[i].send_queue.pop_front();
            self.nodes[i].send_free = false;
            self.nodes[child.index()].recv_free = false;
            self.eng.buffer_add(node, t, -1);
            self.eng.transfer(node, child, t, t + c);
            self.eng.queue.push(t + c, Ev::DownEnd { parent: node, child });
        }
    }

    /// A result materialized at `node`: complete at the root, relay else.
    fn result_at(&mut self, node: NodeId, t: i128) {
        if node == self.platform.root() || self.ratio.is_zero() {
            self.eng.record_completion(node, t);
        } else {
            self.nodes[node.index()].results += 1;
            self.try_send(node, t);
        }
    }

    /// Ports around `node` changed: give everyone affected a chance.
    fn wake(&mut self, node: NodeId, t: i128) {
        self.try_send(node, t);
        // The node's freed recv port may unblock its parent's task forwards
        // or its children's result returns.
        if self.nodes[node.index()].recv_free {
            if let Some(Up { parent, .. }) = self.nodes[node.index()].up {
                self.try_send(parent, t);
            }
            let platform = self.platform;
            for &k in platform.children(node) {
                self.try_send(k, t);
            }
        }
    }
}

/// Runs the forward-only event-driven `schedule` on a platform whose tasks
/// *also* return results of relative size `ret.return_ratio`. Completions
/// count when results reach the root (at compute end for ratio zero).
///
/// # Errors
/// [`SimError::NegativeReturnRatio`] for a negative return ratio;
/// [`SimError::InactiveRoot`] on a zero-throughput schedule; other
/// [`SimError`]s if the schedule and platform disagree mid-run.
pub fn simulate_with_returns(
    platform: &Platform,
    schedule: &EventDrivenSchedule,
    ret: ReturnConfig,
    cfg: &SimConfig,
) -> Result<SimReport, SimError> {
    simulate_with_returns_probed(platform, schedule, ret, cfg, &mut NoProbe)
}

/// [`simulate_with_returns`], driving a custom [`Probe`].
///
/// # Errors
/// As [`simulate_with_returns`].
pub fn simulate_with_returns_probed(
    platform: &Platform,
    schedule: &EventDrivenSchedule,
    ret: ReturnConfig,
    cfg: &SimConfig,
    probe: &mut impl Probe,
) -> Result<SimReport, SimError> {
    let ratio = ret.return_ratio;
    if ratio.is_negative() {
        return Err(SimError::NegativeReturnRatio);
    }
    let release = release_step(&schedule.tree, platform.root())?;
    let back = |c: Rat| c.checked_mul(ratio).ok();
    let backs = platform.node_ids().filter_map(|id| platform.link_time(id).and_then(back));
    let eng = Engine::new(platform, cfg, backs.chain([release]), probe)?;
    let mut nodes = Vec::with_capacity(platform.len());
    for id in platform.node_ids() {
        let up = match platform.parent(id).zip(platform.link_time(id)) {
            Some((parent, c)) => {
                let back = back(c).ok_or(eng.overflow())?;
                Some(Up { parent, down: eng.ticks(c)?, back: eng.ticks(back)? })
            }
            None => None,
        };
        nodes.push(NodeState {
            w: platform.weight(id).time().map(|w| eng.ticks(w)).transpose()?,
            up,
            cursor: schedule.cursor(id),
            send_free: true,
            recv_free: true,
            ..NodeState::default()
        });
    }
    Returns { release_step: eng.ticks(release)?, eng, platform, ratio, nodes }.run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwfirst_core::{bw_first, SteadyState};
    use bwfirst_platform::examples::{example_tree, section9_counterexample};
    use bwfirst_rational::rat;

    fn setup() -> (Platform, SteadyState, EventDrivenSchedule) {
        planned(example_tree())
    }

    fn planned(p: Platform) -> (Platform, SteadyState, EventDrivenSchedule) {
        let ss = SteadyState::from_solution(&bw_first(&p));
        let ev = EventDrivenSchedule::standard(&p, &ss).unwrap();
        (p, ss, ev)
    }

    /// Section 9's counter-example with separate return traffic (ratio 1:
    /// returns cost as much as sends) and in its merged form (forward cost
    /// doubled, no returns).
    fn section9() -> [(Platform, EventDrivenSchedule, Rat); 2] {
        let rr = section9_counterexample();
        let (p, _, ev) = planned(rr.platform.clone());
        let (m, _, mev) = planned(rr.merged());
        [(p, ev, Rat::ONE), (m, mev, Rat::ZERO)]
    }

    #[test]
    fn section9_separate_ports_sustain_twice_the_merged_rate() {
        let [separated, merged] = section9().map(|(p, ev, ratio)| {
            let cfg = SimConfig::to_horizon(rat(200, 1));
            let rep = simulate_with_returns(&p, &ev, ReturnConfig { return_ratio: ratio }, &cfg);
            rep.unwrap().throughput_in(rat(100, 1), rat(200, 1))
        });
        assert!(separated >= rat(19, 10), "separated model too slow: {separated}");
        assert!(separated <= rat(2, 1));
        assert!(merged <= rat(1, 1), "merged model too fast: {merged}");
        assert!(merged >= rat(9, 10), "merged model unexpectedly slow: {merged}");
    }

    #[test]
    fn negative_return_ratio_is_rejected() {
        let (p, _, ev) = setup();
        let ret = ReturnConfig { return_ratio: rat(-1, 2) };
        let err = simulate_with_returns(&p, &ev, ret, &SimConfig::to_horizon(rat(10, 1)));
        assert_eq!(err.unwrap_err(), SimError::NegativeReturnRatio);
    }

    fn rate_at(ratio: Rat) -> Rat {
        let (p, _, ev) = setup();
        let cfg = SimConfig {
            horizon: rat(400, 1),
            stop_injection_at: None,
            total_tasks: None,
            record_gantt: false,
            exact_queue: false,
            seed: 0,
        };
        let rep =
            simulate_with_returns(&p, &ev, ReturnConfig { return_ratio: ratio }, &cfg).unwrap();
        // Period-aligned window (4 x 36) well past start-up.
        rep.throughput_in(rat(200, 1), rat(344, 1))
    }

    #[test]
    fn zero_ratio_matches_forward_only() {
        assert_eq!(rate_at(Rat::ZERO), rat(10, 9));
    }

    #[test]
    fn throughput_degrades_monotonically_with_return_size() {
        let rates: Vec<Rat> = [Rat::ZERO, rat(1, 8), rat(1, 4), rat(1, 2), rat(1, 1)]
            .into_iter()
            .map(rate_at)
            .collect();
        for w in rates.windows(2) {
            assert!(w[1] <= w[0], "rates must not increase: {rates:?}");
        }
        // Nonzero returns genuinely bite on this tree.
        assert!(rates[4] < rates[0], "full-size returns must cost throughput");
    }

    #[test]
    fn ports_never_double_booked_with_returns() {
        let (p, _, ev) = setup();
        let cfg = SimConfig::to_horizon(rat(120, 1));
        let rep =
            simulate_with_returns(&p, &ev, ReturnConfig { return_ratio: rat(1, 2) }, &cfg).unwrap();
        assert!(rep.gantt.as_ref().unwrap().find_overlap().is_none());
        // Section 9's platform, where returns saturate the master's
        // receiving port.
        let [(p, ev, ratio), _] = section9();
        let cfg = SimConfig::to_horizon(rat(50, 1));
        let rep = simulate_with_returns(&p, &ev, ReturnConfig { return_ratio: ratio }, &cfg);
        assert!(rep.unwrap().gantt.as_ref().unwrap().find_overlap().is_none());
    }

    #[test]
    fn all_results_return_after_drain() {
        let (p, _, ev) = setup();
        let cfg = SimConfig {
            horizon: rat(600, 1),
            stop_injection_at: None,
            total_tasks: Some(60),
            record_gantt: false,
            exact_queue: false,
            seed: 0,
        };
        let rep =
            simulate_with_returns(&p, &ev, ReturnConfig { return_ratio: rat(1, 2) }, &cfg).unwrap();
        // Every computed task's result eventually reached the root.
        assert_eq!(rep.total_computed(), 60);
        assert_eq!(rep.completions.len(), 60);
        let [(p, ev, ratio), _] = section9();
        let cfg = SimConfig { horizon: rat(300, 1), total_tasks: Some(40), ..cfg };
        let rep = simulate_with_returns(&p, &ev, ReturnConfig { return_ratio: ratio }, &cfg);
        let rep = rep.unwrap();
        assert_eq!(rep.completions.len(), 40);
        assert_eq!(rep.total_computed(), 40);
    }
}
