//! The paper's executor: clockless event-driven nodes under a pacing root.
//!
//! Every node except the root is **event-driven** (Section 6.2): it holds a
//! cyclic local schedule of `Ψ` actions and routes the `j`-th incoming task
//! of each bunch according to action `j` — either to its own CPU or to the
//! sending port toward a specific child. A per-node cursor steps the
//! schedule's implicit order; no node's `Ψ` actions are ever listed. No
//! clocks, no global information; the CPU and the port each drain their
//! queues greedily (full overlap). A CPU queue is a count and a port queue
//! a list of targets: tasks carry no identity or timestamp, so per-task
//! sojourn times are read from a [`ProvenanceProbe`](crate::provenance)
//! trace ([`Trace::sojourns`](bwfirst_obs::Trace::sojourns)).
//!
//! The **root** is the only clocked node (the paper: "any time-related
//! information has been removed (except for the root)"): it injects tasks at
//! the optimal rate, spreading each bunch of `Ψ` tasks uniformly over its
//! consuming period `T^ω`, and routes them through the same local schedule.
//!
//! Start-up policies (Section 7):
//!
//! * [`StartupPolicy::EventDriven`] — the paper's proposal: every node
//!   follows its schedule from `t = 0`, computing useful work immediately;
//!   steady state is reached within the Proposition 4 bound.
//! * [`StartupPolicy::Prefill`] — the traditional baseline: a node's CPU
//!   stays off until it has received its steady-state stock `χ_{-1}`, so
//!   the start-up performs no useful computation.
//!
//! Dynamic platforms ([`simulate_dynamic`], experiment E18) add two event
//! kinds. A **link change** alters an edge's communication time; transfers
//! in flight finish at the old speed. The *stale* schedule keeps routing
//! the old `ψ` proportions, so a degraded link clogs its parent's port. An
//! **adaptation point** swaps every node onto the schedule `BW-First`
//! derives for the platform as that point sees it (the Section 5 strategy;
//! each point is solved once, before the run); buffered tasks are kept and
//! re-enter the new routing.

// R2: typed errors, no panics (rules: docs/ANALYSIS.md).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::engine::{Engine, Policy, SimConfig, SimReport};
use crate::error::SimError;
use crate::gantt::SegmentKind;
use crate::probe::{NoProbe, Probe};
use bwfirst_core::schedule::{BunchCursor, EventDrivenSchedule, SlotAction, TreeSchedule};
use bwfirst_core::{bw_first, SteadyState};
use bwfirst_platform::{NodeId, Platform};
use bwfirst_rational::Rat;
use std::borrow::Cow;
use std::collections::VecDeque;

/// How nodes behave before reaching steady state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StartupPolicy {
    /// Run the event-driven schedule from the beginning (the paper).
    EventDriven,
    /// Disable each node's CPU until it buffered `χ_{-1}` tasks (the
    /// traditional dead prefill).
    Prefill,
}

/// A scheduled change to one link's communication time.
#[derive(Debug, Clone, Copy)]
pub struct LinkChange {
    /// When the change takes effect.
    pub at: Rat,
    /// The child whose incoming link changes.
    pub child: NodeId,
    /// The new communication time.
    pub new_c: Rat,
}

/// How the platform reacts to link changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdaptPolicy {
    /// Keep running the original schedule (the stale baseline).
    Stale,
    /// Re-run `BW-First` and swap schedules `delay` time units after each
    /// change (detection + negotiation lag; E11 shows the real cost is
    /// microseconds, so small values are realistic).
    Renegotiate {
        /// Lag between the change and the schedule swap.
        delay: Rat,
    },
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    /// The root releases (generates) one task.
    Release,
    /// A task arrives at a node (end of an incoming transfer).
    Arrive(NodeId),
    /// A node's CPU finishes one task.
    CpuEnd(NodeId),
    /// A node's sending port finishes one transfer.
    PortEnd(NodeId),
    /// The `idx`-th link change hits the platform.
    Change(usize),
    /// The adaptation point of the `idx`-th change: swap every node onto
    /// its plan.
    Adapt(usize),
}

#[derive(Default)]
struct NodeState {
    /// Cyclic position in the local schedule.
    cursor: BunchCursor,
    /// Compute time in ticks (`None` on a switch).
    w: Option<i128>,
    /// Link time from the parent in ticks (`None` at the root); link
    /// changes update it.
    c: Option<i128>,
    /// Tasks assigned to the CPU, not yet started.
    pending_cpu: u64,
    /// Send targets in assignment order.
    send_queue: VecDeque<NodeId>,
    cpu_busy: bool,
    port_busy: bool,
    /// The CPU stays off until this many tasks were received (the prefill
    /// start-up's `χ`; 0 = on from the start).
    enable_at: u64,
}

/// The root's release step: one bunch of `Ψ` tasks per period `T^ω`.
pub(crate) fn release_step(schedule: &TreeSchedule, root: NodeId) -> Result<Rat, SimError> {
    let root = schedule.get(root).ok_or(SimError::InactiveRoot)?;
    Ok(Rat::from_int(root.t_omega) / Rat::from_int(root.bunch))
}

/// The plan an adaptation point swaps onto: `None` when the platform it
/// sees has nothing to schedule (the run keeps its plan), else the schedule
/// and its release step, or the error that fails the run at the point.
type Replan = Option<Result<(EventDrivenSchedule, Rat), SimError>>;

/// The plans of a dynamic run's adaptation points, one per change: for
/// each point inside the horizon, `BW-First` on the platform as that point
/// sees it. Change `k` fires at `(at, 2k)` and its adaptation point at
/// `(at + delay, 2k + 1)` in the queue's (time, insertion) order, so a
/// point sees exactly the changes ordered before it. Their release steps,
/// folded into the tick scale, keep every re-plan's releases on the
/// lattice.
fn replans(platform: &Platform, changes: &[LinkChange], delay: Rat, horizon: Rat) -> Vec<Replan> {
    let mut fired: Vec<usize> = (0..changes.len()).collect();
    fired.sort_by_key(|&j| (changes[j].at, j));
    let replan = |(k, ch): (usize, &LinkChange)| {
        let point = ch.at.checked_add(delay).ok().filter(|&t| t <= horizon)?;
        let mut seen = platform.clone();
        for &j in fired.iter().take_while(|&&j| (changes[j].at, 2 * j) < (point, 2 * k + 1)) {
            seen.set_link_time(changes[j].child, changes[j].new_c);
        }
        let ss = SteadyState::from_solution(&bw_first(&seen));
        ss.throughput.is_positive().then(|| {
            let schedule = EventDrivenSchedule::standard(&seen, &ss)?;
            let step = release_step(&schedule.tree, seen.root())?;
            Ok((schedule, step))
        })
    };
    changes.iter().enumerate().map(replan).collect()
}

/// The next action of `node`'s cyclic local schedule, with its slot; the
/// cursor of a node without a schedule is empty.
pub(crate) fn next_action(
    node: NodeId,
    cursor: &mut BunchCursor,
) -> Result<(SlotAction, u64), SimError> {
    cursor.step().ok_or(SimError::NoSchedule(node))
}

struct EventDriven<'a, P> {
    eng: Engine<Ev, P>,
    schedule: Cow<'a, EventDrivenSchedule>,
    /// The plan of each change's adaptation point, taken when it fires.
    plans: Vec<Replan>,
    nodes: Vec<NodeState>,
    /// The root's release step in ticks.
    release_step: i128,
    changes: &'a [LinkChange],
    adapt: AdaptPolicy,
    /// Ticks at which the schedule was swapped.
    adaptations: Vec<i128>,
}

impl<P: Probe> Policy for EventDriven<'_, P> {
    type Event = Ev;
    type Probe = P;

    fn engine(&mut self) -> &mut Engine<Ev, P> {
        &mut self.eng
    }

    fn start(&mut self) -> Result<(), SimError> {
        for (idx, ch) in self.changes.iter().enumerate() {
            self.eng.queue.push(self.eng.ticks(ch.at)?, Ev::Change(idx));
            if let AdaptPolicy::Renegotiate { delay } = self.adapt {
                let point = self.eng.ticks(ch.at)?.checked_add(self.eng.ticks(delay)?);
                self.eng.queue.push(point.ok_or(self.eng.overflow())?, Ev::Adapt(idx));
            }
        }
        self.eng.release_at(0, Ev::Release);
        Ok(())
    }

    fn on_event(&mut self, t: i128, ev: Ev) -> Result<(), SimError> {
        match ev {
            Ev::Release => {
                let root = self.eng.root;
                self.eng.inject(t);
                self.on_arrive(root, t)?;
                self.eng.release_at(t + self.release_step, Ev::Release);
            }
            Ev::Arrive(node) => {
                self.eng.probe.task_delivered(node, t);
                self.eng.received[node.index()] += 1;
                self.on_arrive(node, t)?;
            }
            Ev::CpuEnd(node) => {
                self.nodes[node.index()].cpu_busy = false;
                self.eng.complete(node, t);
                self.try_cpu(node, t)?;
            }
            Ev::PortEnd(node) => {
                self.nodes[node.index()].port_busy = false;
                self.try_port(node, t)?;
            }
            Ev::Change(idx) => {
                let ch = self.changes[idx];
                self.nodes[ch.child.index()].c = Some(self.eng.ticks(ch.new_c)?);
            }
            Ev::Adapt(idx) => self.adapt(idx, t)?,
        }
        Ok(())
    }
}

impl<P: Probe> EventDriven<'_, P> {
    /// Routes one available task according to the local schedule.
    fn assign(&mut self, node: NodeId, t: i128) -> Result<(), SimError> {
        let i = node.index();
        if !self.adaptations.is_empty() && self.schedule.local(node).is_none() {
            // A node the *new* schedule prunes may still receive tasks
            // routed by the old one: compute them locally rather than
            // strand them (a switch cannot, and drops them).
            self.eng.probe.task_dispatch(node, t, SlotAction::Compute, None);
            if self.nodes[i].w.is_some() {
                self.nodes[i].pending_cpu += 1;
                self.try_cpu(node, t)?;
            }
            return Ok(());
        }
        let (action, slot) = next_action(node, &mut self.nodes[i].cursor)?;
        self.eng.probe.task_dispatch(node, t, action, Some(slot));
        match action {
            SlotAction::Compute => {
                self.nodes[i].pending_cpu += 1;
                self.try_cpu(node, t)
            }
            SlotAction::Send(child) => {
                self.nodes[i].send_queue.push_back(child);
                self.try_port(node, t)
            }
        }
    }

    fn try_cpu(&mut self, node: NodeId, t: i128) -> Result<(), SimError> {
        let i = node.index();
        let n = &mut self.nodes[i];
        if n.cpu_busy || n.pending_cpu == 0 || self.eng.received[i] < n.enable_at {
            return Ok(());
        }
        let w = n.w.ok_or(SimError::SwitchComputes(node))?;
        n.pending_cpu = n.pending_cpu.checked_sub(1).ok_or(SimError::EmptyQueue(node))?;
        n.cpu_busy = true;
        self.eng.buffer_add(node, t, -1);
        self.eng.probe.segment(node, SegmentKind::Compute, t, t + w);
        self.eng.queue.push(t + w, Ev::CpuEnd(node));
        Ok(())
    }

    fn try_port(&mut self, node: NodeId, t: i128) -> Result<(), SimError> {
        let n = &mut self.nodes[node.index()];
        if n.port_busy {
            return Ok(());
        }
        let Some(child) = n.send_queue.pop_front() else { return Ok(()) };
        let c = self.nodes[child.index()].c.ok_or(SimError::MissingLink(child))?;
        self.nodes[node.index()].port_busy = true;
        self.eng.buffer_add(node, t, -1);
        self.eng.transfer(node, child, t, t + c);
        self.eng.queue.push(t + c, Ev::PortEnd(node));
        self.eng.queue.push(t + c, Ev::Arrive(child));
        Ok(())
    }

    fn on_arrive(&mut self, node: NodeId, t: i128) -> Result<(), SimError> {
        self.eng.buffer_add(node, t, 1);
        self.assign(node, t)?;
        // Reaching the prefill stock may unblock earlier compute-assigned
        // tasks.
        self.try_cpu(node, t)
    }

    /// Swaps every node onto the plan of change `idx`'s adaptation point,
    /// derived up front ([`replans`]).
    fn adapt(&mut self, idx: usize, t: i128) -> Result<(), SimError> {
        let Some(plan) = self.plans.get_mut(idx).and_then(Option::take) else {
            return Ok(()); // nothing schedulable; keep the old one
        };
        let (schedule, step) = plan?;
        self.release_step = self.eng.ticks(step)?;
        for (i, n) in self.nodes.iter_mut().enumerate() {
            n.cursor = schedule.cursor(NodeId(i as u32));
        }
        self.schedule = Cow::Owned(schedule);
        self.adaptations.push(t);
        Ok(())
    }
}

/// Runs the event-driven policy: the report and the schedule swap times.
fn run(
    platform: &Platform,
    schedule: Cow<'_, EventDrivenSchedule>,
    cfg: &SimConfig,
    startup: StartupPolicy,
    changes: &[LinkChange],
    adapt: AdaptPolicy,
    probe: impl Probe,
) -> Result<(SimReport, Vec<Rat>), SimError> {
    let release = release_step(&schedule.tree, platform.root())?;
    let delay = if let AdaptPolicy::Renegotiate { delay } = adapt { Some(delay) } else { None };
    let plans = delay.map_or_else(Vec::new, |d| replans(platform, changes, d, cfg.horizon));
    let steps = plans.iter().flatten().flatten().map(|&(_, step)| step);
    let extras = (changes.iter().flat_map(|ch| [ch.at, ch.new_c]))
        .chain(delay)
        .chain(steps)
        .chain([release]);
    let eng = Engine::new(platform, cfg, extras, probe)?;
    let mut nodes = Vec::with_capacity(platform.len());
    for id in platform.node_ids() {
        let chi = match startup {
            StartupPolicy::EventDriven => None,
            StartupPolicy::Prefill => schedule.tree.get(id).and_then(|s| s.chi_in),
        };
        let enable_at = chi.map_or(Ok(0), |chi| {
            u64::try_from(chi).map_err(|_| SimError::ChiOverflow { node: id, chi })
        })?;
        let ticks = |d: Option<Rat>| d.map(|d| eng.ticks(d)).transpose();
        nodes.push(NodeState {
            cursor: schedule.cursor(id),
            w: ticks(platform.weight(id).time())?,
            c: ticks(platform.link_time(id))?,
            enable_at,
            ..NodeState::default()
        });
    }
    let mut sim = EventDriven {
        release_step: eng.ticks(release)?,
        eng,
        schedule,
        plans,
        nodes,
        changes,
        adapt,
        adaptations: Vec::new(),
    };
    let rep = sim.run()?;
    let scale = sim.eng.scale;
    Ok((rep, sim.adaptations.into_iter().map(|t| scale.rat(t)).collect()))
}

/// Simulates the event-driven schedule with the paper's start-up policy.
///
/// # Errors
/// [`SimError`] if the schedule and platform disagree mid-run.
pub fn simulate(
    platform: &Platform,
    schedule: &EventDrivenSchedule,
    cfg: &SimConfig,
) -> Result<SimReport, SimError> {
    simulate_with_policy(platform, schedule, cfg, StartupPolicy::EventDriven)
}

/// Simulates the event-driven schedule under the chosen start-up policy.
///
/// # Errors
/// [`SimError::InactiveRoot`] on a zero-throughput platform (nothing to
/// simulate); other [`SimError`]s if the schedule and platform disagree.
pub fn simulate_with_policy(
    platform: &Platform,
    schedule: &EventDrivenSchedule,
    cfg: &SimConfig,
    policy: StartupPolicy,
) -> Result<SimReport, SimError> {
    simulate_with_policy_probed(platform, schedule, cfg, policy, &mut NoProbe)
}

/// Simulates with the paper's start-up policy, driving a custom [`Probe`].
///
/// # Errors
/// [`SimError`] if the schedule and platform disagree mid-run.
pub fn simulate_probed(
    platform: &Platform,
    schedule: &EventDrivenSchedule,
    cfg: &SimConfig,
    probe: &mut impl Probe,
) -> Result<SimReport, SimError> {
    simulate_with_policy_probed(platform, schedule, cfg, StartupPolicy::EventDriven, probe)
}

/// Simulates under the chosen start-up policy, driving a custom [`Probe`].
///
/// # Errors
/// [`SimError`] if the schedule and platform disagree mid-run.
pub fn simulate_with_policy_probed(
    platform: &Platform,
    schedule: &EventDrivenSchedule,
    cfg: &SimConfig,
    policy: StartupPolicy,
    probe: &mut impl Probe,
) -> Result<SimReport, SimError> {
    let schedule = Cow::Borrowed(schedule);
    run(platform, schedule, cfg, policy, &[], AdaptPolicy::Stale, probe).map(|(rep, _)| rep)
}

/// Simulates a dynamic run: `changes` hit the platform at their times; under
/// [`AdaptPolicy::Renegotiate`] the schedule is re-derived after each change.
/// Returns the report and the times at which schedules were swapped.
///
/// # Errors
/// [`SimError::NotSchedulable`] if the starting platform has zero
/// throughput; other [`SimError`]s if a schedule and the platform disagree
/// mid-run.
pub fn simulate_dynamic(
    platform: &Platform,
    changes: &[LinkChange],
    policy: AdaptPolicy,
    cfg: &SimConfig,
) -> Result<(SimReport, Vec<Rat>), SimError> {
    simulate_dynamic_probed(platform, changes, policy, cfg, &mut NoProbe)
}

/// Simulates a dynamic run driving a custom [`Probe`] (see
/// [`simulate_dynamic`]).
///
/// # Errors
/// As [`simulate_dynamic`].
pub fn simulate_dynamic_probed(
    platform: &Platform,
    changes: &[LinkChange],
    policy: AdaptPolicy,
    cfg: &SimConfig,
    probe: &mut impl Probe,
) -> Result<(SimReport, Vec<Rat>), SimError> {
    let ss = SteadyState::from_solution(&bw_first(platform));
    if !ss.throughput.is_positive() {
        return Err(SimError::NotSchedulable);
    }
    let schedule = Cow::Owned(EventDrivenSchedule::standard(platform, &ss)?);
    run(platform, schedule, cfg, StartupPolicy::EventDriven, changes, policy, probe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provenance::{trace_header, ProvenanceProbe};
    use bwfirst_core::schedule::LocalScheduleKind;
    use bwfirst_core::{bw_first, startup::tree_startup_bound, SteadyState};
    use bwfirst_platform::examples::{example_throughput, example_tree};
    use bwfirst_platform::Weight;
    use bwfirst_rational::rat;

    fn setup() -> (Platform, SteadyState, EventDrivenSchedule) {
        let p = example_tree();
        let ss = SteadyState::from_solution(&bw_first(&p));
        let ev = EventDrivenSchedule::standard(&p, &ss).unwrap();
        (p, ss, ev)
    }

    /// Runs under a provenance probe: the report and the sojourn times of
    /// the tasks computed by the horizon, read from the trace.
    fn simulate_sojourns(
        p: &Platform,
        ev: &EventDrivenSchedule,
        cfg: &SimConfig,
    ) -> (SimReport, Vec<Rat>) {
        let mut probe = ProvenanceProbe::new(p, Some(&ev.tree));
        let rep = simulate_probed(p, ev, cfg, &mut probe).unwrap();
        let trace = probe.into_trace(trace_header(p, Some(&ev.tree), "event", cfg, None));
        let sojourns = trace.sojourns().unwrap().iter().map(|s| Rat::new(s.num, s.den)).collect();
        (rep, sojourns)
    }

    fn mean(xs: &[Rat]) -> Rat {
        xs.iter().copied().sum::<Rat>() / Rat::from(xs.len())
    }

    #[test]
    fn reaches_predicted_throughput() {
        let (p, _, ev) = setup();
        let cfg = SimConfig::to_horizon(rat(220, 1));
        let rep = simulate(&p, &ev, &cfg).unwrap();
        // Post-startup windows of one global period (36) hold exactly 40
        // completions: the schedule is exactly periodic.
        for k in 0..4 {
            let from = rat(76, 1) + rat(36, 1) * Rat::from(k as usize);
            assert_eq!(rep.completions_in(from, from + rat(36, 1)), 40, "window {k}");
        }
        assert_eq!(rep.throughput_in(rat(76, 1), rat(220, 1)), example_throughput());
    }

    #[test]
    fn single_port_is_never_violated() {
        let (p, _, ev) = setup();
        let cfg = SimConfig::to_horizon(rat(100, 1));
        let rep = simulate(&p, &ev, &cfg).unwrap();
        assert!(rep.gantt.as_ref().unwrap().find_overlap().is_none());
    }

    #[test]
    fn startup_respects_proposition4_bound() {
        let (p, _, ev) = setup();
        let cfg = SimConfig::to_horizon(rat(300, 1));
        let rep = simulate(&p, &ev, &cfg).unwrap();
        let bound = tree_startup_bound(&p, &ev.tree); // 27 for the example
        let entry = rep
            .steady_state_entry(example_throughput(), rat(36, 1), rat(300, 1))
            .expect("steady state reached");
        assert!(
            entry <= Rat::from_int(bound) + rat(36, 1),
            "steady entry {entry} far beyond bound {bound}"
        );
    }

    #[test]
    fn useful_work_happens_during_startup() {
        let (p, _, ev) = setup();
        let cfg = SimConfig::to_horizon(rat(40, 1));
        let rep = simulate(&p, &ev, &cfg).unwrap();
        // The paper: ~80% of optimal during the first rootless period.
        let optimal40 = 40; // rootless throughput 1/unit over 40 units ≈ 40
        let done = rep.total_computed();
        assert!(done >= optimal40 * 70 / 100, "only {done} tasks in first 40 units");
    }

    #[test]
    fn prefill_startup_computes_nothing_early() {
        let (p, _, ev) = setup();
        let cfg = SimConfig::to_horizon(rat(40, 1));
        let evd = simulate_with_policy(&p, &ev, &cfg, StartupPolicy::EventDriven).unwrap();
        let pre = simulate_with_policy(&p, &ev, &cfg, StartupPolicy::Prefill).unwrap();
        // Non-root nodes stay silent until their stock arrives, so the
        // prefill run completes strictly fewer tasks in the same window.
        assert!(pre.total_computed() < evd.total_computed());
        // And the deep node P8 computes nothing before receiving χ=1 tasks…
        // which under prefill still lets it start; the contrast shows in
        // totals rather than total silence for this small χ.
    }

    #[test]
    fn wind_down_is_short_with_interleaving() {
        let (p, _, ev) = setup();
        let cfg = SimConfig {
            horizon: rat(300, 1),
            stop_injection_at: Some(rat(115, 1)),
            total_tasks: None,
            record_gantt: false,
            exact_queue: false,
            seed: 0,
        };
        let rep = simulate(&p, &ev, &cfg).unwrap();
        let wd = rep.wind_down().expect("injection stopped");
        // Paper: 10 time units on its tree — ours stays well under one
        // rootless period (36/40-ish scale).
        assert!(wd <= rat(36, 1), "wind-down {wd} too long");
        assert!(wd.is_positive());
    }

    #[test]
    fn total_tasks_limits_injection() {
        let (p, _, ev) = setup();
        let cfg = SimConfig {
            horizon: rat(400, 1),
            stop_injection_at: None,
            total_tasks: Some(50),
            record_gantt: false,
            exact_queue: false,
            seed: 0,
        };
        let rep = simulate(&p, &ev, &cfg).unwrap();
        assert_eq!(rep.received[0], 50);
        assert_eq!(rep.total_computed(), 50);
        assert!(rep.injection_stopped_at.is_some());
    }

    #[test]
    fn conservation_of_tasks() {
        let (p, _, ev) = setup();
        let cfg = SimConfig {
            horizon: rat(500, 1),
            stop_injection_at: Some(rat(200, 1)),
            total_tasks: None,
            record_gantt: false,
            exact_queue: false,
            seed: 0,
        };
        let rep = simulate(&p, &ev, &cfg).unwrap();
        // Everything injected is eventually computed somewhere.
        assert_eq!(rep.total_computed(), rep.received[0]);
        // Per-node: received = computed + forwarded.
        for id in p.node_ids() {
            let forwarded: u64 = p.children(id).iter().map(|&k| rep.received[k.index()]).sum();
            assert_eq!(rep.received[id.index()], rep.computed[id.index()] + forwarded, "at {id}");
        }
    }

    #[test]
    fn pruned_nodes_stay_silent() {
        let (p, _, ev) = setup();
        let rep = simulate(&p, &ev, &SimConfig::to_horizon(rat(150, 1))).unwrap();
        for i in [5usize, 9, 10, 11] {
            assert_eq!(rep.received[i], 0);
            assert_eq!(rep.computed[i], 0);
        }
    }

    #[test]
    fn latencies_are_tracked_and_sane() {
        let (p, _, ev) = setup();
        let cfg = SimConfig::to_horizon(rat(150, 1));
        let (rep, lats) = simulate_sojourns(&p, &ev, &cfg);
        assert_eq!(lats.len(), rep.completions.len());
        assert!(lats.iter().all(|l| l.is_positive()));
        // A task computed at depth 3 (P8) travels c=1 + c=2 + c=4 plus
        // w=12 of compute at minimum.
        assert!(lats.iter().max().unwrap() >= &rat(19, 1));
        // The mean stays bounded: small steady buffers mean tasks do not
        // queue for long (well under one global period).
        assert!(mean(&lats) < rat(36, 1));
    }

    #[test]
    fn interleaving_keeps_latency_low() {
        // Section 6.3: spacing tasks out lets nodes "consume tasks almost
        // as fast as they receive them" — visible as lower sojourn times
        // than the bursty all-at-once order.
        let (p, ss, _) = setup();
        let inter = EventDrivenSchedule::build(&p, &ss, LocalScheduleKind::Interleaved).unwrap();
        let burst = EventDrivenSchedule::build(&p, &ss, LocalScheduleKind::AllAtOnce).unwrap();
        let cfg = SimConfig {
            horizon: rat(400, 1),
            stop_injection_at: None,
            total_tasks: None,
            record_gantt: false,
            exact_queue: false,
            seed: 0,
        };
        let (mi, mb) = (
            mean(&simulate_sojourns(&p, &inter, &cfg).1),
            mean(&simulate_sojourns(&p, &burst, &cfg).1),
        );
        assert!(mi <= mb, "interleaved mean {mi} > bursty mean {mb}");
    }

    #[test]
    fn interleaved_buffers_no_worse_than_all_at_once() {
        let (p, ss, _) = setup();
        let inter = EventDrivenSchedule::build(&p, &ss, LocalScheduleKind::Interleaved).unwrap();
        let burst = EventDrivenSchedule::build(&p, &ss, LocalScheduleKind::AllAtOnce).unwrap();
        let cfg = SimConfig {
            horizon: rat(300, 1),
            stop_injection_at: None,
            total_tasks: None,
            record_gantt: false,
            exact_queue: false,
            seed: 0,
        };
        let ri = simulate(&p, &inter, &cfg).unwrap();
        let rb = simulate(&p, &burst, &cfg).unwrap();
        assert!(
            ri.peak_buffer() <= rb.peak_buffer(),
            "interleaved peak {} > bursty peak {}",
            ri.peak_buffer(),
            rb.peak_buffer()
        );
        // Throughput is schedule-order independent.
        assert_eq!(
            ri.completions_in(rat(76, 1), rat(292, 1)),
            rb.completions_in(rat(76, 1), rat(292, 1))
        );
    }

    /// A fork whose root saturates its port on one unit link; the other
    /// children, pruned, sit behind links `10 + 1/p` for the primes up to
    /// 103, whose product leaves `i128`.
    fn coprime_links() -> Platform {
        let w = Weight::Time(Rat::ONE);
        let primes = (2..=103i128).filter(|&p| (2..p).all(|q| p % q != 0));
        let children: Vec<(Rat, Weight)> =
            std::iter::once((Rat::ONE, w)).chain(primes.map(|p| (rat(10 * p + 1, p), w))).collect();
        bwfirst_platform::generators::fork(w, &children)
    }

    #[test]
    fn coprime_link_denominators_leave_i128_ticks() {
        let p = coprime_links();
        let ss = SteadyState::from_solution(&bw_first(&p));
        let ev = EventDrivenSchedule::standard(&p, &ss).unwrap();
        let cfg = SimConfig::to_horizon(rat(100, 1));
        let overflow = SimError::TickOverflow { scale: None, horizon: cfg.horizon };
        assert_eq!(simulate(&p, &ev, &cfg).unwrap_err(), overflow);
        let clocked = crate::clocked::simulate(&p, &ev.tree, Default::default(), &cfg);
        assert_eq!(clocked.unwrap_err(), overflow);
        let demand =
            crate::demand_driven::try_simulate_probed(&p, Default::default(), &cfg, &mut NoProbe);
        assert_eq!(demand.unwrap_err(), overflow);
        assert!(overflow.to_string().contains("leaves i128"), "{overflow}");
    }

    #[test]
    fn replans_keep_their_release_steps_on_the_tick_lattice() {
        // The re-plan after c(P1) = 25/3 releases in steps whose
        // denominator the original scale lacks; it is folded in up front.
        let p = example_tree();
        let changes = [LinkChange { at: rat(120, 1), child: NodeId(1), new_c: rat(25, 3) }];
        let plans = replans(&p, &changes, rat(5, 2), rat(280, 1));
        let steps: Vec<Rat> = plans.into_iter().flatten().map(|plan| plan.unwrap().1).collect();
        assert_eq!(steps.len(), 1);
        let scale = crate::engine::tick_scale_hint(&p, [rat(25, 3), rat(5, 2)]).unwrap();
        assert_eq!(scale.ticks(steps[0]), None, "the step adds a denominator");
        let policy = AdaptPolicy::Renegotiate { delay: rat(5, 2) };
        let cfg = SimConfig::to_horizon(rat(280, 1));
        let (_, adaptations) = simulate_dynamic(&p, &changes, policy, &cfg).unwrap();
        assert_eq!(adaptations, vec![rat(245, 2)]);
        // A point past the horizon never fires and adds nothing.
        assert!(replans(&p, &changes, rat(5, 2), rat(100, 1)).iter().all(Option::is_none));
    }

    fn degrade_at_120() -> Vec<LinkChange> {
        vec![LinkChange { at: rat(120, 1), child: NodeId(1), new_c: rat(12, 1) }]
    }

    #[test]
    fn no_changes_matches_static_executor() {
        let p = example_tree();
        let cfg = SimConfig::to_horizon(rat(150, 1));
        let (rep, adaptations) = simulate_dynamic(&p, &[], AdaptPolicy::Stale, &cfg).unwrap();
        assert!(adaptations.is_empty());
        assert_eq!(rep.throughput_in(rat(76, 1), rat(112, 1)), rat(10, 9));
        assert!(rep.gantt.as_ref().unwrap().find_overlap().is_none());
    }

    #[test]
    fn stale_schedule_collapses_after_degradation() {
        let p = example_tree();
        let cfg = SimConfig {
            horizon: rat(500, 1),
            stop_injection_at: None,
            total_tasks: None,
            record_gantt: false,
            exact_queue: false,
            seed: 0,
        };
        let (rep, _) = simulate_dynamic(&p, &degrade_at_120(), AdaptPolicy::Stale, &cfg).unwrap();
        let before = rep.throughput_in(rat(76, 1), rat(112, 1));
        let after = rep.throughput_in(rat(300, 1), rat(500, 1));
        assert_eq!(before, rat(10, 9));
        // The degraded platform's optimum is 21/20; the stale schedule does
        // far worse because P1's 12x slower sends clog the root's port.
        assert!(after < rat(21, 20), "stale after-rate {after}");
        assert!(after < before * rat(3, 4), "expected a real collapse, got {after}");
    }

    #[test]
    fn renegotiation_recovers_the_new_optimum() {
        let p = example_tree();
        let cfg = SimConfig {
            horizon: rat(500, 1),
            stop_injection_at: None,
            total_tasks: None,
            record_gantt: true,
            exact_queue: false,
            seed: 0,
        };
        let policy = AdaptPolicy::Renegotiate { delay: rat(5, 1) };
        let (rep, adaptations) = simulate_dynamic(&p, &degrade_at_120(), policy, &cfg).unwrap();
        assert_eq!(adaptations, vec![rat(125, 1)]);
        // New optimum for c(P1) = 12 is 21/20 (see the proto tests);
        // post-adaptation windows must reach it. Period of the new
        // schedule: lcm includes /20 rates → use a 3x window.
        let after = rep.throughput_in(rat(260, 1), rat(480, 1));
        assert!(after >= rat(21, 20) - rat(1, 20), "recovered rate {after}");
        assert!(rep.gantt.as_ref().unwrap().find_overlap().is_none());
    }

    #[test]
    fn link_recovery_restores_the_original_rate() {
        let p = example_tree();
        let changes = vec![
            LinkChange { at: rat(100, 1), child: NodeId(1), new_c: rat(12, 1) },
            LinkChange { at: rat(250, 1), child: NodeId(1), new_c: rat(1, 1) },
        ];
        let cfg = SimConfig {
            horizon: rat(600, 1),
            stop_injection_at: None,
            total_tasks: None,
            record_gantt: false,
            exact_queue: false,
            seed: 0,
        };
        let policy = AdaptPolicy::Renegotiate { delay: rat(2, 1) };
        let (rep, adaptations) = simulate_dynamic(&p, &changes, policy, &cfg).unwrap();
        assert_eq!(adaptations.len(), 2);
        let healed = rep.throughput_in(rat(400, 1), rat(580, 1));
        assert!(healed >= rat(10, 9) - rat(1, 30), "healed rate {healed}");
    }

    #[test]
    fn tasks_are_never_lost_across_adaptations() {
        let p = example_tree();
        let cfg = SimConfig {
            horizon: rat(900, 1),
            stop_injection_at: Some(rat(400, 1)),
            total_tasks: None,
            record_gantt: false,
            exact_queue: false,
            seed: 0,
        };
        let policy = AdaptPolicy::Renegotiate { delay: rat(5, 1) };
        let (rep, _) = simulate_dynamic(&p, &degrade_at_120(), policy, &cfg).unwrap();
        assert_eq!(rep.total_computed(), rep.received[0]);
    }
}
