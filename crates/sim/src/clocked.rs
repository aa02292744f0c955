//! The Lemma 1 *clocked asynchronous* executor (Section 6.1).
//!
//! Before removing clocks entirely, the paper desynchronizes the three
//! activities with per-activity periods: every `T^c` time units the node
//! computes `ψ`-like integer quota `ρ_0` tasks, every `T^s` it sends `φ_i`
//! tasks to each child `P_i`, and it receives whatever the parent's clocked
//! sender delivers. Proposition 3 shows this sustains steady state provided
//! `χ_{-1}` tasks are **buffered in advance** — the stock that decouples the
//! unsynchronized windows.
//!
//! This executor makes that construction runnable:
//!
//! * with [`ClockedConfig::prefill`] the `χ` stock is placed in every buffer
//!   at `t = 0` and the tree is in steady state *from the very first
//!   window* — the textbook Proposition 3 behaviour;
//! * without prefill, nodes repeatedly exhaust their quota windows while
//!   the pipeline fills (the reason the paper's Section 7 start-up strategy
//!   exists at all).
//!
//! Comparing this executor with the event-driven one quantifies what the
//! paper gains by dropping clocks: same steady throughput, but the clocked
//! schedule needs the χ prefill (extra memory and a dead distribution
//! phase) to start cleanly.

// R2: typed errors, no panics (rules: docs/ANALYSIS.md).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::engine::{Engine, Policy, SimConfig, SimReport};
use crate::error::SimError;
use crate::gantt::SegmentKind;
use crate::probe::{NoProbe, Probe};
use bwfirst_core::schedule::{SlotAction, TreeSchedule};
use bwfirst_platform::{NodeId, Platform};
use bwfirst_rational::{widening_mul_u128, Rat};

/// Options for the clocked executor.
#[derive(Debug, Clone, Copy)]
pub struct ClockedConfig {
    /// Place each node's `χ_{-1}` steady-state stock in its buffer at t = 0
    /// (Proposition 3's precondition).
    pub prefill: bool,
}

impl Default for ClockedConfig {
    fn default() -> Self {
        ClockedConfig { prefill: true }
    }
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    /// A node's compute window opens (period `T^c`).
    CpuTick(NodeId),
    /// A node's send window opens (period `T^s`).
    SendTick(NodeId),
    CpuEnd(NodeId),
    PortEnd(NodeId),
    Arrive(NodeId),
}

#[derive(Default)]
struct NodeState {
    /// Compute time and link time from the parent, in ticks.
    w: Option<i128>,
    c: Option<i128>,
    /// Compute window length `T^c` in ticks and quota `ρ_0` per window.
    t_comp: i128,
    rho: i128,
    /// Send window length `T^s` in ticks and quota `φ_i` per child per
    /// window (bandwidth-centric order).
    t_send: i128,
    phi: Vec<(NodeId, i128)>,
    /// Remaining compute quota in the current `T^c` window.
    cpu_quota: i128,
    /// Remaining send quota per child, aligned with `phi`.
    send_quota: Vec<(NodeId, i128)>,
    cpu_busy: bool,
    port_busy: bool,
}

struct Clocked<'a, P> {
    eng: Engine<Ev, P>,
    schedule: &'a TreeSchedule,
    nodes: Vec<NodeState>,
}

impl<P: Probe> Policy for Clocked<'_, P> {
    type Event = Ev;
    type Probe = P;

    fn engine(&mut self) -> &mut Engine<Ev, P> {
        &mut self.eng
    }

    fn start(&mut self) -> Result<(), SimError> {
        // Arm the clocks of every scheduled node.
        for s in self.schedule.iter() {
            let n = &self.nodes[s.node.index()];
            if n.rho > 0 {
                self.eng.queue.push(0, Ev::CpuTick(s.node));
            }
            if !n.phi.is_empty() {
                self.eng.queue.push(0, Ev::SendTick(s.node));
            }
        }
        Ok(())
    }

    fn on_event(&mut self, t: i128, ev: Ev) -> Result<(), SimError> {
        match ev {
            Ev::CpuTick(node) => {
                // Quota does not accumulate across windows: what the node
                // failed to compute is lost (Lemma 1's windows are
                // independent).
                let n = &mut self.nodes[node.index()];
                n.cpu_quota = n.rho;
                self.eng.queue.push(t + n.t_comp, Ev::CpuTick(node));
                self.try_cpu(node, t);
            }
            Ev::SendTick(node) => {
                let n = &mut self.nodes[node.index()];
                n.send_quota.clone_from(&n.phi);
                self.eng.queue.push(t + n.t_send, Ev::SendTick(node));
                self.try_port(node, t)?;
            }
            Ev::CpuEnd(node) => {
                self.nodes[node.index()].cpu_busy = false;
                self.eng.complete(node, t);
                self.try_cpu(node, t);
            }
            Ev::PortEnd(node) => {
                self.nodes[node.index()].port_busy = false;
                self.try_port(node, t)?;
            }
            Ev::Arrive(node) => {
                self.eng.received[node.index()] += 1;
                self.eng.buffer_add(node, t, 1);
                self.eng.probe.task_delivered(node, t);
                self.try_cpu(node, t);
                self.try_port(node, t)?;
            }
        }
        Ok(())
    }
}

/// Whether the quota share `q/total` exceeds `best_q/best_total` (positive
/// quotas and totals), compared exactly by cross products.
fn share_exceeds(q: i128, total: i128, best_q: i128, best_total: i128) -> bool {
    let [q, total, best_q, best_total] = [q, total, best_q, best_total].map(i128::unsigned_abs);
    if (q | total | best_q | best_total) >> 64 == 0 {
        q * best_total > best_q * total
    } else {
        widening_mul_u128(q, best_total) > widening_mul_u128(best_q, total)
    }
}

impl<P: Probe> Clocked<'_, P> {
    fn try_cpu(&mut self, node: NodeId, t: i128) {
        let i = node.index();
        if self.nodes[i].cpu_busy || self.nodes[i].cpu_quota <= 0 {
            return;
        }
        let Some(w) = self.nodes[i].w else { return };
        if !self.eng.take(node, t) {
            return;
        }
        self.nodes[i].cpu_quota -= 1;
        self.nodes[i].cpu_busy = true;
        self.eng.probe.task_dispatch(node, t, SlotAction::Compute, None);
        self.eng.probe.segment(node, SegmentKind::Compute, t, t + w);
        self.eng.queue.push(t + w, Ev::CpuEnd(node));
    }

    fn try_port(&mut self, node: NodeId, t: i128) -> Result<(), SimError> {
        let i = node.index();
        if self.nodes[i].port_busy {
            return Ok(());
        }
        // Serve the child with the largest remaining share of its window
        // quota (ties: the window order). Serving fastest-link-first in full
        // bursts would hand slow consumers their whole window's tasks at
        // once and build χ-dwarfing backlogs; proportional service spreads
        // each child's φ quota across the window, which is what Lemma 1's
        // construction intends.
        let n = &self.nodes[i];
        let mut best: Option<(usize, i128, i128)> = None;
        for (pos, (&(_, q), &(_, total))) in n.send_quota.iter().zip(&n.phi).enumerate() {
            if q <= 0 {
                continue;
            }
            let total = total.max(1);
            if best.is_none_or(|(_, bq, bt)| share_exceeds(q, total, bq, bt)) {
                best = Some((pos, q, total));
            }
        }
        let Some((pos, _, _)) = best else { return Ok(()) };
        let child = n.send_quota[pos].0;
        if !self.eng.take(node, t) {
            return Ok(());
        }
        self.nodes[i].send_quota[pos].1 -= 1;
        self.nodes[i].port_busy = true;
        self.eng.probe.task_dispatch(node, t, SlotAction::Send(child), None);
        let c = self.nodes[child.index()].c.ok_or(SimError::MissingLink(child))?;
        self.eng.transfer(node, child, t, t + c);
        self.eng.queue.push(t + c, Ev::PortEnd(node));
        self.eng.queue.push(t + c, Ev::Arrive(child));
        Ok(())
    }
}

/// Simulates the Lemma 1 clocked asynchronous schedule.
///
/// `received` in the report includes prefilled tasks, so the conservation
/// identity `received = computed + forwarded` still holds per node over a
/// fully drained run.
///
/// # Errors
/// [`SimError::ChiOverflow`] when a prefill stock `χ` exceeds the task
/// counters; other [`SimError`]s if the schedule and platform disagree
/// mid-run.
pub fn simulate(
    platform: &Platform,
    schedule: &TreeSchedule,
    clocked: ClockedConfig,
    cfg: &SimConfig,
) -> Result<SimReport, SimError> {
    simulate_probed(platform, schedule, clocked, cfg, &mut NoProbe)
}

/// Simulates the clocked schedule, driving a custom [`Probe`].
///
/// # Errors
/// As [`simulate`].
pub fn simulate_probed(
    platform: &Platform,
    schedule: &TreeSchedule,
    clocked: ClockedConfig,
    cfg: &SimConfig,
    probe: &mut impl Probe,
) -> Result<SimReport, SimError> {
    // Window ticks land at integer multiples of T^c/T^s, so the only
    // fractional times come from compute/link durations.
    let windows = schedule.iter().flat_map(|s| [s.t_comp, s.t_send]).map(Rat::from_int);
    let mut eng = Engine::new(platform, cfg, windows, probe)?;
    let ticks = |d: Option<Rat>| d.map(|d| eng.ticks(d)).transpose();
    let mut nodes = Vec::with_capacity(platform.len());
    for id in platform.node_ids() {
        let (w, c) = (ticks(platform.weight(id).time())?, ticks(platform.link_time(id))?);
        nodes.push(NodeState { w, c, ..NodeState::default() });
    }
    for s in schedule.iter() {
        let n = &mut nodes[s.node.index()];
        n.t_comp = eng.ticks(Rat::from_int(s.t_comp))?;
        n.t_send = eng.ticks(Rat::from_int(s.t_send))?;
        // ρ_0 = ψ_0·T^c/T^ω tasks per T^c window and φ_i = ψ_i·T^s/T^ω per
        // T^s window. T^c and T^s divide T^ω, and the quotients are whole
        // (α = ρ_0/T^c, η_i = φ_i/T^s), so dividing by T^ω/T^c or T^ω/T^s
        // is exact and forms no product that could leave i128.
        debug_assert_eq!(s.psi_self % (s.t_omega / s.t_comp), 0);
        n.rho = s.psi_self / (s.t_omega / s.t_comp);
        n.phi = s.psi_children.iter().map(|&(k, q)| (k, q / (s.t_omega / s.t_send))).collect();
        if let Some(chi) = s.chi_in.filter(|_| clocked.prefill) {
            // χ is checked into the u64 counters and the i64 buffer change
            // before any task of it enters.
            let overflow = SimError::ChiOverflow { node: s.node, chi };
            let tasks = u64::try_from(chi).map_err(|_| overflow)?;
            let delta = i64::try_from(chi).map_err(|_| overflow)?;
            eng.received[s.node.index()] += tasks;
            eng.buffer_add(s.node, 0, delta);
            for _ in 0..tasks {
                eng.probe.task_enter(s.node, 0, true);
            }
        }
    }
    Clocked { eng, schedule, nodes }.run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwfirst_core::schedule::synchronous_period;
    use bwfirst_core::{bw_first, SteadyState};
    use bwfirst_platform::examples::{example_throughput, example_tree};
    use bwfirst_rational::rat;

    fn setup() -> (Platform, SteadyState, TreeSchedule) {
        let p = example_tree();
        let ss = SteadyState::from_solution(&bw_first(&p));
        let ts = TreeSchedule::build(&p, &ss).unwrap();
        (p, ss, ts)
    }

    #[test]
    fn prefilled_run_is_steady_from_the_start() {
        let (p, ss, ts) = setup();
        let cfg = SimConfig::to_horizon(rat(144, 1)); // 4 global periods
        let rep = simulate(&p, &ts, ClockedConfig { prefill: true }, &cfg).unwrap();
        // Proposition 3: with χ buffered, consumption is steady from t = 0.
        // Completions lag starts by one CPU latency per node, so the first
        // period is short by at most one task per active node (8 here) and
        // every later period carries the full 40.
        let first = rep.completions_in(rat(0, 1), rat(36, 1));
        assert!(first >= 32, "first period only completed {first}");
        for k in 1..4 {
            let from = rat(36, 1) * bwfirst_rational::Rat::from(k as usize);
            assert_eq!(rep.completions_in(from, from + rat(36, 1)), 40, "period {k}");
        }
        let _ = ss;
    }

    #[test]
    fn unprefilled_run_starts_slower_then_converges() {
        let (p, _, ts) = setup();
        let cfg = SimConfig::to_horizon(rat(216, 1));
        let cold = simulate(&p, &ts, ClockedConfig { prefill: false }, &cfg).unwrap();
        let warm = simulate(&p, &ts, ClockedConfig { prefill: true }, &cfg).unwrap();
        let first_cold = cold.completions_in(rat(0, 1), rat(36, 1));
        let first_warm = warm.completions_in(rat(0, 1), rat(36, 1));
        assert!(first_cold < first_warm, "cold start {first_cold} vs warm {first_warm}");
        // Quota windows eventually fill: the cold run reaches the rate too.
        assert_eq!(cold.completions_in(rat(144, 1), rat(180, 1)), 40);
    }

    #[test]
    fn single_port_and_conservation() {
        let (p, _, ts) = setup();
        let cfg = SimConfig {
            horizon: rat(400, 1),
            stop_injection_at: Some(rat(150, 1)),
            total_tasks: None,
            record_gantt: true,
            exact_queue: false,
            seed: 0,
        };
        let rep = simulate(&p, &ts, ClockedConfig::default(), &cfg).unwrap();
        assert!(rep.gantt.as_ref().unwrap().find_overlap().is_none());
        // Drained: everything received (incl. prefill) was computed or
        // forwarded.
        for id in p.node_ids() {
            let forwarded: u64 = p
                .children(id)
                .iter()
                .map(|&k| {
                    // Children's receive counts include their own prefill; what
                    // the parent actually forwarded is received - prefilled.
                    let s = ts.get(k);
                    rep.received[k.index()] - s.and_then(|s| s.chi_in).unwrap_or(0) as u64
                })
                .sum();
            assert_eq!(
                rep.received[id.index()],
                rep.computed[id.index()] + forwarded,
                "conservation at {id}"
            );
        }
    }

    #[test]
    fn clocked_matches_event_driven_steady_rate() {
        let (p, ss, ts) = setup();
        let cfg = SimConfig::to_horizon(rat(180, 1));
        let rep = simulate(&p, &ts, ClockedConfig::default(), &cfg).unwrap();
        let window = bwfirst_rational::Rat::from_int(synchronous_period(&ss).unwrap());
        assert_eq!(rep.throughput_in(rat(36, 1), rat(36, 1) + window), example_throughput());
    }

    #[test]
    fn exact_hetero_quotas_serve_every_child() {
        // The root of hetero n = 20, seed 1 owes P1 ~7.2·10^20 tasks per
        // bunch: formed as ψ_i·T^s before dividing by T^ω, its quota left
        // i128 (negative in release) and the root never served P1.
        let p = bwfirst_platform::generators::hetero_tree(20, 1);
        let ss = SteadyState::from_solution(&bw_first(&p));
        let ts = TreeSchedule::build(&p, &ss).unwrap();
        let cfg = SimConfig::to_horizon(rat(200, 1));
        let rep = simulate(&p, &ts, ClockedConfig { prefill: false }, &cfg).unwrap();
        let to_p1 = SegmentKind::Send(NodeId(1));
        let gantt = rep.gantt.unwrap();
        assert!(gantt.segments.iter().any(|s| s.node == p.root() && s.kind == to_p1));
    }

    #[test]
    fn a_prefill_stock_past_the_task_counters_is_refused() {
        // hetero n = 20, seed 1: P1's exact χ exceeds u64::MAX; it used to
        // wrap into the counters.
        let p = bwfirst_platform::generators::hetero_tree(20, 1);
        let ss = SteadyState::from_solution(&bw_first(&p));
        let ts = TreeSchedule::build(&p, &ss).unwrap();
        let cfg = SimConfig::to_horizon(rat(200, 1));
        let err = simulate(&p, &ts, ClockedConfig { prefill: true }, &cfg).unwrap_err();
        let chi = 723_925_204_196_989_792_579;
        assert_eq!(err, SimError::ChiOverflow { node: NodeId(1), chi });
    }

    #[test]
    fn quotas_are_exact_per_window() {
        // ρ and φ reproduce the rational rates exactly: over any horizon
        // that is a multiple of all windows, computed counts match rate·T.
        let (p, ss, ts) = setup();
        let cfg = SimConfig::to_horizon(rat(72, 1));
        let rep = simulate(&p, &ts, ClockedConfig::default(), &cfg).unwrap();
        for s in ts.iter() {
            let expect = ss.alpha[s.node.index()] * rat(72, 1);
            // Allow the tail task still on the CPU at the horizon.
            let got = bwfirst_rational::Rat::from(rep.computed[s.node.index()] as usize);
            assert!(
                (expect - got).abs() <= bwfirst_rational::Rat::ONE,
                "{}: expected ~{expect}, got {got}",
                s.node
            );
        }
    }
}
