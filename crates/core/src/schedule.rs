//! Schedule reconstruction: from rational rates to per-node periodic,
//! asynchronous, event-driven schedules (Section 6).
//!
//! The naive synchronous schedule takes one global period `T` — the lcm of
//! *all* rate denominators in the tree — which the paper calls
//! *embarrassingly long*. Instead:
//!
//! * **Lemma 1** desynchronizes the three single-port activities. Each node
//!   gets a minimal *sending* period `T^s` (lcm of its children's flow
//!   denominators), a minimal *computing* period `T^c` (its own `α`
//!   denominator), and a *receiving* period `T^r` equal to its parent's
//!   `T^s`.
//! * **Section 6.2** removes clocks entirely: over the consuming period
//!   `T^ω = lcm(T^c, T^s)` the node handles incoming tasks in bunches of
//!   `Ψ = ψ_0 + Σ ψ_i` where `ψ_0 = η_0·T^ω` tasks are computed locally and
//!   `ψ_i = η_i·T^ω` are forwarded to child `P_i`. Only these few small
//!   integers describe the node's entire steady-state behaviour
//!   (Figure 4(d)).
//! * **Section 6.3** fixes the order *within* a bunch: destinations are
//!   interleaved by placing, for each destination with quantity `ψ`, marks
//!   at `k/(ψ+1)` (`k = 1..ψ`) on the unit interval and sorting; ties go to
//!   the smaller `ψ`, then the smaller index. Spacing a node's tasks out
//!   lets consumers drain almost as fast as they receive — minimizing
//!   steady-state buffers and, downstream, the start-up and wind-down
//!   phases.
//!
//! [`LocalScheduleKind::AllAtOnce`] and [`LocalScheduleKind::RoundRobin`]
//! are alternative intra-bunch orders used by the ablation experiment E9.

use crate::steady_state::SteadyState;
use bwfirst_platform::{NodeId, Platform};
use bwfirst_rational::{lcm_i128, Rat};
use std::fmt;

/// Errors from schedule reconstruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleError {
    /// An lcm of period denominators exceeded `i128`. Carries the name of
    /// the period being built (`"T^s"`, `"T^ω"`, `"T_0"`, or `"T"`).
    PeriodOverflow {
        /// Which period computation overflowed.
        what: &'static str,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::PeriodOverflow { what } => {
                write!(f, "period {what} overflows i128 (lcm of rate denominators too large)")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

fn as_int(r: Rat, what: &str) -> i128 {
    assert!(r.is_integer(), "{what} must be an integer, got {r}");
    r.numer()
}

fn lcm(a: i128, b: i128, what: &'static str) -> Result<i128, ScheduleError> {
    lcm_i128(a, b).ok_or(ScheduleError::PeriodOverflow { what })
}

/// The per-node periods and integer quantities of Lemma 1 / Section 6.2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSchedule {
    /// The node this schedule belongs to.
    pub node: NodeId,
    /// Receiving period `T^r` (= parent's `T^s`); `None` for the root, which
    /// generates tasks instead of receiving them.
    pub t_recv: Option<i128>,
    /// Minimal computing period `T^c` (the denominator of `α`).
    pub t_comp: i128,
    /// Minimal sending period `T^s` (lcm of children's flow denominators).
    pub t_send: i128,
    /// Consuming period `T^ω = lcm(T^c, T^s)` — the bunch period.
    pub t_omega: i128,
    /// Full local period `T_0 = lcm(T^r, T^c, T^s)` of equation set (3).
    pub t_full: i128,
    /// Tasks received per receiving period: `φ_{-1} = η_{-1}·T^r`.
    pub phi_recv: Option<i128>,
    /// Tasks computed locally per bunch: `ψ_0 = η_0·T^ω`.
    pub psi_self: i128,
    /// Tasks forwarded per bunch to each child with positive flow, in
    /// bandwidth-centric order: `ψ_i = η_i·T^ω`.
    pub psi_children: Vec<(NodeId, i128)>,
    /// Bunch size `Ψ = ψ_0 + Σ ψ_i`.
    pub bunch: i128,
    /// Tasks received per full period: `χ_{-1} = η_{-1}·T_0` — the buffer
    /// stock that guarantees steady state (Proposition 3).
    pub chi_in: Option<i128>,
}

impl NodeSchedule {
    /// The periods and bunch of one node from its own rates alone: `T^c`,
    /// `T^s` (Lemma 1), `T^ω`, `ψ` and `Ψ` (Section 6.2), with the children
    /// that get tasks in bandwidth-centric order (fastest link first, ties
    /// by id). `children` lists every child as `(id, link time c, flow η)`.
    ///
    /// The receive side needs the parent's `T^s`, so it is left as for the
    /// root: `T^r`, `φ` and `χ` are `None` and `T_0 = T^ω`;
    /// [`TreeSchedule::build`] fills it in. Errors when a period lcm
    /// overflows `i128`.
    pub fn from_rates(
        node: NodeId,
        alpha: Rat,
        children: impl IntoIterator<Item = (NodeId, Rat, Rat)>,
    ) -> Result<NodeSchedule, ScheduleError> {
        let mut kids: Vec<(NodeId, Rat, Rat)> = children.into_iter().collect();
        kids.sort_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)));
        let t_comp = alpha.denom();
        let t_send = kids.iter().try_fold(1i128, |acc, k| lcm(acc, k.2.denom(), "T^s"))?;
        let t_omega = lcm(t_comp, t_send, "T^ω")?;
        let per_bunch = |r: Rat, what| as_int(r * Rat::from_int(t_omega), what);
        let psi_self = per_bunch(alpha, "psi_self");
        let psi_children: Vec<(NodeId, i128)> = kids
            .iter()
            .filter(|k| k.2.is_positive())
            .map(|&(k, _, eta)| (k, per_bunch(eta, "psi")))
            .collect();
        let bunch = psi_self + psi_children.iter().map(|&(_, q)| q).sum::<i128>();
        Ok(NodeSchedule {
            node,
            t_recv: None,
            t_comp,
            t_send,
            t_omega,
            t_full: t_omega,
            phi_recv: None,
            psi_self,
            psi_children,
            bunch,
            chi_in: None,
        })
    }
}

/// The asynchronous/event-driven schedules of every *active* node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeSchedule {
    schedules: Vec<Option<NodeSchedule>>,
}

impl TreeSchedule {
    /// Derives all periods and `ψ` quantities from the steady-state rates.
    ///
    /// Inactive nodes (no inflow, no compute) get no schedule. Errors when a
    /// period lcm overflows `i128`; panics if the rates violate conservation
    /// (use [`SteadyState::verify`] first when in doubt).
    pub fn build(platform: &Platform, ss: &SteadyState) -> Result<TreeSchedule, ScheduleError> {
        let n = platform.len();
        let mut schedules: Vec<Option<NodeSchedule>> = vec![None; n];
        // Parents precede children in no particular id order, so walk the
        // tree from the root; a child's T^r needs its parent's T^s.
        for id in platform.preorder_bandwidth_centric(platform.root()) {
            if !ss.is_active(id) {
                continue;
            }
            let i = id.index();
            // Every child has a link; the root alone has none.
            let kids = platform
                .children(id)
                .iter()
                .filter_map(|&k| platform.link_time(k).map(|c| (k, c, ss.eta_in[k.index()])));
            let mut sched = NodeSchedule::from_rates(id, ss.alpha[i], kids)?;
            if let Some(parent) = platform.parent(id) {
                let pt = match schedules[parent.index()].as_ref() {
                    Some(s) => s.t_send,
                    // Conservation makes an active node's parent active,
                    // and the preorder walk scheduled it already.
                    None => unreachable!("active node's parent is active"),
                };
                sched.t_recv = Some(pt);
                sched.phi_recv = Some(as_int(ss.eta_in[i] * Rat::from_int(pt), "phi"));
                sched.t_full = lcm(sched.t_omega, pt, "T_0")?;
                sched.chi_in = Some(as_int(ss.eta_in[i] * Rat::from_int(sched.t_full), "chi"));
            }
            schedules[i] = Some(sched);
        }
        Ok(TreeSchedule { schedules })
    }

    /// The schedule of `id`, if the node is active.
    #[must_use]
    pub fn get(&self, id: NodeId) -> Option<&NodeSchedule> {
        self.schedules.get(id.index()).and_then(Option::as_ref)
    }

    /// Iterator over all active nodes' schedules.
    pub fn iter(&self) -> impl Iterator<Item = &NodeSchedule> {
        self.schedules.iter().filter_map(Option::as_ref)
    }

    /// Number of active (scheduled) nodes.
    #[must_use]
    pub fn active_count(&self) -> usize {
        self.iter().count()
    }
}

/// The naive global synchronous period `T` of Section 6: the lcm of every
/// active rate denominator in the tree. Contrast with the per-node `T^ω`.
/// Errors when the lcm overflows `i128`.
pub fn synchronous_period(ss: &SteadyState) -> Result<i128, ScheduleError> {
    let mut t = 1i128;
    for (eta, alpha) in ss.eta_in.iter().zip(&ss.alpha) {
        if eta.is_positive() {
            t = lcm(t, eta.denom(), "T")?;
        }
        if alpha.is_positive() {
            t = lcm(t, alpha.denom(), "T")?;
        }
    }
    Ok(t)
}

/// What a node does with one incoming (or generated) task of a bunch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotAction {
    /// Keep the task and compute it locally.
    Compute,
    /// Forward the task to this child.
    Send(NodeId),
}

/// Intra-bunch ordering policy (Section 6.3 and the E9 ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalScheduleKind {
    /// The paper's proportional interleaving — minimizes buffered tasks.
    Interleaved,
    /// Each destination's tasks as one contiguous block (children in
    /// bandwidth-centric order, own computation last) — the bursty
    /// worst case for buffers.
    AllAtOnce,
    /// Cycle through destinations one task at a time until each exhausts its
    /// quantity — a folk middle ground.
    RoundRobin,
}

/// The concrete per-bunch action order of one node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalSchedule {
    /// The node this order belongs to.
    pub node: NodeId,
    /// The policy that produced it.
    pub kind: LocalScheduleKind,
    /// Exactly `Ψ` actions: what to do with each task of a bunch, in order.
    pub actions: Vec<SlotAction>,
}

impl LocalSchedule {
    /// Builds the intra-bunch order for `sched` under `kind`.
    #[must_use]
    pub fn build(sched: &NodeSchedule, kind: LocalScheduleKind) -> LocalSchedule {
        // Destinations with their local index: self is index 0, children get
        // 1.. in bandwidth-centric order (the paper's local re-numbering).
        let mut dests: Vec<(SlotAction, i128, usize)> =
            Vec::with_capacity(1 + sched.psi_children.len());
        if sched.psi_self > 0 {
            dests.push((SlotAction::Compute, sched.psi_self, 0));
        }
        for (rank, &(child, q)) in sched.psi_children.iter().enumerate() {
            debug_assert!(q > 0);
            dests.push((SlotAction::Send(child), q, rank + 1));
        }
        let actions = match kind {
            LocalScheduleKind::Interleaved => interleave(&dests),
            LocalScheduleKind::AllAtOnce => {
                let mut acts = Vec::with_capacity(sched.bunch as usize);
                for &(child, q) in &sched.psi_children {
                    acts.extend(std::iter::repeat_n(SlotAction::Send(child), q as usize));
                }
                acts.extend(std::iter::repeat_n(SlotAction::Compute, sched.psi_self as usize));
                acts
            }
            LocalScheduleKind::RoundRobin => {
                let mut remaining: Vec<(SlotAction, i128)> =
                    dests.iter().map(|&(a, q, _)| (a, q)).collect();
                let mut acts = Vec::with_capacity(sched.bunch as usize);
                while acts.len() < sched.bunch as usize {
                    for entry in &mut remaining {
                        if entry.1 > 0 {
                            acts.push(entry.0);
                            entry.1 -= 1;
                        }
                    }
                }
                acts
            }
        };
        debug_assert_eq!(actions.len(), sched.bunch as usize);
        LocalSchedule { node: sched.node, kind, actions }
    }

    /// How many actions of the bunch target `dest`.
    #[must_use]
    pub fn count(&self, dest: SlotAction) -> usize {
        self.actions.iter().filter(|&&a| a == dest).count()
    }
}

/// Section 6.3 interleaving: marks at `k/(ψ+1)`, sorted by position, ties by
/// smaller `ψ`, then smaller local index.
fn interleave(dests: &[(SlotAction, i128, usize)]) -> Vec<SlotAction> {
    let mut marks: Vec<(Rat, i128, usize, SlotAction)> = Vec::new();
    for &(action, psi, index) in dests {
        let step = Rat::new(1, psi + 1);
        for k in 1..=psi {
            marks.push((Rat::from_int(k) * step, psi, index, action));
        }
    }
    marks.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
    marks.into_iter().map(|(_, _, _, a)| a).collect()
}

/// The fully-resolved event-driven schedule of the whole tree: per-node
/// periods/quantities plus the intra-bunch order, ready for execution by the
/// simulator or the distributed runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventDrivenSchedule {
    /// Periods and quantities per active node.
    pub tree: TreeSchedule,
    /// Intra-bunch action order per active node (indexed like the platform).
    pub locals: Vec<Option<LocalSchedule>>,
    /// Policy used for every node's local order.
    pub kind: LocalScheduleKind,
}

impl EventDrivenSchedule {
    /// Builds the event-driven schedule under the given intra-bunch policy.
    ///
    /// ```
    /// use bwfirst_core::schedule::{EventDrivenSchedule, SlotAction};
    /// use bwfirst_core::{bw_first, SteadyState};
    /// use bwfirst_platform::examples::example_tree;
    /// use bwfirst_platform::NodeId;
    ///
    /// let p = example_tree();
    /// let ss = SteadyState::from_solution(&bw_first(&p));
    /// let ev = EventDrivenSchedule::standard(&p, &ss).unwrap();
    /// // The root handles bunches of 10 tasks — "10 tasks every 9 units".
    /// let root = ev.tree.get(NodeId(0)).unwrap();
    /// assert_eq!((root.bunch, root.t_omega), (10, 9));
    /// assert_eq!(ev.local(NodeId(0)).unwrap().actions.len(), 10);
    /// ```
    pub fn build(
        platform: &Platform,
        ss: &SteadyState,
        kind: LocalScheduleKind,
    ) -> Result<EventDrivenSchedule, ScheduleError> {
        let tree = TreeSchedule::build(platform, ss)?;
        let locals = platform
            .node_ids()
            .map(|id| tree.get(id).map(|s| LocalSchedule::build(s, kind)))
            .collect();
        Ok(EventDrivenSchedule { tree, locals, kind })
    }

    /// The paper's schedule: interleaved intra-bunch order.
    pub fn standard(
        platform: &Platform,
        ss: &SteadyState,
    ) -> Result<EventDrivenSchedule, ScheduleError> {
        EventDrivenSchedule::build(platform, ss, LocalScheduleKind::Interleaved)
    }

    /// The local order of `id`, if active.
    #[must_use]
    pub fn local(&self, id: NodeId) -> Option<&LocalSchedule> {
        self.locals.get(id.index()).and_then(Option::as_ref)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bwfirst::bw_first;
    use bwfirst_platform::examples::example_tree;
    use bwfirst_rational::rat;

    fn example_schedule() -> (Platform, SteadyState, TreeSchedule) {
        let p = example_tree();
        let ss = SteadyState::from_solution(&bw_first(&p));
        let ts = TreeSchedule::build(&p, &ss).unwrap();
        (p, ss, ts)
    }

    #[test]
    fn period_overflow_is_a_typed_error() {
        let p = example_tree();
        let mut ss = SteadyState::from_solution(&bw_first(&p));
        // Two coprime near-2^126 denominators: any common period overflows.
        ss.alpha[0] = rat(1, (1 << 126) + 1);
        ss.alpha[1] = rat(1, (1 << 126) - 1);
        assert_eq!(synchronous_period(&ss), Err(ScheduleError::PeriodOverflow { what: "T" }));
        let err = TreeSchedule::build(&p, &ss).unwrap_err();
        let ScheduleError::PeriodOverflow { what } = err;
        assert!(!what.is_empty());
        assert!(err.to_string().contains("overflows i128"), "{err}");
        assert!(EventDrivenSchedule::standard(&p, &ss).is_err());
    }

    #[test]
    fn example_periods_match_hand_computation() {
        let (_, _, ts) = example_schedule();
        let s0 = ts.get(NodeId(0)).unwrap();
        assert_eq!(s0.t_send, 3);
        assert_eq!(s0.t_comp, 9);
        assert_eq!(s0.t_omega, 9);
        assert_eq!(s0.t_recv, None);
        assert_eq!(s0.psi_self, 1);
        assert_eq!(s0.psi_children.iter().map(|&(_, q)| q).collect::<Vec<_>>(), vec![3, 3, 3]);
        assert_eq!(s0.bunch, 10); // 10 tasks every 9 time units, literally

        let s1 = ts.get(NodeId(1)).unwrap();
        assert_eq!(s1.t_recv, Some(3));
        assert_eq!(s1.phi_recv, Some(1));
        assert_eq!(s1.t_comp, 6);
        assert_eq!(s1.t_send, 6);
        assert_eq!(s1.t_omega, 6);
        assert_eq!(s1.t_full, 6);
        assert_eq!(s1.psi_self, 1);
        assert_eq!(s1.psi_children, vec![(NodeId(4), 1)]);
        assert_eq!(s1.bunch, 2);
        assert_eq!(s1.chi_in, Some(2));

        let s7 = ts.get(NodeId(7)).unwrap();
        assert_eq!(s7.t_recv, Some(6));
        assert_eq!(s7.t_omega, 12);
        assert_eq!(s7.psi_self, 1);
        assert_eq!(s7.psi_children, vec![(NodeId(8), 1)]);

        let s8 = ts.get(NodeId(8)).unwrap();
        assert_eq!(s8.t_recv, Some(12));
        assert_eq!(s8.t_send, 1);
        assert_eq!(s8.t_omega, 12);
        assert_eq!(s8.bunch, 1);
        assert_eq!(s8.chi_in, Some(1));
    }

    #[test]
    fn inactive_nodes_have_no_schedule() {
        let (_, _, ts) = example_schedule();
        for i in [5u32, 9, 10, 11] {
            assert!(ts.get(NodeId(i)).is_none(), "P{i} should be unscheduled");
        }
        assert_eq!(ts.active_count(), 8);
    }

    #[test]
    fn synchronous_period_is_much_longer_than_bunch_periods() {
        let (_, ss, ts) = example_schedule();
        let t = synchronous_period(&ss).unwrap();
        assert_eq!(t, 36);
        // Every per-node consuming period is a small divisor of it.
        for s in ts.iter() {
            assert!(s.t_omega <= 12);
            assert_eq!(t % s.t_omega, 0);
        }
        // 40 tasks per global period — the "rootless 40/40" figure.
        assert_eq!(ss.throughput * Rat::from_int(t), rat(40, 1));
    }

    #[test]
    fn phi_and_psi_satisfy_conservation_in_integers() {
        let (p, _, ts) = example_schedule();
        for s in ts.iter() {
            // Over T_full, inflow χ equals ψ-consumption scaled.
            if let Some(chi) = s.chi_in {
                let bunches = s.t_full / s.t_omega;
                assert_eq!(chi, bunches * s.bunch, "χ vs Ψ at {}", s.node);
            }
            // φ of each child equals the parent's per-T^s share.
            for &(k, _) in &s.psi_children {
                let ks = ts.get(k).unwrap();
                assert_eq!(ks.t_recv, Some(s.t_send));
            }
            let _ = &p;
        }
    }

    #[test]
    fn paper_interleaving_example() {
        // ψ0 = 1, ψ1 = 2, ψ2 = 4 → P2 P1 P2 P0 P2 P1 P2 (Figure 3).
        let sched = NodeSchedule {
            node: NodeId(0),
            t_recv: None,
            t_comp: 7,
            t_send: 7,
            t_omega: 7,
            t_full: 7,
            phi_recv: None,
            psi_self: 1,
            psi_children: vec![(NodeId(1), 2), (NodeId(2), 4)],
            bunch: 7,
            chi_in: None,
        };
        let ls = LocalSchedule::build(&sched, LocalScheduleKind::Interleaved);
        use SlotAction::{Compute as C, Send};
        let s1 = Send(NodeId(1));
        let s2 = Send(NodeId(2));
        assert_eq!(ls.actions, vec![s2, s1, s2, C, s2, s1, s2]);
        // "The description can be divided by two": it is a palindrome.
        let mut rev = ls.actions.clone();
        rev.reverse();
        assert_eq!(rev, ls.actions);
    }

    #[test]
    fn interleaving_tie_breaks_by_smaller_psi_then_index() {
        // Self ψ=2 and child ψ=2 collide at 1/3 and 2/3; child ψ=5 spreads.
        let sched = NodeSchedule {
            node: NodeId(0),
            t_recv: None,
            t_comp: 9,
            t_send: 9,
            t_omega: 9,
            t_full: 9,
            phi_recv: None,
            psi_self: 2,
            psi_children: vec![(NodeId(1), 2), (NodeId(2), 5)],
            bunch: 9,
            chi_in: None,
        };
        let ls = LocalSchedule::build(&sched, LocalScheduleKind::Interleaved);
        use SlotAction::{Compute as C, Send};
        let s1 = Send(NodeId(1));
        let s2 = Send(NodeId(2));
        // Positions: self {1/3, 2/3}, P1 {1/3, 2/3}, P2 {k/6, k=1..5}.
        // P2's 2/6 and 4/6 coincide with the 1/3 and 2/3 marks: the smaller
        // ψ (self, P1) wins, and self beats P1 on index at equal ψ:
        // 1/6(P2), 1/3(self, P1, P2), 1/2(P2), 2/3(self, P1, P2), 5/6(P2).
        assert_eq!(ls.actions, vec![s2, C, s1, s2, s2, C, s1, s2, s2]);
    }

    #[test]
    fn all_kinds_preserve_quantities() {
        let (p, ss, ts) = example_schedule();
        for kind in [
            LocalScheduleKind::Interleaved,
            LocalScheduleKind::AllAtOnce,
            LocalScheduleKind::RoundRobin,
        ] {
            let ev = EventDrivenSchedule::build(&p, &ss, kind).unwrap();
            for s in ts.iter() {
                let ls = ev.local(s.node).unwrap();
                assert_eq!(ls.actions.len() as i128, s.bunch);
                assert_eq!(ls.count(SlotAction::Compute) as i128, s.psi_self);
                for &(k, q) in &s.psi_children {
                    assert_eq!(ls.count(SlotAction::Send(k)) as i128, q);
                }
            }
        }
    }

    #[test]
    fn all_at_once_is_blocky() {
        let (p, ss, _) = example_schedule();
        let ev = EventDrivenSchedule::build(&p, &ss, LocalScheduleKind::AllAtOnce).unwrap();
        let root = ev.local(NodeId(0)).unwrap();
        use SlotAction::{Compute as C, Send};
        let expect: Vec<SlotAction> = [Send(NodeId(1)); 3]
            .into_iter()
            .chain([Send(NodeId(2)); 3])
            .chain([Send(NodeId(3)); 3])
            .chain([C])
            .collect();
        assert_eq!(root.actions, expect);
    }

    #[test]
    fn round_robin_cycles() {
        let (p, ss, _) = example_schedule();
        let ev = EventDrivenSchedule::build(&p, &ss, LocalScheduleKind::RoundRobin).unwrap();
        let root = ev.local(NodeId(0)).unwrap();
        use SlotAction::{Compute as C, Send};
        let (s1, s2, s3) = (Send(NodeId(1)), Send(NodeId(2)), Send(NodeId(3)));
        assert_eq!(root.actions, vec![C, s1, s2, s3, s1, s2, s3, s1, s2, s3]);
    }

    #[test]
    fn interleaved_spacing_beats_all_at_once() {
        // Max gap between consecutive sends to the same child is smaller
        // under interleaving than under all-at-once for the root's ψ=3 kids.
        let (p, ss, _) = example_schedule();
        let gap = |actions: &[SlotAction], target: SlotAction| {
            let pos: Vec<usize> =
                actions.iter().enumerate().filter(|(_, &a)| a == target).map(|(i, _)| i).collect();
            // Cyclic max gap.
            let n = actions.len();
            pos.windows(2)
                .map(|w| w[1] - w[0])
                .chain(std::iter::once(pos[0] + n - pos.last().unwrap()))
                .max()
                .unwrap()
        };
        let inter = EventDrivenSchedule::build(&p, &ss, LocalScheduleKind::Interleaved).unwrap();
        let burst = EventDrivenSchedule::build(&p, &ss, LocalScheduleKind::AllAtOnce).unwrap();
        let t = SlotAction::Send(NodeId(1));
        assert!(
            gap(&inter.local(NodeId(0)).unwrap().actions, t)
                < gap(&burst.local(NodeId(0)).unwrap().actions, t)
        );
    }
}
