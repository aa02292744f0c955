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
//! The order is implicit. A [`BunchOrder`] keeps only the destinations
//! `(action, ψ, local index)` and `Ψ`; a [`BunchCursor`] yields the next
//! slot in O(degree) by picking the smallest next mark, so a node whose `Ψ`
//! is 10^21 costs no more memory than one whose `Ψ` is 10. The marks
//! compare exactly for any `ψ` that fits in `i128`, by cross products that
//! cannot overflow. Sorting all `Ψ` marks — the definition read literally —
//! survives only in the tests, as the oracle the cursor must match slot for
//! slot.
//!
//! [`LocalScheduleKind::AllAtOnce`] and [`LocalScheduleKind::RoundRobin`]
//! are alternative intra-bunch orders used by the ablation experiment E9.

// R2: typed errors, no panics (rules: docs/ANALYSIS.md).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::steady_state::SteadyState;
use bwfirst_platform::{NodeId, Platform};
use bwfirst_rational::{lcm_i128, widening_mul_u128, Rat};
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

/// One destination of a bunch: what to do with its tasks, how many of them
/// it takes per bunch (`ψ > 0`), and its local index (self is 0, children
/// 1.. in bandwidth-centric order — the paper's local re-numbering).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Destination {
    /// Compute locally or forward to a child.
    pub(crate) action: SlotAction,
    /// Tasks per bunch, `ψ_0` or `ψ_i`.
    pub(crate) psi: i128,
    /// Local index: 0 for the node itself, `i` for its `i`-th child.
    pub(crate) index: usize,
}

/// The intra-bunch order of one node, kept implicit: its destinations and
/// `Ψ`. A [`BunchCursor`] steps through the order one slot at a time in
/// O(degree) time and space, so no `Ψ`-long sequence is ever built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BunchOrder {
    kind: LocalScheduleKind,
    /// Destinations in the order a cursor scans them: by `(ψ, index)` for
    /// the interleaving (so a strict-less scan settles ties as Section 6.3
    /// does), self then children for round-robin, children then self for
    /// all-at-once.
    pub(crate) dests: Vec<Destination>,
    /// `Ψ`, the sum of the destinations' `ψ`.
    len: i128,
}

impl BunchOrder {
    /// The order of `dests` (`ψ > 0` each) under `kind`.
    fn new(kind: LocalScheduleKind, mut dests: Vec<Destination>) -> BunchOrder {
        match kind {
            LocalScheduleKind::Interleaved => dests.sort_by_key(|d| (d.psi, d.index)),
            LocalScheduleKind::RoundRobin => dests.sort_by_key(|d| d.index),
            // Self (index 0) goes last.
            LocalScheduleKind::AllAtOnce => dests.sort_by_key(|d| (d.index == 0, d.index)),
        }
        let len = dests.iter().map(|d| d.psi).sum();
        BunchOrder { kind, dests, len }
    }

    /// `Ψ`: the number of slots in one bunch.
    #[must_use]
    pub fn len(&self) -> i128 {
        self.len
    }

    /// Whether a bunch has no slot at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The destinations, in the order a cursor scans them.
    pub(crate) fn destinations(&self) -> &[Destination] {
        &self.dests
    }

    /// A cursor at the first slot of a bunch.
    #[must_use]
    pub fn cursor(&self) -> BunchCursor {
        let lanes =
            self.dests.iter().map(|d| Lane { k: 1, m: d.psi as u128 + 1, action: d.action });
        BunchCursor { kind: self.kind, len: self.len, slot: 0, pos: 0, lanes: lanes.collect() }
    }

    /// One bunch of actions, in order: a fresh cursor's first `Ψ` slots.
    pub fn iter(&self) -> impl Iterator<Item = SlotAction> {
        let mut cur = self.cursor();
        let mut left = self.len;
        std::iter::from_fn(move || {
            if left == 0 {
                return None;
            }
            left -= 1;
            cur.step().map(|(a, _)| a)
        })
    }
}

/// One destination within the current bunch: its next mark `k/(ψ+1)`, where
/// `k − 1` tasks went to it so far. Once it got all `ψ`, `k = ψ + 1` and the
/// mark reads 1, past every mark still to come.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Lane {
    k: u128,
    /// `ψ + 1`.
    m: u128,
    action: SlotAction,
}

impl Lane {
    fn live(&self) -> bool {
        self.k < self.m
    }

    /// Whether this lane's next mark comes strictly before `other`'s, by
    /// exact cross products: one `u64 × u64` product each while every
    /// operand is below 2^64, the 256-bit product past that, so any `ψ`
    /// that fits in `i128` compares.
    fn before(&self, other: &Lane) -> bool {
        let (a, b, c, d) = (self.k, self.m, other.k, other.m);
        if (a | b | c | d) >> 64 == 0 {
            let mul = |x: u128, y: u128| u128::from(x as u64) * u128::from(y as u64);
            mul(a, d) < mul(c, b)
        } else {
            widening_mul_u128(a, d) < widening_mul_u128(c, b)
        }
    }
}

/// A position in a [`BunchOrder`]: the slot about to be taken and where
/// each destination stands in the current bunch. It carries the
/// destinations' `ψ` itself, so a step reads nothing else; after the last
/// slot of a bunch it wraps to the first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BunchCursor {
    kind: LocalScheduleKind,
    /// `Ψ`.
    len: i128,
    /// Index of the next slot within the bunch.
    slot: u64,
    /// Round-robin and all-at-once: the lane the scan starts from.
    pos: usize,
    /// The destinations, in the order's scan order.
    lanes: Vec<Lane>,
}

impl Default for BunchCursor {
    /// An empty cursor: it yields no slot.
    fn default() -> BunchCursor {
        BunchOrder::new(LocalScheduleKind::Interleaved, Vec::new()).cursor()
    }
}

impl BunchCursor {
    /// The action of the cursor's slot and that slot's index within its
    /// bunch, advancing the cursor (to the next bunch after the last slot).
    /// O(degree), allocation-free. `None` only for an empty order.
    pub fn step(&mut self) -> Option<(SlotAction, u64)> {
        if self.len == 0 {
            return None;
        }
        let lanes = &mut self.lanes;
        let d = match self.kind {
            // The smallest next mark. The scan keeps the first of equal
            // marks, and lanes run by (ψ, index), so a tie goes to the
            // smaller ψ, then the smaller index (Section 6.3). A live lane's
            // mark is below 1, so a spent lane is never picked.
            LocalScheduleKind::Interleaved => {
                let mut best = 0;
                for (d, lane) in lanes.iter().enumerate().skip(1) {
                    if lane.before(&lanes[best]) {
                        best = d;
                    }
                }
                best
            }
            // The first lane from `pos` on with tasks left: all-at-once
            // stays on it, round-robin moves past it.
            LocalScheduleKind::AllAtOnce | LocalScheduleKind::RoundRobin => {
                let n = lanes.len();
                let d = (0..n).map(|i| (self.pos + i) % n).find(|&d| lanes[d].live())?;
                let round_robin = self.kind == LocalScheduleKind::RoundRobin;
                self.pos = if round_robin { (d + 1) % n } else { d };
                d
            }
        };
        let lane = lanes.get_mut(d)?;
        lane.k += 1;
        let action = lane.action;
        let slot = self.slot;
        if i128::from(slot) + 1 == self.len {
            self.restart();
        } else {
            self.slot = slot + 1;
        }
        Some((action, slot))
    }

    /// Moves back to the first slot of a bunch.
    pub fn restart(&mut self) {
        self.slot = 0;
        self.pos = 0;
        self.lanes.iter_mut().for_each(|l| l.k = 1);
    }
}

/// The per-bunch action order of one node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalSchedule {
    /// The node this order belongs to.
    pub node: NodeId,
    /// What to do with each of the `Ψ` tasks of a bunch, in order.
    pub actions: BunchOrder,
}

impl LocalSchedule {
    /// Builds the intra-bunch order for `sched` under `kind`.
    #[must_use]
    pub fn build(sched: &NodeSchedule, kind: LocalScheduleKind) -> LocalSchedule {
        let mut dests = Vec::with_capacity(1 + sched.psi_children.len());
        if sched.psi_self > 0 {
            dests.push(Destination { action: SlotAction::Compute, psi: sched.psi_self, index: 0 });
        }
        for (rank, &(child, q)) in sched.psi_children.iter().enumerate() {
            debug_assert!(q > 0);
            dests.push(Destination { action: SlotAction::Send(child), psi: q, index: rank + 1 });
        }
        let actions = BunchOrder::new(kind, dests);
        debug_assert_eq!(actions.len(), sched.bunch);
        LocalSchedule { node: sched.node, actions }
    }

    /// How many actions of the bunch target `dest`, in O(degree).
    #[must_use]
    pub fn count(&self, dest: SlotAction) -> i128 {
        self.actions.destinations().iter().filter(|d| d.action == dest).map(|d| d.psi).sum()
    }
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

    /// A cursor at the first slot of `id`'s bunch; an empty one if the node
    /// is inactive.
    #[must_use]
    pub fn cursor(&self, id: NodeId) -> BunchCursor {
        self.local(id).map(|l| l.actions.cursor()).unwrap_or_default()
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
        let order: Vec<SlotAction> = ls.actions.iter().collect();
        use SlotAction::{Compute as C, Send};
        let s1 = Send(NodeId(1));
        let s2 = Send(NodeId(2));
        assert_eq!(order, vec![s2, s1, s2, C, s2, s1, s2]);
        // "The description can be divided by two": it is a palindrome.
        let mut rev = order.clone();
        rev.reverse();
        assert_eq!(rev, order);
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
        assert_eq!(ls.actions.iter().collect::<Vec<_>>(), vec![s2, C, s1, s2, s2, C, s1, s2, s2]);
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
                assert_eq!(ls.actions.len(), s.bunch);
                assert_eq!(ls.count(SlotAction::Compute), s.psi_self);
                for &(k, q) in &s.psi_children {
                    assert_eq!(ls.count(SlotAction::Send(k)), q);
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
        assert_eq!(root.actions.iter().collect::<Vec<_>>(), expect);
    }

    #[test]
    fn round_robin_cycles() {
        let (p, ss, _) = example_schedule();
        let ev = EventDrivenSchedule::build(&p, &ss, LocalScheduleKind::RoundRobin).unwrap();
        let root = ev.local(NodeId(0)).unwrap();
        use SlotAction::{Compute as C, Send};
        let (s1, s2, s3) = (Send(NodeId(1)), Send(NodeId(2)), Send(NodeId(3)));
        assert_eq!(
            root.actions.iter().collect::<Vec<_>>(),
            vec![C, s1, s2, s3, s1, s2, s3, s1, s2, s3]
        );
    }

    #[test]
    fn interleaved_spacing_beats_all_at_once() {
        // Max gap between consecutive sends to the same child is smaller
        // under interleaving than under all-at-once for the root's ψ=3 kids.
        let (p, ss, _) = example_schedule();
        let gap = |order: &BunchOrder, target: SlotAction| {
            let pos: Vec<usize> =
                order.iter().enumerate().filter(|&(_, a)| a == target).map(|(i, _)| i).collect();
            // Cyclic max gap.
            let n = order.len() as usize;
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

    /// The materialized order, built as the definitions read: Section 6.3's
    /// marks `k/(ψ+1)` sorted by position, then `ψ`, then local index; the
    /// ablation orders as blocks and as passes. The cursor must match it.
    fn oracle(sched: &NodeSchedule, kind: LocalScheduleKind) -> Vec<SlotAction> {
        let mut dests: Vec<(SlotAction, i128, usize)> = Vec::new();
        if sched.psi_self > 0 {
            dests.push((SlotAction::Compute, sched.psi_self, 0));
        }
        for (rank, &(child, q)) in sched.psi_children.iter().enumerate() {
            dests.push((SlotAction::Send(child), q, rank + 1));
        }
        let mut acts = Vec::new();
        match kind {
            LocalScheduleKind::Interleaved => {
                let mut marks: Vec<(Rat, i128, usize, SlotAction)> = Vec::new();
                for &(action, psi, index) in &dests {
                    for k in 1..=psi {
                        marks.push((Rat::new(k, psi + 1), psi, index, action));
                    }
                }
                marks.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
                acts.extend(marks.into_iter().map(|m| m.3));
            }
            LocalScheduleKind::AllAtOnce => {
                for &(child, q) in &sched.psi_children {
                    acts.extend(std::iter::repeat_n(SlotAction::Send(child), q as usize));
                }
                acts.extend(std::iter::repeat_n(SlotAction::Compute, sched.psi_self as usize));
            }
            LocalScheduleKind::RoundRobin => {
                let mut left: Vec<i128> = dests.iter().map(|d| d.1).collect();
                while acts.len() < sched.bunch as usize {
                    for (d, l) in dests.iter().zip(&mut left) {
                        if *l > 0 {
                            acts.push(d.0);
                            *l -= 1;
                        }
                    }
                }
            }
        }
        acts
    }

    /// A bare node schedule with the given `ψ_0` and children's `ψ_i`.
    fn bunch_of(psi_self: i128, psi_children: &[i128]) -> NodeSchedule {
        let psi_children: Vec<(NodeId, i128)> =
            psi_children.iter().enumerate().map(|(i, &q)| (NodeId(i as u32 + 1), q)).collect();
        let bunch = psi_self + psi_children.iter().map(|&(_, q)| q).sum::<i128>();
        NodeSchedule {
            node: NodeId(0),
            t_recv: None,
            t_comp: 1,
            t_send: 1,
            t_omega: 1,
            t_full: 1,
            phi_recv: None,
            psi_self,
            psi_children,
            bunch,
            chi_in: None,
        }
    }

    const KINDS: [LocalScheduleKind; 3] = [
        LocalScheduleKind::Interleaved,
        LocalScheduleKind::AllAtOnce,
        LocalScheduleKind::RoundRobin,
    ];

    #[test]
    fn cursor_matches_the_sorted_marks_over_two_bunches() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x6_3);
        for case in 0..400 {
            // Small ψ collide often; a zero ψ_0 drops the node's own slot.
            let top = if case % 2 == 0 { 6 } else { 1000 };
            let psi_self = if case % 5 == 0 { 0 } else { rng.gen_range(1..=top) };
            let kids: Vec<i128> =
                (0..rng.gen_range(0..=4usize)).map(|_| rng.gen_range(1..=top)).collect();
            let sched = bunch_of(psi_self, &kids);
            if sched.bunch == 0 {
                continue;
            }
            for kind in KINDS {
                let want = oracle(&sched, kind);
                let ls = LocalSchedule::build(&sched, kind);
                assert_eq!(ls.actions.len(), sched.bunch);
                let mut cur = ls.actions.cursor();
                for bunch in 0..2 {
                    for (slot, &a) in want.iter().enumerate() {
                        assert_eq!(
                            cur.step(),
                            Some((a, slot as u64)),
                            "{kind:?} ψ0={psi_self} ψ={kids:?} bunch {bunch} slot {slot}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cursor_is_exact_past_u64() {
        use SlotAction::{Compute as C, Send};
        let big = 1i128 << 70; // ψ_1 + 1 = 2^70 + 1
        let s1 = Send(NodeId(1));
        // ψ_0 = 1 puts its one mark at 1/2; ψ_1's marks are k/(2^70+1), so
        // 2^69 of them (k ≤ 2^69) come first and the 2^69+1-th, just past
        // 1/2, comes after the compute.
        let sched = bunch_of(1, &[big]);
        let ls = LocalSchedule::build(&sched, LocalScheduleKind::Interleaved);
        assert_eq!(ls.actions.len(), big + 1);
        assert_eq!(ls.count(C), 1);
        assert_eq!(ls.actions.iter().take(5).collect::<Vec<_>>(), vec![s1; 5]);
        // Marks past the u64 lane: child 1 at k/(2^100+1) against child 2 at
        // k/(2^100+2) — the larger ψ is first — and ψ_0 = 2^100 tying with
        // ψ_1 = 2^100 at every mark, where self wins on index.
        let (p, q) = (1i128 << 100, (1i128 << 100) + 1);
        let sched = bunch_of(0, &[p, q]);
        let ls = LocalSchedule::build(&sched, LocalScheduleKind::Interleaved);
        let s2 = Send(NodeId(2));
        assert_eq!(ls.actions.iter().take(4).collect::<Vec<_>>(), vec![s2, s1, s2, s1]);
        let sched = bunch_of(p, &[p]);
        let ls = LocalSchedule::build(&sched, LocalScheduleKind::Interleaved);
        assert_eq!(ls.actions.iter().take(4).collect::<Vec<_>>(), vec![C, s1, C, s1]);
        // The largest ψ an i128 holds: ψ + 1 only fits unsigned.
        let sched = bunch_of(0, &[i128::MAX]);
        let ls = LocalSchedule::build(&sched, LocalScheduleKind::Interleaved);
        let mut cur = ls.actions.cursor();
        assert_eq!(cur.step(), Some((s1, 0)));
        assert_eq!(cur.step(), Some((s1, 1)));
        // Cross products past u128 still order exactly: a/(a+1) < (a+1)/(a+2).
        let a = 1u128 << 126;
        let lane = |k, m| Lane { k, m, action: C };
        assert!(lane(a, a + 1).before(&lane(a + 1, a + 2)));
        assert!(!lane(a + 1, a + 2).before(&lane(a, a + 1)));
        assert!(!lane(a, a + 1).before(&lane(a, a + 1)));
        // The ablation orders run past u64 as well.
        let sched = bunch_of(1, &[big]);
        let ls = LocalSchedule::build(&sched, LocalScheduleKind::AllAtOnce);
        assert_eq!(ls.actions.iter().take(3).collect::<Vec<_>>(), vec![s1; 3]);
        let ls = LocalSchedule::build(&sched, LocalScheduleKind::RoundRobin);
        assert_eq!(ls.actions.iter().take(3).collect::<Vec<_>>(), vec![C, s1, s1]);
    }

    #[test]
    fn a_cursor_fits_one_cache_line() {
        // Executors keep one per node and touch it on every dispatch.
        assert!(std::mem::size_of::<BunchCursor>() <= 64);
    }

    #[test]
    fn empty_order_yields_nothing() {
        let empty = LocalSchedule::build(&bunch_of(0, &[]), LocalScheduleKind::Interleaved);
        assert!(empty.actions.is_empty());
        assert_eq!(empty.actions.cursor().step(), None);
        assert_eq!(BunchCursor::default().step(), None);
        assert_eq!(empty.actions.iter().count(), 0);
    }
}
