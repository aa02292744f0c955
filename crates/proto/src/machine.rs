//! The pure `BW-First` negotiation state machine of one node.
//!
//! [`NodeMachine`] is Algorithm 1 with the transport stripped out: feed it a
//! proposal or an acknowledgment, get back the **single** message the
//! protocol requires next. The session's dispatcher (`crate::session`)
//! drives one per node, delivering each message over its edge's link; the
//! exhaustive model checker in `crates/analyze` runs that same session.
//!
//! A round at one node is a strict alternation — proposal in, then for each
//! fundable child in bandwidth-centric order: proposal out, ack in — so the
//! machine is a small cursor over that sequence. The `λ`/`α`/`δ`/`τ`/`β`
//! arithmetic is core's [`Round`], the per-node rule the centralized
//! `bw_first` runs too; the machine adds only slot order, phase and the
//! `0 ≤ θ ≤ β` check.

use crate::error::ProtoError;
use bwfirst_core::bwfirst::Round;
use bwfirst_platform::{bandwidth_centric, Weight};
use bwfirst_rational::Rat;

/// What the protocol requires the node to transmit next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outgoing {
    /// Propose `beta` tasks per time unit to the child in `slot`.
    ToChild {
        /// Index into [`NodeMachine::children`].
        slot: usize,
        /// The child's node id.
        child: u32,
        /// The offered rate `β`.
        beta: Rat,
    },
    /// The round is over at this node: refuse `theta` back to the parent.
    AckParent {
        /// The refused rate `θ` (the unplaced remainder `δ`).
        theta: Rat,
    },
}

/// Where the machine is inside a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// No round in flight.
    Idle,
    /// A proposal is out to `order[k]`; only that child's ack may come next.
    Awaiting { k: usize },
}

/// One node's negotiation state: own weight, child links, and the budgets of
/// the current round. Pure — no channels, no clocks, no I/O.
#[derive(Debug, Clone)]
pub struct NodeMachine {
    id: u32,
    weight: Weight,
    /// `(child id, link time c)` in slot order.
    children: Vec<(u32, Rat)>,
    phase: Phase,
    /// Bandwidth-centric visiting order (slots sorted by `c`, ties by id).
    order: Vec<usize>,
    /// Next position in `order` to consider.
    pos: usize,
    /// Core's per-node rule, state of the current (or last) round.
    round: Round,
    flows: Vec<Rat>,
}

impl NodeMachine {
    /// A fresh machine for node `id` with the given compute weight and
    /// outgoing links (`(child id, link time c)`).
    #[must_use]
    pub fn new(id: u32, weight: Weight, children: Vec<(u32, Rat)>) -> NodeMachine {
        let n = children.len();
        NodeMachine {
            id,
            weight,
            children,
            phase: Phase::Idle,
            order: Vec::new(),
            pos: 0,
            round: Round::open(Rat::ZERO, Rat::ZERO),
            flows: vec![Rat::ZERO; n],
        }
    }

    /// The node's id.
    #[must_use]
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The outgoing links, `(child id, link time c)`, in slot order.
    #[must_use]
    pub fn children(&self) -> &[(u32, Rat)] {
        &self.children
    }

    /// Re-weights the node's processing time (dynamic adaptation).
    pub fn set_weight(&mut self, w: Weight) {
        self.weight = w;
    }

    /// Re-weights the link into `child`.
    ///
    /// # Errors
    /// [`ProtoError::UnknownChild`] if `child` is not a child of this node.
    pub fn set_link(&mut self, child: u32, c: Rat) -> Result<(), ProtoError> {
        let slot = self.child_slot(child)?;
        self.children[slot].1 = c;
        Ok(())
    }

    /// Slot of `child` in [`children`](Self::children).
    ///
    /// # Errors
    /// [`ProtoError::UnknownChild`] if `child` is not a child of this node.
    pub fn child_slot(&self, child: u32) -> Result<usize, ProtoError> {
        self.children
            .iter()
            .position(|&(id, _)| id == child)
            .ok_or(ProtoError::UnknownChild { node: self.id, child })
    }

    /// Starts a round: the parent proposes `λ` tasks per time unit.
    ///
    /// Resets the round state, takes `α = min(rate, λ)` for the local CPU,
    /// and returns the first required transmission — either a proposal to
    /// the cheapest fundable child or, if nothing is left to delegate, the
    /// final ack to the parent.
    ///
    /// # Errors
    /// [`ProtoError::MidRound`] if a round is already in flight.
    pub fn on_proposal(&mut self, lambda: Rat) -> Result<Outgoing, ProtoError> {
        if self.phase != Phase::Idle {
            return Err(ProtoError::MidRound { node: self.id });
        }
        self.round = Round::open(self.weight.rate(), lambda);
        self.flows = vec![Rat::ZERO; self.children.len()];
        // Bandwidth-centric order over *local* link knowledge.
        let mut order: Vec<usize> = (0..self.children.len()).collect();
        order.sort_by(|&a, &b| bandwidth_centric(&self.children[a], &self.children[b]));
        self.order = order;
        self.pos = 0;
        Ok(self.advance())
    }

    /// Delivers the ack `θ` from child `from` for the outstanding proposal.
    ///
    /// Books the consumed bandwidth and returns the next required
    /// transmission.
    ///
    /// # Errors
    /// [`ProtoError::UnexpectedAck`] if no proposal to `from` is
    /// outstanding; [`ProtoError::InvalidAck`] if `θ ∉ [0, β]`.
    pub fn on_ack(&mut self, from: u32, theta: Rat) -> Result<Outgoing, ProtoError> {
        let Phase::Awaiting { k } = self.phase else {
            return Err(ProtoError::UnexpectedAck { node: self.id, from });
        };
        let slot = self.order[k];
        let (child, c) = self.children[slot];
        if child != from {
            return Err(ProtoError::UnexpectedAck { node: self.id, from });
        }
        let beta = self.round.beta;
        if theta.is_negative() || theta > beta {
            return Err(ProtoError::InvalidAck { node: self.id, from, theta, beta });
        }
        self.flows[slot] = self.round.close(c, theta);
        self.pos = k + 1;
        self.phase = Phase::Idle;
        Ok(self.advance())
    }

    /// Emits the next transmission: a proposal to the next fundable child,
    /// or the closing ack once budgets or children run out.
    fn advance(&mut self) -> Outgoing {
        if let Some(&slot) = self.order.get(self.pos) {
            let (child, c) = self.children[slot];
            if let Some(beta) = self.round.propose(c) {
                self.phase = Phase::Awaiting { k: self.pos };
                return Outgoing::ToChild { slot, child, beta };
            }
        }
        self.phase = Phase::Idle;
        self.pos = self.order.len();
        Outgoing::AckParent { theta: self.round.delta }
    }

    /// Negotiated local compute rate `α` of the last round.
    #[must_use]
    pub fn alpha(&self) -> Rat {
        self.round.alpha
    }

    /// Per-slot delegated rates `η_i` of the last round.
    #[must_use]
    pub fn flows(&self) -> &[Rat] {
        &self.flows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwfirst_rational::rat;

    fn machine_with_two_children() -> NodeMachine {
        // Links: child 1 at c=1/2 (cheap), child 2 at c=2 (expensive).
        NodeMachine::new(0, Weight::Time(Rat::ONE), vec![(1, rat(2, 1)), (2, rat(1, 2))])
    }

    #[test]
    fn round_walks_children_in_bandwidth_centric_order() {
        let mut m = machine_with_two_children();
        // λ = 4: α = 1, δ = 3, τ = 1.
        let out = m.on_proposal(rat(4, 1)).unwrap();
        // Cheapest link first: child 2 at c = 1/2, β = min(3, 2) = 2.
        assert_eq!(out, Outgoing::ToChild { slot: 1, child: 2, beta: rat(2, 1) });
        // Child 2 takes half: θ = 1, consumed = 1, δ = 2, τ = 1/2.
        let out = m.on_ack(2, rat(1, 1)).unwrap();
        // Child 1 at c = 2: β = min(2, 1/4) = 1/4.
        assert_eq!(out, Outgoing::ToChild { slot: 0, child: 1, beta: rat(1, 4) });
        // Child 1 takes it all: τ = 0 → round over, θ = δ = 7/4.
        let out = m.on_ack(1, Rat::ZERO).unwrap();
        assert_eq!(out, Outgoing::AckParent { theta: rat(7, 4) });
        assert_eq!(m.alpha(), Rat::ONE);
        assert_eq!(m.flows(), &[rat(1, 4), rat(1, 1)]);
        // The subtree took in η_in = λ − θ, all of it placed.
        assert_eq!(m.alpha() + m.flows()[0] + m.flows()[1], rat(4, 1) - rat(7, 4));
        // The round is closed: the next proposal opens a new one.
        assert!(m.on_proposal(Rat::ONE).is_ok());
    }

    #[test]
    fn leaf_acks_immediately() {
        let mut m = NodeMachine::new(5, Weight::Time(rat(1, 2)), vec![]);
        let out = m.on_proposal(rat(3, 1)).unwrap();
        // rate = 2, α = 2, δ = 1.
        assert_eq!(out, Outgoing::AckParent { theta: rat(1, 1) });
        assert_eq!(m.alpha(), rat(2, 1));
    }

    #[test]
    fn switch_delegates_everything() {
        let mut m = NodeMachine::new(0, Weight::Infinite, vec![(1, Rat::ONE)]);
        let out = m.on_proposal(rat(2, 1)).unwrap();
        assert_eq!(out, Outgoing::ToChild { slot: 0, child: 1, beta: Rat::ONE });
        let out = m.on_ack(1, Rat::ZERO).unwrap();
        assert_eq!(out, Outgoing::AckParent { theta: Rat::ONE });
        assert_eq!(m.alpha(), Rat::ZERO);
    }

    #[test]
    fn protocol_violations_are_typed() {
        let mut m = machine_with_two_children();
        assert!(matches!(
            m.on_ack(1, Rat::ZERO),
            Err(ProtoError::UnexpectedAck { node: 0, from: 1 })
        ));
        let _ = m.on_proposal(rat(4, 1)).unwrap();
        assert!(matches!(m.on_proposal(Rat::ONE), Err(ProtoError::MidRound { node: 0 })));
        // Awaiting child 2, not child 1.
        assert!(matches!(
            m.on_ack(1, Rat::ZERO),
            Err(ProtoError::UnexpectedAck { node: 0, from: 1 })
        ));
        // θ above β is refused.
        assert!(matches!(m.on_ack(2, rat(10, 1)), Err(ProtoError::InvalidAck { .. })));
        assert!(matches!(m.on_ack(2, rat(-1, 1)), Err(ProtoError::InvalidAck { .. })));
        assert!(matches!(m.set_link(9, Rat::ONE), Err(ProtoError::UnknownChild { .. })));
    }

    #[test]
    fn zero_proposal_round_trips_without_child_traffic() {
        let mut m = machine_with_two_children();
        let out = m.on_proposal(Rat::ZERO).unwrap();
        assert_eq!(out, Outgoing::AckParent { theta: Rat::ZERO });
        assert_eq!(m.flows(), &[Rat::ZERO, Rat::ZERO]);
    }
}
