//! The pure `BW-First` negotiation state machine of one node.
//!
//! [`NodeMachine`] is Algorithm 1 with the transport stripped out: feed it a
//! proposal or an acknowledgment, get back the **single** message the
//! protocol requires next. The session's dispatcher (`crate::session`)
//! drives one per node, delivering each message over its edge's link; the
//! exhaustive model checker in `crates/analyze` drives the very same code
//! over an in-memory network, exploring every delivery interleaving. Keeping
//! the two on one state machine is what makes the checker's verdicts about
//! the shipped protocol rather than a model of it.
//!
//! A round at one node is a strict alternation — proposal in, then for each
//! fundable child in bandwidth-centric order: proposal out, ack in — so the
//! machine is a small cursor over that sequence. The `λ`/`α`/`δ`/`τ`/`β`
//! arithmetic is core's [`Round`], the per-node rule the centralized
//! `bw_first` runs too; the machine adds only slot order, phase and the
//! `0 ≤ θ ≤ β` check.

use crate::error::ProtoError;
use bwfirst_core::bwfirst::Round;
use bwfirst_platform::Weight;
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
    proposals_sent: u64,
    visited: bool,
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
            proposals_sent: 0,
            visited: false,
        }
    }

    /// The node's id.
    #[must_use]
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The node's current compute weight.
    #[must_use]
    pub fn weight(&self) -> Weight {
        self.weight
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
        self.visited = true;
        self.round = Round::open(self.weight.rate(), lambda);
        self.flows = vec![Rat::ZERO; self.children.len()];
        self.proposals_sent = 0;
        // Bandwidth-centric order over *local* link knowledge.
        let mut order: Vec<usize> = (0..self.children.len()).collect();
        order.sort_by(|&a, &b| {
            self.children[a]
                .1
                .cmp(&self.children[b].1)
                .then(self.children[a].0.cmp(&self.children[b].0))
        });
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
                self.proposals_sent += 1;
                return Outgoing::ToChild { slot, child, beta };
            }
        }
        self.phase = Phase::Idle;
        self.pos = self.order.len();
        Outgoing::AckParent { theta: self.round.delta }
    }

    /// `true` iff no proposal is outstanding.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.phase == Phase::Idle
    }

    /// The child whose ack the machine is waiting on, if any.
    #[must_use]
    pub fn awaiting(&self) -> Option<u32> {
        match self.phase {
            Phase::Idle => None,
            Phase::Awaiting { k } => Some(self.children[self.order[k]].0),
        }
    }

    /// `true` iff the node has taken part in a round since construction.
    #[must_use]
    pub fn visited(&self) -> bool {
        self.visited
    }

    /// Negotiated local compute rate `α` of the last round.
    #[must_use]
    pub fn alpha(&self) -> Rat {
        self.round.alpha
    }

    /// Negotiated inflow rate `η_in = λ − δ` of the last round.
    #[must_use]
    pub fn eta_in(&self) -> Rat {
        self.round.eta_in()
    }

    /// Per-slot delegated rates `η_i` of the last round.
    #[must_use]
    pub fn flows(&self) -> &[Rat] {
        &self.flows
    }

    /// Proposals this node sent during the last round.
    #[must_use]
    pub fn proposals_sent(&self) -> u64 {
        self.proposals_sent
    }

    /// Serializes the full machine state into `out` — the memoization key
    /// the model checker hashes to prune revisited interleavings. Two
    /// machines with equal keys behave identically under every future
    /// delivery.
    pub fn state_key(&self, out: &mut Vec<u8>) {
        fn push_rat(out: &mut Vec<u8>, r: Rat) {
            out.extend_from_slice(&r.numer().to_le_bytes());
            out.extend_from_slice(&r.denom().to_le_bytes());
        }
        out.extend_from_slice(&self.id.to_le_bytes());
        match self.weight {
            Weight::Infinite => out.push(0),
            Weight::Time(t) => {
                out.push(1);
                push_rat(out, t);
            }
        }
        for &(id, c) in &self.children {
            out.extend_from_slice(&id.to_le_bytes());
            push_rat(out, c);
        }
        match self.phase {
            Phase::Idle => out.push(0),
            Phase::Awaiting { k } => {
                out.push(1);
                out.extend_from_slice(&(k as u64).to_le_bytes());
            }
        }
        out.extend_from_slice(&(self.pos as u64).to_le_bytes());
        let Round { lambda, alpha, delta, tau, beta } = self.round;
        for r in [lambda, alpha, delta, tau, beta] {
            push_rat(out, r);
        }
        for &f in &self.flows {
            push_rat(out, f);
        }
        out.extend_from_slice(&self.proposals_sent.to_le_bytes());
        out.push(u8::from(self.visited));
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
        assert_eq!(m.awaiting(), Some(2));
        // Child 2 takes half: θ = 1, consumed = 1, δ = 2, τ = 1/2.
        let out = m.on_ack(2, rat(1, 1)).unwrap();
        // Child 1 at c = 2: β = min(2, 1/4) = 1/4.
        assert_eq!(out, Outgoing::ToChild { slot: 0, child: 1, beta: rat(1, 4) });
        // Child 1 takes it all: τ = 0 → round over, θ = δ = 7/4.
        let out = m.on_ack(1, Rat::ZERO).unwrap();
        assert_eq!(out, Outgoing::AckParent { theta: rat(7, 4) });
        assert!(m.is_idle());
        assert_eq!(m.alpha(), Rat::ONE);
        assert_eq!(m.eta_in(), rat(4, 1) - rat(7, 4));
        assert_eq!(m.flows(), &[rat(1, 4), rat(1, 1)]);
        assert_eq!(m.proposals_sent(), 2);
    }

    #[test]
    fn leaf_acks_immediately() {
        let mut m = NodeMachine::new(5, Weight::Time(rat(1, 2)), vec![]);
        let out = m.on_proposal(rat(3, 1)).unwrap();
        // rate = 2, α = 2, δ = 1.
        assert_eq!(out, Outgoing::AckParent { theta: rat(1, 1) });
        assert_eq!(m.alpha(), rat(2, 1));
        assert!(m.visited());
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
    fn state_key_distinguishes_phases() {
        let mut a = machine_with_two_children();
        let b = a.clone();
        let _ = a.on_proposal(rat(4, 1)).unwrap();
        let (mut ka, mut kb) = (Vec::new(), Vec::new());
        a.state_key(&mut ka);
        b.state_key(&mut kb);
        assert_ne!(ka, kb);
    }

    #[test]
    fn zero_proposal_round_trips_without_child_traffic() {
        let mut m = machine_with_two_children();
        let out = m.on_proposal(Rat::ZERO).unwrap();
        assert_eq!(out, Outgoing::AckParent { theta: Rat::ZERO });
        assert_eq!(m.proposals_sent(), 0);
        assert!(m.visited());
    }
}
