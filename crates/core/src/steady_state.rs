//! Per-node steady-state rates and their invariants.
//!
//! After `BW-First` closes, every node knows (Section 6):
//!
//! * `η_{-1} = λ − θ` — tasks per time unit received from its parent,
//! * `η_0 = α` — tasks per time unit computed locally,
//! * `η_i = β_i − θ_i` — tasks per time unit sent to each child `P_i`,
//!
//! tied together by the conservation law of equation (1):
//! `η_{-1} = Σ_{i=0..k} η_i`. [`SteadyState`] packages these rates and
//! [`SteadyState::verify`] checks conservation *and* physical feasibility
//! under the single-port, full-overlap model — the safety net behind every
//! experiment.

use crate::bwfirst::BwFirstSolution;
use bwfirst_platform::{NodeId, Platform};
use bwfirst_rational::Rat;
use std::fmt;

/// A violation found by [`SteadyState::verify`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SteadyStateViolation {
    /// `η_{-1} ≠ α + Σ η_i` at this node.
    Conservation(NodeId),
    /// `α > r`: the node computes faster than its CPU allows.
    ComputeOverload(NodeId),
    /// `Σ_i η_i·c_i > 1`: the sending port is over-booked.
    SendPortOverload(NodeId),
    /// `η_{-1}·c_{-1} > 1`: the receiving port is over-booked.
    ReceivePortOverload(NodeId),
    /// A rate is negative.
    NegativeRate(NodeId),
}

impl fmt::Display for SteadyStateViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SteadyStateViolation::Conservation(n) => write!(f, "conservation law violated at {n}"),
            SteadyStateViolation::ComputeOverload(n) => write!(f, "compute rate exceeded at {n}"),
            SteadyStateViolation::SendPortOverload(n) => {
                write!(f, "sending port over-booked at {n}")
            }
            SteadyStateViolation::ReceivePortOverload(n) => {
                write!(f, "receiving port over-booked at {n}")
            }
            SteadyStateViolation::NegativeRate(n) => write!(f, "negative rate at {n}"),
        }
    }
}

impl std::error::Error for SteadyStateViolation {}

/// The steady-state rational rates of every node (Figure 4(c)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SteadyState {
    /// Tasks per time unit node `i` receives from its parent (for the root:
    /// the total injection rate, equal to the throughput).
    pub eta_in: Vec<Rat>,
    /// Tasks per time unit node `i` computes (`α_i`).
    pub alpha: Vec<Rat>,
    /// Tree throughput (tasks per time unit).
    pub throughput: Rat,
}

impl SteadyState {
    /// Extracts the steady-state rates from a `BW-First` solution: each
    /// visit's `α` and `η_in = λ − θ`, and zero at every node the round
    /// never reached.
    #[must_use]
    pub fn from_solution(sol: &BwFirstSolution) -> SteadyState {
        let mut ss = SteadyState {
            eta_in: vec![Rat::ZERO; sol.nodes],
            alpha: vec![Rat::ZERO; sol.nodes],
            throughput: sol.throughput(),
        };
        for v in &sol.visits {
            ss.eta_in[v.node.index()] = v.eta_in();
            ss.alpha[v.node.index()] = v.alpha;
        }
        ss
    }

    /// `true` iff the node takes part in the schedule (handles any tasks).
    #[must_use]
    pub fn is_active(&self, id: NodeId) -> bool {
        self.eta_in[id.index()].is_positive() || self.alpha[id.index()].is_positive()
    }

    /// Throughput of the *rootless* tree: what the workers contribute,
    /// excluding the master's own CPU (the quantity Section 8 reports as
    /// "40 tasks every 40 time units").
    #[must_use]
    pub fn rootless_throughput(&self, platform: &Platform) -> Rat {
        self.throughput - self.alpha[platform.root().index()]
    }

    /// Checks the conservation law and single-port feasibility at every node.
    pub fn verify(&self, platform: &Platform) -> Result<(), SteadyStateViolation> {
        use SteadyStateViolation as V;
        for id in platform.node_ids() {
            let i = id.index();
            if self.eta_in[i].is_negative() || self.alpha[i].is_negative() {
                return Err(V::NegativeRate(id));
            }
            if self.alpha[i] > platform.compute_rate(id) {
                return Err(V::ComputeOverload(id));
            }
            let outflow: Rat = platform.children(id).iter().map(|&k| self.eta_in[k.index()]).sum();
            if self.eta_in[i] != self.alpha[i] + outflow {
                return Err(V::Conservation(id));
            }
            let send_busy: Rat = platform
                .children(id)
                .iter()
                .map(|&k| self.eta_in[k.index()] * platform.link_time(k).expect("child link"))
                .sum();
            if send_busy > Rat::ONE {
                return Err(V::SendPortOverload(id));
            }
            if let Some(c) = platform.link_time(id) {
                if self.eta_in[i] * c > Rat::ONE {
                    return Err(V::ReceivePortOverload(id));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bwfirst::bw_first;
    use bwfirst_platform::examples::example_tree;
    use bwfirst_rational::rat;

    fn example_state() -> (Platform, SteadyState) {
        let p = example_tree();
        let s = bw_first(&p);
        (p, SteadyState::from_solution(&s))
    }

    #[test]
    fn example_verifies() {
        let (p, ss) = example_state();
        ss.verify(&p).unwrap();
    }

    #[test]
    fn rootless_throughput_is_one() {
        let (p, ss) = example_state();
        assert_eq!(ss.rootless_throughput(&p), Rat::ONE);
    }

    #[test]
    fn active_marks_exactly_the_visited_working_nodes() {
        let (p, ss) = example_state();
        let active: Vec<u32> = p.node_ids().filter(|&n| ss.is_active(n)).map(|n| n.0).collect();
        assert_eq!(active, vec![0, 1, 2, 3, 4, 6, 7, 8]);
    }

    #[test]
    fn verify_catches_conservation_violation() {
        let (p, mut ss) = example_state();
        ss.alpha[3] = rat(1, 2);
        assert!(matches!(
            ss.verify(&p),
            Err(SteadyStateViolation::ComputeOverload(NodeId(3)))
                | Err(SteadyStateViolation::Conservation(NodeId(3)))
        ));
    }

    #[test]
    fn verify_catches_compute_overload() {
        let (p, mut ss) = example_state();
        // P4 has w=6 → rate 1/6. Claim it computes 1/2 and patch conservation.
        ss.alpha[4] = rat(1, 2);
        ss.eta_in[4] = rat(1, 2);
        assert!(matches!(
            ss.verify(&p),
            Err(SteadyStateViolation::ComputeOverload(NodeId(4)))
                | Err(SteadyStateViolation::Conservation(_))
        ));
    }

    #[test]
    fn verify_catches_send_port_overload() {
        let (p, mut ss) = example_state();
        // Pretend P1 also feeds P5 (c=7) at 1/6: port time 1 + 7/6 > 1.
        ss.eta_in[5] = rat(1, 6);
        ss.alpha[5] = rat(1, 6);
        ss.eta_in[1] += rat(1, 6);
        ss.eta_in[0] += rat(1, 6);
        // Root conservation now broken too, but P1's port must trip first or
        // conservation at root; accept either — the point is it fails.
        assert!(ss.verify(&p).is_err());
    }

    #[test]
    fn verify_catches_receive_port_overload() {
        let (p, mut ss) = example_state();
        // P8 receives over c=4: any inflow > 1/4 over-books its receive port.
        ss.eta_in[8] = rat(1, 3);
        assert!(ss.verify(&p).is_err());
    }

    #[test]
    fn verify_catches_negative_rate() {
        let (p, mut ss) = example_state();
        ss.alpha[2] = rat(-1, 6);
        assert_eq!(ss.verify(&p), Err(SteadyStateViolation::NegativeRate(NodeId(2))));
    }
}
