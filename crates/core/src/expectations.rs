//! Solver-derived expectations handed to runtime monitors.
//!
//! The invariant monitors in `bwfirst-sim` check a *running* execution
//! against the paper's steady-state contract: each node's observed rates
//! must converge to the solver's exact `η_i`/`α_i` (equation set 4), and the
//! root must emit `Ψ` tasks per event-driven period `T^ω` (Section 6.2).
//! [`MonitorExpectations`] packages exactly those reference quantities — a
//! plain data bundle, so the simulator crate never re-runs the solver. The
//! monitor reads every field; trace headers derive their tree shape and
//! per-edge times from the platform itself (`bwfirst_sim::trace_header`).

use crate::schedule::TreeSchedule;
use crate::steady_state::SteadyState;
use bwfirst_platform::{NodeId, Platform};
use bwfirst_rational::Rat;

/// The solver's exact per-node rates and root periodicity, packaged for a
/// runtime monitor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonitorExpectations {
    /// The tree root (task source).
    pub root: NodeId,
    /// Tasks per time unit node `i` receives from its parent (`η_{-1}` of
    /// node `i`; for the root, the throughput).
    pub eta_in: Vec<Rat>,
    /// Tasks per time unit node `i` computes (`η_0 = α_i`).
    pub alpha: Vec<Rat>,
    /// Per-task compute time of node `i` (`w_i`), `None` when the node
    /// cannot compute (infinite weight).
    pub weight: Vec<Option<Rat>>,
    /// Tree throughput (tasks per time unit).
    pub throughput: Rat,
    /// `Ψ`: tasks the root handles per event-driven period (Section 6.2).
    pub bunch: i128,
    /// `T^ω`: the root's event-driven period length.
    pub t_omega: i128,
}

impl MonitorExpectations {
    /// Bundles the reference quantities for `platform` from a verified
    /// steady state and its event-driven schedule. Returns `None` when the
    /// schedule has no entry for the root (an inactive root never happens on
    /// feasible inputs, but monitors must not panic).
    #[must_use]
    pub fn build(
        platform: &Platform,
        ss: &SteadyState,
        tree: &TreeSchedule,
    ) -> Option<MonitorExpectations> {
        let root = platform.root();
        let rs = tree.get(root)?;
        Some(MonitorExpectations {
            root,
            eta_in: ss.eta_in.clone(),
            alpha: ss.alpha.clone(),
            weight: platform.node_ids().map(|id| platform.weight(id).time()).collect(),
            throughput: ss.throughput,
            bunch: rs.bunch,
            t_omega: rs.t_omega,
        })
    }

    /// Expected tasks the root handles over a window of length `w`:
    /// `Ψ · w / T^ω` (equals `throughput · w`).
    #[must_use]
    pub fn root_rate(&self) -> Rat {
        Rat::from(self.bunch) / Rat::from(self.t_omega)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bwfirst::bw_first;
    use bwfirst_platform::examples::example_tree;
    use bwfirst_rational::rat;

    #[test]
    fn example_expectations_match_the_paper() {
        let p = example_tree();
        let ss = SteadyState::from_solution(&bw_first(&p));
        let tree = TreeSchedule::build(&p, &ss).unwrap();
        let exp = MonitorExpectations::build(&p, &ss, &tree).unwrap();
        assert_eq!(exp.root, p.root());
        assert_eq!(exp.throughput, rat(10, 9));
        assert_eq!(exp.bunch, 10);
        assert_eq!(exp.t_omega, 9);
        assert_eq!(exp.root_rate(), rat(10, 9));
        assert_eq!(exp.eta_in.len(), p.len());
        assert_eq!(exp.weight.len(), p.len());
        // P0 computes one task every 9 time units.
        assert_eq!(exp.weight[0], Some(rat(9, 1)));
    }
}
