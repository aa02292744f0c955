//! Proposition 4: start-up analysis.
//!
//! Running the event-driven schedule *from the very beginning* (instead of a
//! dead prefill phase) leads node `P_0` into its steady-state regime within
//! `Σ_{i ∈ A_0} T_i^ω` time units, where `A_0` is the set of its ancestors:
//! buffers fill like a pipeline, one consuming period per level, while
//! useful computation already happens. This module computes those bounds;
//! the simulator's measurements (experiment E12) verify the actual entry
//! times never exceed them.

use crate::schedule::TreeSchedule;
use bwfirst_platform::Platform;

/// Per-node Proposition 4 start-up bounds: node `i` is in steady state at
/// time `Σ_{a ∈ ancestors(i)} T_a^ω` at the latest (`None` for inactive
/// nodes). The root's bound is 0 — it is in steady state from the start.
#[must_use]
pub fn startup_bounds(platform: &Platform, schedule: &TreeSchedule) -> Vec<Option<i128>> {
    platform
        .node_ids()
        .map(|id| {
            schedule.get(id)?;
            let mut bound = 0i128;
            for anc in platform.ancestors(id) {
                bound += schedule.get(anc).expect("ancestors of active nodes are active").t_omega;
            }
            Some(bound)
        })
        .collect()
}

/// The whole tree's start-up bound: the tree is in steady state once every
/// active node is, i.e. at `max_i Σ_{a ∈ ancestors(i)} T_a^ω` at the latest.
#[must_use]
pub fn tree_startup_bound(platform: &Platform, schedule: &TreeSchedule) -> i128 {
    startup_bounds(platform, schedule).into_iter().flatten().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bwfirst::bw_first;
    use crate::steady_state::SteadyState;
    use bwfirst_platform::examples::example_tree;

    fn schedule() -> (Platform, TreeSchedule) {
        let p = example_tree();
        let ss = SteadyState::from_solution(&bw_first(&p));
        let ts = TreeSchedule::build(&p, &ss).unwrap();
        (p, ts)
    }

    #[test]
    fn example_bounds() {
        let (p, ts) = schedule();
        let b = startup_bounds(&p, &ts);
        assert_eq!(b[0], Some(0)); // root starts in steady state
                                   // P1..P3 hang off the root (T^ω = 9).
        assert_eq!(b[1], Some(9));
        assert_eq!(b[2], Some(9));
        assert_eq!(b[3], Some(9));
        // P4: root 9 + P1 6.
        assert_eq!(b[4], Some(15));
        assert_eq!(b[6], Some(15));
        // P7: root 9 + P3 6 = 15; P8: + P7 12 = 27.
        assert_eq!(b[7], Some(15));
        assert_eq!(b[8], Some(27));
        // Pruned nodes have no bound.
        for i in [5, 9, 10, 11] {
            assert_eq!(b[i], None);
        }
    }

    #[test]
    fn tree_bound_is_deepest_path() {
        let (p, ts) = schedule();
        assert_eq!(tree_startup_bound(&p, &ts), 27);
    }

    #[test]
    fn single_node_has_zero_bound() {
        let p = bwfirst_platform::generators::star(
            bwfirst_platform::Weight::Time(bwfirst_rational::rat(2, 1)),
            0,
            bwfirst_platform::Weight::Infinite,
            bwfirst_rational::rat(1, 1),
        );
        let ss = SteadyState::from_solution(&bw_first(&p));
        let ts = TreeSchedule::build(&p, &ss).unwrap();
        assert_eq!(tree_startup_bound(&p, &ts), 0);
    }
}
