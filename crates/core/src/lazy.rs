//! `BW-First` over lazily generated — conceptually infinite — trees.
//!
//! Section 5 remarks that, unlike the bottom-up reduction (which must start
//! from the leaves), `BW-First` can evaluate the throughput of *infinite*
//! network trees: the traversal only descends while the parent still has
//! tasks (`δ > 0`) and port time (`τ > 0`) to offer, so an infinite tree is
//! explored only as deep as tasks actually flow.
//!
//! Exact rational arithmetic descends forever on trees where the flow decays
//! geometrically without vanishing, so this module truncates at a depth
//! limit and brackets the true throughput:
//!
//! * **lower bound** — nodes at the limit accept only their own `α`
//!   (children pruned): a feasible schedule of a finite subtree;
//! * **upper bound** — nodes at the limit consume *everything* proposed
//!   (`θ = 0`): a perfect consumer can only overestimate, because a real
//!   subtree never absorbs more than its proposal, and by the
//!   bandwidth-centric principle saturating a faster-link child first never
//!   hurts the total.
//!
//! Both bounds are two depth-limited runs of the same walk and per-node
//! [`Round`](crate::bwfirst::Round) that `bw_first` uses; a tree is any
//! [`TreeSource`]. Experiment E10 shows the two bounds converging as the
//! depth limit grows, reproducing the finite-vs-infinite observation of
//! Bataineh & Robertazzi cited by the paper.

use crate::bwfirst::{t_max, walk, Bound, TreeSource};
use bwfirst_rational::Rat;

/// Lower/upper throughput bounds of a lazy tree at a given depth limit,
/// using the canonical root proposal `r_root + max_i b_i` (computed from the
/// root's immediate children; for a childless root just `r_root`).
#[must_use]
pub fn throughput_bounds<S: TreeSource>(source: &S, depth_limit: usize) -> (Rat, Rat) {
    let lambda = t_max(source);
    let bound = |b| walk(source, lambda, Some((depth_limit, b)), |_, _, _| {}).eta_in();
    (bound(Bound::Lower), bound(Bound::Upper))
}

/// The exact optimal throughput of a finite [`TreeSource`]: one untruncated
/// walk from `t_max`, with nothing recorded — what [`bw_first`](crate::bw_first)
/// returns as its throughput, without building the per-node solution.
#[must_use]
pub fn throughput<S: TreeSource>(source: &S) -> Rat {
    walk(source, t_max(source), None, |_, _, _| {}).eta_in()
}

/// An infinite homogeneous chain: every node computes at `rate` and feeds a
/// single child over a link of time `c`.
#[derive(Debug, Clone, Copy)]
pub struct InfiniteChain {
    /// Computing rate of every node.
    pub rate: Rat,
    /// Link time of every hop.
    pub c: Rat,
}

impl TreeSource for InfiniteChain {
    type Node = ();

    fn root(&self) {}

    fn rate(&self, _node: &()) -> Rat {
        self.rate
    }

    fn children(&self, _node: &()) -> Vec<((), Rat)> {
        vec![((), self.c)]
    }
}

/// An infinite homogeneous `arity`-ary tree.
#[derive(Debug, Clone, Copy)]
pub struct InfiniteKary {
    /// Children per node.
    pub arity: usize,
    /// Computing rate of every node.
    pub rate: Rat,
    /// Link time of every edge.
    pub c: Rat,
}

impl TreeSource for InfiniteKary {
    type Node = ();

    fn root(&self) {}

    fn rate(&self, _node: &()) -> Rat {
        self.rate
    }

    fn children(&self, _node: &()) -> Vec<((), Rat)> {
        vec![((), self.c); self.arity]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bwfirst::{bw_first, PlatformSource};
    use bwfirst_platform::examples::example_tree;
    use bwfirst_rational::rat;

    #[test]
    fn finite_platform_bounds_collapse_at_full_depth() {
        let p = example_tree();
        let exact = bw_first(&p).throughput();
        let src = PlatformSource(&p);
        let (lo, hi) = throughput_bounds(&src, p.height() + 1);
        assert_eq!(lo, exact);
        assert_eq!(hi, exact);
    }

    #[test]
    fn bounds_bracket_exact_at_every_depth() {
        let p = example_tree();
        let exact = bw_first(&p).throughput();
        let src = PlatformSource(&p);
        for depth in 0..=4 {
            let (lo, hi) = throughput_bounds(&src, depth);
            assert!(lo <= exact, "lower bound exceeds exact at depth {depth}");
            assert!(hi >= exact, "upper bound below exact at depth {depth}");
        }
    }

    #[test]
    fn bounds_tighten_with_depth() {
        let p = example_tree();
        let src = PlatformSource(&p);
        let widths: Vec<Rat> = (0..=4)
            .map(|d| {
                let (lo, hi) = throughput_bounds(&src, d);
                hi - lo
            })
            .collect();
        for w in widths.windows(2) {
            assert!(w[1] <= w[0], "bound width must not grow with depth");
        }
        assert!(widths.last().unwrap().is_zero());
    }

    #[test]
    fn infinite_chain_converges() {
        // rate 1/2 per node, c = 2: each hop forwards at most 1/2 task/unit
        // of port time per task... flow decays geometrically; bounds converge.
        let chain = InfiniteChain { rate: rat(1, 2), c: rat(2, 1) };
        let (lo1, hi1) = throughput_bounds(&chain, 4);
        let (lo2, hi2) = throughput_bounds(&chain, 16);
        assert!(lo1 <= lo2 && hi2 <= hi1);
        assert!(hi2 - lo2 < rat(1, 1000));
        // Analytic steady state: root keeps 1/2, forwards the rest subject
        // to port time; total converges below rate + b = 1/2 + 1/2 = 1.
        assert!(hi2 <= rat(1, 1) + rat(1, 100));
    }

    #[test]
    fn infinite_kary_converges_and_exceeds_chain() {
        let kary = InfiniteKary { arity: 3, rate: rat(1, 4), c: rat(2, 1) };
        let (lo, hi) = throughput_bounds(&kary, 20);
        assert!(hi - lo < rat(1, 1000));
        let chain = InfiniteChain { rate: rat(1, 4), c: rat(2, 1) };
        let (clo, _) = throughput_bounds(&chain, 20);
        assert!(lo >= clo);
    }

    #[test]
    #[should_panic(expected = "root proposal must be non-negative")]
    fn negative_root_proposal_is_refused_on_the_lazy_path_too() {
        // t_max = -1 + 1/2 < 0: the walk refuses it instead of returning a
        // negative "bound".
        let _ = throughput_bounds(&InfiniteChain { rate: rat(-1, 1), c: rat(2, 1) }, 3);
    }

    #[test]
    fn depth_zero_lower_bound_is_root_alone() {
        let chain = InfiniteChain { rate: rat(1, 3), c: rat(1, 1) };
        // Root proposal t_max = 1/3 + 1 = 4/3.
        let (lo, hi) = throughput_bounds(&chain, 0);
        assert_eq!(lo, rat(1, 3));
        assert_eq!(hi, rat(4, 3)); // perfect consumer swallows the proposal
    }
}
