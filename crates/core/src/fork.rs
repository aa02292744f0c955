//! Proposition 1: the equivalent computing rate of a fork graph.
//!
//! A fork graph is a parent `P_0` with computing rate `r_0` and `k` children,
//! child `i` reachable over a link of communication time `c_i` and computing
//! at rate `r_i`. Under the single-port, full-overlap model, Beaumont et al.
//! showed the fork is equivalent to a single node whose rate is found
//! *bandwidth-centrically*:
//!
//! 1. Sort children by increasing `c_i` (fastest links first).
//! 2. Feed children fully in that order while the parent's sending port has
//!    capacity: find the largest `p` with `Σ_{i≤p} c_i·r_i ≤ 1`.
//! 3. The next child gets the leftover port time
//!    `ε = 1 − Σ_{i≤p} c_i·r_i`, i.e. `ε·b_{p+1}` tasks per time unit.
//!
//! The equivalent rate is `r_f = r_0 + Σ_{i≤p} r_i + ε·b_{p+1}` — children
//! beyond `p+1` contribute **nothing**, however fast their CPUs: the
//! bandwidth-centric principle.

use bwfirst_rational::Rat;

/// One child of a fork: link time `c` and computing rate `r = 1/w`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForkChild {
    /// Communication time from the parent (must be positive).
    pub c: Rat,
    /// Computing rate of the child (`0` for a switch).
    pub rate: Rat,
}

/// The result of a Proposition 1 reduction, with the quantities the proof
/// names (`p`, `ε`) exposed for inspection and testing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForkReduction {
    /// Equivalent computing rate `r_f` of the whole fork.
    pub rate: Rat,
    /// Number of children fed at full rate (`p` in the paper, after sorting
    /// by increasing `c`).
    pub fully_fed: usize,
    /// Leftover port time given to child `p+1` (`ε`); zero when every child
    /// is fully fed.
    pub epsilon: Rat,
    /// Port time consumed: `Σ_{i≤p} c_i·r_i + ε` (equals 1 iff saturated).
    pub port_busy: Rat,
}

/// Computes Proposition 1 for a fork graph.
///
/// `children` need not be pre-sorted; ties on `c` are broken by position
/// (the paper's re-numbering). Children with `c ≤ 0` panic.
///
/// ```
/// use bwfirst_core::fork::{fork_equivalent_rate, ForkChild};
/// use bwfirst_rational::rat;
///
/// // A fast-CPU child behind a slow link loses to a slow-CPU child behind
/// // a fast link — the bandwidth-centric principle.
/// let fork = fork_equivalent_rate(rat(0, 1), &[
///     ForkChild { c: rat(2, 1), rate: rat(100, 1) }, // fast CPU, slow link
///     ForkChild { c: rat(1, 1), rate: rat(1, 2) },   // slow CPU, fast link
/// ]);
/// assert_eq!(fork.fully_fed, 1);          // only the fast-link child
/// assert_eq!(fork.rate, rat(3, 4));       // 1/2 + ε·b = 1/2 + (1/2)(1/2)
/// ```
#[must_use]
pub fn fork_equivalent_rate(parent_rate: Rat, children: &[ForkChild]) -> ForkReduction {
    assert!(children.iter().all(|ch| ch.c.is_positive()), "fork link times must be positive");
    let mut sorted = children.to_vec();
    fork_equivalent_rate_in_place(parent_rate, &mut sorted)
}

/// [`fork_equivalent_rate`] on a caller-owned scratch slice: sorts the
/// children in place (stable, so ties on `c` keep index order) and performs
/// no allocation — the form the bottom-up reduction's inner loop uses once
/// per internal node. Link times must be positive (the public wrapper
/// asserts; platform-sourced children are valid by construction).
pub fn fork_equivalent_rate_in_place(
    parent_rate: Rat,
    children: &mut [ForkChild],
) -> ForkReduction {
    debug_assert!(children.iter().all(|ch| ch.c.is_positive()), "fork link times must be positive");
    children.sort_by_key(|ch| ch.c); // stable: ties keep index order
    let mut rate = parent_rate;
    let mut budget = Rat::ONE; // the unit-interval sending-port time
    let mut fully_fed = 0;
    let mut epsilon = Rat::ZERO;
    for ch in &*children {
        let need = ch.c * ch.rate; // port time to feed this child at full rate
        if need <= budget {
            rate += ch.rate;
            budget -= need;
            fully_fed += 1;
        } else {
            // Partial child: spend the whole leftover ε on it.
            epsilon = budget;
            rate += epsilon / ch.c; // ε · b
            budget = Rat::ZERO;
            break;
        }
    }
    ForkReduction { rate, fully_fed, epsilon, port_busy: Rat::ONE - budget }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwfirst_rational::rat;

    fn ch(c: Rat, rate: Rat) -> ForkChild {
        ForkChild { c, rate }
    }

    #[test]
    fn empty_fork_is_just_the_parent() {
        let f = fork_equivalent_rate(rat(1, 3), &[]);
        assert_eq!(f.rate, rat(1, 3));
        assert_eq!(f.fully_fed, 0);
        assert_eq!(f.epsilon, Rat::ZERO);
        assert_eq!(f.port_busy, Rat::ZERO);
    }

    #[test]
    fn all_children_fully_fed_when_bandwidth_ample() {
        // Two children, each needing 1/4 of the port.
        let f =
            fork_equivalent_rate(Rat::ONE, &[ch(rat(1, 2), rat(1, 2)), ch(rat(1, 2), rat(1, 2))]);
        assert_eq!(f.rate, Rat::TWO);
        assert_eq!(f.fully_fed, 2);
        assert_eq!(f.epsilon, Rat::ZERO);
        assert_eq!(f.port_busy, rat(1, 2));
    }

    #[test]
    fn bandwidth_limited_fork_prefers_fast_links() {
        // Child A: slow link (c=2), huge rate. Child B: fast link (c=1), rate 1/2.
        // Bandwidth-centric: feed B first (uses 1/2 port), then A partially.
        let f = fork_equivalent_rate(
            Rat::ZERO,
            &[ch(rat(2, 1), rat(100, 1)), ch(rat(1, 1), rat(1, 2))],
        );
        assert_eq!(f.fully_fed, 1); // only B
        assert_eq!(f.epsilon, rat(1, 2));
        // r_f = 1/2 (B) + ε·b_A = 1/2 + (1/2)(1/2) = 3/4.
        assert_eq!(f.rate, rat(3, 4));
        assert_eq!(f.port_busy, Rat::ONE); // the sending port is saturated
    }

    #[test]
    fn children_beyond_the_partial_one_contribute_nothing() {
        let f = fork_equivalent_rate(
            Rat::ZERO,
            &[ch(rat(1, 1), rat(3, 4)), ch(rat(1, 1), rat(1, 1)), ch(rat(1, 1), rat(1000, 1))],
        );
        // First child: 3/4 port. Second: partial with ε=1/4 → 1/4 tasks. Third: starved.
        assert_eq!(f.fully_fed, 1);
        assert_eq!(f.rate, rat(3, 4) + rat(1, 4));
        assert_eq!(f.port_busy, Rat::ONE); // the sending port is saturated
    }

    #[test]
    fn exact_saturation_counts_as_fully_fed() {
        let f = fork_equivalent_rate(rat(1, 9), &[ch(rat(1, 1), Rat::ONE)]);
        assert_eq!(f.fully_fed, 1);
        assert_eq!(f.epsilon, Rat::ZERO);
        assert_eq!(f.rate, rat(10, 9));
        assert_eq!(f.port_busy, Rat::ONE); // the sending port is saturated
    }

    #[test]
    fn switch_children_cost_no_bandwidth() {
        let f =
            fork_equivalent_rate(Rat::ONE, &[ch(rat(5, 1), Rat::ZERO), ch(rat(1, 1), rat(1, 2))]);
        assert_eq!(f.rate, rat(3, 2));
        assert_eq!(f.fully_fed, 2);
    }

    #[test]
    fn sort_is_by_c_not_by_rate() {
        // Fast-link child is second in the slice but must be served first.
        let a =
            fork_equivalent_rate(Rat::ZERO, &[ch(rat(3, 1), rat(1, 3)), ch(rat(1, 1), rat(1, 1))]);
        // Serve c=1 (needs full port) → p=1, ε=0 → rate 1.
        assert_eq!(a.rate, Rat::ONE);
        assert_eq!(a.fully_fed, 1);
    }

    #[test]
    fn paper_example_root_fork() {
        // The reconstructed Figure 4 root after reducing the three subtrees:
        // children with c=1 and rates 1/3, 1/3, 3/5.
        let f = fork_equivalent_rate(
            rat(1, 9),
            &[ch(rat(1, 1), rat(1, 3)), ch(rat(1, 1), rat(1, 3)), ch(rat(1, 1), rat(3, 5))],
        );
        assert_eq!(f.fully_fed, 2);
        assert_eq!(f.epsilon, rat(1, 3));
        assert_eq!(f.rate, rat(10, 9));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_link() {
        let _ = fork_equivalent_rate(Rat::ONE, &[ch(Rat::ZERO, Rat::ONE)]);
    }
}
