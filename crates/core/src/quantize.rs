//! Rate quantization: trading a sliver of throughput for compact periods.
//!
//! Section 6 observes that the naive synchronous period — the lcm of all
//! rate denominators — can be *embarrassingly long*; the asynchronous and
//! event-driven schedules shrink the description, but on platforms with
//! unlucky rationals even the per-node consuming periods `T^ω` and bunches
//! `Ψ` explode (the lcm moves into the per-node quantities). The paper
//! leaves this open.
//!
//! This module closes it with a *feasible rounding*: pick a **grid**
//! `1/G` and round every compute rate down onto it,
//!
//! ```text
//! α'_i  = ⌊α_i · G⌋ / G          (per active node)
//! η'_i  = α'_i + Σ_child η'_k    (conservation, recomputed bottom-up)
//! ```
//!
//! Every quantity only shrinks, so all single-port constraints keep holding
//! (the schedule stays feasible); every denominator divides `G`, so each
//! node's `T^c`, `T^s`, and `T^ω` divide `G` and bunches are at most
//! `G·η'`; and the throughput loss is strictly less than
//! `(#active nodes)/G` — pick `G` a few thousand and the loss is a fraction
//! of a percent while the periods collapse from billions to `≤ G`.
//! Experiment E15 quantifies the trade-off.

use crate::steady_state::SteadyState;
use bwfirst_platform::Platform;
use bwfirst_rational::Rat;

/// Rounds `x ≥ 0` down to the nearest multiple of `1/grid`.
#[must_use]
pub fn floor_to_grid(x: Rat, grid: i128) -> Rat {
    assert!(grid > 0, "grid must be positive");
    assert!(!x.is_negative(), "rates are non-negative");
    Rat::new((x * Rat::from_int(grid)).floor(), grid)
}

/// Quantizes a steady state onto the grid `1/grid`, preserving feasibility.
///
/// Returns a new [`SteadyState`] whose rates all have denominators dividing
/// `grid`. The result satisfies [`SteadyState::verify`] whenever the input
/// does, and loses less than `active_nodes/grid` throughput.
///
/// ```
/// use bwfirst_core::quantize::quantize;
/// use bwfirst_core::{bw_first, SteadyState};
/// use bwfirst_platform::examples::example_tree;
/// use bwfirst_rational::rat;
///
/// let p = example_tree();
/// let exact = SteadyState::from_solution(&bw_first(&p));
/// let coarse = quantize(&p, &exact, 6); // 1/9 and 1/12 round to zero
/// assert_eq!(coarse.throughput, rat(5, 6));
/// coarse.verify(&p).unwrap(); // still feasible by construction
/// ```
#[must_use]
pub fn quantize(platform: &Platform, ss: &SteadyState, grid: i128) -> SteadyState {
    let n = platform.len();
    let mut alpha = vec![Rat::ZERO; n];
    let mut eta_in = vec![Rat::ZERO; n];
    // Children before parents: conservation is recomputed bottom-up.
    for &id in platform.preorder_bandwidth_centric(platform.root()).iter().rev() {
        let i = id.index();
        alpha[i] = floor_to_grid(ss.alpha[i], grid);
        let inflow: Rat = platform.children(id).iter().map(|&k| eta_in[k.index()]).sum();
        eta_in[i] = alpha[i] + inflow;
    }
    let throughput = eta_in[platform.root().index()];
    SteadyState { eta_in, alpha, throughput }
}

/// Upper bound on the throughput lost by [`quantize`] at this grid:
/// one grid cell per active node.
#[must_use]
pub fn loss_bound(platform: &Platform, ss: &SteadyState, grid: i128) -> Rat {
    let active = platform.node_ids().filter(|&id| ss.is_active(id)).count();
    Rat::new(active as i128, grid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bwfirst::bw_first;
    use crate::schedule::TreeSchedule;
    use bwfirst_platform::examples::example_tree;
    use bwfirst_platform::generators::{random_tree, RandomTreeConfig};
    use bwfirst_rational::rat;

    fn state(p: &Platform) -> SteadyState {
        SteadyState::from_solution(&bw_first(p))
    }

    #[test]
    fn floor_to_grid_basics() {
        assert_eq!(floor_to_grid(rat(10, 9), 9), rat(10, 9));
        assert_eq!(floor_to_grid(rat(10, 9), 3), rat(1, 1));
        assert_eq!(floor_to_grid(rat(1, 7), 10), rat(1, 10));
        assert_eq!(floor_to_grid(Rat::ZERO, 5), Rat::ZERO);
    }

    #[test]
    fn quantizing_on_compatible_grid_is_identity() {
        // The example tree's denominators all divide 36.
        let p = example_tree();
        let ss = state(&p);
        let q = quantize(&p, &ss, 36);
        assert_eq!(q, ss);
    }

    #[test]
    fn quantized_state_is_feasible_and_close() {
        let p = example_tree();
        let ss = state(&p);
        for grid in [2i128, 5, 10, 100] {
            let q = quantize(&p, &ss, grid);
            q.verify(&p).expect("quantized state stays feasible");
            assert!(q.throughput <= ss.throughput);
            assert!(ss.throughput - q.throughput < loss_bound(&p, &ss, grid));
            // All denominators divide the grid.
            for id in p.node_ids() {
                assert_eq!(grid % q.alpha[id.index()].denom(), 0);
                assert_eq!(grid % q.eta_in[id.index()].denom(), 0);
            }
        }
    }

    #[test]
    fn quantized_periods_divide_grid() {
        let p = random_tree(&RandomTreeConfig { size: 40, seed: 4, ..Default::default() });
        let ss = state(&p);
        let grid = 2520; // lcm(1..10)
        let q = quantize(&p, &ss, grid);
        if !q.throughput.is_positive() {
            return;
        }
        let ts = TreeSchedule::build(&p, &q).unwrap();
        for s in ts.iter() {
            assert_eq!(grid % s.t_omega, 0, "T^w of {} must divide the grid", s.node);
            assert!(s.bunch <= grid * 4, "bunch of {} unexpectedly large", s.node);
        }
    }

    #[test]
    fn coarse_grid_can_zero_out_slow_nodes() {
        // The example tree's slowest rate is 1/12: a grid of 1/10 rounds it
        // to zero, deactivating those nodes but keeping everything feasible.
        let p = example_tree();
        let ss = state(&p);
        let q = quantize(&p, &ss, 10);
        assert_eq!(q.alpha[7], Rat::ZERO);
        assert_eq!(q.alpha[8], Rat::ZERO);
        q.verify(&p).unwrap();
    }

    #[test]
    fn monotone_in_grid_refinement() {
        // Doubling the grid never loses throughput... only multiples keep
        // the lattice nested, so test g vs 2g and g vs 6g.
        let p = random_tree(&RandomTreeConfig { size: 24, seed: 9, ..Default::default() });
        let ss = state(&p);
        for g in [4i128, 10, 30] {
            let coarse = quantize(&p, &ss, g).throughput;
            for mult in [2i128, 6] {
                let fine = quantize(&p, &ss, g * mult).throughput;
                assert!(fine >= coarse, "grid {g}x{mult} lost throughput");
            }
        }
    }
}
