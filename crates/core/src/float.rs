//! `f64` fast path for throughput-only queries.
//!
//! Exact rationals are mandatory for *schedule construction* (lcm of
//! denominators is meaningless in floating point), but a throughput-only
//! query — e.g. scoring thousands of candidate overlay trees in a topology
//! search — can use `f64`. This module mirrors `BW-First` on floats; the
//! unit tests bound the numeric drift.

use bwfirst_platform::{NodeId, Platform};

/// `BW-First` on `f64`: returns the steady-state throughput approximation.
#[must_use]
pub fn bw_first_f64(platform: &Platform) -> f64 {
    let root = platform.root();
    let best_bw =
        platform.children(root).iter().map(|&k| 1.0 / link(platform, k)).fold(0.0f64, f64::max);
    let t_max = rate(platform, root) + best_bw;
    t_max - visit(platform, root, t_max)
}

fn rate(p: &Platform, id: NodeId) -> f64 {
    p.compute_rate(id).to_f64()
}

fn link(p: &Platform, id: NodeId) -> f64 {
    p.link_time(id).expect("child link").to_f64()
}

/// Returns θ (the unconsumed part of `lambda`). Recursive: the float path is
/// for shallow, wide topology searches; use the exact solver for deep chains.
fn visit(p: &Platform, node: NodeId, lambda: f64) -> f64 {
    let alpha = rate(p, node).min(lambda);
    let mut delta = lambda - alpha;
    let mut tau = 1.0f64;
    for child in p.children_bandwidth_centric(node) {
        if delta <= 0.0 || tau <= 0.0 {
            break;
        }
        let c = link(p, child);
        let beta = delta.min(tau / c);
        let theta = visit(p, child, beta);
        let consumed = beta - theta;
        delta -= consumed;
        tau -= consumed * c;
    }
    delta
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bwfirst::bw_first;
    use bwfirst_platform::examples::example_tree;
    use bwfirst_platform::generators::{random_tree, RandomTreeConfig};

    #[test]
    fn matches_exact_on_example() {
        let p = example_tree();
        let exact = bw_first(&p).throughput().to_f64();
        let approx = bw_first_f64(&p);
        assert!((exact - approx).abs() < 1e-12, "exact {exact} vs float {approx}");
    }

    #[test]
    fn matches_exact_on_random_trees() {
        for seed in 0..20 {
            let p = random_tree(&RandomTreeConfig { size: 64, seed, ..Default::default() });
            let exact = bw_first(&p).throughput().to_f64();
            let approx = bw_first_f64(&p);
            assert!(
                (exact - approx).abs() < 1e-9 * exact.max(1.0),
                "seed {seed}: exact {exact} vs float {approx}"
            );
        }
    }
}
