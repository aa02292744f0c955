//! Platform generators for experiments and property tests.
//!
//! Deterministic shapes (forks, daisy-chains, stars, k-ary trees) mirror
//! the topology families of the literature the paper builds on (Beaumont et
//! al.'s forks, Dutot's daisy-chains), while
//! seeded random generators drive the scaling experiments (E6, E7, E9, E12).
//! Weights are sampled as small rationals so lcm-based periods stay
//! representative of the paper's examples.

use crate::builder::PlatformBuilder;
use crate::node::{NodeId, Weight};
use crate::platform::Platform;
use bwfirst_rational::{rat, Rat};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A fork graph (Figure 2): root `P0` with `k` children, child `i` reached
/// over an edge of time `cs[i]` and computing with time `ws[i]`.
///
/// Panics if `ws` and `cs` have different lengths.
#[must_use]
pub fn fork(root_w: Weight, children: &[(Rat, Weight)]) -> Platform {
    let mut b = PlatformBuilder::new();
    let root = b.root(root_w);
    for &(c, w) in children {
        b.child(root, w, c);
    }
    b.build().expect("fork generator produces valid platforms")
}

/// A daisy-chain: `P0 → P1 → … → Pn` with per-hop `(w, c)` pairs below the
/// root.
#[must_use]
pub fn daisy_chain(root_w: Weight, hops: &[(Weight, Rat)]) -> Platform {
    let mut b = PlatformBuilder::new();
    let root = b.root(root_w);
    b.chain(root, hops);
    b.build().expect("daisy chain generator produces valid platforms")
}

/// A star: root plus `k` identical workers (`w`, link `c`).
#[must_use]
pub fn star(root_w: Weight, k: usize, w: Weight, c: Rat) -> Platform {
    let mut b = PlatformBuilder::new();
    let root = b.root(root_w);
    for _ in 0..k {
        b.child(root, w, c);
    }
    b.build().expect("star generator produces valid platforms")
}

/// A complete `arity`-ary tree of the given `depth` (depth 0 = root only)
/// with uniform node weight `w` and link time `c`.
#[must_use]
pub fn kary_tree(depth: usize, arity: usize, w: Weight, c: Rat) -> Platform {
    let mut b = PlatformBuilder::new();
    let root = b.root(w);
    let mut frontier = vec![root];
    for _ in 0..depth {
        let mut next = Vec::with_capacity(frontier.len() * arity);
        for &n in &frontier {
            for _ in 0..arity {
                next.push(b.child(n, w, c));
            }
        }
        frontier = next;
    }
    b.build().expect("kary generator produces valid platforms")
}

/// Configuration for seeded random platforms.
#[derive(Debug, Clone)]
pub struct RandomTreeConfig {
    /// Total number of nodes (≥ 1).
    pub size: usize,
    /// Maximum children per node (≥ 1); attachment is uniform among nodes
    /// that still have a free slot, yielding bushy-to-lanky mixtures.
    pub max_children: usize,
    /// Inclusive range for processing-time numerators.
    pub weight_num: (i128, i128),
    /// Inclusive range for processing-time denominators.
    pub weight_den: (i128, i128),
    /// Inclusive range for link-time numerators.
    pub link_num: (i128, i128),
    /// Inclusive range for link-time denominators.
    pub link_den: (i128, i128),
    /// Probability (in percent) that a non-root node is a switch (`w = ∞`).
    pub switch_pct: u8,
    /// RNG seed — equal seeds give equal platforms.
    pub seed: u64,
}

impl Default for RandomTreeConfig {
    fn default() -> Self {
        RandomTreeConfig {
            size: 31,
            max_children: 4,
            weight_num: (1, 12),
            weight_den: (1, 3),
            link_num: (1, 6),
            link_den: (1, 3),
            switch_pct: 5,
            seed: 0xB4_12_05,
        }
    }
}

fn sample_rat(rng: &mut StdRng, num: (i128, i128), den: (i128, i128)) -> Rat {
    let n = rng.gen_range(num.0..=num.1);
    let d = rng.gen_range(den.0..=den.1);
    rat(n, d)
}

/// A seeded random tree per [`RandomTreeConfig`].
#[must_use]
pub fn random_tree(cfg: &RandomTreeConfig) -> Platform {
    random_tree_scaled(cfg, None)
}

/// The shared generation pass. When `slow_root_links` is set, links hanging
/// directly off the root are multiplied by that factor *as they are
/// sampled* — the RNG sequence is untouched, so the result is the exact
/// tree [`random_tree`] would build, with only the root links rescaled.
fn random_tree_scaled(cfg: &RandomTreeConfig, slow_root_links: Option<Rat>) -> Platform {
    assert!(cfg.size >= 1, "random tree needs at least one node");
    assert!(cfg.max_children >= 1, "max_children must be at least 1");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut b = PlatformBuilder::new();
    let root = b.root(Weight::Time(sample_rat(&mut rng, cfg.weight_num, cfg.weight_den)));
    // Nodes that can still take children, with remaining capacity.
    let mut open: Vec<(NodeId, usize)> = vec![(root, cfg.max_children)];
    for _ in 1..cfg.size {
        let slot = rng.gen_range(0..open.len());
        let (parent, cap) = open[slot];
        let w = if rng.gen_range(0..100u8) < cfg.switch_pct {
            Weight::Infinite
        } else {
            Weight::Time(sample_rat(&mut rng, cfg.weight_num, cfg.weight_den))
        };
        let mut c = sample_rat(&mut rng, cfg.link_num, cfg.link_den);
        if parent == root {
            if let Some(slow) = slow_root_links {
                c *= slow;
            }
        }
        let id = b.child(parent, w, c);
        if cap == 1 {
            open.swap_remove(slot);
        } else {
            open[slot].1 = cap - 1;
        }
        open.push((id, cfg.max_children));
    }
    b.build().expect("random generator produces valid platforms")
}

/// A random tree whose root links are slowed by `slow_factor`, creating a
/// bandwidth bottleneck high in the hierarchy.
///
/// With a severe bottleneck only a handful of nodes can be fed with tasks:
/// this is exactly the regime where the paper argues `BW-First` beats the
/// bottom-up reduction (Section 5), because unreachable subtrees are never
/// visited. Used by experiment E6.
#[must_use]
pub fn bottlenecked_tree(cfg: &RandomTreeConfig, slow_factor: Rat) -> Platform {
    assert!(slow_factor.is_positive(), "slow factor must be positive");
    random_tree_scaled(cfg, Some(slow_factor))
}

/// SplitMix64: small, seedable, and stable across platforms and releases,
/// so a seed of [`hetero_tree`] or [`wide_tree`] names one tree for good.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

/// A tree of `size` nodes (at least the root) with integer weights, each
/// new node attached uniformly to a node with fewer than 4 children (the
/// attachment rule of [`random_tree`]). `w` and `c` draw every non-root
/// node's processing and link times, in that order, after its parent.
fn integer_tree(
    seed: u64,
    size: usize,
    root_w: u64,
    mut w: impl FnMut(&mut SplitMix64) -> u64,
    mut c: impl FnMut(&mut SplitMix64) -> u64,
) -> Platform {
    const MAX_CHILDREN: usize = 4;
    let int = |v: u64| Rat::from_int(i128::from(v));
    let mut rng = SplitMix64(seed);
    let mut b = PlatformBuilder::new();
    let root = b.root(Weight::Time(int(root_w)));
    let mut open: Vec<(NodeId, usize)> = vec![(root, MAX_CHILDREN)];
    for _ in 1..size {
        let slot = rng.range(0, open.len() as u64 - 1) as usize;
        let (parent, cap) = open[slot];
        let (wi, ci) = (w(&mut rng), c(&mut rng));
        let id = b.child(parent, Weight::Time(int(wi)), int(ci));
        if cap == 1 {
            open.swap_remove(slot);
        } else {
            open[slot].1 = cap - 1;
        }
        open.push((id, MAX_CHILDREN));
    }
    b.build().expect("integer tree generator produces valid platforms")
}

/// A heterogeneous tree of `size` nodes: root `w = 50`, every other
/// `w ∈ [2n+50, 4n+100]` and `c ∈ {1, 2, 3}`, at most 4 children per node.
/// `BW-First` uses most of its nodes, every one compute-saturated, so the
/// bunch sizes `Ψ` grow like the lcm of the weights — 10^21 at n = 20.
#[must_use]
pub fn hetero_tree(size: usize, seed: u64) -> Platform {
    let n = size as u64;
    integer_tree(seed, size, 50, |r| r.range(2 * n + 50, 4 * n + 100), |r| r.range(1, 3))
}

/// A wide tree of `size` nodes: dyadic weights `w ∈ {1024, 2048, 4096}`
/// (the root's drawn from a stream of its own), every `c = 1`, at most 4
/// children per node. About 90% of the nodes get work, and the periods stay
/// small powers of two.
#[must_use]
pub fn wide_tree(size: usize, seed: u64) -> Platform {
    let dyadic = |r: &mut SplitMix64| 1024 << r.range(0, 2);
    let root_w = dyadic(&mut SplitMix64(seed ^ 0xD1AD));
    integer_tree(seed, size, root_w, dyadic, |_| 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(n: i128) -> Weight {
        Weight::Time(rat(n, 1))
    }

    #[test]
    fn hetero_and_wide_trees_follow_their_families() {
        let n = 15;
        let p = hetero_tree(n, 1);
        assert_eq!(p.len(), n);
        assert_eq!(p.weight(p.root()).time(), Some(rat(50, 1)));
        for id in p.node_ids().skip(1) {
            let w = p.weight(id).time().unwrap();
            assert!(w.is_integer() && w >= rat(80, 1) && w <= rat(160, 1), "{id}: {w}");
            let c = p.link_time(id).unwrap();
            assert!([rat(1, 1), rat(2, 1), rat(3, 1)].contains(&c), "{id}: {c}");
        }
        assert!(p.node_ids().all(|id| p.children(id).len() <= 4));
        let json = crate::io::to_json(&p);
        assert_eq!(crate::io::to_json(&hetero_tree(n, 1)), json);
        assert_ne!(crate::io::to_json(&hetero_tree(n, 2)), json);
        let p = wide_tree(200, 3);
        assert_eq!(p.len(), 200);
        for id in p.node_ids() {
            let w = p.weight(id).time().unwrap();
            assert!([1024, 2048, 4096].map(|v| rat(v, 1)).contains(&w), "{id}: {w}");
            assert!(p.link_time(id).is_none_or(|c| c == rat(1, 1)));
        }
        assert_eq!(hetero_tree(0, 1).len(), 1);
    }

    #[test]
    fn fork_shape() {
        let p = fork(w(3), &[(rat(1, 1), w(2)), (rat(2, 1), w(1))]);
        assert_eq!(p.len(), 3);
        assert_eq!(p.children(p.root()).len(), 2);
        assert!(p.is_leaf(NodeId(1)));
    }

    #[test]
    fn daisy_chain_shape() {
        let p = daisy_chain(w(1), &[(w(2), rat(1, 1)), (w(3), rat(1, 2))]);
        assert_eq!(p.len(), 3);
        assert_eq!(p.height(), 2);
        assert_eq!(p.children(NodeId(0)), &[NodeId(1)]);
        assert_eq!(p.children(NodeId(1)), &[NodeId(2)]);
    }

    #[test]
    fn star_shape() {
        let p = star(w(1), 5, w(2), rat(1, 3));
        assert_eq!(p.len(), 6);
        assert_eq!(p.children(p.root()).len(), 5);
        assert_eq!(p.height(), 1);
    }

    #[test]
    fn kary_shape() {
        let p = kary_tree(3, 2, w(1), rat(1, 1));
        assert_eq!(p.len(), 15);
        assert_eq!(p.height(), 3);
        let leaves = p.node_ids().filter(|&n| p.is_leaf(n)).count();
        assert_eq!(leaves, 8);
    }

    #[test]
    fn kary_depth_zero_is_single_node() {
        let p = kary_tree(0, 3, w(1), rat(1, 1));
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn random_tree_is_deterministic_per_seed() {
        let cfg = RandomTreeConfig { size: 40, ..Default::default() };
        let a = random_tree(&cfg);
        let b = random_tree(&cfg);
        assert_eq!(a.len(), b.len());
        for id in a.node_ids() {
            assert_eq!(a.parent(id), b.parent(id));
            assert_eq!(a.weight(id), b.weight(id));
            assert_eq!(a.link_time(id), b.link_time(id));
        }
        let c = random_tree(&RandomTreeConfig { seed: 99, ..cfg });
        // Different seed ⇒ (almost surely) different weights somewhere.
        let differs = a
            .node_ids()
            .any(|id| a.weight(id) != c.weight(id) || a.link_time(id) != c.link_time(id));
        assert!(differs);
    }

    #[test]
    fn random_tree_respects_size_and_arity() {
        let cfg = RandomTreeConfig { size: 100, max_children: 3, ..Default::default() };
        let p = random_tree(&cfg);
        assert_eq!(p.len(), 100);
        for id in p.node_ids() {
            assert!(p.children(id).len() <= 3);
        }
    }

    #[test]
    fn bottleneck_slows_only_root_links() {
        let cfg = RandomTreeConfig { size: 30, ..Default::default() };
        let base = random_tree(&cfg);
        let slow = bottlenecked_tree(&cfg, rat(10, 1));
        assert_eq!(base.len(), slow.len());
        for id in base.node_ids().skip(1) {
            let c0 = base.link_time(id).unwrap();
            let c1 = slow.link_time(id).unwrap();
            if base.parent(id) == Some(base.root()) {
                assert_eq!(c1, c0 * rat(10, 1));
            } else {
                assert_eq!(c1, c0);
            }
        }
    }
}
