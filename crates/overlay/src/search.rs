//! Overlay search: reattachment hill-climbing over spanning trees.
//!
//! The move set is the classic spanning-tree neighborhood: pick a non-root
//! node `v` and a graph neighbor `u` outside `v`'s subtree, and re-hang `v`
//! (with its whole subtree) under `u`. Every candidate is scored exactly by
//! `BW-First` itself — "a quick way to evaluate the throughput of a tree
//! allows to consider a wider set of trees" (Section 5) — which visits only
//! the nodes the candidate's schedule uses.

use crate::convert::{exact_score, tree_to_platform};
use crate::graph::{Graph, NodeIx};
use crate::spanning::{min_link_tree, random_spanning_tree, shortest_path_tree, SpanningTree};
use bwfirst_platform::Platform;
use bwfirst_rational::Rat;
use rand::rngs::StdRng;
use rand::{seq::SliceRandom, SeedableRng};

/// Search configuration.
#[derive(Debug, Clone)]
pub struct OverlaySearch {
    /// Random restarts (Wilson trees) besides the deterministic seeds.
    pub restarts: usize,
    /// Hill-climbing passes per start (each pass tries every reattachment).
    pub passes: usize,
    /// RNG seed for restarts and move ordering.
    pub seed: u64,
}

impl Default for OverlaySearch {
    fn default() -> Self {
        OverlaySearch { restarts: 4, passes: 8, seed: 0x0005_EAC4 }
    }
}

/// The outcome of an overlay search.
#[derive(Debug, Clone)]
pub struct OverlayResult {
    /// The winning overlay as a scheduling platform (root = `P0`).
    pub platform: Platform,
    /// The winning spanning tree over the graph.
    pub tree: SpanningTree,
    /// Exact optimal throughput of the winner.
    pub throughput: Rat,
    /// Exact throughput of the Prim (min-link) baseline.
    pub min_link_baseline: Rat,
    /// Exact throughput of the shortest-path-tree baseline.
    pub spt_baseline: Rat,
    /// Candidate trees scored during the search.
    pub candidates_scored: usize,
}

/// `true` iff `anc` is on the path from `v` to the root (so re-hanging `v`
/// under `anc`'s subtree members that pass through `v` would cycle).
fn in_subtree(t: &SpanningTree, v: NodeIx, candidate_parent: NodeIx) -> bool {
    // candidate_parent must not be v itself nor a descendant of v: walk up
    // from candidate_parent; if we hit v, it is inside v's subtree.
    let mut cur = candidate_parent;
    loop {
        if cur == v {
            return true;
        }
        match t.parent[cur.index()] {
            Some(p) => cur = p,
            None => return false,
        }
    }
}

/// One full improvement pass; returns the improved tree and score.
fn improve_pass(
    g: &Graph,
    t: &SpanningTree,
    score: Rat,
    rng: &mut StdRng,
    scored: &mut usize,
) -> (SpanningTree, Rat, bool) {
    let mut best = t.clone();
    let mut best_score = score;
    let mut improved = false;
    let mut nodes: Vec<NodeIx> = g.nodes().filter(|&n| n != t.root).collect();
    nodes.shuffle(rng);
    for v in nodes {
        let current_parent = best.parent[v.index()].expect("non-root");
        for &(u, _) in g.neighbors(v) {
            if u == current_parent || in_subtree(&best, v, u) {
                continue;
            }
            let mut cand = best.clone();
            cand.parent[v.index()] = Some(u);
            debug_assert!(cand.is_valid(g));
            let s = exact_score(g, &cand);
            *scored += 1;
            if s > best_score {
                best = cand;
                best_score = s;
                improved = true;
            }
        }
    }
    (best, best_score, improved)
}

/// Searches for a high-throughput overlay rooted at `root`.
#[must_use]
pub fn best_overlay(g: &Graph, root: NodeIx, cfg: &OverlaySearch) -> OverlayResult {
    assert!(!g.is_empty());
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut scored = 0usize;

    let prim = min_link_tree(g, root);
    let spt = shortest_path_tree(g, root);
    let mut starts = vec![prim.clone(), spt.clone()];
    for r in 0..cfg.restarts {
        starts.push(random_spanning_tree(g, root, cfg.seed.wrapping_add(r as u64 + 1)));
    }

    let mut best: Option<(SpanningTree, Rat)> = None;
    for start in starts {
        let mut t = start;
        let mut s = exact_score(g, &t);
        scored += 1;
        for _ in 0..cfg.passes {
            let (nt, ns, improved) = improve_pass(g, &t, s, &mut rng, &mut scored);
            t = nt;
            s = ns;
            if !improved {
                break;
            }
        }
        if best.as_ref().is_none_or(|&(_, bs)| s > bs) {
            best = Some((t, s));
        }
    }
    let (tree, throughput) = best.expect("at least one start");
    let (platform, _) = tree_to_platform(g, &tree);
    OverlayResult {
        throughput,
        min_link_baseline: exact_score(g, &prim),
        spt_baseline: exact_score(g, &spt),
        platform,
        tree,
        candidates_scored: scored,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{random_graph, GraphBuilder, RandomGraphConfig};
    use bwfirst_platform::Weight;
    use bwfirst_rational::rat;

    #[test]
    fn search_never_worse_than_baselines() {
        for seed in 0..4 {
            let g = random_graph(&RandomGraphConfig { size: 18, seed, ..Default::default() });
            let res = best_overlay(&g, NodeIx(0), &OverlaySearch::default());
            assert!(res.tree.is_valid(&g));
            assert!(res.throughput >= res.min_link_baseline, "seed {seed}");
            assert!(res.throughput >= res.spt_baseline, "seed {seed}");
            assert!(res.candidates_scored > 2);
        }
    }

    #[test]
    fn search_finds_the_obvious_improvement() {
        // A triangle where the master's direct link to the fast worker is
        // slow, but a relay through the switch is fast: the good overlay
        // routes through the relay.
        let mut gb = GraphBuilder::new();
        let master = gb.node(Weight::Time(rat(10, 1)));
        let relay = gb.node(Weight::Infinite);
        let worker = gb.node(Weight::Time(rat(1, 1)));
        gb.edge(master, worker, rat(5, 1)); // slow direct link
        gb.edge(master, relay, rat(1, 2));
        gb.edge(relay, worker, rat(1, 2));
        let g = gb.build().unwrap();
        let res = best_overlay(&g, master, &OverlaySearch::default());
        // Through the relay: worker can receive up to 2 tasks/unit but only
        // computes 1 → throughput 1/10 + 1. Direct: 1/10 + 1/5.
        assert_eq!(res.throughput, rat(1, 10) + rat(1, 1));
        assert_eq!(res.tree.parent[worker.index()], Some(relay));
    }

    #[test]
    fn single_node_graph() {
        let mut gb = GraphBuilder::new();
        let only = gb.node(Weight::Time(rat(4, 1)));
        let g = gb.build().unwrap();
        let res = best_overlay(&g, only, &OverlaySearch::default());
        assert_eq!(res.throughput, rat(1, 4));
        assert_eq!(res.platform.len(), 1);
    }

    #[test]
    fn in_subtree_detection() {
        // Chain 0 -> 1 -> 2 rooted at 0.
        let t =
            SpanningTree { root: NodeIx(0), parent: vec![None, Some(NodeIx(0)), Some(NodeIx(1))] };
        assert!(in_subtree(&t, NodeIx(1), NodeIx(2))); // 2 is below 1
        assert!(in_subtree(&t, NodeIx(1), NodeIx(1)));
        assert!(!in_subtree(&t, NodeIx(1), NodeIx(0)));
        assert!(!in_subtree(&t, NodeIx(2), NodeIx(0)));
        assert!(!in_subtree(&t, NodeIx(2), NodeIx(1)));
    }

    #[test]
    fn deterministic_per_seed() {
        let g = random_graph(&RandomGraphConfig { size: 16, seed: 3, ..Default::default() });
        let a = best_overlay(&g, NodeIx(0), &OverlaySearch::default());
        let b = best_overlay(&g, NodeIx(0), &OverlaySearch::default());
        assert_eq!(a.tree.parent, b.tree.parent);
        assert_eq!(a.throughput, b.throughput);
    }
}
