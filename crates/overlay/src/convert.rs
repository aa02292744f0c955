//! Spanning tree → scheduling platform.

use crate::graph::{Graph, NodeIx};
use crate::spanning::SpanningTree;
use bwfirst_core::bwfirst::TreeSource;
use bwfirst_core::lazy::throughput;
use bwfirst_platform::{bandwidth_centric, NodeId, Platform, PlatformBuilder};
use bwfirst_rational::Rat;

/// Materializes a spanning tree as a [`Platform`], re-rooting node ids so
/// the overlay root is `P0` and parents precede children. Returns the
/// platform and the graph-node → platform-node mapping.
///
/// Panics if the tree is not valid for the graph (use
/// [`SpanningTree::is_valid`] on untrusted input).
#[must_use]
pub fn tree_to_platform(g: &Graph, t: &SpanningTree) -> (Platform, Vec<NodeId>) {
    assert!(t.is_valid(g), "spanning tree must be valid for its graph");
    let kids = t.children();
    let mut b = PlatformBuilder::new();
    let mut map = vec![NodeId(u32::MAX); g.len()];
    map[t.root.index()] = b.root(g.weight(t.root));
    // BFS keeps parents ahead of children.
    let mut queue = std::collections::VecDeque::from([t.root]);
    while let Some(u) = queue.pop_front() {
        for &v in &kids[u.index()] {
            let c = g.link(u, v).expect("tree edge exists");
            map[v.index()] = b.child(map[u.index()], g.weight(v), c);
            queue.push_back(v);
        }
    }
    (b.build().expect("valid platform from valid tree"), map)
}

/// A spanning tree as a [`TreeSource`]: children fastest link first, ties
/// by `NodeIx` — the order [`tree_to_platform`] numbers siblings in, so the
/// platform's bandwidth-centric `(c, id)` order without building it.
struct TreeView<'a> {
    g: &'a Graph,
    root: NodeIx,
    kids: Vec<Vec<NodeIx>>,
}

impl TreeSource for TreeView<'_> {
    type Node = NodeIx;

    fn root(&self) -> NodeIx {
        self.root
    }

    fn rate(&self, node: &NodeIx) -> Rat {
        self.g.weight(*node).rate()
    }

    fn children(&self, node: &NodeIx) -> Vec<(NodeIx, Rat)> {
        let mut kids: Vec<(NodeIx, Rat)> = self.kids[node.index()]
            .iter()
            .map(|&v| (v, self.g.link(*node, v).expect("tree edge exists")))
            .collect();
        // Siblings ascend in `NodeIx`, the order BFS numbers them in.
        kids.sort_by(bandwidth_centric);
        kids
    }
}

/// Scores a spanning tree: the exact optimal throughput of the platform
/// [`tree_to_platform`] would build, walked on the tree's own arrays.
///
/// Panics if the tree is not valid for the graph (use
/// [`SpanningTree::is_valid`] on untrusted input).
#[must_use]
pub fn exact_score(g: &Graph, t: &SpanningTree) -> Rat {
    assert!(t.is_valid(g), "spanning tree must be valid for its graph");
    throughput(&TreeView { g, root: t.root, kids: t.children() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::spanning::min_link_tree;
    use bwfirst_platform::Weight;
    use bwfirst_rational::rat;

    #[test]
    fn converts_with_correct_weights_and_links() {
        let mut gb = GraphBuilder::new();
        let a = gb.node(Weight::Time(rat(9, 1)));
        let b = gb.node(Weight::Time(rat(6, 1)));
        let c = gb.node(Weight::Infinite);
        gb.edge(a, b, rat(1, 1));
        gb.edge(b, c, rat(2, 1));
        let g = gb.build().unwrap();
        let t = min_link_tree(&g, a);
        let (p, map) = tree_to_platform(&g, &t);
        assert_eq!(p.len(), 3);
        assert_eq!(map[a.index()], NodeId(0));
        assert_eq!(p.weight(map[b.index()]).time(), Some(rat(6, 1)));
        assert!(p.weight(map[c.index()]).is_infinite());
        assert_eq!(p.link_time(map[b.index()]), Some(rat(1, 1)));
        assert_eq!(p.link_time(map[c.index()]), Some(rat(2, 1)));
        assert_eq!(p.parent(map[c.index()]), Some(map[b.index()]));
    }

    #[test]
    fn exact_score_is_the_platform_throughput() {
        use crate::graph::{random_graph, RandomGraphConfig};
        use crate::spanning::{random_spanning_tree, shortest_path_tree};
        for seed in 1..=8 {
            let g = random_graph(&RandomGraphConfig { size: 30, seed, ..Default::default() });
            let root = NodeIx(0);
            for t in [min_link_tree(&g, root), shortest_path_tree(&g, root)]
                .into_iter()
                .chain((0..4).map(|k| random_spanning_tree(&g, root, seed * 10 + k)))
            {
                let (p, _) = tree_to_platform(&g, &t);
                assert_eq!(exact_score(&g, &t), bwfirst_core::bw_first(&p).throughput());
            }
        }
    }

    #[test]
    #[should_panic(expected = "spanning tree must be valid")]
    fn exact_score_rejects_a_cycle_off_the_root() {
        // b and c point at each other: the walk from a alone would score a
        // one-node tree.
        let mut gb = GraphBuilder::new();
        let a = gb.node(Weight::Time(rat(9, 1)));
        let b = gb.node(Weight::Time(rat(6, 1)));
        let c = gb.node(Weight::Time(rat(3, 1)));
        gb.edge(a, b, rat(1, 1));
        gb.edge(b, c, rat(2, 1));
        let g = gb.build().unwrap();
        let t = SpanningTree { root: a, parent: vec![None, Some(c), Some(b)] };
        let _ = exact_score(&g, &t);
    }
}
