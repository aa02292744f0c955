//! Spanning tree → scheduling platform.

use crate::graph::Graph;
use crate::spanning::SpanningTree;
use bwfirst_platform::{NodeId, Platform, PlatformBuilder};

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

/// Scores a spanning tree: the platform's exact optimal throughput.
#[must_use]
pub fn exact_score(g: &Graph, t: &SpanningTree) -> bwfirst_rational::Rat {
    let (p, _) = tree_to_platform(g, t);
    bwfirst_core::bw_first(&p).throughput()
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
}
