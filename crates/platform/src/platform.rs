use crate::node::{NodeData, NodeId, Weight};
use bwfirst_rational::Rat;
use std::cmp::Ordering;
use std::fmt;

/// The **bandwidth-centric** order of two `(child, link time c)` pairs:
/// increasing `c`, ties broken by increasing id (the paper's re-numbering
/// step in Proposition 1). Every child order in the workspace sorts by it.
pub fn bandwidth_centric<K: Ord>(a: &(K, Rat), b: &(K, Rat)) -> Ordering {
    a.1.cmp(&b.1).then_with(|| a.0.cmp(&b.0))
}

/// An immutable-topology heterogeneous tree platform.
///
/// Nodes live in a dense arena indexed by [`NodeId`]; the root is `P0`.
/// Weights and link times can be *re-weighted* in place (for the dynamic
/// adaptation experiments) but the shape is fixed after
/// [`crate::PlatformBuilder::build`].
#[derive(Clone)]
pub struct Platform {
    nodes: Vec<NodeData>,
}

impl Platform {
    pub(crate) fn from_nodes(nodes: Vec<NodeData>) -> Platform {
        Platform { nodes }
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` iff the platform has no nodes (never true for built platforms).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The root (master) node — always `P0`.
    #[must_use]
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Iterator over all node ids in index order.
    pub fn node_ids(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    fn node(&self, id: NodeId) -> &NodeData {
        &self.nodes[id.index()]
    }

    /// Processing time `w` of a node.
    #[must_use]
    pub fn weight(&self, id: NodeId) -> Weight {
        self.node(id).weight
    }

    /// Computing rate `r = 1/w` (tasks per time unit; 0 for switches).
    #[must_use]
    pub fn compute_rate(&self, id: NodeId) -> Rat {
        self.node(id).weight.rate()
    }

    /// Parent of a node (`None` for the root).
    #[must_use]
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.node(id).parent
    }

    /// Communication time `c` of the edge from the parent (`None` for root).
    #[must_use]
    pub fn link_time(&self, id: NodeId) -> Option<Rat> {
        self.node(id).link_time
    }

    /// Bandwidth `b = 1/c` of the edge from the parent (`None` for root).
    #[must_use]
    pub fn bandwidth(&self, id: NodeId) -> Option<Rat> {
        self.node(id).link_time.map(Rat::recip)
    }

    /// Children in insertion order.
    #[must_use]
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        &self.node(id).children
    }

    /// `true` iff the node has no children.
    #[must_use]
    pub fn is_leaf(&self, id: NodeId) -> bool {
        self.node(id).children.is_empty()
    }

    /// Children sorted by the **bandwidth-centric principle**
    /// ([`bandwidth_centric`]): increasing communication time `c`, ties
    /// broken by increasing node id.
    #[must_use]
    pub fn children_bandwidth_centric(&self, id: NodeId) -> Vec<NodeId> {
        let mut kids: Vec<(NodeId, Rat)> = (self.node(id).children.iter())
            .map(|&k| (k, self.link_time(k).expect("child has link")))
            .collect();
        kids.sort_by(bandwidth_centric);
        kids.into_iter().map(|(k, _)| k).collect()
    }

    /// Depth of a node (root is 0).
    #[must_use]
    pub fn depth(&self, id: NodeId) -> usize {
        self.ancestors(id).count()
    }

    /// Height of the tree: the maximum depth over all nodes.
    #[must_use]
    pub fn height(&self) -> usize {
        self.node_ids().map(|id| self.depth(id)).max().unwrap_or(0)
    }

    /// Iterator over the proper ancestors of `id`, nearest first.
    pub fn ancestors(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        std::iter::successors(self.parent(id), move |&p| self.parent(p))
    }

    /// Number of nodes in the subtree rooted at `id` (including `id`).
    #[must_use]
    pub fn subtree_size(&self, id: NodeId) -> usize {
        1 + self.children(id).iter().map(|&c| self.subtree_size(c)).sum::<usize>()
    }

    /// Pre-order (depth-first) traversal of the subtree rooted at `id`,
    /// visiting children in bandwidth-centric order.
    #[must_use]
    pub fn preorder_bandwidth_centric(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.subtree_size(id));
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            out.push(n);
            let kids = self.children_bandwidth_centric(n);
            for k in kids.into_iter().rev() {
                stack.push(k);
            }
        }
        out
    }

    /// Extracts the subtree rooted at `id` as a standalone platform, with
    /// ids renumbered densely in bandwidth-centric preorder (the subtree
    /// root becomes `P0`). Returns the new platform and the mapping from
    /// old to new ids.
    #[must_use]
    pub fn subtree(&self, id: NodeId) -> (Platform, Vec<(NodeId, NodeId)>) {
        let order = self.preorder_bandwidth_centric(id);
        let mut map: Vec<(NodeId, NodeId)> = Vec::with_capacity(order.len());
        let index_of = |map: &[(NodeId, NodeId)], old: NodeId| -> NodeId {
            map.iter().find(|&&(o, _)| o == old).expect("parent mapped first").1
        };
        let mut nodes: Vec<NodeData> = Vec::with_capacity(order.len());
        for (new_idx, &old) in order.iter().enumerate() {
            let new_id = NodeId(new_idx as u32);
            let (parent, link_time) = if old == id {
                (None, None)
            } else {
                let old_parent = self.parent(old).expect("non-root of subtree");
                (Some(index_of(&map, old_parent)), self.link_time(old))
            };
            map.push((old, new_id));
            if let Some(p) = parent {
                nodes[p.index()].children.push(new_id);
            }
            nodes.push(NodeData {
                weight: self.weight(old),
                parent,
                link_time,
                children: Vec::new(),
            });
        }
        (Platform { nodes }, map)
    }

    /// Re-weights a node in place (dynamic platform adaptation).
    pub fn set_weight(&mut self, id: NodeId, w: Weight) {
        self.nodes[id.index()].weight = w;
    }

    /// Re-weights the edge into `id` in place. Panics if `id` is the root.
    pub fn set_link_time(&mut self, id: NodeId, c: Rat) {
        assert!(c.is_positive(), "link time must be positive");
        let slot = &mut self.nodes[id.index()].link_time;
        assert!(slot.is_some(), "root has no incoming link");
        *slot = Some(c);
    }
}

impl fmt::Debug for Platform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Platform ({} nodes)", self.len())?;
        for id in self.node_ids() {
            let n = self.node(id);
            match (n.parent, n.link_time) {
                (Some(p), Some(c)) => writeln!(f, "  {id}: w={} parent={p} c={c}", n.weight)?,
                _ => writeln!(f, "  {id}: w={} (root)", n.weight)?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PlatformBuilder;
    use bwfirst_rational::rat;

    fn sample() -> (Platform, Vec<NodeId>) {
        // P0 -> P1 (c=2), P2 (c=1), P3 (c=2); P1 -> P4 (c=3)
        let mut b = PlatformBuilder::new();
        let p0 = b.root(rat(1, 1));
        let p1 = b.child(p0, rat(2, 1), rat(2, 1));
        let p2 = b.child(p0, rat(2, 1), rat(1, 1));
        let p3 = b.child(p0, rat(2, 1), rat(2, 1));
        let p4 = b.child(p1, rat(4, 1), rat(3, 1));
        (b.build().unwrap(), vec![p0, p1, p2, p3, p4])
    }

    #[test]
    fn bandwidth_centric_order_sorts_by_c_then_id() {
        let (p, ids) = sample();
        assert_eq!(p.children_bandwidth_centric(ids[0]), vec![ids[2], ids[1], ids[3]]);
    }

    #[test]
    fn depth_height_subtree() {
        let (p, ids) = sample();
        assert_eq!(p.depth(ids[0]), 0);
        assert_eq!(p.depth(ids[1]), 1);
        assert_eq!(p.depth(ids[4]), 2);
        assert_eq!(p.height(), 2);
        assert_eq!(p.subtree_size(ids[0]), 5);
        assert_eq!(p.subtree_size(ids[1]), 2);
        assert_eq!(p.subtree_size(ids[4]), 1);
    }

    #[test]
    fn ancestors_nearest_first() {
        let (p, ids) = sample();
        let anc: Vec<_> = p.ancestors(ids[4]).collect();
        assert_eq!(anc, vec![ids[1], ids[0]]);
        assert!(p.ancestors(ids[0]).next().is_none());
    }

    #[test]
    fn preorder_follows_bandwidth_centric_order() {
        let (p, ids) = sample();
        assert_eq!(
            p.preorder_bandwidth_centric(ids[0]),
            vec![ids[0], ids[2], ids[1], ids[4], ids[3]]
        );
    }

    #[test]
    fn rates_and_bandwidths() {
        let (p, ids) = sample();
        assert_eq!(p.compute_rate(ids[1]), rat(1, 2));
        assert_eq!(p.bandwidth(ids[4]), Some(rat(1, 3)));
        assert_eq!(p.bandwidth(ids[0]), None);
    }

    #[test]
    fn subtree_extraction() {
        let (p, ids) = sample();
        let (sub, map) = p.subtree(ids[1]); // P1 with child P4
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.root(), NodeId(0));
        assert_eq!(sub.weight(NodeId(0)), p.weight(ids[1]));
        assert_eq!(sub.link_time(NodeId(0)), None); // subtree root loses its uplink
        assert_eq!(sub.children(NodeId(0)), &[NodeId(1)]);
        assert_eq!(sub.link_time(NodeId(1)), p.link_time(ids[4]));
        assert_eq!(map, vec![(ids[1], NodeId(0)), (ids[4], NodeId(1))]);
    }

    #[test]
    fn subtree_of_root_is_whole_tree_in_bw_order() {
        let (p, ids) = sample();
        let (sub, map) = p.subtree(ids[0]);
        assert_eq!(sub.len(), p.len());
        // New ids follow bandwidth-centric preorder: P0, P2(c=1), P1, P4, P3.
        let olds: Vec<NodeId> = map.iter().map(|&(o, _)| o).collect();
        assert_eq!(olds, vec![ids[0], ids[2], ids[1], ids[4], ids[3]]);
        // Weights and link times survive the renumbering.
        for &(old, new) in &map {
            assert_eq!(p.weight(old), sub.weight(new));
            if old != ids[0] {
                assert_eq!(p.link_time(old), sub.link_time(new));
            }
        }
    }

    #[test]
    fn reweighting() {
        let (mut p, ids) = sample();
        p.set_weight(ids[1], Weight::Time(rat(8, 1)));
        assert_eq!(p.compute_rate(ids[1]), rat(1, 8));
        p.set_link_time(ids[1], rat(5, 1));
        assert_eq!(p.link_time(ids[1]), Some(rat(5, 1)));
    }

    #[test]
    #[should_panic(expected = "root has no incoming link")]
    fn cannot_reweight_root_link() {
        let (mut p, ids) = sample();
        p.set_link_time(ids[0], rat(1, 1));
    }
}
