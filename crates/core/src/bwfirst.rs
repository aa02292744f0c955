//! `BW-First()` — Algorithm 1 / Proposition 2: the depth-first distributed
//! procedure for the maximum steady-state throughput of a tree.
//!
//! The traversal *is* the protocol. A node that receives a **proposal** of
//! `λ` tasks per time unit keeps `α = min(r, λ)` for its own CPU, then walks
//! its children in bandwidth-centric order (fastest link first), opening a
//! **transaction** with each: it proposes `β = min(δ, τ·b)` — no more tasks
//! than it still owns (`δ`) and no more than its remaining sending-port time
//! (`τ`) can carry — and receives back an **acknowledgment** `θ`, the amount
//! the child's subtree could not absorb. Proposals travel down opening
//! transactions; acknowledgments travel up closing them. A node whose parent
//! has no tasks (`δ = 0`) or no port time (`τ = 0`) left is **never
//! visited** — the efficiency edge over the bottom-up reduction.
//!
//! At the root the paper attaches a virtual parent with no computing power
//! proposing `t_max = r_root + max_i b_i` (the most the root could ever
//! consume under single-port sending); the tree's optimal throughput is
//! `t_max − θ_root`.
//!
//! The per-node rule lives once, in [`Round`]; the thread-per-node protocol
//! in `bwfirst-proto` runs it in its `NodeMachine`. The traversal lives once
//! too: an explicit-stack walk over a [`TreeSource`], which [`bw_first`]
//! runs on a [`Platform`] (recording the full transaction trace of
//! Figure 4(b)) and `crate::lazy` runs depth-limited on infinite trees.

use bwfirst_platform::{NodeId, Platform};
use bwfirst_rational::Rat;

/// A closed two-phase transaction (Definition 1): the parent proposed `beta`
/// tasks per time unit, the child acknowledged `theta` back; the subtree
/// consumes `beta − theta`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transaction {
    /// Proposing parent.
    pub parent: NodeId,
    /// Child whose subtree was offered tasks.
    pub child: NodeId,
    /// Proposal: tasks per time unit offered.
    pub beta: Rat,
    /// Acknowledgment: tasks per time unit the subtree could not handle.
    pub theta: Rat,
}

impl Transaction {
    /// Tasks per time unit actually flowing over this edge.
    #[must_use]
    pub fn consumed(&self) -> Rat {
        self.beta - self.theta
    }
}

/// One protocol message, in traversal order — the Figure 4(b) trace.
/// Every message carries a *single number*, as Definition 1 requires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// `from` proposes `beta` tasks per time unit to `to` (first phase).
    Proposal {
        /// Proposing parent.
        from: NodeId,
        /// Receiving child.
        to: NodeId,
        /// Offered tasks per time unit.
        beta: Rat,
    },
    /// `from` acknowledges `theta` unconsumed tasks to `to` (second phase).
    Ack {
        /// Acknowledging child.
        from: NodeId,
        /// Parent whose transaction closes.
        to: NodeId,
        /// Unconsumed tasks per time unit.
        theta: Rat,
    },
}

/// Complete output of a `BW-First` run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BwFirstSolution {
    /// The proposal made by the virtual parent (`t_max` at the root).
    pub t_max: Rat,
    /// Optimal steady-state throughput: `t_max − θ_root`.
    throughput: Rat,
    /// Per-node compute allocation `α_i` (tasks per time unit), by node index.
    pub alpha: Vec<Rat>,
    /// Per-node task inflow `η_{-1}`: tasks per time unit received from the
    /// parent. For the root this is the total injection rate (= throughput).
    pub eta_in: Vec<Rat>,
    /// Which nodes the traversal visited.
    pub visited: Vec<bool>,
    /// All closed transactions in closing order.
    pub transactions: Vec<Transaction>,
    /// Full message trace in wire order.
    pub trace: Vec<TraceEvent>,
}

impl BwFirstSolution {
    /// Optimal steady-state throughput of the tree (tasks per time unit).
    #[must_use]
    pub fn throughput(&self) -> Rat {
        self.throughput
    }

    /// Number of visited nodes.
    #[must_use]
    pub fn visit_count(&self) -> usize {
        self.visited.iter().filter(|&&v| v).count()
    }

    /// Ids of the nodes the traversal never reached (pruned subtrees).
    #[must_use]
    pub fn unvisited(&self) -> Vec<NodeId> {
        self.visited
            .iter()
            .enumerate()
            .filter(|(_, &v)| !v)
            .map(|(i, _)| NodeId(i as u32))
            .collect()
    }

    /// Number of protocol messages exchanged (each carrying one number).
    #[must_use]
    pub fn message_count(&self) -> usize {
        self.trace.len()
    }

    /// Task outflow toward `child` (tasks per time unit over that edge).
    #[must_use]
    pub fn flow_to(&self, child: NodeId) -> Rat {
        self.eta_in[child.index()]
    }
}

/// A tree revealed on demand — a finite [`Platform`] through
/// [`PlatformSource`], or a conceptually infinite one (`crate::lazy`).
pub trait TreeSource {
    /// Opaque node handle.
    type Node: Clone;

    /// The root handle.
    fn root(&self) -> Self::Node;

    /// Computing rate `r = 1/w` of `node`.
    fn rate(&self, node: &Self::Node) -> Rat;

    /// Children of `node` as `(handle, link time c)` with `c > 0`, fastest
    /// link first, ties in source order.
    fn children(&self, node: &Self::Node) -> Vec<(Self::Node, Rat)>;
}

/// A finite [`Platform`] as a [`TreeSource`]: children in `(c, id)` order,
/// exactly [`Platform::children_bandwidth_centric`].
#[derive(Debug, Clone, Copy)]
pub struct PlatformSource<'a>(pub &'a Platform);

impl TreeSource for PlatformSource<'_> {
    type Node = NodeId;

    fn root(&self) -> NodeId {
        self.0.root()
    }

    fn rate(&self, node: &NodeId) -> Rat {
        self.0.compute_rate(*node)
    }

    fn children(&self, node: &NodeId) -> Vec<(NodeId, Rat)> {
        let mut kids: Vec<(NodeId, Rat)> = (self.0.children(*node).iter())
            .map(|&k| (k, self.0.link_time(k).expect("child has link")))
            .collect();
        kids.sort_unstable_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)));
        kids
    }
}

/// One node's share of a `BW-First` round — Algorithm 1's per-node rule.
/// The centralized walk and the protocol's `NodeMachine` both run it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Round {
    /// Proposal `λ` received from the parent.
    pub lambda: Rat,
    /// Rate `α = min(r, λ)` kept for the node's own CPU.
    pub alpha: Rat,
    /// Tasks per time unit not yet placed; the closing ack is `θ = δ`.
    pub delta: Rat,
    /// Sending-port time left per time unit.
    pub tau: Rat,
    /// `β` of the latest proposal to a child.
    pub beta: Rat,
}

impl Round {
    /// Receives the proposal `lambda` at a node computing at `rate`.
    #[must_use]
    pub fn open(rate: Rat, lambda: Rat) -> Round {
        let alpha = rate.min(lambda);
        Round { lambda, alpha, delta: lambda - alpha, tau: Rat::ONE, beta: Rat::ZERO }
    }

    /// Offers `β = min(δ, τ/c)` to the next child, whose link time is
    /// `c > 0`; `None` once `δ` or `τ` is spent.
    pub fn propose(&mut self, c: Rat) -> Option<Rat> {
        if !(self.delta.is_positive() && self.tau.is_positive()) {
            return None;
        }
        self.beta = self.delta.min(self.tau / c);
        Some(self.beta)
    }

    /// Books the child's ack `θ ∈ [0, β]` against `δ` and `τ`; returns the
    /// consumed rate `β − θ`.
    pub fn close(&mut self, c: Rat, theta: Rat) -> Rat {
        let consumed = self.beta - theta;
        self.delta -= consumed;
        self.tau -= consumed * c;
        debug_assert!(!consumed.is_negative() && !self.delta.is_negative());
        debug_assert!(!self.tau.is_negative());
        consumed
    }

    /// Inflow `η_in = λ − δ`: what the node's subtree accepted.
    #[must_use]
    pub fn eta_in(&self) -> Rat {
        self.lambda - self.delta
    }
}

/// Truncation of a depth-limited [`walk`] (see `crate::lazy`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Bound {
    /// Nodes at the limit keep `α` and prune their children (feasible).
    Lower,
    /// Nodes at the limit consume the whole proposal (optimistic).
    Upper,
}

/// What the [`walk`] reports to its observer, with `(parent, node, round)`,
/// in wire order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// `node` received `round.lambda` from `parent` and kept `round.alpha`.
    Open,
    /// `node` acknowledged `θ = round.delta` back to `parent`.
    Close,
}

/// The canonical virtual-parent proposal `t_max = r_root + max_i b_i`.
pub(crate) fn t_max<S: TreeSource>(source: &S) -> Rat {
    let root = source.root();
    let best_bw = source.children(&root).first().map_or(Rat::ZERO, |(_, c)| c.recip());
    source.rate(&root) + best_bw
}

/// Algorithm 1's depth-first traversal from a root proposal `lambda`,
/// returning the root's closed [`Round`]. Nodes at depth `limit.0` are
/// truncated per `limit.1`. An explicit stack keeps arbitrarily deep chains
/// (the infinite-tree experiments) off the call stack.
pub(crate) fn walk<S: TreeSource>(
    source: &S,
    lambda: Rat,
    limit: Option<(usize, Bound)>,
    mut observe: impl FnMut(Step, Option<&S::Node>, &S::Node, &Round),
) -> Round {
    struct Frame<N> {
        node: N,
        round: Round,
        kids: Vec<(N, Rat)>,
        next: usize,
    }
    assert!(!lambda.is_negative(), "root proposal must be non-negative");
    let open = |node: S::Node, depth: usize, lambda: Rat| {
        let (round, kids) = match limit.filter(|&(d, _)| depth >= d) {
            Some((_, Bound::Upper)) => (Round::open(lambda, lambda), Vec::new()),
            Some((_, Bound::Lower)) => (Round::open(source.rate(&node), lambda), Vec::new()),
            None => (Round::open(source.rate(&node), lambda), source.children(&node)),
        };
        Frame { node, round, kids, next: 0 }
    };
    let root = open(source.root(), 0, lambda);
    observe(Step::Open, None, &root.node, &root.round);
    let mut stack = vec![root];
    loop {
        let depth = stack.len();
        let top = stack.last_mut().expect("stack non-empty until return");
        if let Some((child, c)) = top.kids.get(top.next) {
            if let Some(beta) = top.round.propose(*c) {
                let frame = open(child.clone(), depth, beta);
                observe(Step::Open, Some(&top.node), &frame.node, &frame.round);
                stack.push(frame);
                continue;
            }
        }
        let done = stack.pop().expect("frame exists");
        let parent = stack.last_mut();
        observe(Step::Close, parent.as_ref().map(|p| &p.node), &done.node, &done.round);
        let Some(parent) = parent else { return done.round };
        parent.round.close(parent.kids[parent.next].1, done.round.delta);
        parent.next += 1;
    }
}

/// Runs `BW-First` on the whole platform with the canonical root proposal
/// `t_max = r_root + max_i b_i`.
///
/// ```
/// use bwfirst_core::bw_first;
/// use bwfirst_platform::examples::example_tree;
/// use bwfirst_rational::rat;
///
/// let solution = bw_first(&example_tree());
/// assert_eq!(solution.throughput(), rat(10, 9));      // exact
/// assert_eq!(solution.visit_count(), 8);              // P5, P9..P11 pruned
/// assert_eq!(solution.message_count(), 14);           // 7 transactions
/// ```
#[must_use]
pub fn bw_first(platform: &Platform) -> BwFirstSolution {
    bw_first_with_lambda(platform, t_max(&PlatformSource(platform)))
}

/// Runs `BW-First` with an explicit root proposal `lambda` (the virtual
/// parent's offer). Useful for analyzing subtrees under a constrained feed.
#[must_use]
pub fn bw_first_with_lambda(platform: &Platform, lambda: Rat) -> BwFirstSolution {
    let n = platform.len();
    let mut alpha = vec![Rat::ZERO; n];
    let mut eta_in = vec![Rat::ZERO; n];
    let mut visited = vec![false; n];
    let mut transactions = Vec::new();
    let mut trace = Vec::new();
    let root =
        walk(&PlatformSource(platform), lambda, None, |step, parent, node, round| match step {
            Step::Open => {
                visited[node.index()] = true;
                alpha[node.index()] = round.alpha;
                if let Some(&from) = parent {
                    trace.push(TraceEvent::Proposal { from, to: *node, beta: round.lambda });
                }
            }
            Step::Close => {
                eta_in[node.index()] = round.eta_in();
                if let Some(&parent) = parent {
                    let (child, beta, theta) = (*node, round.lambda, round.delta);
                    trace.push(TraceEvent::Ack { from: child, to: parent, theta });
                    transactions.push(Transaction { parent, child, beta, theta });
                }
            }
        });
    let throughput = root.eta_in();
    BwFirstSolution { t_max: lambda, throughput, alpha, eta_in, visited, transactions, trace }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwfirst_platform::examples::{example_throughput, example_tree, example_unvisited};
    use bwfirst_platform::generators::{daisy_chain, fork, star};
    use bwfirst_platform::{PlatformBuilder, Weight};
    use bwfirst_rational::rat;

    fn w(n: i128) -> Weight {
        Weight::Time(rat(n, 1))
    }

    #[test]
    fn single_node() {
        let p = fork(w(4), &[]);
        let s = bw_first(&p);
        assert_eq!(s.throughput(), rat(1, 4));
        assert_eq!(s.alpha[0], rat(1, 4));
        assert_eq!(s.visit_count(), 1);
        assert!(s.transactions.is_empty());
    }

    #[test]
    fn simple_fork_matches_prop1() {
        let p = fork(w(1), &[(rat(1, 1), w(1))]);
        let s = bw_first(&p);
        assert_eq!(s.throughput(), rat(2, 1));
        assert_eq!(s.alpha[0], Rat::ONE);
        assert_eq!(s.alpha[1], Rat::ONE);
        assert_eq!(s.eta_in[1], Rat::ONE);
    }

    #[test]
    fn lambda_limits_consumption() {
        // Same fork, but the virtual parent only offers 1/2 task/unit.
        let p = fork(w(1), &[(rat(1, 1), w(1))]);
        let s = bw_first_with_lambda(&p, rat(1, 2));
        assert_eq!(s.throughput(), rat(1, 2));
        assert_eq!(s.alpha[0], rat(1, 2)); // root keeps everything
        assert!(!s.visited[1]); // child never visited: δ = 0
    }

    #[test]
    fn example_tree_full_solution() {
        let p = example_tree();
        let s = bw_first(&p);
        assert_eq!(s.t_max, rat(10, 9));
        assert_eq!(s.throughput(), example_throughput());

        // Figure 4(c): per-node rates.
        assert_eq!(s.alpha[0], rat(1, 9));
        for i in [1, 2, 3, 4, 6] {
            assert_eq!(s.alpha[i], rat(1, 6), "alpha of P{i}");
        }
        for i in [7, 8] {
            assert_eq!(s.alpha[i], rat(1, 12), "alpha of P{i}");
        }
        for i in [1, 2, 3] {
            assert_eq!(s.eta_in[i], rat(1, 3), "eta_in of P{i}");
        }
        for i in [4, 6] {
            assert_eq!(s.eta_in[i], rat(1, 6), "eta_in of P{i}");
        }
        assert_eq!(s.eta_in[7], rat(1, 6));
        assert_eq!(s.eta_in[8], rat(1, 12));

        // Figure 4(b): pruned nodes.
        let unvisited = s.unvisited();
        assert_eq!(unvisited, example_unvisited().to_vec());
        assert_eq!(s.visit_count(), 8);

        // Transactions: one per visited non-root node.
        assert_eq!(s.transactions.len(), 7);
        // Messages: a proposal and an ack per transaction.
        assert_eq!(s.message_count(), 14);
    }

    #[test]
    fn example_tree_transaction_values() {
        let s = bw_first(&example_tree());
        let tx = |child: u32| {
            s.transactions
                .iter()
                .find(|t| t.child == NodeId(child))
                .unwrap_or_else(|| panic!("transaction with P{child}"))
        };
        assert_eq!(tx(1).beta, Rat::ONE);
        assert_eq!(tx(1).theta, rat(2, 3));
        assert_eq!(tx(2).beta, rat(2, 3));
        assert_eq!(tx(2).theta, rat(1, 3));
        assert_eq!(tx(3).beta, rat(1, 3));
        assert_eq!(tx(3).theta, Rat::ZERO);
        assert_eq!(tx(4).beta, rat(1, 6));
        assert_eq!(tx(4).theta, Rat::ZERO);
        assert_eq!(tx(7).beta, rat(1, 6));
        assert_eq!(tx(8).beta, rat(1, 12));
    }

    #[test]
    fn trace_is_properly_nested() {
        // Proposals and acks nest like balanced parentheses along the DFS.
        let s = bw_first(&example_tree());
        let mut depth = 0i32;
        for ev in &s.trace {
            match ev {
                TraceEvent::Proposal { .. } => depth += 1,
                TraceEvent::Ack { .. } => depth -= 1,
            }
            assert!(depth >= 0);
        }
        assert_eq!(depth, 0);
    }

    #[test]
    fn agrees_with_bottom_up_on_examples() {
        for p in [
            example_tree(),
            star(w(2), 10, w(1), rat(1, 1)),
            daisy_chain(w(2), &[(w(2), rat(1, 1)), (w(2), rat(1, 1))]),
            fork(w(3), &[(rat(1, 2), w(5)), (rat(2, 1), w(1)), (rat(1, 3), Weight::Infinite)]),
        ] {
            let a = bw_first(&p).throughput();
            let b = crate::bottom_up::bottom_up(&p).throughput;
            assert_eq!(a, b);
        }
    }

    #[test]
    fn conservation_law_holds() {
        let p = example_tree();
        let s = bw_first(&p);
        for id in p.node_ids() {
            let out: Rat = p.children(id).iter().map(|&k| s.eta_in[k.index()]).sum();
            assert_eq!(s.eta_in[id.index()], s.alpha[id.index()] + out, "conservation at {id}");
        }
    }

    #[test]
    fn switch_nodes_forward_without_computing() {
        // Root -> switch -> fast worker.
        let mut b = PlatformBuilder::new();
        let r = b.root(w(2));
        let sw = b.child(r, Weight::Infinite, rat(1, 2));
        b.child(sw, w(1), rat(1, 2));
        let p = b.build().unwrap();
        let s = bw_first(&p);
        assert_eq!(s.alpha[sw.index()], Rat::ZERO);
        // Worker limited by the root link: 2 tasks/unit max through c=1/2,
        // worker rate 1 → fully fed. Throughput = 1/2 + 1.
        assert_eq!(s.throughput(), rat(3, 2));
    }

    #[test]
    fn deep_chain_does_not_overflow_stack() {
        // 100_000-node chain; the explicit stack keeps this safe.
        let hops: Vec<(Weight, Rat)> = (0..100_000).map(|_| (w(1), rat(1, 1))).collect();
        let p = daisy_chain(w(1), &hops);
        let s = bw_first(&p);
        // Unit chain: every node consumes 1 task/unit of the forwarded flow;
        // the root port forwards 1/unit; visited nodes are root + 2
        // descendants (1 kept by P1, 0 left at P2... actually the flow dries
        // after the first child absorbs the whole forwarded unit).
        assert!(s.throughput() >= rat(2, 1));
        assert!(s.visit_count() < 10);
    }

    #[test]
    fn round_books_each_transaction_against_delta_and_tau() {
        // r = 1, λ = 4: α = 1, δ = 3, τ = 1.
        let mut r = Round::open(Rat::ONE, rat(4, 1));
        assert_eq!((r.alpha, r.delta, r.tau), (Rat::ONE, rat(3, 1), Rat::ONE));
        // c = 1/2: β = min(3, 2) = 2; θ = 1 books 1 task and 1/2 port time.
        assert_eq!(r.propose(rat(1, 2)), Some(rat(2, 1)));
        assert_eq!(r.close(rat(1, 2), Rat::ONE), Rat::ONE);
        assert_eq!((r.delta, r.tau), (rat(2, 1), rat(1, 2)));
        // c = 2: β = min(2, 1/4); fully consumed, τ is spent.
        assert_eq!(r.propose(rat(2, 1)), Some(rat(1, 4)));
        r.close(rat(2, 1), Rat::ZERO);
        assert_eq!(r.propose(rat(1, 1)), None);
        assert_eq!(r.eta_in(), rat(4, 1) - rat(7, 4));
    }

    #[test]
    #[should_panic(expected = "root proposal must be non-negative")]
    fn negative_root_proposal_is_refused() {
        let _ = bw_first_with_lambda(&fork(w(1), &[]), rat(-1, 1));
    }

    #[test]
    fn bandwidth_centric_visits_fast_link_first() {
        // Two children, second one has the faster link — trace must open
        // the transaction with it first.
        let mut b = PlatformBuilder::new();
        let r = b.root(w(10));
        let slow = b.child(r, w(1), rat(2, 1));
        let fast = b.child(r, w(1), rat(1, 1));
        let p = b.build().unwrap();
        let s = bw_first(&p);
        match s.trace.first() {
            Some(TraceEvent::Proposal { to, .. }) => assert_eq!(*to, fast),
            other => panic!("unexpected first event {other:?}"),
        }
        let _ = slow;
    }
}
