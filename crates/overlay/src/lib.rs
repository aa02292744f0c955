//! Tree overlays on physical networks, scored by `BW-First`.
//!
//! Section 5 of the paper notes that a fast throughput evaluator "might be a
//! useful tool for topological studies, which aim at determining the best
//! tree overlay network that is built on top of the physical network
//! topology \[12\]. A quick way to evaluate the throughput of a tree allows
//! to consider a wider set of trees." This crate is that tool:
//!
//! * [`graph`] — the physical substrate: an undirected, link-weighted graph
//!   of compute nodes (generators included);
//! * [`spanning`] — classic overlay constructions: Prim's
//!   minimum-link-time tree, Dijkstra's shortest-path tree, and Wilson's
//!   uniform random spanning trees;
//! * [`convert`] — spanning tree → [`bwfirst_platform::Platform`];
//! * [`io`] — a JSON interchange format for physical graphs;
//! * [`search`] — reattachment hill-climbing over spanning trees, scoring
//!   every candidate exactly with `BW-First`.
//!
//! ```
//! use bwfirst_overlay::graph::{GraphBuilder};
//! use bwfirst_overlay::{best_overlay, spanning, OverlaySearch};
//! use bwfirst_platform::Weight;
//! use bwfirst_rational::rat;
//!
//! // A 4-node physical network.
//! let mut g = GraphBuilder::new();
//! let a = g.node(Weight::Time(rat(2, 1)));
//! let b = g.node(Weight::Time(rat(3, 1)));
//! let c = g.node(Weight::Time(rat(3, 1)));
//! let d = g.node(Weight::Time(rat(1, 1)));
//! g.edge(a, b, rat(1, 1));
//! g.edge(a, c, rat(2, 1));
//! g.edge(b, d, rat(1, 2));
//! g.edge(c, d, rat(3, 1));
//! let graph = g.build().unwrap();
//!
//! let result = best_overlay(&graph, a, &OverlaySearch::default());
//! assert!(result.throughput.is_positive());
//! assert_eq!(result.platform.len(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod convert;
pub mod graph;
pub mod io;
pub mod search;
pub mod spanning;

pub use convert::tree_to_platform;
pub use graph::{Graph, GraphBuilder, GraphError, NodeIx};
pub use search::{best_overlay, OverlayResult, OverlaySearch};
pub use spanning::{min_link_tree, random_spanning_tree, shortest_path_tree, SpanningTree};
