//! Heterogeneous tree platforms for bandwidth-centric scheduling.
//!
//! The target architectural framework of Banino (IPDPS 2005) is a
//! node-weighted, edge-weighted tree `T = (V, E, w, c)`:
//!
//! * node `P_i` needs `w_i` time units to process one task
//!   (computing **rate** `r_i = 1/w_i` tasks per time unit);
//! * edge `P_i → P_j` needs `c_ij` time units for the parent to communicate
//!   one task to the child (**bandwidth** `b_ij = 1/c_ij`);
//! * `w_i = +∞` is allowed — the node has no computing power but still
//!   forwards tasks (a switch); `w_i = 0` and `c_ij ≤ 0` are rejected.
//!
//! All quantities are exact rationals ([`bwfirst_rational::Rat`]). The crate
//! provides:
//!
//! * [`Platform`] / [`PlatformBuilder`] — an arena tree with O(1) child and
//!   parent access and the traversal helpers the algorithms need (including
//!   [`Platform::children_bandwidth_centric`], the fastest-link-first child
//!   order at the heart of the bandwidth-centric principle, whose one
//!   comparison is [`bandwidth_centric`]);
//! * [`generators`] — forks, daisy-chains, stars, k-ary trees, and
//!   seeded random/bottlenecked platforms for the experiments;
//! * [`examples`] — the reconstructed Figure 4 example tree and the
//!   Section 9 result-return counter-example;
//! * [`io`] — a JSON interchange format and Graphviz DOT export.
//!
//! ```
//! use bwfirst_platform::{PlatformBuilder, Weight};
//! use bwfirst_rational::rat;
//!
//! let mut b = PlatformBuilder::new();
//! let root = b.root(rat(3, 1));
//! let kid = b.child(root, Weight::Infinite, rat(1, 2)); // a switch
//! b.child(kid, rat(1, 1), rat(1, 1));
//! let p = b.build().unwrap();
//! assert_eq!(p.len(), 3);
//! assert!(p.compute_rate(kid).is_zero());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod error;
pub mod examples;
pub mod generators;
pub mod io;
mod node;
mod platform;

pub use builder::PlatformBuilder;
pub use error::PlatformError;
pub use node::{NodeId, Weight};
pub use platform::{bandwidth_centric, Platform};
