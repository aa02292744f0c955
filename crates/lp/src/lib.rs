//! Exact rational linear programming, and the steady-state LP.
//!
//! Banino's earlier work (cited as \[2\] in the paper) solves the
//! steady-state Master–Worker problem on *general graphs* with a linear
//! program under the single-port, full-overlap model. On trees that LP and
//! `BW-First` must agree — which makes an exact LP solver the perfect
//! *independent oracle* for this reproduction: two completely different
//! algorithms, one closed-form greedy and one simplex, computing the same
//! optimal throughput from the same platform description.
//!
//! The crate provides:
//!
//! * [`simplex`] — a dense two-phase primal simplex over
//!   [`bwfirst_rational::Rat`] with Bland's anti-cycling rule: exact,
//!   deterministic, and guaranteed to terminate;
//! * [`problem`] — a small modelling layer (`maximize`, `≤ / ≥ / =`
//!   constraints, named variables);
//! * [`steady`] — the steady-state LP of a tree platform: per-node compute
//!   rates and per-edge flows, conservation (equation 1 of the paper),
//!   CPU caps, and single-port send/receive budgets;
//! * [`gauss`] — exact Gaussian elimination, used by the vertex-enumeration
//!   test oracle and exported for reuse.
//!
//! Experiment E14 cross-validates `BW-First` against this LP on random
//! platforms; the equality is also property-tested here.

#![forbid(unsafe_code)]
// R1: exact arithmetic stays exact (rules: docs/ANALYSIS.md).
#![deny(clippy::disallowed_types, clippy::float_arithmetic)]
#![warn(missing_docs)]

pub mod gauss;
pub mod problem;
pub mod simplex;
pub mod steady;

pub use problem::{Cmp, LpOutcome, ProblemBuilder, VarId};
pub use simplex::solve_standard;
pub use steady::{steady_state_lp, SteadyLpSolution};
