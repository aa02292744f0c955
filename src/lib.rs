//! # bwfirst — bandwidth-centric scheduling of independent-task applications
//!
//! A reproduction of *"A Distributed Procedure for Bandwidth-Centric
//! Scheduling of Independent-Task Applications"* (Cyril Banino, IPDPS 2005).
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`rational`] — exact rational arithmetic ([`Rat`]).
//! * [`platform`] — heterogeneous tree platforms, generators, I/O.
//! * [`core`] — the paper's algorithms: `BW-First`, the bottom-up baseline,
//!   steady-state solutions, asynchronous & event-driven schedules, the
//!   buffer-minimizing local schedule, and start-up analysis.
//! * [`proto`] — the distributed protocol: one state machine per node, on one
//!   dispatcher over in-memory or localhost TCP links.
//! * [`sim`] — a discrete-event simulator of the single-port full-overlap
//!   model, with baseline protocols and Gantt traces.
//! * [`lp`] — an exact rational simplex and the steady-state linear program,
//!   an independent oracle for the `BW-First` optimum.
//! * [`overlay`] — tree-overlay construction on physical network graphs,
//!   scored by `BW-First` (the paper's topological-studies use case).
//!
//! ## Quickstart
//! ```
//! use bwfirst::prelude::*;
//!
//! // A master with two workers: a fast link to a slow node and vice versa.
//! let mut b = PlatformBuilder::new();
//! let root = b.root(rat(3, 1));                 // master computes 1 task / 3 units
//! b.child(root, rat(5, 1), rat(1, 1));          // slow worker, fast link (c = 1)
//! b.child(root, rat(1, 1), rat(2, 1));          // fast worker, slow link (c = 2)
//! let platform = b.build().unwrap();
//!
//! let solution = bw_first(&platform);
//! println!("steady-state throughput: {} tasks per time unit", solution.throughput());
//! ```
pub use bwfirst_core as core;
pub use bwfirst_lp as lp;
pub use bwfirst_overlay as overlay;
pub use bwfirst_platform as platform;
pub use bwfirst_proto as proto;
pub use bwfirst_rational as rational;
pub use bwfirst_sim as sim;

pub use bwfirst_rational::{rat, Rat};

/// One-stop imports for applications.
pub mod prelude {
    pub use crate::core::quantize::quantize;
    pub use crate::core::{
        bottom_up, bw_first, validate_schedule, BwFirstSolution, EventDrivenSchedule,
        LocalSchedule, SteadyState,
    };
    pub use crate::platform::{NodeId, Platform, PlatformBuilder, Weight};
    pub use crate::proto::ProtocolSession;
    pub use crate::rational::{rat, Rat};
    pub use crate::sim::{event_driven, SimConfig, SimReport};
}
