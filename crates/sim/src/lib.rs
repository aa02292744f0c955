//! Discrete-event simulation of the single-port, full-overlap model.
//!
//! The paper proposes (Section 9) evaluating `BW-First` with a simulator;
//! this crate is that simulator. Time is exact ([`bwfirst_rational::Rat`]),
//! so periodic schedules replay without drift and the measured steady-state
//! rates can be compared to the predicted rationals *exactly*.
//!
//! Resources per node, following Section 3's model:
//!
//! * one **CPU** — one task at a time, `w` time units each, overlappable
//!   with any communication;
//! * one **sending port** — at most one outgoing transfer at a time
//!   (`c` time units per task toward a given child);
//! * one **receiving port** — at most one incoming transfer at a time.
//!
//! Executors:
//!
//! * [`event_driven`] — the paper's schedule: every node except the root
//!   acts without clocks, handling incoming tasks in bunches of `Ψ`
//!   according to its local interleaved order; the root paces injection.
//!   Includes the *traditional* prefill start-up baseline of Section 7 for
//!   comparison.
//! * [`clocked`] — the Lemma 1 clocked asynchronous schedule (Section 6.1)
//!   with the Proposition 3 `χ` prefill, for contrast with the clockless
//!   event-driven executor.
//! * [`demand_driven`] — a Kreaseck-style autonomous protocol
//!   (non-interruptible communications, threshold requests), the baseline
//!   the paper's Sections 2 and 7 criticize.
//! * [`result_return`] — the Section 9 model where computed tasks return a
//!   result to the master, demonstrating that folding return times into the
//!   forward communication cost is wrong under single-port reception.
//! * [`dynamic`] — link degradations mid-run with stale vs re-negotiated
//!   schedules (the conclusion's platform-dynamics motivation).
//! * [`makespan`] — finite-workload completion times under the schedules,
//!   against the `N/ρ*` steady-state lower bound (the Section 2 heuristic
//!   claim for Dutot's NP-hard makespan problem).
//! * [`returns`] — result returns on *arbitrary* trees (bidirectional port
//!   contention), quantifying the problem Section 9 leaves open.
//!
//! Measurements ([`SimReport`]): per-node Gantt traces (Figure 5),
//! completion series, throughput over windows, steady-state entry times,
//! buffer occupancy, and wind-down lengths.
//!
//! Instrumentation: the `event_driven`, `clocked`, `demand_driven` and
//! `dynamic` executors each expose a `simulate_probed` variant generic over
//! a [`Probe`] — busy segments, event-queue depths and buffer occupancy
//! stream to any sink ([`GanttProbe`], [`UtilizationProbe`], [`ObsProbe`]
//! into a `bwfirst-obs` recorder, or the online [`MonitorProbe`] invariant
//! checker) with zero cost when [`NoProbe`] is plugged in.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clocked;
pub mod demand_driven;
pub mod dynamic;
mod engine;
pub mod error;
pub mod event_driven;
pub mod gantt;
pub mod gantt_svg;
pub mod makespan;
pub mod monitor;
pub mod probe;
pub mod provenance;
pub mod result_return;
pub mod returns;

pub use engine::{BufferStats, SimConfig, SimReport};
pub use error::SimError;
pub use gantt::{Gantt, GanttSegment, SegmentKind};
pub use monitor::{
    MonitorConfig, MonitorEntry, MonitorProbe, MonitorReport, MonitorViolation, Snapshot,
};
pub use probe::{GanttProbe, NoProbe, ObsProbe, Probe, TaskAction, Utilization, UtilizationProbe};
pub use provenance::{trace_header, ProvenanceProbe};
