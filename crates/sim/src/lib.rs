//! Discrete-event simulation of the single-port, full-overlap model.
//!
//! The paper proposes (Section 9) evaluating `BW-First` with a simulator;
//! this crate is that simulator. Time is exact: every event time is a sum
//! of rational durations, so the engine counts it in integer ticks of
//! `1/S` ([`TickScale`], `S` the lcm of the durations' denominators). The
//! [`SimReport`] and the [`Gantt`] trace keep those ticks with their scale
//! and answer queries in exact [`bwfirst_rational::Rat`] times. Periodic
//! schedules replay without drift and the measured steady-state rates can
//! be compared to the predicted rationals *exactly*.
//!
//! Resources per node, following Section 3's model:
//!
//! * one **CPU** — one task at a time, `w` time units each, overlappable
//!   with any communication;
//! * one **sending port** — at most one outgoing transfer at a time
//!   (`c` time units per task toward a given child);
//! * one **receiving port** — at most one incoming transfer at a time.
//!
//! Executors — policies on one engine (the event loop, counters, buffers,
//! root injection and the report live in a single place):
//!
//! * [`event_driven`] — the paper's schedule: every node except the root
//!   acts without clocks, handling incoming tasks in bunches of `Ψ`
//!   according to its local interleaved order; the root paces injection.
//!   Includes the *traditional* prefill start-up baseline of Section 7, and
//!   link degradations mid-run with stale vs re-negotiated schedules (the
//!   conclusion's platform-dynamics motivation).
//! * [`clocked`] — the Lemma 1 clocked asynchronous schedule (Section 6.1)
//!   with the Proposition 3 `χ` prefill, for contrast with the clockless
//!   event-driven executor.
//! * [`demand_driven`] — a Kreaseck-style autonomous protocol
//!   (non-interruptible communications, threshold requests), the baseline
//!   the paper's Sections 2 and 7 criticize.
//! * [`returns`] — the Section 9 model where computed tasks return a result
//!   to the master over bidirectional ports: the 3-node counter-example
//!   showing that folding return times into the forward cost is wrong, and
//!   the same question on arbitrary trees.
//! * [`makespan`] — finite-workload completion times under the schedules,
//!   against the `N/ρ*` steady-state lower bound (the Section 2 heuristic
//!   claim for Dutot's NP-hard makespan problem).
//!
//! Measurements ([`SimReport`]): per-node Gantt traces (Figure 5),
//! completion series, throughput over windows, steady-state entry times,
//! buffer occupancy, and wind-down lengths.
//!
//! Instrumentation: every executor exposes a `*_probed` variant generic
//! over a [`Probe`] — busy segments, event-queue depths, buffer occupancy
//! and task lifecycles stream to any sink ([`GanttProbe`],
//! [`UtilizationProbe`], [`ObsProbe`] into a `bwfirst-obs` recorder, the
//! online [`MonitorProbe`] invariant checker, or the [`ProvenanceProbe`])
//! with zero cost when [`NoProbe`] is plugged in.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clocked;
pub mod demand_driven;
mod engine;
pub mod error;
pub mod event_driven;
pub mod gantt;
pub mod gantt_svg;
pub mod makespan;
pub mod monitor;
pub mod probe;
pub mod provenance;
pub mod returns;

pub use engine::{BufferStats, SimConfig, SimReport};
pub use error::SimError;
pub use gantt::{Gantt, GanttSegment, SegmentKind};
pub use monitor::{
    MonitorConfig, MonitorEntry, MonitorProbe, MonitorReport, MonitorViolation, Snapshot,
    SnapshotError,
};
pub use probe::{GanttProbe, NoProbe, ObsProbe, Probe, TickScale, Utilization, UtilizationProbe};
pub use provenance::{trace_header, ProvenanceProbe};
