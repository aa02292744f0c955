//! Zero-dependency observability for the BW-First reproduction.
//!
//! The paper's claims are quantitative — messages per edge (Proposition 2),
//! nodes visited vs platform size, per-activity utilization under the
//! single-port model — so the repo needs a way to *measure* its own layers
//! without dragging in external crates. This crate provides:
//!
//! * [`json`] — a minimal JSON value, parser and writer (the only JSON
//!   implementation in the workspace; platform/overlay/record files use it);
//! * [`event`] — structured trace events on exact rational timestamps;
//! * [`causal`] — the task-provenance trace artifact, whose one reader
//!   `Trace::parse` is also its schema check; per-task lineage,
//!   cross-executor diff, and Chrome flow rendering;
//! * [`metrics`] — named counters and scalar histograms;
//! * [`recorder`] — the in-memory event and metrics sink
//!   ([`MemoryRecorder`]);
//! * [`chrome`] — export to the Chrome trace-event format
//!   (`chrome://tracing`, Perfetto);
//! * [`flight`] — a fixed-capacity flight recorder whose tail becomes a
//!   self-contained JSON post-mortem on failure;
//! * [`summary`] — a human-readable summary table.
//!
//! Everything is plain `std`; the crate has **no dependencies**, not even on
//! the workspace's own crates, so every layer can depend on it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod causal;
pub mod chrome;
pub mod event;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod summary;

pub use causal::{Trace, TraceDiff, TraceHeader, TraceRecord};
pub use event::{Arg, Event, EventKind, Ts};
pub use flight::{FlightEntry, FlightRecorder};
pub use metrics::Metrics;
pub use recorder::MemoryRecorder;
