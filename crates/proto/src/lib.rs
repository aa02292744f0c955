//! The distributed `BW-First` protocol: one state machine per tree node,
//! every protocol message a single number.
//!
//! This crate realizes the paper's claim that `BW-First` "can be implemented
//! as a lightweight communication protocol between the nodes of the
//! platform": the traversal of `bwfirst-core` becomes an actual exchange of
//! messages over the tree's edges. Each node knows only **local**
//! information — its own processing time and its children's link times —
//! plus what its parent and children tell it (the *semi-autonomous* property
//! of Section 5).
//!
//! A [`ProtocolSession`] is one dispatcher: it owns every node's state,
//! delivers each message over its edge's link in per-link FIFO order on the
//! caller's thread (no thread per node), and plays the root's *virtual
//! parent*. A round keeps exactly one message in flight, so a thread per
//! node would only add context switches. Links are handed over in memory
//! ([`ProtocolSession::spawn`]) or cross localhost TCP sockets
//! ([`ProtocolSession::spawn_tcp`]). The per-node state machines are
//! private to the session: the exhaustive model checker in
//! `bwfirst-analyze` negotiates every small tree on this same session, so
//! what it verifies is the code that ships.
//!
//! * [`ProtocolSession::negotiate`] runs one full `BW-First` round —
//!   proposals flow down, acknowledgments flow up — and returns Algorithm
//!   1's own `BwFirstSolution`, recorded from the messages as they are
//!   delivered (the same recorder `bw_first` uses), so the distributed and
//!   the centralized result are one type and compare whole. Negotiations
//!   can be re-run at any time (the paper's dynamic-adaptation strategy),
//!   including after [`ProtocolSession::set_weight`] /
//!   [`ProtocolSession::set_link`] re-weight parts of the platform.
//! * [`ProtocolSession::run_flow`] then moves *real task payloads*
//!   (shared `Arc<[u8]>` buffers) through the tree: every node routes
//!   incoming bunches with the event-driven local schedule it derived from
//!   its own negotiated rates — no clocks, no global knowledge (Section 6.2).
//!
//! Experiment E11 uses the message count and the latency to substantiate
//! "the running time of the `BW-First` procedure is negligible as opposed to
//! the time of communicating tasks".

#![forbid(unsafe_code)]
// R1: exact arithmetic stays exact; R2: typed errors, no panics; R3:
// message matches stay exhaustive (rules: docs/ANALYSIS.md).
#![deny(clippy::disallowed_types, clippy::float_arithmetic)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants)]
#![warn(missing_docs)]

pub mod error;
mod machine;
pub mod messages;
pub mod session;
pub mod wire;

pub use error::ProtoError;
pub use messages::{ControlMsg, DownMsg, UpMsg};
pub use session::{FlowOutcome, NegotiationOutcome, ProtocolSession};
