//! The distributed `BW-First` protocol: one actor per tree node, channels as
//! links, every protocol message a single number.
//!
//! This crate realizes the paper's claim that `BW-First` "can be implemented
//! as a lightweight communication protocol between the nodes of the
//! platform": the traversal of `bwfirst-core` becomes an actual exchange of
//! messages between OS threads. Each node actor knows only
//! **local** information — its own processing time, its children's link
//! times, and its channel endpoints — plus what its parent and children tell
//! it (the *semi-autonomous* property of Section 5).
//!
//! A [`ProtocolSession`] spawns the actors and plays the root's
//! *virtual parent*:
//!
//! * [`ProtocolSession::negotiate`] runs one full `BW-First` round —
//!   proposals flow down, acknowledgments flow up — and returns the
//!   throughput plus per-node rates and message counts. Negotiations can be
//!   re-run at any time (the paper's dynamic-adaptation strategy), including
//!   after [`ProtocolSession::set_weight`] / [`ProtocolSession::set_link`]
//!   re-weight parts of the platform.
//! * [`ProtocolSession::run_flow`] then moves *real task payloads*
//!   (shared `Arc<[u8]>` buffers) through the tree: every node routes
//!   incoming bunches with the event-driven local schedule it derived from
//!   its own negotiated rates — no clocks, no global knowledge (Section 6.2).
//!
//! Experiment E11 uses the message and latency accounting to substantiate
//! "the running time of the `BW-First` procedure is negligible as opposed to
//! the time of communicating tasks".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod actor;
pub mod error;
pub mod machine;
pub mod messages;
pub mod session;
pub mod wire;

pub use error::{Peer, ProtoError};
pub use machine::NodeMachine;
pub use messages::{ControlMsg, DownMsg, UpMsg};
pub use session::{FlowOutcome, NegotiationOutcome, ProtocolSession};
