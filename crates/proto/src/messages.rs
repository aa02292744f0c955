//! Wire messages of the distributed protocol (public so the [`crate::wire`]
//! codec can be used standalone).
//!
//! The negotiation phase uses exactly the paper's two message kinds, each
//! carrying a single rational number (Definition 1); everything else is
//! harness control traffic (re-weighting, task payloads, shutdown).

use bwfirst_platform::Weight;
use bwfirst_rational::Rat;
use std::sync::Arc;

/// Parent-to-child traffic (the driver acts as the root's virtual parent).
#[derive(Debug, Clone)]
pub enum DownMsg {
    /// First transaction phase: "`β` tasks per time unit on offer".
    Proposal(Rat),
    /// One task's input file travelling down during the flow phase.
    Task(Arc<[u8]>),
    /// The flow phase is over; drain and report.
    Eof,
    /// Root only: generate `bunches` bunches of `payload_len`-byte tasks and
    /// route them with the local event-driven schedule.
    StartFlow {
        /// Number of root bunches (each of `Ψ_root` tasks) to generate.
        bunches: u64,
        /// Size of each task's payload in bytes.
        payload_len: usize,
    },
    /// Re-weighting control message addressed to `target` (routed down the
    /// tree hop by hop; FIFO channels order it before later proposals).
    Control {
        /// Node the change applies to.
        target: u32,
        /// The re-weighting itself.
        change: ControlMsg,
    },
    /// Tear the subtree down.
    Shutdown,
}

/// A re-weighting applied at a specific node.
#[derive(Debug, Clone, Copy)]
pub enum ControlMsg {
    /// The node's own processing time changed (CPU load, revised estimate).
    SetWeight(Weight),
    /// The link to child `child` changed (bandwidth drop).
    SetLink {
        /// The child whose incoming link changed.
        child: u32,
        /// The new communication time.
        c: Rat,
    },
}

/// Child-to-parent traffic.
#[derive(Debug, Clone, Copy)]
pub enum UpMsg {
    /// Second transaction phase: "`θ` tasks per time unit I could not take".
    Ack(Rat),
}

/// Out-of-band measurements sent to the driver (not part of the protocol).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Report {
    /// One node's view after a negotiation round.
    Negotiation {
        node: u32,
        alpha: Rat,
        eta_in: Rat,
        /// Proposals this node sent to children this round (one ack came
        /// back for each, so this also counts acks received).
        proposals_sent: u64,
        /// Encoded octets of everything this node put on the wire this
        /// round: its proposals down plus its own ack up.
        wire_bytes_sent: u64,
    },
    /// One node's counters after a flow phase.
    Flow { node: u32, computed: u64, forwarded: u64, bytes_processed: u64 },
}
