//! Wire messages of the distributed protocol (public so the [`crate::wire`]
//! codec can be used standalone).
//!
//! The negotiation phase uses exactly the paper's two message kinds, each
//! carrying a single rational number (Definition 1); everything else is
//! harness traffic (re-weighting, task payloads).

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
    /// Re-weighting control message addressed to `target` (relayed down the
    /// root→target path hop by hop, ahead of later proposals).
    Control {
        /// Node the change applies to.
        target: u32,
        /// The re-weighting itself.
        change: ControlMsg,
    },
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
