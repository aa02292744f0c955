//! Typed errors for the protocol layer.
//!
//! Rule **R2** (`clippy::{unwrap_used, expect_used, panic}`, denied at the
//! crate root; see `docs/ANALYSIS.md`) bans `unwrap`/`expect`/`panic!` from
//! `proto/src`: every failure a node or the dispatcher can hit must
//! surface as a [`ProtoError`] instead of an unnamed panic. The variants map
//! one-to-one onto the invariants of the Section 5 transaction protocol.

use crate::wire::WireError;
use bwfirst_obs::json::{obj, Value};
use bwfirst_rational::Rat;
use std::fmt;

/// Everything that can go wrong at a node or in the dispatching session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The link between a node and its parent closed while the protocol
    /// still needed it.
    ChannelClosed {
        /// The node at the child end of the link.
        node: u32,
    },
    /// A node received a proposal while a round was already in flight.
    MidRound {
        /// The node that was mid-round.
        node: u32,
    },
    /// An acknowledgment arrived from a child the node was not awaiting.
    UnexpectedAck {
        /// The receiving node.
        node: u32,
        /// The child that acked out of turn.
        from: u32,
    },
    /// An acknowledgment violated `0 ≤ θ ≤ β` for the pending proposal.
    InvalidAck {
        /// The receiving node.
        node: u32,
        /// The acking child.
        from: u32,
        /// The refused amount it sent.
        theta: Rat,
        /// The proposal it was answering.
        beta: Rat,
    },
    /// A task was routed to a node whose negotiation assigned it no work.
    NoSchedule {
        /// The node without a schedule.
        node: u32,
    },
    /// A message referenced a child id this node does not have.
    UnknownChild {
        /// The parent doing the lookup.
        node: u32,
        /// The missing child id.
        child: u32,
    },
    /// A control message reached a node other than its target.
    UnroutableControl {
        /// The node it reached.
        node: u32,
        /// The node it is addressed to.
        target: u32,
    },
    /// The `lcm` of the local periods exceeded the `i128` range.
    PeriodOverflow {
        /// The node building its schedule.
        node: u32,
    },
    /// The platform is missing the link weight into a child.
    MissingLink {
        /// The child whose incoming link has no weight.
        child: u32,
    },
    /// `set_link` was asked to re-weight the (virtual) link into the root.
    NoParent {
        /// The root id.
        child: u32,
    },
    /// A transport (socket / framing) error from the wire layer.
    Transport(WireError),
}

impl ProtoError {
    /// A stable kebab-case tag for dashboards and post-mortems.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            ProtoError::ChannelClosed { .. } => "channel-closed",
            ProtoError::MidRound { .. } => "mid-round",
            ProtoError::UnexpectedAck { .. } => "unexpected-ack",
            ProtoError::InvalidAck { .. } => "invalid-ack",
            ProtoError::NoSchedule { .. } => "no-schedule",
            ProtoError::UnknownChild { .. } => "unknown-child",
            ProtoError::UnroutableControl { .. } => "unroutable-control",
            ProtoError::PeriodOverflow { .. } => "period-overflow",
            ProtoError::MissingLink { .. } => "missing-link",
            ProtoError::NoParent { .. } => "no-parent",
            ProtoError::Transport(_) => "transport",
        }
    }

    /// The node the error is attributed to, when one is known.
    #[must_use]
    pub fn node(&self) -> Option<u32> {
        match self {
            ProtoError::ChannelClosed { node, .. }
            | ProtoError::MidRound { node }
            | ProtoError::UnexpectedAck { node, .. }
            | ProtoError::InvalidAck { node, .. }
            | ProtoError::NoSchedule { node }
            | ProtoError::UnknownChild { node, .. }
            | ProtoError::UnroutableControl { node, .. }
            | ProtoError::PeriodOverflow { node } => Some(*node),
            ProtoError::MissingLink { child } | ProtoError::NoParent { child } => Some(*child),
            ProtoError::Transport(_) => None,
        }
    }

    /// The shared violation-object shape (`layer`/`kind`/`message`, plus
    /// `node` when attributable) used by `bwfirst-postmortem/1` artifacts —
    /// the same schema the simulator's runtime monitors emit, so protocol
    /// and simulator failures are tooled identically.
    #[must_use]
    pub fn to_violation_json(&self) -> Value {
        let mut members = vec![
            ("layer", Value::Str("proto".to_string())),
            ("kind", Value::Str(self.kind().to_string())),
            ("message", Value::Str(self.to_string())),
        ];
        if let Some(node) = self.node() {
            members.push(("node", Value::Int(i128::from(node))));
        }
        obj(members)
    }
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::ChannelClosed { node } => {
                write!(f, "P{node}: link to parent closed mid-protocol")
            }
            ProtoError::MidRound { node } => {
                write!(f, "P{node}: proposal received while a round is in flight")
            }
            ProtoError::UnexpectedAck { node, from } => {
                write!(f, "P{node}: unexpected ack from P{from}")
            }
            ProtoError::InvalidAck { node, from, theta, beta } => {
                write!(f, "P{node}: ack θ={theta} from P{from} outside [0, β={beta}]")
            }
            ProtoError::NoSchedule { node } => {
                write!(f, "P{node}: received a task but negotiated no work")
            }
            ProtoError::UnknownChild { node, child } => {
                write!(f, "P{node}: no child P{child}")
            }
            ProtoError::UnroutableControl { node, target } => {
                write!(f, "P{node}: control message for P{target} delivered here")
            }
            ProtoError::PeriodOverflow { node } => {
                write!(f, "P{node}: period lcm exceeds i128 range")
            }
            ProtoError::MissingLink { child } => {
                write!(f, "platform has no link weight into P{child}")
            }
            ProtoError::NoParent { child } => {
                write!(f, "P{child} has no parent link to re-weight")
            }
            ProtoError::Transport(e) => write!(f, "transport: {e}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<WireError> for ProtoError {
    fn from(e: WireError) -> ProtoError {
        ProtoError::Transport(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwfirst_rational::rat;

    #[test]
    fn violation_json_carries_the_shared_shape() {
        let e = ProtoError::InvalidAck { node: 3, from: 7, theta: rat(2, 1), beta: rat(1, 1) };
        let v = e.to_violation_json();
        assert_eq!(v["layer"].as_str(), Some("proto"));
        assert_eq!(v["kind"].as_str(), Some("invalid-ack"));
        assert!(v["message"].as_str().is_some_and(|m| m.contains("P3")));
        assert_eq!(v["node"].as_i128(), Some(3));
    }

    #[test]
    fn unattributable_errors_omit_the_node() {
        let e = ProtoError::Transport(WireError::Truncated);
        let v = e.to_violation_json();
        assert_eq!(v["kind"].as_str(), Some("transport"));
        assert!(v["node"].is_null());
        assert!(e.node().is_none());
    }
}
