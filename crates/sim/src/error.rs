//! Typed errors for the simulator executors.
//!
//! Rule **R2** (`clippy::{unwrap_used, expect_used, panic}`, denied in each
//! file; see `docs/ANALYSIS.md`) bans `unwrap`/`expect`/`panic!` from the
//! engine and event-loop files: a malformed schedule/platform pair
//! surfaces as a [`SimError`] from `simulate*` instead of a panic deep in
//! the event loop.

use bwfirst_core::ScheduleError;
use bwfirst_platform::NodeId;
use bwfirst_rational::Rat;
use std::fmt;

/// Everything an executor can reject about its inputs mid-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimError {
    /// Rebuilding a schedule failed (period lcm overflow).
    Schedule(ScheduleError),
    /// The root has no schedule: a zero-throughput platform has nothing to
    /// simulate.
    InactiveRoot,
    /// A task was routed to a node without a local schedule.
    NoSchedule(NodeId),
    /// The platform is missing the link weight into a node.
    MissingLink(NodeId),
    /// A `Compute` action landed on a switch (infinite processing time).
    SwitchComputes(NodeId),
    /// A schedule slot assigned work to a node with nothing pending — the
    /// schedule and the arrival stream disagree.
    EmptyQueue(NodeId),
    /// The platform's steady state has zero throughput; the executor cannot
    /// pace injection.
    NotSchedulable,
    /// Result returns were configured with a negative size ratio.
    NegativeReturnRatio,
    /// The run's times do not fit `i128` engine ticks: at `scale` ticks per
    /// time unit the horizon plus the longest step leaves `i128`, or
    /// (`scale: None`) the lcm of the duration denominators itself does.
    TickOverflow {
        /// Ticks per time unit, when the lcm fits `i128`.
        scale: Option<i128>,
        /// The run's horizon.
        horizon: Rat,
    },
    /// The time integral of a node's buffer occupancy left `i128` ticks.
    BufferOverflow(NodeId),
    /// A node's prefill stock `χ` exceeds the task counters (`u64`) or a
    /// buffer change (`i64`).
    ChiOverflow {
        /// The node.
        node: NodeId,
        /// Its exact `χ`.
        chi: i128,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Schedule(e) => write!(f, "schedule reconstruction failed: {e}"),
            SimError::InactiveRoot => write!(f, "root is inactive: nothing to simulate"),
            SimError::NoSchedule(n) => write!(f, "{n} received a task but has no schedule"),
            SimError::MissingLink(n) => write!(f, "platform has no link weight into {n}"),
            SimError::SwitchComputes(n) => write!(f, "{n} is a switch but was told to compute"),
            SimError::EmptyQueue(n) => write!(f, "{n} scheduled work with an empty queue"),
            SimError::NotSchedulable => write!(f, "steady state has zero throughput"),
            SimError::NegativeReturnRatio => write!(f, "result return ratio is negative"),
            SimError::TickOverflow { scale: Some(s), horizon } => write!(
                f,
                "engine time does not fit i128 ticks: horizon {horizon} at {s} ticks per time unit"
            ),
            SimError::TickOverflow { scale: None, horizon } => write!(
                f,
                "engine time does not fit i128 ticks: the lcm of the duration denominators \
                 leaves i128 (horizon {horizon})"
            ),
            SimError::BufferOverflow(n) => {
                write!(f, "the time integral of {n}'s buffer occupancy leaves i128")
            }
            SimError::ChiOverflow { node, chi } => {
                write!(f, "{node}'s prefill stock χ = {chi} tasks exceeds the task counters")
            }
        }
    }
}

impl std::error::Error for SimError {}

impl From<ScheduleError> for SimError {
    fn from(e: ScheduleError) -> SimError {
        SimError::Schedule(e)
    }
}
