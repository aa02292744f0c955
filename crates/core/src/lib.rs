//! The paper's algorithms: bandwidth-centric steady-state scheduling.
//!
//! This crate implements every algorithmic contribution of Banino
//! (IPDPS 2005) plus the baselines it builds on:
//!
//! * [`fork`] — **Proposition 1** (Beaumont et al.): the closed-form
//!   equivalent computing rate of a fork graph under the single-port,
//!   full-overlap model.
//! * [`bottom_up`](bottom_up()) — the baseline **bottom-up reduction**: repeatedly
//!   collapse leaf forks via Proposition 1 until a single node remains.
//! * [`bw_first`] — **Algorithm 1 / Proposition 2**: the depth-first
//!   transaction procedure. Proposals `β` travel down, acknowledgments `θ`
//!   travel up; only nodes used by the final schedule are visited. Produces
//!   a full [`BwFirstSolution`] with the transaction trace (Figure 4(b))
//!   and per-node rates (Figure 4(c)). The per-node rule is
//!   [`bwfirst::Round`], shared with the protocol's `NodeMachine`; the
//!   traversal is one explicit-stack walk over a [`bwfirst::TreeSource`].
//! * [`SteadyState`] — the per-node rational rates `η` with the conservation
//!   law of equation (1), plus feasibility checks.
//! * [`schedule`] — **Lemma 1** asynchronous periods, the **event-driven**
//!   quantities `ψ`/`Ψ` of Section 6.2, and the buffer-minimizing
//!   **interleaved local schedule** of Section 6.3 (Figure 4(d)); plus
//!   alternative local orders for ablation.
//! * [`startup`] — **Proposition 4**: the start-up bound
//!   `Σ_{i ∈ ancestors} T_i^ω`.
//! * [`quantize`] — feasible rate rounding onto a `1/G` grid, taming the
//!   lcm blow-up of unlucky rationals at a provably bounded throughput
//!   loss (an extension the paper leaves open).
//! * [`lazy`] — BW-First over lazily generated (conceptually infinite)
//!   trees, with converging lower/upper throughput bounds (Section 5's
//!   infinite-network remark): two depth-limited runs of the same walk.
//! * [`float`] — an `f64` fast path used by benches to price exact
//!   arithmetic.
//! * [`validate`] — one-call validation of a whole event-driven schedule
//!   (rates + periods + quantities + orders) before deployment.
//! * [`observe`] — converts solver outputs (transaction traces, reduction
//!   counts, period constructions) into `bwfirst-obs` spans and metrics.
//! * [`expectations`] — packages the solver's exact `η`/`α`/`Ψ` reference
//!   quantities for the runtime monitors in `bwfirst-sim`.
//!
//! The headline invariant — `bw_first` and `bottom_up` agree on every tree —
//! is property-tested in `tests/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bottom_up;
pub mod bwfirst;
pub mod expectations;
pub mod float;
pub mod fork;
pub mod lazy;
pub mod observe;
pub mod quantize;
pub mod schedule;
pub mod startup;
pub mod steady_state;
pub mod validate;

pub use bottom_up::{bottom_up, BottomUpOutcome};
pub use bwfirst::{bw_first, bw_first_with_lambda, BwFirstSolution, TraceEvent, Transaction};
pub use expectations::MonitorExpectations;
pub use fork::{fork_equivalent_rate, ForkChild, ForkReduction};
pub use schedule::{
    EventDrivenSchedule, LocalSchedule, LocalScheduleKind, NodeSchedule, ScheduleError, SlotAction,
    TreeSchedule,
};
pub use startup::startup_bounds;
pub use steady_state::SteadyState;
pub use validate::{validate_schedule, ScheduleViolation};
