//! The per-experiment implementations (see DESIGN.md's experiment index).
//!
//! Each experiment renders a printable report; the `paper_experiments`
//! binary runs them by id (`e1`…`e19`, see [`ALL`]). The experiments whose
//! numbers `paper_output/records.json` publishes (E5, E6, E8, E13, E15)
//! compute a typed result first, so `records::collect` reads those numbers
//! off the same computation the report prints.

use bwfirst_rational::Rat;
use bwfirst_sim::SimConfig;

mod figures;
mod oracle;
mod overlays;
mod protocols;
mod scaling;

pub use figures::{e2_transactions, e3_rates, e4_local_schedules, e5_report, figure5, Figure5};
pub use oracle::e14_lp_oracle;
pub use overlays::e17_overlay_search;
pub use protocols::{
    e11_distributed_protocol, e13_report, e16_clocked_vs_event, e18_dynamic_adaptation,
    e19_returns_on_trees, e7_protocol_comparison, e8_report, makespans, section9_rates,
    MakespanRow, Section9Rates,
};
pub use scaling::{
    e10_infinite_trees, e12_startup_bounds, e15_report, e1_fork_equivalence, e6_report,
    e9_schedule_compactness, quantization_sweep, visit_sweep, QuantizeRow, VisitRow,
};

/// A run to `horizon` that injects throughout and records no Gantt trace.
fn sim_to(horizon: Rat) -> SimConfig {
    SimConfig { record_gantt: false, ..SimConfig::to_horizon(horizon) }
}

/// Runs one experiment and renders its report.
pub type Report = fn() -> String;

/// Every experiment in order: its id, a one-line description and its
/// [`Report`].
pub const ALL: [(&str, &str, Report); 19] = [
    (
        "e1",
        "Proposition 1 / Figure 2: fork reduction equals BW-First on forks",
        e1_fork_equivalence,
    ),
    ("e2", "Figure 4(b): transaction trace on the example tree", e2_transactions),
    ("e3", "Figure 4(c): per-node steady-state rates", e3_rates),
    ("e4", "Figure 4(d): compact event-driven local schedules", e4_local_schedules),
    (
        "e5",
        "Figure 5 + Section 8 numbers: simulated run with Gantt chart",
        || e5_report(&figure5()),
    ),
    ("e6", "Section 5: BW-First visits vs bottom-up reductions under bottlenecks", || {
        e6_report(&visit_sweep())
    }),
    ("e7", "Sections 2/7: event-driven vs demand-driven protocols", e7_protocol_comparison),
    ("e8", "Section 9: result-return counter-example", || e8_report(&section9_rates())),
    ("e9", "Section 6: schedule compactness and local-order ablation", e9_schedule_compactness),
    ("e10", "Section 5: infinite trees via converging bounds", e10_infinite_trees),
    ("e11", "Section 5: distributed protocol cost (messages, latency)", e11_distributed_protocol),
    ("e12", "Proposition 4: start-up bounds vs measured entry", e12_startup_bounds),
    ("e13", "Section 2: makespan heuristic vs the N/rate lower bound", || e13_report(&makespans())),
    ("e14", "LP oracle: the steady-state linear program equals BW-First", e14_lp_oracle),
    ("e15", "rate quantization: compact periods at bounded throughput loss", || {
        e15_report(&quantization_sweep())
    }),
    ("e16", "Lemma 1 clocked schedule vs clockless event-driven start-up", e16_clocked_vs_event),
    ("e17", "overlay-tree search on physical networks (topological studies)", e17_overlay_search),
    (
        "e18",
        "platform dynamics: stale vs renegotiated schedules in simulated time",
        e18_dynamic_adaptation,
    ),
    (
        "e19",
        "result returns on whole trees: the Section 9 open problem, quantified",
        e19_returns_on_trees,
    ),
];

/// Runs one experiment by id.
#[must_use]
pub fn run(id: &str) -> Option<String> {
    ALL.iter().find(|&&(key, ..)| key == id).map(|&(.., report)| report())
}
