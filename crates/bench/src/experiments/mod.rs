//! The per-experiment implementations (see DESIGN.md's experiment index).
//!
//! Every function returns a printable report; the `paper_experiments` binary
//! dispatches on experiment ids (`e1`…`e12`).

mod figures;
mod oracle;
mod overlays;
mod protocols;
mod scaling;

pub use figures::{e2_transactions, e3_rates, e4_local_schedules, e5_simulation};
pub use oracle::e14_lp_oracle;
pub use overlays::e17_overlay_search;
pub(crate) use protocols::section9_runs;
pub use protocols::{
    e11_distributed_protocol, e13_makespan, e16_clocked_vs_event, e18_dynamic_adaptation,
    e19_returns_on_trees, e7_protocol_comparison, e8_result_return,
};
pub use scaling::{
    e10_infinite_trees, e12_startup_bounds, e15_quantization, e1_fork_equivalence, e6_visits,
    e9_schedule_compactness,
};

/// All experiment ids in order, with a one-line description.
pub const ALL: [(&str, &str); 19] = [
    ("e1", "Proposition 1 / Figure 2: fork reduction equals BW-First on forks"),
    ("e2", "Figure 4(b): transaction trace on the example tree"),
    ("e3", "Figure 4(c): per-node steady-state rates"),
    ("e4", "Figure 4(d): compact event-driven local schedules"),
    ("e5", "Figure 5 + Section 8 numbers: simulated run with Gantt chart"),
    ("e6", "Section 5: BW-First visits vs bottom-up reductions under bottlenecks"),
    ("e7", "Sections 2/7: event-driven vs demand-driven protocols"),
    ("e8", "Section 9: result-return counter-example"),
    ("e9", "Section 6: schedule compactness and local-order ablation"),
    ("e10", "Section 5: infinite trees via converging bounds"),
    ("e11", "Section 5: distributed protocol cost (messages, latency)"),
    ("e12", "Proposition 4: start-up bounds vs measured entry"),
    ("e13", "Section 2: makespan heuristic vs the N/rate lower bound"),
    ("e14", "LP oracle: the steady-state linear program equals BW-First"),
    ("e15", "rate quantization: compact periods at bounded throughput loss"),
    ("e16", "Lemma 1 clocked schedule vs clockless event-driven start-up"),
    ("e17", "overlay-tree search on physical networks (topological studies)"),
    ("e18", "platform dynamics: stale vs renegotiated schedules in simulated time"),
    ("e19", "result returns on whole trees: the Section 9 open problem, quantified"),
];

/// Runs one experiment by id.
#[must_use]
pub fn run(id: &str) -> Option<String> {
    Some(match id {
        "e1" => e1_fork_equivalence(),
        "e2" => e2_transactions(),
        "e3" => e3_rates(),
        "e4" => e4_local_schedules(),
        "e5" => e5_simulation(),
        "e6" => e6_visits(),
        "e7" => e7_protocol_comparison(),
        "e8" => e8_result_return(),
        "e9" => e9_schedule_compactness(),
        "e10" => e10_infinite_trees(),
        "e11" => e11_distributed_protocol(),
        "e12" => e12_startup_bounds(),
        "e13" => e13_makespan(),
        "e14" => e14_lp_oracle(),
        "e15" => e15_quantization(),
        "e16" => e16_clocked_vs_event(),
        "e17" => e17_overlay_search(),
        "e18" => e18_dynamic_adaptation(),
        "e19" => e19_returns_on_trees(),
        _ => return None,
    })
}
