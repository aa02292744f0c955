//! Makespan studies: finite workloads under the steady-state schedule.
//!
//! Makespan minimization on heterogeneous trees is NP-hard (Dutot, cited in
//! Section 2), and the paper argues its scheduling strategy "is a good
//! heuristic candidate to solve the problem studied by Dutot, since we are
//! able to obtain the optimal platform throughput using quick start-up and
//! wind-down phases". This module makes that claim measurable:
//!
//! * [`lower_bound`] — no schedule can finish `N` tasks faster than
//!   `N/ρ*`, where `ρ*` is the optimal steady-state throughput (the
//!   time-average of any finite schedule is a feasible steady state);
//! * [`event_driven_makespan`] — the measured completion time of `N` tasks
//!   under the paper's event-driven schedule (start-up + steady phase +
//!   wind-down), found by simulation with geometric horizon growth;
//! * [`demand_driven_makespan`] — the same workload under the
//!   demand-driven baseline.
//!
//! Experiment E13 reports the heuristic's makespan as a ratio of the lower
//! bound: close to 1 from modest `N` on, exactly the paper's argument.

use crate::demand_driven::{self, DemandConfig};
use crate::engine::{SimConfig, SimReport};
use crate::event_driven;
use bwfirst_core::schedule::EventDrivenSchedule;
use bwfirst_core::SteadyState;
use bwfirst_platform::Platform;
use bwfirst_rational::{rat, Rat};

/// `N/ρ*`: the steady-state lower bound on any schedule's makespan.
#[must_use]
pub fn lower_bound(ss: &SteadyState, tasks: u64) -> Rat {
    assert!(ss.throughput.is_positive(), "platform must be able to compute");
    Rat::from(tasks as usize) / ss.throughput
}

/// Runs a simulation with geometrically growing horizon until all `tasks`
/// complete, returning the final report (completion guaranteed).
fn run_until_done<F>(tasks: u64, first_guess: Rat, mut run: F) -> SimReport
where
    F: FnMut(&SimConfig) -> SimReport,
{
    let mut horizon = first_guess;
    loop {
        let cfg = SimConfig {
            total_tasks: Some(tasks),
            record_gantt: false,
            ..SimConfig::to_horizon(horizon)
        };
        let rep = run(&cfg);
        if rep.total_computed() >= tasks {
            return rep;
        }
        horizon *= Rat::TWO;
    }
}

/// Measured makespan of `tasks` under the event-driven schedule.
#[must_use]
pub fn event_driven_makespan(
    platform: &Platform,
    ss: &SteadyState,
    schedule: &EventDrivenSchedule,
    tasks: u64,
) -> Rat {
    let guess = lower_bound(ss, tasks) * rat(2, 1) + rat(64, 1);
    let rep = run_until_done(tasks, guess, |cfg| {
        event_driven::simulate(platform, schedule, cfg).expect("valid schedule")
    });
    rep.last_completion().expect("tasks completed")
}

/// Measured makespan of `tasks` under the demand-driven baseline.
#[must_use]
pub fn demand_driven_makespan(
    platform: &Platform,
    ss: &SteadyState,
    demand: DemandConfig,
    tasks: u64,
) -> Rat {
    let guess = lower_bound(ss, tasks) * rat(4, 1) + rat(256, 1);
    let rep = run_until_done(tasks, guess, |cfg| demand_driven::simulate(platform, demand, cfg));
    rep.last_completion().expect("tasks completed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwfirst_core::bw_first;
    use bwfirst_platform::examples::example_tree;

    fn setup() -> (Platform, SteadyState, EventDrivenSchedule) {
        let p = example_tree();
        let ss = SteadyState::from_solution(&bw_first(&p));
        let ev = EventDrivenSchedule::standard(&p, &ss).unwrap();
        (p, ss, ev)
    }

    #[test]
    fn makespan_exceeds_lower_bound() {
        let (p, ss, ev) = setup();
        for n in [10u64, 100] {
            let lb = lower_bound(&ss, n);
            let mk = event_driven_makespan(&p, &ss, &ev, n);
            assert!(mk >= lb, "makespan {mk} below bound {lb}");
        }
    }

    #[test]
    fn ratio_approaches_one_with_more_tasks() {
        let (p, ss, ev) = setup();
        let ratio =
            |n: u64| (event_driven_makespan(&p, &ss, &ev, n) / lower_bound(&ss, n)).to_f64();
        let small = ratio(20);
        let large = ratio(500);
        assert!(large < small, "ratio must shrink: {small} -> {large}");
        assert!(large < 1.10, "500-task makespan within 10% of the bound, got {large}");
    }

    #[test]
    fn demand_driven_never_faster_than_bound() {
        let (p, ss, _) = setup();
        let n = 100;
        let mk = demand_driven_makespan(&p, &ss, DemandConfig::default(), n);
        assert!(mk >= lower_bound(&ss, n));
    }

    #[test]
    fn horizon_growth_recovers_from_bad_guess() {
        // A tiny first guess forces at least one horizon doubling.
        let (p, ss, ev) = setup();
        let rep = run_until_done(50, bwfirst_rational::rat(1, 1), |cfg| {
            event_driven::simulate(&p, &ev, cfg).unwrap()
        });
        assert_eq!(rep.total_computed(), 50);
        let _ = ss;
    }
}
