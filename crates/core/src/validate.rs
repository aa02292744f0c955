//! Whole-schedule validation: everything the paper's construction promises,
//! checked in one call.
//!
//! [`SteadyState::verify`](crate::SteadyState::verify) covers the *rates*
//! (conservation + single-port feasibility); this module additionally checks
//! the *derived schedule*: Lemma 1 period relationships, integer `φ/ψ/χ`
//! quantities, bunch composition, and intra-bunch order counts. Use it as a
//! gate before deploying a schedule produced by any path — solver, LP,
//! quantization, or hand-construction.

use crate::schedule::{EventDrivenSchedule, SlotAction};
use crate::steady_state::{SteadyState, SteadyStateViolation};
use bwfirst_platform::{NodeId, Platform};
use bwfirst_rational::Rat;
use std::fmt;

/// A defect found by [`validate_schedule`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleViolation {
    /// The underlying rates are infeasible.
    Rates(SteadyStateViolation),
    /// An active node is missing its schedule (or an inactive one has one).
    Coverage(NodeId),
    /// A period does not divide as Lemma 1 requires.
    Periods(NodeId, &'static str),
    /// A `φ/ψ/χ` quantity does not equal its rate × period product.
    Quantity(NodeId, &'static str),
    /// The bunch does not sum or its local order has wrong counts.
    Bunch(NodeId, &'static str),
}

impl fmt::Display for ScheduleViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleViolation::Rates(v) => write!(f, "rates: {v}"),
            ScheduleViolation::Coverage(n) => write!(f, "schedule coverage wrong at {n}"),
            ScheduleViolation::Periods(n, what) => {
                write!(f, "period relation `{what}` broken at {n}")
            }
            ScheduleViolation::Quantity(n, what) => write!(f, "quantity `{what}` wrong at {n}"),
            ScheduleViolation::Bunch(n, what) => write!(f, "bunch `{what}` wrong at {n}"),
        }
    }
}

impl std::error::Error for ScheduleViolation {}

/// Validates a full event-driven schedule against its platform and rates.
/// Returns every violation found (empty ⇒ the schedule is deployable).
#[must_use]
pub fn validate_schedule(
    platform: &Platform,
    ss: &SteadyState,
    schedule: &EventDrivenSchedule,
) -> Vec<ScheduleViolation> {
    let mut out = Vec::new();
    if let Err(v) = ss.verify(platform) {
        out.push(ScheduleViolation::Rates(v));
    }
    for id in platform.node_ids() {
        let active = ss.is_active(id);
        let sched = schedule.tree.get(id);
        if active != sched.is_some() {
            out.push(ScheduleViolation::Coverage(id));
            continue;
        }
        let Some(s) = sched else { continue };
        let i = id.index();

        // Period relationships.
        if s.t_omega % s.t_comp != 0 || s.t_omega % s.t_send != 0 {
            out.push(ScheduleViolation::Periods(id, "T^w = lcm(T^c, T^s)"));
        }
        if s.t_full % s.t_omega != 0 {
            out.push(ScheduleViolation::Periods(id, "T^w divides T_full"));
        }
        match (platform.parent(id), s.t_recv) {
            (None, None) => {}
            (Some(parent), Some(tr)) => {
                if let Some(ps) = schedule.tree.get(parent) {
                    if ps.t_send != tr {
                        out.push(ScheduleViolation::Periods(id, "T^r = parent T^s"));
                    }
                }
                if s.t_full % tr != 0 {
                    out.push(ScheduleViolation::Periods(id, "T^r divides T_full"));
                }
            }
            _ => out.push(ScheduleViolation::Periods(id, "root has no T^r")),
        }

        // Quantities.
        if Rat::from_int(s.psi_self) != ss.alpha[i] * Rat::from_int(s.t_omega) {
            out.push(ScheduleViolation::Quantity(id, "psi_self = alpha * T^w"));
        }
        for &(k, q) in &s.psi_children {
            if Rat::from_int(q) != ss.eta_in[k.index()] * Rat::from_int(s.t_omega) {
                out.push(ScheduleViolation::Quantity(id, "psi_i = eta_i * T^w"));
            }
        }
        if let (Some(phi), Some(tr)) = (s.phi_recv, s.t_recv) {
            if Rat::from_int(phi) != ss.eta_in[i] * Rat::from_int(tr) {
                out.push(ScheduleViolation::Quantity(id, "phi = eta_in * T^r"));
            }
        }
        if let Some(chi) = s.chi_in {
            if Rat::from_int(chi) != ss.eta_in[i] * Rat::from_int(s.t_full) {
                out.push(ScheduleViolation::Quantity(id, "chi = eta_in * T_full"));
            }
        }

        // Bunch composition and the local order.
        let q_sum: i128 = s.psi_self + s.psi_children.iter().map(|&(_, q)| q).sum::<i128>();
        if q_sum != s.bunch {
            out.push(ScheduleViolation::Bunch(id, "bunch = psi_self + sum(psi_i)"));
        }
        match schedule.local(id) {
            None => out.push(ScheduleViolation::Bunch(id, "local order missing")),
            Some(ls) => {
                if ls.actions.len() != s.bunch {
                    out.push(ScheduleViolation::Bunch(id, "order length = bunch"));
                }
                // Per destination, O(degree): a child's local index is its
                // rank in `psi_children` plus one.
                let mut computes = 0i128;
                let mut sends = vec![0i128; s.psi_children.len()];
                let mut misplaced = false;
                for d in ls.actions.destinations() {
                    match d.action {
                        SlotAction::Compute => computes += d.psi,
                        SlotAction::Send(k) => match d.index.checked_sub(1) {
                            Some(r) if s.psi_children.get(r).is_some_and(|c| c.0 == k) => {
                                sends[r] += d.psi;
                            }
                            _ => misplaced = true,
                        },
                    }
                }
                if computes != s.psi_self {
                    out.push(ScheduleViolation::Bunch(id, "order compute count = psi_self"));
                }
                let wrong = sends.iter().zip(&s.psi_children).filter(|(n, c)| **n != c.1).count();
                for _ in 0..wrong + usize::from(misplaced) {
                    out.push(ScheduleViolation::Bunch(id, "order send count = psi_i"));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bwfirst::bw_first;
    use crate::quantize::quantize;
    use crate::schedule::LocalScheduleKind;
    use bwfirst_platform::examples::example_tree;
    use bwfirst_platform::generators::{random_tree, RandomTreeConfig};
    use bwfirst_rational::rat;

    fn valid_setup() -> (Platform, SteadyState, EventDrivenSchedule) {
        let p = example_tree();
        let ss = SteadyState::from_solution(&bw_first(&p));
        let ev = EventDrivenSchedule::standard(&p, &ss).unwrap();
        (p, ss, ev)
    }

    #[test]
    fn solver_output_validates_cleanly() {
        let (p, ss, ev) = valid_setup();
        assert!(validate_schedule(&p, &ss, &ev).is_empty());
        // All local-order kinds validate.
        for kind in [LocalScheduleKind::AllAtOnce, LocalScheduleKind::RoundRobin] {
            let ev = EventDrivenSchedule::build(&p, &ss, kind).unwrap();
            assert!(validate_schedule(&p, &ss, &ev).is_empty());
        }
    }

    #[test]
    fn quantized_schedules_validate_cleanly() {
        for seed in 0..6u64 {
            let p = random_tree(&RandomTreeConfig { size: 20, seed, ..Default::default() });
            let ss = SteadyState::from_solution(&bw_first(&p));
            if !ss.throughput.is_positive() {
                continue;
            }
            let q = quantize(&p, &ss, 2520);
            if !q.throughput.is_positive() {
                continue;
            }
            let ev = EventDrivenSchedule::standard(&p, &q).unwrap();
            assert!(validate_schedule(&p, &q, &ev).is_empty(), "seed {seed}");
        }
    }

    #[test]
    fn detects_rate_tampering() {
        let (p, mut ss, ev) = valid_setup();
        ss.alpha[4] = rat(1, 2); // exceeds CPU and breaks conservation
        let violations = validate_schedule(&p, &ss, &ev);
        assert!(violations.iter().any(|v| matches!(v, ScheduleViolation::Rates(_))));
        // And the schedule quantities no longer match.
        assert!(violations.iter().any(|v| matches!(v, ScheduleViolation::Quantity(..))));
    }

    #[test]
    fn detects_schedule_tampering() {
        let (p, ss, mut ev) = valid_setup();
        // Corrupt the root's local order: turn a child's sends into computes.
        let root_local = ev.locals[0].as_mut().unwrap();
        let dest = root_local.actions.dests.iter_mut().find(|d| d.action != SlotAction::Compute);
        dest.unwrap().action = SlotAction::Compute;
        let violations = validate_schedule(&p, &ss, &ev);
        assert!(violations.iter().any(|v| matches!(v, ScheduleViolation::Bunch(NodeId(0), _))));
    }

    #[test]
    fn detects_mismatched_steady_state() {
        // Validate the example schedule against a *different* platform's
        // rates: quantities disagree everywhere.
        let (p, _, ev) = valid_setup();
        let mut other = SteadyState::from_solution(&bw_first(&p));
        other.alpha[0] = rat(1, 18);
        other.eta_in[0] = other.alpha[0]
            + p.children(p.root()).iter().map(|&k| other.eta_in[k.index()]).sum::<Rat>();
        other.throughput = other.eta_in[0];
        let violations = validate_schedule(&p, &other, &ev);
        assert!(!violations.is_empty());
    }
}
