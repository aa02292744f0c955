//! Bridges solver outputs into `bwfirst-obs` events and metrics.
//!
//! The solvers themselves stay observation-free — they already return full
//! accounts of their work (the [`BwFirstSolution`] visits, the
//! [`TreeSchedule`] periods) — so these functions convert those accounts
//! into trace spans and counters after the fact. `bw_first`'s DFS trace nests like parentheses, which is
//! exactly a span tree: every proposal opens a `visit P<i>` span on the
//! child's track and the matching acknowledgment closes it.

use crate::bwfirst::{BwFirstSolution, TraceEvent};
use crate::schedule::TreeSchedule;
use bwfirst_obs::{Arg, Event, EventKind, MemoryRecorder, Ts};

/// Records a `BW-First` run: one `visit P<i>` span per visited non-root
/// node (timestamps are the message's position in the wire trace), plus the
/// `core.bwfirst.*` counters — proposals, acks, visited, pruned.
pub fn record_negotiation(sol: &BwFirstSolution, rec: &mut MemoryRecorder) {
    let trace = sol.trace();
    for (k, ev) in trace.iter().enumerate() {
        let ts = Ts::new(k as i128, 1);
        match *ev {
            TraceEvent::Proposal { from, to, beta } => {
                rec.event(
                    Event::new(ts, to.0, format!("visit P{}", to.0), EventKind::Begin)
                        .arg("from", Arg::Int(i128::from(from.0)))
                        .arg("beta", Arg::Rat(beta.numer(), beta.denom())),
                );
                rec.add("core.bwfirst.proposals", 1);
            }
            TraceEvent::Ack { from, to: _, theta } => {
                rec.event(
                    Event::new(ts, from.0, format!("visit P{}", from.0), EventKind::End)
                        .arg("theta", Arg::Rat(theta.numer(), theta.denom())),
                );
                rec.add("core.bwfirst.acks", 1);
            }
        }
    }
    let (t_max, tp) = (sol.t_max(), sol.throughput());
    rec.event(
        Event::new(Ts::new(trace.len() as i128, 1), 0, "bw_first", EventKind::Instant)
            .arg("t_max", Arg::Rat(t_max.numer(), t_max.denom()))
            .arg("throughput", Arg::Rat(tp.numer(), tp.denom())),
    );
    rec.add("core.bwfirst.visited", sol.visit_count() as i128);
    rec.add("core.bwfirst.pruned", (sol.nodes - sol.visit_count()) as i128);
}

/// Records the Lemma 1 / Section 6.2 period construction: one instant event
/// per active node carrying its periods and quantities, histograms over the
/// lcm sizes (`core.schedule.t_omega`, `core.schedule.t_full`) and bunch
/// sizes (`core.schedule.bunch`), and the active-node count.
pub fn record_schedule(sched: &TreeSchedule, rec: &mut MemoryRecorder) {
    for ns in sched.iter() {
        rec.event(
            Event::new(Ts::ZERO, ns.node.0, format!("schedule P{}", ns.node.0), EventKind::Instant)
                .arg("t_comp", Arg::Int(ns.t_comp))
                .arg("t_send", Arg::Int(ns.t_send))
                .arg("t_omega", Arg::Int(ns.t_omega))
                .arg("t_full", Arg::Int(ns.t_full))
                .arg("psi_self", Arg::Int(ns.psi_self))
                .arg("bunch", Arg::Int(ns.bunch)),
        );
        #[expect(clippy::disallowed_types, reason = "histogram export is the quantize boundary")]
        {
            rec.observe("core.schedule.t_omega", ns.t_omega as f64);
            rec.observe("core.schedule.t_full", ns.t_full as f64);
            rec.observe("core.schedule.bunch", ns.bunch as f64);
        }
        rec.add("core.schedule.active_nodes", 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bw_first;
    use crate::steady_state::SteadyState;
    use bwfirst_platform::examples::example_tree;

    #[test]
    fn negotiation_spans_nest_and_count() {
        let p = example_tree();
        let sol = bw_first(&p);
        let mut rec = MemoryRecorder::new();
        record_negotiation(&sol, &mut rec);
        let begins = rec.events.iter().filter(|e| e.kind == EventKind::Begin).count();
        let ends = rec.events.iter().filter(|e| e.kind == EventKind::End).count();
        assert_eq!(begins, 7, "one span per transaction");
        assert_eq!(begins, ends);
        assert_eq!(rec.metrics.counter("core.bwfirst.proposals"), 7);
        assert_eq!(rec.metrics.counter("core.bwfirst.acks"), 7);
        assert_eq!(rec.metrics.counter("core.bwfirst.visited"), 8);
        assert_eq!(rec.metrics.counter("core.bwfirst.pruned"), 4);
        // Span boundaries pair on the child's track.
        let p3: Vec<_> = rec.events.iter().filter(|e| e.track == 3).collect();
        assert_eq!(p3.len(), 2);
        assert_eq!(p3[0].kind, EventKind::Begin);
        assert_eq!(p3[1].kind, EventKind::End);
        assert!(p3[0].ts < p3[1].ts);
    }

    #[test]
    fn schedule_periods_and_bunches() {
        let p = example_tree();
        let ss = SteadyState::from_solution(&bw_first(&p));
        let sched = TreeSchedule::build(&p, &ss).unwrap();
        let mut rec = MemoryRecorder::new();
        record_schedule(&sched, &mut rec);
        assert_eq!(rec.metrics.counter("core.schedule.active_nodes"), 8);
        assert_eq!(rec.events.len(), 8);
        // The root's bunch is Ψ = 10 (it computes 1 of every 10 injected).
        assert_eq!(rec.metrics.histograms["core.schedule.bunch"].max, 10.0);
    }
}
