//! Exhaustive model checking of the `BW-First` negotiation protocol.
//!
//! The checker runs the **shipped** dispatcher, [`ProtocolSession`], on
//! every rooted tree up to `max_nodes` nodes (see [`crate::trees`]) — no
//! modelled network, no re-implemented nodes — so every property verified
//! here is a property of the code that ships.
//!
//! One run per instance covers every delivery order. `BW-First` is strictly
//! sequential (Definition 1): a node proposes to one child and waits for
//! that child's ack before it sends anything else, so a round never has two
//! messages in flight, and the session's dispatcher carries the one it has
//! in an `Option<Hop>`. With nothing to reorder, a round's reachable states
//! form a single chain, and one run walks all of it. Per instance the
//! checker asserts:
//!
//! * **No protocol error** — `negotiate` returns `Ok`: the round ends with
//!   the root's ack to the virtual parent, and no node rejects a message.
//! * **Proposition 2** — exactly `2 × visited` negotiation messages are
//!   delivered (one proposal in, one ack out per visited node, the virtual
//!   parent edge included).
//! * **Agreement** — the negotiated throughput `t_max − θ_root` equals the
//!   centralized [`bottom_up`](fn@bottom_up) reduction and the sum of
//!   accepted rates `Σ α_i`; switches accept no work.
//! * **Solution equality** — the round's whole `BwFirstSolution` equals the
//!   centralized [`bw_first`]'s: the same visits in the same order, each
//!   with its parent, `λ`, `α` and `θ` (so the message trace, `t_max` and
//!   every rate agree too). The lattice repeats link times, so this pins the
//!   nodes' `(c, id)` child order against the solver's.
//! * **Determinism** — a second round on the same session returns an
//!   equal solution.

use crate::trees::{for_each_instance, Instance};
use bwfirst_core::{bottom_up, bw_first, BwFirstSolution, TraceEvent};
use bwfirst_obs::json::{obj, Value};
use bwfirst_obs::{Event, EventKind, FlightRecorder, Ts};
use bwfirst_platform::{NodeId, Weight};
use bwfirst_proto::{ProtoError, ProtocolSession};
use bwfirst_rational::Rat;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One property failure, with everything needed to replay it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The offending tree, pretty-printed.
    pub instance: String,
    /// The round's messages in delivery order; empty when the round ended
    /// in a protocol error.
    pub trace: Vec<String>,
    /// Which assertion failed.
    pub message: String,
}

impl Violation {
    /// The shared violation-object shape (`layer`/`kind`/`message`) used by
    /// `bwfirst-postmortem/1` artifacts, plus the offending instance.
    #[must_use]
    pub fn to_violation_json(&self) -> Value {
        obj(vec![
            ("layer", Value::from("proto")),
            ("kind", Value::from("model-check")),
            ("message", Value::from(self.message.as_str())),
            ("instance", Value::from(self.instance.as_str())),
        ])
    }

    /// Renders the counterexample as a `bwfirst-postmortem/1` artifact —
    /// the same format the simulator's runtime monitors dump — by replaying
    /// the delivery trace into a [`FlightRecorder`] as instant events (the
    /// timestamp is the 1-based step index; the model has no clock).
    #[must_use]
    pub fn to_postmortem(&self) -> Value {
        let mut flight = FlightRecorder::new(self.trace.len().max(1));
        for (k, step) in self.trace.iter().enumerate() {
            let ts = Ts::new(k as i128 + 1, 1);
            flight.push(Event::new(ts, 0, step.clone(), EventKind::Instant));
            flight.metrics.add("model.deliveries", 1);
        }
        flight.postmortem(&self.message, Value::Array(vec![self.to_violation_json()]))
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "VIOLATION: {}", self.message)?;
        write!(f, "{}", self.instance)?;
        writeln!(f, "message trace:")?;
        for (k, step) in self.trace.iter().enumerate() {
            writeln!(f, "  {:>3}. {step}", k + 1)?;
        }
        Ok(())
    }
}

/// Aggregate result of a model-checking run.
#[derive(Debug, Default)]
pub struct ModelReport {
    /// Platform instances checked (trees × lattice variants).
    pub instances: usize,
    /// Negotiation messages (proposals and acks, the virtual parent edge
    /// included) delivered by the instances that verified.
    pub messages: u64,
    /// Property failures (empty on a healthy protocol).
    pub violations: Vec<Violation>,
}

/// Checks every instance with at most `max_nodes` nodes, each independently
/// (so the report shows the smallest trees that fail). `max_violations`
/// caps the violations collected in the report; `threads` scoped workers
/// share the instances, each claiming the next unchecked one.
///
/// The report is identical for every thread count: results are merged in
/// instance order, so message counts and violations come out the same.
#[must_use]
pub fn check(max_nodes: usize, max_violations: usize, threads: usize) -> ModelReport {
    check_with(max_nodes, max_violations, threads, |inst| {
        check_instance(inst, &bw_first(&inst.platform))
    })
}

/// [`check`] with the per-instance check `check_one`, which tests replace.
fn check_with<F>(
    max_nodes: usize,
    max_violations: usize,
    threads: usize,
    check_one: F,
) -> ModelReport
where
    F: Fn(&Instance) -> Result<u64, Box<Violation>> + Sync,
{
    let mut instances: Vec<Instance> = Vec::new();
    let (count, _) = for_each_instance(max_nodes, |inst| {
        instances.push(inst.clone());
        true
    });
    // Each worker claims the next unchecked instance from a shared counter,
    // so one slow instance holds up no other; results keep their instance
    // index for the in-order merge.
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let k = next.fetch_add(1, Ordering::Relaxed);
            let Some(inst) = instances.get(k) else { return done };
            done.push((k, check_one(inst)));
        }
    };
    let width = threads.clamp(1, instances.len().max(1));
    let mut results = if width == 1 {
        work()
    } else {
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..width).map(|_| scope.spawn(work)).collect();
            let joined = workers.into_iter().map(std::thread::ScopedJoinHandle::join);
            joined.flat_map(|r| r.unwrap_or_else(|e| std::panic::resume_unwind(e))).collect()
        })
    };
    results.sort_unstable_by_key(|&(k, _)| k);
    let mut report = ModelReport { instances: count, ..ModelReport::default() };
    for (_, result) in results {
        match result {
            Ok(messages) => report.messages += messages,
            Err(v) if report.violations.len() < max_violations => report.violations.push(*v),
            Err(_) => {}
        }
    }
    report
}

/// Negotiates `inst` on a fresh in-memory [`ProtocolSession`] and checks
/// the round against the centralized `reference`; returns the number of
/// messages it delivered.
fn check_instance(inst: &Instance, reference: &BwFirstSolution) -> Result<u64, Box<Violation>> {
    let p = &inst.platform;
    let violation =
        |trace, message| Box::new(Violation { instance: inst.describe(), trace, message });
    let protocol_error = |e: ProtoError| violation(Vec::new(), format!("protocol error: {e}"));
    let mut session = ProtocolSession::spawn(p).map_err(protocol_error)?;
    let solution = session.negotiate().map_err(protocol_error)?.solution;
    let fail = |message| violation(render_trace(&solution, p.root()), message);

    // Proposition 2: 2 messages per visited node, virtual edge included.
    let messages = solution.message_count() + 2;
    let visited = solution.visit_count();
    if messages != 2 * visited {
        return Err(fail(format!(
            "Proposition 2 violated: {messages} messages delivered for {visited} visited nodes \
             (expected {})",
            2 * visited
        )));
    }

    // Agreement with the centralized bottom-up reduction.
    let throughput = solution.throughput();
    let expected = bottom_up(p).throughput;
    if throughput != expected {
        return Err(fail(format!("negotiated throughput {throughput} != bottom-up {expected}")));
    }
    let alpha_sum: Rat = solution.visits.iter().map(|v| v.alpha).sum();
    if alpha_sum != throughput {
        return Err(fail(format!(
            "sum of accepted rates {alpha_sum} != negotiated throughput {throughput}"
        )));
    }
    // Switches compute nothing, whatever they forward.
    for v in &solution.visits {
        if matches!(p.weight(v.node), Weight::Infinite) && !v.alpha.is_zero() {
            return Err(fail(format!("switch P{} accepted work alpha={}", v.node.0, v.alpha)));
        }
    }

    if let Some(diff) = first_difference(&solution, reference) {
        return Err(fail(diff));
    }

    // Determinism: the same session negotiates the same round again.
    match session.negotiate() {
        Ok(again) => match first_difference(&again.solution, &solution) {
            None => Ok(messages as u64),
            Some(diff) => Err(fail(format!("nondeterministic outcome: a second round: {diff}"))),
        },
        Err(e) => Err(fail(format!("protocol error in a second round: {e}"))),
    }
}

/// Names the first visit that differs between `got` and `want` (the visits
/// fix every rate, the message trace and the throughput); `None` if the
/// solutions are equal.
fn first_difference(got: &BwFirstSolution, want: &BwFirstSolution) -> Option<String> {
    if got == want {
        return None;
    }
    let k = (0..got.visits.len().max(want.visits.len()))
        .find(|&k| got.visits.get(k) != want.visits.get(k));
    let Some(k) = k else {
        return Some(format!("{} nodes, bw_first solved {}", got.nodes, want.nodes));
    };
    let visit = |s: &BwFirstSolution| {
        s.visits.get(k).map_or("nothing".to_owned(), |v| {
            let from = v.parent.map_or("the driver".to_owned(), |p| format!("P{}", p.0));
            format!(
                "P{} from {from}: lambda={} alpha={} theta={}",
                v.node.0, v.lambda, v.alpha, v.theta
            )
        })
    };
    Some(format!("visit {} is `{}`, bw_first has `{}`", k + 1, visit(got), visit(want)))
}

/// The messages of a round in delivery order, as a counterexample's trace:
/// the virtual parent's proposal to `root` first, the root's ack to it last.
fn render_trace(s: &BwFirstSolution, root: NodeId) -> Vec<String> {
    let mut trace = Vec::with_capacity(s.message_count() + 2);
    trace.push(format!("deliver Proposal(lambda={}) to P{}", s.t_max(), root.0));
    trace.extend(s.trace().into_iter().map(|ev| match ev {
        TraceEvent::Proposal { to, beta, .. } => {
            format!("deliver Proposal(lambda={beta}) to P{}", to.0)
        }
        TraceEvent::Ack { from, to, theta } => {
            format!("deliver Ack(theta={theta}) from P{} to P{}", from.0, to.0)
        }
    }));
    let theta = s.t_max() - s.throughput();
    trace.push(format!("deliver Ack(theta={theta}) from P{} to the driver", root.0));
    trace
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_trees_up_to_five_nodes_verify() {
        let report = check(5, 8, 1);
        assert_eq!(report.instances, 102); // (1+1+2+6+24) shapes × 3 variants
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.messages >= 2 * report.instances as u64);
    }

    /// A report as comparable values: instance count, message sum, and
    /// every violation (message, instance and trace) in order.
    fn whole(r: &ModelReport) -> (usize, u64, Vec<String>) {
        (r.instances, r.messages, r.violations.iter().map(ToString::to_string).collect())
    }

    #[test]
    fn parallel_check_reports_exactly_what_serial_does() {
        let serial = check(6, 8, 1);
        assert_eq!(serial.instances, 462); // (1+1+2+6+24+120) shapes × 3 variants
        assert!(serial.violations.is_empty(), "{:?}", serial.violations);
        for threads in [2, 3, 8] {
            assert_eq!(whole(&check(6, 8, threads)), whole(&serial), "{threads} workers");
        }
    }

    #[test]
    fn parallel_violations_keep_instance_order() {
        // A stand-in check that fails every instance with an odd node
        // count, so the merge order and the cap both show.
        let flaky = |inst: &Instance| -> Result<u64, Box<Violation>> {
            let n = inst.platform.len();
            if n % 2 == 1 {
                let (instance, trace) = (inst.describe(), vec![format!("{n} nodes")]);
                Err(Box::new(Violation { instance, trace, message: "odd".into() }))
            } else {
                Ok(n as u64)
            }
        };
        for cap in [usize::MAX, 8] {
            let serial = check_with(6, cap, 1, flaky);
            assert_eq!(serial.violations.len(), if cap == 8 { 8 } else { 3 * (1 + 2 + 24) });
            for threads in [2, 3, 8] {
                let parallel = check_with(6, cap, threads, flaky);
                assert_eq!(whole(&parallel), whole(&serial), "{threads} workers, cap {cap}");
            }
        }
    }

    #[test]
    fn a_healthy_instance_verifies() {
        let inst = crate::trees::Instance::build(&[0, 0], 0, 0);
        let messages = check_instance(&inst, &bw_first(&inst.platform)).expect("healthy");
        assert_eq!(messages, 2 * bw_first(&inst.platform).visit_count() as u64);
    }

    #[test]
    fn per_node_disagreement_with_bw_first_is_reported() {
        let inst = crate::trees::Instance::build(&[0, 0], 0, 0);
        let mut reference = bw_first(&inst.platform);
        reference.visits[1].alpha += Rat::ONE;
        let err = check_instance(&inst, &reference).expect_err("cooked reference");
        assert!(err.message.starts_with("visit 2 is `P1 from P0"), "{}", err.message);
        assert_eq!(err.to_violation_json()["kind"].as_str(), Some("model-check"));
        assert!(err.trace[0].starts_with("deliver Proposal(lambda="), "{:?}", err.trace);
        assert!(err.trace.last().is_some_and(|s| s.ends_with("from P0 to the driver")));
    }

    #[test]
    fn the_first_differing_proposal_is_named() {
        let inst = crate::trees::Instance::build(&[0, 0], 0, 0);
        let mut reference = bw_first(&inst.platform);
        reference.visits[1].lambda += Rat::ONE;
        let err = check_instance(&inst, &reference).expect_err("cooked reference");
        assert!(err.message.starts_with("visit 2 is `P1 from P0: lambda="), "{}", err.message);
    }

    #[test]
    fn violations_render_with_tree_and_trace() {
        let v = Violation {
            instance: "tree n=2 variant=0 parents=[0]\n".into(),
            trace: vec!["deliver Proposal(lambda=2) to P0".into()],
            message: "demo".into(),
        };
        let text = format!("{v}");
        assert!(text.contains("VIOLATION: demo"));
        assert!(text.contains("1. deliver Proposal"));
    }

    #[test]
    fn counterexamples_dump_the_shared_postmortem_artifact() {
        let v = Violation {
            instance: "tree n=2 variant=0 parents=[0]\n".into(),
            trace: vec![
                "deliver Proposal(lambda=2) to P0".into(),
                "deliver Ack(theta=0) from P0 to the driver".into(),
            ],
            message: "demo".into(),
        };
        let dump = v.to_postmortem();
        assert_eq!(dump["format"].as_str(), Some("bwfirst-postmortem/1"));
        assert_eq!(dump["reason"].as_str(), Some("demo"));
        let viol = dump["violations"].as_array().expect("violations array");
        assert_eq!(viol[0]["layer"].as_str(), Some("proto"));
        assert_eq!(viol[0]["kind"].as_str(), Some("model-check"));
        let events = dump["events"].as_array().expect("events array");
        assert_eq!(events.len(), 2);
        assert_eq!(dump["dropped"].as_i128(), Some(0));
    }
}
