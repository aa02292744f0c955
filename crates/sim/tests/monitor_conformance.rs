//! The online monitor against every executor on the Figure 2 tree:
//! clean runs must be violation-free (with the windowed rates converging to
//! the solver's exact `η_i`/`α_i` where expectations apply), and injected
//! faults must surface as typed violations with a usable flight dump.

use bwfirst_core::expectations::MonitorExpectations;
use bwfirst_core::schedule::EventDrivenSchedule;
use bwfirst_core::{bw_first, SteadyState};
use bwfirst_platform::examples::example_tree;
use bwfirst_platform::{NodeId, Platform};
use bwfirst_rational::{rat, Rat};
use bwfirst_sim::clocked::{self, ClockedConfig};
use bwfirst_sim::demand_driven::{self, DemandConfig};
use bwfirst_sim::event_driven::{simulate_dynamic_probed, AdaptPolicy};
use bwfirst_sim::monitor::{MonitorConfig, MonitorProbe, MonitorReport, MonitorViolation};
use bwfirst_sim::returns::{simulate_with_returns_probed, ReturnConfig};
use bwfirst_sim::{event_driven, Probe, SegmentKind, SimConfig, TickScale};

const PERIOD: i128 = 36; // synchronous period of the example tree
const DEFAULT_CAPACITY: usize = 256; // `MonitorConfig::new`'s flight ring

fn cfg(periods: i128) -> SimConfig {
    SimConfig {
        horizon: rat(PERIOD * periods, 1),
        stop_injection_at: None,
        total_tasks: None,
        record_gantt: false,
        exact_queue: false,
        seed: 0,
    }
}

fn setup() -> (Platform, SteadyState, EventDrivenSchedule, MonitorExpectations) {
    let p = example_tree();
    let ss = SteadyState::from_solution(&bw_first(&p));
    let ev = EventDrivenSchedule::standard(&p, &ss).unwrap();
    let exp = MonitorExpectations::build(&p, &ss, &ev.tree).unwrap();
    (p, ss, ev, exp)
}

fn strict_monitor(p: &Platform, exp: MonitorExpectations) -> MonitorProbe {
    MonitorProbe::new(p.len(), p.root(), MonitorConfig::new(rat(PERIOD, 1)).with_expectations(exp))
}

#[test]
fn event_driven_fig2_is_violation_free_and_rates_converge() {
    let (p, _ss, ev, exp) = setup();
    let mut mon = strict_monitor(&p, exp.clone());
    event_driven::simulate_probed(&p, &ev, &cfg(10), &mut mon).unwrap();
    let rep = mon.finish();
    assert!(rep.ok(), "violations: {:?}", rep.violations);
    assert!(rep.windows >= 8, "expected most windows to close, got {}", rep.windows);
    assert_eq!(rep.late_events, 0);
    // Steady windows carry exactly Ψ·W/T^ω = 40 root actions and the tree
    // computes throughput·W = 40 tasks per window; per-node compute counts
    // equal α_i·W exactly (the monitor checked this, spot-check one here).
    let steady: Vec<_> = rep.snapshots.iter().filter(|s| !s.partial && s.window >= 2).collect();
    assert!(!steady.is_empty());
    for s in steady {
        assert_eq!(s.computed, 40, "window {}", s.window);
        assert_eq!(s.root_actions, 40, "window {}", s.window);
        for (i, &c) in s.node_computed.iter().enumerate() {
            assert_eq!(Rat::from(c as usize), exp.alpha[i] * rat(PERIOD, 1), "node {i}");
        }
    }
}

#[test]
fn clocked_fig2_is_violation_free_under_expectations() {
    let (p, _ss, ev, exp) = setup();
    let mut mon = strict_monitor(&p, exp);
    clocked::simulate_probed(&p, &ev.tree, ClockedConfig::default(), &cfg(10), &mut mon).unwrap();
    let rep = mon.finish();
    assert!(rep.ok(), "violations: {:?}", rep.violations);
    assert!(rep.windows >= 8);
}

#[test]
fn demand_driven_fig2_is_structurally_clean() {
    let (p, _ss, _ev, _exp) = setup();
    for demand in [DemandConfig::default(), DemandConfig::interruptible()] {
        // No expectations (the greedy protocol's rates differ by design) and
        // relaxed conservation (its send segments surface at transfer end).
        let mon_cfg = MonitorConfig::new(rat(PERIOD, 1)).relaxed();
        let mut mon = MonitorProbe::new(p.len(), p.root(), mon_cfg);
        let _ = demand_driven::simulate_probed(&p, demand, &cfg(10), &mut mon);
        let rep = mon.finish();
        assert!(rep.ok(), "interruptible={}: {:?}", demand.interruptible, rep.violations);
        assert!(!rep.snapshots.is_empty());
    }
}

#[test]
fn dynamic_fig2_without_changes_is_violation_free() {
    let (p, _ss, _ev, exp) = setup();
    // The dynamic executor replays the same event-driven schedule, so the
    // full strict monitor (expectations included) must stay silent.
    let mut mon = strict_monitor(&p, exp);
    simulate_dynamic_probed(&p, &[], AdaptPolicy::Stale, &cfg(10), &mut mon).unwrap();
    let rep = mon.finish();
    assert!(rep.ok(), "violations: {:?}", rep.violations);
    assert!(rep.windows >= 8);
}

#[test]
fn returns_fig2_is_structurally_clean() {
    let (p, _ss, ev, _exp) = setup();
    // Upward result transfers share the ports with task forwards; the
    // structural checks (single port, pairing, conservation) must hold.
    for ratio in [Rat::ZERO, rat(1, 2)] {
        let mon_cfg = MonitorConfig::new(rat(PERIOD, 1)).relaxed();
        let mut mon = MonitorProbe::new(p.len(), p.root(), mon_cfg);
        let ret = ReturnConfig { return_ratio: ratio };
        simulate_with_returns_probed(&p, &ev, ret, &cfg(10), &mut mon).unwrap();
        let rep = mon.finish();
        assert!(rep.ok(), "ratio {ratio}: {:?}", rep.violations);
        assert!(rep.windows >= 8);
    }
}

/// Forwards a real execution into the monitor but duplicates one send as an
/// overlapping copy — the "corrupted schedule" of a node double-booking its
/// port. The monitor counts half ticks, so the copy can start mid-transfer.
struct DoubleSendInjector {
    inner: MonitorProbe,
    sends: u32,
}

impl Probe for DoubleSendInjector {
    fn start(&mut self, scale: TickScale) {
        self.inner.start(TickScale::new(2 * scale.get()).unwrap());
    }

    fn segment(&mut self, node: NodeId, kind: SegmentKind, start: i128, end: i128) {
        let (start, end) = (2 * start, 2 * end);
        self.inner.segment(node, kind, start, end);
        if let SegmentKind::Send(child) = kind {
            self.sends += 1;
            if self.sends == 5 && end > start {
                let mid = (start + end) / 2;
                let shift = end - start;
                self.inner.segment(node, SegmentKind::Send(child), mid, mid + shift);
                self.inner.segment(child, SegmentKind::Receive, mid, mid + shift);
            }
        }
    }

    fn queue_depth(&mut self, t: i128, depth: usize) {
        self.inner.queue_depth(2 * t, depth);
    }

    fn buffer(&mut self, node: NodeId, t: i128, size: u64) {
        self.inner.buffer(node, 2 * t, size);
    }
}

fn double_send_report(flight_capacity: usize) -> MonitorReport {
    let (p, _ss, ev, _exp) = setup();
    let mut mon_cfg = MonitorConfig::new(rat(PERIOD, 1));
    mon_cfg.flight_capacity = flight_capacity;
    let mon = MonitorProbe::new(p.len(), p.root(), mon_cfg);
    let mut probe = DoubleSendInjector { inner: mon, sends: 0 };
    event_driven::simulate_probed(&p, &ev, &cfg(4), &mut probe).unwrap();
    probe.inner.finish()
}

#[test]
fn injected_double_send_trips_the_single_port_monitor() {
    let rep = double_send_report(DEFAULT_CAPACITY);
    assert!(!rep.ok());
    assert!(
        rep.violations.iter().any(|v| matches!(v, MonitorViolation::SinglePort { lane: 2, .. })),
        "expected a send-lane single-port violation, got {:?}",
        rep.violations
    );
    let dump = rep.postmortem().expect("violations produce a post-mortem");
    assert!(!rep.flight.is_empty());
    assert_eq!(dump["format"].as_str(), Some("bwfirst-postmortem/1"));
    assert!(dump["violations"].as_array().is_some_and(|v| !v.is_empty()));
    assert!(dump["events"].as_array().is_some_and(|v| !v.is_empty()));
}

/// Loses one task mid-run: a non-root node drains its buffer for a compute
/// that never happens (the segment is swallowed), so the drained count
/// permanently exceeds the activity the monitor can account for.
struct TaskLossInjector {
    inner: MonitorProbe,
    computes: u32,
}

impl Probe for TaskLossInjector {
    fn start(&mut self, scale: TickScale) {
        self.inner.start(scale);
    }

    fn segment(&mut self, node: NodeId, kind: SegmentKind, start: i128, end: i128) {
        if node != NodeId(0) && matches!(kind, SegmentKind::Compute) {
            self.computes += 1;
            if self.computes == 10 {
                return; // the task was drained but its compute vanishes
            }
        }
        self.inner.segment(node, kind, start, end);
    }

    fn queue_depth(&mut self, t: i128, depth: usize) {
        self.inner.queue_depth(t, depth);
    }

    fn buffer(&mut self, node: NodeId, t: i128, size: u64) {
        self.inner.buffer(node, t, size);
    }
}

fn task_loss_report(flight_capacity: usize) -> MonitorReport {
    let (p, _ss, ev, _exp) = setup();
    let mut mon_cfg = MonitorConfig::new(rat(PERIOD, 1));
    mon_cfg.flight_capacity = flight_capacity;
    let mon = MonitorProbe::new(p.len(), p.root(), mon_cfg);
    let mut probe = TaskLossInjector { inner: mon, computes: 0 };
    event_driven::simulate_probed(&p, &ev, &cfg(4), &mut probe).unwrap();
    probe.inner.finish()
}

#[test]
fn injected_task_loss_breaks_conservation() {
    let rep = task_loss_report(DEFAULT_CAPACITY);
    assert!(
        rep.violations.iter().any(|v| matches!(v, MonitorViolation::TaskConservation { .. })),
        "expected a conservation violation, got {:?}",
        rep.violations
    );
    assert!(rep.postmortem().is_some());
}

/// Compares `got` with the committed file `testdata/<name>` byte for byte.
/// Set `BLESS=1` to regenerate after an intentional format change.
fn assert_golden(name: &str, got: &str) {
    let path = format!("{}/testdata/{name}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&path, got).expect("regenerate golden file");
    }
    let golden = std::fs::read_to_string(&path).expect("golden file present");
    assert_eq!(got, golden, "{name} drifted from the committed golden file");
}

fn dump_text(rep: &MonitorReport) -> String {
    let mut text = rep.postmortem().expect("violations produce a post-mortem").to_string_pretty();
    text.push('\n');
    text
}

/// Pins every byte of the `bwfirst-postmortem/1` dumps of both injected
/// faults. At capacity 8 the ring wraps, so the eviction order and the
/// `dropped` count are pinned too.
#[test]
fn injected_fault_postmortems_match_the_golden_files() {
    for capacity in [DEFAULT_CAPACITY, 8] {
        let double_send = double_send_report(capacity);
        let task_loss = task_loss_report(capacity);
        if capacity == 8 {
            assert!(double_send.flight.dropped() > 0 && task_loss.flight.dropped() > 0);
        }
        assert_golden(&format!("postmortem_double_send_{capacity}.json"), &dump_text(&double_send));
        assert_golden(&format!("postmortem_task_loss_{capacity}.json"), &dump_text(&task_loss));
    }
}

#[test]
fn fig2_snapshot_stream_matches_the_golden_file() {
    let (p, _ss, ev, exp) = setup();
    let mut mon = strict_monitor(&p, exp);
    event_driven::simulate_probed(&p, &ev, &cfg(10), &mut mon).unwrap();
    assert_golden("fig2_event_snapshots.jsonl", &mon.finish().snapshots_jsonl());
}

/// The snapshot streams of the other executors, as `bwfirst monitor` runs
/// them: strict for the clocked schedule, relaxed for the demand variants.
#[test]
fn fig2_snapshot_streams_of_every_executor_match_the_golden_files() {
    let (p, _ss, ev, exp) = setup();
    let mut mon = strict_monitor(&p, exp);
    clocked::simulate_probed(&p, &ev.tree, ClockedConfig::default(), &cfg(10), &mut mon).unwrap();
    assert_golden("fig2_clocked_snapshots.jsonl", &mon.finish().snapshots_jsonl());
    for (name, demand) in
        [("demand", DemandConfig::default()), ("demand-int", DemandConfig::interruptible())]
    {
        let relaxed = MonitorConfig::new(rat(PERIOD, 1)).relaxed();
        let mut mon = MonitorProbe::new(p.len(), p.root(), relaxed);
        let _ = demand_driven::simulate_probed(&p, demand, &cfg(10), &mut mon);
        assert_golden(&format!("fig2_{name}_snapshots.jsonl"), &mon.finish().snapshots_jsonl());
    }
}

/// A hand-written stream small enough that the dump holds every entry,
/// violation marks included, at fractional timestamps (sixths: tick `k` is
/// time `k/6`).
#[test]
fn handwritten_stream_postmortem_matches_the_golden_file() {
    let mut mon = MonitorProbe::new(3, NodeId(0), MonitorConfig::new(rat(36, 1)));
    mon.start(TickScale::new(6).unwrap());
    mon.buffer(NodeId(1), 0, 2);
    mon.segment(NodeId(0), SegmentKind::Send(NodeId(1)), 0, 8); // [0, 4/3)
    mon.segment(NodeId(1), SegmentKind::Receive, 0, 8);
    mon.queue_depth(3, 3); // 1/2
    mon.buffer(NodeId(1), 8, 3);
    // Overlaps node 0's port: starts at 1 < 4/3.
    mon.segment(NodeId(0), SegmentKind::Send(NodeId(2)), 6, 15); // [1, 5/2)
    mon.segment(NodeId(2), SegmentKind::Receive, 6, 15);
    mon.buffer(NodeId(1), 9, 2); // 3/2
    mon.segment(NodeId(1), SegmentKind::Compute, 9, 21); // [3/2, 7/2)
                                                         // A receive with no pending send, then a compute nothing was drained for.
    mon.segment(NodeId(2), SegmentKind::Receive, 240, 246); // [40, 41)
    mon.segment(NodeId(2), SegmentKind::Compute, 246, 258); // [41, 43)
    let rep = mon.finish();
    assert!(rep.violations.len() >= 3, "{:?}", rep.violations);
    assert_golden("postmortem_handwritten.json", &dump_text(&rep));
}
