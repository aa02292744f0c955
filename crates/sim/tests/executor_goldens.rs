//! Byte-for-byte goldens of executor output on small fixed inputs: the
//! `bwfirst-trace/1` provenance artifacts of every protocol on the Figure 2
//! tree, the provenance of a mid-run re-negotiation, and full reports of
//! the result-return executor (completions, per-node counts, buffer stats,
//! Gantt segments). Any change to event order, routing or accounting shows
//! up here. Set `BLESS=1` to regenerate after an intentional change.

use bwfirst_core::schedule::EventDrivenSchedule;
use bwfirst_core::{bw_first, SteadyState};
use bwfirst_obs::causal::Trace;
use bwfirst_platform::examples::{example_tree, section9_counterexample};
use bwfirst_platform::generators::{random_tree, RandomTreeConfig};
use bwfirst_platform::{NodeId, Platform};
use bwfirst_rational::{rat, Rat};
use bwfirst_sim::clocked::{self, ClockedConfig};
use bwfirst_sim::demand_driven::{self, DemandConfig};
use bwfirst_sim::event_driven::{self, simulate_dynamic_probed, AdaptPolicy, LinkChange};
use bwfirst_sim::returns::{simulate_with_returns, ReturnConfig};
use bwfirst_sim::{trace_header, ProvenanceProbe, SegmentKind, SimConfig, SimReport};
use std::fmt::Write;

/// Compares `got` with the committed file `testdata/<name>` byte for byte.
fn assert_golden(name: &str, got: &str) {
    let path = format!("{}/testdata/{name}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&path, got).expect("regenerate golden file");
    }
    let golden = std::fs::read_to_string(&path).expect("golden file present");
    assert_eq!(got, golden, "{name} drifted from the committed golden file");
}

fn cfg(horizon: i128, tasks: Option<u64>, gantt: bool) -> SimConfig {
    SimConfig {
        horizon: rat(horizon, 1),
        stop_injection_at: None,
        total_tasks: tasks,
        record_gantt: gantt,
        exact_queue: false,
        seed: 0,
    }
}

/// The artifact `bwfirst trace record` writes for `protocol` on `p`.
fn record(
    p: &Platform,
    protocol: &str,
    changes: &[LinkChange],
    policy: AdaptPolicy,
    cfg: &SimConfig,
) -> String {
    let ss = SteadyState::from_solution(&bw_first(p));
    let ev = EventDrivenSchedule::standard(p, &ss).unwrap();
    let scheduled = !protocol.starts_with("demand");
    let tree = scheduled.then_some(&ev.tree);
    let mut probe = ProvenanceProbe::new(p, tree);
    match protocol {
        "event" => {
            event_driven::simulate_probed(p, &ev, cfg, &mut probe).unwrap();
        }
        "clocked" => {
            clocked::simulate_probed(p, &ev.tree, ClockedConfig::default(), cfg, &mut probe)
                .unwrap();
        }
        "demand" => {
            let _ = demand_driven::simulate_probed(p, DemandConfig::default(), cfg, &mut probe);
        }
        "demand-int" => {
            let _ =
                demand_driven::simulate_probed(p, DemandConfig::interruptible(), cfg, &mut probe);
        }
        "dynamic" => {
            simulate_dynamic_probed(p, changes, policy, cfg, &mut probe).unwrap();
        }
        other => panic!("unknown protocol {other}"),
    }
    probe.into_trace(trace_header(p, tree, protocol, cfg, Some(ss.throughput))).to_jsonl()
}

#[test]
fn fig2_traces_match_the_golden_files() {
    // The trace-smoke settings: `--tasks 40 --horizon 400`.
    for protocol in ["event", "clocked", "demand", "demand-int", "dynamic"] {
        let jsonl =
            record(&example_tree(), protocol, &[], AdaptPolicy::Stale, &cfg(400, Some(40), false));
        assert_golden(&format!("fig2_{protocol}_trace.jsonl"), &jsonl);
    }
}

#[test]
fn renegotiation_trace_matches_the_golden_file() {
    // E18's degradation: P1's link goes 1 -> 12 at t = 120, the schedule is
    // re-derived 5 units later.
    let changes = [LinkChange { at: rat(120, 1), child: NodeId(1), new_c: rat(12, 1) }];
    let policy = AdaptPolicy::Renegotiate { delay: rat(5, 1) };
    let jsonl = record(&example_tree(), "dynamic", &changes, policy, &cfg(300, None, false));
    assert_golden("fig2_renegotiate_trace.jsonl", &jsonl);
}

/// The one trace reader is also the schema: every artifact any executor
/// records must pass it and re-render to the same bytes.
#[test]
fn every_recorded_trace_parses_and_round_trips() {
    let trees = [(8, 3u64), (16, 11), (31, 29)]
        .map(|(size, seed)| random_tree(&RandomTreeConfig { size, seed, ..Default::default() }));
    for p in &trees {
        for protocol in ["event", "clocked", "demand", "demand-int", "dynamic"] {
            let jsonl = record(p, protocol, &[], AdaptPolicy::Stale, &cfg(400, Some(60), false));
            let trace = Trace::parse(&jsonl)
                .unwrap_or_else(|e| panic!("{protocol} on {} nodes: {e}", p.len()));
            assert!(!trace.task_ids().is_empty(), "{protocol} on {} nodes traced nothing", p.len());
            assert_eq!(trace.to_jsonl(), jsonl, "{protocol} on {} nodes", p.len());
        }
    }
}

/// Every measured field of a report, one fact per line.
fn render(rep: &SimReport) -> String {
    let mut out = String::new();
    writeln!(out, "horizon {}", rep.horizon).unwrap();
    writeln!(out, "injection_stopped_at {:?}", rep.injection_stopped_at.map(|t| t.to_string()))
        .unwrap();
    writeln!(out, "computed {:?}", rep.computed).unwrap();
    writeln!(out, "received {:?}", rep.received).unwrap();
    for (i, b) in rep.buffers.iter().enumerate() {
        writeln!(out, "buffer P{i} max {} avg {}", b.max, b.time_avg).unwrap();
    }
    writeln!(out, "completions {}", rep.completions.len()).unwrap();
    for &(t, node) in &rep.completions {
        writeln!(out, "done {} {node}", rep.scale.rat(t)).unwrap();
    }
    if let Some(g) = &rep.gantt {
        for s in &g.segments {
            let kind = match s.kind {
                SegmentKind::Receive => "recv".to_string(),
                SegmentKind::Compute => "comp".to_string(),
                SegmentKind::Send(k) => format!("send {k}"),
            };
            let (start, end) = (g.scale.rat(s.start), g.scale.rat(s.end));
            writeln!(out, "seg {} {kind} {start} {end}", s.node).unwrap();
        }
    }
    out
}

fn returns_report(p: &Platform, ratio: Rat, cfg: &SimConfig) -> SimReport {
    let ss = SteadyState::from_solution(&bw_first(p));
    let ev = EventDrivenSchedule::standard(p, &ss).unwrap();
    simulate_with_returns(p, &ev, ReturnConfig { return_ratio: ratio }, cfg).unwrap()
}

#[test]
fn fig2_returns_report_matches_the_golden_file() {
    let rep = returns_report(&example_tree(), rat(1, 2), &cfg(200, None, true));
    assert_golden("fig2_returns_half.txt", &render(&rep));
}

#[test]
fn section9_returns_reports_match_the_golden_files() {
    // E8's two runs: separate send/return ports (return = forward cost) and
    // the merged simplification (forward cost doubled, no returns).
    let rr = section9_counterexample();
    let cfg = cfg(400, None, true);
    let separated = returns_report(&rr.platform, Rat::ONE, &cfg);
    let merged = returns_report(&rr.merged(), Rat::ZERO, &cfg);
    assert_eq!(separated.throughput_in(rat(200, 1), rat(400, 1)), rat(2, 1));
    assert_eq!(merged.throughput_in(rat(200, 1), rat(400, 1)), rat(1, 1));
    assert_golden("section9_returns_separated.txt", &render(&separated));
    assert_golden("section9_returns_merged.txt", &render(&merged));
}
