//! E7, E8, E11, E13, E16, E18, E19: protocol-level experiments.

use super::sim_to;
use crate::table::Table;
use crate::trees::{f, tree};
use bwfirst_core::schedule::{synchronous_period, EventDrivenSchedule};
use bwfirst_core::{bw_first, SteadyState};
use bwfirst_platform::examples::{example_tree, section9_counterexample};
use bwfirst_platform::Platform;
use bwfirst_proto::ProtocolSession;
use bwfirst_rational::{rat, Rat};
use bwfirst_sim::demand_driven::{self, DemandConfig};
use bwfirst_sim::returns::{simulate_with_returns, ReturnConfig};
use bwfirst_sim::{event_driven, SimReport};
use std::fmt::Write;

/// E7 — the paper's event-driven schedule vs a Kreaseck-style demand-driven
/// autonomous protocol: throughput, start-up, and buffering.
#[must_use]
pub fn e7_protocol_comparison() -> String {
    let mut out = String::new();
    writeln!(out, "E7  event-driven (paper) vs demand-driven (Kreaseck-style) protocols\n")
        .unwrap();
    let mut t = Table::new([
        "tree",
        "protocol",
        "steady rate",
        "optimal",
        "startup entry",
        "peak buffer",
        "wasted feeds",
    ]);
    let cases: Vec<(String, Platform)> = std::iter::once(("example".to_string(), example_tree()))
        .chain([11u64, 12, 13].into_iter().map(|s| (format!("random-31 #{s}"), tree(31, s))))
        .collect();
    for (name, p) in cases {
        let ss = SteadyState::from_solution(&bw_first(&p));
        if !ss.throughput.is_positive() {
            continue;
        }
        let window = Rat::from_int(synchronous_period(&ss).unwrap());
        let horizon = (window * rat(8, 1)).max(rat(240, 1));
        let cfg = sim_to(horizon);

        let ev = EventDrivenSchedule::standard(&p, &ss).unwrap();
        let er = event_driven::simulate(&p, &ev, &cfg).expect("example tree simulates");
        let dr = demand_driven::simulate(&p, DemandConfig::default(), &cfg);
        let ir = demand_driven::simulate(&p, DemandConfig::interruptible(), &cfg);

        // Tasks delivered into subtrees the optimal schedule never uses.
        let wasted = |rep: &SimReport| -> u64 {
            p.node_ids().filter(|&n| !ss.is_active(n)).map(|n| rep.received[n.index()]).sum()
        };
        for (protocol, rep) in
            [("event-driven", &er), ("demand-driven", &dr), ("demand (interruptible)", &ir)]
        {
            let entry = rep.steady_state_entry(ss.throughput, window, horizon);
            t.row([
                name.clone(),
                protocol.to_string(),
                f(rep.throughput_in(horizon / Rat::TWO, horizon)),
                f(ss.throughput),
                entry.map_or("never".to_string(), f),
                rep.peak_buffer().to_string(),
                wasted(rep).to_string(),
            ]);
        }
    }
    out.push_str(&t.render());
    writeln!(out, "\nthe demand-driven protocol wastes feeds on pruned subtrees, buffers more,")
        .unwrap();
    writeln!(out, "and can settle below the optimal rate — the Sections 2/7 criticism.").unwrap();
    out
}

/// E8's measured rates on the Section 9 counter-example.
#[derive(Debug, Clone, Copy)]
pub struct Section9Rates {
    /// Separate send and return ports (returns cost as much as sends).
    pub separated: Rat,
    /// The merged simplification (forward cost doubled, no returns).
    pub merged: Rat,
}

/// E8 — Section 9: both models of the counter-example through the
/// result-return executor, each rate measured over `[200, 400)`.
#[must_use]
pub fn section9_rates() -> Section9Rates {
    let rr = section9_counterexample();
    let cfg = sim_to(rat(400, 1));
    let rate = |p: &Platform, ratio: Rat| {
        let ss = SteadyState::from_solution(&bw_first(p));
        let ev = EventDrivenSchedule::standard(p, &ss).expect("schedulable");
        let rep = simulate_with_returns(p, &ev, ReturnConfig { return_ratio: ratio }, &cfg)
            .expect("valid schedule");
        rep.throughput_in(rat(200, 1), rat(400, 1))
    };
    Section9Rates { separated: rate(&rr.platform, Rat::ONE), merged: rate(&rr.merged(), Rat::ZERO) }
}

/// E8's report: separate send/return port accounting sustains 2 tasks per
/// time unit where the merged simplification predicts (and gets) only 1.
#[must_use]
pub fn e8_report(r: &Section9Rates) -> String {
    let mut t = Table::new(["model", "measured rate", "paper"]);
    t.row([
        "separated send (0.5) + return (0.5)".to_string(),
        f(r.separated),
        "2 tasks/unit".to_string(),
    ]);
    t.row([
        "merged c = 1 (the simplification)".to_string(),
        f(r.merged),
        "1 task/unit".to_string(),
    ]);
    let mut out = String::new();
    writeln!(out, "E8  Section 9 result-return counter-example (master + 2 unit-speed workers)\n")
        .unwrap();
    out.push_str(&t.render());
    writeln!(out, "\nmerging send and return times halves the platform: the receiving port is a")
        .unwrap();
    writeln!(out, "resource of its own, so the bandwidth-centric simplification is erroneous.")
        .unwrap();
    out
}

/// E11 — the distributed protocol is lightweight: single-number messages,
/// negotiation latency tiny next to task traffic.
#[must_use]
pub fn e11_distributed_protocol() -> String {
    let mut out = String::new();
    writeln!(out, "E11  distributed BW-First on one dispatcher, per-link FIFO\n").unwrap();
    let mut t = Table::new([
        "nodes",
        "throughput (== centralized)",
        "messages",
        "wire bytes",
        "negotiate wall-time",
        "flow volume (64 B tasks)",
        "flow wall-time",
    ]);
    for &size in &[15usize, 63, 255] {
        let p = crate::trees::supply_tree(size, 21); // slow CPUs: wide fan-out
        let mut session = ProtocolSession::spawn(&p).expect("set up protocol session");
        let neg = session.negotiate().expect("negotiation completes");
        let check = bw_first(&p);
        assert_eq!(neg.solution, check, "distributed must match centralized");
        // Size the flow phase to a few thousand tasks regardless of the
        // root's bunch length Ψ (which grows with the rate denominators).
        let ss = SteadyState::from_solution(&check);
        let sched = bwfirst_core::schedule::TreeSchedule::build(&p, &ss).unwrap();
        let root_bunch = sched.get(p.root()).map_or(1, |s| s.bunch.max(1)) as u64;
        let bunches = (4000 / root_bunch).clamp(1, 200);
        let flow = session.run_flow(bunches, 64).expect("flow completes");
        let wire_bytes = bwfirst_proto::wire::negotiation_wire_bytes(&check);
        t.row([
            size.to_string(),
            crate::trees::f(neg.solution.throughput()),
            neg.messages().to_string(),
            wire_bytes.to_string(),
            format!("{:?}", neg.elapsed),
            format!("{} tasks", flow.total_computed()),
            format!("{:?}", flow.elapsed),
        ]);
    }
    out.push_str(&t.render());
    writeln!(out, "\n(wire bytes: the whole negotiation encoded with the varint codec — a few")
        .unwrap();
    writeln!(out, " bytes per message, dwarfed by a single task payload)").unwrap();

    // The same protocol over real localhost TCP sockets.
    let p_tcp = example_tree();
    let mut tcp = ProtocolSession::spawn_tcp(&p_tcp).expect("spawn over TCP");
    let neg_tcp = tcp.negotiate().expect("negotiation completes");
    writeln!(
        out,
        "\nsame negotiation over real TCP sockets (example tree): throughput {}, {} messages, {:?}",
        neg_tcp.solution.throughput(),
        neg_tcp.messages(),
        neg_tcp.elapsed
    )
    .unwrap();

    // Dynamic adaptation: drop a link, renegotiate, recover.
    writeln!(out, "\ndynamic adaptation (example tree):").unwrap();
    let p = example_tree();
    let mut session = ProtocolSession::spawn(&p).expect("set up protocol session");
    let before = session.negotiate().expect("negotiation completes");
    session.set_link(bwfirst_platform::NodeId(1), rat(12, 1)).expect("set_link");
    let degraded = session.negotiate().expect("negotiation completes");
    session.set_link(bwfirst_platform::NodeId(1), rat(1, 1)).expect("set_link");
    let recovered = session.negotiate().expect("negotiation completes");
    writeln!(out, "  initial throughput   {}", before.solution.throughput()).unwrap();
    writeln!(
        out,
        "  after P0->P1 slows   {} ({} messages to renegotiate, {:?})",
        degraded.solution.throughput(),
        degraded.messages(),
        degraded.elapsed
    )
    .unwrap();
    writeln!(out, "  after link recovers  {}", recovered.solution.throughput()).unwrap();
    out
}

/// The trees of E13 and E19: the example and a supply-heavy 31-node tree.
fn two_trees() -> [(&'static str, Platform); 2] {
    [("example", example_tree()), ("supply-31 #33", crate::trees::supply_tree(31, 33))]
}

/// One E13 point: a finite workload on one tree.
#[derive(Debug, Clone)]
pub struct MakespanRow {
    /// Tree label.
    pub tree: &'static str,
    /// Workload size `N`.
    pub tasks: u64,
    /// `N/throughput` lower bound.
    pub lower_bound: Rat,
    /// Event-driven measured makespan.
    pub event_driven: Rat,
    /// Demand-driven measured makespan.
    pub demand_driven: Rat,
}

/// E13 — Section 2's claim: the steady-state schedule with quick start-up
/// and wind-down is a strong heuristic for Dutot's NP-hard makespan
/// problem. Measured makespans converge onto the `N/throughput` lower bound.
#[must_use]
pub fn makespans() -> Vec<MakespanRow> {
    use bwfirst_sim::makespan::{demand_driven_makespan, event_driven_makespan, lower_bound};
    let mut rows = Vec::new();
    for (tree, p) in two_trees() {
        let ss = SteadyState::from_solution(&bw_first(&p));
        let ev = EventDrivenSchedule::standard(&p, &ss).unwrap();
        for tasks in [50u64, 200, 1000] {
            rows.push(MakespanRow {
                tree,
                tasks,
                lower_bound: lower_bound(&ss, tasks),
                event_driven: event_driven_makespan(&p, &ss, &ev, tasks),
                demand_driven: demand_driven_makespan(&p, &ss, DemandConfig::default(), tasks),
            });
        }
    }
    rows
}

/// E13's report: makespans against the lower bound.
#[must_use]
pub fn e13_report(rows: &[MakespanRow]) -> String {
    let mut out = String::new();
    writeln!(out, "E13  makespan of finite workloads vs the steady-state lower bound\n").unwrap();
    let mut t = Table::new([
        "tree",
        "tasks N",
        "lower bound N/rate",
        "event-driven makespan",
        "ratio",
        "demand-driven makespan",
        "ratio",
    ]);
    for r in rows {
        t.row([
            r.tree.to_string(),
            r.tasks.to_string(),
            f(r.lower_bound),
            f(r.event_driven),
            format!("{:.3}", (r.event_driven / r.lower_bound).to_f64()),
            f(r.demand_driven),
            format!("{:.3}", (r.demand_driven / r.lower_bound).to_f64()),
        ]);
    }
    out.push_str(&t.render());
    writeln!(out, "\nquick start-up and wind-down push the event-driven makespan toward the")
        .unwrap();
    writeln!(out, "information-theoretic bound as N grows — the Section 2 heuristic argument.")
        .unwrap();
    out
}

/// E16 — the Lemma 1 clocked schedule (with Proposition 3's χ prefill) vs
/// the clockless event-driven schedule: same steady rate, but the clocked
/// variant needs the prefill stock to start cleanly.
#[must_use]
pub fn e16_clocked_vs_event() -> String {
    use bwfirst_sim::clocked::{self, ClockedConfig};
    let p = example_tree();
    let ss = SteadyState::from_solution(&bw_first(&p));
    let ts = bwfirst_core::schedule::TreeSchedule::build(&p, &ss).unwrap();
    let ev = EventDrivenSchedule::standard(&p, &ss).unwrap();
    let cfg = sim_to(rat(216, 1));
    let event = event_driven::simulate(&p, &ev, &cfg).expect("example tree simulates");
    let traditional = event_driven::simulate_with_policy(
        &p,
        &ev,
        &cfg,
        bwfirst_sim::event_driven::StartupPolicy::Prefill,
    )
    .expect("example tree simulates");
    let warm = clocked::simulate(&p, &ts, ClockedConfig { prefill: true }, &cfg)
        .expect("example tree simulates");
    let cold = clocked::simulate(&p, &ts, ClockedConfig { prefill: false }, &cfg)
        .expect("example tree simulates");

    let mut t = Table::new([
        "executor",
        "tasks in period 1",
        "tasks in period 2",
        "steady (periods 3+)",
        "prefilled tasks",
        "peak buffer",
    ]);
    let chi_total: u64 = ts.iter().filter_map(|s| s.chi_in).map(|c| c as u64).sum();
    for (name, r, prefill) in [
        ("event-driven (paper)", &event, 0),
        ("traditional prefill (Sec. 7 baseline)", &traditional, 0),
        ("clocked + chi prefill", &warm, chi_total),
        ("clocked, cold", &cold, 0),
    ] {
        t.row([
            name.to_string(),
            r.completions_in(rat(0, 1), rat(36, 1)).to_string(),
            r.completions_in(rat(36, 1), rat(72, 1)).to_string(),
            r.completions_in(rat(72, 1), rat(108, 1)).to_string(),
            prefill.to_string(),
            r.peak_buffer().to_string(),
        ]);
    }

    let mut out = String::new();
    writeln!(out, "E16  Lemma 1 clocked schedule vs the event-driven schedule (example tree)\n")
        .unwrap();
    out.push_str(&t.render());
    writeln!(out, "\nthe clocked schedule needs Proposition 3's buffered stock to start at full")
        .unwrap();
    writeln!(out, "rate; the event-driven schedule gets there without prefill or clocks —")
        .unwrap();
    writeln!(out, "the paper's Sections 6.2 and 7 in one table.").unwrap();
    out
}

/// E18 — platform dynamics in simulated time: a mid-run link degradation
/// under the stale schedule vs the Section 5 re-negotiation strategy.
#[must_use]
pub fn e18_dynamic_adaptation() -> String {
    use bwfirst_sim::event_driven::{simulate_dynamic, AdaptPolicy, LinkChange};
    let p = example_tree();
    let changes = vec![
        LinkChange { at: rat(120, 1), child: bwfirst_platform::NodeId(1), new_c: rat(12, 1) },
        LinkChange { at: rat(320, 1), child: bwfirst_platform::NodeId(1), new_c: rat(1, 1) },
    ];
    let cfg = sim_to(rat(560, 1));
    let (stale, _) = simulate_dynamic(&p, &changes, AdaptPolicy::Stale, &cfg).expect("schedulable");
    let (adaptive, swaps) =
        simulate_dynamic(&p, &changes, AdaptPolicy::Renegotiate { delay: rat(5, 1) }, &cfg)
            .expect("schedulable");

    let mut t =
        Table::new(["window", "platform state", "optimum", "stale schedule", "renegotiated"]);
    let windows: [(i128, i128, &str, &str); 3] = [
        (76, 112, "healthy (c=1)", "10/9 = 1.1111"),
        (200, 308, "degraded (c=12)", "21/20 = 1.05"),
        (420, 556, "healed (c=1)", "10/9 = 1.1111"),
    ];
    for (a, b, state, opt) in windows {
        t.row([
            format!("[{a}, {b})"),
            state.to_string(),
            opt.to_string(),
            f(stale.throughput_in(rat(a, 1), rat(b, 1))),
            f(adaptive.throughput_in(rat(a, 1), rat(b, 1))),
        ]);
    }
    let mut out = String::new();
    writeln!(out, "E18  mid-run link dynamics: P0->P1 degrades 12x at t=120, heals at t=320\n")
        .unwrap();
    out.push_str(&t.render());
    writeln!(
        out,
        "\nschedule swaps at t = {:?} (5 time units after each change —",
        swaps.iter().map(|s| s.to_f64()).collect::<Vec<_>>()
    )
    .unwrap();
    writeln!(out, "E11 shows the real renegotiation costs microseconds and ~100 bytes).").unwrap();
    writeln!(out, "the stale schedule keeps pushing 1/3 task/unit into the slow link and clogs")
        .unwrap();
    writeln!(out, "the root's port; re-negotiation tracks the platform's optimum throughout.")
        .unwrap();
    out
}

/// E19 — result returns on whole trees (Section 9's open problem,
/// quantified): running the forward-optimal schedule while results of
/// relative size ρ relay back to the master.
#[must_use]
pub fn e19_returns_on_trees() -> String {
    let mut out = String::new();
    writeln!(out, "E19  forward-optimal schedule under result returns (relative size rho)\n")
        .unwrap();
    let mut t =
        Table::new(["tree", "rho=0 (paper model)", "rho=1/8", "rho=1/4", "rho=1/2", "rho=1"]);
    for (name, p) in two_trees() {
        let ss = SteadyState::from_solution(&bw_first(&p));
        // Quantize lcm-exploded rates so the schedule (and the simulated
        // window) stays compact; loss is < 0.2% at this grid (E15).
        let ss = if synchronous_period(&ss).unwrap() > 10_000 {
            bwfirst_core::quantize::quantize(&p, &ss, 2520)
        } else {
            ss
        };
        let ev = EventDrivenSchedule::standard(&p, &ss).unwrap();
        let start = rat(200, 1);
        let horizon = rat(600, 1);
        let cfg = sim_to(horizon);
        let mut row = vec![name.to_string()];
        for (num, den) in [(0i128, 1i128), (1, 8), (1, 4), (1, 2), (1, 1)] {
            let ret = ReturnConfig { return_ratio: rat(num, den) };
            let rep = simulate_with_returns(&p, &ev, ret, &cfg).expect("valid schedule");
            row.push(f(rep.throughput_in(start, horizon)));
        }
        t.row(row);
    }
    out.push_str(&t.render());
    writeln!(out, "\nthe paper proves the merge-the-costs simplification wrong (E8) and leaves")
        .unwrap();
    writeln!(out, "scheduling-with-returns open; here the *forward-optimal* schedule is run")
        .unwrap();
    writeln!(out, "against growing return traffic: the loss at rho=1 is the price of ignoring")
        .unwrap();
    writeln!(out, "the receiving-port resource when building the schedule.").unwrap();
    out
}
