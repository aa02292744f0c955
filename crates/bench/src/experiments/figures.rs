//! E2–E5: the Section 8 worked example — Figures 4(b), 4(c), 4(d) and 5.

use crate::table::Table;
use crate::trees::f;
use bwfirst_core::schedule::{EventDrivenSchedule, SlotAction};
use bwfirst_core::{bw_first, startup, SteadyState, TraceEvent};
use bwfirst_platform::examples::{example_throughput, example_tree};
use bwfirst_rational::{rat, Rat};
use bwfirst_sim::event_driven;
use bwfirst_sim::SimConfig;
use std::fmt::Write;

/// E2 — Figure 4(b): the transaction trace of `BW-First` on the example
/// tree, plus the set of nodes the traversal prunes.
#[must_use]
pub fn e2_transactions() -> String {
    let p = example_tree();
    let sol = bw_first(&p);
    let mut out = String::new();
    writeln!(out, "E2  Figure 4(b): BW-First transactions on the example tree\n").unwrap();
    writeln!(out, "virtual parent proposes t_max = {} to P0", sol.t_max()).unwrap();
    for ev in sol.trace() {
        match ev {
            TraceEvent::Proposal { from, to, beta } => {
                writeln!(out, "  {from} --beta={beta}--> {to}").unwrap();
            }
            TraceEvent::Ack { from, to, theta } => {
                writeln!(out, "  {to} <--theta={theta}-- {from}").unwrap();
            }
        }
    }
    writeln!(
        out,
        "root acknowledges theta = {} to the virtual parent",
        sol.t_max() - sol.throughput()
    )
    .unwrap();
    writeln!(out, "\nthroughput = {} tasks per time unit (paper: 10/9)", sol.throughput()).unwrap();
    let unvisited: Vec<String> = sol.unvisited().iter().map(ToString::to_string).collect();
    writeln!(out, "unvisited nodes: {} (paper: P5, P9, P10, P11)", unvisited.join(", ")).unwrap();
    writeln!(out, "protocol messages: {} (one rational each)", sol.message_count() + 2).unwrap();
    out
}

/// E3 — Figure 4(c): tasks received and computed per time unit, per node.
#[must_use]
pub fn e3_rates() -> String {
    let p = example_tree();
    let sol = bw_first(&p);
    let ss = SteadyState::from_solution(&sol);
    ss.verify(&p).expect("steady state is feasible");
    let mut t = Table::new(["node", "eta_in (recv/unit)", "alpha (comp/unit)", "forwarded/unit"]);
    for id in p.node_ids() {
        let fwd: Rat = p.children(id).iter().map(|&k| ss.eta_in[k.index()]).sum();
        t.row([
            id.to_string(),
            ss.eta_in[id.index()].to_string(),
            ss.alpha[id.index()].to_string(),
            fwd.to_string(),
        ]);
    }
    let mut out = String::new();
    writeln!(out, "E3  Figure 4(c): per-node steady-state rates\n").unwrap();
    out.push_str(&t.render());
    writeln!(out, "\nthroughput          = {}  (paper: 10/9)", ss.throughput).unwrap();
    writeln!(
        out,
        "rootless throughput = {}  (paper: 1 task/unit, stated as 40 per 40)",
        ss.rootless_throughput(&p)
    )
    .unwrap();
    out
}

fn action_str(a: SlotAction) -> String {
    match a {
        SlotAction::Compute => "C".to_string(),
        SlotAction::Send(k) => format!("S{}", k.0),
    }
}

/// E4 — Figure 4(d): the compact event-driven description of every active
/// node: periods, `ψ` quantities, and the interleaved intra-bunch order.
#[must_use]
pub fn e4_local_schedules() -> String {
    let p = example_tree();
    let ss = SteadyState::from_solution(&bw_first(&p));
    let ev = EventDrivenSchedule::standard(&p, &ss).unwrap();
    let mut t = Table::new(["node", "T^r", "T^c", "T^s", "T^w", "psi", "bunch order (one period)"]);
    for s in ev.tree.iter() {
        let psis: Vec<String> = std::iter::once(format!("self:{}", s.psi_self))
            .chain(s.psi_children.iter().map(|&(k, q)| format!("{}:{q}", k)))
            .collect();
        let order: Vec<String> = ev.local(s.node).unwrap().actions.iter().map(action_str).collect();
        t.row([
            s.node.to_string(),
            s.t_recv.map_or("-".into(), |v| v.to_string()),
            s.t_comp.to_string(),
            s.t_send.to_string(),
            s.t_omega.to_string(),
            psis.join(" "),
            order.join(" "),
        ]);
    }
    let sync = bwfirst_core::schedule::synchronous_period(&ss).unwrap();
    let mut out = String::new();
    writeln!(out, "E4  Figure 4(d): compact local schedules (interleaved order)\n").unwrap();
    out.push_str(&t.render());
    writeln!(out, "\nnaive synchronous period T = lcm of all denominators = {sync} time units")
        .unwrap();
    writeln!(
        out,
        "vs per-node consuming periods T^w of at most 12 — the compact description of Section 6"
    )
    .unwrap();
    out
}

/// E5's run of the example tree (Figure 5 and the Section 8 numbers).
#[derive(Debug, Clone)]
pub struct Figure5 {
    /// Exact steady throughput.
    pub throughput: Rat,
    /// Synchronous period `T`.
    pub period: i128,
    /// Proposition 4 start-up bound.
    pub startup_bound: i128,
    /// When injection stops.
    pub stop: Rat,
    /// Measured steady-state entry.
    pub steady_entry: Rat,
    /// Measured throughput over the second period after the entry.
    pub steady_rate: Rat,
    /// Tasks completed in the first period.
    pub first_period_tasks: u64,
    /// Wind-down length after the stop.
    pub wind_down: Rat,
    /// Peak buffered tasks at any node.
    pub peak_buffer: u64,
    /// ASCII Gantt chart of the first 60 time units, active nodes only.
    pub gantt: String,
    /// SVG Gantt chart of the first 130 time units (`paper_output/figure5.svg`).
    pub svg: String,
}

/// E5 — a full simulated run of the example tree with start-up, steady
/// state and wind-down, rendered as a Gantt chart.
#[must_use]
pub fn figure5() -> Figure5 {
    let p = example_tree();
    let ss = SteadyState::from_solution(&bw_first(&p));
    let ev = EventDrivenSchedule::standard(&p, &ss).unwrap();
    let stop = rat(115, 1);
    let cfg = SimConfig { stop_injection_at: Some(stop), ..SimConfig::to_horizon(rat(220, 1)) };
    let rep = event_driven::simulate(&p, &ev, &cfg).expect("example tree simulates");
    let period = bwfirst_core::schedule::synchronous_period(&ss).unwrap(); // 36
    let window = Rat::from_int(period);
    let entry = rep.steady_state_entry(ss.throughput, window, stop).expect("reached steady state");
    let active: Vec<_> = p.node_ids().filter(|&n| ss.is_active(n)).collect();
    let gantt = rep.gantt.as_ref().unwrap();
    Figure5 {
        throughput: ss.throughput,
        period,
        startup_bound: startup::tree_startup_bound(&p, &ev.tree),
        stop,
        steady_entry: entry,
        steady_rate: rep.throughput_in(entry + window, entry + window + window),
        first_period_tasks: rep.completions_in(Rat::ZERO, window),
        wind_down: rep.wind_down().expect("injection stopped"),
        peak_buffer: rep.peak_buffer(),
        gantt: gantt.ascii(&active, rat(60, 1), 120),
        svg: bwfirst_sim::gantt_svg::render_svg(gantt, &active, rat(130, 1)),
    }
}

/// E5's report: the Gantt chart and the Section 8 numbers next to the
/// paper's.
#[must_use]
pub fn e5_report(r: &Figure5) -> String {
    let period = Rat::from_int(r.period);
    let optimal_per_period = (r.throughput * period).floor();
    let mut out = String::new();
    writeln!(
        out,
        "E5  Figure 5 + Section 8 numbers (event-driven run, stop injection at t={})\n",
        r.stop
    )
    .unwrap();
    out.push_str(&r.gantt);

    let mut t = Table::new(["metric", "paper (its tree)", "measured (reconstructed tree)"]);
    t.row(["steady throughput".to_string(), "10/9".to_string(), r.steady_rate.to_string()]);
    t.row(["synchronous period T".to_string(), "360".to_string(), period.to_string()]);
    t.row([
        "tasks per period".to_string(),
        "40 per 40 (rootless)".to_string(),
        format!("{optimal_per_period} per {period}"),
    ]);
    t.row([
        "steady-state entry".to_string(),
        "<= one rootless period".to_string(),
        format!("{} (Prop 4 bound {})", f(r.steady_entry), r.startup_bound),
    ]);
    t.row([
        "tasks in first period".to_string(),
        "32/40 = 80% of optimal".to_string(),
        format!(
            "{}/{optimal_per_period} = {:.0}%",
            r.first_period_tasks,
            100.0 * r.first_period_tasks as f64 / optimal_per_period as f64
        ),
    ]);
    t.row([
        "wind-down after stop".to_string(),
        "10 units (T/4 of rootless)".to_string(),
        f(r.wind_down),
    ]);
    t.row([
        "peak buffered tasks".to_string(),
        "small (design goal)".to_string(),
        r.peak_buffer.to_string(),
    ]);
    out.push_str(&t.render());
    writeln!(
        out,
        "\nexpected throughput {} matches measured exactly over steady windows: {}",
        example_throughput(),
        r.steady_rate == example_throughput()
    )
    .unwrap();
    out
}
