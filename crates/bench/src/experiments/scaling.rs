//! E1, E6, E9, E10, E12, E15: scaling and correctness sweeps.

use super::sim_to;
use crate::table::Table;
use crate::trees::{bottleneck, f, fork, tree, SIZES};
use bwfirst_core::fork::ForkChild;
use bwfirst_core::lazy::{throughput_bounds, InfiniteChain, InfiniteKary};
use bwfirst_core::schedule::{synchronous_period, EventDrivenSchedule, LocalScheduleKind};
use bwfirst_core::{bottom_up, bw_first, fork_equivalent_rate, startup, SteadyState};
use bwfirst_obs::Trace;
use bwfirst_rational::{rat, Rat};
use bwfirst_sim::provenance::{trace_header, ProvenanceProbe};
use bwfirst_sim::{event_driven, SimConfig};
use std::fmt::Write;

/// E1 — Proposition 1 and `BW-First` agree on fork graphs of every width.
#[must_use]
pub fn e1_fork_equivalence() -> String {
    let mut t = Table::new(["children k", "samples", "closed form == BW-First", "example rate"]);
    for k in [1usize, 2, 4, 8, 16, 32, 64] {
        let mut all_equal = true;
        let mut sample_rate = Rat::ZERO;
        for seed in 0..50u64 {
            let p = fork(k, seed);
            let children: Vec<ForkChild> = p
                .children(p.root())
                .iter()
                .map(|&c| ForkChild { c: p.link_time(c).unwrap(), rate: p.compute_rate(c) })
                .collect();
            let closed = fork_equivalent_rate(p.compute_rate(p.root()), &children);
            // BW-First needs the virtual parent's offer to not be the binding
            // constraint; offer the fork's own equivalent rate.
            let sol = bwfirst_core::bw_first_with_lambda(&p, closed.rate);
            all_equal &= sol.throughput() == closed.rate;
            sample_rate = closed.rate;
        }
        t.row([k.to_string(), "50".to_string(), all_equal.to_string(), sample_rate.to_string()]);
    }
    let mut out = String::new();
    writeln!(out, "E1  Proposition 1 (Figure 2 reduction) vs BW-First on random forks\n").unwrap();
    out.push_str(&t.render());
    out
}

/// One E6 point: a bottlenecked tree and the work each solver did on it.
#[derive(Debug, Clone)]
pub struct VisitRow {
    /// Tree size in nodes.
    pub nodes: usize,
    /// Root-link slowdown factor.
    pub slowdown: i128,
    /// Exact throughput (both solvers agree).
    pub throughput: Rat,
    /// Nodes BW-First visited.
    pub visits: usize,
    /// BW-First's protocol messages, the virtual parent's two included.
    pub messages: usize,
    /// Edges the bottom-up reduction processed.
    pub bottom_up_edges: usize,
}

/// E6 — Section 5's efficiency claim: under bandwidth bottlenecks,
/// `BW-First` touches only the feedable part of the tree while the
/// bottom-up reduction processes every edge.
#[must_use]
pub fn visit_sweep() -> Vec<VisitRow> {
    let mut rows = Vec::new();
    for &nodes in &SIZES {
        for slowdown in [1i128, 4, 16, 64] {
            let p = bottleneck(nodes, 42, slowdown);
            let sol = bw_first(&p);
            let bu = bottom_up(&p);
            assert_eq!(sol.throughput(), bu.throughput, "solvers disagree");
            rows.push(VisitRow {
                nodes,
                slowdown,
                throughput: sol.throughput(),
                visits: sol.visit_count(),
                messages: sol.message_count() + 2,
                bottom_up_edges: bu.children_processed,
            });
        }
    }
    rows
}

/// E6's report: the visit table.
#[must_use]
pub fn e6_report(rows: &[VisitRow]) -> String {
    let mut t = Table::new([
        "nodes",
        "root-link slowdown",
        "throughput",
        "BW-First visits",
        "BW-First msgs",
        "bottom-up edges",
        "visit ratio",
    ]);
    for r in rows {
        t.row([
            r.nodes.to_string(),
            format!("x{}", r.slowdown),
            f(r.throughput),
            r.visits.to_string(),
            r.messages.to_string(),
            r.bottom_up_edges.to_string(),
            format!("{:.2}", r.visits as f64 / r.nodes as f64),
        ]);
    }
    let mut out = String::new();
    writeln!(out, "E6  BW-First visits vs bottom-up work under root-link bottlenecks\n").unwrap();
    out.push_str(&t.render());
    writeln!(out, "\nthe bottom-up baseline always reduces every fork (edges column);").unwrap();
    writeln!(
        out,
        "BW-First's visits shrink as the bottleneck starves subtrees — Section 5's claim."
    )
    .unwrap();
    out
}

/// The exact mean sojourn time (entry at the root → end of the compute
/// span) of the tasks a traced run computed by its horizon; `None` when
/// none did.
fn mean_sojourn(trace: &Trace) -> Option<Rat> {
    let sojourns = trace.sojourns().expect("Fig. 2 sojourns fit i128");
    let sum: Rat = sojourns.iter().map(|s| Rat::new(s.num, s.den)).sum();
    (!sojourns.is_empty()).then(|| sum / Rat::from(sojourns.len()))
}

/// E9 — Section 6's compactness claim plus the Section 6.3 local-schedule
/// ablation (interleaved vs all-at-once vs round-robin).
#[must_use]
pub fn e9_schedule_compactness() -> String {
    let mut out = String::new();
    writeln!(out, "E9a  synchronous period vs per-node event-driven description\n").unwrap();
    let mut t = Table::new([
        "tree (seed)",
        "nodes",
        "sync period T",
        "max T^w",
        "max bunch",
        "active nodes",
    ]);
    for seed in [1u64, 2, 3, 4, 5] {
        // Integer weights/links, slow CPUs: realistic measured-rate platforms
        // with wide fan-out but bounded lcm blow-up.
        let p = crate::trees::supply_tree(63, seed);
        let ss = SteadyState::from_solution(&bw_first(&p));
        let sched = bwfirst_core::schedule::TreeSchedule::build(&p, &ss).unwrap();
        let sync = synchronous_period(&ss).unwrap();
        let max_omega = sched.iter().map(|s| s.t_omega).max().unwrap_or(1);
        let max_bunch = sched.iter().map(|s| s.bunch).max().unwrap_or(0);
        t.row([
            format!("random-63 #{seed}"),
            "63".to_string(),
            sync.to_string(),
            max_omega.to_string(),
            max_bunch.to_string(),
            sched.active_count().to_string(),
        ]);
    }
    out.push_str(&t.render());

    writeln!(
        out,
        "\nE9b  local-schedule ablation on the example tree (horizon 300, stop at 200)\n"
    )
    .unwrap();
    let p = bwfirst_platform::examples::example_tree();
    let ss = SteadyState::from_solution(&bw_first(&p));
    let mut t = Table::new([
        "local order",
        "peak buffer",
        "avg buffer (worst node)",
        "mean latency",
        "wind-down",
        "steady rate ok",
    ]);
    for (kind, name) in [
        (LocalScheduleKind::Interleaved, "interleaved (paper)"),
        (LocalScheduleKind::RoundRobin, "round-robin"),
        (LocalScheduleKind::AllAtOnce, "all-at-once"),
    ] {
        let ev = EventDrivenSchedule::build(&p, &ss, kind).unwrap();
        let cfg = SimConfig { stop_injection_at: Some(rat(200, 1)), ..sim_to(rat(300, 1)) };
        let mut probe = ProvenanceProbe::new(&p, Some(&ev.tree));
        let rep = event_driven::simulate_probed(&p, &ev, &cfg, &mut probe).expect("simulate");
        let trace = probe.into_trace(trace_header(&p, Some(&ev.tree), "event", &cfg, None));
        let avg = rep.buffers.iter().map(|b| b.time_avg).max().unwrap();
        let ok = rep.completions_in(rat(76, 1), rat(184, 1)) == 120; // 3 periods x 40
        t.row([
            name.to_string(),
            rep.peak_buffer().to_string(),
            f(avg),
            mean_sojourn(&trace).map_or("-".to_string(), f),
            f(rep.wind_down().unwrap()),
            ok.to_string(),
        ]);
    }
    out.push_str(&t.render());
    writeln!(
        out,
        "\nall orders deliver the same steady throughput; interleaving minimizes buffers,"
    )
    .unwrap();
    writeln!(out, "task sojourn times, and the wind-down — the Section 6.3 design goal").unwrap();
    writeln!(out, "(\"consume tasks almost as fast as they receive them\").").unwrap();
    out
}

/// E10 — Section 5's infinite-network remark: `BW-First` brackets the
/// throughput of infinite trees with converging finite-depth bounds.
#[must_use]
pub fn e10_infinite_trees() -> String {
    let mut out = String::new();
    writeln!(out, "E10  throughput bounds for infinite trees vs exploration depth\n").unwrap();
    // Slow CPUs (rate 1/50) force the flow to travel far down the tree, so
    // the exploration depth genuinely matters.
    let chain = InfiniteChain { rate: rat(1, 50), c: rat(1, 1) };
    let kary = InfiniteKary { arity: 2, rate: rat(1, 50), c: rat(3, 1) };
    let mut t = Table::new(["depth", "chain lower", "chain upper", "2-ary lower", "2-ary upper"]);
    for depth in [0usize, 1, 2, 4, 8, 16, 32, 64, 128] {
        let (cl, cu) = throughput_bounds(&chain, depth);
        let (kl, ku) = throughput_bounds(&kary, depth);
        t.row([depth.to_string(), f(cl), f(cu), f(kl), f(ku)]);
    }
    out.push_str(&t.render());
    writeln!(out, "\nbounds collapse geometrically: a finite horizon prices an infinite tree —")
        .unwrap();
    writeln!(out, "the Bataineh & Robertazzi observation the paper cites.").unwrap();
    // Cross-check on a finite platform.
    let p = bwfirst_platform::examples::example_tree();
    let exact = bw_first(&p).throughput();
    let (lo, hi) = throughput_bounds(&bwfirst_core::bwfirst::PlatformSource(&p), p.height() + 1);
    writeln!(out, "finite cross-check (example tree): lower {lo} == exact {exact} == upper {hi}")
        .unwrap();
    out
}

/// E12 — Proposition 4: measured steady-state entry never exceeds the
/// `Σ T^ω` ancestor bound.
#[must_use]
pub fn e12_startup_bounds() -> String {
    let mut t =
        Table::new(["tree", "throughput", "Prop 4 bound", "measured entry", "within bound+W"]);
    let mut all_ok = true;
    let cases: Vec<(String, bwfirst_platform::Platform)> =
        std::iter::once(("example".to_string(), bwfirst_platform::examples::example_tree()))
            .chain((1..=6u64).map(|s| (format!("random-31 #{s}"), tree(31, s))))
            .collect();
    for (name, p) in cases {
        let ss = SteadyState::from_solution(&bw_first(&p));
        if !ss.throughput.is_positive() {
            continue;
        }
        let ev = EventDrivenSchedule::standard(&p, &ss).unwrap();
        let bound = startup::tree_startup_bound(&p, &ev.tree);
        let window = Rat::from_int(synchronous_period(&ss).unwrap());
        let horizon = (Rat::from_int(bound) + window * rat(6, 1)).max(rat(120, 1));
        let cfg = sim_to(horizon);
        let rep = event_driven::simulate(&p, &ev, &cfg).expect("simulate");
        let entry = rep.steady_state_entry(ss.throughput, window, horizon);
        let ok = entry.is_some_and(|e| e <= Rat::from_int(bound) + window);
        all_ok &= ok;
        t.row([
            name,
            f(ss.throughput),
            bound.to_string(),
            entry.map_or("-".to_string(), f),
            ok.to_string(),
        ]);
    }
    let mut out = String::new();
    writeln!(out, "E12  Proposition 4 start-up bounds vs simulated entry into steady state\n")
        .unwrap();
    out.push_str(&t.render());
    writeln!(out, "\nall within bound (+ one measurement window): {all_ok}").unwrap();
    out
}

/// One E15 row: a schedule of a supply tree, exact or quantized.
#[derive(Debug, Clone)]
pub struct QuantizeRow {
    /// The `supply_tree(63, seed)` seed.
    pub seed: u64,
    /// Grid denominator `G`; `None` for the exact schedule.
    pub grid: Option<i128>,
    /// Throughput of the schedule.
    pub throughput: Rat,
    /// Throughput lost relative to the exact schedule, as a fraction of it.
    pub loss: Rat,
    /// `quantize::loss_bound` at this grid (zero for the exact schedule).
    pub loss_bound: Rat,
    /// Largest per-node consuming period `T^ω`.
    pub max_t_omega: i128,
    /// Largest per-node bunch `Ψ`.
    pub max_bunch: i128,
}

/// E15 — rate quantization: collapse lcm-exploded periods onto a `1/G` grid
/// at a provably bounded throughput loss (our extension; see
/// `core::quantize`).
#[must_use]
pub fn quantization_sweep() -> Vec<QuantizeRow> {
    use bwfirst_core::quantize::{loss_bound, quantize};
    let mut rows = Vec::new();
    for seed in [1u64, 3, 4] {
        let p = crate::trees::supply_tree(63, seed);
        let ss = SteadyState::from_solution(&bw_first(&p));
        if !ss.throughput.is_positive() {
            continue;
        }
        let row = |grid: Option<i128>, q: &SteadyState| {
            let sched = bwfirst_core::schedule::TreeSchedule::build(&p, q).unwrap();
            QuantizeRow {
                seed,
                grid,
                throughput: q.throughput,
                loss: (ss.throughput - q.throughput) / ss.throughput,
                loss_bound: grid.map_or(Rat::ZERO, |g| loss_bound(&p, &ss, g)),
                max_t_omega: sched.iter().map(|s| s.t_omega).max().unwrap_or(1),
                max_bunch: sched.iter().map(|s| s.bunch).max().unwrap_or(0),
            }
        };
        rows.push(row(None, &ss));
        for grid in [60i128, 360, 2520] {
            let q = quantize(&p, &ss, grid);
            q.verify(&p).expect("quantized schedule feasible");
            rows.push(row(Some(grid), &q));
        }
    }
    rows
}

/// E15's report: throughput, loss and period size per grid.
#[must_use]
pub fn e15_report(rows: &[QuantizeRow]) -> String {
    let mut out = String::new();
    writeln!(out, "E15  feasible rate quantization vs period explosion\n").unwrap();
    let mut t = Table::new([
        "tree (seed)",
        "grid 1/G",
        "throughput",
        "loss",
        "loss bound",
        "max T^w",
        "max bunch",
    ]);
    for r in rows {
        let (tree, grid, loss, bound) = match r.grid {
            None => (
                format!("supply-63 #{}", r.seed),
                "exact".to_string(),
                "0".to_string(),
                "-".to_string(),
            ),
            Some(g) => (
                String::new(),
                format!("1/{g}"),
                format!("{:.2}%", 100.0 * r.loss.to_f64()),
                f(r.loss_bound),
            ),
        };
        t.row([
            tree,
            grid,
            f(r.throughput),
            loss,
            bound,
            r.max_t_omega.to_string(),
            r.max_bunch.to_string(),
        ]);
    }
    out.push_str(&t.render());
    writeln!(out, "\nquantization keeps every single-port constraint satisfied by construction;")
        .unwrap();
    writeln!(
        out,
        "periods collapse from the lcm scale to at most G while losing < active/G throughput."
    )
    .unwrap();
    out
}
