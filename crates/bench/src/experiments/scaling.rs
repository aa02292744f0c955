//! E1, E6, E9, E10, E12: scaling and correctness sweeps.

use crate::table::Table;
use crate::trees::{bottleneck, f, fork, tree, SIZES};
use bwfirst_core::fork::ForkChild;
use bwfirst_core::lazy::{throughput_bounds, InfiniteChain, InfiniteKary};
use bwfirst_core::schedule::{synchronous_period, EventDrivenSchedule, LocalScheduleKind};
use bwfirst_core::{bottom_up, bw_first, fork_equivalent_rate, startup, SteadyState};
use bwfirst_rational::{rat, Rat};
use bwfirst_sim::{event_driven, SimConfig, SimReport};
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

/// E6 — Section 5's efficiency claim: under bandwidth bottlenecks,
/// `BW-First` touches only the feedable part of the tree while the
/// bottom-up reduction processes every edge.
#[must_use]
pub fn e6_visits() -> String {
    let mut t = Table::new([
        "nodes",
        "root-link slowdown",
        "throughput",
        "BW-First visits",
        "BW-First msgs",
        "bottom-up edges",
        "visit ratio",
    ]);
    for &size in &SIZES {
        for slow in [1i128, 4, 16, 64] {
            let p = bottleneck(size, 42, slow);
            let sol = bw_first(&p);
            let bu = bottom_up(&p);
            assert_eq!(sol.throughput(), bu.throughput, "solvers disagree");
            t.row([
                size.to_string(),
                format!("x{slow}"),
                f(sol.throughput()),
                sol.visit_count().to_string(),
                (sol.message_count() + 2).to_string(),
                bu.children_processed.to_string(),
                format!("{:.2}", sol.visit_count() as f64 / size as f64),
            ]);
        }
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

fn peak_buffer(rep: &SimReport) -> u64 {
    rep.buffers.iter().map(|b| b.max).max().unwrap_or(0)
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
        let cfg = SimConfig {
            horizon: rat(300, 1),
            stop_injection_at: Some(rat(200, 1)),
            total_tasks: None,
            record_gantt: false,
            exact_queue: false,
            seed: 0,
        };
        let rep = event_driven::simulate(&p, &ev, &cfg).expect("simulate");
        let avg = rep.buffers.iter().map(|b| b.time_avg).max().unwrap();
        let ok = rep.completions_in(rat(76, 1), rat(184, 1)) == 120; // 3 periods x 40
        t.row([
            name.to_string(),
            peak_buffer(&rep).to_string(),
            f(avg),
            rep.mean_latency().map_or("-".to_string(), f),
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
        let cfg = SimConfig {
            horizon,
            stop_injection_at: None,
            total_tasks: None,
            record_gantt: false,
            exact_queue: false,
            seed: 0,
        };
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

/// E15 — rate quantization: collapse lcm-exploded periods onto a `1/G` grid
/// at a provably bounded throughput loss (our extension; see
/// `core::quantize`).
#[must_use]
pub fn e15_quantization() -> String {
    use bwfirst_core::quantize::{loss_bound, quantize};
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
    for seed in [1u64, 3, 4] {
        let p = crate::trees::supply_tree(63, seed);
        let ss = SteadyState::from_solution(&bw_first(&p));
        if !ss.throughput.is_positive() {
            continue;
        }
        let exact_sched = bwfirst_core::schedule::TreeSchedule::build(&p, &ss).unwrap();
        let max_omega = exact_sched.iter().map(|s| s.t_omega).max().unwrap_or(1);
        let max_bunch = exact_sched.iter().map(|s| s.bunch).max().unwrap_or(0);
        t.row([
            format!("supply-63 #{seed}"),
            "exact".to_string(),
            f(ss.throughput),
            "0".to_string(),
            "-".to_string(),
            max_omega.to_string(),
            max_bunch.to_string(),
        ]);
        for grid in [60i128, 360, 2520] {
            let q = quantize(&p, &ss, grid);
            q.verify(&p).expect("quantized schedule feasible");
            let sched = bwfirst_core::schedule::TreeSchedule::build(&p, &q).unwrap();
            let max_omega = sched.iter().map(|s| s.t_omega).max().unwrap_or(1);
            let max_bunch = sched.iter().map(|s| s.bunch).max().unwrap_or(0);
            let loss = ss.throughput - q.throughput;
            t.row([
                String::new(),
                format!("1/{grid}"),
                f(q.throughput),
                format!("{:.2}%", 100.0 * (loss / ss.throughput).to_f64()),
                f(loss_bound(&p, &ss, grid)),
                max_omega.to_string(),
                max_bunch.to_string(),
            ]);
        }
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
