//! Measures the committed perf baselines (`BENCH_core.json`,
//! `BENCH_sim.json`) and checks them in CI.
//!
//! ```text
//! perf_baseline [--smoke] [--out-dir DIR]
//!     measure every benchmark and (re)write the two BENCH files
//! perf_baseline --check [--smoke]
//!     validate the committed files against the records schema, re-run the
//!     quick benches, and fail on a >2x regression in units of the host
//!     reference (loose on purpose: shared CI hosts are noisy) or on a gated
//!     point missing from either side
//! ```
//!
//! Each file also records `host_reference`: the time of a std-only
//! reference workload ([`bwfirst_bench::calib`]) on the host that wrote
//! it. `--check` divides every timing by the reference of its own host, so
//! a slower or busier host does not read as a regression.
//!
//! Every point pairs a current measurement (`after_ns`) with a comparison
//! point (`before_ns`): either the same measurement taken at the seed commit
//! on the same host (recorded in [`SEED`]), or a runtime toggle re-measured
//! in this very process — the reference `Rat` lanes, the exact `Rat`-keyed
//! event queue, the serial model checker, the unprobed simulation, or the
//! centralized solver against the live negotiation. Toggled pairs are
//! host-independent; seed pairs are only meaningful on a comparable host,
//! which is why `host_threads` is recorded alongside.

use bwfirst_bench::calib::reference_ns;
use bwfirst_bench::records::{bench_from_json, bench_to_json, BenchPoint, BenchReport};
use bwfirst_bench::trees;
use bwfirst_core::schedule::EventDrivenSchedule;
use bwfirst_core::{
    bottom_up, bw_first, quantize, validate_schedule, MonitorExpectations, SteadyState,
};
use bwfirst_obs::{MemoryRecorder, Metrics, Trace};
use bwfirst_platform::examples::example_tree;
use bwfirst_platform::{generators, io, Weight};
use bwfirst_proto::ProtocolSession;
use bwfirst_rational::{rat, reference, Rat};
use bwfirst_sim::{
    event_driven, trace_header, MonitorConfig, MonitorProbe, ObsProbe, ProvenanceProbe, SimConfig,
};
use std::hint::black_box;
use std::num::NonZeroUsize;
use std::time::Instant;

/// Seed-commit measurements (release build, best of 5, this repo's reference
/// host) — the "before" of every point whose baseline names the seed.
const SEED_COMMIT: &str = "seed d221d19 (same host, release)";
const SEED: &[(&str, f64)] = &[
    ("deep_tree_scaling_sweep", 3_582_367.0),
    ("bw_first_open_1023", 29_607.0),
    ("bottom_up_open_1023", 491_944.0),
    ("model_check_7", 389_736_000.0),
    ("simulate_example_100", 14_037_000.0),
    ("simulate_example_10", 1_306_000.0),
    ("simulate_example_gantt_10", 791_000.0),
];

/// `event_schedule_wide_2000` measured by this harness on the commit before
/// the bunch order became implicit, when every node's local schedule listed
/// all `Ψ` of its actions (median of three runs, best of 5 each).
const MATERIALIZED_ORDER: (&str, f64) =
    ("commit 9eb4c45, materialized bunch orders (same host, release)", 4_948_735.0);

/// `platform_parse_131k` measured by this harness on the commit before
/// `io::from_json` gained its one-pass canonical lane, when every parse
/// built a `json::Value` tree and read each node by key (median of 8 runs,
/// best of 5 each, alternated with the runs behind the committed point).
const VALUE_TREE_PARSE: (&str, f64) =
    ("commit e4021d8, json::parse + per-node key lookups (same host, release)", 98_947_098.0);

fn seed_ns(id: &str) -> f64 {
    SEED.iter().find(|(k, _)| *k == id).map_or(f64::NAN, |(_, v)| *v)
}

/// Best-of-`iters` wall time of `f`, in nanoseconds.
fn best_of<F: FnMut()>(iters: u32, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters.max(1) {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_nanos() as f64);
    }
    best
}

/// Best-of-`iters` wall times of `a` and `b`, run alternately so that a
/// noisy phase of the host hits both sides of a toggled pair alike.
fn best_of_pair<A: FnMut(), B: FnMut()>(iters: u32, mut a: A, mut b: B) -> (f64, f64) {
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..iters.max(1) {
        best_a = best_a.min(best_of(1, &mut a));
        best_b = best_b.min(best_of(1, &mut b));
    }
    (best_a, best_b)
}

/// The host's available parallelism, or 1 when the runtime cannot tell.
fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

struct Opts {
    smoke: bool,
    check: bool,
    out_dir: String,
}

fn parse() -> Opts {
    let mut opts = Opts { smoke: false, check: false, out_dir: ".".to_string() };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => opts.smoke = true,
            "--check" => opts.check = true,
            "--out-dir" => opts.out_dir = args.next().unwrap_or_else(|| ".".to_string()),
            other => {
                eprintln!("perf_baseline: unknown argument `{other}`");
                eprintln!("usage: perf_baseline [--smoke] [--check] [--out-dir DIR]");
                std::process::exit(2);
            }
        }
    }
    opts
}

/// The full E6-style solver sweep: both solvers over every (size, slowdown)
/// grid point, counted into `metrics`.
fn scaling_sweep(metrics: &mut Metrics) {
    for &size in &trees::SIZES {
        for slow in [1i128, 4, 16, 64] {
            let p = trees::bottleneck(size, 42, slow);
            black_box(bw_first(&p));
            black_box(bottom_up(&p));
            metrics.add("sweep.trees_solved", 1);
            metrics.add("sweep.nodes_solved", 2 * size as i128);
        }
    }
}

fn measure_core(opts: &Opts, iters: u32) -> BenchReport {
    let mut points = Vec::new();

    // The serial sweep against the seed; the report's metrics are the obs
    // counters of one pass.
    let mut metrics = Metrics::new();
    let sweep_ns = best_of(iters, || {
        metrics = Metrics::new();
        scaling_sweep(&mut metrics);
    });
    points.push(BenchPoint {
        id: "deep_tree_scaling_sweep".to_string(),
        before_ns: seed_ns("deep_tree_scaling_sweep"),
        after_ns: sweep_ns,
        baseline: SEED_COMMIT.to_string(),
        iters,
    });

    // Rat fast lanes vs the reference normalize-always implementation on the
    // η-accumulation shape (many additions with clustered denominators).
    let terms: Vec<Rat> = (1..=400i128).map(|k| rat(k, 1 + k % 7)).collect();
    let fast_ns = best_of(iters.max(3), || {
        let mut acc = Rat::ZERO;
        for &t in &terms {
            acc += t;
        }
        black_box(acc);
    });
    let reference_ns = best_of(iters.max(3), || {
        let mut acc = Rat::ZERO;
        for &t in &terms {
            acc = reference::add(acc, t).expect("reference add");
        }
        black_box(acc);
    });
    points.push(BenchPoint {
        id: "rat_accumulate_400".to_string(),
        before_ns: reference_ns,
        after_ns: fast_ns,
        baseline: "runtime toggle: reference normalize-always Rat lanes".to_string(),
        iters: iters.max(3),
    });

    // Solver kernels on the largest open tree, against the seed numbers.
    let p = trees::bottleneck(1023, 42, 1);
    let bw_ns = best_of(iters.max(5), || {
        black_box(bw_first(&p));
    });
    let bu_ns = best_of(iters.max(5), || {
        black_box(bottom_up(&p));
    });
    points.push(BenchPoint {
        id: "bw_first_open_1023".to_string(),
        before_ns: seed_ns("bw_first_open_1023"),
        after_ns: bw_ns,
        baseline: SEED_COMMIT.to_string(),
        iters: iters.max(5),
    });
    points.push(BenchPoint {
        id: "bottom_up_open_1023".to_string(),
        before_ns: seed_ns("bottom_up_open_1023"),
        after_ns: bu_ns,
        baseline: SEED_COMMIT.to_string(),
        iters: iters.max(5),
    });

    // The schedule layer at scale: the event-driven schedule of a 2000-node
    // wide tree (~90% of nodes active), built and validated; solving stays
    // outside the timed region.
    let p = generators::wide_tree(2000, 1);
    let ss = SteadyState::from_solution(&bw_first(&p));
    let schedule_ns = best_of(iters.max(5), || {
        let ev = EventDrivenSchedule::standard(&p, &ss).expect("wide schedule");
        assert!(validate_schedule(&p, &ss, &ev).is_empty(), "wide schedule validates");
        black_box(ev);
    });
    points.push(BenchPoint {
        id: "event_schedule_wide_2000".to_string(),
        before_ns: MATERIALIZED_ORDER.1,
        after_ns: schedule_ns,
        baseline: MATERIALIZED_ORDER.0.to_string(),
        iters: iters.max(5),
    });

    // The protocol model checker: seed serial run vs its own fan-out at the
    // host's width, at least 4 workers. The smoke run shrinks max_nodes so
    // CI stays fast.
    let max_nodes = if opts.smoke { 5 } else { 7 };
    let check_threads = host_threads().max(4);
    let (serial_check_ns, parallel_check_ns) = best_of_pair(
        iters,
        || {
            black_box(bwfirst_analyze::model::check(max_nodes, 8, 1).messages);
        },
        || {
            let report = bwfirst_analyze::model::check(max_nodes, 8, check_threads);
            assert!(report.violations.is_empty(), "model checker found violations during bench");
            black_box(report.messages);
        },
    );
    if !opts.smoke {
        points.push(BenchPoint {
            id: "model_check_7".to_string(),
            before_ns: seed_ns("model_check_7"),
            after_ns: parallel_check_ns,
            baseline: format!("{SEED_COMMIT}, serial; after: pool of {check_threads}"),
            iters,
        });
    }
    points.push(BenchPoint {
        id: format!("model_check_{max_nodes}_parallel"),
        before_ns: serial_check_ns,
        after_ns: parallel_check_ns,
        baseline: format!("runtime toggle: serial model check, pool of {check_threads}"),
        iters,
    });

    // The platform parse at scale: `io::from_json` on the 131,071-node
    // binary tree `bwfirst generate kary --arity 2 --depth 16` writes.
    let binary = generators::kary_tree(16, 2, Weight::Time(rat(4, 1)), Rat::ONE);
    let text = io::to_json(&binary);
    points.push(BenchPoint {
        id: "platform_parse_131k".to_string(),
        before_ns: VALUE_TREE_PARSE.1,
        after_ns: best_of(iters.max(5), || {
            black_box(io::from_json(&text).expect("parse the binary tree"));
        }),
        baseline: VALUE_TREE_PARSE.0.to_string(),
        iters: iters.max(5),
    });

    // Toggled pairs: one live BW-First negotiation on the session's
    // dispatcher (§5 says its running time is negligible) against the
    // centralized solver on the same tree. Setting up the session stays
    // outside the timed region. A round on the 131,071-node binary tree
    // visits 5 nodes, so both sides cost what the visits cost.
    for (id, p) in [("255", trees::supply_tree(255, 21)), ("131k", binary)] {
        let mut session = ProtocolSession::spawn(&p).expect("set up protocol session");
        let (solve_ns, negotiate_ns) = best_of_pair(
            iters.max(5),
            || {
                black_box(bw_first(&p));
            },
            || {
                black_box(session.negotiate().expect("negotiate"));
            },
        );
        points.push(BenchPoint {
            id: format!("proto_negotiate_{id}"),
            before_ns: solve_ns,
            after_ns: negotiate_ns,
            baseline: "runtime toggle: centralized bw_first on the same tree".to_string(),
            iters: iters.max(5),
        });
    }

    BenchReport {
        suite: "core".to_string(),
        host_threads: host_threads(),
        threads: host_threads(),
        smoke: opts.smoke,
        metrics: metrics.counters.into_iter().collect(),
        points,
    }
}

fn measure_sim(opts: &Opts, iters: u32) -> BenchReport {
    let p = example_tree();
    let ss = SteadyState::from_solution(&bw_first(&p));
    let ev = EventDrivenSchedule::standard(&p, &ss).expect("example schedule");
    let cfg = |periods: i128, exact_queue: bool, gantt: bool| SimConfig {
        horizon: rat(36 * periods, 1),
        stop_injection_at: None,
        total_tasks: None,
        record_gantt: gantt,
        exact_queue,
        seed: 0,
    };
    let run = |cfg: &SimConfig| {
        black_box(event_driven::simulate(&p, &ev, cfg).expect("simulate"));
    };

    let mut points = Vec::new();
    let tick_100 = best_of(iters, || run(&cfg(100, false, false)));
    let exact_100 = best_of(iters, || run(&cfg(100, true, false)));
    points.push(BenchPoint {
        id: "simulate_example_100".to_string(),
        before_ns: seed_ns("simulate_example_100"),
        after_ns: tick_100,
        baseline: SEED_COMMIT.to_string(),
        iters,
    });
    points.push(BenchPoint {
        id: "simulate_example_100_tick_vs_exact".to_string(),
        before_ns: exact_100,
        after_ns: tick_100,
        baseline: "runtime toggle: exact Rat-keyed queue (`exact_queue: true`)".to_string(),
        iters,
    });
    points.push(BenchPoint {
        id: "simulate_example_10".to_string(),
        before_ns: seed_ns("simulate_example_10"),
        after_ns: best_of(iters.max(5), || run(&cfg(10, false, false))),
        baseline: SEED_COMMIT.to_string(),
        iters: iters.max(5),
    });
    points.push(BenchPoint {
        id: "simulate_example_gantt_10".to_string(),
        before_ns: seed_ns("simulate_example_gantt_10"),
        after_ns: best_of(iters.max(5), || run(&cfg(10, false, true))),
        baseline: SEED_COMMIT.to_string(),
        iters: iters.max(5),
    });

    // A heterogeneous tree planned at grid 1/10^4 (the trees e2ebench's
    // `hetero_grid` runs its executors on): the release step's denominator
    // makes the tick scale large, so every event time is a wide integer.
    let hetero = generators::hetero_tree(10, 1);
    let exact = SteadyState::from_solution(&bw_first(&hetero));
    let planned = quantize::quantize(&hetero, &exact, 10_000);
    let hetero_ev = EventDrivenSchedule::standard(&hetero, &planned).expect("hetero schedule");
    let hetero_cfg = |exact_queue: bool| SimConfig {
        horizon: rat(20_000, 1),
        exact_queue,
        ..cfg(0, false, false)
    };
    let (exact_ns, tick_ns) = best_of_pair(
        iters.max(5),
        || {
            black_box(event_driven::simulate(&hetero, &hetero_ev, &hetero_cfg(true)).expect("sim"));
        },
        || {
            black_box(
                event_driven::simulate(&hetero, &hetero_ev, &hetero_cfg(false)).expect("sim"),
            );
        },
    );
    points.push(BenchPoint {
        id: "simulate_hetero10_grid".to_string(),
        before_ns: exact_ns,
        after_ns: tick_ns,
        baseline: "runtime toggle: exact Rat-keyed queue (`exact_queue: true`)".to_string(),
        iters: iters.max(5),
    });

    // Toggled pairs: the plain run vs the same run under one probe, timed
    // alternately so that a noisy phase of the host hits both sides alike.
    let pair_iters = 4 * iters.max(5);
    let cfg_10 = cfg(10, false, false);
    let plain = || run(&cfg_10);
    let mut toggled = |id: &str, baseline: &str, after: &mut dyn FnMut()| {
        let (before_ns, after_ns) = best_of_pair(pair_iters, plain, after);
        points.push(BenchPoint {
            id: id.to_string(),
            before_ns,
            after_ns,
            baseline: format!("runtime toggle: {baseline}"),
            iters: pair_iters,
        });
    };
    // Each probed run is statically dispatched, as in production.
    // Every hook forwarded to a collecting recorder.
    toggled("simulate_example_obs_10", "`ObsProbe` over a `MemoryRecorder`", &mut || {
        let mut rec = MemoryRecorder::new();
        let mut probe = ObsProbe::new(&mut rec);
        black_box(event_driven::simulate_probed(&p, &ev, &cfg_10, &mut probe).expect("sim"));
        black_box(rec.events.len());
    });
    // The full online invariant monitor: single-port + pairing +
    // conservation per event, windowed rate checks against the solver's
    // exact rates.
    let exp = MonitorExpectations::build(&p, &ss, &ev.tree).expect("example expectations");
    let monitor = "online invariant monitor (`MonitorProbe`)";
    toggled("simulate_example_monitor_10", monitor, &mut || {
        let mon_cfg = MonitorConfig::new(rat(36, 1)).with_expectations(exp.clone());
        let mut probe = MonitorProbe::new(p.len(), p.root(), mon_cfg);
        black_box(event_driven::simulate_probed(&p, &ev, &cfg_10, &mut probe).expect("sim"));
        let rep = probe.finish();
        assert!(rep.ok(), "clean run must stay violation-free while benched");
        black_box(rep.windows);
    });
    // Per-task lifecycle records plus the FIFO id-assignment mirrors that
    // feed `bwfirst trace`.
    let provenance = "causal provenance recording (`ProvenanceProbe`)";
    toggled("simulate_example_provenance_10", provenance, &mut || {
        let mut probe = ProvenanceProbe::new(&p, Some(&ev.tree));
        black_box(event_driven::simulate_probed(&p, &ev, &cfg_10, &mut probe).expect("sim"));
        black_box(probe.into_records().len());
    });
    // The whole artifact round trip: the same recording, the
    // `bwfirst-trace/1` text, and its schema-checked parse back.
    let roundtrip = "provenance record + `Trace::to_jsonl` + `Trace::parse`";
    toggled("trace_roundtrip_example_10", roundtrip, &mut || {
        let mut probe = ProvenanceProbe::new(&p, Some(&ev.tree));
        black_box(event_driven::simulate_probed(&p, &ev, &cfg_10, &mut probe).expect("sim"));
        let header = trace_header(&p, Some(&ev.tree), "event", &cfg_10, Some(ss.throughput));
        let text = probe.into_trace(header).to_jsonl();
        black_box(Trace::parse(&text).expect("trace round trip").records.len());
    });

    BenchReport {
        suite: "sim".to_string(),
        host_threads: host_threads(),
        threads: host_threads(),
        smoke: opts.smoke,
        metrics: Vec::new(),
        points,
    }
}

fn print_report(report: &BenchReport) {
    println!(
        "suite {} (host_threads {}, threads {}):",
        report.suite, report.host_threads, report.threads
    );
    for p in &report.points {
        println!(
            "  {:<38} {:>12.0} ns -> {:>12.0} ns  ({:.2}x)  [{}]",
            p.id,
            p.before_ns,
            p.after_ns,
            p.speedup(),
            p.baseline
        );
    }
}

/// The id of the point that records the host reference's time.
const HOST_REFERENCE: &str = "host_reference";

/// Measures both suites, each carrying the host reference timed right
/// before and right after them (the faster of the two).
fn measure(opts: &Opts, iters: u32) -> (BenchReport, BenchReport) {
    let before = reference_ns(5);
    let mut core = measure_core(opts, iters);
    let mut sim = measure_sim(opts, iters);
    let reference = before.min(reference_ns(5));
    for report in [&mut core, &mut sim] {
        report.points.push(BenchPoint {
            id: HOST_REFERENCE.to_string(),
            before_ns: reference,
            after_ns: reference,
            baseline: "std-only reference workload; --check divides timings by it".to_string(),
            iters: 5,
        });
    }
    (core, sim)
}

/// `--check`: schema-validate the committed files; re-run the quick benches
/// and fail when any is more than 2x slower than the committed `after_ns`
/// in units of each side's host reference, or when it (or the reference)
/// is absent from the committed file or the fresh run.
/// The budget is deliberately loose: CI hosts share cores with noisy
/// neighbours, so the gate only catches gross regressions — the committed
/// numbers are the precise record.
fn check(opts: &Opts) -> i32 {
    let mut failed = false;
    let iters = 3;
    let (fresh_core, fresh_sim) = measure(opts, iters);
    // Quick subset: cheap enough for CI, sensitive to the fast paths (the
    // parse point also trips if the canonical lane silently falls back).
    let files = [
        (
            "BENCH_core.json",
            &fresh_core,
            &["deep_tree_scaling_sweep", "rat_accumulate_400", "platform_parse_131k"][..],
        ),
        ("BENCH_sim.json", &fresh_sim, &["simulate_example_10"][..]),
    ];
    for (path, fresh, quick) in files {
        let full = format!("{}/{path}", opts.out_dir);
        let text = match std::fs::read_to_string(&full) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("FAIL {path}: unreadable ({e})");
                failed = true;
                continue;
            }
        };
        let committed = match bench_from_json(&text) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("FAIL {path}: schema violation: {e}");
                failed = true;
                continue;
            }
        };
        println!("ok   {path}: schema valid ({} points)", committed.points.len());
        let (Some(base_ref), Some(now_ref)) =
            (committed.point(HOST_REFERENCE), fresh.point(HOST_REFERENCE))
        else {
            eprintln!("FAIL {path}: gated point `{HOST_REFERENCE}` is missing");
            failed = true;
            continue;
        };
        let host = now_ref.after_ns / base_ref.after_ns;
        println!("ok   {path}: this host runs the reference at {host:.2}x of the committed time");
        for id in quick {
            let (Some(base), Some(now)) = (committed.point(id), fresh.point(id)) else {
                eprintln!("FAIL {path}: gated point `{id}` is missing");
                failed = true;
                continue;
            };
            let ratio = now.after_ns / base.after_ns / host;
            if ratio > 2.0 {
                eprintln!(
                    "FAIL {path}: `{id}` regressed {:.0}% in host-reference units \
                     ({:.0} ns -> {:.0} ns, reference at {host:.2}x)",
                    100.0 * (ratio - 1.0),
                    base.after_ns,
                    now.after_ns
                );
                failed = true;
            } else {
                println!("ok   {path}: `{id}` at {ratio:.2}x of committed baseline (scaled)");
            }
        }
    }
    i32::from(failed)
}

fn main() {
    let opts = parse();
    if opts.check {
        std::process::exit(check(&opts));
    }
    let iters = if opts.smoke { 1 } else { 5 };
    let (core, sim) = measure(&opts, iters);
    print_report(&core);
    print_report(&sim);
    for (name, report) in [("BENCH_core.json", &core), ("BENCH_sim.json", &sim)] {
        let path = format!("{}/{name}", opts.out_dir);
        std::fs::write(&path, bench_to_json(report)).expect("write BENCH file");
        println!("wrote {path}");
    }
}
