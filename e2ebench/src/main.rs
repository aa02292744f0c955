//! End-to-end and per-layer benchmark of the BW-First pipeline.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload fig4_steady --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One single-threaded process drives a closed loop: each op starts after
//! the previous one ends. An op is one user-level step — set a platform up
//! from its JSON text, run an executor, run it under the monitor, or record
//! and round-trip a provenance trace — made of the library calls the CLI
//! makes for it (see `adapter`), each timed from outside. Within a round
//! the op kinds run back to back on each platform, so host drift hits every
//! metric of a workload alike. Every op's output is checked; a panic, a
//! typed error or a failed check counts as a failed op and the run goes on.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` runs each round
//! twice, plain and with spans recorded (alternating which goes first),
//! prints the per-layer metrics and `bench.trace_overhead`, and writes the
//! spans to `e2ebench/out/`.

mod adapter;
mod alloc;
mod calib;
mod inputs;
mod spans;

use adapter::{EventDrivenSchedule, Executor, Platform, SteadyState};
use spans::Tracer;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::Instant;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// The rate grid `1/G` of `bwfirst schedule --grid G`.
const GRID: i128 = 10_000;
/// A set-up sample repeats one platform's set-up until this much time has
/// passed, so no timed sample is a single sub-millisecond call.
const SETUP_SAMPLE_S: f64 = 0.005;

struct Workload {
    name: &'static str,
    /// Plan every platform at grid `1/G` (`hetero_grid`); otherwise the
    /// exact plan is deployed and the grid is only priced.
    plan_on_grid: bool,
    /// A failed set-up is charged this limit plus its elapsed time.
    setup_limit_s: f64,
    /// Executor ops run at least this many time units, and past the
    /// Proposition 4 start-up bound unless `short_horizon` is set.
    min_horizon: i128,
    /// Horizon of every executor op when it stops short of the start-up
    /// bound; one event-driven run per platform then checks the steady rate.
    short_horizon: Option<i128>,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "fig4_steady",
        plan_on_grid: false,
        setup_limit_s: 1.0,
        min_horizon: 36_000,
        short_horizon: None,
    },
    Workload {
        name: "wide_exact",
        plan_on_grid: false,
        setup_limit_s: 1.0,
        min_horizon: 0,
        short_horizon: Some(4_096),
    },
    Workload {
        name: "hetero_grid",
        plan_on_grid: true,
        setup_limit_s: 1.0,
        min_horizon: 100_000,
        short_horizon: None,
    },
];

const WIDE_SIZE: usize = 2000;
const WIDE_TREES: u64 = 6;
/// `hetero_grid` sizes. The exact `bw_first` (and `quantize` on its output)
/// overflows `i128` on some of these trees from about 24 nodes on (7 of
/// 1000 at n = 24, none of 12000 at n = 20). The sizes stop at 20 so that no
/// op of this workload fails.
const HETERO_SIZES: [usize; 3] = [10, 15, 20];
const HETERO_SEEDS_PER_SIZE: u64 = 4;
/// The `hetero_grid` trees that also run the executors.
const HETERO_EXECUTOR_SIZE: usize = 10;
const HETERO_EXECUTOR_TREES: u64 = 2;

struct Input {
    json: Rc<str>,
    run_executors: bool,
    /// The platform's first round: run the start-up check if the
    /// executor ops stop short of the start-up bound.
    first_use: bool,
}

fn round_inputs(w: &Workload, seed: u64, round: u64, fixed: &[Rc<str>]) -> Vec<Input> {
    match w.name {
        "hetero_grid" => HETERO_SIZES
            .iter()
            .flat_map(|&n| {
                (0..HETERO_SEEDS_PER_SIZE).map(move |k| Input {
                    json: inputs::hetero_tree(inputs::mix(&[seed, round, n as u64, k]), n).into(),
                    run_executors: n == HETERO_EXECUTOR_SIZE && k < HETERO_EXECUTOR_TREES,
                    first_use: true,
                })
            })
            .collect(),
        _ => vec![Input {
            json: fixed[(round % fixed.len() as u64) as usize].clone(),
            run_executors: true,
            first_use: round < fixed.len() as u64,
        }],
    }
}

fn fixed_inputs(w: &Workload, seed: u64) -> Vec<Rc<str>> {
    match w.name {
        "fig4_steady" => vec![adapter::example_tree_json().into()],
        "wide_exact" => (0..WIDE_TREES)
            .map(|k| inputs::wide_tree(inputs::mix(&[seed, k]), WIDE_SIZE).into())
            .collect(),
        _ => Vec::new(),
    }
}

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Class {
    Panic,
    Error,
    Check,
}

struct Failure {
    class: Class,
    layer: &'static str,
    detail: String,
}

fn error(layer: &'static str) -> impl FnOnce(String) -> Failure {
    move |detail| Failure { class: Class::Error, layer, detail }
}

fn check(ok: bool, layer: &'static str, detail: impl FnOnce() -> String) -> Result<(), Failure> {
    if ok {
        Ok(())
    } else {
        Err(Failure { class: Class::Check, layer, detail: detail() })
    }
}

/// Everything one pass over the rounds measured.
#[derive(Default)]
struct Acc {
    attempted: u64,
    failed: u64,
    failures: BTreeMap<(Class, &'static str), (u64, String)>,
    setup_s: Vec<f64>,
    /// Scaled tasks per second of every op, by kind and variant.
    rates: BTreeMap<(&'static str, &'static str), Vec<f64>>,
    /// `(kind, variant, tasks, seconds)` of the op in progress.
    pending: Vec<(&'static str, &'static str, u64, f64)>,
    rate_ratio: Vec<f64>,
    grid_loss: Vec<f64>,
    peak_heap_mb: Vec<f64>,
    /// Per-layer samples, by metric name.
    layer: BTreeMap<&'static str, Vec<f64>>,
}

impl Acc {
    fn sample(&mut self, name: &'static str, v: f64) {
        self.layer.entry(name).or_default().push(v);
    }

    /// Records one op's rate; [`timed_op`] scales it once the op ends.
    fn rate(&mut self, kind: &'static str, variant: &'static str, tasks: u64, secs: f64) {
        self.pending.push((kind, variant, tasks, secs));
    }

    /// A kind's rate: the harmonic mean over its variants of each variant's
    /// upper quartile, i.e. tasks per second if every variant ran equal
    /// work. Contention from other tenants only ever slows an op, and the
    /// reference scaling corrects only part of it, so the upper quartile of
    /// the scaled rates tracks the least-contended part of each run, which
    /// every run has; the median tracks how much contention the run met.
    fn kind_rate(&self, kind: &str) -> f64 {
        let quartiles: Vec<f64> = self
            .rates
            .iter()
            .filter(|((k, _), _)| *k == kind)
            .map(|(_, v)| upper_quartile(v))
            .collect();
        if quartiles.is_empty() {
            return 0.0;
        }
        quartiles.len() as f64 / quartiles.iter().map(|q| 1.0 / q).sum::<f64>()
    }
}

/// Runs one op: counts it, catches panics, records any failure.
fn op<T>(
    acc: &mut Acc,
    tr: &mut Tracer,
    name: &'static str,
    f: impl FnOnce(&mut Tracer, &mut Acc) -> Result<T, Failure>,
) -> Option<T> {
    acc.attempted += 1;
    tr.begin_op(name);
    let out = catch_unwind(AssertUnwindSafe(|| f(tr, acc)));
    tr.end_op();
    let failure = match out {
        Ok(Ok(v)) => return Some(v),
        Ok(Err(f)) => f,
        Err(payload) => {
            let detail = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            Failure { class: Class::Panic, layer: tr.current, detail }
        }
    };
    acc.failed += 1;
    let e = acc.failures.entry((failure.class, failure.layer)).or_insert((0, failure.detail));
    e.0 += 1;
    None
}

/// An [`op`] whose rates are scaled by the host-speed reference timed
/// right before and right after it.
fn timed_op(
    acc: &mut Acc,
    tr: &mut Tracer,
    name: &'static str,
    f: impl FnOnce(&mut Tracer, &mut Acc) -> Result<(), Failure>,
) {
    let before = calib::reference_secs();
    op(acc, tr, name, f);
    if acc.pending.is_empty() {
        return;
    }
    let reference = (before + calib::reference_secs()) / 2.0;
    for (kind, variant, tasks, secs) in std::mem::take(&mut acc.pending) {
        let scaled = calib::scale(secs, reference);
        acc.rates.entry((kind, variant)).or_default().push(tasks as f64 / scaled);
    }
}

/// A validated, ready-to-run schedule and what the executors need.
struct Plan {
    p: Platform,
    exact: SteadyState,
    ss: SteadyState,
    ev: EventDrivenSchedule,
    exp: Option<adapter::MonitorExpectations>,
    period: i128,
    startup: i128,
}

/// JSON text → validated schedule, the steps `bwfirst schedule [--grid G]`
/// and `bwfirst validate [--grid G]` take. Only the first repetition of a
/// set-up sample (`record`) records per-layer samples.
fn set_up(
    w: &Workload,
    tr: &mut Tracer,
    acc: &mut Acc,
    json: &str,
    record: bool,
) -> Result<Plan, Failure> {
    let sample = |acc: &mut Acc, name, v| {
        if record {
            acc.sample(name, v);
        }
    };
    let (p, _) = tr.call("platform.io.parse", || adapter::parse_platform(json));
    let p = p.map_err(error("platform.io"))?;
    let (sol, _) = tr.call("core.bwfirst.solve", || adapter::solve(&p));
    let (visited, messages) = adapter::solution_counts(&sol);
    sample(acc, "core.bwfirst.visited_frac", visited as f64 / p.len() as f64);
    sample(acc, "core.bwfirst.messages", messages as f64);
    if w.name == "fig4_steady" {
        let got = adapter::solution_summary(&sol);
        let want = adapter::example_expectations();
        check(got == want, "core.bwfirst", || format!("fig4 solved to {got:?}, want {want:?}"))?;
    }
    let (exact, _) = tr.call("core.steady_state.from_solution", || adapter::steady_state(&sol));
    check(adapter::is_positive(&exact), "core.bwfirst", || "zero throughput".into())?;
    let ss = if w.plan_on_grid {
        let ((q, bound), _) =
            tr.call("core.quantize.quantize", || adapter::quantize(&p, &exact, GRID));
        let (loss, ok) = adapter::grid_loss(&exact, &q, bound);
        check(ok, "core.quantize", || format!("quantized loss {loss} breaks its bound"))?;
        if record {
            acc.grid_loss.push(loss);
        }
        sample(acc, "core.quantize.loss_bound", adapter::relative(bound, &exact));
        q
    } else {
        exact.clone()
    };
    let (ev, _) = tr.call("core.schedule.build", || adapter::build_schedule(&p, &ss));
    let ev = ev.map_err(error("core.schedule"))?;
    let (violations, _) = tr.call("core.validate.validate", || adapter::validate(&p, &ss, &ev));
    sample(acc, "core.validate.violations", violations as f64);
    check(violations == 0, "core.validate", || format!("{violations} schedule violation(s)"))?;
    let (exp, _) = tr.call("core.expectations.build", || adapter::expectations(&p, &ss, &ev));
    check(exp.is_some(), "core.expectations", || "no expectations for the root".into())?;
    let period = adapter::sync_period(&ss).map_err(error("core.schedule"))?;
    let startup = adapter::startup_bound(&p, &ev);
    let (actions, t_omega) = adapter::schedule_size(&ev);
    sample(acc, "core.schedule.slot_actions", actions as f64);
    sample(acc, "core.schedule.max_t_omega", t_omega as f64);
    Ok(Plan { p, exact, ss, ev, exp, period, startup })
}

/// The set-up op. Repeats a successful set-up until the sample is long
/// enough to time; a failed one is charged the workload's limit.
fn setup_op(w: &Workload, tr: &mut Tracer, acc: &mut Acc, json: &str) -> Option<Plan> {
    let before = calib::reference_secs();
    let t0 = Instant::now();
    let mut reps = 0u32;
    loop {
        let plan = op(acc, tr, "setup", |tr, acc| set_up(w, tr, acc, json, reps == 0));
        reps += 1;
        let elapsed = t0.elapsed().as_secs_f64();
        if plan.is_none() || elapsed >= SETUP_SAMPLE_S {
            // A sample counts as one op however often it repeated.
            acc.attempted -= u64::from(reps - 1);
        }
        match plan {
            None => {
                let reference = (before + calib::reference_secs()) / 2.0;
                acc.setup_s.push(w.setup_limit_s + calib::scale(elapsed, reference));
                return None;
            }
            Some(plan) if elapsed >= SETUP_SAMPLE_S => {
                let reference = (before + calib::reference_secs()) / 2.0;
                acc.setup_s.push(calib::scale(elapsed, reference) / f64::from(reps));
                return Some(plan);
            }
            Some(_) => {}
        }
    }
}

/// Sizes the exact plan and prices the grid: on grid-planned workloads the
/// exact rates' `ΣΨ` (periods only, nothing materialised); on exact ones
/// the throughput a `1/G` grid would give up.
fn size_op(w: &Workload, tr: &mut Tracer, acc: &mut Acc, plan: &Plan) {
    op(acc, tr, "size", |tr, acc| {
        if w.plan_on_grid {
            let (tree, _) = tr
                .call("core.schedule.build_exact", || adapter::tree_schedule(&plan.p, &plan.exact));
            let tree = tree.map_err(error("core.schedule"))?;
            acc.sample(
                "core.schedule.exact_slot_actions_log10",
                adapter::slot_actions_log10(&tree),
            );
        } else {
            acc.sample(
                "core.schedule.exact_slot_actions_log10",
                (adapter::schedule_size(&plan.ev).0 as f64).log10(),
            );
            let ((q, bound), _) =
                tr.call("core.quantize.quantize", || adapter::quantize(&plan.p, &plan.exact, GRID));
            let (loss, ok) = adapter::grid_loss(&plan.exact, &q, bound);
            check(ok, "core.quantize", || format!("quantized loss {loss} breaks its bound"))?;
            acc.grid_loss.push(loss);
            acc.sample("core.quantize.loss_bound", adapter::relative(bound, &plan.exact));
        }
        Ok(())
    });
}

/// Seconds per task of each executor's plain run, for the probe pairs.
type PlainCost = BTreeMap<&'static str, f64>;

/// Span and metric names of one executor's layer.
struct SimNames {
    run: &'static str,
    busy: &'static str,
    tasks: &'static str,
    allocs: &'static str,
    peak: &'static str,
}

fn sim_names(ex: Executor) -> SimNames {
    match ex {
        Executor::Event => SimNames {
            run: "sim.event_driven.run",
            busy: "sim.event_driven.busy_s",
            tasks: "sim.event_driven.tasks",
            allocs: "sim.event_driven.allocs_per_task",
            peak: "sim.event_driven.peak_buffer",
        },
        Executor::Clocked => SimNames {
            run: "sim.clocked.run",
            busy: "sim.clocked.busy_s",
            tasks: "sim.clocked.tasks",
            allocs: "sim.clocked.allocs_per_task",
            peak: "sim.clocked.peak_buffer",
        },
        Executor::Demand | Executor::DemandInterruptible => SimNames {
            run: "sim.demand_driven.run",
            busy: "sim.demand_driven.busy_s",
            tasks: "sim.demand_driven.tasks",
            allocs: "sim.demand_driven.allocs_per_task",
            peak: "sim.demand_driven.peak_buffer",
        },
    }
}

fn horizons(w: &Workload, plan: &Plan) -> (i128, i128, i128) {
    let t = plan.period;
    let steady_from = (plan.startup + t - 1) / t * t;
    let event = (steady_from + 2 * t).max((w.min_horizon + t - 1) / t * t);
    let other = w.short_horizon.unwrap_or(event);
    (steady_from, event, other)
}

/// Checks that event-driven completions over the whole synchronous periods
/// between the start-up bound and the horizon match the solver's
/// throughput exactly.
fn steady_rate(
    acc: &mut Acc,
    plan: &Plan,
    rep: &adapter::SimReport,
    steady_from: i128,
    horizon: i128,
) -> Result<(), Failure> {
    let periods = (horizon - steady_from) / plan.period;
    let ratio = adapter::rate_ratio(rep, &plan.ss, steady_from, plan.period, periods);
    check(ratio == 1.0, "sim.event_driven", || format!("steady rate ratio {ratio}"))?;
    acc.rate_ratio.push(ratio);
    Ok(())
}

/// What the executor ops of one plan share.
struct Runs<'a> {
    plan: &'a Plan,
    seed: u64,
    steady_from: i128,
    event_h: i128,
    other_h: i128,
    /// Seconds per task of each executor's latest plain run, for the
    /// monitor and provenance pairs.
    plain: PlainCost,
}

impl Runs<'_> {
    /// `bwfirst simulate`: one executor, no probe.
    fn plain_op(&mut self, tr: &mut Tracer, acc: &mut Acc, ex: Executor) {
        let plan = self.plan;
        let cfg = adapter::sim_config(self.other_h, self.seed);
        let names = sim_names(ex);
        let steady = ex == Executor::Event && self.other_h == self.event_h;
        let (steady_from, horizon) = (self.steady_from, self.other_h);
        let plain = &mut self.plain;
        timed_op(acc, tr, "simulate", |tr, acc| {
            let (rep, cost) = tr.call(names.run, || adapter::simulate(ex, &plan.p, &plan.ev, &cfg));
            let rep = rep.map_err(error(ex.layer()))?;
            let tasks = adapter::tasks(&rep);
            check(tasks > 0, ex.layer(), || "no task computed".into())?;
            if steady {
                steady_rate(acc, plan, &rep, steady_from, horizon)?;
            }
            plain.insert(ex.protocol(), cost.secs / tasks as f64);
            acc.sample(names.tasks, tasks as f64);
            acc.sample(names.allocs, cost.allocs as f64 / tasks as f64);
            acc.sample(names.peak, adapter::peak_buffer(&rep) as f64);
            let kind = if ex.strict() { ex.protocol() } else { "demand" };
            acc.rate(kind, ex.protocol(), tasks, cost.secs);
            Ok(())
        });
    }

    /// An event-driven run past the Proposition 4 start-up bound, for
    /// workloads whose executor ops stop short of it.
    fn steady_op(&mut self, tr: &mut Tracer, acc: &mut Acc) {
        let plan = self.plan;
        let cfg = adapter::sim_config(self.event_h, self.seed);
        let (steady_from, horizon) = (self.steady_from, self.event_h);
        op(acc, tr, "steady", |tr, acc| {
            let ex = Executor::Event;
            let (rep, _) = tr
                .call("sim.event_driven.steady", || adapter::simulate(ex, &plan.p, &plan.ev, &cfg));
            let rep = rep.map_err(error(ex.layer()))?;
            steady_rate(acc, plan, &rep, steady_from, horizon)
        });
    }

    /// `bwfirst monitor`: one executor under the monitor, snapshots rendered.
    fn monitor_op(&mut self, tr: &mut Tracer, acc: &mut Acc, ex: Executor) {
        let plan = self.plan;
        let cfg = adapter::sim_config(self.other_h, self.seed);
        let window = plan.period;
        let warmup = ((plan.startup + window - 1) / window).max(2);
        let plain = &self.plain;
        timed_op(acc, tr, "monitor", |tr, acc| {
            let (m, run) = tr.call("sim.monitor.run", || {
                adapter::monitor(ex, &plan.p, &plan.ev, &cfg, window, warmup, plan.exp.clone())
            });
            let (snap, render) = tr.call("obs.snapshots.render", || adapter::render_snapshots(&m));
            let rep = m.report.as_ref().map_err(|e| error(ex.layer())(e.clone()))?;
            check(m.violations == 0, "sim.monitor", || format!("{} violation(s)", m.violations))?;
            check(snap.lines().count() == m.snapshots, "obs.snapshots", || {
                "snapshot count".into()
            })?;
            let tasks = adapter::tasks(rep);
            if let Some(base) = plain.get(ex.protocol()) {
                acc.sample("sim.monitor.self_s", run.secs - base * tasks as f64);
            }
            acc.sample("sim.monitor.allocs_per_task", run.allocs as f64 / tasks as f64);
            acc.sample("sim.monitor.windows", m.windows as f64);
            acc.sample("sim.monitor.violations", m.violations as f64);
            acc.sample("obs.snapshots.bytes", snap.len() as f64);
            acc.rate("monitored", ex.protocol(), tasks, run.secs + render.secs);
            Ok(())
        });
    }

    /// `bwfirst trace record`, plus the artifact's parse round trip.
    fn trace_op(&mut self, tr: &mut Tracer, acc: &mut Acc, ex: Executor) {
        let plan = self.plan;
        let horizon = self.other_h;
        let cfg = adapter::sim_config(horizon, self.seed);
        let plain = &self.plain;
        timed_op(acc, tr, "trace", |tr, acc| {
            let ((rep, trace), rec) = tr.call("sim.provenance.run", || {
                adapter::record_trace(ex, &plan.p, &plan.ev, &plan.ss, &cfg)
            });
            let rep = rep.map_err(error(ex.layer()))?;
            let (text, out) = tr.call("obs.causal.to_jsonl", || adapter::trace_to_jsonl(&trace));
            let (back, parse) = tr.call("obs.causal.parse", || adapter::parse_trace(&text));
            let back = back.map_err(error("obs.causal"))?;
            check(back == trace, "obs.causal", || "trace does not round-trip".into())?;
            check(adapter::trace_conserves(&trace, &rep, horizon), "sim.provenance", || {
                "trace does not conserve tasks".into()
            })?;
            let tasks = adapter::tasks(&rep);
            if let Some(base) = plain.get(ex.protocol()) {
                acc.sample("sim.provenance.self_s", rec.secs - base * tasks as f64);
            }
            acc.sample("sim.provenance.records", adapter::trace_len(&trace) as f64);
            acc.sample("sim.provenance.allocs_per_task", rec.allocs as f64 / tasks as f64);
            acc.sample("obs.causal.bytes", text.len() as f64);
            acc.rate("traced", ex.protocol(), tasks, rec.secs + out.secs + parse.secs);
            Ok(())
        });
    }
}

/// The executor ops of one plan. The cheap plain runs repeat before each
/// probed op, so they sample the whole round and pair with the probed run
/// that follows them.
fn executor_ops(
    w: &Workload,
    tr: &mut Tracer,
    acc: &mut Acc,
    plan: &Plan,
    seed: u64,
    first_use: bool,
) {
    let (steady_from, event_h, other_h) = horizons(w, plan);
    let mut runs = Runs { plan, seed, steady_from, event_h, other_h, plain: PlainCost::new() };
    if other_h != event_h && first_use {
        runs.steady_op(tr, acc);
    }
    let plain =
        [Executor::Event, Executor::Clocked, Executor::Demand, Executor::DemandInterruptible];
    let probed: [(bool, Executor); 5] = [
        (true, Executor::Event),
        (true, Executor::Clocked),
        (true, Executor::Demand),
        (false, Executor::Event),
        (false, Executor::Clocked),
    ];
    for (monitored, ex) in probed {
        for p in plain {
            runs.plain_op(tr, acc, p);
        }
        if monitored {
            runs.monitor_op(tr, acc, ex);
        } else {
            runs.trace_op(tr, acc, ex);
        }
    }
}

/// One pass over a round's inputs.
fn run_round(w: &Workload, tr: &mut Tracer, acc: &mut Acc, inputs: &[Input], seed: u64) {
    for input in inputs {
        let base = alloc::live();
        alloc::reset_peak();
        let Some(plan) = setup_op(w, tr, acc, &input.json) else { continue };
        size_op(w, tr, acc, &plan);
        if input.run_executors {
            executor_ops(w, tr, acc, &plan, seed, input.first_use);
            acc.peak_heap_mb.push(alloc::peak().saturating_sub(base) as f64 / 1e6);
        }
    }
}

fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

fn upper_quartile(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s.get(s.len() * 3 / 4).copied().unwrap_or(0.0)
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .ok_or_else(|| format!("missing {flag} <value>"))
    };
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?.parse().map_err(|_| format!("{flag} needs a whole number"))
    };
    Ok(Args {
        workload: get("--workload")?.clone(),
        seed: num("--seed")?,
        seconds: num("--seconds")? as f64,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other}")),
        },
    })
}

fn metric(name: &str, value: f64, unit: &str) -> String {
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
}

fn end_to_end(acc: &Acc) -> Vec<String> {
    let ok = (acc.attempted - acc.failed) as f64 / acc.attempted as f64;
    let rate = |k: &str| acc.kind_rate(k);
    vec![
        metric("setup_s", median(&acc.setup_s), "s"),
        metric("ok_frac", ok, "ratio"),
        metric("event_tasks_per_s", rate("event"), "1/s"),
        metric("clocked_tasks_per_s", rate("clocked"), "1/s"),
        metric("demand_tasks_per_s", rate("demand"), "1/s"),
        metric("monitored_tasks_per_s", rate("monitored"), "1/s"),
        metric("traced_tasks_per_s", rate("traced"), "1/s"),
        metric("rate_ratio", mean(&acc.rate_ratio), "ratio"),
        metric("grid_loss", mean(&acc.grid_loss), "ratio"),
        metric("peak_heap_mb", median(&acc.peak_heap_mb), "MB"),
    ]
}

/// Per-layer metrics: times from the spans' self times, counts from the
/// samples the ops recorded. Each is the median over the calls made.
fn per_layer(acc: &Acc, tr: &Tracer, overhead: f64) -> Vec<String> {
    let selfs = tr.self_times();
    let time = |span: &str| median(selfs.get(span).map_or(&[][..], Vec::as_slice));
    let count = |name: &str| median(acc.layer.get(name).map_or(&[][..], Vec::as_slice));
    let total = |name: &str| acc.layer.get(name).map_or(0.0, |v| v.iter().sum());
    let bw_failures = acc
        .failures
        .iter()
        .filter(|((_, layer), _)| layer.starts_with("core.bwfirst"))
        .map(|(_, (n, _))| *n)
        .sum::<u64>();
    let mut out = vec![
        metric("platform.io.parse_s", time("platform.io.parse"), "s"),
        metric("core.bwfirst.solve_s", time("core.bwfirst.solve"), "s"),
        metric("core.bwfirst.visited_frac", count("core.bwfirst.visited_frac"), "ratio"),
        metric("core.bwfirst.messages", count("core.bwfirst.messages"), "count"),
        metric("core.bwfirst.failures", bw_failures as f64, "count"),
        metric("core.quantize.quantize_s", time("core.quantize.quantize"), "s"),
        metric("core.quantize.loss_bound", count("core.quantize.loss_bound"), "ratio"),
        metric("core.schedule.build_s", time("core.schedule.build"), "s"),
        metric("core.schedule.slot_actions", count("core.schedule.slot_actions"), "count"),
        metric("core.schedule.max_t_omega", count("core.schedule.max_t_omega"), "count"),
        metric(
            "core.schedule.exact_slot_actions_log10",
            count("core.schedule.exact_slot_actions_log10"),
            "log10",
        ),
        metric("core.validate.validate_s", time("core.validate.validate"), "s"),
        metric("core.validate.violations", total("core.validate.violations"), "count"),
        metric("core.expectations.build_s", time("core.expectations.build"), "s"),
    ];
    for ex in [Executor::Event, Executor::Clocked, Executor::Demand] {
        let n = sim_names(ex);
        out.push(metric(n.busy, time(n.run), "s"));
        out.push(metric(n.tasks, count(n.tasks), "count"));
        out.push(metric(n.allocs, count(n.allocs), "count"));
        out.push(metric(n.peak, count(n.peak), "count"));
    }
    out.extend([
        metric("sim.monitor.self_s", count("sim.monitor.self_s"), "s"),
        metric("sim.monitor.allocs_per_task", count("sim.monitor.allocs_per_task"), "count"),
        metric("sim.monitor.windows", count("sim.monitor.windows"), "count"),
        metric("sim.monitor.violations", total("sim.monitor.violations"), "count"),
        metric("sim.provenance.self_s", count("sim.provenance.self_s"), "s"),
        metric("sim.provenance.records", count("sim.provenance.records"), "count"),
        metric("sim.provenance.allocs_per_task", count("sim.provenance.allocs_per_task"), "count"),
        metric("obs.causal.to_jsonl_s", time("obs.causal.to_jsonl"), "s"),
        metric("obs.causal.parse_s", time("obs.causal.parse"), "s"),
        metric("obs.causal.bytes", count("obs.causal.bytes"), "bytes"),
        metric("obs.snapshots.render_s", time("obs.snapshots.render"), "s"),
        metric("obs.snapshots.bytes", count("obs.snapshots.bytes"), "bytes"),
        metric("bench.trace_overhead", overhead, "ratio"),
    ]);
    out
}

fn report_failures(acc: &Acc) {
    for ((class, layer), (n, detail)) in &acc.failures {
        eprintln!("failed: {n:>6} x {class:?} in {layer} (first: {detail})");
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!("usage: e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let Some(w) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        eprintln!("e2ebench: unknown workload {:?}", args.workload);
        std::process::exit(2);
    };
    std::panic::set_hook(Box::new(|_| {}));

    let fixed = fixed_inputs(w, args.seed);
    let mut tr = Tracer::new();
    let mut acc = Acc::default();
    let mut scratch = Acc::default();
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    let start = Instant::now();
    let mut round = 0u64;
    while round == 0 || start.elapsed().as_secs_f64() < args.seconds {
        let inputs = round_inputs(w, args.seed, round, &fixed);
        if args.trace {
            // Both passes see the same inputs; alternate which runs first.
            let odd = round % 2 == 1;
            for traced in [odd, !odd] {
                tr.enabled = traced;
                let t0 = Instant::now();
                run_round(
                    w,
                    &mut tr,
                    if traced { &mut acc } else { &mut scratch },
                    &inputs,
                    args.seed,
                );
                *(if traced { &mut traced_s } else { &mut plain_s }) += t0.elapsed().as_secs_f64();
            }
        } else {
            run_round(w, &mut tr, &mut acc, &inputs, args.seed);
        }
        round += 1;
    }

    report_failures(&acc);
    let metrics = if args.trace {
        let dir = std::path::Path::new("e2ebench/out");
        let path = dir.join(format!("spans-{}-seed{}.jsonl", w.name, args.seed));
        if let Err(e) =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tr.to_jsonl()))
        {
            eprintln!("e2ebench: could not write {}: {e}", path.display());
        }
        per_layer(&acc, &tr, traced_s / plain_s)
    } else {
        end_to_end(&acc)
    };
    eprintln!("rounds: {round}, ops: {} attempted, {} failed", acc.attempted, acc.failed);
    for ((kind, variant), v) in &acc.rates {
        let (lo, hi) = v.iter().fold((f64::MAX, 0.0f64), |(l, h), &x| (l.min(x), h.max(x)));
        eprintln!(
            "{kind:>10} {variant:<10} scaled tasks/s: upper quartile {:.0} of {}, range {lo:.0}..{hi:.0}",
            upper_quartile(v),
            v.len()
        );
    }
    let correct = !acc.failures.keys().any(|(class, _)| *class == Class::Check);
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        acc.attempted,
        acc.failed,
        metrics.join(",")
    );
}
