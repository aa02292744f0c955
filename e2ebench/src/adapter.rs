//! The one place the benchmark calls into the program.
//!
//! Every function here is a thin pass-through to the public library call
//! the `bwfirst` CLI makes for the same step, in the same order. The rest
//! of the benchmark sees only these functions and the re-exported types,
//! so a refactor of the executors or their registry edits this file alone.

use bwfirst_core::schedule::{synchronous_period, TreeSchedule};
use bwfirst_core::{quantize, startup, validate_schedule};
use bwfirst_obs::causal::{Trace, TraceRecord};
use bwfirst_platform::{examples, io};
use bwfirst_rational::Rat;
use bwfirst_sim::clocked::{self, ClockedConfig};
use bwfirst_sim::demand_driven::{self, DemandConfig};
use bwfirst_sim::{
    event_driven, trace_header, MonitorConfig, MonitorProbe, NoProbe, ProvenanceProbe,
};

pub use bwfirst_core::{BwFirstSolution, EventDrivenSchedule, MonitorExpectations, SteadyState};
pub use bwfirst_platform::Platform;
pub use bwfirst_sim::{SimConfig, SimReport};

/// The executors the benchmark drives, with the configurations the CLI
/// names `event`, `clocked`, `demand` and `demand-int`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Executor {
    Event,
    Clocked,
    Demand,
    DemandInterruptible,
}

impl Executor {
    /// The layer name of the executor's module.
    pub fn layer(self) -> &'static str {
        match self {
            Executor::Event => "sim.event_driven",
            Executor::Clocked => "sim.clocked",
            Executor::Demand | Executor::DemandInterruptible => "sim.demand_driven",
        }
    }

    /// The CLI's `--protocol` value.
    pub fn protocol(self) -> &'static str {
        match self {
            Executor::Event => "event",
            Executor::Clocked => "clocked",
            Executor::Demand => "demand",
            Executor::DemandInterruptible => "demand-int",
        }
    }

    /// Whether `bwfirst monitor` runs this executor under the strict monitor.
    pub fn strict(self) -> bool {
        matches!(self, Executor::Event | Executor::Clocked)
    }
}

/// The paper's Figure 4 tree as platform JSON (input generation only).
pub fn example_tree_json() -> String {
    io::to_json(&examples::example_tree())
}

/// The Figure 4 tree's published throughput and pruned nodes, as text.
pub fn example_expectations() -> (String, Vec<String>) {
    let pruned = examples::example_unvisited().iter().map(ToString::to_string).collect();
    (examples::example_throughput().to_string(), pruned)
}

pub fn parse_platform(json: &str) -> Result<Platform, String> {
    io::from_json(json).map_err(|e| e.to_string())
}

pub fn solve(p: &Platform) -> BwFirstSolution {
    bwfirst_core::bw_first(p)
}

pub fn steady_state(sol: &BwFirstSolution) -> SteadyState {
    SteadyState::from_solution(sol)
}

/// `(quantized steady state, loss bound)` at grid `1/g`.
pub fn quantize(p: &Platform, ss: &SteadyState, g: i128) -> (SteadyState, Rat) {
    (quantize::quantize(p, ss, g), quantize::loss_bound(p, ss, g))
}

pub fn build_schedule(p: &Platform, ss: &SteadyState) -> Result<EventDrivenSchedule, String> {
    EventDrivenSchedule::standard(p, ss).map_err(|e| e.to_string())
}

/// Number of violations `validate_schedule` reports.
pub fn validate(p: &Platform, ss: &SteadyState, ev: &EventDrivenSchedule) -> usize {
    validate_schedule(p, ss, ev).len()
}

pub fn expectations(
    p: &Platform,
    ss: &SteadyState,
    ev: &EventDrivenSchedule,
) -> Option<MonitorExpectations> {
    MonitorExpectations::build(p, ss, &ev.tree)
}

/// Periods and bunch sizes only (no local orders materialised).
pub fn tree_schedule(p: &Platform, ss: &SteadyState) -> Result<TreeSchedule, String> {
    TreeSchedule::build(p, ss).map_err(|e| e.to_string())
}

/// `log10 ΣΨ` over the active nodes of a tree schedule.
pub fn slot_actions_log10(tree: &TreeSchedule) -> f64 {
    tree.iter().map(|s| s.bunch as f64).sum::<f64>().log10()
}

/// `(ΣΨ materialised slot actions, max T^ω)` of an event-driven schedule.
pub fn schedule_size(ev: &EventDrivenSchedule) -> (u64, i128) {
    let actions = ev.locals.iter().flatten().map(|l| l.actions.len() as u64).sum();
    let t_omega = ev.tree.iter().map(|s| s.t_omega).max().unwrap_or(0);
    (actions, t_omega)
}

pub fn sync_period(ss: &SteadyState) -> Result<i128, String> {
    synchronous_period(ss).map_err(|e| e.to_string())
}

/// The Proposition 4 start-up bound of the whole tree.
pub fn startup_bound(p: &Platform, ev: &EventDrivenSchedule) -> i128 {
    startup::tree_startup_bound(p, &ev.tree)
}

pub fn sim_config(horizon: i128, seed: u64) -> SimConfig {
    SimConfig {
        horizon: Rat::from_int(horizon),
        stop_injection_at: None,
        total_tasks: None,
        record_gantt: false,
        exact_queue: false,
        seed,
    }
}

fn run<P: bwfirst_sim::Probe>(
    ex: Executor,
    p: &Platform,
    ev: &EventDrivenSchedule,
    cfg: &SimConfig,
    probe: &mut P,
) -> Result<SimReport, String> {
    match ex {
        Executor::Event => {
            event_driven::simulate_probed(p, ev, cfg, probe).map_err(|e| e.to_string())
        }
        Executor::Clocked => {
            clocked::simulate_probed(p, &ev.tree, ClockedConfig::default(), cfg, probe)
                .map_err(|e| e.to_string())
        }
        Executor::Demand => {
            Ok(demand_driven::simulate_probed(p, DemandConfig::default(), cfg, probe))
        }
        Executor::DemandInterruptible => {
            Ok(demand_driven::simulate_probed(p, DemandConfig::interruptible(), cfg, probe))
        }
    }
}

/// One executor run with no probe (`bwfirst simulate`).
pub fn simulate(
    ex: Executor,
    p: &Platform,
    ev: &EventDrivenSchedule,
    cfg: &SimConfig,
) -> Result<SimReport, String> {
    run(ex, p, ev, cfg, &mut NoProbe)
}

/// What `bwfirst monitor` learns from one run.
pub struct MonitorOutcome {
    pub report: Result<SimReport, String>,
    pub violations: u64,
    pub windows: i128,
    pub snapshots: usize,
    finished: bwfirst_sim::MonitorReport,
}

/// One executor run under `MonitorProbe`, configured as `bwfirst monitor`
/// does: window = the synchronous period, strict with the solver's
/// expectations on the schedule-driven executors, relaxed otherwise.
pub fn monitor(
    ex: Executor,
    p: &Platform,
    ev: &EventDrivenSchedule,
    cfg: &SimConfig,
    window: i128,
    warmup_windows: i128,
    exp: Option<MonitorExpectations>,
) -> MonitorOutcome {
    let mut mcfg = MonitorConfig::new(Rat::from_int(window));
    mcfg.warmup_windows = warmup_windows;
    if ex.strict() {
        if let Some(exp) = exp {
            mcfg = mcfg.with_expectations(exp);
        }
    } else {
        mcfg = mcfg.relaxed();
    }
    let mut probe = MonitorProbe::new(p.len(), p.root(), mcfg);
    let report = run(ex, p, ev, cfg, &mut probe);
    let finished = probe.finish();
    let violations = finished.violations.len() as u64 + finished.suppressed;
    MonitorOutcome {
        report,
        violations,
        windows: finished.windows,
        snapshots: finished.snapshots.len(),
        finished,
    }
}

/// The snapshot stream as JSONL (`bwfirst monitor --snapshots`).
pub fn render_snapshots(m: &MonitorOutcome) -> String {
    m.finished.snapshots_jsonl()
}

/// One executor run under `ProvenanceProbe` (`bwfirst trace record`).
pub fn record_trace(
    ex: Executor,
    p: &Platform,
    ev: &EventDrivenSchedule,
    ss: &SteadyState,
    cfg: &SimConfig,
) -> (Result<SimReport, String>, Trace) {
    let mut probe = ProvenanceProbe::new(p, Some(&ev.tree));
    let report = run(ex, p, ev, cfg, &mut probe);
    let header = trace_header(p, Some(&ev.tree), ex.protocol(), cfg, Some(ss.throughput));
    (report, probe.into_trace(header))
}

pub fn trace_to_jsonl(t: &Trace) -> String {
    t.to_jsonl()
}

pub fn parse_trace(text: &str) -> Result<Trace, String> {
    Trace::parse(text).map_err(|e| e.to_string())
}

pub fn trace_len(t: &Trace) -> usize {
    t.records.len()
}

/// Task conservation over a trace: every computed task entered the tree
/// and is computed once, and the compute spans that end within the horizon
/// match the executor's count of computed tasks.
pub fn trace_conserves(t: &Trace, report: &SimReport, horizon: i128) -> bool {
    let mut entered = std::collections::HashSet::new();
    let mut computed = std::collections::HashSet::new();
    let mut finished = 0u64;
    for r in &t.records {
        match r {
            TraceRecord::Enter { task, .. } => {
                entered.insert(*task);
            }
            TraceRecord::Compute { task, end, .. } => {
                if !computed.insert(*task) {
                    return false;
                }
                finished += u64::from(end.num <= horizon * end.den);
            }
            _ => {}
        }
    }
    computed.is_subset(&entered) && finished == report.total_computed()
}

/// Tasks computed over the whole run.
pub fn tasks(report: &SimReport) -> u64 {
    report.total_computed()
}

/// The largest buffer occupancy any node reached.
pub fn peak_buffer(report: &SimReport) -> u64 {
    report.buffers.iter().map(|b| b.max).max().unwrap_or(0)
}

/// Completions over `[from, from + periods·period)`, divided by the
/// number the solver's throughput predicts for that window.
pub fn rate_ratio(
    report: &SimReport,
    ss: &SteadyState,
    from: i128,
    period: i128,
    periods: i128,
) -> f64 {
    let span = Rat::from_int(period * periods);
    let start = Rat::from_int(from);
    let got = Rat::from(report.completions_in(start, start + span) as usize);
    (got / (ss.throughput * span)).to_f64()
}

/// Text forms of a solution's throughput and pruned nodes.
pub fn solution_summary(sol: &BwFirstSolution) -> (String, Vec<String>) {
    (sol.throughput().to_string(), sol.unvisited().iter().map(ToString::to_string).collect())
}

/// `(visited nodes, Prop. 2 message count)` as `bwfirst solve` prints it.
pub fn solution_counts(sol: &BwFirstSolution) -> (usize, usize) {
    (sol.visit_count(), sol.message_count() + 2)
}

/// `(exact − quantized) / exact` throughput, and whether the loss is
/// non-negative and within its stated bound.
pub fn grid_loss(exact: &SteadyState, q: &SteadyState, bound: Rat) -> (f64, bool) {
    let loss = exact.throughput - q.throughput;
    let ok = !loss.is_negative() && loss <= bound;
    ((loss / exact.throughput).to_f64(), ok)
}

/// `x` as a share of the steady state's throughput.
pub fn relative(x: Rat, ss: &SteadyState) -> f64 {
    (x / ss.throughput).to_f64()
}

pub fn is_positive(ss: &SteadyState) -> bool {
    ss.throughput.is_positive()
}
