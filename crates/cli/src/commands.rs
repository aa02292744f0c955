//! Command implementations. Pure string-in/string-out for testability:
//! `dispatch` receives a file-reading closure instead of touching the
//! filesystem itself.

use crate::args::{Args, CliError};
use bwfirst_core::schedule::{synchronous_period, EventDrivenSchedule, SlotAction};
use bwfirst_core::{bw_first, observe, quantize, startup, MonitorExpectations, SteadyState};
use bwfirst_obs::causal::{ts_sub, Action, STOCK_BASE, TRACE_FORMAT};
use bwfirst_obs::{chrome, summary, MemoryRecorder, Trace, TraceRecord, Ts};
use bwfirst_platform::generators;
use bwfirst_platform::{io, Platform, Weight};
use bwfirst_rational::{rat, Rat};
use bwfirst_sim::clocked::{self, ClockedConfig};
use bwfirst_sim::demand_driven::{self, DemandConfig};
use bwfirst_sim::event_driven;
use bwfirst_sim::{
    trace_header, GanttProbe, MonitorConfig, MonitorProbe, NoProbe, ObsProbe, Probe,
    ProvenanceProbe, SimConfig, SimError, SimReport, UtilizationProbe,
};
use std::fmt::Write;

/// Usage text.
#[must_use]
pub fn usage() -> String {
    format!(
        "\
bwfirst — bandwidth-centric scheduling of independent-task applications

usage:
  bwfirst solve <platform.json>
      optimal steady-state throughput, per-node rates, pruned nodes
  bwfirst schedule <platform.json> [--grid G]
      event-driven periods and local schedules (optionally quantized to 1/G)
  bwfirst simulate <platform.json> [--horizon H] [--stop T] [--tasks N]
                   [--protocol P] [--gantt COLS]
                   [--trace out.json] [--metrics out.json]
      discrete-event simulation with throughput/buffer/wind-down metrics
  bwfirst stats <platform.json> [--horizon H] [--protocol P]
                [--trace out.json] [--metrics out.json]
      negotiate, solve, schedule and simulate with full instrumentation:
      protocol message/byte counters, solver spans, per-node utilization,
      plus a cross-protocol comparison: the event executor against both
      demand executors over the same horizon
  bwfirst monitor <platform.json> [--horizon H] [--window W] [--warmup K]
                  [--protocol P] [--snapshots out.jsonl] [--dump out.json]
                  [--capacity N]
      run one executor under the online invariant monitor: windowed health
      snapshots (JSONL), rate convergence against the solver's exact rates,
      and a flight-recorder post-mortem dump when an invariant trips
  bwfirst trace record <platform.json> --out <t.jsonl> [--protocol P]
                 [--horizon H] [--tasks N] [--chrome out.json]
      run one executor under the provenance probe and write the
      {TRACE_FORMAT} JSONL artifact (per-task lifecycle: enter, stride
      dispatch, hop, compute); --chrome adds a Perfetto view with one
      flow arrow per hop
  bwfirst trace lineage <t.jsonl> --task K
      one task's causal chain, each hop annotated with the observed
      transfer time against Lemma 1's predicted cost
  bwfirst trace diff <a.jsonl> <b.jsonl>
      align two traces by task id: task conservation must hold (exit 1
      otherwise); tasks in flight at a horizon and completion offsets (the
      Lemma 1 period skew) are reported
  bwfirst trace replay <t.jsonl> <platform.json>
      re-drive the executor from the recorded header and require the
      regenerated artifact to match the original bit for bit
  bwfirst generate <random|star|chain|kary|example> [--size N] [--seed S]
                   [--arity K] [--depth D]
  bwfirst generate <hetero|wide> [--size N] [--seed S]
      emit a platform JSON on stdout; hetero: root w = 50, other w in
      [2N+50, 4N+100], c in {{1,2,3}}; wide: w in {{1024,2048,4096}}, c = 1
  bwfirst validate <platform.json> [--grid G]
      solve, build the event-driven schedule, and check every invariant
  bwfirst dot <platform.json>
      Graphviz DOT export
  bwfirst graph <random> [--size N] [--seed S] [--extra PCT]
      emit a physical-network graph JSON on stdout
  bwfirst overlay <graph.json> [--root N] [--restarts R] [--passes P]
                  [--seed S]
      search for the best tree overlay on a physical network

protocols (--protocol P; default event): {}
  --horizon H must be positive; a flag not listed for a subcommand is an error

workspace checks (separate binary, see docs/ANALYSIS.md):
  cargo run -p bwfirst-analyze [model|snapshots <path>|trace <path>]
      exhaustive protocol model checking, schema validation of monitor
      snapshot streams, and the trace reader's schema check of a provenance
      artifact
",
        Protocol::ALL.map(Protocol::name).join(", ")
    )
}

fn load(platform_json: &str) -> Result<Platform, CliError> {
    io::from_json(platform_json).map_err(|e| CliError::Platform(e.to_string()))
}

/// Runs the parsed command; `read_file` supplies file contents. Commands
/// that write output files (`--trace`, `--metrics`) fail under this entry
/// point — use [`dispatch_io`] when a file sink is available.
pub fn dispatch<F>(args: &Args, read_file: F) -> Result<String, CliError>
where
    F: Fn(&str) -> Result<String, String>,
{
    dispatch_io(args, read_file, |path, _| Err(format!("cannot write {path}: no file sink")))
}

/// The flags (without dashes) each subcommand reads, or `None` for an
/// unknown subcommand or trace verb, which the dispatcher reports itself.
fn known_flags(args: &Args) -> Option<&'static [&'static str]> {
    Some(match (args.command.as_str(), args.positional.first().map(String::as_str)) {
        ("solve" | "dot" | "help" | "--help" | "-h", _) | ("trace", Some("diff" | "replay")) => &[],
        ("schedule" | "validate", _) => &["grid"],
        ("simulate", _) => &["horizon", "stop", "tasks", "protocol", "gantt", "trace", "metrics"],
        ("stats", _) => &["horizon", "protocol", "trace", "metrics"],
        ("monitor", _) => {
            &["horizon", "window", "warmup", "protocol", "snapshots", "dump", "capacity"]
        }
        ("trace", Some("record")) => &["out", "protocol", "horizon", "tasks", "chrome"],
        ("trace", Some("lineage")) => &["task"],
        ("generate", Some("hetero" | "wide")) => &["size", "seed"],
        ("generate", _) => &["size", "seed", "arity", "depth"],
        ("graph", _) => &["size", "seed", "extra"],
        ("overlay", _) => &["root", "restarts", "passes", "seed"],
        _ => return None,
    })
}

/// Runs the parsed command with both a file source and a file sink, so
/// `--trace <path>` (Chrome trace JSON) and `--metrics <path>` (metrics
/// JSON) can be written. A flag the subcommand does not read is rejected
/// before any work.
pub fn dispatch_io<F, W>(args: &Args, read_file: F, write_file: W) -> Result<String, CliError>
where
    F: Fn(&str) -> Result<String, String>,
    W: Fn(&str, &str) -> Result<(), String>,
{
    let unknown = known_flags(args)
        .and_then(|known| args.flags.keys().find(|k| !known.contains(&k.as_str())));
    if let Some(flag) = unknown {
        return Err(CliError::UnknownFlag(flag.clone()));
    }
    let read = |path: &str| -> Result<Platform, CliError> {
        let text = read_file(path).map_err(CliError::Platform)?;
        load(&text)
    };
    // Exports the recorder wherever --trace / --metrics point; `nodes`
    // sizes the per-lane track-name metadata in the Chrome trace.
    let export = |args: &Args, rec: &MemoryRecorder, nodes: usize| -> Result<(), CliError> {
        if let Some(path) = args.flags.get("trace") {
            // 1 simulated time unit = 1ms in the viewer.
            let trace = chrome::to_chrome_trace_named(
                &rec.events,
                1000.0,
                "bwfirst",
                &chrome::track_names(nodes),
            );
            write_file(path, &trace).map_err(CliError::Io)?;
        }
        if let Some(path) = args.flags.get("metrics") {
            write_file(path, &rec.metrics.to_json().to_string_pretty()).map_err(CliError::Io)?;
        }
        Ok(())
    };
    match args.command.as_str() {
        "solve" => {
            let p = read(args.pos(0, "platform file")?)?;
            Ok(cmd_solve(&p))
        }
        "schedule" => {
            let p = read(args.pos(0, "platform file")?)?;
            let grid = args.flag_opt::<i128>("grid", "--grid")?;
            cmd_schedule(&p, grid)
        }
        "simulate" => {
            let p = read(args.pos(0, "platform file")?)?;
            let (out, rec) = cmd_simulate(&p, args)?;
            if let Some(rec) = &rec {
                export(args, rec, p.len())?;
            }
            Ok(out)
        }
        "stats" => {
            let p = read(args.pos(0, "platform file")?)?;
            let (out, rec) = cmd_stats(&p, args)?;
            export(args, &rec, p.len())?;
            Ok(out)
        }
        "monitor" => {
            let p = read(args.pos(0, "platform file")?)?;
            cmd_monitor(&p, args, &write_file)
        }
        "trace" => cmd_trace(args, &read_file, &write_file),
        "generate" => cmd_generate(args),
        "validate" => {
            let p = read(args.pos(0, "platform file")?)?;
            let grid = args.flag_opt::<i128>("grid", "--grid")?;
            cmd_validate(&p, grid)
        }
        "dot" => {
            let p = read(args.pos(0, "platform file")?)?;
            Ok(io::to_dot(&p))
        }
        "graph" => cmd_graph(args),
        "overlay" => {
            let text = read_file(args.pos(0, "graph file")?).map_err(CliError::Platform)?;
            cmd_overlay(&text, args)
        }
        "help" | "--help" | "-h" => Ok(usage()),
        other => Err(CliError::UnknownCommand(other.to_string())),
    }
}

/// A run-time failure (schedule overflow, simulator error, bad trace).
fn rt(e: impl std::fmt::Display) -> CliError {
    CliError::Runtime(e.to_string())
}

fn cmd_solve(p: &Platform) -> String {
    let sol = bw_first(p);
    let ss = SteadyState::from_solution(&sol);
    let mut out = String::new();
    writeln!(out, "nodes            : {}", p.len()).unwrap();
    writeln!(
        out,
        "throughput       : {} tasks per time unit ({:.4})",
        sol.throughput(),
        sol.throughput().to_f64()
    )
    .unwrap();
    writeln!(out, "rootless         : {}", ss.rootless_throughput(p)).unwrap();
    writeln!(out, "visited          : {} nodes", sol.visit_count()).unwrap();
    let unvisited: Vec<String> = sol.unvisited().iter().map(ToString::to_string).collect();
    writeln!(
        out,
        "pruned           : {}",
        if unvisited.is_empty() { "-".to_string() } else { unvisited.join(", ") }
    )
    .unwrap();
    writeln!(out, "protocol messages: {}", sol.message_count() + 2).unwrap();
    writeln!(out, "\nnode   eta_in      alpha").unwrap();
    for id in p.node_ids() {
        writeln!(
            out,
            "{:<6} {:<11} {}",
            id.to_string(),
            ss.eta_in[id.index()].to_string(),
            ss.alpha[id.index()]
        )
        .unwrap();
    }
    out
}

fn cmd_schedule(p: &Platform, grid: Option<i128>) -> Result<String, CliError> {
    let sol = bw_first(p);
    let mut ss = SteadyState::from_solution(&sol);
    let mut out = String::new();
    if let Some(g) = grid {
        let q = quantize::quantize(p, &ss, g);
        writeln!(
            out,
            "quantized to grid 1/{g}: throughput {} -> {} (loss bound {})",
            ss.throughput,
            q.throughput,
            quantize::loss_bound(p, &ss, g)
        )
        .unwrap();
        ss = q;
    }
    if !ss.throughput.is_positive() {
        writeln!(out, "platform has zero throughput; nothing to schedule").unwrap();
        return Ok(out);
    }
    let ev = EventDrivenSchedule::standard(p, &ss).map_err(rt)?;
    writeln!(out, "synchronous period T = {}", synchronous_period(&ss).map_err(rt)?).unwrap();
    writeln!(out, "tree start-up bound  = {}", startup::tree_startup_bound(p, &ev.tree)).unwrap();
    writeln!(out, "\nnode   T^r     T^c     T^s     T^w     bunch  order").unwrap();
    for s in ev.tree.iter() {
        // The first 24 slots from the cursor; Ψ itself for longer bunches.
        let actions = &ev.local(s.node).unwrap().actions;
        let head: Vec<String> = actions
            .iter()
            .take(24)
            .map(|a| match a {
                SlotAction::Compute => "C".to_string(),
                SlotAction::Send(k) => format!("S{}", k.0),
            })
            .collect();
        let order = if actions.len() > 24 {
            format!("{} ... ({} actions)", head.join(" "), actions.len())
        } else {
            head.join(" ")
        };
        writeln!(
            out,
            "{:<6} {:<7} {:<7} {:<7} {:<7} {:<6} {order}",
            s.node.to_string(),
            s.t_recv.map_or("-".to_string(), |v| v.to_string()),
            s.t_comp,
            s.t_send,
            s.t_omega,
            s.bunch,
        )
        .unwrap();
    }
    Ok(out)
}

/// The executors behind `--protocol`, shared by `simulate`, `stats`,
/// `monitor` and `trace record`/`replay`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Protocol {
    Event,
    Clocked,
    Demand,
    DemandInt,
}

impl Protocol {
    const ALL: [Protocol; 4] =
        [Protocol::Event, Protocol::Clocked, Protocol::Demand, Protocol::DemandInt];

    fn name(self) -> &'static str {
        match self {
            Protocol::Event => "event",
            Protocol::Clocked => "clocked",
            Protocol::Demand => "demand",
            Protocol::DemandInt => "demand-int",
        }
    }

    /// The flag as a bad-value error names it: with every accepted value.
    const FLAG: &'static str = "--protocol (event, clocked, demand, demand-int)";

    fn named(name: &str) -> Result<Protocol, CliError> {
        let bad = || CliError::BadValue { what: Protocol::FLAG, value: name.to_string() };
        Protocol::ALL.into_iter().find(|p| p.name() == name).ok_or_else(bad)
    }

    /// `--protocol`, `event` when absent.
    fn from_args(args: &Args) -> Result<Protocol, CliError> {
        Protocol::named(args.flags.get("protocol").map_or("event", String::as_str))
    }

    /// Whether the executor follows the solver's event-driven schedule, so
    /// its trace carries the Section 6.3 stride annotations.
    fn scheduled(self) -> bool {
        !matches!(self, Protocol::Demand | Protocol::DemandInt)
    }

    /// Whether the monitor runs strict, against the solver's rates. The
    /// greedy demand protocols neither match those rates nor emit buffer
    /// drains adjacent to their segments, so they run relaxed.
    fn strict(self) -> bool {
        self.scheduled()
    }

    /// The event-driven schedule, for the schedule-driven executors.
    fn schedule(
        self,
        p: &Platform,
        ss: &SteadyState,
    ) -> Result<Option<EventDrivenSchedule>, CliError> {
        let ev = self.scheduled().then(|| EventDrivenSchedule::standard(p, ss));
        ev.transpose().map_err(rt)
    }

    /// One run driving `probe`; `ev` is [`schedule`](Protocol::schedule)'s.
    fn run<P: Probe>(
        self,
        p: &Platform,
        ev: Option<&EventDrivenSchedule>,
        cfg: &SimConfig,
        probe: &mut P,
    ) -> Result<SimReport, SimError> {
        match (self, ev) {
            (Protocol::Event, Some(ev)) => event_driven::simulate_probed(p, ev, cfg, probe),
            (Protocol::Clocked, Some(ev)) => {
                clocked::simulate_probed(p, &ev.tree, ClockedConfig::default(), cfg, probe)
            }
            (Protocol::Event | Protocol::Clocked, None) => Err(SimError::InactiveRoot),
            (Protocol::Demand, _) => {
                demand_driven::try_simulate_probed(p, DemandConfig::default(), cfg, probe)
            }
            (Protocol::DemandInt, _) => {
                demand_driven::try_simulate_probed(p, DemandConfig::interruptible(), cfg, probe)
            }
        }
    }
}

/// `--horizon`, by default `periods` synchronous periods clamped to
/// [200, 100000] (a product past `i128` clamps to the top).
fn horizon(args: &Args, period: i128, periods: i128) -> Result<Rat, CliError> {
    let h = args.flag_opt::<i128>("horizon", "--horizon")?;
    Ok(Rat::from_int(h.unwrap_or_else(|| period.saturating_mul(periods).clamp(200, 100_000))))
}

/// The run configuration of every simulating command; the horizon must be
/// positive.
fn sim_config(horizon: Rat, total_tasks: Option<u64>, seed: u64) -> Result<SimConfig, CliError> {
    if !horizon.is_positive() {
        return Err(CliError::BadValue { what: "--horizon", value: horizon.to_string() });
    }
    Ok(SimConfig {
        horizon,
        stop_injection_at: None,
        total_tasks,
        record_gantt: false,
        exact_queue: false,
        seed,
    })
}

/// The recorder a run exports from: events feed only `--trace`, so without
/// it the recorder keeps metrics alone.
fn recorder(args: &Args) -> MemoryRecorder {
    if args.flags.contains_key("trace") {
        MemoryRecorder::new()
    } else {
        MemoryRecorder::metrics_only()
    }
}

fn cmd_simulate(p: &Platform, args: &Args) -> Result<(String, Option<MemoryRecorder>), CliError> {
    let protocol = Protocol::from_args(args)?;
    let stop = args.flag_opt::<i128>("stop", "--stop")?;
    let tasks = args.flag_opt::<u64>("tasks", "--tasks")?;
    let gantt = args.flag_opt::<usize>("gantt", "--gantt")?;
    let ss = SteadyState::from_solution(&bw_first(p));
    if !ss.throughput.is_positive() {
        return Ok(("platform has zero throughput; nothing to simulate\n".to_string(), None));
    }
    let period = synchronous_period(&ss).map_err(rt)?;
    let horizon = horizon(args, period, 8)?;
    let cfg =
        SimConfig { stop_injection_at: stop.map(Rat::from_int), ..sim_config(horizon, tasks, 0)? };
    let ev = protocol.schedule(p, &ss)?;
    // The chart draws `[0, until)`: the recorder keeps only what it draws.
    let until = horizon.min(rat(80, 1));
    let mut chart = if gantt.is_some() { GanttProbe::until(until) } else { GanttProbe::new(false) };
    let instrument = args.flags.contains_key("trace") || args.flags.contains_key("metrics");
    let mut rec = instrument.then(|| recorder(args));
    let rep = match &mut rec {
        Some(rec) => {
            protocol.run(p, ev.as_ref(), &cfg, &mut (&mut chart, ObsProbe::new(&mut *rec)))
        }
        None => protocol.run(p, ev.as_ref(), &cfg, &mut chart),
    }
    .map_err(rt)?;
    let mut out = String::new();
    writeln!(out, "protocol          : {}", protocol.name()).unwrap();
    writeln!(out, "horizon           : {horizon}").unwrap();
    writeln!(out, "predicted rate    : {} ({:.4})", ss.throughput, ss.throughput.to_f64()).unwrap();
    let half = horizon / Rat::TWO;
    writeln!(
        out,
        "measured rate     : {:.4} (second half of run)",
        rep.throughput_in(half, horizon).to_f64()
    )
    .unwrap();
    writeln!(out, "tasks computed    : {}", rep.total_computed()).unwrap();
    if let Some(entry) =
        rep.steady_state_entry(ss.throughput, Rat::from_int(period), cfg.injection_end())
    {
        writeln!(out, "steady entry      : {:.4}", entry.to_f64()).unwrap();
    }
    if let Some(wd) = rep.wind_down() {
        writeln!(out, "wind-down         : {:.4}", wd.to_f64()).unwrap();
    }
    writeln!(out, "peak buffer       : {}", rep.peak_buffer()).unwrap();
    if let (Some(cols), Some(g)) = (gantt, chart.into_gantt()) {
        let nodes: Vec<_> = p.node_ids().filter(|&n| ss.is_active(n)).collect();
        writeln!(out, "\nGantt (first {until} units):").unwrap();
        out.push_str(&g.ascii(&nodes, until, cols.max(20)));
    }
    Ok((out, rec))
}

/// The `monitor` command: one executor run under the online invariant
/// monitor ([`MonitorProbe`]). The schedule-driven executors get the full
/// strict monitor with solver expectations (rate convergence, bunch
/// periodicity, exact durations); the demand-driven variants run the
/// structural checks in relaxed-conservation mode (see
/// [`Protocol::strict`]). Snapshots stream to `--snapshots` as JSONL;
/// a violation or a simulator error dumps the flight recorder to `--dump`
/// and exits nonzero.
fn cmd_monitor(
    p: &Platform,
    args: &Args,
    write_file: &impl Fn(&str, &str) -> Result<(), String>,
) -> Result<String, CliError> {
    let protocol = Protocol::from_args(args)?;
    let ss = SteadyState::from_solution(&bw_first(p));
    if !ss.throughput.is_positive() {
        return Ok("platform has zero throughput; nothing to monitor\n".to_string());
    }
    let period = synchronous_period(&ss).map_err(rt)?;
    let window = Rat::from_int(args.flag_opt::<i128>("window", "--window")?.unwrap_or(period));
    if !window.is_positive() {
        return Err(CliError::BadValue { what: "--window", value: window.to_string() });
    }
    let cfg = sim_config(horizon(args, period, 10)?, None, 0)?;
    let ev = protocol.schedule(p, &ss)?;
    let strict = protocol.strict();
    let mut mon_cfg = MonitorConfig::new(window);
    mon_cfg.warmup_windows = args.flag_or("warmup", "--warmup", mon_cfg.warmup_windows)?;
    mon_cfg.flight_capacity = args.flag_or("capacity", "--capacity", mon_cfg.flight_capacity)?;
    if !strict {
        mon_cfg = mon_cfg.relaxed();
    } else if let Some(exp) =
        ev.as_ref().and_then(|ev| MonitorExpectations::build(p, &ss, &ev.tree))
    {
        mon_cfg = mon_cfg.with_expectations(exp);
    }
    let mut mon = MonitorProbe::new(p.len(), p.root(), mon_cfg);
    let sim_error = protocol.run(p, ev.as_ref(), &cfg, &mut mon).err().map(|e| e.to_string());
    let rep = mon.finish();
    if let Some(path) = args.flags.get("snapshots") {
        write_file(path, &rep.snapshots_jsonl()).map_err(CliError::Io)?;
    }
    let dump = match &sim_error {
        Some(reason) => Some(rep.postmortem_for(reason)),
        None => rep.postmortem(),
    };
    if let (Some(path), Some(dump)) = (args.flags.get("dump"), &dump) {
        let mut text = dump.to_string_pretty();
        text.push('\n');
        write_file(path, &text).map_err(CliError::Io)?;
    }
    if let Some(reason) = sim_error {
        return Err(CliError::Runtime(reason));
    }
    if !rep.ok() {
        let shown: Vec<String> = rep.violations.iter().take(3).map(ToString::to_string).collect();
        return Err(CliError::Runtime(format!(
            "monitor found {} violation(s) (+{} suppressed): {}",
            rep.violations.len(),
            rep.suppressed,
            shown.join("; ")
        )));
    }
    let mut out = String::new();
    let mode = if strict { "strict" } else { "relaxed" };
    writeln!(out, "protocol   : {} ({mode} mode)", protocol.name()).unwrap();
    writeln!(out, "horizon    : {}", cfg.horizon).unwrap();
    writeln!(out, "window     : {window}").unwrap();
    writeln!(out, "windows    : {} closed, {} late event(s)", rep.windows, rep.late_events)
        .unwrap();
    writeln!(out, "snapshots  : {}", rep.snapshots.len()).unwrap();
    writeln!(out, "violations : 0").unwrap();
    if let Some(last) = rep.snapshots.iter().rev().find(|s| !s.partial) {
        writeln!(
            out,
            "last full window: {} task(s) computed, throughput {:.4}",
            last.computed, last.throughput
        )
        .unwrap();
    }
    Ok(out)
}

/// Runs one executor under a [`ProvenanceProbe`] and returns the finished
/// provenance-trace artifact. The schedule-driven executors annotate each
/// dispatch with its Section 6.3 stride decision (slot, ψ, bunch index);
/// the demand variants trace with no schedule annotations.
fn record_trace(
    p: &Platform,
    ss: &SteadyState,
    protocol: Protocol,
    cfg: &SimConfig,
) -> Result<Trace, CliError> {
    let ev = protocol.schedule(p, ss)?;
    let tree = ev.as_ref().map(|ev| &ev.tree);
    let mut probe = ProvenanceProbe::new(p, tree);
    protocol.run(p, ev.as_ref(), cfg, &mut probe).map_err(rt)?;
    let header = trace_header(p, tree, protocol.name(), cfg, Some(ss.throughput));
    Ok(probe.into_trace(header))
}

/// `trace record`: run one executor under the provenance probe, write the
/// JSONL artifact, and optionally a Chrome/Perfetto flow view.
fn cmd_trace_record<F, W>(args: &Args, read_file: &F, write_file: &W) -> Result<String, CliError>
where
    F: Fn(&str) -> Result<String, String>,
    W: Fn(&str, &str) -> Result<(), String>,
{
    let text = read_file(args.pos(1, "platform file")?).map_err(CliError::Platform)?;
    let p = load(&text)?;
    let out_path = args.flags.get("out").ok_or(CliError::MissingArgument("--out <trace.jsonl>"))?;
    let protocol = Protocol::from_args(args)?;
    let ss = SteadyState::from_solution(&bw_first(&p));
    if !ss.throughput.is_positive() {
        return Err(CliError::Runtime("platform has zero throughput; nothing to trace".into()));
    }
    let period = synchronous_period(&ss).map_err(rt)?;
    let tasks = args.flag_opt::<u64>("tasks", "--tasks")?;
    let cfg = sim_config(horizon(args, period, 8)?, tasks, 0)?;
    let trace = record_trace(&p, &ss, protocol, &cfg)?;
    write_file(out_path, &trace.to_jsonl()).map_err(CliError::Io)?;
    if let Some(path) = args.flags.get("chrome") {
        let view = chrome::to_chrome_trace_named(
            &trace.to_events(),
            1000.0,
            "bwfirst",
            &chrome::track_names(p.len()),
        );
        write_file(path, &view).map_err(CliError::Io)?;
    }
    let ids = trace.task_ids();
    let stock = ids.iter().filter(|t| **t >= STOCK_BASE).count();
    let mut out = String::new();
    writeln!(out, "protocol : {}", protocol.name()).unwrap();
    writeln!(out, "horizon  : {}", cfg.horizon).unwrap();
    writeln!(out, "tasks    : {} injected, {stock} prefill stock", ids.len() - stock).unwrap();
    writeln!(out, "records  : {}", trace.records.len()).unwrap();
    writeln!(out, "trace    : {out_path}").unwrap();
    Ok(out)
}

/// `trace lineage`: pretty-print one task's causal chain, annotating each
/// hop with the observed transfer time against the header's Lemma 1 cost.
fn cmd_trace_lineage(trace: &Trace, task: i128) -> Result<String, CliError> {
    let chain = trace.lineage(task);
    if chain.is_empty() {
        return Err(CliError::Runtime(format!("task {task} does not appear in the trace")));
    }
    let mut out = String::new();
    writeln!(out, "task {task} under protocol `{}`:", trace.header.protocol).unwrap();
    let mut dispatched_at: Option<Ts> = None;
    for r in &chain {
        match r {
            TraceRecord::Enter { node, t, stock, .. } => {
                let kind = if *stock { "prefill stock" } else { "injected" };
                writeln!(out, "  t={:<9} enter    P{node}  [{kind}]", t.display()).unwrap();
            }
            TraceRecord::Dispatch(d) => {
                dispatched_at = Some(d.t);
                let action = match d.action {
                    Action::Compute => "-> compute".to_string(),
                    Action::Send(c) => format!("-> send P{c}"),
                };
                let mut note = String::new();
                if let Some(slot) = d.slot {
                    write!(note, "  [slot {slot}").unwrap();
                    if let Some(period) = d.period {
                        write!(note, ", bunch {period}").unwrap();
                    }
                    if let Some(psi) = d.psi {
                        write!(note, ", psi {psi}").unwrap();
                    }
                    note.push(']');
                }
                writeln!(out, "  t={:<9} dispatch P{} {action}{note}", d.t.display(), d.node)
                    .unwrap();
            }
            TraceRecord::Deliver { node, from, t, .. } => {
                let mut note = String::new();
                if let Some(d) = dispatched_at {
                    match ts_sub(*t, d) {
                        Some(hop) => write!(note, "  [hop {}", hop.display()).unwrap(),
                        None => note.push_str("  [hop outside i128"),
                    }
                    if let Some(c) = trace.header.edge_time.get(*node as usize).copied().flatten() {
                        write!(note, ", Lemma 1 c={}", c.display()).unwrap();
                    }
                    note.push(']');
                }
                writeln!(out, "  t={:<9} deliver  P{from} -> P{node}{note}", t.display()).unwrap();
            }
            TraceRecord::Compute { node, start, end, .. } => {
                writeln!(
                    out,
                    "  t={:<9} compute  P{node}  [ends t={}]",
                    start.display(),
                    end.display()
                )
                .unwrap();
            }
        }
    }
    if let (Some(node), Some(end)) = (trace.compute_node(task), trace.completion(task)) {
        writeln!(out, "computed on P{node}, retired at t={}", end.display()).unwrap();
        // Sum the header's per-edge Lemma 1 costs from the compute node back
        // to the root: the predicted one-way delivery latency (`None` once
        // the sum leaves i128).
        let mut cur = node as usize;
        let mut total = Some(Rat::ZERO);
        let mut known = true;
        while let Some(parent) = trace.header.parent.get(cur).copied().flatten() {
            match trace.header.edge_time.get(cur).copied().flatten() {
                Some(c) => total = total.and_then(|t| t.checked_add(Rat::new(c.num, c.den)).ok()),
                None => {
                    known = false;
                    break;
                }
            }
            cur = parent as usize;
        }
        if known {
            write!(out, "predicted root->P{node} path cost (Lemma 1): ").unwrap();
            match total {
                Some(total) => writeln!(out, "{total}").unwrap(),
                None => writeln!(out, "outside i128").unwrap(),
            }
        }
    }
    Ok(out)
}

/// `trace diff`: align two traces by task id. Conservation (no missing
/// tasks, identical per-task compute counts) gates the exit code; routing
/// and completion-time differences are reported as information — two
/// correct executors retire the same task at different absolute times (the
/// Lemma 1 period skew).
fn cmd_trace_diff(a: &Trace, b: &Trace) -> Result<String, CliError> {
    let d = a.diff(b);
    let mut out = String::new();
    writeln!(out, "a: {} ({} record(s))", a.header.protocol, a.records.len()).unwrap();
    writeln!(out, "b: {} ({} record(s))", b.header.protocol, b.records.len()).unwrap();
    writeln!(out, "common injected tasks : {}", d.common).unwrap();
    writeln!(out, "prefill stock         : {} in a, {} in b (not aligned)", d.stock_a, d.stock_b)
        .unwrap();
    writeln!(
        out,
        "routing divergence    : {} task(s) computed on different nodes",
        d.routing.len()
    )
    .unwrap();
    if let Some((min, mean, max)) = d.latency_offsets() {
        writeln!(
            out,
            "completion offset b-a : min {min:.4}, mean {mean:.4}, max {max:.4} time units",
        )
        .unwrap();
    }
    let sample =
        |ids: &[i128]| ids.iter().take(5).map(ToString::to_string).collect::<Vec<_>>().join(", ");
    if !d.in_flight.is_empty() {
        writeln!(
            out,
            "in flight at horizon  : {} task(s) computed in one trace only [{}]",
            d.in_flight.len(),
            sample(&d.in_flight)
        )
        .unwrap();
    }
    if d.clean() {
        writeln!(out, "conservation          : OK (no missing tasks, no count divergence)")
            .unwrap();
        Ok(out)
    } else {
        Err(CliError::Runtime(format!(
            "traces diverge: {} task(s) only in a [{}], {} only in b [{}], \
             {} per-task compute-count divergence(s)",
            d.only_a.len(),
            sample(&d.only_a),
            d.only_b.len(),
            sample(&d.only_b),
            d.count_divergence.len()
        )))
    }
}

/// `trace replay`: rebuild the run configuration from the recorded header,
/// re-drive the same executor, and require the regenerated artifact to
/// equal the original byte for byte.
fn cmd_trace_replay(trace_text: &str, p: &Platform) -> Result<String, CliError> {
    let trace = Trace::parse(trace_text).map_err(rt)?;
    let h = &trace.header;
    if h.nodes as usize != p.len() {
        return Err(CliError::Runtime(format!(
            "platform has {} node(s) but the trace was recorded on {}",
            p.len(),
            h.nodes
        )));
    }
    let cfg = sim_config(Rat::new(h.horizon.num, h.horizon.den), h.tasks, h.seed)?;
    let ss = SteadyState::from_solution(&bw_first(p));
    if !ss.throughput.is_positive() {
        return Err(CliError::Runtime("platform has zero throughput; cannot replay".into()));
    }
    // A header naming no known protocol is a bad artifact, not bad usage.
    let replayed = record_trace(p, &ss, Protocol::named(&h.protocol).map_err(rt)?, &cfg)?;
    let regenerated = replayed.to_jsonl();
    if regenerated == trace_text {
        let mut out = String::new();
        writeln!(
            out,
            "replay OK: {} byte(s), {} record(s), bit-for-bit identical",
            regenerated.len(),
            replayed.records.len()
        )
        .unwrap();
        Ok(out)
    } else {
        let line =
            trace_text.lines().zip(regenerated.lines()).position(|(x, y)| x != y).map_or_else(
                || trace_text.lines().count().min(regenerated.lines().count()) + 1,
                |i| i + 1,
            );
        Err(CliError::Runtime(format!("replay diverged from the recorded artifact at line {line}")))
    }
}

/// The `trace` command: task-level causal provenance. See the per-verb
/// helpers: [`cmd_trace_record`], [`cmd_trace_lineage`], [`cmd_trace_diff`]
/// and [`cmd_trace_replay`].
fn cmd_trace<F, W>(args: &Args, read_file: &F, write_file: &W) -> Result<String, CliError>
where
    F: Fn(&str) -> Result<String, String>,
    W: Fn(&str, &str) -> Result<(), String>,
{
    let slurp = |path: &str| read_file(path).map_err(CliError::Platform);
    match args.pos(0, "trace verb (record|lineage|diff|replay)")? {
        "record" => cmd_trace_record(args, read_file, write_file),
        "lineage" => {
            let trace = Trace::parse(&slurp(args.pos(1, "trace file")?)?).map_err(rt)?;
            let task = args
                .flag_opt::<i128>("task", "--task")?
                .ok_or(CliError::MissingArgument("--task <id>"))?;
            cmd_trace_lineage(&trace, task)
        }
        "diff" => {
            let a = Trace::parse(&slurp(args.pos(1, "first trace file")?)?).map_err(rt)?;
            let b = Trace::parse(&slurp(args.pos(2, "second trace file")?)?).map_err(rt)?;
            cmd_trace_diff(&a, &b)
        }
        "replay" => {
            let text = slurp(args.pos(1, "trace file")?)?;
            let p = load(&slurp(args.pos(2, "platform file")?)?)?;
            cmd_trace_replay(&text, &p)
        }
        other => Err(CliError::BadValue { what: "trace verb", value: other.to_string() }),
    }
}

/// The `stats` command: one fully instrumented pass over all three layers —
/// live protocol negotiation (recorded once, as the solution it returns),
/// schedule construction, and a probed simulation — reported as summary
/// tables, plus a cross-protocol comparison. The recorder comes back so
/// `--trace` / `--metrics` can export it.
fn cmd_stats(p: &Platform, args: &Args) -> Result<(String, MemoryRecorder), CliError> {
    let protocol = Protocol::from_args(args)?;
    let mut rec = recorder(args);

    // Layer 1: the live distributed protocol (β/θ messages over channels),
    // whose round is Algorithm 1's own solution.
    let mut session =
        bwfirst_proto::ProtocolSession::spawn(p).map_err(|e| CliError::Runtime(e.to_string()))?;
    let negotiated = session.negotiate().map_err(|e| CliError::Runtime(e.to_string()))?;
    negotiated.record(&mut rec);
    drop(session);
    let sol = &negotiated.solution;
    observe::record_negotiation(sol, &mut rec);

    // Layer 2: the steady state and the Lemma 1 period construction.
    let ss = SteadyState::from_solution(sol);

    let mut out = String::new();
    writeln!(out, "nodes      : {}", p.len()).unwrap();
    writeln!(
        out,
        "throughput : {} tasks per time unit ({:.4})",
        sol.throughput(),
        sol.throughput().to_f64()
    )
    .unwrap();
    writeln!(out, "visited    : {} of {} nodes", sol.visit_count(), p.len()).unwrap();
    let octets = bwfirst_proto::wire::negotiation_wire_bytes(sol);
    writeln!(out, "messages   : {} ({octets} octets on the wire)", negotiated.messages()).unwrap();

    if ss.throughput.is_positive() {
        let ev = EventDrivenSchedule::standard(p, &ss).map_err(rt)?;
        observe::record_schedule(&ev.tree, &mut rec);

        // Layer 3: a probed simulation with per-activity accounting.
        let period = synchronous_period(&ss).map_err(rt)?;
        let cfg = sim_config(horizon(args, period, 8)?, None, 0)?;
        let horizon = cfg.horizon;
        let half = horizon / Rat::TWO;
        let row = |rep: &SimReport| (rep.total_computed(), rep.throughput_in(half, horizon));
        let mut util = UtilizationProbe::new(p.len(), horizon);
        let probed = {
            let mut probe = (ObsProbe::new(&mut rec), &mut util);
            let rep = protocol.run(p, Some(&ev), &cfg, &mut probe).map_err(rt)?;
            writeln!(
                out,
                "simulated  : {} tasks over {horizon} time units ({})",
                rep.total_computed(),
                protocol.name()
            )
            .unwrap();
            row(&rep)
        };
        writeln!(out, "\nper-node utilization (busy fraction of the horizon):").unwrap();
        out.push_str(&summary::table(&util.finish().rows()));

        // Cross-protocol comparison over the same platform and horizon, in
        // fixed protocol order. Probes only observe, so the probed run above
        // gives its own protocol's row; the others run unprobed.
        writeln!(out, "\nprotocol comparison over the same horizon:").unwrap();
        for proto in [Protocol::Event, Protocol::Demand, Protocol::DemandInt] {
            let (tasks, rate) = if proto == protocol {
                probed
            } else {
                row(&proto.run(p, Some(&ev), &cfg, &mut NoProbe).map_err(rt)?)
            };
            writeln!(
                out,
                "  {:<11} {tasks:>6} tasks   measured rate {:.4}",
                proto.name(),
                rate.to_f64()
            )
            .unwrap();
        }
    } else {
        writeln!(out, "simulated  : skipped (zero throughput)").unwrap();
    }

    writeln!(out, "\nmetrics:").unwrap();
    out.push_str(&summary::metrics_table(&rec.metrics));
    Ok((out, rec))
}

fn cmd_validate(p: &Platform, grid: Option<i128>) -> Result<String, CliError> {
    let mut ss = SteadyState::from_solution(&bw_first(p));
    let mut out = String::new();
    if let Some(g) = grid {
        ss = quantize::quantize(p, &ss, g);
        writeln!(out, "validating the 1/{g}-quantized schedule").unwrap();
    }
    if !ss.throughput.is_positive() {
        writeln!(out, "platform has zero throughput; nothing to validate").unwrap();
        return Ok(out);
    }
    let ev = EventDrivenSchedule::standard(p, &ss).map_err(rt)?;
    let violations = bwfirst_core::validate_schedule(p, &ss, &ev);
    writeln!(out, "throughput : {}", ss.throughput).unwrap();
    writeln!(out, "active     : {} of {} nodes", ev.tree.active_count(), p.len()).unwrap();
    if violations.is_empty() {
        writeln!(out, "result     : OK — rates, periods, quantities and orders all consistent")
            .unwrap();
    } else {
        writeln!(out, "result     : {} violation(s)", violations.len()).unwrap();
        for v in violations {
            writeln!(out, "  - {v}").unwrap();
        }
    }
    Ok(out)
}

fn cmd_graph(args: &Args) -> Result<String, CliError> {
    use bwfirst_overlay::graph::{random_graph, RandomGraphConfig};
    let kind = args.pos(0, "graph kind")?;
    if kind != "random" {
        return Err(CliError::BadValue { what: "graph kind", value: kind.to_string() });
    }
    let size: usize = args.flag_or("size", "--size", 24)?;
    let seed: u64 = args.flag_or("seed", "--seed", 1)?;
    let extra: u32 = args.flag_or("extra", "--extra", 150)?;
    let g = random_graph(&RandomGraphConfig {
        size,
        seed,
        extra_edge_pct: extra,
        ..Default::default()
    });
    Ok(bwfirst_overlay::io::to_json(&g))
}

fn cmd_overlay(graph_json: &str, args: &Args) -> Result<String, CliError> {
    use bwfirst_overlay::{best_overlay, NodeIx, OverlaySearch};
    let g = bwfirst_overlay::io::from_json(graph_json)
        .map_err(|e| CliError::Platform(e.to_string()))?;
    let root: u32 = args.flag_or("root", "--root", 0)?;
    if root as usize >= g.len() {
        return Err(CliError::BadValue { what: "--root", value: root.to_string() });
    }
    let cfg = OverlaySearch {
        restarts: args.flag_or("restarts", "--restarts", 4)?,
        passes: args.flag_or("passes", "--passes", 8)?,
        seed: args.flag_or("seed", "--seed", 0x0005_EAC4)?,
    };
    let res = best_overlay(&g, NodeIx(root), &cfg);
    let mut out = String::new();
    writeln!(out, "graph              : {} nodes, {} links", g.len(), g.edge_count()).unwrap();
    writeln!(out, "min-link baseline  : {}", res.min_link_baseline).unwrap();
    writeln!(out, "shortest-path tree : {}", res.spt_baseline).unwrap();
    writeln!(
        out,
        "searched overlay   : {} ({} candidates scored)",
        res.throughput, res.candidates_scored
    )
    .unwrap();
    writeln!(out, "\nwinning overlay platform:\n{}", io::to_json(&res.platform)).unwrap();
    Ok(out)
}

fn cmd_generate(args: &Args) -> Result<String, CliError> {
    let kind = args.pos(0, "generator kind")?;
    let size: usize = args.flag_or("size", "--size", 31)?;
    let seed: u64 = args.flag_or("seed", "--seed", 1)?;
    let arity: usize = args.flag_or("arity", "--arity", 2)?;
    let depth: usize = args.flag_or("depth", "--depth", 3)?;
    let w = Weight::Time(rat(4, 1));
    let c = rat(1, 1);
    let p = match kind {
        "random" => generators::random_tree(&generators::RandomTreeConfig {
            size,
            seed,
            ..Default::default()
        }),
        "star" => generators::star(w, size.saturating_sub(1), w, c),
        "chain" => generators::daisy_chain(w, &vec![(w, c); size.saturating_sub(1)]),
        "kary" => generators::kary_tree(depth, arity, w, c),
        "hetero" => generators::hetero_tree(size, seed),
        "wide" => generators::wide_tree(size, seed),
        "example" => bwfirst_platform::examples::example_tree(),
        other => {
            return Err(CliError::BadValue { what: "generator kind", value: other.to_string() })
        }
    };
    Ok(io::to_json(&p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse_args;

    fn run(argv: &[&str]) -> Result<String, CliError> {
        let args = parse_args(argv.iter().map(ToString::to_string)).unwrap();
        dispatch(&args, |path| match path {
            "example.json" => Ok(io::to_json(&bwfirst_platform::examples::example_tree())),
            "hetero15.json" => Ok(io::to_json(&generators::hetero_tree(15, 1))),
            _ => Err(format!("no such file {path}")),
        })
    }

    #[test]
    fn solve_reports_throughput_and_pruned_nodes() {
        let out = run(&["solve", "example.json"]).unwrap();
        assert!(out.contains("throughput       : 10/9"));
        assert!(out.contains("pruned           : P5, P9, P10, P11"));
        assert!(out.contains("P4     1/6         1/6"));
    }

    #[test]
    fn schedule_prints_periods() {
        let out = run(&["schedule", "example.json"]).unwrap();
        assert!(out.contains("synchronous period T = 36"));
        assert!(out.contains("tree start-up bound  = 27"));
        assert!(out.contains("S1 S2 S3 C S1 S2 S3 S1 S2 S3"));
    }

    #[test]
    fn schedule_with_grid_quantizes() {
        let out = run(&["schedule", "example.json", "--grid", "6"]).unwrap();
        assert!(out.contains("quantized to grid 1/6"), "got: {out}");
        // 1/9 and 1/12 round to zero on a 1/6 grid, leaving the five 1/6
        // workers: throughput drops to 5/6.
        assert!(out.contains("-> 5/6"), "got: {out}");
    }

    #[test]
    fn a_period_far_beyond_the_horizon_is_not_a_panic() {
        // The exact plan's synchronous period is ~6.9·10^19 here: no
        // steady-state window fits in 100 time units, none is formed.
        for cmd in ["simulate", "stats", "monitor"] {
            let out = run(&[cmd, "hetero15.json", "--horizon", "100"]);
            assert!(out.as_ref().is_ok_and(|o| !o.contains("steady entry")), "{cmd}: {out:?}");
        }
    }

    #[test]
    fn the_default_horizon_saturates() {
        // Hetero n = 30, seed 2 has a synchronous period of ~1.09·10^38:
        // eight of them wrapped to a negative product, clamped to 200.
        let args = parse_args(["simulate", "t.json"].map(String::from)).unwrap();
        for (period, want) in
            [(1, 200), (20_000, 100_000), (i128::MAX / 8 + 1, 100_000), (i128::MAX, 100_000)]
        {
            assert_eq!(horizon(&args, period, 8).unwrap(), Rat::from_int(want), "{period}");
        }
    }

    #[test]
    fn simulate_event_runs() {
        let out = run(&["simulate", "example.json", "--horizon", "150", "--gantt", "80"]).unwrap();
        assert!(out.contains("predicted rate    : 10/9"));
        // The measurement window is not period-aligned; accept 1.1x.
        assert!(out.contains("measured rate     : 1.1"), "got: {out}");
        assert!(out.contains("Gantt"));
    }

    #[test]
    fn simulate_demand_runs() {
        let out =
            run(&["simulate", "example.json", "--horizon", "150", "--protocol", "demand"]).unwrap();
        assert!(out.contains("protocol          : demand"));
    }

    #[test]
    fn simulate_rejects_bad_protocol() {
        let err = run(&["simulate", "example.json", "--protocol", "psychic"]).unwrap_err();
        assert!(matches!(err, CliError::BadValue { what: Protocol::FLAG, .. }));
    }

    #[test]
    fn generate_roundtrips_through_solve() {
        let json = run(&["generate", "random", "--size", "20", "--seed", "5"]).unwrap();
        let p = io::from_json(&json).unwrap();
        assert_eq!(p.len(), 20);
        let json2 = run(&["generate", "example"]).unwrap();
        let p2 = io::from_json(&json2).unwrap();
        assert_eq!(bw_first(&p2).throughput(), rat(10, 9));
    }

    #[test]
    fn generate_star_chain_kary() {
        let star = io::from_json(&run(&["generate", "star", "--size", "6"]).unwrap()).unwrap();
        assert_eq!(star.len(), 6);
        assert_eq!(star.height(), 1);
        let chain = io::from_json(&run(&["generate", "chain", "--size", "4"]).unwrap()).unwrap();
        assert_eq!(chain.height(), 3);
        let kary =
            io::from_json(&run(&["generate", "kary", "--depth", "2", "--arity", "3"]).unwrap())
                .unwrap();
        assert_eq!(kary.len(), 13);
    }

    #[test]
    fn dot_command() {
        let out = run(&["dot", "example.json"]).unwrap();
        assert!(out.starts_with("digraph platform"));
    }

    #[test]
    fn unknown_command_and_missing_file() {
        assert!(matches!(run(&["frobnicate"]), Err(CliError::UnknownCommand(_))));
        assert!(matches!(run(&["solve", "missing.json"]), Err(CliError::Platform(_))));
    }

    #[test]
    fn graph_and_overlay_commands() {
        let gjson = run(&["graph", "random", "--size", "10", "--seed", "3"]).unwrap();
        let g = bwfirst_overlay::io::from_json(&gjson).unwrap();
        assert_eq!(g.len(), 10);
        // Route the overlay command through a synthetic "file".
        let args = parse_args(
            ["overlay", "g.json", "--restarts", "1", "--passes", "2"]
                .iter()
                .map(ToString::to_string),
        )
        .unwrap();
        let out = dispatch(&args, |path| {
            if path == "g.json" {
                Ok(gjson.clone())
            } else {
                Err("missing".into())
            }
        })
        .unwrap();
        assert!(out.contains("searched overlay"));
        assert!(out.contains("winning overlay platform"));
        // The emitted platform is loadable and solvable.
        let json_start = out.find('{').unwrap();
        let p = io::from_json(&out[json_start..]).unwrap();
        assert_eq!(p.len(), 10);
    }

    #[test]
    fn overlay_rejects_bad_root() {
        let gjson = run(&["graph", "random", "--size", "4"]).unwrap();
        let args =
            parse_args(["overlay", "g.json", "--root", "99"].iter().map(ToString::to_string))
                .unwrap();
        let err = dispatch(&args, |_| Ok(gjson.clone())).unwrap_err();
        assert!(matches!(err, CliError::BadValue { what: "--root", .. }));
    }

    #[test]
    fn validate_command() {
        let out = run(&["validate", "example.json"]).unwrap();
        assert!(out.contains("result     : OK"), "got: {out}");
        let out = run(&["validate", "example.json", "--grid", "12"]).unwrap();
        assert!(out.contains("1/12-quantized"));
        assert!(out.contains("result     : OK"), "got: {out}");
    }

    #[test]
    fn help_prints_usage() {
        let out = run(&["help"]).unwrap();
        assert!(out.contains("bwfirst solve"));
        assert!(out.contains("bwfirst stats"));
    }

    /// Each usage block's synopsis (its `bwfirst …` line and the deeper
    /// indented lines under it) names exactly the flags `known_flags`
    /// accepts for that subcommand or verb.
    #[test]
    fn usage_lists_exactly_the_known_flags() {
        let text = usage();
        let mut blocks: Vec<Vec<&str>> = Vec::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("  bwfirst ") {
                blocks.push(rest.split_whitespace().collect());
            } else if line.starts_with("       ") {
                let block = blocks.last_mut().expect("synopsis before its continuation");
                block.extend(line.split_whitespace());
            }
        }
        assert_eq!(blocks.len(), 15, "usage blocks");
        for words in &blocks {
            let mut listed: Vec<&str> =
                words.iter().filter_map(|w| w.trim_start_matches('[').strip_prefix("--")).collect();
            listed.sort_unstable();
            // `<a|b>` stands for each alternative; a bare word is a verb.
            let verbs: Vec<&str> = match words.get(1) {
                Some(w) if w.starts_with('<') && !w.contains('.') => {
                    w.trim_matches(['<', '>']).split('|').collect()
                }
                Some(w) if !w.starts_with(['<', '[']) => vec![*w],
                _ => vec!["file"],
            };
            for verb in verbs {
                let args = Args {
                    command: words[0].to_string(),
                    positional: vec![verb.to_string()],
                    flags: std::collections::BTreeMap::new(),
                };
                let mut known = known_flags(&args)
                    .unwrap_or_else(|| panic!("usage names `{} {verb}`", words[0]))
                    .to_vec();
                known.sort_unstable();
                assert_eq!(listed, known, "usage of `bwfirst {} {verb}`", words[0]);
            }
        }
    }

    /// Like `run`, but with a file sink; returns the output and every file
    /// written as `(path, contents)`.
    fn run_io(argv: &[&str]) -> Result<(String, Vec<(String, String)>), CliError> {
        use std::cell::RefCell;
        let args = parse_args(argv.iter().map(ToString::to_string)).unwrap();
        let written: RefCell<Vec<(String, String)>> = RefCell::new(Vec::new());
        let out = dispatch_io(
            &args,
            |path| {
                if path == "example.json" {
                    Ok(io::to_json(&bwfirst_platform::examples::example_tree()))
                } else {
                    Err(format!("no such file {path}"))
                }
            },
            |path, contents| {
                written.borrow_mut().push((path.to_string(), contents.to_string()));
                Ok(())
            },
        )?;
        Ok((out, written.into_inner()))
    }

    #[test]
    fn stats_reports_all_three_layers() {
        let (out, _) = run_io(&["stats", "example.json", "--horizon", "72"]).unwrap();
        assert!(out.contains("throughput : 10/9"), "got: {out}");
        assert!(out.contains("visited    : 8 of 12"), "got: {out}");
        assert!(out.contains("messages   : 16"), "got: {out}");
        // Protocol counters, solver counters and simulator histograms all
        // land in the same metrics table.
        assert!(out.contains("proto.wire_bytes"), "got: {out}");
        assert!(out.contains("core.bwfirst.visited"), "got: {out}");
        assert!(out.contains("sim.event_queue_depth"), "got: {out}");
        // The per-activity utilization table covers the busy root port.
        assert!(out.contains("P0 send"), "got: {out}");
    }

    #[test]
    fn stats_writes_a_valid_chrome_trace() {
        let (_, files) = run_io(&[
            "stats",
            "example.json",
            "--horizon",
            "72",
            "--trace",
            "t.json",
            "--metrics",
            "m.json",
        ])
        .unwrap();
        assert_eq!(files.len(), 2);
        let (ref tpath, ref trace) = files[0];
        assert_eq!(tpath, "t.json");
        let v = bwfirst_obs::json::parse(trace).expect("trace is valid JSON");
        let evs = v["traceEvents"].as_array().expect("traceEvents array");
        assert!(evs.len() > 100, "example tree yields a rich trace, got {}", evs.len());
        for e in evs {
            let ph = e["ph"].as_str().expect("phase string");
            assert!(["B", "E", "i", "C", "M"].contains(&ph), "unexpected phase {ph}");
        }
        // The metadata prologue names the process and the per-lane tracks.
        assert_eq!(evs[0]["ph"].as_str(), Some("M"));
        assert_eq!(evs[0]["name"].as_str(), Some("process_name"));
        assert!(evs.iter().any(|e| e["name"].as_str() == Some("thread_name")
            && e["args"]["name"].as_str() == Some("P0 send")));
        let (ref mpath, ref metrics) = files[1];
        assert_eq!(mpath, "m.json");
        let m = bwfirst_obs::json::parse(metrics).expect("metrics are valid JSON");
        assert!(m["counters"]["proto.messages"].as_i128().is_some());
    }

    #[test]
    fn simulate_trace_flag_exports_without_changing_output() {
        let plain = run(&["simulate", "example.json", "--horizon", "150"]).unwrap();
        let (traced, files) =
            run_io(&["simulate", "example.json", "--horizon", "150", "--trace", "sim.json"])
                .unwrap();
        assert_eq!(plain, traced, "instrumentation must not change the report");
        assert_eq!(files.len(), 1);
        let v = bwfirst_obs::json::parse(&files[0].1).expect("valid JSON");
        assert!(!v["traceEvents"].as_array().unwrap().is_empty());
    }

    /// Without `--trace` the recorder keeps no events; the report and the
    /// metrics must not notice.
    #[test]
    fn metrics_exports_do_not_depend_on_the_trace_flag() {
        let base = ["example.json", "--horizon", "72", "--metrics", "m.json"];
        for command in ["simulate", "stats"] {
            let argv = |trace: bool| {
                let mut v = vec![command];
                v.extend(base);
                if trace {
                    v.extend(["--trace", "t.json"]);
                }
                run_io(&v).unwrap()
            };
            let ((plain, plain_files), (traced, traced_files)) = (argv(false), argv(true));
            let metrics = |files: &[(String, String)]| {
                files.iter().find(|(path, _)| path == "m.json").unwrap().1.clone()
            };
            assert_eq!(metrics(&plain_files), metrics(&traced_files), "{command}");
            assert_eq!(plain, traced, "{command}");
        }
    }

    #[test]
    fn trace_flag_without_a_sink_fails_cleanly() {
        let err =
            run(&["stats", "example.json", "--horizon", "72", "--trace", "t.json"]).unwrap_err();
        assert!(matches!(err, CliError::Io(_)));
    }

    #[test]
    fn monitor_is_clean_on_the_example_tree() {
        for protocol in ["event", "clocked", "demand", "demand-int"] {
            let (out, _) =
                run_io(&["monitor", "example.json", "--protocol", protocol, "--horizon", "360"])
                    .unwrap();
            assert!(out.contains("violations : 0"), "{protocol}: {out}");
            assert!(out.contains(&format!("protocol   : {protocol}")), "{protocol}: {out}");
        }
    }

    #[test]
    fn monitor_streams_schema_valid_snapshots() {
        let (out, files) =
            run_io(&["monitor", "example.json", "--horizon", "360", "--snapshots", "s.jsonl"])
                .unwrap();
        assert!(out.contains("windows    : 9 closed"), "got: {out}");
        assert_eq!(files.len(), 1);
        let (ref path, ref jsonl) = files[0];
        assert_eq!(path, "s.jsonl");
        let snapshots = bwfirst_sim::Snapshot::parse_jsonl(jsonl).expect("schema-valid stream");
        assert!(snapshots.len() >= 9, "one snapshot per window, got {}", snapshots.len());
    }

    /// The artifact each protocol writes on Figure 2 with the trace-smoke
    /// settings, pinned byte for byte by the simulator's golden tests.
    fn golden_trace(protocol: Protocol) -> &'static str {
        match protocol {
            Protocol::Event => include_str!("../../sim/testdata/fig2_event_trace.jsonl"),
            Protocol::Clocked => include_str!("../../sim/testdata/fig2_clocked_trace.jsonl"),
            Protocol::Demand => include_str!("../../sim/testdata/fig2_demand_trace.jsonl"),
            Protocol::DemandInt => include_str!("../../sim/testdata/fig2_demand-int_trace.jsonl"),
        }
    }

    #[test]
    fn every_subcommand_accepts_every_protocol() {
        for protocol in Protocol::ALL {
            let name = protocol.name();
            let out =
                run(&["simulate", "example.json", "--horizon", "150", "--protocol", name]).unwrap();
            assert!(out.contains(&format!("protocol          : {name}")), "{name}: {out}");
            let (out, _) =
                run_io(&["monitor", "example.json", "--protocol", name, "--horizon", "360"])
                    .unwrap();
            assert!(out.contains("violations : 0"), "{name}: {out}");
            let mode = if protocol.strict() { "strict" } else { "relaxed" };
            assert!(out.contains(&format!("protocol   : {name} ({mode} mode)")), "{name}: {out}");
            let jsonl = record_fixture(name);
            assert_eq!(jsonl, golden_trace(protocol), "{name}: trace drifted");
            let (out, _) = run_io_with(
                &["trace", "replay", "t.jsonl", "example.json"],
                &[("t.jsonl", &jsonl)],
            )
            .unwrap();
            assert!(out.contains("bit-for-bit identical"), "{name}: {out}");
        }
        // The usage text names the set once.
        let usage = usage();
        assert_eq!(usage.matches("demand-int").count(), 1, "{usage}");
        assert!(usage.contains("event, clocked, demand, demand-int\n"), "{usage}");
    }

    #[test]
    fn non_positive_horizons_are_rejected() {
        for horizon in ["0", "-5"] {
            let bad = |argv: &[&str]| {
                let mut argv = argv.to_vec();
                argv.extend(["--horizon", horizon]);
                let err = run_io(&argv).unwrap_err();
                assert!(
                    matches!(err, CliError::BadValue { what: "--horizon", ref value } if value == horizon),
                    "{argv:?}: {err}"
                );
            };
            bad(&["simulate", "example.json"]);
            bad(&["stats", "example.json"]);
            bad(&["monitor", "example.json"]);
            bad(&["trace", "record", "example.json", "--out", "t.jsonl"]);
        }
    }

    #[test]
    fn monitor_rejects_unknown_protocols() {
        let err = run(&["monitor", "example.json", "--protocol", "carrier-pigeon"]).unwrap_err();
        assert!(matches!(err, CliError::BadValue { what: Protocol::FLAG, .. }));
    }

    #[test]
    fn dynamic_is_not_a_protocol() {
        let names = Protocol::ALL.map(Protocol::name);
        assert_eq!(Protocol::FLAG, format!("--protocol ({})", names.join(", ")));
        let commands: [&[&str]; 4] = [
            &["simulate", "example.json"],
            &["stats", "example.json"],
            &["monitor", "example.json"],
            &["trace", "record", "example.json", "--out", "t.jsonl"],
        ];
        for argv in commands {
            let mut argv = argv.to_vec();
            argv.extend(["--protocol", "dynamic"]);
            let err = run_io(&argv).unwrap_err();
            assert!(err.is_usage(), "{argv:?}: {err}");
            let msg = err.to_string();
            assert!(msg.starts_with("bad value for --protocol"), "{argv:?}: {msg}");
            for name in &names {
                assert!(msg.contains(name), "{argv:?}: {msg} omits {name}");
            }
        }
        // An artifact recorded under the retired alias replays as a
        // run-time error, not a panic.
        let jsonl =
            record_fixture("event").replacen(r#""protocol":"event""#, r#""protocol":"dynamic""#, 1);
        let err =
            run_io_with(&["trace", "replay", "t.jsonl", "example.json"], &[("t.jsonl", &jsonl)])
                .unwrap_err();
        assert!(matches!(err, CliError::Runtime(ref m) if m.contains("`dynamic`")), "{err}");
    }

    /// Like `run_io`, but with extra synthetic input files (so recorded
    /// traces can be fed back into `lineage`/`diff`/`replay`).
    fn run_io_with(
        argv: &[&str],
        extra: &[(&str, &str)],
    ) -> Result<(String, Vec<(String, String)>), CliError> {
        use std::cell::RefCell;
        let args = parse_args(argv.iter().map(ToString::to_string)).unwrap();
        let written: RefCell<Vec<(String, String)>> = RefCell::new(Vec::new());
        let out = dispatch_io(
            &args,
            |path| {
                if path == "example.json" {
                    Ok(io::to_json(&bwfirst_platform::examples::example_tree()))
                } else if let Some((_, contents)) = extra.iter().find(|(p, _)| *p == path) {
                    Ok((*contents).to_string())
                } else {
                    Err(format!("no such file {path}"))
                }
            },
            |path, contents| {
                written.borrow_mut().push((path.to_string(), contents.to_string()));
                Ok(())
            },
        )?;
        Ok((out, written.into_inner()))
    }

    /// Records a bounded Fig. 2 run and returns the JSONL artifact.
    fn record_fixture(protocol: &str) -> String {
        let (out, files) = run_io(&[
            "trace",
            "record",
            "example.json",
            "--out",
            "t.jsonl",
            "--protocol",
            protocol,
            "--tasks",
            "40",
            "--horizon",
            "400",
        ])
        .unwrap();
        assert!(out.contains(&format!("protocol : {protocol}")), "got: {out}");
        assert_eq!(files.len(), 1);
        assert_eq!(files[0].0, "t.jsonl");
        files[0].1.clone()
    }

    #[test]
    fn trace_record_writes_a_parseable_artifact() {
        let jsonl = record_fixture("event");
        let trace = Trace::parse(&jsonl).expect("artifact parses");
        assert_eq!(trace.header.protocol, "event");
        assert_eq!(trace.header.bunch, Some(10));
        assert_eq!(trace.header.t_omega, Some(9));
        assert_eq!(trace.task_ids().len(), 40);
    }

    #[test]
    fn trace_replay_is_bit_for_bit_on_every_executor() {
        for protocol in ["event", "clocked", "demand", "demand-int"] {
            let jsonl = record_fixture(protocol);
            let (out, _) = run_io_with(
                &["trace", "replay", "t.jsonl", "example.json"],
                &[("t.jsonl", &jsonl)],
            )
            .unwrap();
            assert!(out.contains("bit-for-bit identical"), "{protocol}: {out}");
        }
    }

    #[test]
    fn trace_replay_detects_tampering() {
        let jsonl = record_fixture("event");
        // Flip one dispatch time: replay must refuse.
        let tampered = jsonl.replacen("\"t\":\"9\"", "\"t\":\"8\"", 1);
        assert_ne!(tampered, jsonl, "fixture contains a t=9 record");
        let err =
            run_io_with(&["trace", "replay", "t.jsonl", "example.json"], &[("t.jsonl", &tampered)])
                .unwrap_err();
        assert!(matches!(err, CliError::Runtime(ref m) if m.contains("diverged")), "{err}");
    }

    #[test]
    fn malformed_traces_are_rejected_by_every_verb() {
        let good = record_fixture("event");
        // A compute on node 99 of a 3-node tree that ends before it starts,
        // and a negative task cap in the header.
        let bad_node = include_str!("../../obs/testdata/trace_bad_node.jsonl");
        let bad_cap = good.replacen("\"tasks\":40", "\"tasks\":-3", 1);
        let verbs: [&[&str]; 3] = [
            &["trace", "lineage", "bad.jsonl", "--task", "0"],
            &["trace", "diff", "bad.jsonl", "good.jsonl"],
            &["trace", "replay", "bad.jsonl", "example.json"],
        ];
        for (bad, line) in [(bad_node, 5), (bad_cap.as_str(), 1)] {
            for argv in verbs {
                let files = [("bad.jsonl", bad), ("good.jsonl", good.as_str())];
                let err = run_io_with(argv, &files).unwrap_err();
                let want = format!("trace line {line}:");
                assert!(
                    matches!(err, CliError::Runtime(ref m) if m.starts_with(&want)),
                    "{argv:?}: {err}"
                );
            }
        }
    }

    #[test]
    fn trace_lineage_reports_a_path_cost_past_i128() {
        // Edge times i128::MAX/2 and 1/3 are each in range and schema-clean;
        // their sum is not.
        let wide = include_str!("../../obs/testdata/trace_good_wide_edges.jsonl");
        assert!(Trace::parse(wide).is_ok());
        let argv = ["trace", "lineage", "w.jsonl", "--task", "0"];
        let (out, _) = run_io_with(&argv, &[("w.jsonl", wide)]).unwrap();
        assert!(out.contains("computed on P2, retired at t=16/3"), "{out}");
        assert!(out.contains("predicted root->P2 path cost (Lemma 1): outside i128"), "{out}");
    }

    #[test]
    fn trace_diff_event_vs_clocked_is_clean() {
        let a = record_fixture("event");
        let b = record_fixture("clocked");
        let (out, _) = run_io_with(
            &["trace", "diff", "a.jsonl", "b.jsonl"],
            &[("a.jsonl", &a), ("b.jsonl", &b)],
        )
        .unwrap();
        assert!(out.contains("common injected tasks : 40"), "got: {out}");
        assert!(out.contains("conservation          : OK"), "got: {out}");
        assert!(out.contains("completion offset b-a"), "got: {out}");
        assert!(!out.contains("in flight"), "a drained run has none: {out}");
    }

    #[test]
    fn trace_diff_reports_tasks_in_flight_at_the_horizon() {
        let record = |protocol: &str| {
            let argv = ["trace", "record", "example.json", "--out", "t.jsonl", "--protocol"];
            let (_, files) =
                run_io(&[&argv[..], &[protocol, "--horizon", "400"]].concat()).unwrap();
            files[0].1.clone()
        };
        let (a, b) = (record("event"), record("clocked"));
        let diff = |b: &str| {
            run_io_with(
                &["trace", "diff", "a.jsonl", "b.jsonl"],
                &[("a.jsonl", &a), ("b.jsonl", b)],
            )
        };
        let (out, _) = diff(&b).unwrap();
        assert!(
            out.contains(
                "in flight at horizon  : 4 task(s) computed in one trace only [433, 441, 442, 443]"
            ),
            "got: {out}"
        );
        assert!(out.contains("conservation          : OK"), "got: {out}");
        // A task computed twice is still a conservation failure.
        let compute = b.lines().find(|l| l.starts_with(r#"{"k":"compute""#)).unwrap();
        let err = diff(&format!("{b}{compute}\n")).unwrap_err();
        assert!(
            matches!(err, CliError::Runtime(ref m) if m.contains("1 per-task compute-count divergence")),
            "{err}"
        );
    }

    #[test]
    fn trace_diff_fails_on_task_loss() {
        let a = record_fixture("event");
        // Drop task 39 entirely from the second run.
        let b: String =
            a.lines().filter(|l| !l.contains("\"task\":39")).fold(String::new(), |mut s, l| {
                s.push_str(l);
                s.push('\n');
                s
            });
        let err = run_io_with(
            &["trace", "diff", "a.jsonl", "b.jsonl"],
            &[("a.jsonl", &a), ("b.jsonl", &b)],
        )
        .unwrap_err();
        assert!(matches!(err, CliError::Runtime(ref m) if m.contains("only in a [39]")), "{err}");
    }

    #[test]
    fn trace_lineage_prints_the_full_causal_chain() {
        let jsonl = record_fixture("event");
        let trace = Trace::parse(&jsonl).unwrap();
        // Pick a task that left the root: lineage shows every stage.
        let task = trace
            .task_ids()
            .into_iter()
            .find(|&t| trace.compute_node(t).is_some_and(|n| n != 0))
            .expect("some task computes off-root");
        let (out, _) = run_io_with(
            &["trace", "lineage", "t.jsonl", "--task", &task.to_string()],
            &[("t.jsonl", &jsonl)],
        )
        .unwrap();
        assert!(out.contains("enter    P0"), "got: {out}");
        assert!(out.contains("dispatch P0 -> send"), "got: {out}");
        assert!(out.contains("Lemma 1 c="), "got: {out}");
        assert!(out.contains("compute"), "got: {out}");
        assert!(out.contains("retired at"), "got: {out}");
        assert!(out.contains("predicted root->P"), "got: {out}");
    }

    #[test]
    fn trace_record_chrome_view_pairs_every_flow() {
        let (_, files) = run_io(&[
            "trace",
            "record",
            "example.json",
            "--out",
            "t.jsonl",
            "--chrome",
            "c.json",
            "--tasks",
            "20",
            "--horizon",
            "400",
        ])
        .unwrap();
        let chrome_json = &files.iter().find(|(p, _)| p == "c.json").unwrap().1;
        let v = bwfirst_obs::json::parse(chrome_json).expect("valid JSON");
        let evs = v["traceEvents"].as_array().unwrap();
        // Track metadata names every per-node lane.
        assert!(evs.iter().any(|e| e["name"].as_str() == Some("thread_name")
            && e["args"]["name"].as_str() == Some("P0 send")));
        // Every flow start has exactly one matching flow end on the same id.
        let ids = |phase: &str| {
            let mut v: Vec<i128> = evs
                .iter()
                .filter(|e| e["ph"].as_str() == Some(phase))
                .map(|e| e["id"].as_i128().unwrap())
                .collect();
            v.sort_unstable();
            v
        };
        let starts = ids("s");
        let ends = ids("f");
        assert!(!starts.is_empty(), "hops produce flow events");
        assert_eq!(starts, ends, "every hop arrow is closed");
        assert!(evs
            .iter()
            .filter(|e| e["ph"].as_str() == Some("f"))
            .all(|e| e["bp"].as_str() == Some("e")));
    }

    #[test]
    fn trace_rejects_unknown_verbs_and_protocols() {
        let err = run_io(&["trace", "summarize", "t.jsonl"]).unwrap_err();
        assert!(matches!(err, CliError::BadValue { what: "trace verb", .. }));
        let err = run_io(&[
            "trace",
            "record",
            "example.json",
            "--out",
            "t.jsonl",
            "--protocol",
            "psychic",
        ])
        .unwrap_err();
        assert!(matches!(err, CliError::BadValue { what: Protocol::FLAG, .. }));
        let err = run_io(&["trace", "record", "example.json"]).unwrap_err();
        assert!(matches!(err, CliError::MissingArgument(_)));
    }
}
