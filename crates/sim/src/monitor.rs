//! Online invariant monitors, windowed health telemetry, and a crash-dump
//! flight recorder — `bwfirst-monitor`.
//!
//! [`MonitorProbe`] is a [`Probe`] that *watches* a running simulation and
//! checks, per observation and in O(1) state per node, that the paper's
//! execution contract holds:
//!
//! * **single-port / full-overlap** (Section 2) — a node may receive,
//!   compute and send concurrently (full overlap), but never runs two
//!   segments of the *same* activity lane at once;
//! * **transfer pairing** — every `Send(child)` segment is immediately
//!   matched by the child's `Receive` segment over the identical interval
//!   (how every executor models one task crossing one edge);
//! * **task conservation** — at every non-root node, tasks consumed
//!   (compute/send starts) never exceed tasks drained from the buffer, and
//!   the buffer is never drained without a matching activity (strict mode;
//!   relaxed for the demand-driven executor, whose send segments surface
//!   only when the transfer completes);
//! * **duration legality** — compute segments last exactly `w_i` (with
//!   [expectations](MonitorExpectations));
//! * **rate convergence** (Lemma 1 / equation set 4) — per completed window
//!   after warm-up, each node's compute starts match `α_i·W` and its
//!   receive starts match `η_i·W` within a rational slack;
//! * **bunch periodicity** (Section 6.2) — the root handles `Ψ·W/T^ω`
//!   tasks per window.
//!
//! Windows also drive the health telemetry: one [`Snapshot`] per completed
//! window (throughput, lag vs steady state, queue depth, buffer totals),
//! rendered as JSONL for dashboards. Every observation additionally feeds a
//! bounded [`FlightRecorder`], so a violation or `SimError` can be dumped as
//! a self-contained `bwfirst-postmortem/1` artifact with the last-N events.
//!
//! The monitor is cheap enough to leave on: the hot path allocates nothing
//! and touches no rationals. Observations arrive as engine ticks (the run's
//! [`TickScale`] comes through [`Probe::start`]), so the per-lane busy
//! bounds, the transfer pairing and the duration checks compare integers,
//! and the current window's bounds are kept as ceiling ticks —
//! `⌈k·W·S⌉ ≤ t < ⌈(k+1)·W·S⌉` holds exactly when `t/S` lies in window
//! `k`. The ring holds typed [`MonitorEntry`]s, ticks included, rendered to
//! events (and reduced to exact times) only in a post-mortem; the monitor's
//! own counters and histograms live in fields folded into the ring's
//! metrics by `finish()`. Exact times are rebuilt for violations and
//! snapshots only.
//!
//! Violations are *data*, never panics: the probe keeps watching after the
//! first finding (up to [`MAX_VIOLATIONS`]).
//!
//! Tight rate checks want `W` to be a multiple of the tree's synchronous
//! period: then the steady-state pattern repeats exactly once per window and
//! the [`RATE_SLACK`] of one task suffices.

// R2: typed errors, no panics (rules: docs/ANALYSIS.md).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::gantt::SegmentKind;
use crate::probe::{lane, ts, Probe, TickScale};
use bwfirst_core::expectations::MonitorExpectations;
use bwfirst_obs::chrome::{track, LANES};
use bwfirst_obs::json::{self, obj, Value};
use bwfirst_obs::metrics::Histogram;
use bwfirst_obs::{Arg, Event, EventKind, FlightEntry, FlightRecorder};
use bwfirst_platform::NodeId;
use bwfirst_rational::Rat;
use std::fmt;

/// Allowed |observed − expected| per rate check, in tasks per window.
pub const RATE_SLACK: Rat = Rat::ONE;

/// Violations kept verbatim; later ones are counted but dropped.
pub const MAX_VIOLATIONS: usize = 64;

/// Tuning for a [`MonitorProbe`].
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// Window length for telemetry and rate checks (a multiple of the
    /// synchronous period gives exact steady-state counts).
    pub window: Rat,
    /// Completed windows to skip before rate checks (start-up transient;
    /// Proposition 4 bounds it, two sync periods cover the example tree).
    pub warmup_windows: i128,
    /// Flight-recorder ring capacity (events).
    pub flight_capacity: usize,
    /// Enforce drain/consume matching per observation. `true` fits the
    /// event-driven, clocked and dynamic executors (which emit the buffer
    /// decrement and its segment back to back); the demand-driven executor
    /// needs `false` because its send segments surface at transfer *end*.
    pub strict_conservation: bool,
    /// Solver reference rates; without them only structural invariants run.
    pub expectations: Option<MonitorExpectations>,
}

impl MonitorConfig {
    /// Defaults for a given window: warm-up 2, 256-event flight ring,
    /// strict conservation, no expectations.
    #[must_use]
    pub fn new(window: Rat) -> MonitorConfig {
        MonitorConfig {
            window,
            warmup_windows: 2,
            flight_capacity: 256,
            strict_conservation: true,
            expectations: None,
        }
    }

    /// Attaches solver expectations, enabling the rate/bunch/duration
    /// monitors.
    #[must_use]
    pub fn with_expectations(mut self, exp: MonitorExpectations) -> MonitorConfig {
        self.expectations = Some(exp);
        self
    }

    /// Relaxes per-observation conservation (for the demand-driven
    /// executor).
    #[must_use]
    pub fn relaxed(mut self) -> MonitorConfig {
        self.strict_conservation = false;
        self
    }
}

/// One invariant breach, as data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MonitorViolation {
    /// A lane started a segment before its previous one ended.
    SinglePort {
        /// The offending node.
        node: NodeId,
        /// Lane index (receive 0, compute 1, send 2).
        lane: usize,
        /// Start of the overlapping segment.
        start: Rat,
        /// When the lane was busy until.
        busy_until: Rat,
    },
    /// A `Send(child)` was not followed by the child's matching `Receive`.
    UnpairedSend {
        /// The sender.
        node: NodeId,
        /// The intended receiver.
        child: NodeId,
        /// Send-segment start.
        at: Rat,
    },
    /// A `Receive` arrived with no pending matching send.
    UnpairedReceive {
        /// The receiver.
        node: NodeId,
        /// Receive-segment start.
        at: Rat,
    },
    /// Consumption and buffer drain disagree at a non-root node.
    TaskConservation {
        /// The offending node.
        node: NodeId,
        /// Compute/send segment starts seen.
        consumed: u64,
        /// Tasks drained from the buffer (negative deltas).
        drained: u64,
        /// When the mismatch was observed.
        at: Rat,
    },
    /// A compute segment's length differs from the node's `w_i`.
    DurationMismatch {
        /// The offending node.
        node: NodeId,
        /// The platform's per-task compute time.
        expected: Rat,
        /// The observed segment length.
        observed: Rat,
        /// Segment start.
        at: Rat,
    },
    /// A node's windowed rate strayed from the solver's `α_i`/`η_i`.
    RateDeviation {
        /// The offending node.
        node: NodeId,
        /// Lane index (0 = receive vs `η_i`, 1 = compute vs `α_i`).
        lane: usize,
        /// The completed window index.
        window: i128,
        /// Segment starts observed in the window.
        observed: u64,
        /// The exact expected count (rate × window).
        expected: Rat,
    },
    /// The root did not handle `Ψ·W/T^ω` tasks in a window.
    BunchPeriodicity {
        /// The completed window index.
        window: i128,
        /// Root compute + send starts observed.
        observed: u64,
        /// The exact expected count.
        expected: Rat,
    },
}

impl MonitorViolation {
    /// A stable kebab-case tag for dashboards and tests.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            MonitorViolation::SinglePort { .. } => "single-port",
            MonitorViolation::UnpairedSend { .. } => "unpaired-send",
            MonitorViolation::UnpairedReceive { .. } => "unpaired-receive",
            MonitorViolation::TaskConservation { .. } => "task-conservation",
            MonitorViolation::DurationMismatch { .. } => "duration-mismatch",
            MonitorViolation::RateDeviation { .. } => "rate-deviation",
            MonitorViolation::BunchPeriodicity { .. } => "bunch-periodicity",
        }
    }

    /// The shared violation-object shape (`layer`/`kind`/`message` plus the
    /// variant's fields) used across simulator and protocol post-mortems.
    #[must_use]
    pub fn to_json(&self) -> Value {
        let mut members = vec![
            ("layer", Value::Str("sim".to_string())),
            ("kind", Value::Str(self.kind().to_string())),
            ("message", Value::Str(self.to_string())),
        ];
        match self {
            MonitorViolation::SinglePort { node, lane, start, busy_until } => {
                members.push(("node", Value::Int(i128::from(node.0))));
                members.push(("lane", Value::Str(LANES[*lane].to_string())));
                members.push(("start", Value::Str(start.to_string())));
                members.push(("busy_until", Value::Str(busy_until.to_string())));
            }
            MonitorViolation::UnpairedSend { node, child, at } => {
                members.push(("node", Value::Int(i128::from(node.0))));
                members.push(("child", Value::Int(i128::from(child.0))));
                members.push(("at", Value::Str(at.to_string())));
            }
            MonitorViolation::UnpairedReceive { node, at } => {
                members.push(("node", Value::Int(i128::from(node.0))));
                members.push(("at", Value::Str(at.to_string())));
            }
            MonitorViolation::TaskConservation { node, consumed, drained, at } => {
                members.push(("node", Value::Int(i128::from(node.0))));
                members.push(("consumed", Value::Int(i128::from(*consumed))));
                members.push(("drained", Value::Int(i128::from(*drained))));
                members.push(("at", Value::Str(at.to_string())));
            }
            MonitorViolation::DurationMismatch { node, expected, observed, at } => {
                members.push(("node", Value::Int(i128::from(node.0))));
                members.push(("expected", Value::Str(expected.to_string())));
                members.push(("observed", Value::Str(observed.to_string())));
                members.push(("at", Value::Str(at.to_string())));
            }
            MonitorViolation::RateDeviation { node, lane, window, observed, expected } => {
                members.push(("node", Value::Int(i128::from(node.0))));
                members.push(("lane", Value::Str(LANES[*lane].to_string())));
                members.push(("window", Value::Int(*window)));
                members.push(("observed", Value::Int(i128::from(*observed))));
                members.push(("expected", Value::Str(expected.to_string())));
            }
            MonitorViolation::BunchPeriodicity { window, observed, expected } => {
                members.push(("window", Value::Int(*window)));
                members.push(("observed", Value::Int(i128::from(*observed))));
                members.push(("expected", Value::Str(expected.to_string())));
            }
        }
        obj(members)
    }
}

impl fmt::Display for MonitorViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MonitorViolation::SinglePort { node, lane, start, busy_until } => write!(
                f,
                "single-port violated at {node}: {} segment starts at {start} while busy until {busy_until}",
                LANES[*lane]
            ),
            MonitorViolation::UnpairedSend { node, child, at } => {
                write!(f, "send {node}→{child} at {at} never matched by a receive")
            }
            MonitorViolation::UnpairedReceive { node, at } => {
                write!(f, "receive at {node} at {at} with no pending send")
            }
            MonitorViolation::TaskConservation { node, consumed, drained, at } => write!(
                f,
                "task conservation violated at {node} (t = {at}): {consumed} consumed vs {drained} drained"
            ),
            MonitorViolation::DurationMismatch { node, expected, observed, at } => write!(
                f,
                "compute at {node} (t = {at}) lasted {observed}, platform says w = {expected}"
            ),
            MonitorViolation::RateDeviation { node, lane, window, observed, expected } => write!(
                f,
                "window {window}: {node} {} rate {observed} strayed from expected {expected}",
                LANES[*lane]
            ),
            MonitorViolation::BunchPeriodicity { window, observed, expected } => write!(
                f,
                "window {window}: root handled {observed} tasks, expected Ψ-periodic {expected}"
            ),
        }
    }
}

/// One completed (or trailing partial) telemetry window.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Window index (`[window·W, (window+1)·W)`).
    pub window: i128,
    /// Window start.
    pub from: Rat,
    /// Window end (exclusive).
    pub to: Rat,
    /// Compute starts across all nodes.
    pub computed: u64,
    /// Receive starts across all nodes.
    pub received: u64,
    /// Root compute + send starts (the `Ψ`-bunch observable).
    pub root_actions: u64,
    /// `computed / W`, the window's throughput.
    pub throughput: f64,
    /// Expected cumulative tasks minus observed (with expectations).
    pub lag: Option<f64>,
    /// Deepest event queue seen in the window.
    pub queue_depth_max: u64,
    /// Total buffered tasks across nodes at window close.
    pub buffer_total: u64,
    /// Observations that arrived with timestamps before the window.
    pub late_events: u64,
    /// `true` only for the trailing window emitted by `finish()`.
    pub partial: bool,
    /// Per-node compute starts.
    pub node_computed: Vec<u64>,
    /// Per-node receive starts.
    pub node_received: Vec<u64>,
}

impl Snapshot {
    /// One JSONL record (`bwfirst-snapshot/1` schema; see
    /// `docs/OBSERVABILITY.md`).
    #[must_use]
    pub fn to_json(&self) -> Value {
        let ints = |v: &[u64]| Value::Array(v.iter().map(|&x| Value::Int(i128::from(x))).collect());
        obj(vec![
            ("window", Value::Int(self.window)),
            ("from", Value::Str(self.from.to_string())),
            ("to", Value::Str(self.to.to_string())),
            ("computed", Value::Int(i128::from(self.computed))),
            ("received", Value::Int(i128::from(self.received))),
            ("root_actions", Value::Int(i128::from(self.root_actions))),
            ("throughput", Value::Float(self.throughput)),
            ("lag", self.lag.map_or(Value::Null, Value::Float)),
            ("queue_depth_max", Value::Int(i128::from(self.queue_depth_max))),
            ("buffer_total", Value::Int(i128::from(self.buffer_total))),
            ("late_events", Value::Int(i128::from(self.late_events))),
            ("partial", Value::Bool(self.partial)),
            ("node_computed", ints(&self.node_computed)),
            ("node_received", ints(&self.node_received)),
        ])
    }

    /// Reads a `bwfirst monitor --snapshots` stream: the one reader of the
    /// schema [`to_json`](Self::to_json) writes. Blank lines are skipped;
    /// every other line must be a snapshot object whose `window` strictly
    /// increases, whose `from`/`to` are exact `p` or `p/q` strings, whose
    /// counts are non-negative, whose `throughput` is finite and `lag` null
    /// or finite, and whose per-node arrays keep one common length. Only
    /// the last line may be `partial`.
    ///
    /// # Errors
    /// Every problem found, each with its 1-based line.
    pub fn parse_jsonl(text: &str) -> Result<Vec<Snapshot>, Vec<SnapshotError>> {
        let mut snapshots = Vec::new();
        let mut errors = Vec::new();
        let mut stream = StreamState::default();
        for (idx, line) in text.lines().enumerate() {
            let lineno = idx + 1;
            if line.trim().is_empty() {
                continue;
            }
            let mut err = |message: String| errors.push(SnapshotError { line: lineno, message });
            let v = match json::parse(line) {
                Ok(v) => v,
                Err(e) => {
                    err(format!("not valid JSON: {e}"));
                    continue;
                }
            };
            if let Some(p) = stream.partial_at.take() {
                err(format!("follows a partial snapshot on line {p}"));
            }
            snapshots.extend(read_snapshot(&v, &mut stream, lineno, &mut err));
        }
        if errors.is_empty() {
            Ok(snapshots)
        } else {
            Err(errors)
        }
    }
}

/// One problem in a snapshot stream, found by [`Snapshot::parse_jsonl`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotError {
    /// 1-based line in the JSONL stream.
    pub line: usize,
    /// What was wrong with it.
    pub message: String,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "snapshot line {}: {}", self.line, self.message)
    }
}

/// What [`Snapshot::parse_jsonl`] carries from one line to the next.
#[derive(Default)]
struct StreamState {
    last_window: Option<i128>,
    node_len: Option<usize>,
    partial_at: Option<usize>,
}

/// Checks one parsed snapshot object against the schema and the stream so
/// far; `Some` when every member is well-formed.
fn read_snapshot(
    v: &Value,
    stream: &mut StreamState,
    lineno: usize,
    err: &mut impl FnMut(String),
) -> Option<Snapshot> {
    let window = match v["window"].as_i128() {
        Some(w) if w >= 0 => {
            if let Some(prev) = stream.last_window {
                if w <= prev {
                    err(format!("window {w} does not advance past {prev}"));
                }
            }
            stream.last_window = Some(w);
            Some(w)
        }
        _ => {
            err("missing or non-integer `window`".to_string());
            None
        }
    };
    let [from, to] = ["from", "to"].map(|key| match v[key].as_str() {
        Some(s) => {
            let t = timestamp(s);
            if t.is_none() {
                err(format!("`{key}` is not a rational timestamp: `{s}`"));
            }
            t
        }
        None => {
            err(format!("missing or non-string `{key}`"));
            None
        }
    });
    let [computed, received, root_actions, queue_depth_max, buffer_total, late_events] =
        ["computed", "received", "root_actions", "queue_depth_max", "buffer_total", "late_events"]
            .map(|key| match v[key].as_i128() {
                Some(n) if n < 0 => {
                    err(format!("`{key}` is negative: {n}"));
                    None
                }
                Some(n) => {
                    let count = u64::try_from(n).ok();
                    if count.is_none() {
                        err(format!("`{key}` is out of range: {n}"));
                    }
                    count
                }
                None => {
                    err(format!("missing or non-integer `{key}`"));
                    None
                }
            });
    let throughput = v["throughput"].as_f64().filter(|x| x.is_finite());
    if throughput.is_none() {
        err("missing or non-finite `throughput`".to_string());
    }
    let lag = if v["lag"].is_null() {
        Some(None)
    } else {
        let lag = v["lag"].as_f64().filter(|x| x.is_finite());
        if lag.is_none() {
            err("`lag` is neither null nor a finite number".to_string());
        }
        lag.map(Some)
    };
    let partial = match &v["partial"] {
        Value::Bool(p) => {
            if *p {
                stream.partial_at = Some(lineno);
            }
            Some(*p)
        }
        _ => {
            err("missing or non-boolean `partial`".to_string());
            None
        }
    };
    let arrays = ["node_computed", "node_received"];
    let [node_computed, node_received] = arrays.map(|key| {
        let Some(items) = v[key].as_array() else {
            err(format!("missing or non-array `{key}`"));
            return None;
        };
        let counts: Option<Vec<u64>> =
            items.iter().map(|x| x.as_i128().and_then(|n| u64::try_from(n).ok())).collect();
        if counts.is_none() {
            err(format!("`{key}` holds a non-count entry"));
        }
        counts
    });
    let lengths = arrays.map(|key| v[key].as_array().map_or(0, <[Value]>::len));
    if lengths[0] != lengths[1] {
        err(format!("per-node arrays disagree in length: {} vs {}", lengths[0], lengths[1]));
    } else if let Some(n) = stream.node_len {
        if lengths[0] != n {
            err(format!("per-node arrays changed length: {} after {n}", lengths[0]));
        }
    } else {
        stream.node_len = Some(lengths[0]);
    }
    Some(Snapshot {
        window: window?,
        from: from?,
        to: to?,
        computed: computed?,
        received: received?,
        root_actions: root_actions?,
        throughput: throughput?,
        lag: lag?,
        queue_depth_max: queue_depth_max?,
        buffer_total: buffer_total?,
        late_events: late_events?,
        partial: partial?,
        node_computed: node_computed?,
        node_received: node_received?,
    })
}

/// A strict `n` or `n/d` timestamp: integer parts, positive denominator.
fn timestamp(s: &str) -> Option<Rat> {
    let (numer, denom) = s.split_once('/').unwrap_or((s, "1"));
    let d = denom.parse::<i128>().ok().filter(|&d| d > 0)?;
    Rat::checked_new(numer.parse().ok()?, d).ok()
}

/// Everything a finished [`MonitorProbe`] observed.
#[derive(Debug)]
pub struct MonitorReport {
    /// Violations, in observation order (capped).
    pub violations: Vec<MonitorViolation>,
    /// Violations beyond [`MAX_VIOLATIONS`], counted only.
    pub suppressed: u64,
    /// One snapshot per window, in order.
    pub snapshots: Vec<Snapshot>,
    /// Completed (non-partial) windows.
    pub windows: i128,
    /// Observations timestamped before their window (demand-driven
    /// interrupts surface segments late; nonzero here is normal there).
    pub late_events: u64,
    /// The bounded event tail and monitor metrics.
    pub flight: FlightRecorder<MonitorEntry>,
}

impl MonitorReport {
    /// `true` when no invariant was breached.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.violations.is_empty() && self.suppressed == 0
    }

    /// The violations as a JSON array (the shared shape).
    #[must_use]
    pub fn violations_json(&self) -> Value {
        Value::Array(self.violations.iter().map(MonitorViolation::to_json).collect())
    }

    /// The snapshot stream as JSON Lines.
    #[must_use]
    pub fn snapshots_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.snapshots {
            out.push_str(&s.to_json().to_string_compact());
            out.push('\n');
        }
        out
    }

    /// A `bwfirst-postmortem/1` dump when violations occurred.
    #[must_use]
    pub fn postmortem(&self) -> Option<Value> {
        let first = self.violations.first()?;
        Some(self.postmortem_for(&first.to_string()))
    }

    /// A `bwfirst-postmortem/1` dump with an explicit reason (for
    /// `SimError`s and other failures outside the monitor's own checks).
    #[must_use]
    pub fn postmortem_for(&self, reason: &str) -> Value {
        self.flight.postmortem(reason, self.violations_json())
    }
}

/// One flight-ring entry, kept typed until a post-mortem renders it as the
/// [`Event`] it stands for (the span shape [`crate::ObsProbe`] emits).
/// Observation entries keep their engine tick and the run's scale; the
/// exact time is reduced only when the entry is rendered.
#[derive(Debug, Clone)]
pub enum MonitorEntry {
    /// A segment opens on `node`'s `lane`.
    Begin {
        /// Segment start, in ticks.
        t: i128,
        /// The run's scale.
        scale: TickScale,
        /// The node.
        node: NodeId,
        /// Lane index (receive 0, compute 1, send 2).
        lane: usize,
    },
    /// A segment closes on `node`'s `lane`.
    End {
        /// Segment end, in ticks.
        t: i128,
        /// The run's scale.
        scale: TickScale,
        /// The node.
        node: NodeId,
        /// Lane index (receive 0, compute 1, send 2).
        lane: usize,
    },
    /// `node`'s buffer now holds `size` tasks.
    Buffer {
        /// When, in ticks.
        t: i128,
        /// The run's scale.
        scale: TickScale,
        /// The node.
        node: NodeId,
        /// Buffered tasks.
        size: u64,
    },
    /// A violation was found.
    Violation {
        /// When.
        t: Rat,
        /// The violation's [`MonitorViolation::kind`].
        kind: &'static str,
        /// The violation's message.
        message: String,
    },
}

impl FlightEntry for MonitorEntry {
    fn to_event(&self) -> Event {
        match self {
            MonitorEntry::Begin { t, scale, node, lane } => {
                Event::new(scale.ts(*t), track(node.0, *lane), LANES[*lane], EventKind::Begin)
                    .arg("node", Arg::Int(i128::from(node.0)))
            }
            MonitorEntry::End { t, scale, node, lane } => {
                Event::new(scale.ts(*t), track(node.0, *lane), LANES[*lane], EventKind::End)
            }
            MonitorEntry::Buffer { t, scale, node, size } => {
                Event::new(scale.ts(*t), node.0, format!("buffer {node}"), EventKind::Counter)
                    .arg("tasks", Arg::Int(i128::from(*size)))
            }
            MonitorEntry::Violation { t, kind, message } => {
                Event::new(ts(*t), 0, format!("violation: {kind}"), EventKind::Instant)
                    .arg("message", Arg::Str(message.clone()))
            }
        }
    }
}

/// Per-window streaming counters.
struct WindowState {
    computed: u64,
    received: u64,
    root_actions: u64,
    queue_depth_max: u64,
    late_events: u64,
    node_computed: Vec<u64>,
    node_received: Vec<u64>,
}

impl WindowState {
    fn new(n: usize) -> WindowState {
        WindowState {
            computed: 0,
            received: 0,
            root_actions: 0,
            queue_depth_max: 0,
            late_events: 0,
            node_computed: vec![0; n],
            node_received: vec![0; n],
        }
    }

    fn reset(&mut self) {
        self.computed = 0;
        self.received = 0;
        self.root_actions = 0;
        self.queue_depth_max = 0;
        self.late_events = 0;
        self.node_computed.fill(0);
        self.node_received.fill(0);
    }
}

/// A pending one-task transfer awaiting its receive half (ticks).
struct PendingSend {
    node: NodeId,
    child: NodeId,
    start: i128,
    end: i128,
}

/// The online monitor: a [`Probe`] that checks invariants, rolls windows and
/// feeds a flight recorder. Compose it with other probes via tuples.
pub struct MonitorProbe {
    cfg: MonitorConfig,
    root: NodeId,
    n: usize,
    /// The run's scale; every tick below is counted in it.
    scale: TickScale,
    /// Per node, the expected compute time in ticks (`Some(None)`: one that
    /// falls between ticks, which no segment can match).
    weight_ticks: Vec<Option<Option<i128>>>,
    busy_until: Vec<[i128; 3]>,
    pending: Option<PendingSend>,
    consumed: Vec<u64>,
    drained: Vec<u64>,
    buf_prev: Vec<u64>,
    buf_total: u64,
    cur_window: i128,
    /// `cur_window`'s exact bounds `[win_from, win_to)`.
    win_from: Rat,
    win_to: Rat,
    /// The same bounds as ceiling ticks: `t` lies in the window exactly
    /// when `win_start ≤ t < win_end`.
    win_start: i128,
    win_end: i128,
    win: WindowState,
    cum_computed: u64,
    late_events: u64,
    violations: Vec<MonitorViolation>,
    suppressed: u64,
    snapshots: Vec<Snapshot>,
    flight: FlightRecorder<MonitorEntry>,
    /// `monitor.segments`; with the histograms below, folded into the
    /// flight metrics by `finish()`.
    segments: i128,
    window_throughput: Histogram,
    queue_depth: Histogram,
    buffer_occupancy: Histogram,
}

impl MonitorProbe {
    /// A monitor for an `n`-node platform rooted at `root`.
    #[must_use]
    pub fn new(n: usize, root: NodeId, cfg: MonitorConfig) -> MonitorProbe {
        let flight = FlightRecorder::new(cfg.flight_capacity);
        let win_to = cfg.window;
        let mut probe = MonitorProbe {
            cfg,
            root,
            n,
            scale: TickScale::ONE,
            weight_ticks: Vec::new(),
            busy_until: vec![[0; 3]; n],
            pending: None,
            consumed: vec![0; n],
            drained: vec![0; n],
            buf_prev: vec![0; n],
            buf_total: 0,
            cur_window: 0,
            win_from: Rat::ZERO,
            win_to,
            win_start: 0,
            win_end: 0,
            win: WindowState::new(n),
            cum_computed: 0,
            late_events: 0,
            violations: Vec::new(),
            suppressed: 0,
            snapshots: Vec::new(),
            flight,
            segments: 0,
            window_throughput: Histogram::new(),
            queue_depth: Histogram::new(),
            buffer_occupancy: Histogram::new(),
        };
        probe.start(TickScale::ONE);
        probe
    }

    /// Violations seen so far (including suppressed ones).
    #[must_use]
    pub fn violation_count(&self) -> u64 {
        self.violations.len() as u64 + self.suppressed
    }

    fn violate(&mut self, at: Rat, v: MonitorViolation) {
        self.flight.push(MonitorEntry::Violation { t: at, kind: v.kind(), message: v.to_string() });
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(v);
        } else {
            self.suppressed += 1;
        }
    }

    /// The first tick at or after `t` (a window bound); a bound past the
    /// `i128` ticks is never reached.
    fn ceil_tick(&self, t: Rat) -> i128 {
        self.scale.ceil(t).unwrap_or(i128::MAX)
    }

    /// Closes `self.cur_window` and opens the next one.
    fn flush_window(&mut self) {
        let k = self.cur_window;
        let to = self.win_to;
        let snap = self.make_snapshot(k, self.win_from, to, false);
        self.window_throughput.observe(snap.throughput);
        self.check_window_rates(k, to);
        self.check_drain_balance(to);
        self.snapshots.push(snap);
        self.win.reset();
        self.cur_window += 1;
        self.win_from = to;
        self.win_to = to + self.cfg.window;
        self.win_start = self.win_end;
        self.win_end = self.ceil_tick(self.win_to);
    }

    fn make_snapshot(&self, k: i128, from: Rat, to: Rat, partial: bool) -> Snapshot {
        let lag = self
            .cfg
            .expectations
            .as_ref()
            .map(|exp| (exp.throughput * to).to_f64() - self.cum_computed as f64);
        Snapshot {
            window: k,
            from,
            to,
            computed: self.win.computed,
            received: self.win.received,
            root_actions: self.win.root_actions,
            throughput: self.win.computed as f64 / self.cfg.window.to_f64(),
            lag,
            queue_depth_max: self.win.queue_depth_max,
            buffer_total: self.buf_total,
            late_events: self.win.late_events,
            partial,
            node_computed: self.win.node_computed.clone(),
            node_received: self.win.node_received.clone(),
        }
    }

    /// Rate/bunch checks for window `k`, just completed at `at`
    /// (expectations only).
    fn check_window_rates(&mut self, k: i128, at: Rat) {
        if k < self.cfg.warmup_windows {
            return;
        }
        let Some(exp) = &self.cfg.expectations else { return };
        let w = self.cfg.window;
        let slack = RATE_SLACK;
        let off =
            |observed: u64, expected: Rat| (Rat::from(observed as usize) - expected).abs() > slack;
        // Found first and reported after, so the expectations are borrowed
        // rather than cloned once per window.
        let mut found = Vec::new();
        for i in 0..self.n {
            let node = NodeId(i as u32);
            let expected_c = exp.alpha[i] * w;
            let observed_c = self.win.node_computed[i];
            if off(observed_c, expected_c) {
                found.push(MonitorViolation::RateDeviation {
                    node,
                    lane: 1,
                    window: k,
                    observed: observed_c,
                    expected: expected_c,
                });
            }
            if node != exp.root {
                let expected_r = exp.eta_in[i] * w;
                let observed_r = self.win.node_received[i];
                if off(observed_r, expected_r) {
                    found.push(MonitorViolation::RateDeviation {
                        node,
                        lane: 0,
                        window: k,
                        observed: observed_r,
                        expected: expected_r,
                    });
                }
            }
        }
        let expected_b = exp.root_rate() * w;
        let observed_b = self.win.root_actions;
        if off(observed_b, expected_b) {
            found.push(MonitorViolation::BunchPeriodicity {
                window: k,
                observed: observed_b,
                expected: expected_b,
            });
        }
        for v in found {
            self.violate(at, v);
        }
    }

    /// Strict mode: at window boundaries every drained task must have shown
    /// its activity segment (a drain without one is a lost task).
    fn check_drain_balance(&mut self, at: Rat) {
        if !self.cfg.strict_conservation {
            return;
        }
        for i in 0..self.n {
            if NodeId(i as u32) == self.root {
                continue;
            }
            if self.drained[i] > self.consumed[i] {
                self.violate(
                    at,
                    MonitorViolation::TaskConservation {
                        node: NodeId(i as u32),
                        consumed: self.consumed[i],
                        drained: self.drained[i],
                        at,
                    },
                );
                // Re-arm instead of repeating the same finding every window.
                self.consumed[i] = self.drained[i];
            }
        }
    }

    /// Rolls windows forward so `t` falls in the current one; counts
    /// stragglers (possible under the interruptible demand model).
    fn advance_to(&mut self, t: i128) {
        if t < self.win_start {
            self.late_events += 1;
            self.win.late_events += 1;
            return;
        }
        while t >= self.win_end {
            self.flush_window();
        }
    }

    /// Reports a send whose receive half never came.
    fn unpaired(&mut self, p: &PendingSend) {
        let at = self.scale.rat(p.start);
        self.violate(at, MonitorViolation::UnpairedSend { node: p.node, child: p.child, at });
    }

    /// Reports a compute segment `[start, end)` whose length is not the
    /// node's `w` (expectations only).
    fn duration_mismatch(&mut self, node: NodeId, start: i128, end: i128) {
        let expected = (self.cfg.expectations.as_ref())
            .and_then(|exp| exp.weight.get(node.index()).copied().flatten());
        let Some(expected) = expected else { return };
        let (at, observed) = (self.scale.rat(start), self.scale.rat(end - start));
        self.violate(at, MonitorViolation::DurationMismatch { node, expected, observed, at });
    }

    /// Consumes the probe, closing the trailing partial window.
    #[must_use]
    pub fn finish(mut self) -> MonitorReport {
        let windows = self.cur_window;
        let (from, to) = (self.win_from, self.win_to);
        self.check_drain_balance(from);
        if let Some(p) = self.pending.take() {
            self.unpaired(&p);
        }
        let snap = self.make_snapshot(self.cur_window, from, to, true);
        self.snapshots.push(snap);
        self.fold_metrics();
        MonitorReport {
            violations: self.violations,
            suppressed: self.suppressed,
            snapshots: self.snapshots,
            windows,
            late_events: self.late_events,
            flight: self.flight,
        }
    }

    /// Moves the monitor's own metrics into the flight recorder, each only
    /// once it has been touched, as if recorded there per observation.
    fn fold_metrics(&mut self) {
        let violations = i128::from(self.violation_count());
        let metrics = &mut self.flight.metrics;
        for (name, count) in
            [("monitor.segments", self.segments), ("monitor.violations", violations)]
        {
            if count > 0 {
                metrics.add(name, count);
            }
        }
        for (name, h) in [
            ("monitor.window_throughput", &mut self.window_throughput),
            ("monitor.queue_depth", &mut self.queue_depth),
            ("monitor.buffer_occupancy", &mut self.buffer_occupancy),
        ] {
            if h.count > 0 {
                metrics.histograms.insert(name.to_string(), std::mem::take(h));
            }
        }
    }
}

impl Probe for MonitorProbe {
    fn start(&mut self, scale: TickScale) {
        self.scale = scale;
        self.weight_ticks = (self.cfg.expectations.iter())
            .flat_map(|exp| &exp.weight)
            .map(|w| w.map(|w| scale.ticks(w)))
            .collect();
        self.win_start = self.ceil_tick(self.win_from);
        self.win_end = self.ceil_tick(self.win_to);
    }

    fn segment(&mut self, node: NodeId, kind: SegmentKind, start: i128, end: i128) {
        self.advance_to(start);
        let i = node.index();
        let l = lane(kind);

        let scale = self.scale;
        self.flight.push(MonitorEntry::Begin { t: start, scale, node, lane: l });
        self.flight.push(MonitorEntry::End { t: end, scale, node, lane: l });
        self.segments += 1;

        // Single-port per lane (full overlap across lanes is legal).
        let busy_until = self.busy_until[i][l];
        if start < busy_until {
            let (start, busy_until) = (scale.rat(start), scale.rat(busy_until));
            self.violate(start, MonitorViolation::SinglePort { node, lane: l, start, busy_until });
        }
        self.busy_until[i][l] = busy_until.max(end);

        // Transfer pairing: a send opens a one-task edge transfer that the
        // very next segment must close with the child's identical receive.
        match kind {
            SegmentKind::Send(child) => {
                if let Some(p) = self.pending.take() {
                    self.unpaired(&p);
                }
                self.pending = Some(PendingSend { node, child, start, end });
            }
            SegmentKind::Receive => match self.pending.take() {
                Some(p) if p.child == node && p.start == start && p.end == end => {}
                unmatched => {
                    if let Some(p) = unmatched {
                        self.unpaired(&p);
                    }
                    let at = scale.rat(start);
                    self.violate(at, MonitorViolation::UnpairedReceive { node, at });
                }
            },
            SegmentKind::Compute => {
                if let Some(p) = self.pending.take() {
                    self.unpaired(&p);
                }
            }
        }

        // Window counters + consumption accounting.
        match kind {
            SegmentKind::Compute => {
                self.win.computed += 1;
                self.win.node_computed[i] += 1;
                self.cum_computed += 1;
                if node == self.root {
                    self.win.root_actions += 1;
                }
                if let Some(want) = self.weight_ticks.get(i).copied().flatten() {
                    if want != Some(end - start) {
                        self.duration_mismatch(node, start, end);
                    }
                }
            }
            SegmentKind::Receive => {
                self.win.received += 1;
                self.win.node_received[i] += 1;
            }
            SegmentKind::Send(_) => {
                if node == self.root {
                    self.win.root_actions += 1;
                }
            }
        }
        if node != self.root && !matches!(kind, SegmentKind::Receive) {
            self.consumed[i] += 1;
            if self.cfg.strict_conservation && self.consumed[i] > self.drained[i] {
                let at = scale.rat(start);
                self.violate(
                    at,
                    MonitorViolation::TaskConservation {
                        node,
                        consumed: self.consumed[i],
                        drained: self.drained[i],
                        at,
                    },
                );
                // Re-arm so one phantom task reports once, not forever.
                self.drained[i] = self.consumed[i];
            }
        }
    }

    fn queue_depth(&mut self, t: i128, depth: usize) {
        self.advance_to(t);
        self.win.queue_depth_max = self.win.queue_depth_max.max(depth as u64);
        self.queue_depth.observe(depth as f64);
    }

    fn buffer(&mut self, node: NodeId, t: i128, size: u64) {
        self.advance_to(t);
        let i = node.index();
        let prev = self.buf_prev[i];
        if size < prev {
            self.drained[i] += prev - size;
        }
        self.buf_total = (self.buf_total + size).saturating_sub(prev);
        self.buf_prev[i] = size;
        self.flight.push(MonitorEntry::Buffer { t, scale: self.scale, node, size });
        self.buffer_occupancy.observe(size as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwfirst_rational::rat;

    fn probe(n: usize) -> MonitorProbe {
        MonitorProbe::new(n, NodeId(0), MonitorConfig::new(rat(36, 1)))
    }

    /// A legal one-task edge transfer followed by the buffer arrival.
    fn transfer(p: &mut MonitorProbe, from: u32, to: u32, s: i128, e: i128, new_size: u64) {
        p.segment(NodeId(from), SegmentKind::Send(NodeId(to)), s, e);
        p.segment(NodeId(to), SegmentKind::Receive, s, e);
        p.buffer(NodeId(to), e, new_size);
    }

    #[test]
    fn clean_stream_has_no_violations() {
        let mut p = probe(2);
        transfer(&mut p, 0, 1, 0, 1, 1);
        p.buffer(NodeId(1), 1, 0);
        p.segment(NodeId(1), SegmentKind::Compute, 1, 3);
        p.queue_depth(3, 2);
        let rep = p.finish();
        assert!(rep.ok(), "unexpected: {:?}", rep.violations);
        assert_eq!(rep.late_events, 0);
        // One trailing partial snapshot.
        assert_eq!(rep.snapshots.len(), 1);
        assert!(rep.snapshots[0].partial);
        assert_eq!(rep.snapshots[0].computed, 1);
        assert_eq!(rep.snapshots[0].received, 1);
        assert_eq!(rep.snapshots[0].queue_depth_max, 2);
        assert!(rep.postmortem().is_none());
    }

    #[test]
    fn double_send_trips_single_port_monitor() {
        let mut p = probe(3);
        p.buffer(NodeId(1), 0, 2);
        transfer(&mut p, 0, 1, 0, 4, 3);
        // Overlapping second send on node 0's port: starts at 2 < 4.
        p.segment(NodeId(0), SegmentKind::Send(NodeId(2)), 2, 6);
        p.segment(NodeId(2), SegmentKind::Receive, 2, 6);
        let rep = p.finish();
        assert!(!rep.ok());
        assert!(rep
            .violations
            .iter()
            .any(|v| matches!(v, MonitorViolation::SinglePort { node: NodeId(0), lane: 2, .. })));
        let dump = rep.postmortem().expect("violations produce a dump");
        assert!(!rep.flight.is_empty());
        assert_eq!(dump["format"].as_str(), Some("bwfirst-postmortem/1"));
        assert!(dump["violations"].as_array().is_some_and(|v| !v.is_empty()));
        assert!(dump["events"].as_array().is_some_and(|v| !v.is_empty()));
    }

    #[test]
    fn unpaired_send_is_reported() {
        let mut p = probe(3);
        p.segment(NodeId(0), SegmentKind::Send(NodeId(1)), 0, 1);
        // A compute barges in before the matching receive.
        p.segment(NodeId(0), SegmentKind::Compute, 1, 2);
        let rep = p.finish();
        assert!(rep
            .violations
            .iter()
            .any(|v| matches!(v, MonitorViolation::UnpairedSend { node: NodeId(0), .. })));
    }

    #[test]
    fn mismatched_receive_interval_is_unpaired() {
        let mut p = probe(2);
        p.segment(NodeId(0), SegmentKind::Send(NodeId(1)), 0, 2);
        p.segment(NodeId(1), SegmentKind::Receive, 0, 3);
        let rep = p.finish();
        assert!(rep.violations.iter().any(|v| matches!(v, MonitorViolation::UnpairedSend { .. })));
        assert!(rep
            .violations
            .iter()
            .any(|v| matches!(v, MonitorViolation::UnpairedReceive { node: NodeId(1), .. })));
    }

    #[test]
    fn task_invented_from_nowhere_breaks_conservation() {
        let mut p = probe(2);
        transfer(&mut p, 0, 1, 0, 1, 1);
        // Node 1 computes twice but only one task ever arrived/drained.
        p.buffer(NodeId(1), 1, 0);
        p.segment(NodeId(1), SegmentKind::Compute, 1, 2);
        p.segment(NodeId(1), SegmentKind::Compute, 2, 3);
        let rep = p.finish();
        assert!(rep.violations.iter().any(|v| matches!(
            v,
            MonitorViolation::TaskConservation { node: NodeId(1), consumed: 2, drained: 1, .. }
        )));
    }

    #[test]
    fn task_loss_is_caught_at_window_close() {
        let mut p = probe(2);
        transfer(&mut p, 0, 1, 0, 1, 1);
        // The task silently vanishes from the buffer: no activity follows.
        p.buffer(NodeId(1), 2, 0);
        let rep = p.finish();
        assert!(rep.violations.iter().any(|v| matches!(
            v,
            MonitorViolation::TaskConservation { node: NodeId(1), consumed: 0, drained: 1, .. }
        )));
        assert!(!rep.flight.is_empty());
    }

    #[test]
    fn windows_roll_and_late_events_are_tolerated() {
        let mut p = probe(2);
        p.queue_depth(1, 1);
        p.queue_depth(37, 3); // rolls into window 1
        p.queue_depth(5, 9); // straggler from window 0
        let rep = p.finish();
        assert_eq!(rep.windows, 1);
        assert_eq!(rep.late_events, 1);
        assert_eq!(rep.snapshots.len(), 2);
        assert!(!rep.snapshots[0].partial);
        assert!(rep.snapshots[1].partial);
        assert_eq!(rep.snapshots[0].queue_depth_max, 1);
        // The straggler counts into the live window, not the closed one.
        assert_eq!(rep.snapshots[1].queue_depth_max, 9);
        assert_eq!(rep.snapshots[1].late_events, 1);
    }

    #[test]
    fn a_long_gap_closes_every_skipped_window_on_exact_bounds() {
        // Quarter ticks: every window bound k·5/2 is a whole tick.
        let mut p = MonitorProbe::new(1, NodeId(0), MonitorConfig::new(rat(5, 2)));
        p.start(TickScale::new(4).unwrap());
        p.queue_depth(4, 1);
        p.queue_depth(51, 2); // 12.75 lies in window 5, [25/2, 15)
        p.queue_depth(10, 3); // 5/2, window 1: late
        p.queue_depth(50, 4); // 25/2, the live window's own start
        let rep = p.finish();
        assert_eq!(rep.windows, 5);
        assert_eq!(rep.late_events, 1);
        let bounds: Vec<(Rat, Rat)> = rep.snapshots.iter().map(|s| (s.from, s.to)).collect();
        let want: Vec<(Rat, Rat)> = (0..6).map(|k| (rat(5 * k, 2), rat(5 * (k + 1), 2))).collect();
        assert_eq!(bounds, want);
        assert_eq!(rep.snapshots[5].queue_depth_max, 4);
        assert_eq!(rep.snapshots[5].late_events, 1);
    }

    #[test]
    fn window_bounds_between_ticks_round_up() {
        // Whole ticks, windows of 5/2: window 0 holds ticks 0, 1, 2 and
        // window 1 starts at tick 3, the first one past 5/2.
        let mut p = MonitorProbe::new(1, NodeId(0), MonitorConfig::new(rat(5, 2)));
        p.queue_depth(2, 1);
        p.queue_depth(3, 2);
        p.queue_depth(5, 3);
        p.queue_depth(2, 4); // late: before 5/2's ceiling
        let rep = p.finish();
        assert_eq!(rep.windows, 2);
        assert_eq!(rep.late_events, 1);
        let depths: Vec<u64> = rep.snapshots.iter().map(|s| s.queue_depth_max).collect();
        assert_eq!(depths, [1, 2, 4]);
        assert_eq!((rep.snapshots[2].from, rep.snapshots[2].to), (rat(5, 1), rat(15, 2)));
    }

    #[test]
    fn snapshot_json_has_the_documented_fields() {
        let mut p = probe(1);
        p.queue_depth(40, 2);
        let rep = p.finish();
        let jsonl = rep.snapshots_jsonl();
        let first = jsonl.lines().next().expect("one line per window");
        let v = bwfirst_obs::json::parse(first).expect("snapshot parses");
        for key in [
            "window",
            "from",
            "to",
            "computed",
            "received",
            "root_actions",
            "throughput",
            "lag",
            "queue_depth_max",
            "buffer_total",
            "late_events",
            "partial",
            "node_computed",
            "node_received",
        ] {
            assert!(!v[key].is_null() || key == "lag", "missing {key} in {first}");
        }
    }

    #[test]
    fn violations_are_capped_not_unbounded() {
        let mut p = MonitorProbe::new(2, NodeId(0), MonitorConfig::new(rat(36, 1)));
        let fed = MAX_VIOLATIONS as i128 + 3;
        for k in 0..fed {
            // Receives with no pending send.
            p.segment(NodeId(1), SegmentKind::Receive, k, k + 1);
        }
        let rep = p.finish();
        assert_eq!(rep.violations.len(), MAX_VIOLATIONS);
        assert_eq!(rep.suppressed, 3);
        assert_eq!(rep.violations.len() as u64 + rep.suppressed, fed as u64);
    }

    #[test]
    fn violation_json_shape_is_shared() {
        let v = MonitorViolation::SinglePort {
            node: NodeId(4),
            lane: 2,
            start: rat(3, 2),
            busy_until: rat(5, 2),
        };
        let j = v.to_json();
        assert_eq!(j["layer"].as_str(), Some("sim"));
        assert_eq!(j["kind"].as_str(), Some("single-port"));
        assert!(j["message"].as_str().is_some());
        assert_eq!(j["node"].as_i128(), Some(4));
        assert_eq!(j["lane"].as_str(), Some("send"));
    }

    fn line(window: i128, partial: bool) -> String {
        format!(
            r#"{{"window":{window},"from":"{f}","to":"{t}","computed":40,"received":31,"root_actions":40,"throughput":1.111,"lag":null,"queue_depth_max":7,"buffer_total":3,"late_events":0,"partial":{partial},"node_computed":[9,6,8,4,0,9],"node_received":[0,6,8,4,0,9]}}"#,
            f = 36 * window,
            t = 36 * (window + 1),
        )
    }

    fn count(text: &str) -> Result<usize, Vec<SnapshotError>> {
        Snapshot::parse_jsonl(text).map(|s| s.len())
    }

    #[test]
    fn a_clean_stream_validates() {
        let text = format!("{}\n{}\n{}\n", line(0, false), line(1, false), line(2, true));
        assert_eq!(count(&text), Ok(3));
    }

    #[test]
    fn blank_lines_are_tolerated() {
        let text = format!("{}\n\n{}\n", line(0, false), line(1, false));
        assert_eq!(count(&text), Ok(2));
    }

    #[test]
    fn garbage_and_schema_drift_are_reported_with_line_numbers() {
        let bad = line(1, false).replace(r#""partial":false"#, r#""partial":"no""#);
        let text = format!("{}\nnot json\n{bad}\n", line(0, false));
        let errors = count(&text).unwrap_err();
        assert!(errors.iter().any(|e| e.line == 2 && e.message.contains("not valid JSON")));
        assert!(errors.iter().any(|e| e.line == 3 && e.message.contains("partial")));
    }

    #[test]
    fn windows_must_advance_and_partial_must_be_last() {
        let text = format!("{}\n{}\n", line(2, true), line(2, false));
        let errors = count(&text).unwrap_err();
        assert!(errors.iter().any(|e| e.message.contains("does not advance")));
        assert!(errors.iter().any(|e| e.message.contains("partial snapshot on line 1")));
    }

    #[test]
    fn rational_timestamps_accept_fractions_only() {
        assert!(timestamp("36").is_some());
        assert!(timestamp("-5/3").is_some());
        assert!(timestamp("5/0").is_none());
        assert!(timestamp("1.5").is_none());
        assert!(timestamp("a/b").is_none());
    }

    #[test]
    fn per_node_arrays_must_keep_their_length() {
        let shrunk = line(1, false).replace("[9,6,8,4,0,9]", "[9,6,8]");
        let text = format!("{}\n{shrunk}\n", line(0, false));
        let errors = count(&text).unwrap_err();
        assert!(errors.iter().any(|e| e.message.contains("length")));
    }

    #[test]
    fn golden_streams_parse_and_render_back_byte_for_byte() {
        for golden in [
            include_str!("../testdata/fig2_event_snapshots.jsonl"),
            include_str!("../testdata/fig2_clocked_snapshots.jsonl"),
            include_str!("../testdata/fig2_demand_snapshots.jsonl"),
            include_str!("../testdata/fig2_demand-int_snapshots.jsonl"),
        ] {
            let snapshots = Snapshot::parse_jsonl(golden).expect("golden parses");
            let rendered: String =
                snapshots.iter().map(|s| s.to_json().to_string_compact() + "\n").collect();
            assert_eq!(rendered, golden);
        }
    }
}
