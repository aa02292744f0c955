//! The `bwfirst-trace/1` causal-provenance artifact.
//!
//! One JSONL file records every task's journey through the tree: where it
//! entered, each stride-schedule decision that routed it (including the
//! Ψ-index inside the interleaved bunch of Section 6.3), each hop over an
//! edge, and the compute span that retired it. The format is
//! line-oriented so traces stream, diff cleanly under `git`, and can be
//! schema-checked a line at a time:
//!
//! * line 1 — a header object (`format`, executor `protocol`, `seed`,
//!   `horizon`, platform shape, and the solver's predicted per-edge hop
//!   times so lineage output is self-contained);
//! * every later line — one record with a `k` discriminator:
//!   `enter`, `dispatch`, `deliver`, or `compute`.
//!
//! [`Trace::parse`] is the one reader of the format, and so its schema:
//! every consumer (replay, lineage, diff, `bwfirst-analyze trace`) gets
//! the same checks, reported as the first failing 1-based line —
//!
//! * header — a non-empty `protocol`, `root` and every `parent[]` entry a
//!   node id, the root's parent null, parent pointers free of cycles,
//!   per-node arrays of length `nodes`, `bunch`/`t_omega` null or positive;
//! * records — `node` (and a send's `child`) inside the platform, a
//!   `deliver` from the receiver's tree parent, a `compute` that does not
//!   end before it starts, `stock:true` exactly on ids `≥ STOCK_BASE`, a
//!   dispatch's `slot` and `period` absent or `u64` counts and its `psi`
//!   absent or an integer;
//! * per-task causality — a task enters once, before any other stage, and
//!   its record times ([`TraceRecord::time`]) never run backwards.
//!
//! Records are the bulk of an artifact (six per task, hundreds of
//! thousands in a long run), so neither direction builds a JSON [`Value`]
//! for the lines the writer emits: [`TraceRecord::write_json`] formats the
//! compact line in one stack buffer, in one fixed layout, and appends it
//! once, and the reader decodes that
//! layout in one pass over the line's bytes: the writer's member order,
//! integers as `json::write_int` writes them, times `"p"` or `"p/q"` with
//! `q > 1`, and nothing after the closing `}`. Any other line goes through
//! [`json::parse`](crate::json::parse), which keeps each key's first
//! occurrence and ignores unknown keys, and alone reports decode errors.
//! The bytes written are those of the `Value` rendering, and any layout
//! `json::parse` accepts (member order, whitespace, escapes, `"p/1"`)
//! decodes to the same record or fails with the same message.
//!
//! [`Trace::lineage`] extracts one task's causal chain, [`Trace::diff`]
//! aligns two traces by task id (the cross-executor Lemma 1 check), and
//! [`Trace::to_events`] renders the journey as Chrome flow events so
//! Perfetto draws connected arrows between tracks.

use crate::chrome::track;
use crate::event::{Event, EventKind, Ts};
use crate::json::{format_int, obj, parse, Value, INT_MAX_LEN};
use std::collections::HashMap;

/// The artifact format tag carried in every trace header.
pub const TRACE_FORMAT: &str = "bwfirst-trace/1";

/// Task ids at or above this value are prefill stock (Proposition 3's χ
/// buffers), not root-injected work; they exist only in executors that
/// pre-position tasks and are excluded from cross-executor alignment.
pub const STOCK_BASE: i128 = 1_000_000_000;

/// The first line of a trace: run configuration plus the solver's
/// predictions, enough to re-drive the executor and to annotate lineage.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceHeader {
    /// Executor name: `event`, `clocked`, `demand` or `demand-int` from
    /// the CLI; `dynamic` from a library run of the event-driven
    /// executor's dynamic-platform entry point.
    pub protocol: String,
    /// The seed the run was configured with (recorded even though the
    /// executors are deterministic today, so replay carries it forward).
    pub seed: u64,
    /// Simulation horizon.
    pub horizon: Ts,
    /// Injection cap, when the run was task-bounded.
    pub tasks: Option<u64>,
    /// Node count.
    pub nodes: u32,
    /// Root node id.
    pub root: u32,
    /// Steady-state throughput `α₀` (tasks per time unit), when known.
    pub throughput: Option<Ts>,
    /// Root bunch size (tasks per period `T^ω`), when known.
    pub bunch: Option<i128>,
    /// The period `T^ω`, when known.
    pub t_omega: Option<i128>,
    /// Parent pointer per node (`None` at the root).
    pub parent: Vec<Option<u32>>,
    /// Predicted hop time from the parent per node (`None` at the root
    /// or when the node is pruned from the steady state).
    pub edge_time: Vec<Option<Ts>>,
    /// Per-task compute time per node, when the node computes.
    pub weight: Vec<Option<Ts>>,
}

/// Where a dispatched task was routed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Keep the task: local computation.
    Compute,
    /// Forward the task to this child.
    Send(u32),
}

/// One stride-schedule decision: a buffered task committed to an action.
#[derive(Debug, Clone, PartialEq)]
pub struct Dispatch {
    /// The task decided on.
    pub task: i128,
    /// The deciding node.
    pub node: u32,
    /// Decision time.
    pub t: Ts,
    /// The chosen action.
    pub action: Action,
    /// Ψ-index inside the node's interleaved bunch (Section 6.3), when
    /// the executor is stride-scheduled; `None` for quota/demand modes.
    pub slot: Option<u64>,
    /// The chosen destination's ψ quota (the tie-break key: marks at
    /// `k/(ψ+1)`, ties resolved toward smaller ψ).
    pub psi: Option<i128>,
    /// Which bunch (period `T^ω` repetition) the slot fell in: the node's
    /// dispatches so far divided by its bunch size Ψ.
    pub period: Option<u64>,
}

/// One provenance record.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceRecord {
    /// A task materialized: root injection, or pre-positioned stock.
    Enter {
        /// Task id.
        task: i128,
        /// Where it appeared.
        node: u32,
        /// When.
        t: Ts,
        /// True for prefill stock (χ), false for injected work.
        stock: bool,
    },
    /// A routing decision.
    Dispatch(Dispatch),
    /// A task finished its hop over the edge `from → node`.
    Deliver {
        /// Task id.
        task: i128,
        /// Receiving node.
        node: u32,
        /// Sending node (always the receiver's tree parent).
        from: u32,
        /// Arrival time.
        t: Ts,
    },
    /// A task's compute span.
    Compute {
        /// Task id.
        task: i128,
        /// Computing node.
        node: u32,
        /// Span start.
        start: Ts,
        /// Span end (the task is retired here).
        end: Ts,
    },
}

// A record takes at most 128 bytes. 262,144 records × 128 bytes is 32 MiB,
// the largest block glibc's dynamic mmap threshold can keep on its heap;
// larger blocks get fresh `mmap` pages on every allocation, each page
// faulted in on first touch. A 1000-period Fig. 4 run records ~234k
// records: the probe's doubling `Vec` reaches that 262,144-record capacity,
// and the parser's exact-size `Vec` (30 MB) stays under it. At 160 bytes
// (three `Option<i128>` annotations) both were above it (37.4 MB).
const _: () = assert!(std::mem::size_of::<TraceRecord>() <= 128);

impl TraceRecord {
    /// The task this record concerns.
    #[must_use]
    pub fn task(&self) -> i128 {
        match self {
            TraceRecord::Enter { task, .. }
            | TraceRecord::Deliver { task, .. }
            | TraceRecord::Compute { task, .. } => *task,
            TraceRecord::Dispatch(d) => d.task,
        }
    }

    /// The record's primary timestamp (span start for computes).
    #[must_use]
    pub fn time(&self) -> Ts {
        match self {
            TraceRecord::Enter { t, .. } | TraceRecord::Deliver { t, .. } => *t,
            TraceRecord::Dispatch(d) => d.t,
            TraceRecord::Compute { start, .. } => *start,
        }
    }

    /// The node the record happened on (the receiver for a deliver).
    #[must_use]
    pub fn node(&self) -> u32 {
        match self {
            TraceRecord::Enter { node, .. }
            | TraceRecord::Deliver { node, .. }
            | TraceRecord::Compute { node, .. } => *node,
            TraceRecord::Dispatch(d) => d.node,
        }
    }

    /// The record's `k` discriminator.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            TraceRecord::Enter { .. } => "enter",
            TraceRecord::Dispatch(_) => "dispatch",
            TraceRecord::Deliver { .. } => "deliver",
            TraceRecord::Compute { .. } => "compute",
        }
    }

    /// Appends the record's compact JSONL line, without the newline and
    /// without an intermediate [`Value`]: `k`, `task`, `node`, then the
    /// kind's own members in schema order, absent options omitted, times
    /// as `"p"` or `"p/q"` ([`Ts::display`]).
    pub fn write_json(&self, out: &mut String) {
        let mut line = Line::new();
        self.format(&mut line);
        out.push_str(line.as_str());
    }

    /// Formats the record's line into `line`, from its start: on the
    /// stack, for one append per line instead of one per token.
    fn format(&self, line: &mut Line) {
        line.len = 0;
        line.lit("{\"k\":\"");
        line.lit(self.kind());
        line.lit("\",\"task\":");
        line.int(self.task());
        line.lit(",\"node\":");
        line.int(i128::from(self.node()));
        match self {
            TraceRecord::Enter { t, stock, .. } => {
                line.ts(",\"t\":", *t);
                if *stock {
                    line.lit(",\"stock\":true");
                }
            }
            TraceRecord::Dispatch(d) => {
                line.ts(",\"t\":", d.t);
                match d.action {
                    Action::Compute => line.lit(",\"action\":\"compute\""),
                    Action::Send(child) => {
                        line.lit(",\"action\":\"send\",\"child\":");
                        line.int(i128::from(child));
                    }
                }
                if let Some(slot) = d.slot {
                    line.lit(",\"slot\":");
                    line.int(i128::from(slot));
                }
                if let Some(psi) = d.psi {
                    line.lit(",\"psi\":");
                    line.int(psi);
                }
                if let Some(period) = d.period {
                    line.lit(",\"period\":");
                    line.int(i128::from(period));
                }
            }
            TraceRecord::Deliver { from, t, .. } => {
                line.lit(",\"from\":");
                line.int(i128::from(*from));
                line.ts(",\"t\":", *t);
            }
            TraceRecord::Compute { start, end, .. } => {
                line.ts(",\"start\":", *start);
                line.ts(",\"end\":", *end);
            }
        }
        line.lit("}");
    }
}

/// The longest line [`TraceRecord::format`] writes, newline included: a
/// send dispatch with every annotation, each of its eight integers as wide
/// as `i128::MIN`.
const LINE_MAX: usize = concat!(
    r#"{"k":"dispatch","task":,"node":,"t":"/","action":"send","child":"#,
    r#","slot":,"psi":,"period":}"#,
    "\n"
)
.len()
    + 8 * INT_MAX_LEN;

/// A record line being formatted.
struct Line {
    buf: [u8; LINE_MAX],
    len: usize,
}

impl Line {
    fn new() -> Line {
        Line { buf: [0; LINE_MAX], len: 0 }
    }

    fn lit(&mut self, lit: &str) {
        let end = self.len + lit.len();
        self.buf[self.len..end].copy_from_slice(lit.as_bytes());
        self.len = end;
    }

    fn int(&mut self, n: i128) {
        self.len += format_int(&mut self.buf[self.len..], n);
    }

    /// The member `key` followed by `"p"` or `"p/q"`.
    fn ts(&mut self, key: &str, t: Ts) {
        self.lit(key);
        self.lit("\"");
        self.int(t.num);
        if t.den != 1 {
            self.lit("/");
            self.int(t.den);
        }
        self.lit("\"");
    }

    fn as_str(&self) -> &str {
        std::str::from_utf8(&self.buf[..self.len]).expect("ascii JSON")
    }
}

impl TraceHeader {
    /// JSONL rendering (the first line of the artifact).
    #[must_use]
    pub fn to_json(&self) -> Value {
        let opt_ts = |x: &Option<Ts>| match x {
            Some(t) => Value::Str(t.display()),
            None => Value::Null,
        };
        obj(vec![
            ("format", Value::Str(TRACE_FORMAT.into())),
            ("protocol", Value::Str(self.protocol.clone())),
            ("seed", Value::Int(i128::from(self.seed))),
            ("horizon", Value::Str(self.horizon.display())),
            (
                "tasks",
                match self.tasks {
                    Some(n) => Value::Int(i128::from(n)),
                    None => Value::Null,
                },
            ),
            ("nodes", Value::Int(i128::from(self.nodes))),
            ("root", Value::Int(i128::from(self.root))),
            ("throughput", opt_ts(&self.throughput)),
            (
                "bunch",
                match self.bunch {
                    Some(b) => Value::Int(b),
                    None => Value::Null,
                },
            ),
            (
                "t_omega",
                match self.t_omega {
                    Some(t) => Value::Int(t),
                    None => Value::Null,
                },
            ),
            (
                "parent",
                Value::Array(
                    self.parent
                        .iter()
                        .map(|p| match p {
                            Some(p) => Value::Int(i128::from(*p)),
                            None => Value::Null,
                        })
                        .collect(),
                ),
            ),
            ("edge_time", Value::Array(self.edge_time.iter().map(&opt_ts).collect())),
            ("weight", Value::Array(self.weight.iter().map(&opt_ts).collect())),
        ])
    }

    fn from_json(v: &Value) -> Result<TraceHeader, String> {
        match v["format"].as_str() {
            Some(TRACE_FORMAT) => {}
            Some(other) => return Err(format!("unsupported trace format `{other}`")),
            None => return Err("missing `format`".to_string()),
        }
        let protocol = v["protocol"]
            .as_str()
            .filter(|p| !p.is_empty())
            .ok_or("missing or empty `protocol`")?
            .to_string();
        let seed = match v["seed"].as_i128() {
            Some(s) if s >= 0 => s as u64,
            _ => return Err("missing or negative `seed`".to_string()),
        };
        let horizon = parse_ts(&v["horizon"]).ok_or("missing or malformed `horizon`")?;
        let tasks = match &v["tasks"] {
            Value::Null => None,
            other => {
                Some(other.as_i128().filter(|n| *n >= 0).ok_or("`tasks` is not a count")? as u64)
            }
        };
        let nodes = as_node(&v["nodes"]).ok_or("missing or malformed `nodes`")?;
        let is_node = |n: &u32| *n < nodes;
        let root = as_node(&v["root"]).filter(is_node).ok_or("`root` is not a node id")?;
        let throughput = opt_ts_field(&v["throughput"], "throughput")?;
        let bunch = opt_positive(&v["bunch"], "bunch")?;
        let t_omega = opt_positive(&v["t_omega"], "t_omega")?;
        let parent = v["parent"]
            .as_array()
            .ok_or("missing `parent` array")?
            .iter()
            .enumerate()
            .map(|(i, x)| match x {
                Value::Null => Ok(None),
                other => as_node(other)
                    .filter(is_node)
                    .map(Some)
                    .ok_or(format!("`parent[{i}]` is neither null nor a node id")),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let edge_time = opt_ts_array(&v["edge_time"], "edge_time")?;
        let weight = opt_ts_array(&v["weight"], "weight")?;
        if parent.len() != nodes as usize
            || edge_time.len() != nodes as usize
            || weight.len() != nodes as usize
        {
            return Err("per-node header arrays disagree with `nodes`".to_string());
        }
        if parent[root as usize].is_some() {
            return Err("the root must have a null `parent` entry".to_string());
        }
        if let Some(i) = first_cycle(&parent) {
            return Err(format!("`parent` pointers cycle through P{i}"));
        }
        Ok(TraceHeader {
            protocol,
            seed,
            horizon,
            tasks,
            nodes,
            root,
            throughput,
            bunch,
            t_omega,
            parent,
            edge_time,
            weight,
        })
    }

    /// Checks `r`, about to become `records[records.len()]`, against the
    /// header and each entered task's latest record in `last`.
    fn check(
        &self,
        r: &TraceRecord,
        records: &[TraceRecord],
        last: &mut LastSeen,
    ) -> Result<(), String> {
        let (task, node, t, kind) = (r.task(), r.node(), r.time(), r.kind());
        if node >= self.nodes {
            return Err(format!("`node` is not a node id in a `{kind}` record"));
        }
        match r {
            TraceRecord::Enter { stock, .. } => {
                if *stock != (task >= STOCK_BASE) {
                    return Err(format!("task {task} has a `stock` tag inconsistent with its id"));
                }
                if !last.enter(task, records.len()) {
                    return Err(format!("task {task} enters twice"));
                }
                return Ok(());
            }
            TraceRecord::Dispatch(Dispatch { action: Action::Send(child), .. })
                if *child >= self.nodes =>
            {
                return Err("send dispatch has no valid `child`".to_string());
            }
            TraceRecord::Deliver { from, .. } if self.parent[node as usize] != Some(*from) => {
                return Err(format!("deliver to P{node} does not come from its tree parent"));
            }
            TraceRecord::Compute { start, end, .. } if end < start => {
                return Err("compute span ends before it starts".to_string());
            }
            _ => {}
        }
        match last.get_mut(task) {
            None => Err(format!("task {task} is `{kind}`-ed before it enters")),
            Some(prev) if t < records[*prev].time() => {
                Err(format!("task {task} runs backwards in time at `{kind}`"))
            }
            Some(prev) => {
                *prev = records.len();
                Ok(())
            }
        }
    }
}

/// Each entered task's latest record, as an index into the records: the
/// state of the per-task causality check. Executors number injected tasks
/// 0, 1, 2, … in entry order, so those sit in `dense` at their id and cost
/// no hashing; any other id (prefill stock, an out-of-order entry) sits in
/// `sparse`.
#[derive(Default)]
struct LastSeen {
    dense: Vec<usize>,
    sparse: HashMap<i128, usize>,
}

impl LastSeen {
    /// Records `task` entering as record `at`; `false` if it had entered.
    fn enter(&mut self, task: i128, at: usize) -> bool {
        let fresh = self.get_mut(task).is_none();
        if fresh && task == self.dense.len() as i128 {
            self.dense.push(at);
        } else if fresh {
            self.sparse.insert(task, at);
        }
        fresh
    }

    fn get_mut(&mut self, task: i128) -> Option<&mut usize> {
        let LastSeen { dense, sparse } = self;
        usize::try_from(task).ok().and_then(|i| dense.get_mut(i)).or_else(|| sparse.get_mut(&task))
    }
}

/// A node on a cycle of `parent` pointers, if there is one (a walk up
/// from every node must end, or lineage's root-ward walk would not).
fn first_cycle(parent: &[Option<u32>]) -> Option<usize> {
    // 0: unvisited, 1: on the current walk, 2: known to end.
    let mut state = vec![0u8; parent.len()];
    let up = |i: usize| parent[i].map(|p| p as usize);
    for start in 0..parent.len() {
        let mut cur = Some(start);
        while let Some(i) = cur.filter(|&i| state[i] == 0) {
            state[i] = 1;
            cur = up(i);
        }
        if let Some(i) = cur.filter(|&i| state[i] == 1) {
            return Some(i);
        }
        let mut cur = Some(start);
        while let Some(i) = cur.filter(|&i| state[i] == 1) {
            state[i] = 2;
            cur = up(i);
        }
    }
    None
}

fn opt_ts_field(v: &Value, what: &str) -> Result<Option<Ts>, String> {
    match v {
        Value::Null => Ok(None),
        other => parse_ts(other).map(Some).ok_or(format!("malformed `{what}`")),
    }
}

fn opt_positive(v: &Value, what: &str) -> Result<Option<i128>, String> {
    match v {
        Value::Null => Ok(None),
        other => other
            .as_i128()
            .filter(|n| *n > 0)
            .map(Some)
            .ok_or(format!("`{what}` is neither null nor a positive integer")),
    }
}

fn opt_ts_array(v: &Value, what: &str) -> Result<Vec<Option<Ts>>, String> {
    v.as_array()
        .ok_or(format!("missing `{what}` array"))?
        .iter()
        .map(|x| opt_ts_field(x, what))
        .collect()
}

/// A record's optional count: absent (or null), or an integer in `u64`.
fn opt_count(v: &Value, what: &str) -> Result<Option<u64>, String> {
    match v {
        Value::Null => Ok(None),
        other => other
            .as_i128()
            .and_then(|n| u64::try_from(n).ok())
            .map(Some)
            .ok_or(format!("`{what}` is not a count in u64")),
    }
}

fn as_node(v: &Value) -> Option<u32> {
    v.as_i128().and_then(|n| u32::try_from(n).ok())
}

/// Parses the repo's `"p/q"` (or `"p"`) rational string into a [`Ts`].
#[must_use]
pub fn parse_rational(s: &str) -> Option<Ts> {
    let (num, den) = match s.split_once('/') {
        Some((n, d)) => (n.parse::<i128>().ok()?, d.parse::<i128>().ok()?),
        None => (s.parse::<i128>().ok()?, 1),
    };
    if den <= 0 {
        return None;
    }
    Some(Ts::new(num, den))
}

fn parse_ts(v: &Value) -> Option<Ts> {
    v.as_str().and_then(parse_rational)
}

/// Exact rational difference `a - b`, reduced; `None` when it does not
/// fit an `i128` fraction.
#[must_use]
pub fn ts_sub(a: Ts, b: Ts) -> Option<Ts> {
    let g = gcd(a.den.unsigned_abs(), b.den.unsigned_abs()) as i128;
    let (da, db) = (a.den / g, b.den / g);
    let num = a.num.checked_mul(db)?.checked_sub(b.num.checked_mul(da)?)?;
    if num == 0 {
        return Some(Ts::ZERO);
    }
    let den = a.den.checked_mul(db)?;
    let g = gcd(num.unsigned_abs(), den.unsigned_abs()) as i128;
    Some(Ts::new(num / g, den / g))
}

fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

fn json_line(line: &str) -> Result<Value, String> {
    parse(line).map_err(|e| format!("not valid JSON: {e}"))
}

/// The unread rest of a line in [`canonical_record`]'s one pass.
struct Canonical<'a>(&'a [u8]);

impl Canonical<'_> {
    /// Consumes `lit` if the rest starts with it.
    fn eat(&mut self, lit: &str) -> bool {
        match self.0.strip_prefix(lit.as_bytes()) {
            Some(rest) => {
                self.0 = rest;
                true
            }
            None => false,
        }
    }

    /// Consumes `lit`, or declines the line.
    fn lit(&mut self, lit: &str) -> Option<()> {
        self.eat(lit).then_some(())
    }

    /// An integer as [`format_int`] writes it: an optional `-`, then `0`
    /// or digits without a leading zero (never `-0`), inside `i128`.
    fn int(&mut self) -> Option<i128> {
        let neg = self.eat("-");
        let len = self.0.iter().take_while(|b| b.is_ascii_digit()).count();
        let (digits, rest) = self.0.split_at(len);
        if len == 0 || (digits[0] == b'0' && (len > 1 || neg)) {
            return None;
        }
        self.0 = rest;
        // 19 digits always fit a `u64`; wider numbers take checked `u128`
        // steps, which fail past 39 digits.
        let mag = if len <= 19 {
            u128::from(digits.iter().fold(0u64, |a, &d| a * 10 + u64::from(d - b'0')))
        } else {
            digits
                .iter()
                .try_fold(0u128, |a, &d| a.checked_mul(10)?.checked_add(u128::from(d - b'0')))?
        };
        if neg {
            // `-2^127` wraps onto itself: `i128::MIN`.
            (mag <= 1 << 127).then(|| (mag as i128).wrapping_neg())
        } else {
            i128::try_from(mag).ok()
        }
    }

    fn node(&mut self) -> Option<u32> {
        self.int().and_then(|n| u32::try_from(n).ok())
    }

    /// A time as [`Line::ts`] writes it: `"p"`, or `"p/q"` with `q > 1`.
    fn ts(&mut self) -> Option<Ts> {
        self.lit("\"")?;
        let num = self.int()?;
        let den = if self.eat("/") { self.int().filter(|&q| q > 1)? } else { 1 };
        self.lit("\"")?;
        Some(Ts::new(num, den))
    }

    /// The member `,"key":n` if it comes next (an omitted option).
    fn opt_int(&mut self, key: &str) -> Option<Option<i128>> {
        if self.eat(key) {
            self.int().map(Some)
        } else {
            Some(None)
        }
    }

    /// [`Canonical::opt_int`] for a count: a `u64`, or the line is declined.
    fn opt_count(&mut self, key: &str) -> Option<Option<u64>> {
        match self.opt_int(key)? {
            Some(n) => u64::try_from(n).ok().map(Some),
            None => Some(None),
        }
    }
}

/// Decodes a line in exactly the layout [`TraceRecord::write_json`]
/// emits, in one pass over its bytes; `None` on any other layout
/// (whitespace, member order, escapes, `"p/1"`, a trailing byte, …) and
/// on a `slot` or `period` outside `u64`, which [`record_from_line`] hands
/// to the general reader and its error. Every line it
/// accepts decodes to the record that reader returns.
fn canonical_record(line: &str) -> Option<TraceRecord> {
    let mut c = Canonical(line.as_bytes());
    c.lit("{\"k\":\"")?;
    let kind =
        ["enter\"", "dispatch\"", "deliver\"", "compute\""].into_iter().find(|k| c.eat(k))?;
    c.lit(",\"task\":")?;
    let task = c.int()?;
    c.lit(",\"node\":")?;
    let node = c.node()?;
    let record = match kind {
        "enter\"" => {
            c.lit(",\"t\":")?;
            let t = c.ts()?;
            let stock = c.eat(",\"stock\":true");
            TraceRecord::Enter { task, node, t, stock }
        }
        "dispatch\"" => {
            c.lit(",\"t\":")?;
            let t = c.ts()?;
            let action = if c.eat(",\"action\":\"compute\"") {
                Action::Compute
            } else {
                c.lit(",\"action\":\"send\",\"child\":")?;
                Action::Send(c.node()?)
            };
            let slot = c.opt_count(",\"slot\":")?;
            let psi = c.opt_int(",\"psi\":")?;
            let period = c.opt_count(",\"period\":")?;
            TraceRecord::Dispatch(Dispatch { task, node, t, action, slot, psi, period })
        }
        "deliver\"" => {
            c.lit(",\"from\":")?;
            let from = c.node()?;
            c.lit(",\"t\":")?;
            TraceRecord::Deliver { task, node, from, t: c.ts()? }
        }
        _ => {
            c.lit(",\"start\":")?;
            let start = c.ts()?;
            c.lit(",\"end\":")?;
            TraceRecord::Compute { task, node, start, end: c.ts()? }
        }
    };
    (c.0 == b"}").then_some(record)
}

/// Decodes one record line (the JSON and per-record checks; the header
/// and causality checks are [`TraceHeader::check`]'s): the canonical lane
/// first, then [`json::parse`](crate::json::parse) and
/// [`record_from_json`], the only source of decode errors.
fn record_from_line(line: &str) -> Result<TraceRecord, String> {
    match canonical_record(line) {
        Some(r) => Ok(r),
        None => json_line(line).and_then(|v| record_from_json(&v)),
    }
}

/// Decodes a record from its parsed JSON object: each key's first
/// occurrence, unknown keys ignored.
fn record_from_json(v: &Value) -> Result<TraceRecord, String> {
    let task = v["task"].as_i128().ok_or("missing or non-integer `task`")?;
    let node = as_node(&v["node"]).ok_or("missing or malformed `node`")?;
    match v["k"].as_str() {
        Some("enter") => {
            let t = parse_ts(&v["t"]).ok_or("missing or malformed `t`")?;
            let stock = matches!(&v["stock"], Value::Bool(true));
            Ok(TraceRecord::Enter { task, node, t, stock })
        }
        Some("dispatch") => {
            let t = parse_ts(&v["t"]).ok_or("missing or malformed `t`")?;
            let action = match v["action"].as_str() {
                Some("compute") => Action::Compute,
                Some("send") => {
                    Action::Send(as_node(&v["child"]).ok_or("`send` without a `child`")?)
                }
                _ => return Err("missing or unknown `action`".to_string()),
            };
            let slot = opt_count(&v["slot"], "slot")?;
            let psi = match &v["psi"] {
                Value::Null => None,
                other => Some(other.as_i128().ok_or("non-integer `psi`")?),
            };
            let period = opt_count(&v["period"], "period")?;
            Ok(TraceRecord::Dispatch(Dispatch { task, node, t, action, slot, psi, period }))
        }
        Some("deliver") => Ok(TraceRecord::Deliver {
            task,
            node,
            from: as_node(&v["from"]).ok_or("missing or malformed `from`")?,
            t: parse_ts(&v["t"]).ok_or("missing or malformed `t`")?,
        }),
        Some("compute") => Ok(TraceRecord::Compute {
            task,
            node,
            start: parse_ts(&v["start"]).ok_or("missing or malformed `start`")?,
            end: parse_ts(&v["end"]).ok_or("missing or malformed `end`")?,
        }),
        Some(other) => Err(format!("unknown record kind `{other}`")),
        None => Err("missing `k` discriminator".to_string()),
    }
}

/// The number of `\n` bytes in `text`. Counted in 255-byte chunks into a
/// `u8`, which vectorizes; a byte-at-a-time count does not, and took an
/// eighth of a long trace's parse.
fn newlines(text: &str) -> usize {
    let chunk = |c: &[u8]| c.iter().fold(0u8, |n, &b| n + u8::from(b == b'\n'));
    text.as_bytes().chunks(255).map(|c| usize::from(chunk(c))).sum()
}

/// A parse problem, with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError {
    /// 1-based line in the JSONL stream.
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TraceError {}

/// A full causal trace: header plus records in emission order.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Run configuration and predictions.
    pub header: TraceHeader,
    /// Provenance records, in emission order.
    pub records: Vec<TraceRecord>,
}

impl Trace {
    /// Serializes the artifact; byte-stable, one JSON object per line.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let header = self.header.to_json().to_string_compact();
        let mut out = String::with_capacity(header.len() + 1 + 80 * self.records.len());
        out.push_str(&header);
        out.push('\n');
        let mut line = Line::new();
        for r in &self.records {
            r.format(&mut line);
            line.lit("\n");
            out.push_str(line.as_str());
        }
        // 80 bytes is about a Fig. 2 record line (they average 77); by
        // whatever the estimate missed, no spare capacity outlives the call.
        out.shrink_to_fit();
        out
    }

    /// Parses and schema-checks a `bwfirst-trace/1` JSONL artifact (see
    /// the module docs for the checks); the error names the first bad line.
    pub fn parse(text: &str) -> Result<Trace, TraceError> {
        Trace::parse_with(text, record_from_line)
    }

    /// [`Trace::parse`] with its record decoder a parameter, so tests can
    /// run the `Value`-tree decoder through the same loop.
    fn parse_with(
        text: &str,
        record: impl Fn(&str) -> Result<TraceRecord, String>,
    ) -> Result<Trace, TraceError> {
        let mut lines = text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty());
        let at = |idx: usize| move |message| TraceError { line: idx + 1, message };
        let (idx, first) = lines.next().ok_or_else(|| at(0)("empty artifact: no header".into()))?;
        let header = json_line(first).and_then(|v| TraceHeader::from_json(&v)).map_err(at(idx))?;
        let mut last = LastSeen::default();
        // One slot per line; a record line takes at least 39 bytes, so
        // blank lines cannot inflate the reservation.
        let lines_left = newlines(text);
        let mut records = Vec::with_capacity(lines_left.min(text.len() / 32));
        for (idx, line) in lines {
            let r = record(line).map_err(at(idx))?;
            header.check(&r, &records, &mut last).map_err(at(idx))?;
            records.push(r);
        }
        Ok(Trace { header, records })
    }

    /// All task ids that entered the trace, injected work first (sorted),
    /// then prefill stock (sorted).
    #[must_use]
    pub fn task_ids(&self) -> Vec<i128> {
        let mut ids: Vec<i128> = self
            .records
            .iter()
            .filter_map(|r| match r {
                TraceRecord::Enter { task, .. } => Some(*task),
                _ => None,
            })
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// One task's causal chain, in emission order.
    #[must_use]
    pub fn lineage(&self, task: i128) -> Vec<&TraceRecord> {
        self.records.iter().filter(|r| r.task() == task).collect()
    }

    /// The task's compute span end (its retirement time), if it computed.
    #[must_use]
    pub fn completion(&self, task: i128) -> Option<Ts> {
        self.records.iter().find_map(|r| match r {
            TraceRecord::Compute { task: t, end, .. } if *t == task => Some(*end),
            _ => None,
        })
    }

    /// Where the task was computed, if it was.
    #[must_use]
    pub fn compute_node(&self, task: i128) -> Option<u32> {
        self.records.iter().find_map(|r| match r {
            TraceRecord::Compute { task: t, node, .. } if *t == task => Some(*node),
            _ => None,
        })
    }

    /// Sojourn times (compute span end − entry) of the entered tasks whose
    /// compute span ends by the header's horizon, in compute-record order;
    /// `None` if one of them does not fit an `i128` fraction.
    #[must_use]
    pub fn sojourns(&self) -> Option<Vec<Ts>> {
        let mut entered = HashMap::new();
        let mut out = Vec::new();
        for r in &self.records {
            match r {
                TraceRecord::Enter { task, t, .. } => {
                    entered.insert(*task, *t);
                }
                TraceRecord::Compute { task, end, .. } if *end <= self.header.horizon => {
                    if let Some(&t) = entered.get(task) {
                        out.push(ts_sub(*end, t)?);
                    }
                }
                _ => {}
            }
        }
        Some(out)
    }

    /// Per task: how many compute records it has, and the node and span
    /// end of the first (what [`Trace::compute_node`] and
    /// [`Trace::completion`] report), in one pass.
    fn computes(&self) -> HashMap<i128, (usize, u32, Ts)> {
        let mut out = HashMap::new();
        for r in &self.records {
            if let TraceRecord::Compute { task, node, end, .. } = r {
                out.entry(*task).or_insert((0, *node, *end)).0 += 1;
            }
        }
        out
    }

    /// Aligns two traces by task id (see [`TraceDiff`]).
    #[must_use]
    pub fn diff(&self, other: &Trace) -> TraceDiff {
        let a_ids = self.task_ids();
        let b_ids = other.task_ids();
        let injected =
            |ids: &[i128]| ids.iter().copied().filter(|t| *t < STOCK_BASE).collect::<Vec<_>>();
        let stock = |ids: &[i128]| ids.iter().filter(|t| **t >= STOCK_BASE).count();
        let ia = injected(&a_ids);
        let ib = injected(&b_ids);
        let only_a: Vec<i128> =
            ia.iter().copied().filter(|t| ib.binary_search(t).is_err()).collect();
        let only_b: Vec<i128> =
            ib.iter().copied().filter(|t| ia.binary_search(t).is_err()).collect();
        let mut count_divergence = Vec::new();
        let mut in_flight = Vec::new();
        let mut routing = Vec::new();
        let mut latency = Vec::new();
        let mut common = 0usize;
        let (computes_a, computes_b) = (self.computes(), other.computes());
        for &t in ia.iter().filter(|t| ib.binary_search(t).is_ok()) {
            common += 1;
            let (a, b) = (computes_a.get(&t), computes_b.get(&t));
            match (a.map_or(0, |c| c.0), b.map_or(0, |c| c.0)) {
                (1, 0) | (0, 1) => in_flight.push(t),
                (ca, cb) if ca != cb || ca > 1 => count_divergence.push((t, ca, cb)),
                _ => {}
            }
            if let (Some(&(_, na, ea)), Some(&(_, nb, eb))) = (a, b) {
                if na != nb {
                    routing.push((t, na, nb));
                }
                latency.push((t, ea, eb));
            }
        }
        TraceDiff {
            only_a,
            only_b,
            stock_a: stock(&a_ids),
            stock_b: stock(&b_ids),
            common,
            count_divergence,
            in_flight,
            routing,
            latency,
        }
    }

    /// Renders the trace as Chrome-compatible events: compute spans on
    /// each node's compute track, injection instants, and one `s`/`f`
    /// flow pair per hop so Perfetto draws the task's journey as
    /// connected arrows between the sender's send track and the
    /// receiver's receive track.
    #[must_use]
    pub fn to_events(&self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.records.len() * 2);
        let mut flow_id: i128 = 0;
        // Pending flow per (task, child edge): dispatch opens, deliver closes.
        let mut open: Vec<(i128, u32, i128)> = Vec::new();
        for r in &self.records {
            match r {
                TraceRecord::Enter { task, node, t, stock } => {
                    let name = if *stock { "stock" } else { "inject" };
                    out.push(
                        Event::new(
                            *t,
                            track(*node, 0),
                            format!("{name} task {task}"),
                            EventKind::Instant,
                        )
                        .arg("task", *task),
                    );
                }
                TraceRecord::Dispatch(d) => {
                    if let Action::Send(child) = d.action {
                        flow_id += 1;
                        open.push((d.task, child, flow_id));
                        out.push(
                            Event::new(
                                d.t,
                                track(d.node, 2),
                                format!("task {}", d.task),
                                EventKind::FlowStart,
                            )
                            .arg("id", flow_id)
                            .arg("task", d.task),
                        );
                    }
                }
                TraceRecord::Deliver { task, node, t, .. } => {
                    let slot =
                        open.iter().position(|(tk, child, _)| *tk == *task && *child == *node);
                    if let Some(i) = slot {
                        let (_, _, id) = open.remove(i);
                        out.push(
                            Event::new(
                                *t,
                                track(*node, 0),
                                format!("task {task}"),
                                EventKind::FlowEnd,
                            )
                            .arg("id", id)
                            .arg("task", *task),
                        );
                    }
                }
                TraceRecord::Compute { task, node, start, end } => {
                    let name = format!("task {task}");
                    out.push(
                        Event::new(*start, track(*node, 1), name.clone(), EventKind::Begin)
                            .arg("task", *task),
                    );
                    out.push(Event::new(*end, track(*node, 1), name, EventKind::End));
                }
            }
        }
        out
    }
}

/// The result of aligning two traces by task id.
///
/// `count_divergence` is the conservation check the CI gate relies on: a
/// task computed more than once in either run, or a different positive
/// number of times in the two, means work was duplicated. A task computed
/// in exactly one run is `in_flight`: a horizon cut it off mid-journey in
/// the other, which is not a failure. `routing` and `latency` are
/// informational —
/// two correct executors may legally route the same task to different
/// workers and will retire it at different absolute times (the Lemma 1
/// period offsets).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceDiff {
    /// Injected tasks present only in the first trace.
    pub only_a: Vec<i128>,
    /// Injected tasks present only in the second trace.
    pub only_b: Vec<i128>,
    /// Prefill-stock tasks in the first trace (never aligned).
    pub stock_a: usize,
    /// Prefill-stock tasks in the second trace (never aligned).
    pub stock_b: usize,
    /// Injected tasks present in both traces.
    pub common: usize,
    /// `(task, computes in a, computes in b)` for tasks computed more than
    /// once in either trace, or a different positive number of times.
    pub count_divergence: Vec<(i128, usize, usize)>,
    /// Tasks computed once in one trace and never in the other: still in
    /// flight when the other run's horizon cut it off.
    pub in_flight: Vec<i128>,
    /// `(task, node in a, node in b)` where the task computed on
    /// different nodes.
    pub routing: Vec<(i128, u32, u32)>,
    /// `(task, completion in a, completion in b)` for tasks retired in
    /// both traces.
    pub latency: Vec<(i128, Ts, Ts)>,
}

impl TraceDiff {
    /// True when the conservation checks hold (no missing tasks, no
    /// per-task count divergence; tasks in flight at a horizon are fine).
    #[must_use]
    pub fn clean(&self) -> bool {
        self.only_a.is_empty() && self.only_b.is_empty() && self.count_divergence.is_empty()
    }

    /// `(min, mean, max)` of the completion offsets `b − a` in time
    /// units, over tasks retired in both traces.
    #[must_use]
    pub fn latency_offsets(&self) -> Option<(f64, f64, f64)> {
        if self.latency.is_empty() {
            return None;
        }
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut sum = 0.0;
        for &(_, a, b) in &self.latency {
            // Past i128, the float difference is as good as the exact one.
            let d = ts_sub(b, a).map_or_else(|| b.to_f64() - a.to_f64(), Ts::to_f64);
            min = min.min(d);
            max = max.max(d);
            sum += d;
        }
        Some((min, sum / self.latency.len() as f64, max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn header() -> TraceHeader {
        TraceHeader {
            protocol: "event".to_string(),
            seed: 0,
            horizon: Ts::new(36, 1),
            tasks: Some(4),
            nodes: 2,
            root: 0,
            throughput: Some(Ts::new(10, 9)),
            bunch: Some(10),
            t_omega: Some(9),
            parent: vec![None, Some(0)],
            edge_time: vec![None, Some(Ts::new(2, 1))],
            weight: vec![Some(Ts::new(9, 1)), Some(Ts::new(5, 1))],
        }
    }

    fn small_trace() -> Trace {
        Trace {
            header: header(),
            records: vec![
                TraceRecord::Enter { task: 0, node: 0, t: Ts::ZERO, stock: false },
                TraceRecord::Dispatch(Dispatch {
                    task: 0,
                    node: 0,
                    t: Ts::ZERO,
                    action: Action::Send(1),
                    slot: Some(0),
                    psi: Some(3),
                    period: Some(0),
                }),
                TraceRecord::Deliver { task: 0, node: 1, from: 0, t: Ts::new(2, 1) },
                TraceRecord::Dispatch(Dispatch {
                    task: 0,
                    node: 1,
                    t: Ts::new(2, 1),
                    action: Action::Compute,
                    slot: Some(0),
                    psi: Some(1),
                    period: Some(0),
                }),
                TraceRecord::Compute { task: 0, node: 1, start: Ts::new(2, 1), end: Ts::new(7, 1) },
            ],
        }
    }

    #[test]
    fn round_trips_through_jsonl() {
        let trace = small_trace();
        let text = trace.to_jsonl();
        let back = Trace::parse(&text).unwrap();
        assert_eq!(back, trace);
        assert_eq!(back.to_jsonl(), text);
    }

    #[test]
    fn lineage_collects_a_tasks_chain_in_order() {
        let trace = small_trace();
        let chain = trace.lineage(0);
        assert_eq!(chain.len(), 5);
        assert!(matches!(chain[0], TraceRecord::Enter { .. }));
        assert!(matches!(chain[4], TraceRecord::Compute { .. }));
        assert_eq!(trace.completion(0), Some(Ts::new(7, 1)));
        assert_eq!(trace.compute_node(0), Some(1));
    }

    #[test]
    fn parse_rejects_garbage_and_wrong_format() {
        let err = Trace::parse("").unwrap_err();
        assert!(err.message.contains("empty"));
        let err = Trace::parse(r#"{"format":"bwfirst-postmortem/1"}"#).unwrap_err();
        assert!(err.message.contains("unsupported"));
        let mut text = small_trace().to_jsonl();
        text.push_str("{\"k\":\"warp\",\"task\":0,\"node\":0}\n");
        let err = Trace::parse(&text).unwrap_err();
        assert!(err.message.contains("unknown record kind"));
    }

    const HEADER: &str = concat!(
        r#"{"format":"bwfirst-trace/1","protocol":"event","seed":0,"horizon":"36","#,
        r#""tasks":4,"nodes":3,"root":0,"throughput":"10/9","bunch":10,"t_omega":9,"#,
        r#""parent":[null,0,0],"edge_time":[null,"1","2"],"weight":["9","6",null]}"#,
    );

    /// A three-node artifact: [`HEADER`] with `edit` applied, then `records`.
    fn artifact(edit: (&str, &str), records: &[&str]) -> String {
        let mut text = HEADER.replace(edit.0, edit.1) + "\n";
        for r in records {
            text.push_str(r);
            text.push('\n');
        }
        text
    }

    /// Every schema rule, one input each: `Ok((records, injected, stock))`
    /// for accepted artifacts, `Err((line, message fragment))` otherwise.
    #[test]
    fn parse_is_the_schema() {
        const ENTER: &str = r#"{"k":"enter","task":0,"node":0,"t":"0"}"#;
        const SEND: &str =
            r#"{"k":"dispatch","task":0,"node":0,"t":"0","action":"send","child":1,"slot":0}"#;
        const DELIVER: &str = r#"{"k":"deliver","task":0,"node":1,"from":0,"t":"1"}"#;
        const COMPUTE: &str = r#"{"k":"compute","task":0,"node":1,"start":"1","end":"7"}"#;
        const STOCK: &str = r#"{"k":"enter","task":1000000000,"node":1,"t":"0""#;
        const NONE: (&str, &str) = ("\n", "\n");
        let enter1 = ENTER.replace(r#""task":0,"node":0,"t":"0""#, r#""task":1,"node":0,"t":"5""#);
        let back1 = SEND.replace(r#""task":0"#, r#""task":1"#);
        type Expect = Result<(usize, usize, usize), (usize, &'static str)>;
        type Case<'a> = (&'a str, (&'a str, &'a str), &'a [&'a str], Expect);
        let cases: &[Case] = &[
            ("clean lifecycle", NONE, &[ENTER, SEND, DELIVER, COMPUTE], Ok((4, 1, 0))),
            ("untagged stock id", NONE, &[&format!("{STOCK}}}")], Err((2, "stock"))),
            ("tagged stock id", NONE, &[&format!(r#"{STOCK},"stock":true}}"#)], Ok((1, 0, 1))),
            (
                "tagged injected id",
                NONE,
                &[&ENTER.replace('}', r#","stock":true}"#)],
                Err((2, "stock")),
            ),
            ("stage before enter", NONE, &[COMPUTE], Err((2, "before it enters"))),
            ("enters twice", NONE, &[ENTER, ENTER], Err((3, "enters twice"))),
            // Ids entered out of order are tracked off the dense fast path.
            ("late id enters twice", NONE, &[&enter1, ENTER, &enter1], Err((4, "enters twice"))),
            ("late id runs backwards", NONE, &[&enter1, ENTER, &back1], Err((4, "backwards"))),
            (
                "time runs backwards",
                NONE,
                &[ENTER, SEND, &DELIVER.replace(r#""1""#, r#""-1""#), COMPUTE],
                Err((4, "backwards")),
            ),
            (
                "deliver from a sibling",
                NONE,
                &[ENTER, SEND, &DELIVER.replace(r#""from":0"#, r#""from":2"#)],
                Err((4, "tree parent")),
            ),
            (
                "wrong format",
                (r#""bwfirst-trace/1""#, r#""v2""#),
                &[ENTER],
                Err((1, "unsupported")),
            ),
            ("empty artifact", (HEADER, ""), &[], Err((1, "empty artifact"))),
            ("garbage record", NONE, &[ENTER, "not json"], Err((3, "not valid JSON"))),
            ("negative task cap", (r#""tasks":4"#, r#""tasks":-3"#), &[], Err((1, "tasks"))),
            (
                "node 99, span backwards",
                NONE,
                &[ENTER, r#"{"k":"compute","task":0,"node":99,"start":"7","end":"1"}"#],
                Err((3, "node id")),
            ),
            (
                "span ends before start",
                NONE,
                &[ENTER, &COMPUTE.replace(r#""end":"7""#, r#""end":"0""#)],
                Err((3, "ends before it starts")),
            ),
            (
                "send to no node",
                NONE,
                &[ENTER, &SEND.replace(r#""child":1"#, r#""child":3"#)],
                Err((3, "child")),
            ),
            ("root outside", (r#""root":0"#, r#""root":3"#), &[], Err((1, "root"))),
            ("parent outside", ("[null,0,0]", "[null,0,5]"), &[], Err((1, "parent[2]"))),
            ("root has a parent", ("[null,0,0]", "[1,0,0]"), &[], Err((1, "root"))),
            ("parent cycle", ("[null,0,0]", "[null,2,1]"), &[], Err((1, "cycle"))),
            ("empty protocol", (r#""event""#, r#""""#), &[], Err((1, "protocol"))),
            ("zero bunch", (r#""bunch":10"#, r#""bunch":0"#), &[], Err((1, "bunch"))),
            (
                "null bunch and period",
                (r#""bunch":10,"t_omega":9"#, r#""bunch":null,"t_omega":null"#),
                &[],
                Ok((0, 0, 0)),
            ),
            (
                "slot past u64",
                NONE,
                &[ENTER, &SEND.replace(r#""slot":0"#, r#""slot":18446744073709551616"#)],
                Err((3, "`slot` is not a count")),
            ),
            (
                "negative period",
                NONE,
                &[ENTER, &SEND.replace(r#""slot":0"#, r#""slot":0,"period":-1"#)],
                Err((3, "`period` is not a count")),
            ),
            (
                "string psi",
                NONE,
                &[ENTER, &SEND.replace(r#""slot":0"#, r#""slot":0,"psi":"1""#)],
                Err((3, "non-integer `psi`")),
            ),
            (
                "null annotations",
                NONE,
                &[ENTER, &SEND.replace(r#""slot":0"#, r#""slot":null,"psi":null"#)],
                Ok((2, 1, 0)),
            ),
        ];
        for (name, edit, records, expect) in cases {
            let got = Trace::parse(&artifact(*edit, records)).map(|t| {
                let ids = t.task_ids();
                let stock = ids.iter().filter(|id| **id >= STOCK_BASE).count();
                (t.records.len(), ids.len() - stock, stock)
            });
            match (got, expect) {
                (Ok(got), Ok(want)) => assert_eq!(got, *want, "{name}"),
                (Err(e), Err((line, fragment))) => {
                    assert_eq!(e.line, *line, "{name}: {e}");
                    assert!(e.message.contains(fragment), "{name}: {e}");
                }
                (got, _) => panic!("{name}: got {got:?}, want {expect:?}"),
            }
        }
    }

    #[test]
    fn diff_flags_count_divergence_and_reports_offsets() {
        let a = small_trace();
        let mut b = small_trace();
        // Same task retires later in the second trace.
        if let Some(TraceRecord::Compute { end, .. }) = b.records.last_mut() {
            *end = Ts::new(9, 1);
        }
        let d = a.diff(&b);
        assert!(d.clean());
        assert_eq!(d.common, 1);
        assert_eq!(d.latency_offsets(), Some((2.0, 2.0, 2.0)));

        // A task computed in one trace only was cut off by the other's
        // horizon: in flight, not a conservation failure.
        let compute = b.records.pop().unwrap();
        let d = a.diff(&b);
        assert!(d.count_divergence.is_empty());
        assert_eq!(d.in_flight, vec![0]);
        assert!(d.clean());
        assert!(b.diff(&a).clean(), "in flight on either side");

        // Computing a task twice is duplicated work, whatever the other
        // trace holds: once (2 vs 1) or never (2 vs 0).
        let mut twice = a.clone();
        twice.records.push(compute);
        for other in [&a, &b] {
            for d in [twice.diff(other), other.diff(&twice)] {
                assert!(d.in_flight.is_empty());
                assert_eq!(d.count_divergence.len(), 1);
                assert!(!d.clean());
            }
        }
    }

    #[test]
    fn stock_tasks_never_align() {
        let mut b = small_trace();
        b.records.push(TraceRecord::Enter {
            task: STOCK_BASE + 3,
            node: 1,
            t: Ts::ZERO,
            stock: true,
        });
        let d = small_trace().diff(&b);
        assert!(d.only_b.is_empty());
        assert_eq!(d.stock_b, 1);
        assert!(d.clean());
    }

    #[test]
    fn flow_events_pair_s_with_f() {
        let events = small_trace().to_events();
        let starts: Vec<_> = events.iter().filter(|e| e.kind == EventKind::FlowStart).collect();
        let ends: Vec<_> = events.iter().filter(|e| e.kind == EventKind::FlowEnd).collect();
        assert_eq!(starts.len(), 1);
        assert_eq!(ends.len(), 1);
        assert_eq!(starts[0].args, ends[0].args);
        assert_eq!(starts[0].track, 2); // sender send lane
        assert_eq!(ends[0].track, 3); // receiver receive lane
    }

    #[test]
    fn rational_subtraction_reduces() {
        let d = ts_sub(Ts::new(7, 2), Ts::new(1, 3)).unwrap();
        assert_eq!((d.num, d.den), (19, 6));
        let z = ts_sub(Ts::new(5, 1), Ts::new(5, 1)).unwrap();
        assert_eq!((z.num, z.den), (0, 1));
        // Common denominators cancel before they multiply.
        let big = i128::MAX / 2;
        let h = ts_sub(Ts::new(3, big), Ts::new(1, big)).unwrap();
        assert_eq!(h, Ts::new(2, big));
    }

    #[test]
    fn rational_subtraction_reports_overflow() {
        let wide = Ts::new(1 << 126, 1);
        assert_eq!(ts_sub(wide, Ts::new(1, 3)), None);
        assert_eq!(ts_sub(Ts::new(i128::MIN, 1), Ts::new(1, 1)), None);
        assert_eq!(ts_sub(Ts::new(1, i128::MAX), Ts::new(1, i128::MAX - 1)), None);
        assert_eq!(ts_sub(wide, wide), Some(Ts::ZERO));
        // The diff's offsets fall back to floats instead of failing.
        let d = TraceDiff {
            only_a: vec![],
            only_b: vec![],
            stock_a: 0,
            stock_b: 0,
            common: 1,
            count_divergence: vec![],
            in_flight: vec![],
            routing: vec![],
            latency: vec![(0, Ts::new(1, 3), wide)],
        };
        let (min, _, max) = d.latency_offsets().unwrap();
        assert_eq!(min, max);
        assert!((min - 2f64.powi(126)).abs() <= 2f64.powi(126 - 50));
    }

    /// Times whose cross products overflow `i128` still order exactly.
    #[test]
    fn wide_times_parse_in_order() {
        let text = include_str!("../testdata/trace_good_wide_times.jsonl");
        let trace = Trace::parse(text).unwrap();
        assert_eq!(trace.records.len(), 5);
        let end = "85070591730234615865843651857942585353".parse().unwrap();
        assert_eq!(trace.completion(0), Some(Ts::new(end, 1)));
        assert_eq!(Trace::parse(&trace.to_jsonl()).unwrap(), trace);
        // A compute far before the dispatch at 1/3 runs backwards.
        let head: String = text.lines().take(3).map(|l| format!("{l}\n")).collect();
        let back = head
            + r#"{"k":"compute","task":0,"node":0,"start":"-85070591730234615865843651857942585344","end":"0"}"#;
        let err = Trace::parse(&back).unwrap_err();
        assert_eq!(err.line, 4, "{err}");
        assert!(err.message.contains("backwards"), "{err}");
    }

    #[test]
    fn sojourns_cover_the_computes_that_end_by_the_horizon() {
        let mut trace = small_trace();
        assert_eq!(trace.sojourns(), Some(vec![Ts::new(7, 1)]));
        trace.header.horizon = Ts::new(13, 2);
        assert_eq!(trace.sojourns(), Some(vec![]));
        // Entry at 1/3, retirement at i128::MAX: the difference's
        // numerator leaves i128.
        trace.header.horizon = Ts::new(i128::MAX, 1);
        trace.records[0] = TraceRecord::Enter { task: 0, node: 0, t: Ts::new(1, 3), stock: false };
        trace.records[4] =
            TraceRecord::Compute { task: 0, node: 1, start: Ts::ZERO, end: Ts::new(i128::MAX, 1) };
        assert_eq!(trace.sojourns(), None);
    }

    #[test]
    fn newlines_match_a_bytewise_count() {
        for text in ["", "\n", "a\nb", &"\n".repeat(600), &"ab\n\r\n".repeat(300)] {
            assert_eq!(newlines(text), text.bytes().filter(|&b| b == b'\n').count());
        }
    }

    /// The canonical lane takes only the writer's own layout: each line
    /// here is declined, and `json::parse` reads it to the record
    /// the canonical line decodes to.
    #[test]
    fn canonical_lane_declines_other_layouts() {
        const LINE: &str =
            r#"{"k":"dispatch","task":0,"node":2,"t":"3","action":"send","child":1,"slot":0}"#;
        let r = canonical_record(LINE).expect("the writer's layout");
        for (from, to) in [
            (r#""t":"3""#, r#""t":"3/1""#),
            (r#""t":"3""#, r#""t":"03""#),
            (r#""t":"3""#, r#""t":"+3""#),
            (r#""task":0"#, r#""task":-0"#),
            (r#""task":0"#, r#""task":00"#),
            (r#""node":2"#, r#""node":02"#),
            (r#""slot":0"#, r#""slot": 0"#),
            (r#""k":"dispatch""#, r#""k":"\u0064ispatch""#),
            (r#""k":"dispatch","task":0"#, r#""task":0,"k":"dispatch""#),
            (r#""slot":0"#, r#""slot":0,"slot":1"#),
            (r#""slot":0"#, r#""slot":0,"zz":1"#),
            ("}", "} "),
            ("}", "}\t"),
        ] {
            let other = LINE.replace(from, to);
            assert_eq!(canonical_record(&other), None, "{other}");
            assert_eq!(record_from_line(&other).as_ref(), Ok(&r), "{other}");
        }
        for tail in ["}x", "}}", "},"] {
            let other = LINE.replace('}', tail);
            assert_eq!(canonical_record(&other), None, "{other}");
            assert!(record_from_line(&other).is_err(), "{other}");
        }
    }

    /// `slot` and `period` are `u64` counts in both lanes: `u64::MAX` reads
    /// back, `u64::MAX + 1` and `-1` are declined by the canonical lane and
    /// rejected by the general reader, as is a non-integer annotation.
    #[test]
    fn annotations_are_u64_counts_in_both_lanes() {
        const LINE: &str = r#"{"k":"dispatch","task":0,"node":0,"t":"0","action":"compute","slot":S,"psi":Q,"period":P}"#;
        let line = |slot: &str, psi: &str, period: &str| {
            LINE.replace('S', slot).replace('Q', psi).replace('P', period)
        };
        // The general reader's copy: a space after the opening brace.
        let relaid = |line: &str| line.replacen('{', "{ ", 1);
        let max = u64::MAX.to_string();
        let top = line(&max, "1", &max);
        let want = TraceRecord::Dispatch(Dispatch {
            task: 0,
            node: 0,
            t: Ts::ZERO,
            action: Action::Compute,
            slot: Some(u64::MAX),
            psi: Some(1),
            period: Some(u64::MAX),
        });
        assert_eq!(canonical_record(&top), Some(want.clone()));
        assert_eq!(record_from_line(&relaid(&top)), Ok(want));
        let past = (u128::from(u64::MAX) + 1).to_string();
        for (bad, key) in [
            (line(&past, "1", "0"), "slot"),
            (line("0", "1", &past), "period"),
            (line("-1", "1", "0"), "slot"),
            (line("0", "1", "-1"), "period"),
        ] {
            assert_eq!(canonical_record(&bad), None, "{bad}");
            for text in [bad.clone(), relaid(&bad)] {
                let err = record_from_line(&text).unwrap_err();
                assert_eq!(err, format!("`{key}` is not a count in u64"), "{text}");
            }
        }
        for value in ["1.5", r#""3""#, "true", "[0]"] {
            for (bad, err) in [
                (line(value, "1", "0"), "`slot` is not a count in u64"),
                (line("0", "1", value), "`period` is not a count in u64"),
                (line("0", value, "0"), "non-integer `psi`"),
            ] {
                assert_eq!(record_from_line(&bad), Err(err.to_string()), "{bad}");
            }
        }
    }

    /// The widest record the types allow fits the stack line.
    #[test]
    fn widest_record_fits_the_line_buffer() {
        let wide = Ts::new(i128::MIN, i128::MAX);
        let r = TraceRecord::Dispatch(Dispatch {
            task: i128::MIN,
            node: u32::MAX,
            t: wide,
            action: Action::Send(u32::MAX),
            slot: Some(u64::MAX),
            psi: Some(i128::MIN),
            period: Some(u64::MAX),
        });
        let mut line = String::new();
        r.write_json(&mut line);
        assert!(line.len() < LINE_MAX, "{}", line.len());
        assert_eq!(line, record_value(&r).to_string_compact());
        assert_eq!(canonical_record(&line), Some(r));
    }

    /// A valid artifact in another layout (whitespace, permuted members,
    /// an escaped `"enter"`, `"p/1"` times) reads through `json::parse`
    /// to the trace of its canonical bytes: the first lines of the Fig. 2
    /// event golden.
    #[test]
    fn relaid_artifact_reads_as_its_canonical_bytes() {
        let relaid = include_str!("../testdata/trace_good_relaid.jsonl");
        let golden = include_str!("../../sim/testdata/fig2_event_trace.jsonl");
        let canonical: String =
            golden.lines().take(relaid.lines().count()).map(|l| format!("{l}\n")).collect();
        for line in relaid.lines().skip(1) {
            assert_eq!(canonical_record(line), None, "{line}");
        }
        let trace = Trace::parse(relaid).unwrap();
        assert_eq!(trace.records.len(), 18);
        assert_eq!(trace, Trace::parse(&canonical).unwrap());
        assert_eq!(trace.to_jsonl(), canonical);
    }

    /// The `Value`-tree rendering [`TraceRecord::write_json`] replaced: the
    /// writer's oracle.
    fn record_value(r: &TraceRecord) -> Value {
        let mut m = vec![
            ("k", Value::Str(r.kind().into())),
            ("task", Value::Int(r.task())),
            ("node", Value::Int(i128::from(r.node()))),
        ];
        match r {
            TraceRecord::Enter { t, stock, .. } => {
                m.push(("t", Value::Str(t.display())));
                if *stock {
                    m.push(("stock", Value::Bool(true)));
                }
            }
            TraceRecord::Dispatch(d) => {
                m.push(("t", Value::Str(d.t.display())));
                match d.action {
                    Action::Compute => m.push(("action", Value::Str("compute".into()))),
                    Action::Send(child) => {
                        m.push(("action", Value::Str("send".into())));
                        m.push(("child", Value::Int(i128::from(child))));
                    }
                }
                let (slot, period) = (d.slot.map(i128::from), d.period.map(i128::from));
                for (key, v) in [("slot", slot), ("psi", d.psi), ("period", period)] {
                    if let Some(v) = v {
                        m.push((key, Value::Int(v)));
                    }
                }
            }
            TraceRecord::Deliver { from, t, .. } => {
                m.push(("from", Value::Int(i128::from(*from))));
                m.push(("t", Value::Str(t.display())));
            }
            TraceRecord::Compute { start, end, .. } => {
                m.push(("start", Value::Str(start.display())));
                m.push(("end", Value::Str(end.display())));
            }
        }
        obj(m)
    }

    fn value_decoder(line: &str) -> Result<TraceRecord, String> {
        json_line(line).and_then(|v| record_from_json(&v))
    }

    fn any_ts() -> impl Strategy<Value = Ts> {
        prop_oneof![
            (0i128..1000, 1i128..4).prop_map(|(n, d)| Ts::new(n, d)),
            (any::<i128>(), any::<i128>()).prop_map(|(n, d)| Ts::new(n, d.saturating_abs().max(1))),
        ]
    }

    fn any_opt() -> impl Strategy<Value = Option<i128>> {
        prop_oneof![Just(None), (-3i128..100).prop_map(Some), any::<i128>().prop_map(Some)]
    }

    fn any_count() -> impl Strategy<Value = Option<u64>> {
        prop_oneof![
            Just(None),
            (0u64..100).prop_map(Some),
            Just(Some(u64::MAX)),
            any::<u64>().prop_map(Some)
        ]
    }

    fn any_record() -> impl Strategy<Value = TraceRecord> {
        let id = || prop_oneof![0i128..50, any::<i128>()];
        let node = || prop_oneof![0u32..4, any::<u32>()];
        prop_oneof![
            (id(), node(), any_ts(), any::<bool>())
                .prop_map(|(task, node, t, stock)| TraceRecord::Enter { task, node, t, stock }),
            (
                id(),
                node(),
                any_ts(),
                prop_oneof![Just(None), node().prop_map(Some)],
                any_count(),
                (any_opt(), any_count())
            )
                .prop_map(|(task, node, t, child, slot, (psi, period))| {
                    let action = child.map_or(Action::Compute, Action::Send);
                    TraceRecord::Dispatch(Dispatch { task, node, t, action, slot, psi, period })
                }),
            (id(), node(), node(), any_ts())
                .prop_map(|(task, node, from, t)| TraceRecord::Deliver { task, node, from, t }),
            (id(), node(), any_ts(), any_ts()).prop_map(|(task, node, start, end)| {
                TraceRecord::Compute { task, node, start, end }
            }),
        ]
    }

    /// A valid three-node lifecycle over [`HEADER`]: the lines the reader
    /// test mutates, as `(key, value)` JSON tokens.
    fn lifecycle() -> Vec<Vec<(String, String)>> {
        let lines: [&[(&str, &str)]; 6] = [
            &[("k", r#""enter""#), ("task", "0"), ("node", "0"), ("t", r#""0""#)],
            &[
                ("k", r#""dispatch""#),
                ("task", "0"),
                ("node", "0"),
                ("t", r#""0""#),
                ("action", r#""send""#),
                ("child", "1"),
                ("slot", "0"),
                ("psi", "1"),
                ("period", "0"),
            ],
            &[
                ("k", r#""deliver""#),
                ("task", "0"),
                ("node", "1"),
                ("from", "0"),
                ("t", r#""1/2""#),
            ],
            &[
                ("k", r#""dispatch""#),
                ("task", "0"),
                ("node", "1"),
                ("t", r#""1/2""#),
                ("action", r#""compute""#),
            ],
            &[
                ("k", r#""compute""#),
                ("task", "0"),
                ("node", "1"),
                ("start", r#""1/2""#),
                ("end", r#""13/2""#),
            ],
            &[
                ("k", r#""enter""#),
                ("task", "1000000000"),
                ("node", "2"),
                ("t", r#""0""#),
                ("stock", "true"),
            ],
        ];
        lines
            .iter()
            .map(|l| l.iter().map(|(k, v)| (format!("\"{k}\""), (*v).to_string())).collect())
            .collect()
    }

    /// Value tokens a mutation can put in place of a member's value,
    /// space-separated: valid and invalid numbers, i128 bounds, nested
    /// values, escaped and malformed strings, times and record kinds.
    const TOKENS: &str = concat!(
        r#"-1 -0 01 0 1 2 7 4294967296 170141183460469231731687303715884105727 "#,
        r#"170141183460469231731687303715884105728 -170141183460469231731687303715884105729 "#,
        r#"1.5 2e3 -1E-2 1. - [1,[2,{"a":null}]] {"x":[]} [] true false null tru "#,
        r#""0" "3" "5/2" "-1/2" "+2" "1/0" "" "1\/2" "\u0031" "\u00e9" "\x" "\ud800" "open "#,
        r#""compute" "send" "enter" "dispatch" "deliver" "warp""#,
    );

    fn token(x: &mut u64) -> String {
        let tokens: Vec<&str> = TOKENS.split(' ').collect();
        tokens[mix(x) % tokens.len()].to_string()
    }

    /// SplitMix64: the mutations' own deterministic choices.
    fn mix(x: &mut u64) -> usize {
        *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as usize
    }

    /// Applies mutation `op` (seeded by `seed`) to one line's members, or
    /// returns a whole-line replacement.
    fn mutate(
        members: &mut Vec<(String, String)>,
        op: u8,
        seed: u64,
        ws: &mut Option<u64>,
    ) -> Option<String> {
        let mut x = seed;
        let n = members.len();
        let pick = |x: &mut u64, len: usize| mix(x) % len.max(1);
        // Ops 0 and 3-6 need a member; on an empty object they fall
        // through to the last arm.
        match op {
            0 if n > 0 => {
                let (i, j) = (pick(&mut x, n), pick(&mut x, n));
                members.swap(i, j);
            }
            1 => *ws = Some(seed),
            2 => {
                // An unknown key, or one that belongs to another record kind.
                const KEYS: &[&str] = &[
                    "zz", "k", "task", "node", "t", "stock", "action", "child", "slot", "psi",
                    "period", "from", "start", "end",
                ];
                let key = format!("\"{}\"", KEYS[pick(&mut x, KEYS.len())]);
                let v = token(&mut x);
                members.insert(pick(&mut x, n + 1), (key, v));
            }
            3 if n > 0 => {
                let key = members[pick(&mut x, n)].0.clone();
                let v = token(&mut x);
                members.insert(pick(&mut x, n + 1), (key, v));
            }
            4 if n > 0 => {
                // Escape a string token: `/` as `\/`, a digit or letter as `\u00XX`.
                let i = pick(&mut x, n);
                let (k, v) = &mut members[i];
                let tok = if mix(&mut x) & 1 == 0 { k } else { v };
                if tok.starts_with('"') && tok.len() > 2 {
                    let at = 1 + pick(&mut x, tok.len() - 2);
                    let c = tok.as_bytes()[at];
                    if c == b'/' {
                        tok.replace_range(at..=at, "\\/");
                    } else if c.is_ascii_alphanumeric() {
                        tok.replace_range(at..=at, &format!("\\u{:04x}", c));
                    }
                }
            }
            5 if n > 0 => {
                let i = pick(&mut x, n);
                members[i].1 = token(&mut x);
            }
            6 if n > 0 => {
                members.remove(pick(&mut x, n));
            }
            7 => {
                let line = render(members, *ws);
                return Some(line[..pick(&mut x, line.len())].to_string());
            }
            8 => {
                const NOT_OBJECTS: &[&str] =
                    &["[1,2]", "7", r#""x""#, "null", "{}", "[", "{,}", "{\"k\":}"];
                return Some(NOT_OBJECTS[pick(&mut x, NOT_OBJECTS.len())].to_string());
            }
            _ => {
                const TAILS: &[&str] = &[" x", ",}", "}", " ", "\t", "{}"];
                return Some(render(members, *ws) + TAILS[pick(&mut x, TAILS.len())]);
            }
        }
        None
    }

    /// `{"key":value,...}`, with whitespace around every token when `ws`
    /// seeds it.
    fn render(members: &[(String, String)], ws: Option<u64>) -> String {
        let mut x = ws.unwrap_or(0);
        let mut gap = |out: &mut String| {
            if ws.is_some() {
                out.push_str(["", " ", "\t", "  ", "\r", " \t "][mix(&mut x) % 6]);
            }
        };
        let mut out = String::new();
        gap(&mut out);
        out.push('{');
        for (i, (k, v)) in members.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            gap(&mut out);
            out.push_str(k);
            gap(&mut out);
            out.push(':');
            gap(&mut out);
            out.push_str(v);
            gap(&mut out);
        }
        out.push('}');
        gap(&mut out);
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10_000))]

        /// The direct writer emits the `Value` rendering's exact bytes.
        #[test]
        fn writer_matches_value_rendering(r in any_record()) {
            let mut line = String::new();
            r.write_json(&mut line);
            prop_assert_eq!(&line, &record_value(&r).to_string_compact());
            prop_assert_eq!(canonical_record(&line), Some(r.clone()));
            prop_assert_eq!(record_from_line(&line), Ok(r));
        }

        /// The direct reader agrees with the `Value`-tree reader on every
        /// mutated line: the same record, or the same error at the same
        /// line with the same message.
        #[test]
        fn reader_matches_value_decoder(
            at in 0usize..6,
            ops in prop::collection::vec((0u8..10, any::<u64>()), 0..8),
        ) {
            let mut lines = lifecycle();
            let mut ws = None;
            let mut replaced = None;
            for (op, seed) in ops {
                if replaced.is_none() {
                    replaced = mutate(&mut lines[at], op, seed, &mut ws);
                }
            }
            let mutated = replaced.unwrap_or_else(|| render(&lines[at], ws));
            prop_assert_eq!(record_from_line(&mutated), value_decoder(&mutated));
            let mut text = HEADER.to_string() + "\n";
            for (i, members) in lines.iter().enumerate() {
                let line = if i == at { mutated.clone() } else { render(members, None) };
                text.push_str(&line);
                text.push('\n');
            }
            prop_assert_eq!(Trace::parse(&text), Trace::parse_with(&text, value_decoder));
        }
    }

    #[test]
    fn unmutated_lifecycle_parses() {
        let mut text = HEADER.to_string() + "\n";
        for members in lifecycle() {
            text.push_str(&render(&members, None));
            text.push('\n');
        }
        let trace = Trace::parse(&text).unwrap();
        assert_eq!(trace.records.len(), 6);
        assert_eq!(trace.task_ids(), vec![0, STOCK_BASE]);
    }
}
