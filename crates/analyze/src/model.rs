//! Exhaustive model checking of the `BW-First` negotiation protocol.
//!
//! The checker drives the **same** [`NodeMachine`] state machine the live
//! actors run (`crates/proto/src/machine.rs`) — not a re-implementation —
//! so every property verified here is a property of the shipped code.
//!
//! For every rooted tree up to `max_nodes` nodes (see [`crate::trees`]) the
//! checker explores **all interleavings** of message deliveries by DFS over
//! the reachable network states, memoized on the exact machine state bytes.
//! At every terminal state it asserts:
//!
//! * **Termination / deadlock freedom** — every maximal delivery sequence
//!   ends with no messages in flight, all machines idle, and the driver
//!   holding the root's ack; no delivery ever makes a machine return a
//!   protocol error.
//! * **Proposition 2** — exactly `2 × visited` negotiation messages are
//!   delivered (one proposal in, one ack out per visited node, the virtual
//!   parent edge included).
//! * **Agreement** — the negotiated throughput `t_max − θ_root` equals the
//!   centralized [`bottom_up`](fn@bottom_up) reduction, and equals the sum
//!   of accepted rates `Σ α_i`.
//! * **Per-node agreement** — every machine's `α`, visited flag and (when
//!   visited) `η_in` equal the centralized [`bw_first`]'s for that node. The
//!   lattice repeats link times, so this pins the machine's `(c, id)` child
//!   order against the solver's.
//! * **Determinism** — every terminal state of one instance reports the
//!   same `θ_root` and the same per-node `α` vector.

use crate::trees::{for_each_instance, Instance};
use bwfirst_core::{bottom_up, bw_first, BwFirstSolution};
use bwfirst_obs::json::{obj, Value};
use bwfirst_obs::{Event, EventKind, FlightRecorder, Recorder, Ts};
use bwfirst_parallel::Pool;
use bwfirst_platform::Weight;
use bwfirst_proto::machine::Outgoing;
use bwfirst_proto::session::virtual_proposal;
use bwfirst_proto::NodeMachine;
use bwfirst_rational::Rat;
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

/// A multiply-xor hasher (FxHash-style) for the state memo. The DFS hashes
/// megabytes of state-key bytes; the default SipHash is a measurable share
/// of the whole check, and the memo needs no DoS resistance — keys are
/// machine states, not attacker input. Collisions only cost an extra
/// byte-compare in the set.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        const K: u64 = 0x517c_c1b7_2722_0a95;
        let mut h = self.0;
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let word = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
            h = (h.rotate_left(5) ^ word).wrapping_mul(K);
        }
        for &b in chunks.remainder() {
            h = (h.rotate_left(5) ^ u64::from(b)).wrapping_mul(K);
        }
        self.0 = h;
    }
}

type Memo = HashSet<Vec<u8>, BuildHasherDefault<KeyHasher>>;

/// The driver (virtual parent) sits above the root.
const DRIVER: u32 = u32::MAX;

/// A message in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Env {
    /// A bandwidth proposal travelling down.
    Down { to: u32, lambda: Rat },
    /// An ack travelling up (`to == DRIVER` for the root's final ack).
    Up { to: u32, from: u32, theta: Rat },
    /// The post-negotiation shutdown wave (fans out, genuinely concurrent).
    Shutdown { to: u32 },
}

impl Env {
    fn describe(&self) -> String {
        match self {
            Env::Down { to, lambda } => format!("deliver Proposal(lambda={lambda}) to P{to}"),
            Env::Up { to: DRIVER, from, theta } => {
                format!("deliver Ack(theta={theta}) from P{from} to the driver")
            }
            Env::Up { to, from, theta } => {
                format!("deliver Ack(theta={theta}) from P{from} to P{to}")
            }
            Env::Shutdown { to } => format!("deliver Shutdown to P{to}"),
        }
    }

    fn encode(&self, out: &mut Vec<u8>) {
        let push_rat = |out: &mut Vec<u8>, r: Rat| {
            out.extend_from_slice(&r.numer().to_le_bytes());
            out.extend_from_slice(&r.denom().to_le_bytes());
        };
        match self {
            Env::Down { to, lambda } => {
                out.push(0);
                out.extend_from_slice(&to.to_le_bytes());
                push_rat(out, *lambda);
            }
            Env::Up { to, from, theta } => {
                out.push(1);
                out.extend_from_slice(&to.to_le_bytes());
                out.extend_from_slice(&from.to_le_bytes());
                push_rat(out, *theta);
            }
            Env::Shutdown { to } => {
                out.push(2);
                out.extend_from_slice(&to.to_le_bytes());
            }
        }
    }
}

/// The immutable tree topology of one instance. Kept out of [`Net`] so the
/// DFS branch clones copy only the mutable state, not the tree shape.
struct Topo {
    parent: Vec<Option<u32>>,
    children: Vec<Vec<u32>>,
}

/// The whole network at one instant.
#[derive(Clone)]
struct Net {
    machines: Vec<NodeMachine>,
    shutdown: Vec<bool>,
    inflight: Vec<Env>,
    /// Negotiation messages (proposals + acks) delivered so far.
    delivered: u64,
    root_theta: Option<Rat>,
}

impl Net {
    fn key(&self) -> Vec<u8> {
        let mut k = Vec::with_capacity(64 * self.machines.len());
        for m in &self.machines {
            m.state_key(&mut k);
        }
        for &s in &self.shutdown {
            k.push(u8::from(s));
        }
        if self.inflight.len() <= 1 {
            // The common case: the negotiation is a strict alternation, so
            // one message is in flight — nothing to sort, encode directly.
            if let Some(e) = self.inflight.first() {
                e.encode(&mut k);
            }
        } else {
            let mut envs: Vec<Vec<u8>> = self
                .inflight
                .iter()
                .map(|e| {
                    let mut b = Vec::new();
                    e.encode(&mut b);
                    b
                })
                .collect();
            envs.sort();
            for e in envs {
                k.extend_from_slice(&e);
            }
        }
        k.extend_from_slice(&self.delivered.to_le_bytes());
        if let Some(t) = self.root_theta {
            k.push(1);
            k.extend_from_slice(&t.numer().to_le_bytes());
            k.extend_from_slice(&t.denom().to_le_bytes());
        } else {
            k.push(0);
        }
        k
    }

    /// Delivers envelope `i`; returns a protocol-level failure description
    /// if the shipped state machine rejects it.
    fn deliver(&mut self, i: usize, topo: &Topo) -> Result<(), String> {
        let env = self.inflight.swap_remove(i);
        match env {
            Env::Down { to, lambda } => {
                self.delivered += 1;
                let out = self.machines[to as usize]
                    .on_proposal(lambda)
                    .map_err(|e| format!("P{to} rejected proposal: {e}"))?;
                self.route(to, out, topo);
                Ok(())
            }
            Env::Up { to, from, theta } => {
                self.delivered += 1;
                if to == DRIVER {
                    self.root_theta = Some(theta);
                    // The driver answers the final ack with the shutdown wave.
                    self.inflight.push(Env::Shutdown { to: from });
                    return Ok(());
                }
                let out = self.machines[to as usize]
                    .on_ack(from, theta)
                    .map_err(|e| format!("P{to} rejected ack from P{from}: {e}"))?;
                self.route(to, out, topo);
                Ok(())
            }
            Env::Shutdown { to } => {
                if !self.machines[to as usize].is_idle() {
                    return Err(format!("P{to} received Shutdown mid-negotiation"));
                }
                if self.shutdown[to as usize] {
                    return Err(format!("P{to} received Shutdown twice"));
                }
                self.shutdown[to as usize] = true;
                for &k in &topo.children[to as usize] {
                    self.inflight.push(Env::Shutdown { to: k });
                }
                Ok(())
            }
        }
    }

    fn route(&mut self, node: u32, out: Outgoing, topo: &Topo) {
        match out {
            Outgoing::ToChild { child, beta, .. } => {
                self.inflight.push(Env::Down { to: child, lambda: beta });
            }
            Outgoing::AckParent { theta } => {
                let to = topo.parent[node as usize].unwrap_or(DRIVER);
                self.inflight.push(Env::Up { to, from: node, theta });
            }
        }
    }
}

/// What a terminal state reported — must be identical across interleavings.
#[derive(Debug, Clone, PartialEq, Eq)]
struct TerminalOutcome {
    theta: Rat,
    alpha: Vec<Rat>,
    delivered: u64,
}

/// One property failure, with everything needed to replay it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The offending tree, pretty-printed.
    pub instance: String,
    /// The exact delivery sequence that reached the failure.
    pub trace: Vec<String>,
    /// Which assertion failed.
    pub message: String,
}

impl Violation {
    /// The shared violation-object shape (`layer`/`kind`/`message`) used by
    /// `bwfirst-postmortem/1` artifacts, plus the offending instance.
    #[must_use]
    pub fn to_violation_json(&self) -> Value {
        obj(vec![
            ("layer", Value::from("proto")),
            ("kind", Value::from("model-check")),
            ("message", Value::from(self.message.as_str())),
            ("instance", Value::from(self.instance.as_str())),
        ])
    }

    /// Renders the counterexample as a `bwfirst-postmortem/1` artifact —
    /// the same format the simulator's runtime monitors dump — by replaying
    /// the delivery trace into a [`FlightRecorder`] as instant events (the
    /// timestamp is the 1-based step index; the model has no clock).
    #[must_use]
    pub fn to_postmortem(&self) -> Value {
        let mut flight = FlightRecorder::new(self.trace.len().max(1));
        for (k, step) in self.trace.iter().enumerate() {
            let ts = Ts::new(k as i128 + 1, 1);
            flight.event(Event::new(ts, 0, step.clone(), EventKind::Instant));
            flight.add("model.deliveries", 1);
        }
        flight.postmortem(&self.message, Value::Array(vec![self.to_violation_json()]))
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "VIOLATION: {}", self.message)?;
        write!(f, "{}", self.instance)?;
        writeln!(f, "message trace:")?;
        for (k, step) in self.trace.iter().enumerate() {
            writeln!(f, "  {:>3}. {step}", k + 1)?;
        }
        Ok(())
    }
}

/// Aggregate result of a model-checking run.
#[derive(Debug, Default)]
pub struct ModelReport {
    /// Platform instances checked (trees × lattice variants).
    pub instances: usize,
    /// Distinct network states visited across all instances.
    pub states: u64,
    /// Property failures (empty on a healthy protocol).
    pub violations: Vec<Violation>,
}

/// Checks every instance with at most `max_nodes` nodes, stopping an
/// instance at its first violation (other instances still run, so the
/// report shows the smallest trees that fail). `max_violations` caps the
/// violations collected in the report; `threads` fans the independent
/// instances out over a [`Pool`].
///
/// Instances are fully independent (each gets its own state memo), so the
/// report is identical for every thread count: per-instance state counts sum
/// commutatively and violations are collected in instance order.
#[must_use]
pub fn check(max_nodes: usize, max_violations: usize, threads: usize) -> ModelReport {
    let mut instances: Vec<Instance> = Vec::new();
    let (count, _) = for_each_instance(max_nodes, |inst| {
        instances.push(inst.clone());
        true
    });
    let results = Pool::new(threads).map(instances, |inst| {
        let mut states = 0u64;
        let violation = check_instance(&inst, &mut states).err();
        (states, violation)
    });
    let mut report = ModelReport { instances: count, ..ModelReport::default() };
    for (states, violation) in results {
        report.states += states;
        if let Some(v) = violation {
            if report.violations.len() < max_violations {
                report.violations.push(*v);
            }
        }
    }
    report
}

/// Explores all interleavings for one instance.
fn check_instance(inst: &Instance, states: &mut u64) -> Result<(), Box<Violation>> {
    explore(inst, bw_first(&inst.platform), states)
}

/// Explores all interleavings for one instance, checking every machine
/// against the centralized `reference` solution.
fn explore(
    inst: &Instance,
    reference: BwFirstSolution,
    states: &mut u64,
) -> Result<(), Box<Violation>> {
    let p = &inst.platform;
    let n = p.len();
    let machines: Vec<NodeMachine> = p
        .node_ids()
        .map(|id| {
            let children = p
                .children(id)
                .iter()
                .map(|&k| (k.0, p.link_time(k).expect("non-root nodes have links")))
                .collect();
            NodeMachine::new(id.0, p.weight(id), children)
        })
        .collect();
    let topo = Topo {
        parent: p.node_ids().map(|id| p.parent(id).map(|q| q.0)).collect(),
        children: p.node_ids().map(|id| p.children(id).iter().map(|k| k.0).collect()).collect(),
    };

    let t_max = virtual_proposal(p).map_err(|e| {
        Box::new(Violation {
            instance: inst.describe(),
            trace: Vec::new(),
            message: format!("virtual proposal failed: {e}"),
        })
    })?;
    let expected = bottom_up(p).throughput;

    let net = Net {
        machines,
        shutdown: vec![false; n],
        inflight: vec![Env::Down { to: p.root().0, lambda: t_max }],
        delivered: 0,
        root_theta: None,
    };

    let mut ctx = Ctx {
        inst,
        topo: &topo,
        t_max,
        expected,
        reference,
        seen: Memo::default(),
        trace: Vec::new(),
        first_terminal: None,
        states,
    };
    dfs(net, &mut ctx)
}

struct Ctx<'a> {
    inst: &'a Instance,
    topo: &'a Topo,
    t_max: Rat,
    expected: Rat,
    /// The centralized solution every machine must agree with node by node.
    reference: BwFirstSolution,
    seen: Memo,
    /// Envelopes delivered along the current DFS path; rendered to strings
    /// only when a violation is reported, so the hot path never formats.
    trace: Vec<Env>,
    first_terminal: Option<TerminalOutcome>,
    states: &'a mut u64,
}

impl Ctx<'_> {
    fn fail(&self, message: String) -> Box<Violation> {
        Box::new(Violation {
            instance: self.inst.describe(),
            trace: self.trace.iter().map(Env::describe).collect(),
            message,
        })
    }
}

fn dfs(net: Net, ctx: &mut Ctx<'_>) -> Result<(), Box<Violation>> {
    if !ctx.seen.insert(net.key()) {
        return Ok(());
    }
    *ctx.states += 1;
    if net.inflight.is_empty() {
        return check_terminal(&net, ctx);
    }
    // The last branch consumes `net` itself; only the earlier siblings pay
    // for a clone. During the negotiation exactly one message is in flight
    // (strict alternation), so the common chain recurses clone-free.
    let last = net.inflight.len() - 1;
    for i in 0..last {
        branch(net.clone(), i, ctx)?;
    }
    branch(net, last, ctx)
}

/// Delivers envelope `i` of `next` and explores the resulting subtree.
fn branch(mut next: Net, i: usize, ctx: &mut Ctx<'_>) -> Result<(), Box<Violation>> {
    ctx.trace.push(next.inflight[i]);
    let step = next.deliver(i, ctx.topo).map_err(|m| ctx.fail(m));
    let result = step.and_then(|()| dfs(next, ctx));
    ctx.trace.pop();
    result
}

fn check_terminal(net: &Net, ctx: &mut Ctx<'_>) -> Result<(), Box<Violation>> {
    let theta =
        net.root_theta.ok_or_else(|| ctx.fail("terminated without the root's ack".into()))?;
    for m in &net.machines {
        if !m.is_idle() {
            return Err(ctx.fail(format!("P{} still mid-round at termination", m.id())));
        }
    }
    if let Some(p) = net.shutdown.iter().position(|&s| !s) {
        return Err(ctx.fail(format!("P{p} never received Shutdown")));
    }

    // Proposition 2: 2 messages per visited node, virtual edge included.
    let visited = net.machines.iter().filter(|m| m.visited()).count() as u64;
    if net.delivered != 2 * visited {
        return Err(ctx.fail(format!(
            "Proposition 2 violated: {} messages delivered for {visited} visited nodes \
             (expected {})",
            net.delivered,
            2 * visited
        )));
    }

    // Agreement with the centralized bottom-up reduction.
    let throughput = ctx.t_max - theta;
    if throughput != ctx.expected {
        return Err(
            ctx.fail(format!("negotiated throughput {throughput} != bottom-up {}", ctx.expected))
        );
    }
    let alpha_sum: Rat = net.machines.iter().map(NodeMachine::alpha).fold(Rat::ZERO, |a, b| a + b);
    if alpha_sum != throughput {
        return Err(ctx.fail(format!(
            "sum of accepted rates {alpha_sum} != negotiated throughput {throughput}"
        )));
    }
    // Per-node agreement with the centralized solver.
    let r = &ctx.reference;
    for m in &net.machines {
        let i = m.id() as usize;
        if m.alpha() != r.alpha[i]
            || m.visited() != r.visited[i]
            || (m.visited() && m.eta_in() != r.eta_in[i])
        {
            return Err(ctx.fail(format!(
                "P{i} disagrees with bw_first: alpha={} visited={} eta_in={}, \
                 expected alpha={} visited={} eta_in={}",
                m.alpha(),
                m.visited(),
                m.eta_in(),
                r.alpha[i],
                r.visited[i],
                r.eta_in[i]
            )));
        }
    }
    // Switches compute nothing, whatever they forward.
    for m in &net.machines {
        if matches!(m.weight(), Weight::Infinite) && !m.alpha().is_zero() {
            return Err(ctx.fail(format!("switch P{} accepted work alpha={}", m.id(), m.alpha())));
        }
    }

    // Determinism across interleavings.
    let outcome = TerminalOutcome {
        theta,
        alpha: net.machines.iter().map(NodeMachine::alpha).collect(),
        delivered: net.delivered,
    };
    match &ctx.first_terminal {
        None => ctx.first_terminal = Some(outcome),
        Some(first) if *first != outcome => {
            return Err(ctx.fail(format!(
                "nondeterministic outcome: first terminal state saw theta={} alpha={:?}, \
                 this interleaving saw theta={} alpha={:?}",
                first.theta, first.alpha, outcome.theta, outcome.alpha
            )));
        }
        Some(_) => {}
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_trees_up_to_five_nodes_verify() {
        let report = check(5, 8, 1);
        assert_eq!(report.instances, 102); // (1+1+2+6+24) shapes × 3 variants
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.states > report.instances as u64);
    }

    #[test]
    fn parallel_check_reports_exactly_what_serial_does() {
        let serial = check(4, 8, 1);
        let parallel = check(4, 8, 4);
        assert_eq!(serial.instances, parallel.instances);
        assert_eq!(serial.states, parallel.states);
        assert_eq!(serial.violations.len(), parallel.violations.len());
    }

    #[test]
    fn a_broken_machine_would_be_caught() {
        // Sanity: feed the checker's terminal assertions a cooked outcome by
        // checking a healthy run's numbers differ from a corrupted expectation.
        let inst = crate::trees::Instance::build(&[0, 0], 0, 0);
        let mut states = 0;
        assert!(check_instance(&inst, &mut states).is_ok());
        assert!(states > 0);
    }

    #[test]
    fn per_node_disagreement_with_bw_first_is_reported() {
        let inst = crate::trees::Instance::build(&[0, 0], 0, 0);
        let mut reference = bw_first(&inst.platform);
        reference.alpha[1] += Rat::ONE;
        let mut states = 0;
        let err = explore(&inst, reference, &mut states).expect_err("cooked reference");
        assert!(err.message.starts_with("P1 disagrees with bw_first"), "{}", err.message);
        assert_eq!(err.to_violation_json()["kind"].as_str(), Some("model-check"));
    }

    #[test]
    fn violations_render_with_tree_and_trace() {
        let v = Violation {
            instance: "tree n=2 variant=0 parents=[0]\n".into(),
            trace: vec!["deliver Proposal(lambda=2) to P0".into()],
            message: "demo".into(),
        };
        let text = format!("{v}");
        assert!(text.contains("VIOLATION: demo"));
        assert!(text.contains("1. deliver Proposal"));
    }

    #[test]
    fn counterexamples_dump_the_shared_postmortem_artifact() {
        let v = Violation {
            instance: "tree n=2 variant=0 parents=[0]\n".into(),
            trace: vec![
                "deliver Proposal(lambda=2) to P0".into(),
                "deliver Ack(theta=0) from P0 to the driver".into(),
            ],
            message: "demo".into(),
        };
        let dump = v.to_postmortem();
        assert_eq!(dump["format"].as_str(), Some("bwfirst-postmortem/1"));
        assert_eq!(dump["reason"].as_str(), Some("demo"));
        let viol = dump["violations"].as_array().expect("violations array");
        assert_eq!(viol[0]["layer"].as_str(), Some("proto"));
        assert_eq!(viol[0]["kind"].as_str(), Some("model-check"));
        let events = dump["events"].as_array().expect("events array");
        assert_eq!(events.len(), 2);
        assert_eq!(dump["dropped"].as_i128(), Some(0));
    }
}
