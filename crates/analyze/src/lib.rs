//! Static analysis and exhaustive protocol verification for the workspace.
//!
//! Two layers, one binary (`bwfirst-analyze`):
//!
//! 1. **Source invariant linter** ([`rules`]) — a dependency-free Rust
//!    token scanner ([`lexer`]) enforcing the workspace's load-bearing
//!    conventions: exact arithmetic stays exact (R1), hot paths return
//!    typed errors (R2), protocol message matches stay exhaustive (R3),
//!    and dev-only shims stay out of runtime code (R4). Escape hatch:
//!    a `lint: allow(<rule>)` comment on the same or preceding line.
//! 2. **Protocol model checker** ([`model`]) — enumerates every rooted
//!    tree up to N nodes ([`trees`]) with lattice-valued rational weights,
//!    negotiates each on the *shipped* `proto::ProtocolSession` (a round
//!    has one message in flight, so one run covers every delivery order),
//!    and asserts a clean round, Proposition 2 (`2 × visited` messages),
//!    agreement with the centralized bottom-up reduction, equality with
//!    `bw_first`'s whole solution, and a repeatable second round.
//!
//! The binary also schema-checks the two JSONL artifacts, but neither has
//! a validator here: each schema lives with its one reader, next to its
//! writer. The `snapshots` verb calls `bwfirst_sim::Snapshot::parse_jsonl`
//! on `bwfirst monitor --snapshots` streams; the `trace` verb calls
//! `bwfirst_obs::causal::Trace::parse`, the reader that replay, lineage and
//! diff use too. Model-checker counterexamples also render as
//! `bwfirst-postmortem/1` artifacts ([`Violation::to_postmortem`]) — the
//! same crash-dump format the simulator's runtime monitors emit.
//!
//! See `docs/ANALYSIS.md` for rule-by-rule rationale and how to read
//! model-checker counterexamples.

pub mod lexer;
pub mod model;
pub mod rules;
pub mod trees;

pub use model::{check, ModelReport, Violation};
pub use rules::{lint_file_unscoped, lint_source, lint_workspace, rules_for, Finding};
