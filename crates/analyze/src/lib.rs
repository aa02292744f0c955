//! Exhaustive protocol verification and artifact schema checks for the
//! workspace, in one binary (`bwfirst-analyze`).
//!
//! The **protocol model checker** ([`model`]) enumerates every rooted tree
//! up to N nodes ([`trees`]) with lattice-valued rational weights,
//! negotiates each on the *shipped* `proto::ProtocolSession` (a round has
//! one message in flight, so one run covers every delivery order), and
//! asserts a clean round, Proposition 2 (`2 × visited` messages), agreement
//! with the centralized bottom-up reduction, equality with `bw_first`'s
//! whole solution, and a repeatable second round.
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
//! The source invariants — exact arithmetic stays exact (R1), hot paths
//! return typed errors (R2), protocol message matches stay exhaustive (R3)
//! and dev-only shims stay out of runtime code (R4) — are not checked here:
//! R1–R3 are clippy lints denied at the crate roots and modules they guard,
//! and R4 is Cargo's own dependency resolution, pinned by this crate's
//! `runtime_manifests` test. The fixtures under `fixtures/` each break one
//! rule and must fail clippy when dropped into a crate in that rule's scope.
//!
//! See `docs/ANALYSIS.md` for the rule table and how to read model-checker
//! counterexamples.

pub mod model;
pub mod trees;

pub use model::{check, ModelReport, Violation};
