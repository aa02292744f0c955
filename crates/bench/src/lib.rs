//! Experiment harness: regenerates every figure and quantitative claim of
//! the paper, and backs the `perf_baseline` timings.
//!
//! The paper's evaluation (Section 8) consists of Figure 4(a–d), Figure 5
//! and a set of in-text numbers; Sections 5–7 and 9 add quantitative claims
//! this harness also turns into experiments. The mapping lives in
//! `DESIGN.md`; `EXPERIMENTS.md` records paper-vs-measured for each row.
//!
//! Run everything with:
//!
//! ```text
//! cargo run --release -p bwfirst-bench --bin paper_experiments -- all
//! ```

#![forbid(unsafe_code)]

pub mod calib;
pub mod experiments;
pub mod records;
pub mod table;
pub mod trees;
