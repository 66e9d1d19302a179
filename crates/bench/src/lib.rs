//! Shared plumbing for the figure-regeneration harness.
//!
//! Every table and figure of *"Memory Prefetching Using Adaptive Stream
//! Detection"* (Hur & Lin, MICRO 2006) is regenerated by the `figures`
//! **binary** (`cargo run --release -p asd-bench --bin figures
//! [all|fig2|fig3|...|cost|smt|sched]`), which prints the full table at
//! publication-quality run lengths. The figure names live in
//! `asd_sim::figures::CATALOG`, and the binary's JSON report is written
//! through `asd_telemetry::json`, the workspace's one JSON codec.
//!
//! Timing lives elsewhere: `perfbench/run.py` times `figures all` and
//! the simulation kernel, and the crate's one bench target,
//! `telemetry_overhead`, measures what telemetry costs when it is on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use asd_sim::RunOpts;

/// Run options for the publication-size tables printed by the binary.
pub fn full_opts() -> RunOpts {
    RunOpts::default().with_accesses(60_000)
}
