//! Shared plumbing for the figure-regeneration harness.
//!
//! Every table and figure of *"Memory Prefetching Using Adaptive Stream
//! Detection"* (Hur & Lin, MICRO 2006) has two regeneration paths:
//!
//! * the `figures` **binary** (`cargo run --release -p asd-bench --bin
//!   figures [all|fig2|fig3|...|cost|smt|sched]`) prints the full table at
//!   publication-quality run lengths, and
//! * the **bench** target (`cargo bench -p asd-bench`, a plain
//!   `std::time` harness — the workspace has no external dependencies)
//!   times one reduced-size regeneration of each figure, so `cargo bench`
//!   exercises the entire experimental surface.
//!
//! The figure names live in `asd_sim::figures::CATALOG`, and the bench
//! report is written through `asd_telemetry::json`, the workspace's one
//! JSON codec.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use asd_sim::RunOpts;

/// Run options for the publication-size tables printed by the binary.
pub fn full_opts() -> RunOpts {
    RunOpts::default().with_accesses(60_000)
}

/// Reduced sizes for the timing benches (each iteration still runs the
/// complete pipeline for its figure).
pub fn bench_opts() -> RunOpts {
    RunOpts::default().with_accesses(4_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opts_are_ordered() {
        assert!(full_opts().accesses > bench_opts().accesses);
    }
}
