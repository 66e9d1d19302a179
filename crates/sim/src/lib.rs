//! # Full-system ASD simulator
//!
//! Composes the substrate crates into the machine the paper evaluates
//! (§4.2): trace-driven Power5+-like cores ([`asd_cpu`]), a three-level
//! cache hierarchy ([`asd_cache`]), the extended memory controller
//! ([`asd_mc`]) and DDR2-533 DRAM with power accounting ([`asd_dram`]),
//! driven by the synthetic per-benchmark workloads of [`asd_trace`].
//!
//! The four configurations of the paper's §5.2 are first-class:
//!
//! | [`PrefetchKind`] | processor-side prefetch | memory-side (ASD) |
//! |---|---|---|
//! | `Np`  | off | off |
//! | `Ps`  | on  | off |
//! | `Ms`  | off | on  |
//! | `Pms` | on  | on  |
//!
//! [`experiment::run_benchmark`] runs one benchmark under one
//! configuration and returns a [`RunResult`] with cycles, controller and
//! DRAM statistics, and the DRAM power/energy report; the [`figures`]
//! module regenerates every table and figure of the paper from these
//! primitives. Every multi-run study — a sweep of independent
//! (benchmark, configuration) runs, one figure, or a whole figure set —
//! goes through the [`pipeline`] executor, which fans the runs across OS
//! threads with bit-deterministic, job-ordered results and collapses
//! points shared between figures into single runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ablations;
pub mod arena;
pub mod cache;
mod config;
mod error;
pub mod experiment;
pub mod figures;
mod memo;
pub mod pipeline;
pub mod report;
pub mod slh_study;
mod source;
mod system;
pub mod wire;

pub use config::{engine_by_name, engine_names, PrefetchKind, RunOpts, SystemConfig};
pub use error::SimError;
pub use source::{ResolvedTrace, TraceSource, TraceStream};
pub use system::{collect_trace, RunResult, System};
