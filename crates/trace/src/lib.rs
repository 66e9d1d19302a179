//! # Synthetic workload traces for the ASD reproduction
//!
//! The paper evaluates on execution traces of SPEC2006fp, the NAS class-B
//! benchmarks, and five IBM-internal commercial workloads, collected with
//! proprietary tooling and special trace hardware. None of those traces are
//! available, so this crate provides the closest synthetic equivalent: a
//! deterministic, seeded **stream-mix generator** ([`TraceGenerator`])
//! driven by per-benchmark [`WorkloadProfile`]s.
//!
//! Adaptive Stream Detection's behaviour depends on the statistics the paper
//! itself reports for each benchmark — the distribution of *stream lengths*
//! in the DRAM read stream (Figures 2, 3, 12), the memory intensity, and
//! the presence of phase behaviour. Each profile in [`suites`] is tuned to
//! those reported statistics, so experiments over the generated traces
//! exercise the same code paths and reproduce the same qualitative shapes
//! as the paper's evaluation.
//!
//! The crate also provides [`OracleSlh`], an unbounded-resource stream
//! decomposition of any read sequence, used as the ground truth against
//! which the hardware Stream Filter's approximation is judged (Figure 16).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod dist;
mod generator;
mod oracle;
mod profile;
mod record;
pub mod suites;

pub use dist::{DiscreteDist, GapDist};
pub use generator::{thread_seed, TraceGenerator};
pub use oracle::OracleSlh;
pub use profile::{PhaseSpec, WorkloadProfile};
pub use record::{AccessKind, MemAccess, PackedAccess, LINE_BYTES, LINE_SHIFT};
