//! # Sim-as-a-service: the `asd-serve` daemon
//!
//! A long-lived sweep server over plain `std::net` TCP — zero external
//! dependencies, like the rest of the workspace. Clients speak a
//! length-prefixed newline-JSON frame protocol ([`proto`]) to submit
//! sweep / figure / arena jobs, poll or stream their progress, fetch
//! results, and manage an ASDT trace corpus ([`corpus`]). Results are
//! **bit-identical** to running the equivalent CLI drivers directly: the
//! daemon and the client-side reference harness
//! ([`client::reference_doc`]) build a sweep's job list through the
//! single [`proto::build_sweep`] constructor, run it on the same
//! `asd_sim::pipeline` executor, and render documents through
//! [`proto::sweep_doc`].
//!
//! Two layers make the daemon restart-proof and bounded:
//!
//! - the **job table** ([`jobs::JobTable`]): a bounded FIFO with typed
//!   `Busy` rejection, cancellation, progress watching, and a
//!   protocol-driven drain for graceful shutdown;
//! - the **persistent run cache**: the daemon runs every job under one
//!   `asd_sim::RunContext`, built at bind time, whose run cache keeps
//!   CRC-checked content-addressed records under `<root>/cache`, so a
//!   restarted daemon serves previously computed sweeps with zero new
//!   simulation runs. The daemon reads no environment variable.
//!
//! Every failure mode is a typed [`ServeError`] with a stable `kind`
//! string that survives the wire ([`proto::err_obj`] /
//! [`proto::err_of_value`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod client;
pub mod corpus;
pub mod error;
pub mod jobs;
pub mod proto;
pub mod server;

pub use client::{load_bench, BenchOpts, BenchReport, Client};
pub use error::ServeError;
pub use jobs::{JobSnapshot, JobState, JobTable};
pub use proto::JobSpec;
pub use server::{Server, ServerConfig};
