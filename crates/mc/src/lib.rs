//! # Power5+-style memory controller with ASD memory-side prefetching
//!
//! Models the controller of the paper's Figure 4: Read/Write reorder
//! queues feeding a Centralized Arbiter Queue (CAQ) through a configurable
//! scheduler (in-order, memoryless, or Adaptive History-Based), extended
//! with the paper's additions —
//!
//! * a **Stream Filter + Likelihood Tables** (the [`asd_core`] detector)
//!   observing every incoming Read,
//! * a **Prefetch Generator** that places ASD-recommended prefetches in a
//!   **Low Priority Queue (LPQ)**,
//! * a **Final Scheduler** that arbitrates CAQ vs. LPQ under one of five
//!   prioritization policies, fixed or adaptively selected
//!   ([`asd_core::AdaptiveScheduler`]), and
//! * a small **Prefetch Buffer** holding prefetched lines, checked both
//!   when a Read arrives and again when it reaches the CAQ head.
//!
//! Alternative memory-side engines (next-line, Power5-style sequential)
//! are provided for the paper's Figure 11 head-to-head comparison.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod config;
mod controller;
mod engine;
mod prefetch_buffer;
mod queues;
mod registry;
mod sched;
mod stats;

pub use config::{EngineKind, LpqMode, McConfig, SchedulerKind};
pub use controller::{MemoryController, ReadCompletion, ReadResponse};
pub use engine::{AsdEngine, NextLineEngine, NoPrefetch, P5StyleEngine, PrefetchEngine};
pub use prefetch_buffer::{PrefetchBuffer, PrefetchBufferStats};
pub use queues::{BoundedFifo, CmdOrigin, QueuedCommand, ReorderQueue};
pub use registry::{build_engine, custom_engine, EngineFactory};
pub use sched::{CommandPicker, PickedFrom};
pub use stats::{McStats, PrefetchCounts, PrefetchMetrics};
