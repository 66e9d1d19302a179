//! # Power5+-style cache hierarchy model
//!
//! Three-level write-back, write-allocate hierarchy matching the paper's
//! simulated machine (§4.2): a 32 KB 4-way L1D, a 1920 KB (3x640 KB) 10-way
//! shared L2 with 128 B lines, and a 36 MB off-chip L3.
//!
//! The model is *timing-stateless*: [`Hierarchy::access`] classifies an
//! access (which level hits) and performs the fills/evictions; the CPU model
//! owns all notion of time and outstanding misses. Dirty lines displaced
//! out of the last level surface as writeback commands for the memory
//! controller.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod hierarchy;
mod set_assoc;

pub use hierarchy::{
    AccessOutcome, Hierarchy, HierarchyConfig, HierarchyStats, HitLevel, Writebacks,
};
pub use set_assoc::{CacheConfig, CacheStats, SetAssocCache};
