//! # ASDT binary trace container
//!
//! The paper's methodology is trace-driven: workloads are captured once
//! and replayed against every memory-controller configuration. This
//! crate gives the reproduction the same capability — a versioned,
//! checksummed on-disk container (`ASDT`, version 1) for
//! [`MemAccess`](asd_trace::MemAccess) streams, so a trace can be
//! recorded once, verified, shared, and replayed bit-identically
//! instead of being regenerated in memory on every run.
//!
//! The format (see [`format`](mod@format) for the byte-level layout) stores
//! delta+varint-encoded line addresses in independently decodable
//! chunks, each guarded by an in-tree CRC32. [`TraceWriter`] and
//! [`TraceReader`] stream in bounded memory, and every way a file can
//! be malformed surfaces as a typed [`TraceIoError`] — never a panic.
//!
//! The crate sits between `trace` and `sim` in the workspace layering:
//! it knows how to serialize traces but nothing about caches,
//! controllers, or DRAM.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod capture;
mod error;
pub mod format;
mod reader;
mod writer;

pub use capture::record_profile;
pub use error::TraceIoError;
pub use format::TraceMeta;
pub use reader::TraceReader;
pub use writer::TraceWriter;
