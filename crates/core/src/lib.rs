//! # Adaptive Stream Detection (ASD)
//!
//! A faithful, simulator-independent implementation of the prefetching
//! technique from *"Memory Prefetching Using Adaptive Stream Detection"*,
//! Ibrahim Hur and Calvin Lin, MICRO 2006.
//!
//! The paper's key idea: a stream prefetcher can exploit even *very short*
//! streams (down to two consecutive cache lines) if it knows, probabilistically,
//! when a stream is likely to continue. ASD captures the workload's spatial
//! locality in a **Stream Length Histogram** ([`Slh`]) computed once per
//! *epoch* (a fixed number of Read commands), and consults it on every read
//! to decide whether the next line(s) should be prefetched.
//!
//! ## Components
//!
//! * [`StreamFilter`] — a small table (8 slots in the paper) that tracks live
//!   read streams: last address, length, direction, and lifetime.
//! * [`LikelihoodTable`] — the `lht()` function of the paper: `lht(i)` is the
//!   number of reads belonging to streams of length `i` *or longer*. Two
//!   tables ([`LhtPair`]) implement the epoch double-buffering scheme
//!   (`LHTcurr` / `LHTnext`).
//! * [`Slh`] — the Stream Length Histogram derived from a likelihood table;
//!   bar `i` is the number of reads in streams of *exactly* length `i`.
//! * [`AsdDetector`] — ties the above together per the paper's §3.3/§3.4
//!   organization and answers, for every observed read, *which lines to
//!   prefetch* (possibly none) using inequalities (5) and (6).
//! * [`AdaptiveScheduler`] — the paper's §3.5 Adaptive Scheduling: selects
//!   among five prioritization policies for the Low Priority Queue based on
//!   the measured frequency of prefetch-induced conflicts.
//! * [`counters`](mod@counters) — the counter schema: [`counters!`] declares each
//!   end-of-run stats struct once, with the walk its readers share.
//! * [`cost`] — analytic hardware cost model (bit counts) backing the paper's
//!   §5.1 hardware cost discussion.
//!
//! ## Quick example
//!
//! ```
//! use asd_core::{AsdConfig, AsdDetector};
//!
//! let mut det = AsdDetector::new(AsdConfig::default()).unwrap();
//! // Feed the detector cache-line addresses of DRAM read commands,
//! // each stamped with the (monotonic) cycle it was observed at.
//! let mut issued = Vec::new();
//! let mut now = 0u64;
//! for epoch in 0..2u64 {
//!     for base in 0..1000u64 {
//!         // Workload made of back-to-back streams of length 2.
//!         let line = 1_000_000 + epoch * 500_000 + base * 64;
//!         det.on_read(line, now, &mut issued);
//!         det.on_read(line + 1, now + 600, &mut issued);
//!         now += 1200;
//!     }
//! }
//! // After the first epoch the detector has learned that streams have
//! // length 2, so it prefetches the second line of each stream.
//! assert!(!issued.is_empty());
//! ```
//!
//! All state is explicit and deterministic; no global state, no interior
//! mutability, no allocation on the hot path beyond the caller-supplied
//! output buffer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod calendar;
pub mod clock;
mod config;
pub mod cost;
pub mod counters;
mod detector;
mod epoch;
mod error;
mod lht;
pub mod rng;
mod scheduler;
mod slh;
mod stream_filter;

pub use calendar::CalendarQueue;
pub use clock::{Clocked, NextEvent};
pub use config::AsdConfig;
pub use detector::{AsdDetector, AsdStats, PrefetchCandidate};
pub use epoch::EpochTracker;
pub use error::ConfigError;
pub use lht::{LhtPair, LikelihoodTable};
pub use scheduler::{AdaptiveScheduler, LpqPolicy, QueueView, SchedulerStats};
pub use slh::Slh;
pub use stream_filter::{EvictedStream, StreamFilter, StreamFilterConfig, StreamObservation};

/// Maximum stream length tracked by the histogram machinery (`Lm` in the
/// paper). Reads belonging to streams of length 16 or more are attributed to
/// the final bin, exactly as in the paper's Figure 2.
pub const MAX_STREAM_LEN: usize = 16;

/// Direction of a detected read stream.
///
/// The paper tracks increasing (`Positive`) and decreasing (`Negative`)
/// streams separately, with one Stream Length Histogram per direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Direction {
    /// Stream of consecutively *increasing* cache-line addresses.
    #[default]
    Positive,
    /// Stream of consecutively *decreasing* cache-line addresses.
    Negative,
}

impl Direction {
    /// Stable index (0 or 1) for direction-indexed tables.
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            Direction::Positive => 0,
            Direction::Negative => 1,
        }
    }

    /// The line address adjacent to `line` in this direction, if it exists.
    #[inline]
    pub fn step(self, line: u64) -> Option<u64> {
        match self {
            Direction::Positive => line.checked_add(1),
            Direction::Negative => line.checked_sub(1),
        }
    }

    /// The opposite direction.
    #[inline]
    pub const fn opposite(self) -> Direction {
        match self {
            Direction::Positive => Direction::Negative,
            Direction::Negative => Direction::Positive,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_index_is_stable() {
        assert_eq!(Direction::Positive.index(), 0);
        assert_eq!(Direction::Negative.index(), 1);
    }

    #[test]
    fn direction_step() {
        assert_eq!(Direction::Positive.step(10), Some(11));
        assert_eq!(Direction::Negative.step(10), Some(9));
        assert_eq!(Direction::Negative.step(0), None);
        assert_eq!(Direction::Positive.step(u64::MAX), None);
    }

    #[test]
    fn direction_opposite() {
        assert_eq!(Direction::Positive.opposite(), Direction::Negative);
        assert_eq!(Direction::Negative.opposite(), Direction::Positive);
    }

    #[test]
    fn default_direction_is_positive() {
        assert_eq!(Direction::default(), Direction::Positive);
    }
}
