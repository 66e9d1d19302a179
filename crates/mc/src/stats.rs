//! Memory-controller statistics: the raw counters behind Figures 11–13,
//! and the one home of the Figure 13 arithmetic.

use crate::prefetch_buffer::PrefetchBufferStats;
use asd_core::SchedulerStats;
use asd_telemetry::metrics::ratio;

asd_core::counters! {
    /// Aggregate counters of one controller over a run.
    #[derive(Debug, Clone, Copy, PartialEq, Default)]
    pub struct McStats {
        /// Read commands that entered the controller (demand + processor-side
        /// prefetch; the two are indistinguishable here, as in the paper).
        pub reads: u64 => (Commands, "read commands that entered the controller"),
        /// Write commands that entered the controller.
        pub writes: u64 => (Commands, "write commands that entered the controller"),
        /// Reads satisfied by the Prefetch Buffer on arrival (first check).
        pub pb_hits_on_arrival: u64 => (Commands, "reads satisfied by the PB on arrival"),
        /// Reads satisfied by the Prefetch Buffer at the CAQ head (second
        /// check — the data arrived while the command waited).
        pub pb_hits_at_caq: u64 => (Commands, "reads satisfied by the PB at the CAQ head"),
        /// Reads that merged with an in-flight memory-side prefetch of the
        /// same line.
        pub merged_with_prefetch: u64 => (Commands, "reads merged with an in-flight prefetch"),
        /// Memory-side prefetch commands issued to DRAM.
        pub prefetches_issued: u64 => (Commands, "memory-side prefetches issued to DRAM"),
        /// Prefetch candidates dropped because the LPQ was full.
        pub lpq_dropped: u64 => (Commands, "prefetch candidates dropped for a full LPQ"),
        /// Prefetch candidates skipped as redundant (already buffered, queued,
        /// or in flight).
        pub prefetch_redundant: u64 => (Commands, "prefetch candidates skipped as redundant"),
        /// Pending LPQ prefetches squashed because the demand read for the
        /// same line arrived first (the demand fetch makes them pointless).
        pub lpq_squashed: u64 => (Commands, "queued prefetches squashed by the demand read"),
        /// Regular commands delayed because the memory system was busy with a
        /// memory-side prefetch (each command counted at most once) — the
        /// "delayed regular commands" series of Figure 13.
        pub delayed_regular: u64 => (Commands, "regular commands delayed by a prefetch"),
        /// Reads rejected for a full read reorder queue (backpressure).
        pub read_rejects: u64 => (Commands, "reads rejected for a full reorder queue"),
        /// Writes rejected for a full write reorder queue.
        pub write_rejects: u64 => (Commands, "writes rejected for a full reorder queue"),
        /// Prefetch Buffer counters.
        pub pb: PrefetchBufferStats => (nested),
        /// Adaptive-scheduler counters.
        pub sched: SchedulerStats => (nested),
    }
}

/// The paper's prefetch-efficiency ratios (Figure 13), derived in exactly
/// one place, [`McStats::prefetch_metrics`]. All three are fractions in
/// `0..=1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrefetchMetrics {
    /// Fraction of Read commands whose data came from the prefetcher.
    pub coverage: f64,
    /// Fraction of completed prefetches whose data was consumed.
    pub useful: f64,
    /// Fraction of regular commands delayed by a prefetch.
    pub delayed: f64,
}

impl PrefetchMetrics {
    /// Coverage as a percentage.
    pub fn coverage_pct(&self) -> f64 {
        self.coverage * 100.0
    }

    /// Useful-prefetch fraction as a percentage.
    pub fn useful_pct(&self) -> f64 {
        self.useful * 100.0
    }

    /// Delayed fraction as a percentage.
    pub fn delayed_pct(&self) -> f64 {
        self.delayed * 100.0
    }
}

/// The fates of completed memory-side prefetches, under the field names
/// the layer probe in `perfbench/probe` reads through
/// [`McStats::prefetch_counts`]. Nothing in the workspace reads it: the
/// Figure 13 formula takes [`McStats`] itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PrefetchCounts {
    /// Prefetch Buffer lines consumed by demand reads.
    pub pb_read_hits: u64,
    /// Reads merged with an in-flight prefetch.
    pub merged_with_prefetch: u64,
    /// Prefetch Buffer lines evicted unused.
    pub pb_unused_evictions: u64,
    /// Prefetch Buffer lines invalidated by writes.
    pub pb_write_invalidations: u64,
}

impl McStats {
    /// Reads whose data came from the memory-side prefetcher rather than a
    /// DRAM round trip of their own.
    pub fn covered_reads(&self) -> u64 {
        self.pb_hits_on_arrival + self.pb_hits_at_caq + self.merged_with_prefetch
    }

    /// The fates of completed memory-side prefetches ([`PrefetchCounts`]).
    pub fn prefetch_counts(&self) -> PrefetchCounts {
        PrefetchCounts {
            pb_read_hits: self.pb.read_hits,
            merged_with_prefetch: self.merged_with_prefetch,
            pb_unused_evictions: self.pb.unused_evictions,
            pb_write_invalidations: self.pb.write_invalidations,
        }
    }

    /// The three Figure 13 ratios. A prefetch is *used* when a demand
    /// read consumed its buffered line or merged with it in flight, and
    /// *completed* when it was used, evicted unused or invalidated by a
    /// write.
    pub fn prefetch_metrics(&self) -> PrefetchMetrics {
        let used = self.pb.read_hits + self.merged_with_prefetch;
        let completed = used + self.pb.unused_evictions + self.pb.write_invalidations;
        PrefetchMetrics {
            coverage: ratio(self.covered_reads(), self.reads),
            useful: ratio(used, completed),
            delayed: ratio(self.delayed_regular, self.reads + self.writes),
        }
    }

    /// The paper's *coverage*: fraction of Read commands that got data from
    /// the Prefetch Buffer (19–34% in Figure 13).
    pub fn coverage(&self) -> f64 {
        self.prefetch_metrics().coverage
    }

    /// The paper's *useful prefetches*: fraction of completed memory-side
    /// prefetches whose data was consumed (82–91% in Figure 13).
    pub fn useful_prefetch_fraction(&self) -> f64 {
        self.prefetch_metrics().useful
    }

    /// Fraction of regular commands delayed by memory-side prefetches
    /// (1–3% in Figure 13).
    pub fn delayed_fraction(&self) -> f64 {
        self.prefetch_metrics().delayed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_handle_zero() {
        let s = McStats::default();
        assert_eq!(s.coverage(), 0.0);
        assert_eq!(s.useful_prefetch_fraction(), 0.0);
        assert_eq!(s.delayed_fraction(), 0.0);
    }

    #[test]
    fn coverage_counts_all_three_paths() {
        let s = McStats {
            reads: 100,
            pb_hits_on_arrival: 10,
            pb_hits_at_caq: 5,
            merged_with_prefetch: 5,
            ..McStats::default()
        };
        assert!((s.coverage() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn usefulness_counts_consumed_over_completed() {
        let s = McStats {
            merged_with_prefetch: 10,
            pb: PrefetchBufferStats {
                inserts: 100,
                read_hits: 80,
                write_invalidations: 4,
                unused_evictions: 6,
            },
            ..McStats::default()
        };
        assert!((s.useful_prefetch_fraction() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn figure13_formulas() {
        let s = McStats {
            reads: 100,
            writes: 100,
            pb_hits_on_arrival: 10,
            pb_hits_at_caq: 5,
            merged_with_prefetch: 5,
            delayed_regular: 4,
            pb: PrefetchBufferStats {
                read_hits: 85,
                unused_evictions: 6,
                write_invalidations: 4,
                ..PrefetchBufferStats::default()
            },
            ..McStats::default()
        };
        let m = s.prefetch_metrics();
        assert!((m.coverage - 0.20).abs() < 1e-12);
        assert!((m.useful - 0.90).abs() < 1e-12);
        assert!((m.delayed - 0.02).abs() < 1e-12);
        assert!((m.coverage_pct() - 20.0).abs() < 1e-9);
    }
}
