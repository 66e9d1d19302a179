//! Derived metrics: the single home of the accuracy/coverage arithmetic
//! behind Figure 13, computable from raw counters or from a [`Snapshot`].
//!
//! Figure drivers, ablation tables, and examples all used to duplicate
//! these ratios; they now delegate here so the formulas cannot drift.

use crate::registry::Snapshot;

/// Canonical metric names: one constant per registry entry, shared by the
/// producers (snapshot assembly in `asd-sim`) and consumers
/// ([`PrefetchMetrics::from_snapshot`], exposition smoke checks) so the
/// two sides cannot drift apart. The catalog is documented in DESIGN.md.
pub mod names {
    /// Total simulated cycles of the run.
    pub const SIM_CYCLES: &str = "sim.cycles";

    /// Trace accesses executed by the core model.
    pub const CPU_ACCESSES: &str = "cpu.accesses";
    /// Read accesses.
    pub const CPU_READS: &str = "cpu.reads";
    /// Write accesses.
    pub const CPU_WRITES: &str = "cpu.writes";
    /// Demand reads that missed the whole hierarchy.
    pub const CPU_DEMAND_MEMORY_READS: &str = "cpu.demand_memory_reads";
    /// Processor-side prefetch reads sent to the controller.
    pub const CPU_PS_READS_SENT: &str = "cpu.ps_reads_sent";
    /// Cycles threads spent stalled on outstanding memory fills.
    pub const CPU_STALL_CYCLES: &str = "cpu.stall_cycles";

    /// L1 hits.
    pub const CACHE_L1_HITS: &str = "cache.l1.hits";
    /// L1 misses.
    pub const CACHE_L1_MISSES: &str = "cache.l1.misses";
    /// L2 hits.
    pub const CACHE_L2_HITS: &str = "cache.l2.hits";
    /// L2 misses.
    pub const CACHE_L2_MISSES: &str = "cache.l2.misses";
    /// L3 hits.
    pub const CACHE_L3_HITS: &str = "cache.l3.hits";
    /// L3 misses.
    pub const CACHE_L3_MISSES: &str = "cache.l3.misses";
    /// Dirty lines written back to memory.
    pub const CACHE_MEMORY_WRITEBACKS: &str = "cache.memory_writebacks";

    /// Read commands that entered the controller.
    pub const MC_READS: &str = "mc.reads";
    /// Write commands that entered the controller.
    pub const MC_WRITES: &str = "mc.writes";
    /// Reads satisfied by the Prefetch Buffer on arrival.
    pub const MC_PB_HITS_ON_ARRIVAL: &str = "mc.pb_hits_on_arrival";
    /// Reads satisfied by the Prefetch Buffer at the CAQ head.
    pub const MC_PB_HITS_AT_CAQ: &str = "mc.pb_hits_at_caq";
    /// Reads merged with an in-flight memory-side prefetch.
    pub const MC_MERGED_WITH_PREFETCH: &str = "mc.merged_with_prefetch";
    /// Memory-side prefetch commands issued to DRAM.
    pub const MC_PREFETCHES_ISSUED: &str = "mc.prefetches_issued";
    /// Prefetch candidates dropped for a full LPQ.
    pub const MC_LPQ_DROPPED: &str = "mc.lpq_dropped";
    /// Prefetch candidates skipped as redundant.
    pub const MC_PREFETCH_REDUNDANT: &str = "mc.prefetch_redundant";
    /// Pending LPQ prefetches squashed by the demand read.
    pub const MC_LPQ_SQUASHED: &str = "mc.lpq_squashed";
    /// Regular commands delayed by a memory-side prefetch.
    pub const MC_DELAYED_REGULAR: &str = "mc.delayed_regular";
    /// Reads rejected for a full read reorder queue.
    pub const MC_READ_REJECTS: &str = "mc.read_rejects";
    /// Writes rejected for a full write reorder queue.
    pub const MC_WRITE_REJECTS: &str = "mc.write_rejects";
    /// Prefetch Buffer inserts.
    pub const MC_PB_INSERTS: &str = "mc.pb.inserts";
    /// Prefetch Buffer lines consumed by demand reads.
    pub const MC_PB_READ_HITS: &str = "mc.pb.read_hits";
    /// Prefetch Buffer lines invalidated by writes before use.
    pub const MC_PB_WRITE_INVALIDATIONS: &str = "mc.pb.write_invalidations";
    /// Prefetch Buffer lines evicted without ever being used.
    pub const MC_PB_UNUSED_EVICTIONS: &str = "mc.pb.unused_evictions";
    /// Prefetch-induced conflicts seen by Adaptive Scheduling.
    pub const MC_SCHED_CONFLICTS: &str = "mc.sched.conflicts";
    /// Policy steps toward conservative.
    pub const MC_SCHED_TIGHTENED: &str = "mc.sched.tightened";
    /// Policy steps toward aggressive.
    pub const MC_SCHED_LOOSENED: &str = "mc.sched.loosened";
    /// CAQ occupancy distribution, sampled per controller event.
    pub const MC_CAQ_OCCUPANCY: &str = "mc.caq.occupancy";
    /// LPQ occupancy distribution.
    pub const MC_LPQ_OCCUPANCY: &str = "mc.lpq.occupancy";
    /// Read+write reorder-queue occupancy distribution.
    pub const MC_REORDER_OCCUPANCY: &str = "mc.reorder.occupancy";
    /// Per-epoch cumulative prefetches series.
    pub const MC_EPOCH_PREFETCHES: &str = "mc.epoch.prefetches";
    /// Per-epoch cumulative scheduler conflicts series.
    pub const MC_EPOCH_CONFLICTS: &str = "mc.epoch.conflicts";

    /// DRAM read bursts.
    pub const DRAM_READS: &str = "dram.reads";
    /// DRAM write bursts.
    pub const DRAM_WRITES: &str = "dram.writes";
    /// Row activations.
    pub const DRAM_ACTIVATIONS: &str = "dram.activations";
    /// Accesses that hit an open row.
    pub const DRAM_ROW_HITS: &str = "dram.row_hits";
    /// Total DRAM energy over the run.
    pub const DRAM_POWER_ENERGY_J: &str = "dram.power.energy_j";
    /// Background energy.
    pub const DRAM_POWER_BACKGROUND_J: &str = "dram.power.background_j";
    /// Activate/precharge energy.
    pub const DRAM_POWER_ACTIVATE_J: &str = "dram.power.activate_j";
    /// Read-burst energy.
    pub const DRAM_POWER_READ_J: &str = "dram.power.read_j";
    /// Write-burst energy.
    pub const DRAM_POWER_WRITE_J: &str = "dram.power.write_j";
    /// Simulated seconds the energy was integrated over.
    pub const DRAM_POWER_ELAPSED_S: &str = "dram.power.elapsed_s";
    /// Average DRAM power over the run.
    pub const DRAM_POWER_AVERAGE_W: &str = "dram.power.average_w";

    /// Reads seen by the ASD engine.
    pub const ASD_READS: &str = "asd.reads";
    /// Prefetches the ASD engine generated.
    pub const ASD_PREFETCHES: &str = "asd.prefetches";
    /// Streams observed by the stream filter.
    pub const ASD_STREAMS_OBSERVED: &str = "asd.streams_observed";
    /// Reads not tracked by any filter slot.
    pub const ASD_UNTRACKED_READS: &str = "asd.untracked_reads";
    /// Completed epochs.
    pub const ASD_EPOCHS: &str = "asd.epochs";

    /// Per-bank DRAM conflict counter name (`dram.bank[i].conflicts`).
    pub fn dram_bank_conflicts(bank: usize) -> String {
        format!("dram.bank[{bank}].conflicts")
    }

    /// Per-engine arena instrument name (`<engine>.<metric>`, with the
    /// engine's registry name normalized to identifier characters, e.g.
    /// `next-line` -> `next_line.ipc_delta_pct`). Registries carrying
    /// these live under an `arena.` section prefix.
    pub fn arena_metric(engine: &str, metric: &str) -> String {
        let engine: String =
            engine.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect();
        format!("{engine}.{metric}")
    }

    /// Daemon health-gauge names for `asd-serve` (`jobs_accepted`,
    /// `jobs_completed`, `queue_depth`, `cache_disk_hits`, ...).
    /// Registries carrying these live under a `serve.` section prefix,
    /// so the exposed family is `serve.<metric>`.
    pub fn serve_metric(metric: &str) -> String {
        let metric: String =
            metric.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect();
        metric
    }
}

/// `num / den`, with 0 for an empty denominator.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The raw counters the Figure 13 ratios are computed from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PrefetchCounts {
    /// Read commands that entered the controller.
    pub reads: u64,
    /// Write commands that entered the controller.
    pub writes: u64,
    /// Reads satisfied by the Prefetch Buffer on arrival.
    pub pb_hits_on_arrival: u64,
    /// Reads satisfied by the Prefetch Buffer at the CAQ head.
    pub pb_hits_at_caq: u64,
    /// Reads merged with an in-flight prefetch.
    pub merged_with_prefetch: u64,
    /// Prefetch Buffer lines consumed by demand reads.
    pub pb_read_hits: u64,
    /// Prefetch Buffer lines evicted unused.
    pub pb_unused_evictions: u64,
    /// Prefetch Buffer lines invalidated by writes.
    pub pb_write_invalidations: u64,
    /// Regular commands delayed by a memory-side prefetch.
    pub delayed_regular: u64,
}

/// The paper's prefetch-efficiency ratios (Figure 13), derived in exactly
/// one place. All three are fractions in `0..=1`.
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
    /// Compute the three ratios from raw counters.
    pub fn from_counts(c: &PrefetchCounts) -> Self {
        let covered = c.pb_hits_on_arrival + c.pb_hits_at_caq + c.merged_with_prefetch;
        let used = c.pb_read_hits + c.merged_with_prefetch;
        let completed = used + c.pb_unused_evictions + c.pb_write_invalidations;
        PrefetchMetrics {
            coverage: ratio(covered, c.reads),
            useful: ratio(used, completed),
            delayed: ratio(c.delayed_regular, c.reads + c.writes),
        }
    }

    /// Recover the ratios from a merged run snapshot — the proof that the
    /// Figure 13 numbers are reproducible from the registry alone.
    /// Returns `None` if any required counter is missing (metrics were
    /// off).
    pub fn from_snapshot(s: &Snapshot) -> Option<Self> {
        Some(PrefetchMetrics::from_counts(&PrefetchCounts {
            reads: s.counter(names::MC_READS)?,
            writes: s.counter(names::MC_WRITES)?,
            pb_hits_on_arrival: s.counter(names::MC_PB_HITS_ON_ARRIVAL)?,
            pb_hits_at_caq: s.counter(names::MC_PB_HITS_AT_CAQ)?,
            merged_with_prefetch: s.counter(names::MC_MERGED_WITH_PREFETCH)?,
            pb_read_hits: s.counter(names::MC_PB_READ_HITS)?,
            pb_unused_evictions: s.counter(names::MC_PB_UNUSED_EVICTIONS)?,
            pb_write_invalidations: s.counter(names::MC_PB_WRITE_INVALIDATIONS)?,
            delayed_regular: s.counter(names::MC_DELAYED_REGULAR)?,
        }))
    }

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TelemetryConfig;
    use crate::registry::{Registry, Unit};

    #[test]
    fn ratio_handles_zero_denominator() {
        assert_eq!(ratio(5, 0), 0.0);
        assert!((ratio(1, 4) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn arena_metric_names_are_identifier_safe() {
        assert_eq!(names::arena_metric("asd", "coverage_pct"), "asd.coverage_pct");
        assert_eq!(names::arena_metric("next-line", "ipc_delta_pct"), "next_line.ipc_delta_pct");
        assert_eq!(names::arena_metric("stream-table", "traffic"), "stream_table.traffic");
    }

    #[test]
    fn figure13_formulas() {
        let m = PrefetchMetrics::from_counts(&PrefetchCounts {
            reads: 100,
            writes: 100,
            pb_hits_on_arrival: 10,
            pb_hits_at_caq: 5,
            merged_with_prefetch: 5,
            pb_read_hits: 85,
            pb_unused_evictions: 6,
            pb_write_invalidations: 4,
            delayed_regular: 4,
        });
        assert!((m.coverage - 0.20).abs() < 1e-12);
        assert!((m.useful - 0.90).abs() < 1e-12);
        assert!((m.delayed - 0.02).abs() < 1e-12);
        assert!((m.coverage_pct() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn from_snapshot_roundtrips_from_counts() {
        let counts = PrefetchCounts {
            reads: 50,
            writes: 10,
            pb_hits_on_arrival: 4,
            pb_hits_at_caq: 2,
            merged_with_prefetch: 1,
            pb_read_hits: 6,
            pb_unused_evictions: 1,
            pb_write_invalidations: 0,
            delayed_regular: 3,
        };
        let mut r = Registry::section("", &TelemetryConfig::metrics_only());
        r.fill_counter(names::MC_READS, Unit::Commands, "", counts.reads);
        r.fill_counter(names::MC_WRITES, Unit::Commands, "", counts.writes);
        r.fill_counter(names::MC_PB_HITS_ON_ARRIVAL, Unit::Commands, "", counts.pb_hits_on_arrival);
        r.fill_counter(names::MC_PB_HITS_AT_CAQ, Unit::Commands, "", counts.pb_hits_at_caq);
        r.fill_counter(
            names::MC_MERGED_WITH_PREFETCH,
            Unit::Commands,
            "",
            counts.merged_with_prefetch,
        );
        r.fill_counter(names::MC_PB_READ_HITS, Unit::Lines, "", counts.pb_read_hits);
        r.fill_counter(names::MC_PB_UNUSED_EVICTIONS, Unit::Lines, "", counts.pb_unused_evictions);
        r.fill_counter(
            names::MC_PB_WRITE_INVALIDATIONS,
            Unit::Lines,
            "",
            counts.pb_write_invalidations,
        );
        r.fill_counter(names::MC_DELAYED_REGULAR, Unit::Commands, "", counts.delayed_regular);
        let snap = r.snapshot();
        assert_eq!(
            PrefetchMetrics::from_snapshot(&snap),
            Some(PrefetchMetrics::from_counts(&counts))
        );
    }

    #[test]
    fn from_snapshot_is_none_when_counters_missing() {
        assert_eq!(PrefetchMetrics::from_snapshot(&Snapshot::default()), None);
    }
}
