//! Metric names that a consumer outside their producer reads, and the
//! zero-safe ratio the derived metrics share.
//!
//! The end-of-run counters are named by their stats structs' schema
//! ([`asd_core::counters`](mod@asd_core::counters)), mirrored with
//! [`Registry::fill_counters`](crate::Registry::fill_counters) and read
//! back with [`Snapshot::read_counters`](crate::Snapshot::read_counters),
//! so they have no constant here. The Figure 13 ratios are
//! `asd_mc::McStats::prefetch_metrics`. The catalog is documented in
//! DESIGN.md.

/// Metric names read outside the component that registers them.
pub mod names {
    /// CAQ occupancy distribution, sampled per controller event. The
    /// controller registers it under its `mc.` section; the telemetry
    /// figure and its tests read it.
    pub const MC_CAQ_OCCUPANCY: &str = "mc.caq.occupancy";

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
