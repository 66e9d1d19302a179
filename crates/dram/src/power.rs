//! Current-based DRAM power accounting.

use crate::config::DramConfig;

/// Accumulates DRAM energy as commands execute. Background energy is
/// integrated lazily: every event calls [`PowerAccount::advance`] with the
/// current cycle and the number of open banks over the elapsed interval.
#[derive(Debug, Clone, Default)]
pub(crate) struct PowerAccount {
    pub background_j: f64,
    pub activate_j: f64,
    pub read_j: f64,
    pub write_j: f64,
    last_cycle: u64,
}

impl PowerAccount {
    /// Integrate background power from the last accounted cycle to `now`.
    /// `any_open` selects active vs precharged standby for the interval
    /// (approximating the interval with its end-state, which is accurate at
    /// the command granularity the model operates at).
    pub fn advance(&mut self, now: u64, any_open: bool, cfg: &DramConfig) {
        if now <= self.last_cycle {
            return;
        }
        let dt = (now - self.last_cycle) as f64 * cfg.cycle_seconds();
        // The simulated (active) rank pays active/precharged standby; the
        // remaining populated ranks idle in precharged standby.
        let w = if any_open { cfg.power.standby_active_w } else { cfg.power.standby_precharged_w }
            + cfg.power.standby_precharged_w * (cfg.power.background_ranks - 1.0).max(0.0);
        self.background_j += w * dt;
        self.last_cycle = now;
    }

    pub fn add_activate(&mut self, cfg: &DramConfig) {
        self.activate_j += cfg.power.activate_j;
    }

    pub fn add_read(&mut self, cfg: &DramConfig) {
        self.read_j += cfg.power.read_burst_j;
    }

    pub fn add_write(&mut self, cfg: &DramConfig) {
        self.write_j += cfg.power.write_burst_j;
    }

    pub fn total_j(&self) -> f64 {
        self.background_j + self.activate_j + self.read_j + self.write_j
    }
}

asd_core::counters! {
    /// Energy and average-power summary of a simulation, as reported by
    /// [`Dram::power_report`](crate::Dram::power_report). This is the data
    /// behind the paper's Figures 8–10 (DRAM power increase and energy
    /// reduction of PMS relative to PS).
    #[derive(Debug, Clone, Copy, PartialEq, Default)]
    pub struct PowerReport {
        /// Total DRAM energy, joules.
        pub energy_j: f64 => (Joules, "total DRAM energy over the run"),
        /// Background (standby) component, joules.
        pub background_j: f64 => (Joules, "background energy"),
        /// Row-activation component, joules.
        pub activate_j: f64 => (Joules, "activate/precharge energy"),
        /// Read-burst component, joules.
        pub read_j: f64 => (Joules, "read-burst energy"),
        /// Write-burst component, joules.
        pub write_j: f64 => (Joules, "write-burst energy"),
        /// Wall-clock duration of the simulation, seconds.
        pub elapsed_s: f64 => (Seconds, "simulated seconds the energy was integrated over"),
        /// Average DRAM power over the run, watts.
        pub average_power_w: f64 => ("average_w", Watts, "average DRAM power over the run"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn background_integrates_over_time() {
        let cfg = DramConfig::default();
        let mut acc = PowerAccount::default();
        acc.advance(2_132_000_000, false, &cfg); // one second precharged
        let expected = cfg.power.standby_precharged_w * cfg.power.background_ranks;
        assert!((acc.background_j - expected).abs() < 1e-6);
    }

    #[test]
    fn active_standby_costs_more() {
        let cfg = DramConfig::default();
        let mut a = PowerAccount::default();
        let mut b = PowerAccount::default();
        a.advance(1_000_000, false, &cfg);
        b.advance(1_000_000, true, &cfg);
        assert!(b.background_j > a.background_j);
    }

    #[test]
    fn advance_is_monotonic() {
        let cfg = DramConfig::default();
        let mut acc = PowerAccount::default();
        acc.advance(1000, true, &cfg);
        let e = acc.background_j;
        acc.advance(500, true, &cfg); // stale timestamp: no-op
        assert_eq!(acc.background_j, e);
    }

    #[test]
    fn event_energy_accumulates() {
        let cfg = DramConfig::default();
        let mut acc = PowerAccount::default();
        acc.add_activate(&cfg);
        acc.add_read(&cfg);
        acc.add_write(&cfg);
        let expected = cfg.power.activate_j + cfg.power.read_burst_j + cfg.power.write_burst_j;
        assert!((acc.total_j() - expected).abs() < 1e-18);
    }
}
