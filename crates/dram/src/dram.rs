//! The DRAM channel model: banks, row buffers, shared data bus.

use crate::config::DramConfig;
use crate::power::{PowerAccount, PowerReport};
use crate::DramCmdKind;
use asd_core::{Clocked, NextEvent};
use asd_telemetry::{CounterId, Registry, Snapshot, TelemetryConfig, Unit};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BankState {
    /// All rows closed.
    Idle,
    /// `row` open; the bank can serve row hits immediately.
    Open { row: u64, opened_at: u64 },
}

#[derive(Debug, Clone, Copy)]
struct Bank {
    state: BankState,
    /// Bank busy with an in-flight command until this cycle.
    busy_until: u64,
}

/// Outcome of issuing a command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Cycle the data burst finishes (read data available / write done).
    pub data_at: u64,
    /// Whether the access hit the open row.
    pub row_hit: bool,
}

asd_core::counters! {
    /// Aggregate counters.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct DramStats {
        /// Read commands serviced.
        pub reads: u64 => (Commands, "DRAM read bursts"),
        /// Write commands serviced.
        pub writes: u64 => (Commands, "DRAM write bursts"),
        /// Row activations (row misses and cold rows).
        pub activations: u64 => (Events, "row activations"),
        /// Accesses that hit an already-open row.
        pub row_hits: u64 => (Events, "open-row hits"),
    }
}

/// Bank-timing decision table: every latency the hot path consults,
/// precomputed in CPU cycles at construction. [`DramConfig`] keeps the
/// human-readable DRAM-clock parameters; the multiplications by
/// `cpu_per_memclk` happen exactly once instead of on every
/// `can_issue`/`next_issue_at` probe.
#[derive(Debug, Clone, Copy)]
struct Timing {
    /// CAS latency (the row-hit access latency).
    cl: u64,
    /// Cold-bank access latency: RCD + CL.
    rcd_cl: u64,
    /// Row-conflict access latency past the tRAS wait: RP + RCD + CL.
    rp_rcd_cl: u64,
    /// Minimum row-active time.
    ras: u64,
    /// Data-burst bus occupancy.
    burst: u64,
}

impl Timing {
    fn new(cfg: &DramConfig) -> Self {
        Timing {
            cl: cfg.cl_cpu(),
            rcd_cl: cfg.rcd_cpu() + cfg.cl_cpu(),
            rp_rcd_cl: cfg.rp_cpu() + cfg.rcd_cpu() + cfg.cl_cpu(),
            ras: cfg.ras_cpu(),
            burst: cfg.burst_cpu(),
        }
    }
}

/// Precomputed line-to-(bank, row) mapping. Power-of-two geometries (the
/// default and every swept configuration) decompose into a mask and a
/// shift; anything else falls back to the division form of
/// [`DramConfig::map`].
#[derive(Debug, Clone, Copy)]
struct LineMap {
    banks: u64,
    /// `banks * row_lines` — one combined divisor for the row index.
    row_div: u64,
    pow2: bool,
    bank_mask: u64,
    row_shift: u32,
}

impl LineMap {
    fn new(cfg: &DramConfig) -> Self {
        let banks = cfg.banks as u64;
        let row_div = banks * cfg.row_lines;
        let pow2 = banks.is_power_of_two() && cfg.row_lines.is_power_of_two();
        LineMap { banks, row_div, pow2, bank_mask: banks - 1, row_shift: row_div.trailing_zeros() }
    }

    #[inline]
    fn map(&self, line: u64) -> (usize, u64) {
        if self.pow2 {
            ((line & self.bank_mask) as usize, line >> self.row_shift)
        } else {
            ((line % self.banks) as usize, line / self.row_div)
        }
    }
}

/// A single-channel, open-page DDR2 DRAM device.
///
/// The controller issues line-granularity read/write commands; the model
/// resolves them against per-bank row-buffer state and the shared data bus,
/// returning completion times and accumulating energy.
#[derive(Debug, Clone)]
pub struct Dram {
    cfg: DramConfig,
    t: Timing,
    lmap: LineMap,
    banks: Vec<Bank>,
    /// The shared data bus is busy until this cycle.
    bus_free_at: u64,
    stats: DramStats,
    power: PowerAccount,
    /// Telemetry section (`dram.` prefix); inert unless
    /// [`Dram::attach_telemetry`] enables it.
    tel: Registry,
    /// Per-bank row-conflict counters, indexed by bank.
    bank_conflicts: Vec<CounterId>,
}

impl Dram {
    /// Create a DRAM channel.
    pub fn new(cfg: DramConfig) -> Self {
        cfg.assert_valid();
        let banks = vec![Bank { state: BankState::Idle, busy_until: 0 }; cfg.banks];
        Dram {
            t: Timing::new(&cfg),
            lmap: LineMap::new(&cfg),
            cfg,
            banks,
            bus_free_at: 0,
            stats: DramStats::default(),
            power: PowerAccount::default(),
            tel: Registry::disabled(),
            bank_conflicts: Vec::new(),
        }
    }

    /// Enable telemetry per `cfg`, registering one row-conflict counter
    /// per bank (`dram.bank[i].conflicts`). Replaces the inert registry
    /// created by [`Dram::new`].
    pub fn attach_telemetry(&mut self, cfg: &TelemetryConfig) {
        let mut tel = Registry::section("dram.", cfg);
        self.bank_conflicts = (0..self.cfg.banks)
            .map(|i| {
                tel.counter(
                    &format!("bank[{i}].conflicts"),
                    Unit::Events,
                    "row-buffer conflicts: accesses that closed this bank's open row",
                )
            })
            .collect();
        self.tel = tel;
    }

    /// Freeze this channel's live-updated instruments.
    pub fn telemetry_snapshot(&self) -> Snapshot {
        self.tel.snapshot()
    }

    /// The configuration in force.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Map a cache line to `(bank, row)` using the precomputed mapper
    /// (identical to [`DramConfig::map`]). Callers that hold commands in
    /// queues cache the result and use the `*_mapped` probes below.
    #[inline]
    pub fn map_line(&self, line: u64) -> (usize, u64) {
        self.lmap.map(line)
    }

    /// Earliest cycle `>= now` at which a command for `line` could begin
    /// issue, considering its bank's business and the shared bus.
    pub fn earliest_issue(&self, line: u64, now: u64) -> u64 {
        let (bank_idx, row) = self.lmap.map(line);
        self.earliest_issue_mapped(bank_idx, row, now)
    }

    /// [`Dram::earliest_issue`] for a pre-mapped `(bank, row)`.
    pub fn earliest_issue_mapped(&self, bank_idx: usize, row: u64, now: u64) -> u64 {
        let bank = &self.banks[bank_idx];
        let start = now.max(bank.busy_until);
        // The data phase must also win the bus; compute when the burst
        // would start and push `start` so the burst lands on a free bus.
        let access = self.access_latency(bank, row, start);
        let burst_start = start + access;
        if burst_start < self.bus_free_at {
            start + (self.bus_free_at - burst_start)
        } else {
            start
        }
    }

    /// Whether a command for `line` could begin issue at exactly `now`.
    pub fn can_issue(&self, line: u64, now: u64) -> bool {
        self.earliest_issue(line, now) <= now
    }

    /// [`Dram::can_issue`] for a pre-mapped `(bank, row)`.
    #[inline]
    pub fn can_issue_mapped(&self, bank_idx: usize, row: u64, now: u64) -> bool {
        // Equivalent to `earliest_issue_mapped(..) <= now`, but the busy
        // bank — the overwhelmingly common reason for "no" on the
        // schedulers' per-cycle scans — answers with a single compare.
        let bank = &self.banks[bank_idx];
        bank.busy_until <= now && now + self.access_latency(bank, row, now) >= self.bus_free_at
    }

    /// Both scheduler probes at once for a pre-mapped `(bank, row)`:
    /// `(bank_free, can_issue)`. One bank load serves the AHB scorer's two
    /// score terms.
    #[inline]
    pub fn issue_readiness_mapped(&self, bank_idx: usize, row: u64, now: u64) -> (bool, bool) {
        let bank = &self.banks[bank_idx];
        if bank.busy_until > now {
            return (false, false);
        }
        (true, now + self.access_latency(bank, row, now) >= self.bus_free_at)
    }

    /// The exact first cycle `>= now` at which [`Dram::can_issue`] holds
    /// for `line`.
    ///
    /// Unlike [`Dram::earliest_issue`] — which answers "if I commit at
    /// `now`, when does issue begin" and over-estimates when the tRAS wait
    /// shrinks as the issue point moves later — this accounts for the
    /// access latency being a function of the issue time, so event-driven
    /// callers can jump straight to the returned cycle without skipping a
    /// legal issue slot.
    pub fn next_issue_at(&self, line: u64, now: u64) -> u64 {
        let (bank_idx, row) = self.lmap.map(line);
        self.next_issue_at_mapped(bank_idx, row, now)
    }

    /// [`Dram::next_issue_at`] for a pre-mapped `(bank, row)`.
    pub fn next_issue_at_mapped(&self, bank_idx: usize, row: u64, now: u64) -> u64 {
        let bank = &self.banks[bank_idx];
        let base = now.max(bank.busy_until);
        // Burst start as a function of issue time s is
        // `max(s, ras_ready) + tail` (row conflicts; flat until tRAS is
        // satisfied, then linear) or `s + tail` (hits and cold banks).
        let tail = match bank.state {
            BankState::Open { row: open, .. } if open == row => self.t.cl,
            BankState::Open { .. } => self.t.rp_rcd_cl,
            BankState::Idle => self.t.rcd_cl,
        };
        let burst_start = base + self.access_latency(bank, row, base);
        if burst_start < self.bus_free_at {
            // Shift so the burst lands exactly when the bus frees. In the
            // conflict case this lands after tRAS expiry (the flat region
            // is strictly below `bus_free_at` here), so `tail` is the true
            // access latency at the returned cycle.
            self.bus_free_at - tail
        } else {
            base
        }
    }

    /// Whether `row` is the currently open row of bank `bank_idx`.
    ///
    /// [`Dram::next_issue_at_mapped`] depends on the requested row *only*
    /// through this predicate (open-row hit vs conflict/cold), so callers
    /// probing many queued `(bank, row)` pairs can classify entries with
    /// this one compare and evaluate the full timing function once per
    /// bank per class.
    #[inline]
    pub fn row_hit_idx(&self, bank_idx: usize, row: u64) -> bool {
        matches!(self.banks[bank_idx].state, BankState::Open { row: open, .. } if open == row)
    }

    /// Whether `line`'s bank is currently occupied by an in-flight command
    /// (the conflict signal Adaptive Scheduling monitors).
    pub fn bank_busy(&self, line: u64, now: u64) -> bool {
        let (bank_idx, _) = self.lmap.map(line);
        self.banks[bank_idx].busy_until > now
    }

    /// [`Dram::bank_busy`] for a pre-mapped bank index.
    #[inline]
    pub fn bank_busy_idx(&self, bank_idx: usize, now: u64) -> bool {
        self.banks[bank_idx].busy_until > now
    }

    /// Pre-burst latency for an access to `row` of `bank` starting at
    /// `start`: row hit pays CL; cold bank pays RCD+CL; row conflict pays
    /// RP+RCD+CL and must also respect tRAS of the currently open row.
    fn access_latency(&self, bank: &Bank, row: u64, start: u64) -> u64 {
        match bank.state {
            BankState::Open { row: open, .. } if open == row => self.t.cl,
            BankState::Open { opened_at, .. } => {
                // Must satisfy tRAS before precharging the old row.
                let ras_ready = opened_at + self.t.ras;
                let wait = ras_ready.saturating_sub(start);
                wait + self.t.rp_rcd_cl
            }
            BankState::Idle => self.t.rcd_cl,
        }
    }

    /// Issue a command at cycle `now`. The caller must have checked
    /// [`can_issue`](Dram::can_issue); issuing early silently waits until
    /// the earliest legal cycle.
    pub fn issue(&mut self, line: u64, kind: DramCmdKind, now: u64) -> Completion {
        let start = self.earliest_issue(line, now).max(now);
        let (bank_idx, row) = self.lmap.map(line);

        // Integrate background power up to the issue point.
        let any_open = self.banks.iter().any(|b| matches!(b.state, BankState::Open { .. }));
        self.power.advance(start, any_open, &self.cfg);

        let bank = self.banks[bank_idx];
        let access = self.access_latency(&bank, row, start);
        let row_hit = matches!(bank.state, BankState::Open { row: open, .. } if open == row);
        if row_hit {
            self.stats.row_hits += 1;
        } else {
            self.stats.activations += 1;
            self.power.add_activate(&self.cfg);
            // A row conflict (not a cold activation) closed an open row.
            if matches!(bank.state, BankState::Open { .. }) {
                if let Some(&id) = self.bank_conflicts.get(bank_idx) {
                    self.tel.add(id, 1);
                }
            }
        }

        // The burst must wait for the shared bus. (`earliest_issue` aligns
        // the common case, but tRAS-dependent access latencies are not
        // linear in the issue time, so enforce serialization here too.)
        let burst_start = (start + access).max(self.bus_free_at);
        let data_at = burst_start + self.t.burst;

        let opened_at = if row_hit {
            match bank.state {
                BankState::Open { opened_at, .. } => opened_at,
                BankState::Idle => start,
            }
        } else {
            burst_start.saturating_sub(self.t.cl)
        };
        self.banks[bank_idx] =
            Bank { state: BankState::Open { row, opened_at }, busy_until: data_at };
        self.bus_free_at = data_at;

        match kind {
            DramCmdKind::Read => {
                self.stats.reads += 1;
                self.power.add_read(&self.cfg);
            }
            DramCmdKind::Write => {
                self.stats.writes += 1;
                self.power.add_write(&self.cfg);
            }
        }
        Completion { data_at, row_hit }
    }

    /// Counters.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    /// The next cycle at which timing state (a bank busy window or the
    /// shared bus) expires, if any is still pending at `now`.
    pub fn next_timing_event(&self, now: u64) -> NextEvent {
        let mut next = NextEvent::Idle;
        for b in &self.banks {
            if b.busy_until > now {
                next = next.min(NextEvent::At(b.busy_until));
            }
        }
        if self.bus_free_at > now {
            next = next.min(NextEvent::At(self.bus_free_at));
        }
        next
    }

    /// Finalize power accounting at cycle `end` and produce the report.
    pub fn power_report(&mut self, end: u64) -> PowerReport {
        let any_open = self.banks.iter().any(|b| matches!(b.state, BankState::Open { .. }));
        self.power.advance(end, any_open, &self.cfg);
        let elapsed_s = end as f64 * self.cfg.cycle_seconds();
        let energy = self.power.total_j();
        PowerReport {
            energy_j: energy,
            background_j: self.power.background_j,
            activate_j: self.power.activate_j,
            read_j: self.power.read_j,
            write_j: self.power.write_j,
            elapsed_s,
            average_power_w: if elapsed_s > 0.0 { energy / elapsed_s } else { 0.0 },
        }
    }
}

impl Clocked for Dram {
    /// The DRAM device is passive — timing state advances lazily inside
    /// [`Dram::issue`] — so stepping only reports when the busy windows
    /// expire.
    fn step(&mut self, now: u64) -> NextEvent {
        self.next_timing_event(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram() -> Dram {
        Dram::new(DramConfig::default())
    }

    #[test]
    fn cold_read_pays_rcd_cl_burst() {
        let mut d = dram();
        let c = d.issue(0, DramCmdKind::Read, 0);
        let cfg = DramConfig::default();
        assert_eq!(c.data_at, cfg.rcd_cpu() + cfg.cl_cpu() + cfg.burst_cpu());
        assert!(!c.row_hit);
    }

    #[test]
    fn row_hit_is_faster() {
        let mut d = dram();
        let first = d.issue(0, DramCmdKind::Read, 0);
        // Same bank, same row (line 0 and line 8 share bank 0? No: line 8
        // maps to bank 0 and same row because 8 % 8 == 0 and 8/8/64 == 0).
        let second = d.issue(8, DramCmdKind::Read, first.data_at);
        assert!(second.row_hit);
        let cfg = DramConfig::default();
        assert_eq!(second.data_at - first.data_at, cfg.cl_cpu() + cfg.burst_cpu());
    }

    #[test]
    fn row_conflict_pays_precharge() {
        let mut d = dram();
        let cfg = DramConfig::default();
        let first = d.issue(0, DramCmdKind::Read, 0);
        // Same bank (multiple of 8), different row: 8 * 64 = line 512.
        let conflict_line = 8 * 64;
        assert_eq!(cfg.map(conflict_line).0, 0);
        assert_ne!(cfg.map(conflict_line).1, cfg.map(0).1);
        // Issue late enough that tRAS is already satisfied.
        let start = first.data_at + cfg.ras_cpu();
        let second = d.issue(conflict_line, DramCmdKind::Read, start);
        assert!(!second.row_hit);
        assert_eq!(
            second.data_at - start,
            cfg.rp_cpu() + cfg.rcd_cpu() + cfg.cl_cpu() + cfg.burst_cpu()
        );
    }

    #[test]
    fn bank_parallelism_overlaps_but_bus_serializes() {
        let mut d = dram();
        let cfg = DramConfig::default();
        let a = d.issue(0, DramCmdKind::Read, 0); // bank 0
        let b = d.issue(1, DramCmdKind::Read, 0); // bank 1, overlapped
                                                  // The second access overlaps its activate with the first's, but its
                                                  // burst must wait for the shared bus.
        assert_eq!(b.data_at, a.data_at + cfg.burst_cpu());
    }

    #[test]
    fn busy_bank_delays_issue() {
        let mut d = dram();
        let a = d.issue(0, DramCmdKind::Read, 0);
        assert!(d.bank_busy(0, a.data_at - 1));
        assert!(!d.bank_busy(0, a.data_at));
        assert!(!d.bank_busy(1, 0), "other banks unaffected");
        let e = d.earliest_issue(8 * 64, 0); // bank 0, other row
        assert!(e >= a.data_at, "bank 0 busy until first completes");
    }

    #[test]
    fn earliest_issue_respects_bus() {
        let mut d = dram();
        let cfg = DramConfig::default();
        let a = d.issue(0, DramCmdKind::Read, 0);
        // Bank 1 is idle, but the bus is booked until a.data_at.
        let e = d.earliest_issue(1, 0);
        let burst_would_start = e + cfg.rcd_cpu() + cfg.cl_cpu();
        assert!(burst_would_start >= a.data_at);
    }

    #[test]
    fn next_issue_at_is_exact() {
        // Exhaustively cross-check against the polling definition: the
        // returned cycle is the first with can_issue == true.
        let mut d = dram();
        let lines = [0u64, 1, 8, 8 * 64, 3, 9 * 64 + 1];
        for (i, &line) in lines.iter().enumerate() {
            d.issue(line, DramCmdKind::Read, i as u64 * 37);
        }
        let now = 50;
        for probe in [0u64, 1, 2, 8, 8 * 64, 16 * 64, 5, 700] {
            let t = d.next_issue_at(probe, now);
            assert!(t >= now);
            assert!(d.can_issue(probe, t), "line {probe}: not issuable at reported {t}");
            for s in now..t {
                assert!(!d.can_issue(probe, s), "line {probe}: issuable at {s} before {t}");
            }
        }
    }

    #[test]
    fn next_issue_at_handles_ras_flat_region() {
        // Construct the corner `earliest_issue` over-estimates: a row
        // conflict whose tRAS wait shrinks while the bus is booked.
        let mut d = dram();
        d.issue(0, DramCmdKind::Read, 0); // opens row 0 of bank 0, books bus
        let conflict_line = 8 * 64; // bank 0, different row
        let now = 1;
        let t = d.next_issue_at(conflict_line, now);
        assert!(d.can_issue(conflict_line, t));
        for s in now..t {
            assert!(!d.can_issue(conflict_line, s));
        }
    }

    #[test]
    fn clocked_step_reports_busy_windows() {
        let mut d = dram();
        assert_eq!(d.next_timing_event(0), NextEvent::Idle);
        let c = d.issue(0, DramCmdKind::Read, 0);
        assert_eq!(Clocked::step(&mut d, 0), NextEvent::At(c.data_at));
        assert_eq!(Clocked::step(&mut d, c.data_at), NextEvent::Idle);
    }

    #[test]
    fn stats_count_commands() {
        let mut d = dram();
        d.issue(0, DramCmdKind::Read, 0);
        d.issue(8, DramCmdKind::Write, 1000);
        let s = d.stats();
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 1);
        assert_eq!(s.activations, 1);
        assert_eq!(s.row_hits, 1);
    }

    #[test]
    fn mapped_probes_match_line_probes() {
        // The precomputed mapper and the `*_mapped` fast paths must agree
        // exactly with the line-addressed probes, for power-of-two and
        // non-power-of-two geometries alike.
        let cfgs = [
            DramConfig::default(),
            DramConfig { banks: 6, row_lines: 48, ..DramConfig::default() },
        ];
        for cfg in cfgs {
            let mut d = Dram::new(cfg);
            for (i, line) in [0u64, 3, 17, 513, 9 * 64 + 1, 12_345].into_iter().enumerate() {
                d.issue(line, DramCmdKind::Read, i as u64 * 53);
            }
            for probe in [0u64, 1, 2, 5, 8, 100, 512, 8 * 64, 99_999] {
                assert_eq!(d.map_line(probe), cfg.map(probe));
                let (bank, row) = d.map_line(probe);
                for now in [0u64, 40, 200, 1_000] {
                    assert_eq!(
                        d.earliest_issue(probe, now),
                        d.earliest_issue_mapped(bank, row, now)
                    );
                    assert_eq!(d.can_issue(probe, now), d.can_issue_mapped(bank, row, now));
                    assert_eq!(d.next_issue_at(probe, now), d.next_issue_at_mapped(bank, row, now));
                    assert_eq!(d.bank_busy(probe, now), d.bank_busy_idx(bank, now));
                }
            }
        }
    }

    #[test]
    fn power_report_accumulates() {
        let mut d = dram();
        for i in 0..100 {
            d.issue(i * 17, DramCmdKind::Read, i * 500);
        }
        let r = d.power_report(100 * 500 + 10_000);
        assert!(r.energy_j > 0.0);
        assert!(r.background_j > 0.0);
        assert!(r.activate_j > 0.0);
        assert!(r.read_j > 0.0);
        assert_eq!(r.write_j, 0.0);
        assert!(r.average_power_w > 0.0);
        let sum = r.background_j + r.activate_j + r.read_j + r.write_j;
        assert!((sum - r.energy_j).abs() < 1e-15);
    }

    #[test]
    fn more_traffic_more_power_less_idle_energy_share() {
        let mut busy = dram();
        for i in 0..1000u64 {
            busy.issue(i * 31, DramCmdKind::Read, i * 200);
        }
        let busy_report = busy.power_report(200_000);
        let mut idle = dram();
        idle.issue(0, DramCmdKind::Read, 0);
        let idle_report = idle.power_report(200_000);
        assert!(busy_report.average_power_w > idle_report.average_power_w);
    }
}
