//! The full Adaptive Stream Detection engine (§3.3/§3.4): Stream Filter +
//! per-direction likelihood-table pairs + epoch machinery.

use crate::config::AsdConfig;
use crate::epoch::EpochTracker;
use crate::error::ConfigError;
use crate::lht::LhtPair;
use crate::slh::Slh;
use crate::stream_filter::{EvictedStream, StreamFilter};
use crate::Direction;

/// A line the detector recommends prefetching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchCandidate {
    /// Cache-line address to prefetch.
    pub line: u64,
    /// Direction of the triggering stream.
    pub direction: Direction,
    /// Detected length of the triggering stream (the `k` of inequality (5)).
    pub trigger_len: u32,
}

crate::counters! {
    /// Counters exposed by the detector for evaluation.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct AsdStats {
        /// Reads observed.
        pub reads: u64 => (Accesses, "reads seen by the ASD engine"),
        /// Prefetch candidates produced.
        pub prefetches: u64 => (Commands, "prefetch candidates the ASD engine generated"),
        /// Streams reported to the histograms (evictions + untracked singles).
        pub streams_observed: u64 => (Events, "streams reported to the histograms"),
        /// Reads that could not be tracked because the filter was full.
        pub untracked_reads: u64 => (Accesses, "reads not tracked by any filter slot"),
        /// Completed epochs.
        pub epochs: u64 => (Events, "completed epochs"),
    }
}

/// The Adaptive Stream Detection prefetch engine.
///
/// Feed it every DRAM Read command (as a cache-line address) via
/// [`on_read`](AsdDetector::on_read); it appends zero or more
/// [`PrefetchCandidate`]s to the supplied buffer. The engine maintains one
/// [`StreamFilter`] and one [`LhtPair`] per direction, rolls epochs after
/// every `epoch_reads` reads, and keeps the Stream Length Histogram of the
/// most recently completed epoch available via
/// [`last_epoch_slh`](AsdDetector::last_epoch_slh).
#[derive(Debug, Clone)]
pub struct AsdDetector {
    cfg: AsdConfig,
    filter: StreamFilter,
    lht: [LhtPair; 2],
    epoch: EpochTracker,
    stats: AsdStats,
    last_epoch_slh: Slh,
    scratch_evicted: Vec<EvictedStream>,
}

impl AsdDetector {
    /// Create a detector from a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration is invalid.
    pub fn new(cfg: AsdConfig) -> Result<Self, ConfigError> {
        let cfg = cfg.validate()?;
        let filter = StreamFilter::new(cfg.filter.clone())?;
        let epoch = EpochTracker::new(cfg.epoch_reads);
        Ok(AsdDetector {
            cfg,
            filter,
            lht: [LhtPair::new(), LhtPair::new()],
            epoch,
            stats: AsdStats::default(),
            last_epoch_slh: Slh::new(),
            scratch_evicted: Vec::with_capacity(16),
        })
    }

    /// The configuration this detector was built with.
    pub fn config(&self) -> &AsdConfig {
        &self.cfg
    }

    /// Observe a DRAM Read of cache line `line` at cycle `now`, appending
    /// any prefetch recommendations to `out`.
    ///
    /// This performs, in order: lifetime-based evictions, the Stream Filter
    /// update, the inequality-(5)/(6) prefetch decision against `LHTcurr`
    /// of the stream's direction, and epoch rollover.
    pub fn on_read(&mut self, line: u64, now: u64, out: &mut Vec<PrefetchCandidate>) {
        self.stats.reads += 1;
        self.expire(now);

        let obs = self.filter.observe_read(line, now);
        if !obs.tracked {
            // Filter full: no prefetch, but the SLH records a length-1 stream.
            self.stats.untracked_reads += 1;
            self.stats.streams_observed += 1;
            self.lht[obs.direction.index()].observe_stream(1);
        } else if !self.cfg.track_negative && obs.direction == Direction::Negative {
            // Negative tracking disabled: stream exists in the filter but
            // never produces prefetches or histogram entries.
        } else {
            let k = obs.stream_len as usize;
            let table = self.lht[obs.direction.index()].current();
            let degree = table.prefetch_degree(k, self.cfg.max_degree);
            let mut next = line;
            for _ in 0..degree {
                match obs.direction.step(next) {
                    Some(n) => {
                        next = n;
                        out.push(PrefetchCandidate {
                            line: n,
                            direction: obs.direction,
                            trigger_len: obs.stream_len,
                        });
                        self.stats.prefetches += 1;
                    }
                    None => break, // address space edge
                }
            }
        }

        if self.epoch.on_read() {
            self.roll_epoch();
        }
    }

    /// Evict lifetime-expired streams as of cycle `now`, reporting them to
    /// the histograms. Called automatically by [`AsdDetector::on_read`],
    /// but exposed so a host can tick the detector during long read-free
    /// gaps.
    pub fn expire(&mut self, now: u64) {
        self.scratch_evicted.clear();
        self.filter.collect_expired(now, &mut self.scratch_evicted);
        for i in 0..self.scratch_evicted.len() {
            let ev = self.scratch_evicted[i];
            self.report_stream(ev);
        }
    }

    fn report_stream(&mut self, ev: EvictedStream) {
        self.stats.streams_observed += 1;
        self.lht[ev.direction.index()].observe_stream(ev.len);
    }

    fn roll_epoch(&mut self) {
        // Flush the filter: remaining streams count toward the epoch that
        // just ended (§3.4).
        self.scratch_evicted.clear();
        self.filter.flush(&mut self.scratch_evicted);
        for i in 0..self.scratch_evicted.len() {
            let ev = self.scratch_evicted[i];
            self.report_stream(ev);
        }
        let mut slh = self.lht[0].rotate();
        slh += &self.lht[1].rotate();
        self.last_epoch_slh = slh;
        self.stats.epochs += 1;
    }

    /// The combined (both directions) Stream Length Histogram of the most
    /// recently *completed* epoch; empty before the first epoch boundary.
    pub fn last_epoch_slh(&self) -> &Slh {
        &self.last_epoch_slh
    }

    /// Histogram accumulated so far in the *current* epoch (both
    /// directions). This is the filter's finite-size approximation that
    /// Figure 16 compares against an oracle.
    pub fn pending_slh(&self) -> Slh {
        let mut slh = self.lht[0].pending().slh();
        slh += &self.lht[1].pending().slh();
        slh
    }

    /// Live stream count in the filter (diagnostics).
    pub fn live_streams(&self) -> usize {
        self.filter.live_streams()
    }

    /// Evaluation counters.
    pub fn stats(&self) -> AsdStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detector(epoch: u64) -> AsdDetector {
        AsdDetector::new(AsdConfig { epoch_reads: epoch, ..AsdConfig::default() }).unwrap()
    }

    /// Drive `n` back-to-back streams of length `len` starting well apart,
    /// with DRAM reads arriving every ~600 cycles so that completed streams
    /// age out of the 8-slot filter instead of squatting on slots.
    fn feed_streams(det: &mut AsdDetector, n: u64, len: u64, out: &mut Vec<PrefetchCandidate>) {
        for s in 0..n {
            let base = 1_000_000 + s * 1000;
            for i in 0..len {
                det.on_read(base + i, (s * len + i) * 600, out);
            }
        }
    }

    #[test]
    fn no_prefetches_in_first_epoch() {
        let mut det = detector(10_000);
        let mut out = Vec::new();
        feed_streams(&mut det, 100, 4, &mut out);
        assert!(out.is_empty(), "LHTcurr is empty during epoch 0");
    }

    #[test]
    fn learns_length_two_workload() {
        let mut det = detector(200);
        let mut out = Vec::new();
        // Epoch 0: observe length-2 streams.
        feed_streams(&mut det, 100, 2, &mut out);
        assert_eq!(det.stats().epochs, 1);
        out.clear();
        // Epoch 1: every first element should trigger exactly one prefetch;
        // second elements should not.
        for s in 0..50u64 {
            let base = 5_000_000 + s * 1000;
            let now = 1_000_000 + s * 1500;
            det.on_read(base, now, &mut out);
            let after_first = out.len();
            det.on_read(base + 1, now + 600, &mut out);
            assert_eq!(out.len(), after_first, "no prefetch after second element (k=2)");
        }
        assert_eq!(out.len(), 50, "one prefetch per stream start");
        assert!(out.iter().all(|p| p.trigger_len == 1));
    }

    #[test]
    fn singles_workload_never_prefetches() {
        let mut det = detector(100);
        let mut out = Vec::new();
        // Isolated reads only.
        for i in 0..500u64 {
            det.on_read(i * 777 + 10_000_000, i, &mut out);
        }
        assert!(out.is_empty());
    }

    #[test]
    fn negative_streams_prefetch_downward() {
        let mut det = detector(150);
        let mut out = Vec::new();
        // Train on descending triples. Direction is only known from a
        // stream's second element onward, so the shortest stream that can
        // produce a negative-direction prefetch (at k = 2) has length 3.
        for s in 0..100u64 {
            let base = 1_000_000 + s * 1000;
            det.on_read(base, s * 1800, &mut out);
            det.on_read(base - 1, s * 1800 + 600, &mut out);
            det.on_read(base - 2, s * 1800 + 1200, &mut out);
        }
        out.clear();
        let base = 99_000_000u64;
        det.on_read(base, 900_000, &mut out);
        det.on_read(base - 1, 900_600, &mut out);
        let down: Vec<_> = out.iter().filter(|p| p.direction == Direction::Negative).collect();
        assert!(!down.is_empty(), "learned descending locality");
        assert!(down.iter().all(|p| p.line < base));
    }

    #[test]
    fn epoch_slh_reflects_workload() {
        let mut det = detector(200);
        let mut out = Vec::new();
        feed_streams(&mut det, 100, 2, &mut out);
        let slh = det.last_epoch_slh();
        assert!(slh.fraction_at(2) > 0.9, "length-2 dominates: {slh}");
    }

    #[test]
    fn untracked_reads_counted_as_singles() {
        let cfg = AsdConfig::default().with_filter_slots(1).with_epoch_reads(64);
        let mut det = AsdDetector::new(cfg).unwrap();
        let mut out = Vec::new();
        for i in 0..64u64 {
            det.on_read(i * 999 + 5_000_000, 0, &mut out);
        }
        assert!(det.stats().untracked_reads > 0);
        let slh = det.last_epoch_slh();
        assert!(slh.fraction_at(1) > 0.99);
    }

    #[test]
    fn multi_line_degree_for_long_stream_workload() {
        let cfg = AsdConfig { max_degree: 4, epoch_reads: 400, ..AsdConfig::default() };
        let mut det = AsdDetector::new(cfg).unwrap();
        let mut out = Vec::new();
        feed_streams(&mut det, 100, 4, &mut out);
        out.clear();
        det.on_read(77_000_000, 10_000_000, &mut out);
        // All reads were in length-4 streams: from k=1, inequality (6)
        // allows prefetching 3 lines ahead.
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].line, 77_000_001);
        assert_eq!(out[2].line, 77_000_003);
    }

    #[test]
    fn stats_accumulate() {
        let mut det = detector(50);
        let mut out = Vec::new();
        feed_streams(&mut det, 50, 2, &mut out);
        let st = det.stats();
        assert_eq!(st.reads, 100);
        assert_eq!(st.epochs, 2);
        assert!(st.streams_observed >= 50);
    }

    #[test]
    fn invalid_config_rejected() {
        assert!(AsdDetector::new(AsdConfig { epoch_reads: 0, ..AsdConfig::default() }).is_err());
    }
}
