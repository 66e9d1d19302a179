//! Oracle stream decomposition: the "actual" Stream Length Histogram of
//! Figure 16, computed with unbounded resources.

use asd_core::{Direction, Slh};
use std::collections::BTreeMap;

/// Computes the true Stream Length Histogram of a read-line sequence using
/// unlimited tracking slots — the ground truth the paper compares the
/// 8-slot Stream Filter approximation against (Figure 16).
///
/// Semantics mirror the hardware filter exactly, minus the capacity limit:
/// a read extends a live stream if it is the next line in the stream's
/// direction; a read adjacent below a length-1 stream flips it negative;
/// anything else starts a new stream. Streams end when not extended within
/// `window` subsequent reads, or at a flush.
#[derive(Debug, Clone)]
pub struct OracleSlh {
    /// Keyed by the line that would extend the stream. A `BTreeMap` so
    /// retirement order (and with it the histogram build order) never
    /// depends on a hasher seed.
    live: BTreeMap<u64, OracleStream>,
    window: u64,
    reads: u64,
    slh: Slh,
}

#[derive(Debug, Clone, Copy)]
struct OracleStream {
    len: u32,
    dir: Direction,
    last_read_idx: u64,
}

impl OracleSlh {
    /// Create an oracle whose streams expire `window` reads after their
    /// last extension.
    pub fn new(window: u64) -> Self {
        assert!(window > 0, "window must be nonzero");
        OracleSlh { live: BTreeMap::new(), window, reads: 0, slh: Slh::new() }
    }

    /// Observe one read of `line`.
    pub fn on_read(&mut self, line: u64) {
        self.reads += 1;
        let idx = self.reads;

        // Try extension: a live stream expecting exactly this line.
        if let Some(mut s) = self.live.remove(&line) {
            if idx - s.last_read_idx <= self.window {
                s.len += 1;
                s.last_read_idx = idx;
                if let Some(next) = s.dir.step(line) {
                    self.live.insert(next, s);
                } else {
                    self.slh.record_stream(s.len);
                }
                self.sweep(idx);
                return;
            }
            // Stale entry: retire it and fall through to new-stream logic.
            self.slh.record_stream(s.len);
        }

        // Direction flip: a length-1 stream whose *descending* neighbour
        // just arrived. Its extension key is line+2 (it expected last+1,
        // where last = line + 1).
        if let Some(flip_key) = line.checked_add(2) {
            if let Some(s) = self.live.get(&flip_key).copied() {
                if s.len == 1
                    && s.dir == Direction::Positive
                    && idx - s.last_read_idx <= self.window
                {
                    self.live.remove(&flip_key);
                    let s = OracleStream { len: 2, dir: Direction::Negative, last_read_idx: idx };
                    if let Some(next) = Direction::Negative.step(line) {
                        self.live.insert(next, s);
                    } else {
                        self.slh.record_stream(s.len);
                    }
                    self.sweep(idx);
                    return;
                }
            }
        }

        // New stream, expecting line+1.
        let s = OracleStream { len: 1, dir: Direction::Positive, last_read_idx: idx };
        match Direction::Positive.step(line) {
            Some(next) => {
                // If another stream already expects this line, retire the
                // older one; one expected-line key tracks one stream.
                if let Some(old) = self.live.insert(next, s) {
                    self.slh.record_stream(old.len);
                }
            }
            None => self.slh.record_stream(1),
        }
        self.sweep(idx);
    }

    fn sweep(&mut self, idx: u64) {
        // Amortized expiry: sweep occasionally, not on every read.
        if idx % (self.window * 4) != 0 {
            return;
        }
        let window = self.window;
        let mut expired = Vec::new();
        self.live.retain(|_, s| {
            if idx - s.last_read_idx > window {
                expired.push(s.len);
                false
            } else {
                true
            }
        });
        for len in expired {
            self.slh.record_stream(len);
        }
    }

    /// Retire every live stream and return the completed histogram,
    /// resetting the oracle for the next epoch.
    pub fn flush(&mut self) -> Slh {
        for (_, s) in std::mem::take(&mut self.live) {
            self.slh.record_stream(s.len);
        }
        std::mem::take(&mut self.slh)
    }

    /// Reads observed since the last flush.
    pub fn reads(&self) -> u64 {
        self.reads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decompose(lines: &[u64]) -> Slh {
        let mut o = OracleSlh::new(1000);
        for &l in lines {
            o.on_read(l);
        }
        o.flush()
    }

    #[test]
    fn pure_ascending_run() {
        let slh = decompose(&[10, 11, 12, 13]);
        assert_eq!(slh.reads_at(4), 4);
        assert_eq!(slh.total_reads(), 4);
    }

    #[test]
    fn isolated_reads_are_singles() {
        let slh = decompose(&[10, 500, 9000]);
        assert_eq!(slh.reads_at(1), 3);
    }

    #[test]
    fn interleaved_streams_separated() {
        let slh = decompose(&[10, 900, 11, 901, 12, 902]);
        assert_eq!(slh.reads_at(3), 6, "two interleaved length-3 streams");
    }

    #[test]
    fn descending_run_detected() {
        let slh = decompose(&[50, 49, 48, 47]);
        assert_eq!(slh.reads_at(4), 4);
    }

    #[test]
    fn flush_resets() {
        let mut o = OracleSlh::new(100);
        o.on_read(5);
        let first = o.flush();
        assert_eq!(first.total_reads(), 1);
        let second = o.flush();
        assert_eq!(second.total_reads(), 0);
    }

    #[test]
    fn window_expiry_splits_streams() {
        let mut o = OracleSlh::new(4);
        o.on_read(10);
        o.on_read(11);
        // 6 unrelated reads push the stream past its window.
        for i in 0..6 {
            o.on_read(10_000 + i * 50);
        }
        o.on_read(12); // too late: starts a new stream
        let slh = o.flush();
        assert_eq!(slh.reads_at(2), 2, "the 10-11 run ended at length 2");
        assert!(slh.reads_at(3) == 0);
    }

    #[test]
    fn total_reads_conserved() {
        let lines: Vec<u64> =
            (0..500).map(|i| if i % 3 == 0 { i * 7 } else { 40_000 + i }).collect();
        let mut o = OracleSlh::new(64);
        for &l in &lines {
            o.on_read(l);
        }
        let slh = o.flush();
        assert_eq!(slh.total_reads(), lines.len() as u64);
    }
}
