//! Compact binary codec for [`RunResult`]: the payload format of the
//! persistent disk run-cache tier ([`crate::cache`]).
//!
//! Counters ride as LEB128 varints ([`asd_traceio::format`]'s codec —
//! small results stay small), floats as their exact IEEE-754 bit
//! patterns (little-endian `u64`), strings length-prefixed. A leading
//! version byte gates decoding, so a format change invalidates old disk
//! records instead of misreading them. Decoding is total: any truncated,
//! corrupt, or over-long input returns `None` — the disk tier treats
//! that as "recompute", never as a panic.
//!
//! **Scope.** Results carrying a telemetry
//! [`Snapshot`](asd_telemetry::Snapshot) are *not*
//! encodable ([`encode_result`] returns `None`): snapshots hold
//! arbitrary instrument trees and event rings that only matter to the
//! process that recorded them. Sweeps run telemetry-off by default, so
//! the disk tier covers every cacheable job the figure pipeline and the
//! daemon actually run; instrumented runs simply stay in the in-memory
//! tier. `telemetry` here names the run-observability snapshot of
//! [`RunResult::telemetry`], not the `serve.*` daemon gauges.

use crate::system::RunResult;
use asd_cache::CacheStats;
use asd_core::{AsdStats, SchedulerStats};
use asd_cpu::CoreStats;
use asd_dram::{DramStats, PowerReport};
use asd_mc::McStats;
use asd_traceio::format::{get_varint, put_varint};

/// Version byte opening every encoded record.
pub const WIRE_VERSION: u8 = 1;

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    put_varint(buf, v);
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

fn get_u64(buf: &[u8], pos: &mut usize) -> Option<u64> {
    get_varint(buf, pos)
}

fn get_f64(buf: &[u8], pos: &mut usize) -> Option<f64> {
    let end = pos.checked_add(8)?;
    let bytes: [u8; 8] = buf.get(*pos..end)?.try_into().ok()?;
    *pos = end;
    Some(f64::from_bits(u64::from_le_bytes(bytes)))
}

fn get_str(buf: &[u8], pos: &mut usize) -> Option<String> {
    let len = usize::try_from(get_varint(buf, pos)?).ok()?;
    let end = pos.checked_add(len)?;
    let s = std::str::from_utf8(buf.get(*pos..end)?).ok()?;
    *pos = end;
    Some(s.to_string())
}

fn put_cache_level(buf: &mut Vec<u8>, s: &CacheStats) {
    for v in [s.hits, s.misses, s.evictions, s.dirty_evictions] {
        put_u64(buf, v);
    }
}

fn get_cache_level(buf: &[u8], pos: &mut usize) -> Option<CacheStats> {
    Some(CacheStats {
        hits: get_u64(buf, pos)?,
        misses: get_u64(buf, pos)?,
        evictions: get_u64(buf, pos)?,
        dirty_evictions: get_u64(buf, pos)?,
    })
}

fn put_core(buf: &mut Vec<u8>, s: &CoreStats) {
    for v in [
        s.accesses,
        s.reads,
        s.writes,
        s.demand_memory_reads,
        s.ps_reads_sent,
        s.stall_cycles,
        s.cache.memory_writebacks,
    ] {
        put_u64(buf, v);
    }
    put_cache_level(buf, &s.cache.l1);
    put_cache_level(buf, &s.cache.l2);
    put_cache_level(buf, &s.cache.l3);
}

fn get_core(buf: &[u8], pos: &mut usize) -> Option<CoreStats> {
    let mut s = CoreStats {
        accesses: get_u64(buf, pos)?,
        reads: get_u64(buf, pos)?,
        writes: get_u64(buf, pos)?,
        demand_memory_reads: get_u64(buf, pos)?,
        ps_reads_sent: get_u64(buf, pos)?,
        stall_cycles: get_u64(buf, pos)?,
        ..CoreStats::default()
    };
    s.cache.memory_writebacks = get_u64(buf, pos)?;
    s.cache.l1 = get_cache_level(buf, pos)?;
    s.cache.l2 = get_cache_level(buf, pos)?;
    s.cache.l3 = get_cache_level(buf, pos)?;
    Some(s)
}

fn put_mc(buf: &mut Vec<u8>, s: &McStats) {
    for v in [
        s.reads,
        s.writes,
        s.pb_hits_on_arrival,
        s.pb_hits_at_caq,
        s.merged_with_prefetch,
        s.prefetches_issued,
        s.lpq_dropped,
        s.prefetch_redundant,
        s.lpq_squashed,
        s.delayed_regular,
        s.read_rejects,
        s.write_rejects,
        s.pb.inserts,
        s.pb.read_hits,
        s.pb.write_invalidations,
        s.pb.unused_evictions,
        s.sched.conflicts,
        s.sched.tightened,
        s.sched.loosened,
    ] {
        put_u64(buf, v);
    }
}

fn get_mc(buf: &[u8], pos: &mut usize) -> Option<McStats> {
    let mut s = McStats {
        reads: get_u64(buf, pos)?,
        writes: get_u64(buf, pos)?,
        pb_hits_on_arrival: get_u64(buf, pos)?,
        pb_hits_at_caq: get_u64(buf, pos)?,
        merged_with_prefetch: get_u64(buf, pos)?,
        prefetches_issued: get_u64(buf, pos)?,
        lpq_dropped: get_u64(buf, pos)?,
        prefetch_redundant: get_u64(buf, pos)?,
        lpq_squashed: get_u64(buf, pos)?,
        delayed_regular: get_u64(buf, pos)?,
        read_rejects: get_u64(buf, pos)?,
        write_rejects: get_u64(buf, pos)?,
        ..McStats::default()
    };
    s.pb.inserts = get_u64(buf, pos)?;
    s.pb.read_hits = get_u64(buf, pos)?;
    s.pb.write_invalidations = get_u64(buf, pos)?;
    s.pb.unused_evictions = get_u64(buf, pos)?;
    s.sched = SchedulerStats {
        conflicts: get_u64(buf, pos)?,
        tightened: get_u64(buf, pos)?,
        loosened: get_u64(buf, pos)?,
    };
    Some(s)
}

/// Encode `r` into a self-contained byte record, or `None` when the
/// result carries a telemetry snapshot (see the module docs).
pub fn encode_result(r: &RunResult) -> Option<Vec<u8>> {
    if r.telemetry.is_some() {
        return None;
    }
    let mut buf = Vec::with_capacity(256);
    buf.push(WIRE_VERSION);
    put_str(&mut buf, &r.benchmark);
    put_str(&mut buf, &r.config);
    put_u64(&mut buf, r.cycles);
    put_core(&mut buf, &r.core);
    put_mc(&mut buf, &r.mc);
    for v in [r.dram.reads, r.dram.writes, r.dram.activations, r.dram.row_hits] {
        put_u64(&mut buf, v);
    }
    for v in [
        r.power.energy_j,
        r.power.background_j,
        r.power.activate_j,
        r.power.read_j,
        r.power.write_j,
        r.power.elapsed_s,
        r.power.average_power_w,
    ] {
        put_f64(&mut buf, v);
    }
    match &r.asd {
        None => buf.push(0),
        Some(a) => {
            buf.push(1);
            for v in [a.reads, a.prefetches, a.streams_observed, a.untracked_reads, a.epochs] {
                put_u64(&mut buf, v);
            }
        }
    }
    Some(buf)
}

/// Decode a record produced by [`encode_result`]. `None` on any
/// structural problem: wrong version, truncation, trailing bytes.
pub fn decode_result(buf: &[u8]) -> Option<RunResult> {
    let mut pos = 0usize;
    if *buf.first()? != WIRE_VERSION {
        return None;
    }
    pos += 1;
    let benchmark = get_str(buf, &mut pos)?;
    let config = get_str(buf, &mut pos)?;
    let cycles = get_u64(buf, &mut pos)?;
    let core = get_core(buf, &mut pos)?;
    let mc = get_mc(buf, &mut pos)?;
    let dram = DramStats {
        reads: get_u64(buf, &mut pos)?,
        writes: get_u64(buf, &mut pos)?,
        activations: get_u64(buf, &mut pos)?,
        row_hits: get_u64(buf, &mut pos)?,
    };
    let power = PowerReport {
        energy_j: get_f64(buf, &mut pos)?,
        background_j: get_f64(buf, &mut pos)?,
        activate_j: get_f64(buf, &mut pos)?,
        read_j: get_f64(buf, &mut pos)?,
        write_j: get_f64(buf, &mut pos)?,
        elapsed_s: get_f64(buf, &mut pos)?,
        average_power_w: get_f64(buf, &mut pos)?,
    };
    let asd = match *buf.get(pos)? {
        0 => {
            pos += 1;
            None
        }
        1 => {
            pos += 1;
            Some(AsdStats {
                reads: get_u64(buf, &mut pos)?,
                prefetches: get_u64(buf, &mut pos)?,
                streams_observed: get_u64(buf, &mut pos)?,
                untracked_reads: get_u64(buf, &mut pos)?,
                epochs: get_u64(buf, &mut pos)?,
            })
        }
        _ => return None,
    };
    if pos != buf.len() {
        return None;
    }
    Some(RunResult { benchmark, config, cycles, core, mc, dram, power, asd, telemetry: None })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PrefetchKind, RunOpts, SystemConfig};
    use crate::system::System;

    fn real_result() -> RunResult {
        let profile = asd_trace::suites::by_name("milc").expect("suite profile");
        let cfg = SystemConfig::for_kind(PrefetchKind::Pms, 1);
        let opts = RunOpts::quick();
        System::new(cfg, &profile, &opts).expect("valid config").with_label("PMS").run()
    }

    #[test]
    fn roundtrip_is_lossless() {
        let r = real_result();
        let bytes = encode_result(&r).expect("telemetry-free result encodes");
        let back = decode_result(&bytes).expect("decodes");
        // RunResult has no PartialEq; the Debug render covers every field.
        assert_eq!(format!("{back:?}"), format!("{r:?}"));
    }

    #[test]
    fn truncation_never_panics_and_never_decodes() {
        let r = real_result();
        let bytes = encode_result(&r).expect("encodes");
        for cut in 0..bytes.len() {
            assert!(decode_result(&bytes[..cut]).is_none(), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let r = real_result();
        let mut bytes = encode_result(&r).expect("encodes");
        bytes.push(0);
        assert!(decode_result(&bytes).is_none());
    }

    #[test]
    fn wrong_version_is_rejected() {
        let r = real_result();
        let mut bytes = encode_result(&r).expect("encodes");
        bytes[0] = WIRE_VERSION + 1;
        assert!(decode_result(&bytes).is_none());
    }

    #[test]
    fn snapshot_carrying_results_do_not_encode() {
        let mut r = real_result();
        r.telemetry = Some(asd_telemetry::Snapshot::default());
        assert!(encode_result(&r).is_none());
    }

    #[test]
    fn asd_stats_roundtrip() {
        let mut r = real_result();
        assert!(r.asd.is_some(), "PMS run reports detector stats");
        let back = decode_result(&encode_result(&r).expect("encodes")).expect("decodes");
        assert_eq!(back.asd, r.asd);
        r.asd = None;
        let back = decode_result(&encode_result(&r).expect("encodes")).expect("decodes");
        assert_eq!(back.asd, None);
    }
}
