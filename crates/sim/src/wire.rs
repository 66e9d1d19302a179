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
//! [`RunResult::telemetry`].

use crate::system::RunResult;
use asd_core::counters::{Counters, Slot};
use asd_core::AsdStats;
use asd_traceio::format::{get_varint, put_varint};

/// Version byte opening every encoded record.
pub const WIRE_VERSION: u8 = 2;

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
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

/// Encode `r` into a self-contained byte record, or `None` when the
/// result carries a telemetry snapshot (see the module docs). The record
/// is the version byte, the two labels, an ASD-present flag, then every
/// counter of the [`Counters`] walk in walk order, exported or not.
pub fn encode_result(r: &RunResult) -> Option<Vec<u8>> {
    if r.telemetry.is_some() {
        return None;
    }
    let mut buf = Vec::with_capacity(256);
    buf.push(WIRE_VERSION);
    put_str(&mut buf, &r.benchmark);
    put_str(&mut buf, &r.config);
    buf.push(u8::from(r.asd.is_some()));
    r.for_each_counter(|_, _, slot| match slot {
        Slot::U64(v) => put_varint(&mut buf, *v),
        Slot::F64(v) => buf.extend_from_slice(&v.to_bits().to_le_bytes()),
    });
    Some(buf)
}

/// Decode a record produced by [`encode_result`]. `None` on any
/// structural problem: wrong version, truncation, trailing bytes.
pub fn decode_result(buf: &[u8]) -> Option<RunResult> {
    if *buf.first()? != WIRE_VERSION {
        return None;
    }
    let mut pos = 1usize;
    let benchmark = get_str(buf, &mut pos)?;
    let config = get_str(buf, &mut pos)?;
    let asd = match *buf.get(pos)? {
        0 => None,
        1 => Some(AsdStats::default()),
        _ => return None,
    };
    pos += 1;
    let mut r = RunResult { benchmark, config, asd, ..RunResult::default() };
    let mut complete = true;
    r.visit_counters(&mut String::new(), &mut |_, _, slot| {
        let read = match slot {
            Slot::U64(v) => get_varint(buf, &mut pos).map(|x| *v = x),
            Slot::F64(v) => get_f64(buf, &mut pos).map(|x| *v = x),
        };
        complete &= read.is_some();
    });
    (complete && pos == buf.len()).then_some(r)
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
