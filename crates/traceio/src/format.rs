//! The ASDT1 on-disk format: constants, CRC32, varints, and the
//! per-record codec shared by [`TraceWriter`](crate::TraceWriter) and
//! [`TraceReader`](crate::TraceReader).
//!
//! ```text
//! file    := header chunk* end
//! header  := magic("ASDT") version:u16 line_shift:u8 threads:u8
//!            seed:u64 accesses:u64 name_len:u16 name:bytes
//! chunk   := tag(0xC1) count:u32 payload_len:u32 crc32:u32 payload
//! end     := tag(0xE0) total:u64
//! record  := tag:u8 zigzag_varint(line_delta)
//!            [offset:u8] [thread:u8] [gap:varint]
//! ```
//!
//! All fixed-width integers are little-endian. Record tags pack the
//! access kind (bit 0), an "offset byte follows" flag (bit 1, set when
//! the address is not line-aligned), a "thread byte follows" flag
//! (bit 2, set for nonzero hardware threads), and a 5-bit inline gap
//! (values 0–30; 31 escapes to a trailing varint). Line numbers are
//! encoded as zigzag varints of the delta from the previous record;
//! every chunk resets the delta base to zero, so chunks decode
//! independently.

use asd_trace::{AccessKind, MemAccess};

/// The four magic bytes opening every ASDT file.
pub const MAGIC: [u8; 4] = *b"ASDT";

/// Container version this build writes and reads.
pub const VERSION: u16 = 1;

/// Chunk tag: a data chunk follows.
pub const TAG_CHUNK: u8 = 0xC1;

/// Chunk tag: the end marker (total record count) follows.
pub const TAG_END: u8 = 0xE0;

/// Records per chunk the writer flushes at.
pub const CHUNK_RECORDS: usize = 4096;

/// Upper bound on a chunk's declared record count (sanity check against
/// corrupt headers; the writer never exceeds [`CHUNK_RECORDS`]).
pub const MAX_CHUNK_RECORDS: u32 = 65_536;

/// Upper bound on a chunk's declared payload length in bytes (a record
/// encodes to at most 21 bytes, so this is generous).
pub const MAX_CHUNK_PAYLOAD: u32 = 1 << 22;

/// Longest profile name the header accepts.
pub const MAX_NAME_LEN: usize = 1024;

/// Gap values below this ride inline in the record tag; larger gaps
/// escape to a trailing varint.
pub const GAP_ESCAPE: u32 = 31;

/// Container metadata: everything the ASDT header records about a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceMeta {
    /// Workload profile name the trace was generated from (or a free-form
    /// label for externally captured traces).
    pub profile: String,
    /// Base seed the trace was generated with (0 for external captures).
    pub seed: u64,
    /// log2 of the cache-line size the addresses are expressed against.
    pub line_shift: u8,
    /// Hardware-thread contexts present in the trace (≥ 1).
    pub threads: u8,
    /// Total records in the file, across all threads.
    pub accesses: u64,
}

impl TraceMeta {
    /// Metadata for a generated trace: `accesses` records per thread over
    /// `threads` contexts, at the workspace's 128-byte line size.
    pub fn generated(profile: &str, seed: u64, threads: u8, accesses_per_thread: u64) -> Self {
        TraceMeta {
            profile: profile.to_string(),
            seed,
            line_shift: asd_trace::LINE_SHIFT as u8,
            threads: threads.max(1),
            accesses: accesses_per_thread.saturating_mul(u64::from(threads.max(1))),
        }
    }

    /// Records per thread context (the header count divided evenly).
    pub fn accesses_per_thread(&self) -> u64 {
        self.accesses / u64::from(self.threads.max(1))
    }
}

/// Slicing-by-8 lookup tables: `CRC_TABLES[0]` is the classic byte-wise
/// table, and `CRC_TABLES[k][n]` is the CRC state after byte `n` is
/// followed by `k` zero bytes, so one step folds eight input bytes with
/// eight independent lookups instead of eight dependent ones.
const fn make_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut n = 0usize;
    while n < 256 {
        let mut c = n as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xedb8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][n] = c;
        n += 1;
    }
    let mut t = 1usize;
    while t < 8 {
        let mut n = 0usize;
        while n < 256 {
            let c = tables[t - 1][n];
            tables[t][n] = (c >> 8) ^ tables[0][(c & 0xff) as usize];
            n += 1;
        }
        t += 1;
    }
    tables
}

const CRC_TABLES: [[u32; 256]; 8] = make_crc_tables();

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) of `bytes` —
/// the same function `zlib`'s `crc32` computes, hand-rolled so the
/// workspace stays dependency-free. Eight bytes per step (slicing-by-8),
/// then the byte-wise loop for the tail.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xffff_ffffu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][usize::from((c as u8) ^ b)] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

/// Append an LEB128 varint.
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v as u8) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Read an LEB128 varint from `buf[*pos..]`, advancing `pos`. `None` on
/// overrun or an overlong (> 10 byte) encoding.
pub fn get_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *buf.get(*pos)?;
        *pos += 1;
        if shift >= 64 {
            return None;
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

/// Map a signed delta onto an unsigned varint-friendly value.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Encode one record onto `buf`, updating the delta base `prev_line`.
/// `line_shift` is the container's line-size exponent (7 for 128-byte
/// lines); addresses keep their sub-line offset in a dedicated byte, so
/// the encoding is lossless for any `MemAccess`.
pub fn encode_record(buf: &mut Vec<u8>, prev_line: &mut u64, line_shift: u8, a: &MemAccess) {
    let line = a.addr >> line_shift;
    let offset = (a.addr & ((1u64 << line_shift) - 1)) as u8;
    let mut tag = 0u8;
    if a.kind == AccessKind::Write {
        tag |= 0x01;
    }
    if offset != 0 {
        tag |= 0x02;
    }
    if a.thread != 0 {
        tag |= 0x04;
    }
    let inline_gap = if a.gap < GAP_ESCAPE { a.gap as u8 } else { GAP_ESCAPE as u8 };
    tag |= inline_gap << 3;
    buf.push(tag);
    let delta = (line as i64).wrapping_sub(*prev_line as i64);
    put_varint(buf, zigzag(delta));
    if offset != 0 {
        buf.push(offset);
    }
    if a.thread != 0 {
        buf.push(a.thread);
    }
    if a.gap >= GAP_ESCAPE {
        put_varint(buf, u64::from(a.gap));
    }
    *prev_line = line;
}

/// Decode one record from `buf[*pos..]`, advancing `pos` and the delta
/// base. `None` on any structural problem (overrun, overlong varint,
/// gap out of `u32` range); the caller maps that to
/// [`CorruptChunk`](crate::TraceIoError::CorruptChunk). Arithmetic is
/// wrapping so hostile deltas cannot panic.
pub fn decode_record(
    buf: &[u8],
    pos: &mut usize,
    prev_line: &mut u64,
    line_shift: u8,
) -> Option<MemAccess> {
    let tag = *buf.get(*pos)?;
    *pos += 1;
    let delta = unzigzag(get_varint(buf, pos)?);
    let line = prev_line.wrapping_add(delta as u64);
    *prev_line = line;
    let offset = if tag & 0x02 != 0 {
        let o = *buf.get(*pos)?;
        *pos += 1;
        u64::from(o)
    } else {
        0
    };
    let thread = if tag & 0x04 != 0 {
        let t = *buf.get(*pos)?;
        *pos += 1;
        t
    } else {
        0
    };
    let inline_gap = u32::from(tag >> 3);
    let gap = if inline_gap == GAP_ESCAPE {
        u32::try_from(get_varint(buf, pos)?).ok()?
    } else {
        inline_gap
    };
    let kind = if tag & 0x01 != 0 { AccessKind::Write } else { AccessKind::Read };
    let addr = (line << line_shift) | offset;
    Some(MemAccess { addr, kind, gap, thread })
}

/// Decode up to `n` records from `buf[*pos..]` onto `out`, advancing
/// `pos` and the delta base, and return how many were decoded. Stops
/// early at the first record [`decode_record`] rejects, with `pos` and
/// `prev_line` left at that record, so a short count means corruption.
///
/// This is the batch loop behind [`TraceReader::fill`](crate::TraceReader::fill)
/// and [`TraceReader::verify`](crate::TraceReader::verify). While at
/// least `FAST_WINDOW` bytes remain, a record decodes from two 8-byte
/// little-endian loads with branch-free varints and optional fields. A
/// varint longer than 8 bytes, an escaped gap that does not fit a `u32`,
/// and the chunk's last few records take [`decode_record`] instead,
/// which yields the same records and rejects the same input.
pub(crate) fn decode_records(
    buf: &[u8],
    pos: &mut usize,
    prev_line: &mut u64,
    line_shift: u8,
    n: usize,
    out: &mut Vec<MemAccess>,
) -> usize {
    let mut p = *pos;
    let mut line = *prev_line;
    let mut done = 0;
    while done < n {
        let fast = match buf.get(p..p + FAST_WINDOW) {
            Some(w) => decode_fast(w, &mut line, line_shift),
            None => None,
        };
        match fast {
            Some((a, used)) => {
                p += used;
                out.push(a);
            }
            None => {
                let (mut q, mut l) = (p, line);
                let Some(a) = decode_record(buf, &mut q, &mut l, line_shift) else { break };
                (p, line) = (q, l);
                out.push(a);
            }
        }
        done += 1;
    }
    *pos = p;
    *prev_line = line;
    done
}

/// Bytes the fast decoder may read for one record: the tag, an 8-byte
/// delta window, the offset and thread bytes, and an 8-byte gap window.
const FAST_WINDOW: usize = 1 + 8 + 1 + 1 + 8;

/// One record from a window of [`FAST_WINDOW`] bytes: the access and the
/// bytes it occupied, or `None` (with `prev_line` untouched) when it
/// needs [`decode_record`].
#[inline(always)]
fn decode_fast(w: &[u8], prev_line: &mut u64, line_shift: u8) -> Option<(MemAccess, usize)> {
    let tag = w[0];
    let (delta, len) = varint8(load8(w, 1))?;
    let mut q = 1 + len;
    // Optional bytes are read unconditionally (the window covers them)
    // and masked out when absent, which keeps the loop branch-free.
    let has_offset = usize::from((tag >> 1) & 1);
    let offset = u64::from(w[q]) * (has_offset as u64);
    q += has_offset;
    let has_thread = usize::from((tag >> 2) & 1);
    let thread = w[q] * (has_thread as u8);
    q += has_thread;
    let mut gap = u32::from(tag >> 3);
    if gap == GAP_ESCAPE {
        let (g, len) = varint8(load8(w, q))?;
        gap = u32::try_from(g).ok()?;
        q += len;
    }
    let line = prev_line.wrapping_add(unzigzag(delta) as u64);
    *prev_line = line;
    let kind = if tag & 0x01 != 0 { AccessKind::Write } else { AccessKind::Read };
    Some((MemAccess { addr: (line << line_shift) | offset, kind, gap, thread }, q))
}

/// The 8 bytes at `w[at..]`, little-endian.
#[inline(always)]
fn load8(w: &[u8], at: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&w[at..at + 8]);
    u64::from_le_bytes(b)
}

/// The LEB128 varint opening the little-endian word `x` and its length
/// in bytes, or `None` when it does not end within 8 bytes. The 7-bit
/// groups are gathered with three mask-and-shift steps, no loop.
#[inline(always)]
fn varint8(x: u64) -> Option<(u64, usize)> {
    let stops = !x & 0x8080_8080_8080_8080;
    if stops == 0 {
        return None;
    }
    let len = stops.trailing_zeros() as usize / 8 + 1;
    // Keep the bits up to and including the first byte without a
    // continuation flag, minus the flags themselves.
    let mut v = x & (stops ^ (stops - 1)) & 0x7f7f_7f7f_7f7f_7f7f;
    v = (v & 0x007f_007f_007f_007f) | ((v & 0x7f00_7f00_7f00_7f00) >> 1);
    v = (v & 0x0000_3fff_0000_3fff) | ((v & 0x3fff_0000_3fff_0000) >> 2);
    v = (v & 0x0000_0000_0fff_ffff) | ((v & 0x0fff_ffff_0000_0000) >> 4);
    Some((v, len))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time CRC-32 the slicing-by-8 form must equal.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xffff_ffffu32;
        for &b in bytes {
            c = CRC_TABLES[0][usize::from((c as u8) ^ b)] ^ (c >> 8);
        }
        c ^ 0xffff_ffff
    }

    #[test]
    fn crc32_slicing_matches_bytewise_for_every_short_length() {
        // Every length 0..=300 covers each tail length (0–7 bytes after
        // the 8-byte steps) many times over, at every start alignment.
        let buf: Vec<u8> =
            (0..310u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        for len in 0..=300 {
            for start in [0, 1, 3, 7] {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "len {len} start {start}");
            }
        }
    }

    #[test]
    fn crc32_slicing_matches_bytewise_on_random_buffers() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..200 {
            let len = (next() % 20_000) as usize;
            let buf: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            assert_eq!(crc32(&buf), crc32_bytewise(&buf), "len {len}");
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard zlib/IEEE test vectors.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414f_a339);
    }

    #[test]
    fn varint_roundtrip() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX];
        for &v in &values {
            put_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(get_varint(&buf, &mut pos), Some(v));
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn varint_rejects_overrun_and_overlong() {
        assert_eq!(get_varint(&[0x80], &mut 0), None);
        // 11 continuation bytes is an overlong encoding.
        let overlong = [0xffu8; 11];
        assert_eq!(get_varint(&overlong, &mut 0), None);
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn record_roundtrip_all_fields() {
        let cases = [
            MemAccess { addr: 0, kind: AccessKind::Read, gap: 0, thread: 0 },
            MemAccess { addr: 128 * 77, kind: AccessKind::Write, gap: 30, thread: 0 },
            MemAccess { addr: 128 * 5 + 17, kind: AccessKind::Read, gap: 31, thread: 1 },
            MemAccess { addr: u64::MAX, kind: AccessKind::Write, gap: u32::MAX, thread: 255 },
            MemAccess { addr: 1 << 56, kind: AccessKind::Read, gap: 1_000_000, thread: 3 },
        ];
        let mut buf = Vec::new();
        let mut prev = 0u64;
        for a in &cases {
            encode_record(&mut buf, &mut prev, 7, a);
        }
        let mut pos = 0;
        let mut prev = 0u64;
        for a in &cases {
            let d = decode_record(&buf, &mut pos, &mut prev, 7).expect("decodes");
            assert_eq!(&d, a);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn sequential_lines_encode_tightly() {
        // An ascending stream with small gaps: tag + 1-byte delta each.
        let mut buf = Vec::new();
        let mut prev = 0u64;
        for i in 0..1000u64 {
            let a = MemAccess::read_line(5000 + i, 4);
            encode_record(&mut buf, &mut prev, 7, &a);
        }
        // First record pays for the absolute position; the rest are 2 B.
        assert!(buf.len() <= 2 * 1000 + 4, "encoded {} bytes", buf.len());
    }

    /// `decode_record` in a loop: the oracle for [`decode_records`].
    fn decode_one_by_one(buf: &[u8], n: usize) -> (Vec<MemAccess>, usize, u64) {
        let (mut pos, mut prev, mut out) = (0, 0u64, Vec::new());
        while out.len() < n {
            let (mut p, mut l) = (pos, prev);
            let Some(a) = decode_record(buf, &mut p, &mut l, 7) else { break };
            (pos, prev) = (p, l);
            out.push(a);
        }
        (out, pos, prev)
    }

    #[test]
    fn batch_decode_matches_record_decode() {
        let mut x = 0x853c_49e6_748f_ea9bu64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for round in 0..300 {
            // Records with every optional field, deltas from one byte to
            // the full 64-bit range, and inline and escaped gaps.
            let mut buf = Vec::new();
            let mut prev = 0u64;
            let n = (next() % 600) as usize;
            for _ in 0..n {
                let r = next();
                let addr = match r % 4 {
                    0 => next(),
                    1 => (prev << 7).wrapping_add((r >> 8) % 4096),
                    _ => (prev.wrapping_add((r >> 8) % 9).wrapping_sub(4) << 7) | ((r >> 20) % 3),
                };
                let gap = match (r >> 30) % 4 {
                    0 => next() as u32,
                    _ => ((r >> 34) % 40) as u32,
                };
                let thread = if r & (1 << 40) != 0 { (r >> 41) as u8 } else { 0 };
                let kind = if r & (1 << 50) != 0 { AccessKind::Write } else { AccessKind::Read };
                encode_record(&mut buf, &mut prev, 7, &MemAccess { addr, kind, gap, thread });
            }
            // Then damage: overwrite or cut a byte range in some rounds.
            match round % 3 {
                1 if !buf.is_empty() => {
                    let at = (next() as usize) % buf.len();
                    let end = (at + 1 + (next() as usize) % 12).min(buf.len());
                    buf[at..end].iter_mut().for_each(|b| *b = next() as u8 | 0x80);
                }
                2 if !buf.is_empty() => buf.truncate((next() as usize) % buf.len()),
                _ => {}
            }
            let want = decode_one_by_one(&buf, n);
            let (mut pos, mut prev, mut got) = (0, 0u64, Vec::new());
            let k = decode_records(&buf, &mut pos, &mut prev, 7, n, &mut got);
            assert_eq!(k, want.0.len(), "round {round}");
            assert_eq!(got, want.0, "round {round}");
            assert_eq!((pos, prev), (want.1, want.2), "round {round}");
        }
    }

    #[test]
    fn decode_rejects_truncated_input() {
        let mut buf = Vec::new();
        let mut prev = 0u64;
        let a = MemAccess { addr: 128 * 9999, kind: AccessKind::Read, gap: 100, thread: 2 };
        encode_record(&mut buf, &mut prev, 7, &a);
        for cut in 0..buf.len() {
            let mut pos = 0;
            let mut p = 0u64;
            assert_eq!(decode_record(&buf[..cut], &mut pos, &mut p, 7), None, "cut at {cut}");
        }
    }
}
