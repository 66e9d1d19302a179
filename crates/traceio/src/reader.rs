//! Streaming ASDT decoder.
//!
//! [`TraceReader`] holds at most one chunk of payload in memory and
//! decodes it in batches ([`TraceReader::fill`]); its [`Iterator`] face
//! yields `Result<MemAccess, TraceIoError>` items through the same
//! decoder, one record at a time. Corrupt input — flipped bits,
//! truncated tails, impossible chunk headers — surfaces as a typed
//! error; after the first error the reader fuses.

use crate::error::TraceIoError;
use crate::format::{
    crc32, decode_records, TraceMeta, CHUNK_RECORDS, MAGIC, MAX_CHUNK_PAYLOAD, MAX_CHUNK_RECORDS,
    MAX_NAME_LEN, TAG_CHUNK, TAG_END, VERSION,
};
use asd_trace::MemAccess;
use std::fs::File;
use std::io::{BufReader, Read};
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Running,
    Finished,
    Failed,
}

/// Streaming decoder for one ASDT trace file.
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    r: R,
    meta: TraceMeta,
    payload: Vec<u8>,
    pos: usize,
    remaining_in_chunk: u32,
    prev_line: u64,
    chunk_index: u64,
    delivered: u64,
    state: State,
    /// The [`Iterator`] face's one-record batch, kept to reuse its
    /// allocation.
    one: Vec<MemAccess>,
}

impl TraceReader<BufReader<File>> {
    /// Open `path` and parse its header.
    ///
    /// # Errors
    ///
    /// [`TraceIoError::Io`] if the file cannot be opened, plus every
    /// header error of [`TraceReader::new`].
    pub fn open(path: &Path) -> Result<Self, TraceIoError> {
        TraceReader::new(BufReader::new(File::open(path)?))
    }
}

impl<R: Read> TraceReader<R> {
    /// Parse the ASDT header from `r` and return a reader positioned at
    /// the first chunk.
    ///
    /// # Errors
    ///
    /// [`TraceIoError::BadMagic`], [`TraceIoError::UnsupportedVersion`],
    /// [`TraceIoError::CorruptHeader`] for malformed headers;
    /// [`TraceIoError::TruncatedChunk`] when the input ends inside the
    /// header; [`TraceIoError::Io`] for reader failures.
    pub fn new(mut r: R) -> Result<Self, TraceIoError> {
        let mut magic = [0u8; 4];
        read_exact_or(&mut r, &mut magic, 0, "file magic")?;
        if magic != MAGIC {
            return Err(TraceIoError::BadMagic { found: magic });
        }
        let mut fixed = [0u8; 2 + 1 + 1 + 8 + 8 + 2];
        read_exact_or(&mut r, &mut fixed, 0, "header fields")?;
        let version = u16::from_le_bytes([fixed[0], fixed[1]]);
        if version != VERSION {
            return Err(TraceIoError::UnsupportedVersion { found: version });
        }
        let line_shift = fixed[2];
        if line_shift > 8 {
            return Err(TraceIoError::CorruptHeader { detail: "line shift above 8" });
        }
        let threads = fixed[3];
        if threads == 0 {
            return Err(TraceIoError::CorruptHeader { detail: "zero thread contexts" });
        }
        let seed = u64::from_le_bytes(section(&fixed, 4));
        let accesses = u64::from_le_bytes(section(&fixed, 12));
        let name_len = usize::from(u16::from_le_bytes([fixed[20], fixed[21]]));
        if name_len == 0 || name_len > MAX_NAME_LEN {
            return Err(TraceIoError::CorruptHeader { detail: "profile name empty or overlong" });
        }
        let mut name = vec![0u8; name_len];
        read_exact_or(&mut r, &mut name, 0, "profile name")?;
        let profile = String::from_utf8(name)
            .map_err(|_| TraceIoError::CorruptHeader { detail: "profile name not UTF-8" })?;
        Ok(TraceReader {
            r,
            meta: TraceMeta { profile, seed, line_shift, threads, accesses },
            payload: Vec::new(),
            pos: 0,
            remaining_in_chunk: 0,
            prev_line: 0,
            chunk_index: 0,
            delivered: 0,
            state: State::Running,
            one: Vec::with_capacity(1),
        })
    }

    /// The metadata parsed from the header.
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// Records delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Drain the remaining records, verifying every chunk's structure and
    /// checksum, and return the total record count on success. Runs the
    /// same batched decode loop as [`TraceReader::fill`], discarding the
    /// records.
    ///
    /// # Errors
    ///
    /// The first decoding error of the remaining stream.
    pub fn verify(mut self) -> Result<u64, TraceIoError> {
        let mut scratch = Vec::with_capacity(CHUNK_RECORDS);
        while self.fill(CHUNK_RECORDS, &mut scratch)? > 0 {
            scratch.clear();
        }
        Ok(self.delivered)
    }

    fn load_next_chunk(&mut self) -> Result<bool, TraceIoError> {
        let mut tag = [0u8; 1];
        read_exact_or(&mut self.r, &mut tag, self.chunk_index, "chunk tag (missing end marker)")?;
        match tag[0] {
            TAG_END => {
                let mut total = [0u8; 8];
                read_exact_or(&mut self.r, &mut total, self.chunk_index, "end marker total")?;
                let total = u64::from_le_bytes(total);
                if total != self.delivered || self.delivered != self.meta.accesses {
                    return Err(TraceIoError::CountMismatch {
                        declared: self.meta.accesses,
                        found: self.delivered.min(total),
                    });
                }
                let mut extra = [0u8; 1];
                if self.r.read(&mut extra)? != 0 {
                    return Err(TraceIoError::CorruptChunk {
                        chunk: self.chunk_index,
                        detail: "trailing data after end marker",
                    });
                }
                Ok(false)
            }
            TAG_CHUNK => {
                let mut head = [0u8; 12];
                read_exact_or(&mut self.r, &mut head, self.chunk_index, "chunk header")?;
                let count = u32::from_le_bytes([head[0], head[1], head[2], head[3]]);
                let payload_len = u32::from_le_bytes([head[4], head[5], head[6], head[7]]);
                let stored_crc = u32::from_le_bytes([head[8], head[9], head[10], head[11]]);
                // Every record takes at least one payload byte, so the
                // count cannot outrun the payload it will be checked on.
                if count == 0 || count > MAX_CHUNK_RECORDS || count > payload_len {
                    return Err(TraceIoError::CorruptChunk {
                        chunk: self.chunk_index,
                        detail: "impossible record count",
                    });
                }
                if payload_len == 0 || payload_len > MAX_CHUNK_PAYLOAD {
                    return Err(TraceIoError::CorruptChunk {
                        chunk: self.chunk_index,
                        detail: "impossible payload length",
                    });
                }
                // Grow the buffer only as payload bytes arrive: a header
                // claiming more than the input holds costs no allocation.
                self.payload.clear();
                let want = u64::from(payload_len);
                if (&mut self.r).take(want).read_to_end(&mut self.payload)? as u64 != want {
                    return Err(TraceIoError::TruncatedChunk {
                        chunk: self.chunk_index,
                        detail: "chunk payload",
                    });
                }
                let computed = crc32(&self.payload);
                if computed != stored_crc {
                    return Err(TraceIoError::ChecksumMismatch {
                        chunk: self.chunk_index,
                        stored: stored_crc,
                        computed,
                    });
                }
                self.pos = 0;
                self.prev_line = 0;
                self.remaining_in_chunk = count;
                self.chunk_index += 1;
                Ok(true)
            }
            _ => Err(TraceIoError::CorruptChunk {
                chunk: self.chunk_index,
                detail: "unknown chunk tag",
            }),
        }
    }

    /// Decode up to `max` further records and append them to `out`,
    /// returning the number appended. `Ok(0)` marks a cleanly exhausted
    /// (or previously fused) stream.
    ///
    /// Each chunk's records decode in one tight loop, with the per-record
    /// bookkeeping (remaining count, delivered count, end-of-chunk check)
    /// done once per run instead of once per record. The [`Iterator`]
    /// face is this with a batch of one.
    ///
    /// # Errors
    ///
    /// The first decoding error of the batch; records decoded before it
    /// stay appended to `out` and the reader fuses.
    pub fn fill(&mut self, max: usize, out: &mut Vec<MemAccess>) -> Result<usize, TraceIoError> {
        let start = out.len();
        while self.state == State::Running && out.len() - start < max {
            if let Err(e) = self.decode_run(max - (out.len() - start), out) {
                self.state = State::Failed;
                return Err(e);
            }
        }
        Ok(out.len() - start)
    }

    /// Append up to `max` records of the current chunk to `out`, loading
    /// the next chunk first when the current one is used up (or marking
    /// the stream finished at the end marker).
    fn decode_run(&mut self, max: usize, out: &mut Vec<MemAccess>) -> Result<(), TraceIoError> {
        if self.remaining_in_chunk == 0 && !self.load_next_chunk()? {
            self.state = State::Finished;
            return Ok(());
        }
        let want = max.min(self.remaining_in_chunk as usize);
        out.reserve(want);
        let decoded = decode_records(
            &self.payload,
            &mut self.pos,
            &mut self.prev_line,
            self.meta.line_shift,
            want,
            out,
        );
        // `want` is bounded by `remaining_in_chunk`, a `u32`.
        self.remaining_in_chunk -= decoded as u32;
        self.delivered += decoded as u64;
        let chunk = self.chunk_index.saturating_sub(1);
        if decoded < want {
            return Err(TraceIoError::CorruptChunk {
                chunk,
                detail: "record decoding overran the payload",
            });
        }
        if self.remaining_in_chunk == 0 && self.pos != self.payload.len() {
            // A chunk's last record is delivered only once the chunk is
            // known to end cleanly.
            out.pop();
            self.delivered -= 1;
            return Err(TraceIoError::CorruptChunk {
                chunk,
                detail: "payload bytes left over after the declared records",
            });
        }
        Ok(())
    }
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = Result<MemAccess, TraceIoError>;

    /// The next record, decoded by [`TraceReader::fill`] as a batch of
    /// one: `Some(Err(_))` once at the first error, then `None`.
    fn next(&mut self) -> Option<Self::Item> {
        let mut one = std::mem::take(&mut self.one);
        one.clear();
        let item = match self.fill(1, &mut one) {
            Ok(_) => one.first().copied().map(Ok),
            Err(e) => Some(Err(e)),
        };
        self.one = one;
        item
    }
}

fn read_exact_or<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    chunk: u64,
    detail: &'static str,
) -> Result<(), TraceIoError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            TraceIoError::TruncatedChunk { chunk, detail }
        } else {
            TraceIoError::Io(e)
        }
    })
}

fn section<const N: usize>(buf: &[u8], at: usize) -> [u8; N] {
    let mut out = [0u8; N];
    out.copy_from_slice(&buf[at..at + N]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::TraceWriter;
    use asd_trace::{AccessKind, MemAccess};

    fn sample_trace(n: u64) -> Vec<MemAccess> {
        (0..n)
            .map(|i| MemAccess {
                addr: ((1000 + i * 3) << 7) | ((i % 5) * 7),
                kind: if i % 4 == 0 { AccessKind::Write } else { AccessKind::Read },
                gap: (i % 200) as u32,
                thread: (i % 2) as u8,
            })
            .collect()
    }

    fn encode(trace: &[MemAccess]) -> Vec<u8> {
        let meta = TraceMeta::generated("sample", 9, 1, trace.len() as u64);
        let mut w = TraceWriter::new(Vec::new(), meta).unwrap();
        for a in trace {
            w.write_access(a).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn roundtrip_identity() {
        let trace = sample_trace(10_000); // spans multiple chunks
        let bytes = encode(&trace);
        let r = TraceReader::new(bytes.as_slice()).unwrap();
        assert_eq!(r.meta().profile, "sample");
        assert_eq!(r.meta().accesses, 10_000);
        let decoded: Vec<MemAccess> = r.map(|x| x.unwrap()).collect();
        assert_eq!(decoded, trace);
    }

    #[test]
    fn verify_counts_records() {
        let bytes = encode(&sample_trace(5000));
        let r = TraceReader::new(bytes.as_slice()).unwrap();
        assert_eq!(r.verify().unwrap(), 5000);
    }

    #[test]
    fn bad_magic_detected() {
        let mut bytes = encode(&sample_trace(4));
        bytes[0] = b'X';
        assert!(matches!(TraceReader::new(bytes.as_slice()), Err(TraceIoError::BadMagic { .. })));
    }

    #[test]
    fn future_version_rejected() {
        let mut bytes = encode(&sample_trace(4));
        bytes[4] = 2;
        assert!(matches!(
            TraceReader::new(bytes.as_slice()),
            Err(TraceIoError::UnsupportedVersion { found: 2 })
        ));
    }

    #[test]
    fn payload_bit_flip_is_a_checksum_mismatch() {
        let trace = sample_trace(100);
        let bytes = encode(&trace);
        // Flip a bit in the middle of the (single) chunk payload.
        let mut corrupt = bytes.clone();
        let target = bytes.len() - 20;
        corrupt[target] ^= 0x10;
        let r = TraceReader::new(corrupt.as_slice()).unwrap();
        let err = r.verify().unwrap_err();
        assert!(matches!(err, TraceIoError::ChecksumMismatch { chunk: 0, .. }), "{err}");
    }

    #[test]
    fn truncation_detected_not_panicking() {
        let bytes = encode(&sample_trace(2000));
        // Cut the file at many points; every cut must produce a typed
        // error (or a successful short header parse), never a panic.
        for cut in [5, 20, 40, bytes.len() / 2, bytes.len() - 3] {
            match TraceReader::new(&bytes[..cut]) {
                Ok(r) => {
                    let err = r.verify().unwrap_err();
                    assert!(
                        matches!(
                            err,
                            TraceIoError::TruncatedChunk { .. }
                                | TraceIoError::CountMismatch { .. }
                        ),
                        "cut {cut}: {err}"
                    );
                }
                Err(e) => {
                    assert!(matches!(e, TraceIoError::TruncatedChunk { .. }), "cut {cut}: {e}");
                }
            }
        }
    }

    #[test]
    fn fill_matches_iterator() {
        let trace = sample_trace(10_000); // spans multiple chunks
        let bytes = encode(&trace);
        let mut r = TraceReader::new(bytes.as_slice()).unwrap();
        let mut batched = Vec::new();
        loop {
            // A batch size coprime with the chunk record count exercises
            // refills that straddle chunk boundaries.
            if r.fill(777, &mut batched).unwrap() == 0 {
                break;
            }
        }
        assert_eq!(batched, trace);
        assert_eq!(r.fill(10, &mut batched).unwrap(), 0, "exhausted reader stays fused");
    }

    /// `encode(sample_trace(10_000))` with chunk 1 (records 4096–8191)
    /// rebuilt by `corrupt` from its records' encodings, its frame and
    /// CRC rewritten so only decoding can notice.
    fn with_chunk1(corrupt: impl Fn(&[Vec<u8>]) -> Vec<u8>) -> Vec<u8> {
        use crate::format::{encode_record, CHUNK_RECORDS};
        let trace = sample_trace(10_000);
        let bytes = encode(&trace);
        let header = 4 + 2 + 1 + 1 + 8 + 8 + 2 + "sample".len();
        let frame = |at: usize| {
            let len = u32::from_le_bytes(section(&bytes, at + 5)) as usize;
            at + 13 + len
        };
        let (c1, c2) = (frame(header), frame(frame(header)));
        let mut prev = 0;
        let records: Vec<Vec<u8>> = trace[CHUNK_RECORDS..2 * CHUNK_RECORDS]
            .iter()
            .map(|a| {
                let mut b = Vec::new();
                encode_record(&mut b, &mut prev, 7, a);
                b
            })
            .collect();
        let payload = corrupt(&records);
        let mut out = bytes[..c1].to_vec();
        out.push(TAG_CHUNK);
        out.extend_from_slice(&(CHUNK_RECORDS as u32).to_le_bytes());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out.extend_from_slice(&bytes[c2..]);
        out
    }

    /// Records delivered before the first error: the iterator's count,
    /// which `fill` must match, records and all, at every batch size.
    fn delivered_before_error(bytes: &[u8]) -> u64 {
        let mut it = TraceReader::new(bytes).unwrap();
        assert!(it.by_ref().take_while(Result::is_ok).count() > 0);
        let want = it.delivered();
        for batch in [1, 7, 777, 4095, 4096, 4097, 10_000] {
            let mut r = TraceReader::new(bytes).unwrap();
            let mut out = Vec::new();
            let err = loop {
                match r.fill(batch, &mut out) {
                    Ok(0) => panic!("batch {batch}: corrupt chunk decoded clean"),
                    Ok(_) => {}
                    Err(e) => break e,
                }
            };
            assert!(matches!(err, TraceIoError::CorruptChunk { chunk: 1, .. }), "{err}");
            assert_eq!(r.delivered(), want, "batch {batch}");
            assert_eq!(out.len() as u64, want, "batch {batch}");
            assert_eq!(out[..], sample_trace(want)[..], "batch {batch}");
        }
        want
    }

    #[test]
    fn fill_delivers_exactly_up_to_a_mid_chunk_corruption() {
        // An overlong varint at record k of chunk 1, followed by filler;
        // late records fall within the fast decoder's window of the
        // payload's end, early ones do not.
        for k in [0usize, 1, 777, 2_000, 4_090, 4_095] {
            let bytes = with_chunk1(|records| {
                let mut p: Vec<u8> = records[..k].concat();
                p.push(0x00);
                p.extend_from_slice(&[0xff; 11]);
                p.extend(records[k..].concat());
                p
            });
            assert_eq!(delivered_before_error(&bytes), 4096 + k as u64, "corruption at {k}");
        }
    }

    #[test]
    fn leftover_payload_withholds_the_chunks_last_record() {
        let bytes = with_chunk1(|records| {
            let mut p = records.concat();
            p.push(0x00);
            p
        });
        assert_eq!(delivered_before_error(&bytes), 4096 + 4095);
    }

    #[test]
    fn fill_surfaces_errors_and_fuses() {
        let mut bytes = encode(&sample_trace(50));
        let target = bytes.len() - 15;
        bytes[target] ^= 0xff;
        let mut r = TraceReader::new(bytes.as_slice()).unwrap();
        let mut out = Vec::new();
        assert!(r.fill(100, &mut out).is_err());
        assert_eq!(r.fill(100, &mut out).unwrap(), 0);
    }

    #[test]
    fn error_fuses_the_iterator() {
        let mut bytes = encode(&sample_trace(50));
        let target = bytes.len() - 15;
        bytes[target] ^= 0xff;
        let mut r = TraceReader::new(bytes.as_slice()).unwrap();
        assert!(r.next().unwrap().is_err());
        assert!(r.next().is_none());
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = encode(&sample_trace(10));
        bytes.push(0xaa);
        let r = TraceReader::new(bytes.as_slice()).unwrap();
        assert!(matches!(r.verify().unwrap_err(), TraceIoError::CorruptChunk { .. }));
    }

    #[test]
    fn empty_input_is_truncated_header() {
        assert!(matches!(
            TraceReader::new(&[][..]),
            Err(TraceIoError::TruncatedChunk { chunk: 0, .. })
        ));
    }

    /// A seeded fuzz pass over the checked-in golden trace: 20,000
    /// mutants, each one to four bit flips, inserted or deleted bytes, or
    /// truncations. Every mutant read through [`TraceReader::new`] and
    /// [`TraceReader::verify`] gives a record count or a typed error,
    /// never a panic. No allocation follows a corrupt length: the name
    /// is capped at `MAX_NAME_LEN`, and a chunk's payload buffer grows
    /// only as its bytes arrive. The pass takes about 0.3 s in a debug
    /// build.
    #[test]
    fn fuzzed_golden_traces_verify_or_fail_typed() {
        use asd_core::rng::Xoshiro256PlusPlus;
        const GOLDEN: &[u8] = include_bytes!("../../../tests/data/golden.asdt");
        let records = TraceReader::new(GOLDEN).and_then(TraceReader::verify).unwrap();
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(0x4153_4454);
        let (mut accepted, mut rejected) = (0, 0);
        for _ in 0..20_000 {
            let mut bytes = GOLDEN.to_vec();
            for _ in 0..rng.gen_range_usize(1, 5) {
                match rng.gen_range_usize(0, 4) {
                    0 if !bytes.is_empty() => {
                        let at = rng.gen_range_usize(0, bytes.len());
                        bytes[at] ^= 1 << rng.gen_range_usize(0, 8);
                    }
                    1 => {
                        bytes.insert(rng.gen_range_usize(0, bytes.len() + 1), rng.next_u64() as u8)
                    }
                    2 if !bytes.is_empty() => {
                        bytes.remove(rng.gen_range_usize(0, bytes.len()));
                    }
                    _ => bytes.truncate(rng.gen_range_usize(0, bytes.len() + 1)),
                }
            }
            match TraceReader::new(bytes.as_slice()).and_then(TraceReader::verify) {
                Ok(n) => {
                    // Only a header field outside the checksums changed.
                    assert_eq!(n, records, "{bytes:?}");
                    accepted += 1;
                }
                Err(e) => {
                    assert!(!e.to_string().is_empty());
                    rejected += 1;
                }
            }
        }
        assert!(accepted > 0 && rejected > accepted, "{accepted} accepted, {rejected} rejected");
    }
}
