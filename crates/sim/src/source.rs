//! Where a simulation's access stream comes from: generated in memory,
//! replayed from an ASDT file, or captured to one and then replayed.
//!
//! [`TraceSource::Replay`] decodes the whole file once, before the
//! simulation starts, checking every chunk's structure and checksum as it
//! goes and routing each record into its thread's in-memory buffer. A
//! corrupt corpus, or one whose records disagree with its header, fails
//! fast with a typed [`SimError::TraceIo`]; the run itself never touches
//! the file, so a file changed on disk mid-run cannot shorten it.
//! [`TraceSource::Capture`] is record-then-replay: the generator is
//! streamed to disk first and the simulation then runs from the file,
//! which makes `Capture` bit-identical to `Replay` of its own output by
//! construction, and bit-identical to `Generate` because recording uses
//! the same [`asd_trace::thread_seed`] derivation the in-memory path
//! uses.

use crate::config::RunOpts;
use crate::error::SimError;
use asd_trace::{
    suites, thread_seed, MemAccess, PackedAccess, TraceGenerator, WorkloadProfile, LINE_SHIFT,
};
use asd_traceio::format::CHUNK_RECORDS;
use asd_traceio::{record_profile, TraceIoError, TraceReader};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The origin of the access stream a [`System`](crate::System) consumes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceSource {
    /// Generate the trace in memory from a suite profile (the default
    /// path; no file I/O).
    Generate {
        /// Suite profile name (see [`asd_trace::suites`]).
        profile: String,
        /// Base workload seed; SMT threads decorrelate via
        /// [`asd_trace::thread_seed`].
        seed: u64,
    },
    /// Replay a previously recorded ASDT file.
    Replay {
        /// Path to the `.asdt` file.
        path: PathBuf,
    },
    /// Record the profile to `path`, then replay the recording.
    Capture {
        /// Suite profile name.
        profile: String,
        /// Base workload seed.
        seed: u64,
        /// Path the `.asdt` file is written to.
        path: PathBuf,
    },
}

impl TraceSource {
    /// A [`TraceSource::Generate`] for a named suite profile.
    pub fn generate(profile: &str, seed: u64) -> Self {
        TraceSource::Generate { profile: profile.to_string(), seed }
    }

    /// A [`TraceSource::Replay`] of an existing ASDT file.
    pub fn replay(path: impl Into<PathBuf>) -> Self {
        TraceSource::Replay { path: path.into() }
    }

    /// A [`TraceSource::Capture`] recording a profile to `path` first.
    pub fn capture(profile: &str, seed: u64, path: impl Into<PathBuf>) -> Self {
        TraceSource::Capture { profile: profile.to_string(), seed, path: path.into() }
    }

    /// Resolve into per-thread access streams for a run under `opts`
    /// (`opts.smt` selects two threads, `opts.accesses` records each).
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownProfile`] for an unresolvable profile name;
    /// [`SimError::TraceIo`] when a file cannot be written, is corrupt,
    /// was recorded with a different thread count, access count, or line
    /// size than the run requires, or holds records that disagree with
    /// its header (a thread id beyond its thread count, or a thread with
    /// more or fewer records than its share).
    pub fn resolve(&self, opts: &RunOpts) -> Result<ResolvedTrace, SimError> {
        let threads: u8 = if opts.smt { 2 } else { 1 };
        match self {
            TraceSource::Generate { profile, seed } => {
                let p = profile_named(profile)?;
                Ok(ResolvedTrace::generated(&p, *seed, threads, opts.accesses))
            }
            TraceSource::Replay { path } => ResolvedTrace::replayed(path, threads, opts.accesses),
            TraceSource::Capture { profile, seed, path } => {
                let p = profile_named(profile)?;
                record_profile(path, &p, *seed, threads, opts.accesses)
                    .map_err(|e| trace_io(path, &e))?;
                ResolvedTrace::replayed(path, threads, opts.accesses)
            }
        }
    }
}

fn profile_named(name: &str) -> Result<WorkloadProfile, SimError> {
    suites::by_name(name).ok_or_else(|| SimError::UnknownProfile { name: name.to_string() })
}

fn trace_io(path: &Path, e: &TraceIoError) -> SimError {
    SimError::TraceIo { path: path.to_path_buf(), message: e.to_string() }
}

/// The generator of `thread`'s accesses in a run of `profile` under base
/// seed `seed`.
pub(crate) fn thread_generator(profile: &WorkloadProfile, seed: u64, thread: u8) -> TraceGenerator {
    TraceGenerator::new(profile.clone(), thread_seed(seed, thread)).with_thread(thread)
}

/// A [`TraceSource`] resolved into concrete per-thread streams.
pub struct ResolvedTrace {
    /// Benchmark name for run labelling (from the profile or the ASDT
    /// header).
    pub benchmark: String,
    /// One bounded access stream per hardware thread.
    pub streams: Vec<TraceStream>,
}

impl std::fmt::Debug for ResolvedTrace {
    // Hand-written: streams hold live generators.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResolvedTrace")
            .field("benchmark", &self.benchmark)
            .field("threads", &self.streams.len())
            .finish()
    }
}

impl ResolvedTrace {
    /// In-memory generation: one seeded generator per thread
    /// ([`asd_trace::thread_seed`]), streamed as the run consumes it. A
    /// pipeline run serves the same accesses to its nodes from a trace
    /// memo of its own, so that runs differing only in system
    /// configuration generate each trace once.
    pub fn generated(profile: &WorkloadProfile, seed: u64, threads: u8, accesses: u64) -> Self {
        let streams = (0..threads)
            .map(|t| TraceStream::generated(thread_generator(profile, seed, t), accesses))
            .collect();
        ResolvedTrace { benchmark: profile.name.clone(), streams }
    }

    /// File replay: one pass over the file decodes and verifies every
    /// record and routes it into its thread's buffer, which the run then
    /// reads from memory. Costs 16 B per access per thread, twice a
    /// pipeline's packed trace memo.
    fn replayed(path: &Path, threads: u8, accesses: u64) -> Result<Self, SimError> {
        let io = |e: TraceIoError| trace_io(path, &e);
        let mismatch = |message: String| SimError::TraceIo { path: path.to_path_buf(), message };
        let mut reader = TraceReader::open(path).map_err(io)?;
        let meta = reader.meta().clone();
        if meta.threads != threads {
            return Err(mismatch(format!(
                "trace was recorded with {} thread(s) but the run needs {threads}",
                meta.threads
            )));
        }
        if meta.accesses_per_thread() != accesses {
            return Err(mismatch(format!(
                "trace holds {} accesses per thread but the run needs {accesses}",
                meta.accesses_per_thread()
            )));
        }
        if meta.line_shift != LINE_SHIFT as u8 {
            return Err(mismatch(format!(
                "trace uses {}-byte lines but this build simulates {}-byte lines",
                1u32 << meta.line_shift,
                asd_trace::LINE_BYTES
            )));
        }
        // Reserve each thread's share up front, so the buffers never
        // regrow, but no more than the file can hold: a record takes at
        // least two bytes, so an overstated header cannot inflate it.
        let fits = std::fs::metadata(path).map_or(0, |m| m.len() / 2);
        let reserve = usize::try_from(accesses.min(fits)).unwrap_or(0);
        let mut bufs: Vec<Vec<MemAccess>> =
            (0..threads).map(|_| Vec::with_capacity(reserve)).collect();
        let mut batch = Vec::with_capacity(CHUNK_RECORDS);
        while reader.fill(CHUNK_RECORDS, &mut batch).map_err(io)? > 0 {
            for a in &batch {
                let Some(buf) = bufs.get_mut(usize::from(a.thread)) else {
                    return Err(mismatch(format!(
                        "a record names thread {} but the header declares {threads} thread(s)",
                        a.thread
                    )));
                };
                buf.push(*a);
            }
            batch.clear();
        }
        if let Some((t, buf)) = bufs.iter().enumerate().find(|(_, b)| b.len() as u64 != accesses) {
            return Err(mismatch(format!(
                "thread {t} has {} records but the run needs {accesses}",
                buf.len()
            )));
        }
        let streams = bufs.into_iter().map(TraceStream::materialized).collect();
        Ok(ResolvedTrace { benchmark: meta.profile, streams })
    }
}

/// Accesses decoded per refill of a [`TraceStream`]'s chunk buffer.
///
/// Large enough to amortize the per-refill dispatch into the source
/// (generator step, unpack of memoized records, or copy out of a replay
/// buffer) over hundreds of accesses; small enough that a refill stays
/// within one L1 cache's worth of records.
const CHUNK: usize = 256;

/// One bounded per-thread access stream, from any origin.
///
/// All origins refill a dense chunk buffer `CHUNK` accesses at a time;
/// the consumer-facing [`Iterator::next`] is an indexed read from that
/// buffer, with no per-access dispatch into the underlying source.
pub struct TraceStream {
    /// Decoded accesses waiting to be consumed.
    buf: Vec<MemAccess>,
    /// Read cursor into `buf`.
    pos: usize,
    src: StreamSrc,
}

/// Where a [`TraceStream`]'s refills come from.
enum StreamSrc {
    /// Generated in memory, `remaining` accesses still to come (boxed:
    /// the generator's state is an order of magnitude larger than the
    /// other variants').
    Generated { gen: Box<TraceGenerator>, remaining: u64 },
    /// A pipeline run's trace memo entry: the records the generator would
    /// produce, packed, made once and shared; `taken` records unpacked so
    /// far, each as an access of `thread`.
    Packed { records: Arc<[PackedAccess]>, thread: u8, taken: usize },
    /// A trace decoded from an ASDT file; `taken` records copied out so
    /// far.
    Materialized { accs: Vec<MemAccess>, taken: usize },
}

impl TraceStream {
    fn new(src: StreamSrc) -> Self {
        TraceStream { buf: Vec::with_capacity(CHUNK), pos: 0, src }
    }

    /// A stream of the next `accesses` records of `gen`.
    pub(crate) fn generated(gen: TraceGenerator, accesses: u64) -> Self {
        TraceStream::new(StreamSrc::Generated { gen: Box::new(gen), remaining: accesses })
    }

    /// A stream unpacking a memoized trace of `thread`.
    pub(crate) fn packed(records: Arc<[PackedAccess]>, thread: u8) -> Self {
        TraceStream::new(StreamSrc::Packed { records, thread, taken: 0 })
    }

    /// A stream serving a decoded trace.
    fn materialized(accs: Vec<MemAccess>) -> Self {
        TraceStream::new(StreamSrc::Materialized { accs, taken: 0 })
    }

    /// Refill the chunk buffer from the source and serve the first
    /// refilled access, or `None` once the stream is exhausted.
    #[inline(never)]
    fn refill(&mut self) -> Option<MemAccess> {
        self.buf.clear();
        match &mut self.src {
            StreamSrc::Generated { gen, remaining } => {
                let n = CHUNK.min(usize::try_from(*remaining).unwrap_or(usize::MAX));
                gen.fill(n, &mut self.buf);
                *remaining -= self.buf.len() as u64;
            }
            StreamSrc::Packed { records, thread, taken } => {
                let end = (*taken + CHUNK).min(records.len());
                self.buf.extend(records[*taken..end].iter().map(|r| r.unpack(*thread)));
                *taken = end;
            }
            StreamSrc::Materialized { accs, taken } => {
                let end = (*taken + CHUNK).min(accs.len());
                self.buf.extend_from_slice(&accs[*taken..end]);
                *taken = end;
            }
        }
        let a = self.buf.first().copied();
        self.pos = usize::from(a.is_some());
        a
    }
}

impl Iterator for TraceStream {
    type Item = MemAccess;

    #[inline]
    // asd-lint: hot
    fn next(&mut self) -> Option<MemAccess> {
        if let Some(&a) = self.buf.get(self.pos) {
            self.pos += 1;
            return Some(a);
        }
        self.refill()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("asd-sim-source-{}-{tag}.asdt", std::process::id()))
    }

    fn opts(accesses: u64) -> RunOpts {
        RunOpts { accesses, ..RunOpts::default() }
    }

    fn tpcc() -> WorkloadProfile {
        suites::by_name("tpcc").expect("suite profile")
    }

    #[test]
    fn generate_resolves_to_generator_stream() {
        let r = TraceSource::generate("milc", 42).resolve(&opts(100)).unwrap();
        assert_eq!(r.benchmark, "milc");
        assert_eq!(r.streams.len(), 1);
        let n = r.streams.into_iter().flatten().count();
        assert_eq!(n, 100);
    }

    #[test]
    fn memoized_stream_matches_the_generator() {
        let mut memo = crate::memo::TraceMemo::default();
        let id = memo.add_reader(0, &tpcc(), 0x5eed, 1, 100_000);
        // 100,000 records end in a partial chunk; thread 1 comes back from
        // the stream, not from the records.
        let resolved = memo.resolve(&[id]);
        assert_eq!(resolved.benchmark, "tpcc");
        let streamed: Vec<MemAccess> = resolved.streams.into_iter().flatten().collect();
        let generated = thread_generator(&tpcc(), 0x5eed, 1).generate(100_000);
        assert!(streamed == generated, "the memoized stream diverges from the generator");
        assert_eq!(memo.stats().0, 1, "the stream came from the memo");
    }

    #[test]
    fn unknown_profile_is_typed() {
        let e = TraceSource::generate("nosuch", 1).resolve(&opts(10)).unwrap_err();
        assert!(matches!(e, SimError::UnknownProfile { .. }));
    }

    #[test]
    fn capture_then_replay_matches_generate() {
        let path = temp_path("roundtrip");
        let o = opts(400);
        let gen: Vec<Vec<MemAccess>> = TraceSource::generate("lbm", 9)
            .resolve(&o)
            .unwrap()
            .streams
            .into_iter()
            .map(Iterator::collect)
            .collect();
        let cap: Vec<Vec<MemAccess>> = TraceSource::capture("lbm", 9, &path)
            .resolve(&o)
            .unwrap()
            .streams
            .into_iter()
            .map(Iterator::collect)
            .collect();
        let rep: Vec<Vec<MemAccess>> = TraceSource::replay(&path)
            .resolve(&o)
            .unwrap()
            .streams
            .into_iter()
            .map(Iterator::collect)
            .collect();
        assert_eq!(gen, cap);
        assert_eq!(gen, rep);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn smt_replay_splits_threads() {
        let path = temp_path("smt");
        let o = RunOpts { accesses: 150, smt: true, ..RunOpts::default() };
        let r = TraceSource::capture("milc", 3, &path).resolve(&o).unwrap();
        assert_eq!(r.streams.len(), 2);
        for (t, s) in r.streams.into_iter().enumerate() {
            let accs: Vec<MemAccess> = s.collect();
            assert_eq!(accs.len(), 150);
            assert!(accs.iter().all(|a| usize::from(a.thread) == t));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn replay_rejects_mismatched_run_shape() {
        let path = temp_path("shape");
        TraceSource::capture("milc", 3, &path).resolve(&opts(100)).unwrap();
        // Wrong access count.
        let e = TraceSource::replay(&path).resolve(&opts(200)).unwrap_err();
        assert!(matches!(e, SimError::TraceIo { .. }), "{e}");
        // Wrong thread count.
        let smt = RunOpts { accesses: 100, smt: true, ..RunOpts::default() };
        let e = TraceSource::replay(&path).resolve(&smt).unwrap_err();
        assert!(matches!(e, SimError::TraceIo { .. }), "{e}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn replay_of_missing_file_is_typed() {
        let e = TraceSource::replay("/nonexistent/trace.asdt").resolve(&opts(10)).unwrap_err();
        assert!(matches!(e, SimError::TraceIo { .. }));
    }
}
