//! Integration tests for the ASDT trace capture/replay subsystem: the
//! golden fixture pins the on-disk format byte-for-byte, corruption must
//! surface as typed errors (never panics), and replaying a recording
//! must be bit-identical to generating the same workload in memory —
//! for every profile in the suites.
//!
//! Temp files are named with `std::process::id()` (stable within a run)
//! rather than wall-clock time, keeping the suite deterministic (D001).

use asd_sim::{PrefetchKind, RunOpts, SimError, SystemConfig, TraceSource};
use asd_trace::{suites, thread_seed, TraceGenerator, WorkloadProfile};
use asd_traceio::{record_profile, TraceIoError, TraceMeta, TraceReader, TraceWriter};
use std::path::{Path, PathBuf};

/// The checked-in fixture: `asd-trace record --profile milc
/// --accesses 512 --seed 42 --out tests/data/golden.asdt`.
const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/data/golden.asdt");
const GOLDEN_PROFILE: &str = "milc";
const GOLDEN_SEED: u64 = 42;
const GOLDEN_ACCESSES: u64 = 512;

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("asd-traceio-test-{}-{tag}.asdt", std::process::id()))
}

/// Re-recording the golden workload must reproduce the fixture
/// byte-for-byte: the encoder is deterministic and the container has no
/// timestamps or other environment-dependent fields. A change to the
/// format (or a version bump) must regenerate the fixture deliberately.
#[test]
fn golden_fixture_is_byte_stable() {
    let path = temp_path("golden-restamp");
    let profile = suites::by_name(GOLDEN_PROFILE).unwrap();
    record_profile(&path, &profile, GOLDEN_SEED, 1, GOLDEN_ACCESSES).unwrap();
    let fresh = std::fs::read(&path).unwrap();
    let golden = std::fs::read(GOLDEN).unwrap();
    assert_eq!(
        fresh, golden,
        "re-recording {GOLDEN_PROFILE}/seed {GOLDEN_SEED} no longer matches tests/data/golden.asdt"
    );
    std::fs::remove_file(&path).ok();
}

/// The fixture verifies clean and decodes to exactly the generator's
/// access stream.
#[test]
fn golden_fixture_round_trips() {
    let reader = TraceReader::open(Path::new(GOLDEN)).unwrap();
    let meta = reader.meta().clone();
    assert_eq!(meta.profile, GOLDEN_PROFILE);
    assert_eq!(meta.seed, GOLDEN_SEED);
    assert_eq!(meta.threads, 1);
    assert_eq!(meta.accesses, GOLDEN_ACCESSES);

    let profile = suites::by_name(GOLDEN_PROFILE).unwrap();
    let expect = TraceGenerator::new(profile, thread_seed(GOLDEN_SEED, 0)).with_thread(0);
    let mut n = 0u64;
    for (got, want) in reader.map(|r| r.unwrap()).zip(expect) {
        assert_eq!(got, want, "record {n} diverges");
        n += 1;
    }
    assert_eq!(n, GOLDEN_ACCESSES);
}

/// The fixture stays within the format's size budget (the CRC, chunk
/// framing, and header amortize away even at 512 accesses).
#[test]
fn golden_fixture_is_compact() {
    let bytes = std::fs::read(GOLDEN).unwrap().len() as f64;
    let per_access = bytes / GOLDEN_ACCESSES as f64;
    assert!(per_access <= 6.0, "golden fixture costs {per_access:.2} B/access (budget: 6)");
}

/// Flipping a single payload bit is caught by the per-chunk CRC and
/// surfaces as a typed error — never a panic, never silently wrong data.
#[test]
fn bit_flip_is_a_checksum_mismatch() {
    let mut bytes = std::fs::read(GOLDEN).unwrap();
    // Offset 50 lands inside the first chunk's payload (30-byte header +
    // 13-byte chunk frame for the 4-char profile name).
    bytes[50] ^= 0x10;
    let path = temp_path("bitflip");
    std::fs::write(&path, &bytes).unwrap();
    let err = TraceReader::open(&path).unwrap().verify().unwrap_err();
    assert!(matches!(err, TraceIoError::ChecksumMismatch { chunk: 0, .. }), "got: {err}");
    std::fs::remove_file(&path).ok();
}

/// Truncating the file anywhere must yield a typed error (or, within the
/// header, `TruncatedChunk`/`Io`) — never a panic.
#[test]
fn truncation_never_panics() {
    let bytes = std::fs::read(GOLDEN).unwrap();
    let path = temp_path("truncate");
    for cut in [3usize, 17, 29, 31, 40, bytes.len() / 2, bytes.len() - 1] {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let result = TraceReader::open(&path).and_then(TraceReader::verify);
        assert!(result.is_err(), "cut at {cut} bytes verified clean");
    }
    std::fs::remove_file(&path).ok();
}

/// The headline acceptance criterion: for **every** suite profile,
/// record-then-replay drives the full simulator to results bit-identical
/// to the default in-memory generation path with the same seed.
#[test]
fn replay_matches_generate_for_every_profile() {
    let opts = RunOpts { accesses: 2_000, seed: 0x5eed, smt: false };
    let path = temp_path("replay-eq");
    for profile in suites::all_profiles() {
        let cfg = SystemConfig::for_kind(PrefetchKind::Pms, 1);
        let generated = asd_sim::System::new(cfg.clone(), &profile, &opts).unwrap().run();
        let source = TraceSource::capture(&profile.name, opts.seed, &path);
        let replayed = asd_sim::System::from_source(cfg, &source, &opts).unwrap().run();
        assert_eq!(
            format!("{generated:?}"),
            format!("{replayed:?}"),
            "replay diverges from generation for {}",
            profile.name
        );
    }
    std::fs::remove_file(&path).ok();
}

/// A profile whose lines overflow the trace memo's packed record is not
/// memoized: its run streams from the generator, and still equals the run
/// of its own recording (what `TraceSource::capture` does for a suite
/// profile).
#[test]
fn unpackable_profile_runs_like_its_recording() {
    let opts = RunOpts { accesses: 3_000, seed: 0x5eed, smt: false };
    let path = temp_path("unpackable");
    let wide = WorkloadProfile {
        name: "wide".into(),
        footprint_lines: 1 << 45,
        ..suites::by_name("milc").unwrap()
    };
    let cfg = SystemConfig::for_kind(PrefetchKind::Pms, 1);
    let generated = asd_sim::System::new(cfg.clone(), &wide, &opts).unwrap().run();
    record_profile(&path, &wide, opts.seed, 1, opts.accesses).unwrap();
    let source = TraceSource::replay(&path);
    let replayed = asd_sim::System::from_source(cfg, &source, &opts).unwrap().run();
    assert_eq!(format!("{generated:?}"), format!("{replayed:?}"));
    std::fs::remove_file(&path).ok();
}

/// `SystemConfig::with_trace` routes the access stream through the file
/// path too (the config-level override used by the figure drivers).
#[test]
fn with_trace_override_replays() {
    let opts = RunOpts { accesses: 1_500, seed: 7, smt: false };
    let path = temp_path("cfg-override");
    let profile = suites::by_name("lbm").unwrap();
    let base = SystemConfig::for_kind(PrefetchKind::Ms, 1);
    let direct = asd_sim::System::new(base.clone(), &profile, &opts).unwrap().run();
    let via_capture = asd_sim::System::new(
        base.with_trace(TraceSource::capture("lbm", 7, &path)),
        &profile,
        &opts,
    )
    .unwrap()
    .run();
    assert_eq!(format!("{direct:?}"), format!("{via_capture:?}"));
    std::fs::remove_file(&path).ok();
}

/// SMT runs (two decorrelated per-thread streams) survive the capture /
/// replay round trip bit-identically as well. At 5,000 accesses per
/// thread the recording spans three 4,096-record chunks, so each thread's
/// records cross a chunk boundary and chunk 1 holds both threads. Every
/// commercial profile (the SMT suite) runs under PS, PMS and one engine
/// of the prefetcher zoo.
#[test]
fn smt_replay_matches_generate() {
    let opts = RunOpts { accesses: 5_000, seed: 11, smt: true };
    let path = temp_path("smt-eq");
    let configs = [
        SystemConfig::for_kind(PrefetchKind::Ps, 2),
        SystemConfig::for_kind(PrefetchKind::Pms, 2),
        SystemConfig::for_kind(PrefetchKind::Np, 2).with_engine_named("stream-table").unwrap(),
    ];
    for profile in suites::commercial() {
        let source = TraceSource::capture(&profile.name, opts.seed, &path);
        for (i, cfg) in configs.iter().enumerate() {
            let generated = asd_sim::System::new(cfg.clone(), &profile, &opts).unwrap().run();
            let replayed = asd_sim::System::from_source(cfg.clone(), &source, &opts).unwrap().run();
            assert_eq!(
                format!("{generated:?}"),
                format!("{replayed:?}"),
                "SMT replay diverges from generation for {} under config {i}",
                profile.name
            );
        }
    }
    std::fs::remove_file(&path).ok();
}

/// Write `records` as a well-formed ASDT file whose header declares
/// `threads` contexts, whatever thread ids the records carry.
fn write_raw(path: &Path, threads: u8, records: &[asd_trace::MemAccess]) {
    let meta = TraceMeta {
        threads,
        accesses: records.len() as u64,
        ..TraceMeta::generated("milc", 3, 1, 0)
    };
    let mut w = TraceWriter::new(Vec::new(), meta).unwrap();
    w.write_all_accesses(records.iter().copied()).unwrap();
    std::fs::write(path, w.finish().unwrap()).unwrap();
}

/// A record tagged with a thread the header does not declare is a typed
/// error when the system is built, not a silently shorter run. (Checksums
/// and the record count are intact: only the routing can catch it.)
#[test]
fn replay_rejects_records_of_undeclared_threads() {
    let path = temp_path("stray-thread");
    let profile = suites::by_name("milc").unwrap();
    let mut records: Vec<_> =
        TraceGenerator::new(profile.clone(), thread_seed(3, 0)).iter(2_000).collect();
    for a in records.iter_mut().skip(3).step_by(4) {
        a.thread = 1;
    }
    assert_eq!(records.iter().filter(|a| a.thread == 1).count(), 500);
    write_raw(&path, 1, &records);
    let opts = RunOpts { accesses: 2_000, seed: 3, smt: false };
    let cfg = SystemConfig::for_kind(PrefetchKind::Pms, 1);
    let err = asd_sim::System::from_source(cfg, &TraceSource::replay(&path), &opts).err();
    assert!(matches!(err, Some(SimError::TraceIo { .. })), "got: {err:?}");
    std::fs::remove_file(&path).ok();
}

/// A two-thread file whose records split unevenly between its threads
/// (total count intact) is a typed error too.
#[test]
fn replay_rejects_uneven_thread_shares() {
    let path = temp_path("uneven");
    let profile = suites::by_name("tpcc").unwrap();
    let mut records: Vec<_> =
        TraceGenerator::new(profile.clone(), thread_seed(3, 0)).iter(2_000).collect();
    for a in records.iter_mut().skip(1_500) {
        a.thread = 1;
    }
    write_raw(&path, 2, &records);
    let opts = RunOpts { accesses: 1_000, seed: 3, smt: true };
    let cfg = SystemConfig::for_kind(PrefetchKind::Pms, 2);
    let err = asd_sim::System::from_source(cfg, &TraceSource::replay(&path), &opts).err();
    assert!(matches!(err, Some(SimError::TraceIo { .. })), "got: {err:?}");
    std::fs::remove_file(&path).ok();
}

/// The run reads the trace decoded when the system was built, never the
/// file: truncating the file afterwards must not shorten the run.
#[test]
fn replay_is_immune_to_the_file_changing_after_build() {
    let path = temp_path("truncate-after-build");
    let opts = RunOpts { accesses: 20_000, seed: 5, smt: false };
    let profile = suites::by_name("milc").unwrap();
    let cfg = SystemConfig::for_kind(PrefetchKind::Ms, 1);
    let generated = asd_sim::System::new(cfg.clone(), &profile, &opts).unwrap().run();
    record_profile(&path, &profile, opts.seed, 1, opts.accesses).unwrap();
    let sys = asd_sim::System::from_source(cfg, &TraceSource::replay(&path), &opts).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 4]).unwrap();
    let replayed = sys.run();
    assert_eq!(replayed.core.accesses, 20_000);
    assert_eq!(format!("{generated:?}"), format!("{replayed:?}"));
    std::fs::remove_file(&path).ok();
}
