//! End-to-end integration tests for the `asd-serve` daemon: bit-identity
//! across cold cache and warm disk cache, restart with zero new
//! simulation runs, disk-record corruption recovery, the typed
//! error surface, graceful shutdown (also with an idle client connected),
//! the trace corpus, and the pinned CLI exit codes.
//!
//! Every test spawns the real binary (`CARGO_BIN_EXE_asd-serve`) as a
//! subprocess: the daemon's run context, memory tier included, lives as
//! long as its process, so a fresh process is the only honest way to test
//! "cold memory, warm disk".

use asd_serve::client::{bench_specs, reference_doc, spawn_daemon, Client, DaemonHandle};
use asd_serve::{JobSpec, ServeError};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

const BIN: &str = env!("CARGO_BIN_EXE_asd-serve");

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("asd-serve-it-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn daemon(dir: &Path) -> DaemonHandle {
    let dir_text = dir.display().to_string();
    spawn_daemon(Path::new(BIN), &["--port", "0", "--dir", &dir_text]).expect("spawn daemon")
}

fn sweep_spec(accesses: u64) -> JobSpec {
    JobSpec::Sweep {
        benchmarks: vec!["milc".to_string(), "lbm".to_string()],
        configs: vec!["NP".to_string(), "PMS".to_string()],
        accesses,
        seed: 42,
        smt: false,
    }
}

fn submit_and_wait(client: &mut Client, spec: &JobSpec) -> String {
    let id = client.submit(spec).expect("submit");
    let resp = client.wait(id).expect("wait");
    resp.get("result").map(|v| v.render()).unwrap_or_default()
}

fn stat(client: &mut Client, key: &str) -> f64 {
    let stats = client.server_stats().expect("stats");
    stats.get(key).and_then(asd_telemetry::json::Value::as_f64).unwrap_or(-1.0)
}

#[test]
fn cold_and_warm_restart_runs_are_bit_identical() {
    let dir = scratch("identity");
    let spec = sweep_spec(1_500);
    let expected = reference_doc(&spec).expect("reference doc");

    // Cold daemon: everything is simulated, and the disk tier filled.
    let d1 = daemon(&dir);
    let mut c = Client::connect(&d1.addr).expect("connect");
    assert_eq!(submit_and_wait(&mut c, &spec), expected, "cold run");
    assert_eq!(stat(&mut c, "cache_run_misses"), 4.0, "four simulated runs");
    assert_eq!(stat(&mut c, "cache_disk_writes"), 4.0, "four records persisted");
    assert_eq!(submit_and_wait(&mut c, &spec), expected, "memory-cache replay");
    assert_eq!(stat(&mut c, "cache_run_hits"), 4.0, "replay served from memory");
    drop(c);
    assert_eq!(d1.shutdown().expect("drain"), 0);

    // Restarted daemon: cold memory, warm disk. Resubmitting the same
    // job must perform ZERO new simulation runs — the disk-hit counters
    // prove every run came off the persistent tier.
    let d2 = daemon(&dir);
    let mut c = Client::connect(&d2.addr).expect("connect");
    assert_eq!(submit_and_wait(&mut c, &spec), expected, "warm-disk restart");
    assert_eq!(stat(&mut c, "cache_run_misses"), 0.0, "no new simulation runs after restart");
    assert_eq!(stat(&mut c, "cache_disk_hits"), 4.0, "all four runs came from disk");
    drop(c);
    assert_eq!(d2.shutdown().expect("drain"), 0);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_disk_records_are_evicted_and_recomputed() {
    let dir = scratch("corrupt");
    let spec = JobSpec::Sweep {
        benchmarks: vec!["milc".to_string()],
        configs: vec!["MS".to_string()],
        accesses: 1_300,
        seed: 9,
        smt: false,
    };
    let expected = reference_doc(&spec).expect("reference doc");

    let d1 = daemon(&dir);
    let mut c = Client::connect(&d1.addr).expect("connect");
    assert_eq!(submit_and_wait(&mut c, &spec), expected);
    drop(c);
    assert_eq!(d1.shutdown().expect("drain"), 0);

    // Flip one bit in the middle of every persisted record.
    let cache_dir = dir.join("cache");
    let mut flipped = 0;
    for entry in std::fs::read_dir(&cache_dir).expect("cache dir") {
        let path = entry.expect("entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("run") {
            continue;
        }
        let mut bytes = std::fs::read(&path).expect("read record");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).expect("write corrupted record");
        flipped += 1;
    }
    assert!(flipped >= 1, "the run must have persisted at least one record");

    // The restarted daemon must detect the corruption (CRC), evict the
    // record, recompute, and still answer bit-identically.
    let d2 = daemon(&dir);
    let mut c = Client::connect(&d2.addr).expect("connect");
    assert_eq!(submit_and_wait(&mut c, &spec), expected, "recomputed after corruption");
    assert!(stat(&mut c, "cache_disk_evictions") >= 1.0, "corrupt record evicted");
    assert!(stat(&mut c, "cache_run_misses") >= 1.0, "run actually recomputed");
    drop(c);
    assert_eq!(d2.shutdown().expect("drain"), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn protocol_errors_are_structured_and_typed() {
    let dir = scratch("errors");
    let d = daemon(&dir);
    let mut c = Client::connect(&d.addr).expect("connect");

    let mut bogus = asd_telemetry::json::Value::obj();
    bogus.set("op", "teleport");
    match c.request(&bogus) {
        Err(ServeError::MalformedRequest { message }) => {
            assert!(message.contains("teleport"), "{message}");
        }
        other => panic!("expected MalformedRequest, got {other:?}"),
    }

    match c.status(424_242) {
        Err(ServeError::UnknownJob { .. }) => {}
        other => panic!("expected UnknownJob, got {other:?}"),
    }

    let bad_fig = JobSpec::Figure { figure: "fig99".to_string(), accesses: 1_000, seed: 1 };
    assert!(c.submit(&bad_fig).is_err(), "unknown figure rejected at submit");

    let bad_bench = JobSpec::Sweep {
        benchmarks: vec!["not-a-benchmark".to_string()],
        configs: vec!["NP".to_string()],
        accesses: 1_000,
        seed: 1,
        smt: false,
    };
    assert!(c.submit(&bad_bench).is_err(), "unknown benchmark rejected at submit");

    // A framing violation gets a structured response; the daemon then
    // drops that connection but keeps serving new ones.
    {
        use std::io::{Read, Write};
        let mut raw = std::net::TcpStream::connect(&d.addr).expect("raw connect");
        raw.write_all(b"not-a-length\n").expect("write garbage");
        let mut resp = String::new();
        let _ = raw.take(4096).read_to_string(&mut resp);
        assert!(resp.contains("\"malformed\""), "structured framing error, got {resp:?}");
    }
    assert!(c.ping().is_ok(), "daemon still alive after framing violation");

    drop(c);
    assert_eq!(d.shutdown().expect("drain"), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_drains_inflight_jobs_then_refuses_new_work() {
    let dir = scratch("drain");
    let d = daemon(&dir);
    let specs = bench_specs(2_500);
    let expected: Vec<String> =
        specs.iter().map(|s| reference_doc(s).expect("reference")).collect();

    let mut submitter = Client::connect(&d.addr).expect("connect");
    let ids: Vec<u64> = specs.iter().map(|s| submitter.submit(s).expect("submit")).collect();

    // Shutdown arrives while jobs are queued: the daemon must finish
    // them all, then refuse new work, then exit 0.
    let mut controller = Client::connect(&d.addr).expect("connect");
    controller.shutdown().expect("shutdown accepted");
    match controller.submit(&specs[0]) {
        Err(ServeError::ShuttingDown) => {}
        Ok(_) => panic!("submit accepted after shutdown"),
        // The drain can complete before the follow-up submit lands, in
        // which case the daemon is already gone and the write fails.
        Err(ServeError::Io { .. }) => {}
        Err(other) => panic!("expected ShuttingDown, got {other:?}"),
    }
    drop(controller);

    for (id, want) in ids.iter().zip(&expected) {
        let resp = submitter.wait(*id).expect("drained job completes");
        let got = resp.get("result").map(|v| v.render()).unwrap_or_default();
        assert_eq!(&got, want, "drained job {id} is bit-identical");
    }
    drop(submitter);
    assert_eq!(d.wait_exit().expect("exit"), 0, "clean exit after drain");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_ends_idle_connections_at_once() {
    let dir = scratch("idle");
    // The default read timeout (30 s) is what an idle connection would
    // hold the process for if the drain waited out its handler's read.
    let d = daemon(&dir);
    let idle = TcpStream::connect(&d.addr).expect("connect the idle client");
    // Connections are accepted in order, so once this one is answered a
    // handler holds the idle one, blocked in its read.
    let mut controller = Client::connect(&d.addr).expect("connect");
    controller.ping().expect("ping");
    // asd-lint: allow(D001) -- timing the daemon's exit on the host clock, not simulated time
    let asked = std::time::Instant::now();
    controller.shutdown().expect("shutdown accepted");
    drop(controller);
    assert_eq!(d.wait_exit().expect("exit"), 0, "clean exit after drain");
    let took = asked.elapsed();
    assert!(took < Duration::from_secs(5), "exit took {took:?} with an idle connection open");
    drop(idle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn figure_and_watch_jobs_match_direct_drivers() {
    let dir = scratch("figure");
    let d = daemon(&dir);
    let mut c = Client::connect(&d.addr).expect("connect");

    // The hardware-cost table involves no simulation: pure CLI parity.
    let id = c
        .submit(&JobSpec::Figure { figure: "cost".to_string(), accesses: 1_000, seed: 1 })
        .expect("submit figure");
    let resp = c.wait(id).expect("wait figure");
    let text = resp.get("result").and_then(|r| r.str_field("text")).unwrap_or_default().to_string();
    assert_eq!(text, asd_sim::figures::hardware_cost_table(), "daemon text == CLI text");

    // A watch stream ends with the terminal document and monotone
    // progress.
    let spec = sweep_spec(1_500);
    let expected = reference_doc(&spec).expect("reference");
    let id = c.submit(&spec).expect("submit sweep");
    let mut last_done = 0u64;
    let end = c
        .watch(id, |event| {
            let done = event.u64_field("done").unwrap_or(0);
            assert!(done >= last_done, "progress must not go backwards");
            last_done = done;
        })
        .expect("watch");
    assert_eq!(end.str_field("event"), Some("end"));
    assert_eq!(end.get("result").map(|v| v.render()).unwrap_or_default(), expected);

    drop(c);
    assert_eq!(d.shutdown().expect("drain"), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_corpus_roundtrips_over_the_wire() {
    let dir = scratch("corpus");
    let trace_path = dir.join("sample.asdt");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let profile = asd_trace::suites::by_name("milc").expect("profile");
    asd_traceio::record_profile(&trace_path, &profile, 0x5eed, 1, 600).expect("record");
    let bytes = std::fs::read(&trace_path).expect("read trace");

    let d = daemon(&dir);
    let mut c = Client::connect(&d.addr).expect("connect");
    assert_eq!(c.trace_put("milc-short", &bytes).expect("put"), 600);
    let listed = c.trace_list().expect("list");
    let names: Vec<&str> = listed
        .get("traces")
        .and_then(|t| t.as_arr())
        .map(|arr| arr.iter().filter_map(|t| t.str_field("name")).collect())
        .unwrap_or_default();
    assert_eq!(names, ["milc-short"]);
    assert_eq!(c.trace_get("milc-short").expect("get"), bytes, "bytes survive the roundtrip");
    assert!(c.trace_put("../evil", &bytes).is_err(), "traversal rejected");
    assert!(c.trace_put("junk", b"not a trace").is_err(), "garbage rejected");
    assert!(c.trace_get("never-stored").is_err(), "unknown name rejected");
    drop(c);
    assert_eq!(d.shutdown().expect("drain"), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn load_bench_sustains_100_concurrent_clients() {
    // The two-phase `bench` subcommand: warm a cold daemon, restart it,
    // then fire 100 concurrent connections of duplicate-heavy requests.
    // It exits nonzero on any bit mismatch, any lost response, or any
    // simulation run performed after the restart.
    let dir = scratch("loadbench");
    let dir_text = dir.display().to_string();
    let out = Command::new(BIN)
        .args(["bench", "--clients", "100", "--requests", "2", "--accesses", "900"])
        .args(["--dir", &dir_text])
        .output()
        .expect("run bench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "bench failed\nstdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(stdout.contains("bit mismatches   : 0"), "{stdout}");
    assert!(stdout.contains("asd-serve bench: OK"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_exit_codes_are_pinned() {
    let code = |args: &[&str]| Command::new(BIN).args(args).output().expect("run").status.code();
    assert_eq!(code(&[]), Some(2), "no subcommand is a usage error");
    assert_eq!(code(&["serve", "--bogus", "1"]), Some(2), "unknown flag is a usage error");
    assert_eq!(code(&["serve", "--port", "not-a-number"]), Some(2), "bad value is a usage error");
    assert_eq!(
        code(&["serve", "--host", "300.0.0.1", "--port", "1"]),
        Some(2),
        "bind failure exits 2"
    );
    assert_eq!(code(&["client"]), Some(2), "client without ADDR/OP is a usage error");
    assert_eq!(
        code(&["client", "127.0.0.1:9", "ping"]),
        Some(1),
        "unreachable daemon is a runtime failure"
    );
}
