//! Cross-process sharding: split one sweep job's chunks between N
//! worker subprocesses of this same binary.
//!
//! The dispatcher re-serializes the job spec to each worker (so every
//! process builds the identical job list through
//! [`crate::proto::build_sweep`]), then drives the shared
//! [`Chunker`](asd_sim::sweep::Chunker) discipline over pipes: each
//! worker-feeder thread claims a range from the job's
//! [`Scheduler`], sends `R <start> <end>` on
//! the worker's stdin, and deposits the wire-decoded results under
//! their push indices — so the merged output is byte-identical to an
//! in-process [`Sweep::run`](asd_sim::sweep::Sweep::run), regardless of shard count or scheduling.
//!
//! A worker that dies or breaks protocol ([`ServeError::ShardWorker`])
//! does not fail the job: its feeder thread recomputes the affected
//! range locally and keeps claiming, degraded to in-process execution.
//! Workers inherit the parent's disk-cache directory via the
//! `ASD_DISK_CACHE` environment variable, so shards dedupe through the
//! same persistent tier.

use crate::error::ServeError;
use crate::proto::{build_sweep, read_frame, write_frame, write_json, JobSpec};
use asd_sim::sweep::Scheduler;
use asd_sim::{RunResult, SimError};
use asd_traceio::format::{get_varint, put_varint};
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;

/// Encode one claimed range's outcomes: per job a tag byte (1 = ok,
/// 0 = error), a varint length, and either the wire-encoded result or
/// the rendered error text.
pub fn encode_chunk(results: &[Result<RunResult, SimError>]) -> Vec<u8> {
    let mut buf = Vec::new();
    for r in results {
        match r.as_ref().ok().and_then(asd_sim::wire::encode_result) {
            Some(bytes) => {
                buf.push(1);
                put_varint(&mut buf, bytes.len() as u64);
                buf.extend_from_slice(&bytes);
            }
            None => {
                let text = match r {
                    Ok(_) => "result not wire-encodable".to_string(),
                    Err(e) => e.to_string(),
                };
                buf.push(0);
                put_varint(&mut buf, text.len() as u64);
                buf.extend_from_slice(text.as_bytes());
            }
        }
    }
    buf
}

/// Decode a chunk of exactly `expected` outcomes. `None` on any
/// structural corruption — the dispatcher then recomputes the range
/// locally rather than trusting partial bytes.
pub fn decode_chunk(buf: &[u8], expected: usize) -> Option<Vec<Result<RunResult, String>>> {
    let mut out = Vec::with_capacity(expected);
    let mut pos = 0usize;
    for _ in 0..expected {
        let tag = *buf.get(pos)?;
        pos += 1;
        let len = usize::try_from(get_varint(buf, &mut pos)?).ok()?;
        let end = pos.checked_add(len)?;
        let body = buf.get(pos..end)?;
        pos = end;
        match tag {
            1 => out.push(Ok(asd_sim::wire::decode_result(body)?)),
            0 => out.push(Err(String::from_utf8(body.to_vec()).ok()?)),
            _ => return None,
        }
    }
    if pos != buf.len() {
        return None;
    }
    Some(out)
}

fn spawn_worker(shard: usize) -> Result<Child, ServeError> {
    let exe = std::env::current_exe()
        .map_err(|e| ServeError::ShardWorker { shard, message: format!("no current_exe: {e}") })?;
    let disk = asd_sim::cache::global()
        .disk_dir()
        .map_or_else(|| "0".to_string(), |d| d.display().to_string());
    Command::new(exe)
        .arg("shard-worker")
        .env("ASD_DISK_CACHE", disk)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| ServeError::ShardWorker { shard, message: format!("spawn failed: {e}") })
}

/// One feeder's channel to its worker subprocess.
struct WorkerPipe {
    child: Child,
    stdin: std::process::ChildStdin,
    stdout: BufReader<std::process::ChildStdout>,
}

fn open_pipe(shard: usize, spec: &JobSpec) -> Result<WorkerPipe, ServeError> {
    let mut child = spawn_worker(shard)?;
    let dead = |what: &str| ServeError::ShardWorker { shard, message: what.to_string() };
    let mut stdin = child.stdin.take().ok_or_else(|| dead("no stdin pipe"))?;
    let stdout = child.stdout.take().ok_or_else(|| dead("no stdout pipe"))?;
    write_json(&mut stdin, &spec.to_value())
        .map_err(|e| dead(&format!("spec handoff failed: {e}")))?;
    Ok(WorkerPipe { child, stdin, stdout: BufReader::new(stdout) })
}

fn roundtrip(
    pipe: &mut WorkerPipe,
    shard: usize,
    start: usize,
    end: usize,
) -> Result<Vec<Result<RunResult, String>>, ServeError> {
    let dead = |message: String| ServeError::ShardWorker { shard, message };
    pipe.stdin
        .write_all(format!("R {start} {end}\n").as_bytes())
        .and_then(|()| pipe.stdin.flush())
        .map_err(|e| dead(format!("request write failed: {e}")))?;
    let frame = read_frame(&mut pipe.stdout)
        .map_err(|e| dead(format!("result read failed: {e}")))?
        .ok_or_else(|| dead("worker closed its pipe mid-job".to_string()))?;
    decode_chunk(&frame, end - start)
        .ok_or_else(|| dead("worker returned a corrupt result chunk".to_string()))
}

/// Run a sweep spec across `shards` local worker subprocesses and merge
/// push-order-deterministically. Returns the results plus any
/// [`ServeError::ShardWorker`] warnings survived via local fallback.
///
/// # Errors
///
/// The earliest (push-order) failing job's [`SimError`], exactly like
/// [`Sweep::run`](asd_sim::sweep::Sweep::run) — worker deaths alone never fail the job.
pub fn run_sharded(
    spec: &JobSpec,
    shards: usize,
    progress: &(dyn Fn(usize, usize) + Sync),
) -> Result<(Vec<RunResult>, Vec<ServeError>), ServeError> {
    let sweep = build_sweep(spec).map_err(ServeError::Sim)?;
    let total = sweep.len();
    let shards = shards.clamp(1, total.max(1));
    let sched: Scheduler<Result<RunResult, String>> = Scheduler::new(total, shards);
    let warnings: Mutex<Vec<ServeError>> = Mutex::new(Vec::new());
    let warn = |e: ServeError| {
        // asd-lint: allow(D005) -- warnings list poisoning means a sibling feeder panicked; propagating is correct
        warnings.lock().expect("warnings poisoned").push(e);
    };
    std::thread::scope(|scope| {
        for shard in 0..shards {
            let sweep = &sweep;
            let sched = &sched;
            let warn = &warn;
            scope.spawn(move || {
                let mut pipe = match open_pipe(shard, spec) {
                    Ok(p) => Some(p),
                    Err(e) => {
                        warn(e);
                        None
                    }
                };
                while let Some((start, end)) = sched.claim() {
                    let outcome = match pipe.as_mut() {
                        Some(p) => match roundtrip(p, shard, start, end) {
                            Ok(items) => Some(items),
                            Err(e) => {
                                warn(e);
                                pipe = None;
                                None
                            }
                        },
                        None => None,
                    };
                    // Worker gone (or never started): run this range in
                    // process. Determinism is untouched — the same jobs
                    // land in the same slots.
                    let items = outcome.unwrap_or_else(|| {
                        sweep
                            .run_range(start, end)
                            .into_iter()
                            .map(|r| r.map_err(|e| e.to_string()))
                            .collect()
                    });
                    for (offset, item) in items.into_iter().enumerate() {
                        sched.deposit(start + offset, item);
                        progress(sched.done(), total);
                    }
                }
                if let Some(mut p) = pipe {
                    // Best-effort quit + reap: every chunk is already
                    // deposited, so the worker's exit status carries no
                    // information the job still needs.
                    let _ = p.stdin.write_all(b"Q\n");
                    let _ = p.stdin.flush();
                    drop(p.stdin);
                    // asd-lint: allow(D013) -- reaping an already-drained worker; failure leaves only a zombie
                    let _ = p.child.wait();
                }
            });
        }
    });
    let merged = sched.into_results().ok_or_else(|| ServeError::Io {
        context: "merging shard results".to_string(),
        message: "a result slot was left unfilled".to_string(),
    })?;
    // Push-order error selection, with errors re-run locally to recover
    // the typed SimError the wire protocol flattened to text.
    let mut out = Vec::with_capacity(total);
    for (index, item) in merged.into_iter().enumerate() {
        match item {
            Ok(r) => out.push(r),
            Err(_) => match sweep.run_range(index, index + 1).pop() {
                Some(Ok(r)) => out.push(r),
                Some(Err(e)) => return Err(ServeError::Sim(e)),
                None => {
                    return Err(ServeError::Io {
                        context: "recomputing failed shard job".to_string(),
                        message: format!("job {index} vanished"),
                    })
                }
            },
        }
    }
    // asd-lint: allow(D005) -- the scope joined all feeders: the warnings mutex cannot be poisoned here
    let warnings = warnings.into_inner().expect("warnings poisoned");
    Ok((out, warnings))
}

/// The `shard-worker` subprocess entry point: read the spec frame on
/// stdin, then serve `R <start> <end>` range requests with binary result
/// frames on stdout until `Q` or EOF. Returns the process exit code.
pub fn worker_main() -> u8 {
    let stdin = std::io::stdin();
    let mut input = stdin.lock();
    let stdout = std::io::stdout();
    let mut output = stdout.lock();
    let spec = match crate::proto::read_json(&mut input) {
        Ok(Some(v)) => match crate::proto::parse_spec(&v) {
            Ok(spec) => spec,
            Err(e) => {
                eprintln!("shard-worker: bad spec: {e}");
                return 2;
            }
        },
        Ok(None) => return 0,
        Err(e) => {
            eprintln!("shard-worker: {e}");
            return 2;
        }
    };
    let sweep = match build_sweep(&spec) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("shard-worker: {e}");
            return 2;
        }
    };
    let mut line = String::new();
    loop {
        line.clear();
        match input.read_line(&mut line) {
            Ok(0) => return 0,
            Ok(_) => {}
            Err(e) => {
                eprintln!("shard-worker: stdin: {e}");
                return 1;
            }
        }
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.as_slice() {
            ["Q"] => return 0,
            ["R", a, b] => {
                let (Ok(start), Ok(end)) = (a.parse::<usize>(), b.parse::<usize>()) else {
                    eprintln!("shard-worker: bad range `{}`", line.trim());
                    return 1;
                };
                let chunk = encode_chunk(&sweep.run_range(start, end));
                if let Err(e) = write_frame(&mut output, &chunk) {
                    eprintln!("shard-worker: stdout: {e}");
                    return 1;
                }
            }
            [] => {}
            _ => {
                eprintln!("shard-worker: bad request `{}`", line.trim());
                return 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asd_sim::{PrefetchKind, RunOpts, System, SystemConfig};

    fn results() -> Vec<Result<RunResult, SimError>> {
        let profile = asd_trace::suites::by_name("milc").expect("profile");
        let opts = RunOpts::quick();
        let ok = System::new(SystemConfig::for_kind(PrefetchKind::Ms, 1), &profile, &opts)
            .expect("valid")
            .with_label("MS")
            .run();
        vec![Ok(ok), Err(SimError::UnknownProfile { name: "ghost".into() })]
    }

    #[test]
    fn chunk_codec_roundtrips_ok_and_err() {
        let items = results();
        let bytes = encode_chunk(&items);
        let back = decode_chunk(&bytes, 2).expect("decodes");
        assert_eq!(back.len(), 2);
        let first = back[0].as_ref().expect("ok item");
        if let Ok(orig) = &items[0] {
            assert_eq!(format!("{first:?}"), format!("{orig:?}"));
        }
        let err = back[1].as_ref().expect_err("err item");
        assert!(err.contains("ghost"));
    }

    #[test]
    fn chunk_codec_rejects_corruption() {
        let bytes = encode_chunk(&results());
        assert!(decode_chunk(&bytes, 3).is_none(), "wrong count");
        assert!(decode_chunk(&bytes, 1).is_none(), "trailing bytes");
        for cut in 0..bytes.len() {
            assert!(decode_chunk(&bytes[..cut], 2).is_none(), "cut at {cut}");
        }
        let mut bad = bytes.clone();
        bad[0] = 7;
        assert!(decode_chunk(&bad, 2).is_none(), "bad tag");
    }
}
