//! The `replay` workload: record a seeded ASDT corpus of every suite
//! profile, then replay it through `System::new(..).run()` under every
//! engine, the way the paper evaluates ASD on recorded traces.

use crate::layers;
use crate::util::{fnv64, thread_cpu_ns, Calibrator, Flags, Obj, SpanId, Spans, SplitMix64};
use asd_sim::{engine_names, PrefetchKind, RunOpts, RunResult, System, SystemConfig, TraceSource};
use asd_trace::suites::{self, Suite};
use asd_trace::WorkloadProfile;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Accesses recorded per hardware thread.
pub const ACCESSES: u64 = 20_000;
/// Times the corpus is recorded during set-up; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Timed jobs between calibration measurements.
const CAL_EVERY: usize = 10;
/// Jobs re-run through the generate path after the timed phase.
const CHECK_JOBS: usize = 4;

/// One recorded trace of the corpus.
pub struct Trace {
    pub profile: WorkloadProfile,
    pub threads: u8,
    pub path: PathBuf,
}

struct Job {
    trace: usize,
    config: String,
}

/// Every `engine_names()` engine with the processor-side prefetcher off,
/// plus the paper's PS and PMS.
pub fn config_labels() -> Vec<String> {
    let mut labels = engine_names();
    labels.push("PS".to_string());
    labels.push("PMS".to_string());
    labels
}

fn system_config(label: &str, threads: usize) -> Result<SystemConfig, String> {
    match label {
        "PS" => Ok(SystemConfig::for_kind(PrefetchKind::Ps, threads)),
        "PMS" => Ok(SystemConfig::for_kind(PrefetchKind::Pms, threads)),
        engine => SystemConfig::for_kind(PrefetchKind::Np, threads)
            .with_engine_named(engine)
            .map_err(|e| e.to_string()),
    }
}

/// Record single-thread traces of all profiles, plus two-thread SMT
/// traces of the commercial suite, into `dir`.
pub fn record_corpus(
    dir: &Path,
    seed: u64,
    spans: &mut Spans,
    parent: SpanId,
) -> Result<Vec<Trace>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let mut traces = Vec::new();
    for profile in suites::all_profiles() {
        let smt = suites::suite_of(&profile.name) == Some(Suite::Commercial);
        for threads in if smt { &[1u8, 2][..] } else { &[1u8][..] } {
            let path = dir.join(format!("{}-t{threads}.asdt", profile.name));
            let s = spans.open("traceio.record_profile", traces.len() as u64, Some(parent));
            asd_traceio::record_profile(&path, &profile, seed, *threads, ACCESSES)
                .map_err(|e| format!("recording {}: {e}", path.display()))?;
            spans.close(s);
            traces.push(Trace { profile: profile.clone(), threads: *threads, path });
        }
    }
    Ok(traces)
}

fn opts(trace: &Trace, seed: u64) -> RunOpts {
    RunOpts { accesses: ACCESSES, seed, smt: trace.threads == 2 }
}

struct Timed {
    result: RunResult,
    build_ns: u64,
    run_ns: u64,
}

fn run_replay(
    trace: &Trace,
    label: &str,
    seed: u64,
    spans: &mut Spans,
    job: SpanId,
) -> Result<Timed, String> {
    let cfg = system_config(label, usize::from(trace.threads))?
        .with_trace(TraceSource::replay(&trace.path));
    let s = spans.open("sim.System::new", 0, Some(job));
    let t0 = Instant::now();
    let system = System::new(cfg, &trace.profile, &opts(trace, seed)).map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    spans.close(s);
    let s = spans.open("sim.System::run", 0, Some(job));
    let result = system.with_label(label).run();
    let t2 = Instant::now();
    spans.close(s);
    Ok(Timed { result, build_ns: nanos(t1 - t0), run_ns: nanos(t2 - t1) })
}

fn run_generate(trace: &Trace, label: &str, seed: u64) -> Result<RunResult, String> {
    let cfg = system_config(label, usize::from(trace.threads))?;
    let system = System::new(cfg, &trace.profile, &opts(trace, seed)).map_err(|e| e.to_string())?;
    Ok(system.with_label(label).run())
}

fn digest(r: &RunResult) -> u64 {
    fnv64(format!("{r:?}").as_bytes())
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Every timed job execution, in the order they ran.
#[derive(Default)]
struct Execs {
    job: Vec<f64>,
    /// (executions before it, time) of each calibration measurement: one
    /// before every `CAL_EVERY` executions and one after the last.
    cal: Vec<(f64, f64)>,
    build_ms: Vec<f64>,
    run_ms: Vec<f64>,
    cpu_ms: Vec<f64>,
}

/// Deterministic model outputs summed over one pass of the corpus.
#[derive(Default, Clone, Copy)]
struct Model {
    cycles: u64,
    prefetches_issued: u64,
    covered_reads: u64,
    activations: u64,
}

pub fn main(flags: &Flags) -> Result<String, String> {
    let seed: u64 = flags.num("seed")?;
    let seconds: f64 = flags.num("seconds")?;
    let dir = PathBuf::from(flags.str("dir")?);
    let spans_path = flags.opt("spans").map(PathBuf::from);
    let with_layers = flags.opt("layers") == Some("1");
    let mut spans = Spans::new(spans_path.is_some());

    // Set-up: record the corpus several times, each between calibration
    // samples; keep the last recording.
    let mut cal = Calibrator::new();
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut setup_cal_ms = vec![cal.measure_ms()];
    let mut traces = Vec::new();
    for rep in 0..SETUP_REPS {
        let rep_dir = dir.join(format!("corpus{rep}"));
        let s = spans.open("replay.setup", rep as u64, None);
        let t0 = Instant::now();
        traces = record_corpus(&rep_dir, seed, &mut spans, s)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        spans.close(s);
        setup_cal_ms.push(cal.measure_ms());
        if rep + 1 < SETUP_REPS {
            std::fs::remove_dir_all(&rep_dir)
                .map_err(|e| format!("removing {}: {e}", rep_dir.display()))?;
        }
    }
    let mut corpus_bytes = Vec::new();
    for t in &traces {
        corpus_bytes.extend(
            std::fs::read(&t.path).map_err(|e| format!("reading {}: {e}", t.path.display()))?,
        );
    }

    let labels = config_labels();
    let mut jobs: Vec<Job> = (0..traces.len())
        .flat_map(|trace| labels.iter().map(move |l| Job { trace, config: l.clone() }))
        .collect();
    SplitMix64::new(seed ^ 0x7265_706c_6179).shuffle(&mut jobs);
    let job_names: Vec<String> = jobs
        .iter()
        .map(|j| {
            format!("{}/t{}/{}", traces[j.trace].profile.name, traces[j.trace].threads, j.config)
        })
        .collect();

    // Timed phase: passes over the job list until the time is up. The
    // first pass always completes, so every job runs at least once, and
    // every repetition must reproduce the job's first result exactly.
    let deadline = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut exec = Execs::default();
    let mut job_accesses = vec![0.0; jobs.len()];
    let mut digests: Vec<Option<u64>> = vec![None; jobs.len()];
    let mut model = Model::default();
    let mut passes = 0u64;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut failures: Vec<String> = Vec::new();
    let mut fail = |msg: String| {
        failed += 1;
        if failures.len() < 20 {
            failures.push(msg);
        }
    };
    'passes: loop {
        for (k, job) in jobs.iter().enumerate() {
            if passes > 0 && start.elapsed() >= deadline {
                break 'passes;
            }
            attempted += 1;
            let trace = &traces[job.trace];
            if exec.job.len() % CAL_EVERY == 0 {
                exec.cal.push((exec.job.len() as f64, cal.measure_ms()));
            }
            let js = spans.open("replay.job", attempted, None);
            let cpu0 = thread_cpu_ns();
            let timed = run_replay(trace, &job.config, seed, &mut spans, js);
            let cpu_ns = thread_cpu_ns().saturating_sub(cpu0);
            spans.close(js);
            let t = match timed {
                Ok(t) => t,
                Err(e) => {
                    fail(format!("{}: {e}", job_names[k]));
                    continue;
                }
            };
            let r = &t.result;
            let d = digest(r);
            match digests[k] {
                None => {
                    digests[k] = Some(d);
                    job_accesses[k] = r.core.accesses as f64;
                    model.cycles += r.cycles;
                    model.prefetches_issued += r.mc.prefetches_issued;
                    model.covered_reads += r.mc.covered_reads();
                    model.activations += r.dram.activations;
                }
                Some(first) if first != d => {
                    fail(format!("{}: result differs between repetitions", job_names[k]))
                }
                Some(_) => {}
            }
            if r.core.accesses != ACCESSES * u64::from(trace.threads) {
                fail(format!("{}: simulated {} accesses", job_names[k], r.core.accesses));
            }
            exec.job.push(k as f64);
            exec.build_ms.push(t.build_ns as f64 / 1e6);
            exec.run_ms.push(t.run_ns as f64 / 1e6);
            exec.cpu_ms.push(cpu_ns as f64 / 1e6);
        }
        passes += 1;
        if start.elapsed() >= deadline {
            break;
        }
    }
    let timed_s = start.elapsed().as_secs_f64();
    exec.cal.push((exec.job.len() as f64, cal.measure_ms()));

    // Check: Capture ≡ Generate, so a seeded sample of jobs run from the
    // in-memory generator must match the replayed results bit for bit.
    let mut rng = SplitMix64::new(seed ^ 0x63_6865_636b);
    for _ in 0..CHECK_JOBS {
        let k = rng.below(jobs.len());
        let job = &jobs[k];
        attempted += 1;
        match run_generate(&traces[job.trace], &job.config, seed) {
            Ok(r) if Some(digest(&r)) == digests[k] => {}
            Ok(_) => fail(format!("{}: generate path differs from replay", job_names[k])),
            Err(e) => fail(format!("{}: generate path: {e}", job_names[k])),
        }
    }

    let mut out = Obj::new()
        .nums("setup_s", &setup_s)
        .nums("setup_cal_ms", &setup_cal_ms)
        .int("jobs", jobs.len() as u64)
        .int("accesses_per_thread", ACCESSES)
        .int("passes", passes)
        .num("timed_s", timed_s)
        .nums("job_accesses", &job_accesses)
        .nums("exec_job", &exec.job)
        .nums("exec_build_ms", &exec.build_ms)
        .nums("exec_run_ms", &exec.run_ms)
        .nums("exec_cpu_ms", &exec.cpu_ms)
        .nums("cal_at", &exec.cal.iter().map(|c| c.0).collect::<Vec<_>>())
        .nums("cal_ms", &exec.cal.iter().map(|c| c.1).collect::<Vec<_>>())
        .num("cal_nominal_ms", Calibrator::NOMINAL_MS)
        .int("attempted", attempted)
        .int("failed", failed)
        .strs("failures", &failures)
        .str("job_list_digest", &format!("{:016x}", fnv64(job_names.join("\n").as_bytes())))
        .str("corpus_digest", &format!("{:016x}", fnv64(&corpus_bytes)))
        .int("corpus_bytes", corpus_bytes.len() as u64)
        .raw(
            "model",
            &Obj::new()
                .int("cycles", model.cycles)
                .int("prefetches_issued", model.prefetches_issued)
                .int("covered_reads", model.covered_reads)
                .int("activations", model.activations)
                .finish(),
        );
    if with_layers {
        let s = spans.open("replay.layers", 0, None);
        let split = layers::split(&traces, seed, &mut spans, s)?;
        spans.close(s);
        out = out.raw("layers", &split);
    }
    if let Some(path) = spans_path {
        spans.write(&path).map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(out.finish())
}
