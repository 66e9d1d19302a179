//! Bit-identity of the `figures` binary across execution modes: the job
//! graph must produce byte-for-byte the same figure text and the same
//! per-figure JSON metrics with the run cache on and off, on one worker
//! thread and on two. Only the bookkeeping blocks (`cache`, `pipeline`,
//! `wall_ms`) may differ between runs.
//!
//! The modes are the binary's own `ASD_*` settings, which it reads once
//! into its run context, so every combination spawns the real binary
//! (`CARGO_BIN_EXE_figures`) as a subprocess with its own environment. So
//! does the check that an invalid setting or an unknown figure name is
//! refused before anything runs, and the checks that a closed stdout or
//! an unwritable report or artifact path ends the run with exit 1.

use asd_telemetry::json::Value;
use std::path::PathBuf;
use std::process::{Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_figures");

/// A figure subset that provably overlaps: `fig5`/`fig13` both sweep the
/// SPEC suite under NP, and the arena's NP baseline columns re-request
/// the same points — so the job graph has real dedup to find.
const FIGSET: [&str; 3] = ["fig5", "fig13", "arena"];

struct Combo {
    tag: &'static str,
    cache: &'static str,
    threads: &'static str,
}

const MATRIX: [Combo; 4] = [
    Combo { tag: "cache-serial", cache: "1", threads: "1" },
    Combo { tag: "cache-par", cache: "1", threads: "2" },
    Combo { tag: "nocache-serial", cache: "0", threads: "1" },
    Combo { tag: "nocache-par", cache: "0", threads: "2" },
];

struct RunOutput {
    stdout: Vec<u8>,
    doc: Value,
}

fn json_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("asd-pipeline-modes-{}-{tag}.json", std::process::id()))
}

fn run_figures(combo: &Combo, figures: &[&str], accesses: &str) -> RunOutput {
    let path = json_path(combo.tag);
    let _ = std::fs::remove_file(&path);
    let out = Command::new(BIN)
        .args(figures)
        .env("ASD_RUN_CACHE", combo.cache)
        .env("ASD_SWEEP_THREADS", combo.threads)
        // Keep the subprocess hermetic: no artifact directory, short
        // uniform runs (6k accesses clears the SLH figures' epoch
        // minimum).
        .env("ASD_TELEMETRY_DIR", "-")
        .env("ASD_FIGURES_ACCESSES", accesses)
        .env("ASD_ARENA_ENGINES", "asd,next-line")
        .env("ASD_ARENA_PROFILES", "milc,lbm")
        .env("ASD_FIGURES_JSON", &path)
        .output()
        .expect("spawn figures binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{}: figures exited with {:?}\nstderr:\n{stderr}",
        combo.tag,
        out.status.code(),
    );
    // `ASD_SWEEP_THREADS` reaches the executor: the `pipeline:` line
    // names the run context's worker count.
    let workers = format!(" on {} worker thread(s)", combo.threads);
    assert!(stderr.contains(&workers), "{}: expected `{workers}` in\n{stderr}", combo.tag);
    let body = std::fs::read_to_string(&path).expect("read JSON report");
    let _ = std::fs::remove_file(&path);
    let doc = asd_telemetry::json::parse(&body).expect("parse JSON report");
    RunOutput { stdout: out.stdout, doc }
}

/// The comparable core of the JSON report: `(name, rendered metrics)` per
/// figure, dropping the run-dependent `wall_ms` / `cache` / `pipeline`
/// bookkeeping.
fn figure_metrics(doc: &Value) -> Vec<(String, String)> {
    let Some(Value::Arr(rows)) = doc.get("figures") else {
        panic!("report has no figures array");
    };
    rows.iter()
        .map(|row| {
            let name = row.get("name").and_then(Value::as_str).expect("figure name").to_string();
            let metrics = row.get("metrics").expect("figure metrics").render();
            (name, metrics)
        })
        .collect()
}

/// The number at `block.key` in a report.
fn report_stat(doc: &Value, block: &str, key: &str) -> f64 {
    doc.get(block)
        .and_then(|p| p.get(key))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("{block}.{key} missing"))
}

fn pipeline_stat(doc: &Value, key: &str) -> f64 {
    report_stat(doc, "pipeline", key)
}

#[test]
fn figures_match_across_cache_and_thread_modes() {
    let runs: Vec<RunOutput> =
        MATRIX.iter().map(|combo| run_figures(combo, &FIGSET, "6000")).collect();

    let reference_stdout = &runs[0].stdout;
    let reference_metrics = figure_metrics(&runs[0].doc);
    assert_eq!(reference_metrics.len(), FIGSET.len());
    for (combo, run) in MATRIX.iter().zip(&runs).skip(1) {
        assert_eq!(
            run.stdout.as_slice(),
            reference_stdout.as_slice(),
            "{}: stdout diverged from {}",
            combo.tag,
            MATRIX[0].tag
        );
        assert_eq!(
            figure_metrics(&run.doc),
            reference_metrics,
            "{}: figure metrics diverged from {}",
            combo.tag,
            MATRIX[0].tag
        );
    }

    for (combo, run) in MATRIX.iter().zip(&runs) {
        let joins = pipeline_stat(&run.doc, "inflight_joins");
        let submitted = pipeline_stat(&run.doc, "submitted_jobs");
        let unique = pipeline_stat(&run.doc, "unique_jobs");
        assert!(submitted > 0.0, "{}: no jobs submitted", combo.tag);
        if combo.cache == "1" {
            // The whole point of the job graph: overlapping figures share
            // work, so this figure set must dedup.
            assert!(joins > 0.0, "{}: expected in-flight joins, got {joins}", combo.tag);
            assert_eq!(submitted - joins, unique, "{}: join accounting", combo.tag);
        } else {
            // With the cache off, jobs have no identity to dedup on; the
            // graph degenerates to one node per job (identity preserved).
            assert_eq!(joins, 0.0, "{}: cacheless graph cannot join", combo.tag);
            assert_eq!(submitted, unique, "{}", combo.tag);
        }
    }
}

/// Full-catalog identity (every figure, one worker thread against two),
/// and the trace memo's lifetimes: the same traces generated and served
/// on both, and on one worker no more held at once than the largest
/// node's, an SMT pair. A memo that kept a trace across plans, or a plan
/// that listed its jobs engine by engine, would hold many more. Two passes
/// over `figures all` take a while, so this runs only under
/// `cargo test -- --ignored`, which `scripts/check.sh` runs in release.
#[test]
#[ignore = "full catalog; scripts/check.sh runs it with `cargo test --release -p asd-bench --test pipeline_modes -- --ignored`"]
fn full_catalog_matches_across_thread_counts() {
    let serial =
        run_figures(&Combo { tag: "all-serial", cache: "1", threads: "1" }, &["all"], "6000");
    let parallel =
        run_figures(&Combo { tag: "all-par", cache: "1", threads: "2" }, &["all"], "6000");
    assert_eq!(
        String::from_utf8_lossy(&serial.stdout),
        String::from_utf8_lossy(&parallel.stdout),
        "1-thread vs 2-thread stdout over the full catalog"
    );
    assert_eq!(figure_metrics(&serial.doc), figure_metrics(&parallel.doc));
    assert!(pipeline_stat(&parallel.doc, "inflight_joins") > 0.0);
    for key in ["trace_misses", "trace_hits"] {
        let one = report_stat(&serial.doc, "cache", key);
        assert!(one > 0.0, "cache.{key} is 0");
        assert_eq!(one, report_stat(&parallel.doc, "cache", key), "cache.{key}, 1 vs 2 threads");
    }
    let trace = 6_000.0 * 8.0;
    assert_eq!(pipeline_stat(&serial.doc, "peak_trace_bytes"), 2.0 * trace, "1 thread");
    let parallel_peak = pipeline_stat(&parallel.doc, "peak_trace_bytes");
    assert!(parallel_peak <= 10.0 * trace, "2 threads held {parallel_peak} bytes of traces");
}

/// A refused invocation: its arguments, the variable it sets, and what
/// stderr must say.
type Refused = (Vec<&'static str>, Option<(&'static str, &'static str)>, String);

#[test]
fn invalid_settings_and_unknown_figures_are_refused() {
    let mut cases: Vec<Refused> = Vec::new();
    for (var, values, expected) in [
        ("ASD_SWEEP_THREADS", &["0", "-1", "two", "", "1.5"][..], "a positive integer"),
        ("ASD_FIGURES_ACCESSES", &["abc", "0"][..], "a positive integer"),
        ("ASD_RUN_CACHE", &["off"][..], "0 or 1"),
    ] {
        for &value in values {
            let message = format!("invalid {var}=`{value}`: expected {expected}");
            cases.push((vec!["cost"], Some((var, value)), message));
        }
    }
    for args in [vec!["fig99"], vec!["all", "fig99"]] {
        cases.push((args, None, "unknown figure `fig99`".to_string()));
    }
    let json = json_path("refused");
    for (args, var, expected) in cases {
        let _ = std::fs::remove_file(&json);
        let mut cmd = Command::new(BIN);
        cmd.args(&args).env("ASD_FIGURES_JSON", &json);
        if let Some((name, value)) = var {
            cmd.env(name, value);
        }
        let out = cmd.output().expect("spawn figures binary");
        let what = format!("figures {args:?} with {var:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{what}\nstderr:\n{stderr}");
        assert!(stderr.contains(&expected), "{what}: stderr must say `{expected}`\n{stderr}");
        assert!(out.stdout.is_empty(), "{what}: no figure printed");
        assert!(!json.exists(), "{what}: no report written");
    }
}

#[test]
fn a_closed_stdout_ends_the_run_without_a_panic() {
    let json = json_path("closed-stdout");
    let _ = std::fs::remove_file(&json);
    let mut child = Command::new(BIN)
        .arg("fig5")
        .env("ASD_TELEMETRY_DIR", "-")
        .env("ASD_FIGURES_ACCESSES", "2000")
        .env("ASD_FIGURES_JSON", &json)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn figures binary");
    // `fig5` simulates before it prints, so the reader is gone by the
    // first write.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for figures binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr:\n{stderr}");
    assert!(!stderr.contains("panicked"), "stderr:\n{stderr}");
    let failures: Vec<&str> = stderr.lines().filter(|l| l.starts_with("figures:")).collect();
    assert!(
        failures.len() == 1 && failures[0].contains("stdout"),
        "one `figures:` line naming stdout:\n{stderr}"
    );
    assert!(!json.exists(), "no report written after a failed write");
}

#[test]
fn an_unwritable_report_or_artifact_path_exits_1_naming_it() {
    let dir =
        std::env::temp_dir().join(format!("asd-pipeline-modes-{}-unwritable", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let report = dir.join("no-such-dir").join("x.json");
    let regular_file = dir.join("a-file");
    std::fs::write(&regular_file, b"").expect("a regular file");
    for (figure, var, path) in
        [("cost", "ASD_FIGURES_JSON", &report), ("telemetry", "ASD_TELEMETRY_DIR", &regular_file)]
    {
        let out = Command::new(BIN)
            .arg(figure)
            .env("ASD_FIGURES_ACCESSES", "2000")
            .env("ASD_FIGURES_JSON", "-")
            .env("ASD_TELEMETRY_DIR", "-")
            .env(var, path)
            .output()
            .expect("spawn figures binary");
        let what = format!("figures {figure} with {var}={}", path.display());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{what}\nstderr:\n{stderr}");
        let failures: Vec<&str> = stderr.lines().filter(|l| l.starts_with("figures:")).collect();
        assert!(
            failures.len() == 1 && failures[0].contains(&path.display().to_string()),
            "{what}: one `figures:` line naming the path\n{stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
