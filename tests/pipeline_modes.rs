//! Bit-identity of the `figures` binary across execution modes: the job
//! graph must produce byte-for-byte the same figure text and the same
//! per-figure JSON metrics with the run cache on and off, on one worker
//! thread and on two. Only the bookkeeping blocks (`cache`, `pipeline`,
//! `wall_ms`) may differ between runs.
//!
//! `ASD_RUN_CACHE` is latched once per process, so every combination
//! spawns the real binary (`CARGO_BIN_EXE_figures`) as a subprocess with
//! its own environment. So does the check that an invalid
//! `ASD_SWEEP_THREADS` is an error, which keeps the variable out of this
//! process.

use asd_bench::json::Value;
use std::path::PathBuf;
use std::process::Command;

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
        // Keep the subprocess hermetic: no disk-cache tier, no artifact
        // directory, short uniform runs (6k accesses clears the SLH
        // figures' epoch minimum).
        .env("ASD_DISK_CACHE", "0")
        .env("ASD_TELEMETRY_DIR", "-")
        .env("ASD_FIGURES_ACCESSES", accesses)
        .env("ASD_ARENA_ENGINES", "asd,next-line")
        .env("ASD_ARENA_PROFILES", "milc,lbm")
        .env("ASD_FIGURES_JSON", &path)
        .output()
        .expect("spawn figures binary");
    assert!(
        out.status.success(),
        "{}: figures exited with {:?}\nstderr:\n{}",
        combo.tag,
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let body = std::fs::read_to_string(&path).expect("read JSON report");
    let _ = std::fs::remove_file(&path);
    let doc = asd_bench::json::parse(&body).expect("parse JSON report");
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

fn pipeline_stat(doc: &Value, key: &str) -> f64 {
    doc.get("pipeline")
        .and_then(|p| p.get(key))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("pipeline.{key} missing"))
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

/// Full-catalog identity (every figure, one worker thread against two).
/// Two passes over `figures all` take a while, so this runs only under
/// `cargo test -- --ignored` and in the acceptance sweep.
#[test]
#[ignore = "full catalog; run with --ignored or via scripts/check.sh acceptance"]
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
}

#[test]
fn an_invalid_thread_count_is_an_error() {
    for value in ["0", "-1", "two", "", "1.5"] {
        let out = Command::new(BIN)
            .arg("cost")
            .env("ASD_SWEEP_THREADS", value)
            .env("ASD_FIGURES_JSON", "-")
            .output()
            .expect("spawn figures binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "ASD_SWEEP_THREADS={value:?}\nstderr:\n{stderr}");
        assert!(
            stderr.contains(&format!("invalid ASD_SWEEP_THREADS=`{value}`: expected a positive")),
            "ASD_SWEEP_THREADS={value:?}: the error names the variable and the value\n{stderr}"
        );
        assert!(out.stdout.is_empty(), "ASD_SWEEP_THREADS={value:?}: no figure printed");
    }
}
