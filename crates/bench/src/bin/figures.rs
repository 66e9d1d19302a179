//! Regenerate the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p asd-bench --bin figures            # everything
//! cargo run --release -p asd-bench --bin figures fig5 fig13 # a subset
//! ```
//!
//! `smt` is included in `all` but is by far the slowest item (it runs all
//! 30 benchmarks under three configurations with two threads each).
//!
//! Every requested figure resolves to a declarative
//! `asd_sim::pipeline::FigurePlan` (its simulation jobs plus an assembly
//! closure), and the whole set executes as **one job graph** through
//! `asd_sim::pipeline::Pipeline`: jobs shared between figures (the NP
//! baselines of the suites, the arena, and `sched`, for example) are
//! deduplicated at submission, all unique jobs drain through one
//! work-stealing queue with no per-figure barrier, and each figure's
//! table is assembled the moment its last dependency lands. Figure text
//! prints in the fixed catalog order. Set `ASD_SWEEP_THREADS=1` to force
//! serial execution; the output is bit-identical at every thread count.
//!
//! Besides the human-readable tables on stdout, the binary writes
//! `BENCH_figures.json` to the working directory: one record per figure
//! regenerated, with its wall-clock time and headline metrics, under the
//! `asd-bench-figures/1` schema, plus a `pipeline` block with the
//! scheduler's dedup counters and the end-to-end wall time. Figures
//! overlap, so a figure's `wall_ms` is its time-to-ready measured from
//! pipeline start, and the per-figure values (summed in
//! `pipeline.figure_wall_sum_ms`) do not add up to
//! `pipeline.total_wall_ms`. Set `ASD_FIGURES_JSON` to change the output
//! path, or to `-` to suppress the file. `ASD_FIGURES_ACCESSES` overrides
//! the run length for *every* figure uniformly (suppressing the
//! catalog's per-figure size overrides) — the thread-count identity tests
//! use it to keep full catalog runs cheap.
//!
//! The `telemetry` item runs one fully-instrumented PMS simulation and
//! prints the registry-derived summary (Figure 13 ratios, CAQ occupancy,
//! DRAM power breakdown); set `ASD_TELEMETRY_DIR` to also write the
//! Prometheus text, Chrome trace-event JSON, and CSV renderings there.
//!
//! The `arena` item runs the prefetcher tournament: every registered
//! engine (built-ins plus the `asd-engines` zoo) over all 30 profiles,
//! ranked into a league table. `ASD_ARENA_ENGINES` and
//! `ASD_ARENA_PROFILES` (comma-separated names) restrict the roster
//! and workload set — the CI smoke runs 2 engines over 2 profiles.

use asd_bench::full_opts;
use asd_bench::json::Value;
use asd_sim::arena::{arena_plan, default_roster};
use asd_sim::figures::plan_sized;
use asd_sim::pipeline::{FigureOutput, FigurePlan, MetricValue, Pipeline, PipelineStats};
use asd_sim::RunOpts;
use asd_telemetry::{names, Registry, TelemetryConfig, Unit};
use asd_trace::suites;
use std::time::Instant;

/// Every figure the binary can regenerate, in print order (`all` runs
/// the whole list top to bottom; a subset keeps this relative order).
const CATALOG: [&str; 20] = [
    "fig2",
    "fig3",
    "fig5",
    "fig8",
    "fig6",
    "fig9",
    "fig7",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "cost",
    "sched",
    "arena",
    "telemetry",
    "ablations",
    "smt",
];

/// Collects one record per regenerated figure. Wall-clock times live on a
/// telemetry registry (`bench.<figure>.wall_ms` gauges), and the JSON
/// document reads them back from the snapshot — the same source of truth
/// the exposition backends use.
struct Report {
    figures: Vec<(String, Value)>,
    tel: Registry,
}

impl Report {
    fn new() -> Self {
        Report {
            figures: Vec::new(),
            tel: Registry::section("bench.", &TelemetryConfig::metrics_only()),
        }
    }

    /// Record a figure: name, wall time to its completion (time-to-ready
    /// from pipeline start; figures overlap), and its metrics.
    fn add(&mut self, name: &str, wall_ms: f64, metrics: Value) {
        self.tel.fill_gauge(
            &format!("{name}.wall_ms"),
            Unit::Millis,
            "host wall-clock time to this figure's completion",
            wall_ms,
        );
        self.figures.push((name.to_string(), metrics));
    }

    fn document(mut self, opts: &RunOpts, stats: &PipelineStats, total_wall_ms: f64) -> Value {
        // Surface the cross-figure run cache and the run's trace memo
        // through the same registry the wall-time gauges live on, so every
        // exposition backend (and this JSON document) sees how much of the
        // pipeline was deduplicated.
        let (run_hits, run_misses) = asd_sim::cache::global().stats();
        for (name, help, v) in [
            ("cache.run_hits", "figure points served from the cross-figure run cache", run_hits),
            ("cache.run_misses", "figure points actually simulated", run_misses),
            (
                "cache.trace_hits",
                "per-thread trace reads the run's trace memo served",
                stats.traces_served,
            ),
            (
                "cache.trace_misses",
                "per-thread traces the run's trace memo generated",
                stats.traces_generated,
            ),
        ] {
            self.tel.fill_gauge(name, Unit::Events, help, v as f64);
        }
        // The scheduler's own counters, under `bench.pipeline.*`.
        for (metric, unit, help, v) in [
            (
                "figures",
                Unit::Events,
                "figures regenerated by this invocation",
                stats.figures as f64,
            ),
            (
                "submitted_jobs",
                Unit::Events,
                "simulation jobs requested across all figures, before dedup",
                stats.submitted_jobs as f64,
            ),
            (
                "unique_jobs",
                Unit::Events,
                "distinct simulation jobs actually scheduled",
                stats.unique_jobs as f64,
            ),
            (
                "inflight_joins",
                Unit::Events,
                "jobs that joined another figure's identical job instead of re-running",
                stats.inflight_joins as f64,
            ),
            (
                "peak_live_jobs",
                Unit::Events,
                "high-water mark of job results held live at once",
                stats.peak_live_jobs as f64,
            ),
            (
                "peak_trace_bytes",
                Unit::None,
                "high-water mark of memoized trace bytes the run held at once",
                stats.peak_trace_bytes as f64,
            ),
            (
                "total_wall_ms",
                Unit::Millis,
                "end-to-end wall time across every requested figure",
                total_wall_ms,
            ),
        ] {
            self.tel.fill_gauge(&names::pipeline_metric(metric), unit, help, v);
        }
        let snap = self.tel.snapshot();
        // Summed per-figure times-to-ready, reported beside the true total.
        let wall_sum: f64 = self
            .figures
            .iter()
            .map(|(name, _)| snap.gauge(&format!("bench.{name}.wall_ms")).unwrap_or(0.0))
            .sum();
        let mut cache = Value::obj();
        cache.set("enabled", asd_sim::cache::enabled());
        for key in ["run_hits", "run_misses", "trace_hits", "trace_misses"] {
            cache.set(key, snap.gauge(&format!("bench.cache.{key}")).unwrap_or(0.0));
        }
        let mut pipe = Value::obj();
        for key in [
            "figures",
            "submitted_jobs",
            "unique_jobs",
            "inflight_joins",
            "peak_live_jobs",
            "peak_trace_bytes",
        ] {
            let name = format!("bench.{}", names::pipeline_metric(key));
            pipe.set(key, snap.gauge(&name).unwrap_or(0.0));
        }
        let total = snap
            .gauge(&format!("bench.{}", names::pipeline_metric("total_wall_ms")))
            .unwrap_or(0.0);
        pipe.set("total_wall_ms", total);
        pipe.set("figure_wall_sum_ms", wall_sum);
        let mut o = Value::obj();
        o.set("accesses", opts.accesses).set("seed", opts.seed);
        let mut doc = Value::obj();
        doc.set("schema", "asd-bench-figures/1");
        doc.set("opts", o);
        doc.set("cache", cache);
        doc.set("pipeline", pipe);
        let rows = self
            .figures
            .into_iter()
            .map(|(name, metrics)| {
                let mut rec = Value::obj();
                let wall = snap.gauge(&format!("bench.{name}.wall_ms")).unwrap_or(0.0);
                rec.set("name", name);
                rec.set("wall_ms", wall);
                rec.set("metrics", metrics);
                rec
            })
            .collect();
        doc.set("figures", Value::Arr(rows));
        doc
    }
}

/// Convert a figure's typed metric to the report's JSON value.
fn metric_to_json(v: MetricValue) -> Value {
    match v {
        MetricValue::U64(n) => Value::from(n),
        MetricValue::F64(n) => Value::from(n),
        MetricValue::Str(s) => Value::from(s),
        MetricValue::Rows(rows) => Value::Arr(
            rows.into_iter()
                .map(|row| {
                    let mut o = Value::obj();
                    for (k, v) in row {
                        o.set(&k, metric_to_json(v));
                    }
                    o
                })
                .collect(),
        ),
    }
}

fn metrics_to_json(metrics: Vec<(String, MetricValue)>) -> Value {
    let mut m = Value::obj();
    for (k, v) in metrics {
        m.set(&k, metric_to_json(v));
    }
    m
}

/// Parse a comma-separated env list (empty entries dropped).
fn env_list(var: &str) -> Option<Vec<String>> {
    let raw = std::env::var(var).ok()?;
    Some(raw.split(',').map(str::trim).filter(|s| !s.is_empty()).map(String::from).collect())
}

/// The arena plan honoring the `ASD_ARENA_ENGINES` / `ASD_ARENA_PROFILES`
/// restrictions (full roster over all 30 profiles by default).
fn arena_env_plan(opts: &RunOpts) -> Result<FigurePlan, asd_sim::SimError> {
    let roster = env_list("ASD_ARENA_ENGINES").unwrap_or_else(default_roster);
    let engines: Vec<&str> = roster.iter().map(String::as_str).collect();
    let profiles = match env_list("ASD_ARENA_PROFILES") {
        Some(names) => names
            .iter()
            .map(|n| {
                suites::by_name(n)
                    .ok_or_else(|| asd_sim::SimError::UnknownProfile { name: n.clone() })
            })
            .collect::<Result<Vec<_>, _>>()?,
        None => suites::all_profiles(),
    };
    arena_plan(&engines, &profiles, opts)
}

/// Resolve one catalog name to its plan. The arena goes through the env
/// roster; everything else comes straight from the figure catalog.
fn build_plan(name: &str, opts: &RunOpts, uniform: bool) -> Result<FigurePlan, asd_sim::SimError> {
    if name == "arena" {
        return arena_env_plan(opts);
    }
    plan_sized(name, opts, uniform)
}

/// Write a figure's artifact bodies (the telemetry demo's exposition
/// renderings) into `dir`, created if needed.
fn write_artifacts(dir: &str, artifacts: &[(String, String)]) {
    let dir = std::path::Path::new(dir);
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("figures: could not create {}: {e}", dir.display());
        return;
    }
    for (file, body) in artifacts {
        let path = dir.join(file);
        match std::fs::write(&path, body) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => eprintln!("figures: could not write {}: {e}", path.display()),
        }
    }
}

/// Print one finished figure, write its artifacts if a target directory
/// is configured, and record it in the report.
fn emit(report: &mut Report, name: &str, wall_ms: f64, output: FigureOutput) {
    println!("{}\n", output.text);
    if !output.artifacts.is_empty() {
        if let Ok(dir) = std::env::var("ASD_TELEMETRY_DIR") {
            if dir != "-" && !dir.is_empty() {
                write_artifacts(&dir, &output.artifacts);
            }
        }
    }
    report.add(name, wall_ms, metrics_to_json(output.metrics));
}

/// Submit every plan into one job graph, run it, print the outputs in
/// catalog order, and return the graph's counters.
fn run_graph(
    selected: &[&str],
    opts: &RunOpts,
    uniform: bool,
    report: &mut Report,
    t0: Instant,
) -> Result<PipelineStats, asd_sim::SimError> {
    let mut pipe = Pipeline::new();
    for name in selected {
        pipe.submit(build_plan(name, opts, uniform)?);
    }
    eprintln!(
        "pipeline: {} figures, {} jobs ({} unique, {} deduplicated at submission)...",
        pipe.figure_count(),
        pipe.submitted_jobs(),
        pipe.unique_jobs(),
        pipe.inflight_joins(),
    );
    let run = pipe.run(&|| t0.elapsed().as_secs_f64() * 1e3)?;
    for fig in run.figures {
        emit(report, &fig.name, fig.wall_ms, fig.output);
    }
    Ok(run.stats)
}

fn main() -> std::process::ExitCode {
    match run() {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("figures: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), asd_sim::SimError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = args.is_empty() || args.iter().any(|a| a == "all");
    let want = |name: &str| all || args.iter().any(|a| a == name);
    let selected: Vec<&str> = CATALOG.iter().copied().filter(|n| want(n)).collect();

    // Uniform sizing: override every figure's run length, including the
    // catalog's per-figure absolute overrides (fig3, smt).
    let (opts, uniform) =
        match std::env::var("ASD_FIGURES_ACCESSES").ok().and_then(|v| v.parse::<u64>().ok()) {
            Some(n) => (full_opts().with_accesses(n), true),
            None => (full_opts(), false),
        };

    let mut report = Report::new();
    let t0 = Instant::now();
    let stats = run_graph(&selected, &opts, uniform, &mut report, t0)?;
    let total_wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    let json_path =
        std::env::var("ASD_FIGURES_JSON").unwrap_or_else(|_| "BENCH_figures.json".to_string());
    if json_path != "-" {
        let doc = report.document(&opts, &stats, total_wall_ms);
        match std::fs::write(&json_path, doc.render() + "\n") {
            Ok(()) => eprintln!("wrote {json_path}"),
            Err(e) => eprintln!("figures: could not write {json_path}: {e}"),
        }
    }
    Ok(())
}
