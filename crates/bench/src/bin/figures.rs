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
//!
//! A name outside the catalog, or an `ASD_*` value outside its accepted
//! set ([`Settings`]), exits 1 before anything runs. A failed write to
//! stdout (a reader that closed the pipe, say) ends the run with exit 1,
//! one `figures:` line on stderr, and no report written. So does a failed
//! write of an artifact or of the report, with the line naming its path.

use asd_bench::full_opts;
use asd_sim::arena::{arena_plan, default_roster};
use asd_sim::figures::{plan_sized, CATALOG};
use asd_sim::pipeline::{FigureOutput, FigurePlan, MetricValue, Pipeline, PipelineStats};
use asd_sim::{RunContext, RunOpts, SimError};
use asd_telemetry::json::Value;
use asd_trace::suites;
use std::error::Error;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::time::Instant;

/// Every `ASD_*` variable `figures` honours (README has the table), read
/// once at the top of [`run`]: the run's one context, and the binary's
/// own settings.
struct Settings {
    ctx: RunContext,
    accesses: Option<u64>,
    json: Option<PathBuf>,
    telemetry_dir: Option<PathBuf>,
    arena_engines: Option<Vec<String>>,
    arena_profiles: Option<Vec<String>>,
}

impl Settings {
    /// Read every variable; one set outside its accepted values is a
    /// [`SimError::InvalidEnv`].
    fn from_env() -> Result<Self, SimError> {
        let memoize = match var("ASD_RUN_CACHE").as_deref() {
            None | Some("1") => true,
            Some("0") => false,
            Some(v) => return Err(invalid("ASD_RUN_CACHE", v, "0 or 1")),
        };
        let path = |name, off| var(name).filter(|v| !v.is_empty() && v != off).map(PathBuf::from);
        let mut ctx = RunContext::default().with_memoize(memoize);
        if let Some(threads) = positive("ASD_SWEEP_THREADS")? {
            ctx = ctx.with_threads(threads);
        }
        if let Some(dir) = path("ASD_DISK_CACHE", "0") {
            ctx = ctx.with_disk_dir(dir);
        }
        Ok(Settings {
            ctx,
            accesses: positive("ASD_FIGURES_ACCESSES")?,
            json: match var("ASD_FIGURES_JSON") {
                None => Some(PathBuf::from("BENCH_figures.json")),
                Some(v) => Some(PathBuf::from(v)).filter(|p| p.as_os_str() != "-"),
            },
            telemetry_dir: path("ASD_TELEMETRY_DIR", "-"),
            arena_engines: list("ASD_ARENA_ENGINES"),
            arena_profiles: list("ASD_ARENA_PROFILES"),
        })
    }
}

/// A variable's value, lossily decoded; `None` when unset.
fn var(name: &str) -> Option<String> {
    std::env::var_os(name).map(|v| v.to_string_lossy().into_owned())
}

fn invalid(var: &str, value: &str, expected: &str) -> SimError {
    SimError::InvalidEnv { var: var.into(), value: value.into(), expected: expected.into() }
}

/// A comma-separated list variable (empty entries dropped).
fn list(name: &str) -> Option<Vec<String>> {
    let names = var(name)?;
    Some(names.split(',').map(str::trim).filter(|s| !s.is_empty()).map(String::from).collect())
}

/// A positive integer variable, `None` when unset.
fn positive<T: FromStr + PartialOrd + Default>(name: &str) -> Result<Option<T>, SimError> {
    let Some(v) = var(name) else { return Ok(None) };
    match v.parse::<T>() {
        Ok(n) if n > T::default() => Ok(Some(n)),
        _ => Err(invalid(name, &v, "a positive integer")),
    }
}

/// One regenerated figure in the report: its name, its wall time to
/// completion (time-to-ready from pipeline start; figures overlap), and
/// its metrics.
type Record = (String, f64, Value);

/// The JSON report: the run options, the context's run-cache counts and
/// the run's trace-memo counts, the job graph's counters with the
/// end-to-end wall time, and one record per figure.
fn document(
    ctx: &RunContext,
    opts: &RunOpts,
    stats: &PipelineStats,
    figures: Vec<Record>,
    total_wall_ms: f64,
) -> Value {
    let (run_hits, run_misses) = ctx.cache().stats();
    let mut cache = Value::obj();
    cache
        .set("enabled", ctx.memoize())
        .set("run_hits", run_hits)
        .set("run_misses", run_misses)
        .set("trace_hits", stats.traces_served)
        .set("trace_misses", stats.traces_generated);
    // Summed per-figure times-to-ready, reported beside the true total.
    let wall_sum: f64 = figures.iter().map(|(_, wall_ms, _)| wall_ms).sum();
    let mut pipe = Value::obj();
    pipe.set("figures", stats.figures)
        .set("submitted_jobs", stats.submitted_jobs)
        .set("unique_jobs", stats.unique_jobs)
        .set("inflight_joins", stats.inflight_joins)
        .set("peak_live_jobs", stats.peak_live_jobs)
        .set("peak_trace_bytes", stats.peak_trace_bytes)
        .set("total_wall_ms", total_wall_ms)
        .set("figure_wall_sum_ms", wall_sum);
    let mut o = Value::obj();
    o.set("accesses", opts.accesses).set("seed", opts.seed);
    let rows = figures
        .into_iter()
        .map(|(name, wall_ms, metrics)| {
            let mut rec = Value::obj();
            rec.set("name", name).set("wall_ms", wall_ms).set("metrics", metrics);
            rec
        })
        .collect();
    let mut doc = Value::obj();
    doc.set("schema", "asd-bench-figures/1")
        .set("opts", o)
        .set("cache", cache)
        .set("pipeline", pipe)
        .set("figures", Value::Arr(rows));
    doc
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

/// The arena plan honoring the `ASD_ARENA_ENGINES` / `ASD_ARENA_PROFILES`
/// restrictions (full roster over all 30 profiles by default).
fn arena_env_plan(settings: &Settings, opts: &RunOpts) -> Result<FigurePlan, SimError> {
    let roster = settings.arena_engines.clone().unwrap_or_else(default_roster);
    let engines: Vec<&str> = roster.iter().map(String::as_str).collect();
    let profiles = match &settings.arena_profiles {
        Some(names) => names
            .iter()
            .map(|n| suites::by_name(n).ok_or_else(|| SimError::UnknownProfile { name: n.clone() }))
            .collect::<Result<Vec<_>, _>>()?,
        None => suites::all_profiles(),
    };
    arena_plan(&engines, &profiles, opts)
}

/// Resolve one catalog name to its plan. The arena goes through the env
/// roster; everything else comes straight from the figure catalog.
fn build_plan(name: &str, settings: &Settings, opts: &RunOpts) -> Result<FigurePlan, SimError> {
    if name == "arena" {
        return arena_env_plan(settings, opts);
    }
    plan_sized(name, opts, settings.accesses.is_some())
}

/// Write `body` to `path`; the error names the path.
fn write_file(path: &Path, body: &str) -> Result<(), String> {
    std::fs::write(path, body).map_err(|e| format!("could not write {}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

/// Print one finished figure, then write its artifact bodies (the
/// telemetry demo's exposition renderings) into the artifact directory,
/// created if needed, when one is configured.
fn emit(out: &mut impl Write, settings: &Settings, output: &FigureOutput) -> Result<(), String> {
    writeln!(out, "{}\n", output.text).map_err(|e| format!("could not write to stdout: {e}"))?;
    let Some(dir) = settings.telemetry_dir.as_ref().filter(|_| !output.artifacts.is_empty()) else {
        return Ok(());
    };
    std::fs::create_dir_all(dir).map_err(|e| format!("could not create {}: {e}", dir.display()))?;
    output.artifacts.iter().try_for_each(|(file, body)| write_file(&dir.join(file), body))
}

/// Submit every plan into one job graph, run it, print the outputs in
/// catalog order, and return each figure's report record with the
/// graph's counters.
fn run_graph(
    settings: &Settings,
    selected: &[&str],
    opts: &RunOpts,
    t0: Instant,
) -> Result<(Vec<Record>, PipelineStats), Box<dyn Error>> {
    let mut pipe = Pipeline::new(&settings.ctx);
    for name in selected {
        pipe.submit(build_plan(name, settings, opts)?);
    }
    eprintln!(
        "pipeline: {} figures, {} jobs ({} unique, {} deduplicated at submission) on {} worker \
         thread(s)...",
        pipe.figure_count(),
        pipe.submitted_jobs(),
        pipe.unique_jobs(),
        pipe.inflight_joins(),
        settings.ctx.threads(),
    );
    let run = pipe.run(&|| t0.elapsed().as_secs_f64() * 1e3)?;
    let mut stdout = io::stdout().lock();
    let mut records = Vec::with_capacity(run.figures.len());
    for fig in run.figures {
        emit(&mut stdout, settings, &fig.output)?;
        records.push((fig.name, fig.wall_ms, metrics_to_json(fig.output.metrics)));
    }
    Ok((records, run.stats))
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

fn run() -> Result<(), Box<dyn Error>> {
    let settings = Settings::from_env()?;
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(name) = args.iter().find(|a| *a != "all" && !CATALOG.contains(&a.as_str())) {
        return Err(SimError::UnknownFigure { name: name.clone() }.into());
    }
    let all = args.is_empty() || args.iter().any(|a| a == "all");
    let selected: Vec<&str> =
        CATALOG.iter().copied().filter(|n| all || args.iter().any(|a| a == n)).collect();

    // Uniform sizing: override every figure's run length, including the
    // catalog's per-figure absolute overrides (fig3, smt).
    let opts = settings.accesses.map_or_else(full_opts, |n| full_opts().with_accesses(n));

    let t0 = Instant::now();
    let (records, stats) = run_graph(&settings, &selected, &opts, t0)?;
    let total_wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    if let Some(path) = &settings.json {
        let doc = document(&settings.ctx, &opts, &stats, records, total_wall_ms);
        write_file(path, &(doc.render() + "\n"))?;
    }
    Ok(())
}
