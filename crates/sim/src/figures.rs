//! The figure catalog: one [`FigurePlan`] per table/figure of the paper
//! ([`plan`]), plus the single-run drivers (the SLH studies, the
//! telemetry walkthrough, the hardware-cost table) the plans assemble
//! from. Every multi-run figure is a job list and an assembly closure
//! that the [`crate::pipeline`] executor runs, so the `figures` binary,
//! the `asd-serve` daemon ([`figure_text`]), examples, and tests share one
//! implementation.

use crate::config::{PrefetchKind, RunOpts, SystemConfig};
use crate::error::SimError;
use crate::experiment::{four_way_assemble, four_way_jobs, mean, FourWay};
use crate::pipeline::{FigureOutput, FigurePlan, Job, MetricValue, Pipeline, RunContext};
use crate::report::{pct, ratio, Table};
use crate::slh_study::{self, EpochSlh};
use crate::source::{TraceSource, TraceStream};
use crate::system::{RunResult, System};
use asd_core::cost::{hardware_cost, CostParams};
use asd_core::{AsdConfig, LpqPolicy};
use asd_mc::{EngineKind, LpqMode, McConfig, SchedulerKind};
use asd_telemetry::{names, Snapshot, TelemetryConfig};
use asd_trace::suites::{self, Suite};

/// Figure 2: the Stream Length Histogram of one GemsFDTD epoch.
///
/// # Errors
///
/// [`SimError::NoEpochs`] when `opts.accesses` completes no ASD epoch.
pub fn fig2_slh(opts: &RunOpts) -> Result<(EpochSlh, String), SimError> {
    fig2_slh_from(&TraceSource::generate("GemsFDTD", opts.seed), opts)
}

/// [`fig2_slh`] over any [`TraceSource`] — replaying a recorded GemsFDTD
/// trace produces the identical histogram.
///
/// # Errors
///
/// [`SimError::NoEpochs`] when the stream completes no ASD epoch, plus
/// any source-resolution error ([`SimError::TraceIo`],
/// [`SimError::UnknownProfile`]).
pub fn fig2_slh_from(source: &TraceSource, opts: &RunOpts) -> Result<(EpochSlh, String), SimError> {
    let (benchmark, stream) = single_stream(source, opts)?;
    let asd = AsdConfig::default();
    let epochs = slh_study::epoch_histograms_from(stream, &asd)?;
    let sample = epochs
        .get(epochs.len() / 2)
        .or_else(|| epochs.first())
        .ok_or(SimError::NoEpochs { benchmark: benchmark.clone(), accesses: opts.accesses })?
        .clone();
    let text = format!(
        "Figure 2: SLH for one epoch of {benchmark} (epoch {})\n{}",
        sample.epoch,
        sample.oracle.ascii_chart(48)
    );
    Ok((sample, text))
}

/// Resolve `source` into its benchmark label and single thread-0 access
/// stream (the SLH studies are single-threaded: `opts.smt` is ignored).
fn single_stream(source: &TraceSource, opts: &RunOpts) -> Result<(String, TraceStream), SimError> {
    let no_smt = RunOpts { smt: false, ..opts.clone() };
    let resolved = source.resolve(&no_smt)?;
    let benchmark = resolved.benchmark;
    let stream = resolved
        .streams
        .into_iter()
        .next()
        // asd-lint: allow(D005) -- resolve always yields one stream per thread and threads >= 1
        .expect("resolved source has a thread-0 stream");
    Ok((benchmark, stream))
}

/// Figure 3: SLH variability across GemsFDTD epochs — the all-epoch merge
/// plus two individual epochs.
///
/// # Errors
///
/// [`SimError::InvalidConfig`] from the epoch replay.
pub fn fig3_slh_epochs(opts: &RunOpts) -> Result<(Vec<EpochSlh>, String), SimError> {
    fig3_slh_epochs_from(&TraceSource::generate("GemsFDTD", opts.seed), opts)
}

/// [`fig3_slh_epochs`] over any [`TraceSource`].
///
/// # Errors
///
/// As [`fig2_slh_from`].
pub fn fig3_slh_epochs_from(
    source: &TraceSource,
    opts: &RunOpts,
) -> Result<(Vec<EpochSlh>, String), SimError> {
    let (benchmark, stream) = single_stream(source, opts)?;
    let asd = AsdConfig::default();
    let epochs = slh_study::epoch_histograms_from(stream, &asd)?;
    let mut merged = asd_core::Slh::new();
    for e in &epochs {
        merged += &e.oracle;
    }
    let mut text = format!("Figure 3: {benchmark} SLHs vary across epochs\n\nAll epochs:\n");
    text.push_str(&merged.ascii_chart(40));
    for pick in [epochs.len() / 3, 2 * epochs.len() / 3] {
        if let Some(e) = epochs.get(pick) {
            text.push_str(&format!("\nEpoch {}:\n{}", e.epoch, e.oracle.ascii_chart(40)));
        }
    }
    Ok((epochs, text))
}

/// One row of Figures 5–7.
#[derive(Debug, Clone)]
pub struct PerfRow {
    /// Benchmark name.
    pub benchmark: String,
    /// PMS vs NP gain, percent.
    pub pms_vs_np: f64,
    /// MS vs NP gain, percent.
    pub ms_vs_np: f64,
    /// PMS vs PS gain, percent.
    pub pms_vs_ps: f64,
}

/// Figures 5 (SPEC2006fp), 6 (NAS), 7 (commercial): performance gains.
pub fn perf_figure(results: &[FourWay], title: &str) -> (Vec<PerfRow>, String) {
    let rows: Vec<PerfRow> = results
        .iter()
        .map(|f| PerfRow {
            benchmark: f.benchmark.clone(),
            pms_vs_np: f.pms_vs_np(),
            ms_vs_np: f.ms_vs_np(),
            pms_vs_ps: f.pms_vs_ps(),
        })
        .collect();
    let mut t = Table::new(["benchmark", "PMS vs NP", "MS vs NP", "PMS vs PS"]);
    for r in &rows {
        t.row([r.benchmark.clone(), pct(r.pms_vs_np), pct(r.ms_vs_np), pct(r.pms_vs_ps)]);
    }
    t.row([
        "Average".to_string(),
        pct(mean(&rows.iter().map(|r| r.pms_vs_np).collect::<Vec<_>>())),
        pct(mean(&rows.iter().map(|r| r.ms_vs_np).collect::<Vec<_>>())),
        pct(mean(&rows.iter().map(|r| r.pms_vs_ps).collect::<Vec<_>>())),
    ]);
    (rows, format!("{title}\n{}", t.render()))
}

/// One row of Figures 8–10.
#[derive(Debug, Clone)]
pub struct PowerRow {
    /// Benchmark name.
    pub benchmark: String,
    /// DRAM power increase of PMS over PS, percent.
    pub power_increase: f64,
    /// DRAM energy reduction of PMS over PS, percent.
    pub energy_reduction: f64,
}

/// Figures 8–10: DRAM power and energy, PMS vs PS.
pub fn power_figure(results: &[FourWay], title: &str) -> (Vec<PowerRow>, String) {
    let rows: Vec<PowerRow> = results
        .iter()
        .map(|f| PowerRow {
            benchmark: f.benchmark.clone(),
            power_increase: f.power_increase(),
            energy_reduction: f.energy_reduction(),
        })
        .collect();
    let mut t = Table::new(["benchmark", "power increase", "energy reduction"]);
    for r in &rows {
        t.row([r.benchmark.clone(), pct(r.power_increase), pct(r.energy_reduction)]);
    }
    t.row([
        "Average".to_string(),
        pct(mean(&rows.iter().map(|r| r.power_increase).collect::<Vec<_>>())),
        pct(mean(&rows.iter().map(|r| r.energy_reduction).collect::<Vec<_>>())),
    ]);
    (rows, format!("{title}\n{}", t.render()))
}

/// The eight memory-controller configurations of Figure 11, in bar order.
pub fn fig11_configs() -> Vec<(String, McConfig)> {
    let mut configs = Vec::new();
    let base = McConfig::default();
    configs.push(("ASD + Adaptive Scheduling".to_string(), base.clone()));
    for policy in LpqPolicy::ALL {
        configs.push((
            format!("ASD + scheduling method {}", policy.number()),
            McConfig { lpq_mode: LpqMode::Fixed(policy), ..base.clone() },
        ));
    }
    configs.push((
        "next-line + adaptive scheduling".to_string(),
        McConfig { engine: EngineKind::NextLine, ..base.clone() },
    ));
    configs.push((
        "P5-style + adaptive scheduling".to_string(),
        McConfig { engine: EngineKind::P5Style, ..base },
    ));
    configs
}

/// One benchmark's bars in Figure 11: execution time of each configuration
/// normalized to ASD + Adaptive Scheduling.
#[derive(Debug, Clone)]
pub struct Fig11Row {
    /// Benchmark name.
    pub benchmark: String,
    /// `(label, normalized execution time)` per configuration.
    pub bars: Vec<(String, f64)>,
}

/// The Figure 11 job list: eight configurations per selected benchmark,
/// in the chunk order [`fig11_assemble`] consumes.
fn fig11_jobs() -> Vec<Job> {
    let configs = fig11_configs();
    let profiles = suites::selected_eight();
    let mut jobs = Vec::with_capacity(profiles.len() * configs.len());
    for profile in &profiles {
        for (label, mc) in &configs {
            let cfg = SystemConfig::for_kind(PrefetchKind::Pms, 1).with_mc(mc.clone());
            jobs.push(Job::new(profile, cfg, label));
        }
    }
    jobs
}

/// Assemble [`fig11_jobs`] results into the Figure 11 rows and table.
fn fig11_assemble(results: &[RunResult]) -> (Vec<Fig11Row>, String) {
    let configs = fig11_configs();
    let profiles = suites::selected_eight();
    let mut rows = Vec::new();
    for (profile, runs) in profiles.iter().zip(results.chunks(configs.len())) {
        let baseline_cycles = runs[0].cycles as f64;
        rows.push(Fig11Row {
            benchmark: profile.name.clone(),
            bars: runs
                .iter()
                .map(|r| (r.config.clone(), r.cycles as f64 / baseline_cycles))
                .collect(),
        });
    }
    let mut t = Table::new(
        std::iter::once("benchmark".to_string())
            .chain(configs.iter().map(|(l, _)| l.clone()))
            .collect::<Vec<_>>(),
    );
    for r in &rows {
        t.row(
            std::iter::once(r.benchmark.clone())
                .chain(r.bars.iter().map(|(_, v)| ratio(*v)))
                .collect::<Vec<_>>(),
        );
    }
    (rows, format!("Figure 11: normalized execution time (ASD+Adaptive = 1.0)\n{}", t.render()))
}

/// Figure 12: stream-length shares (fraction of streams of length 1–5) for
/// the eight selected benchmarks.
///
/// # Errors
///
/// [`SimError::NoEpochs`] when a benchmark completes no ASD epoch within
/// `opts.accesses`.
pub fn fig12_stream_lengths(
    opts: &RunOpts,
) -> Result<(Vec<(String, slh_study::StreamShares)>, String), SimError> {
    let sources: Vec<TraceSource> = suites::selected_eight()
        .iter()
        .map(|p| TraceSource::generate(&p.name, opts.seed))
        .collect();
    fig12_stream_lengths_from(&sources, opts)
}

/// [`fig12_stream_lengths`] over any set of [`TraceSource`]s (one row per
/// source).
///
/// # Errors
///
/// As [`fig2_slh_from`].
pub fn fig12_stream_lengths_from(
    sources: &[TraceSource],
    opts: &RunOpts,
) -> Result<(Vec<(String, slh_study::StreamShares)>, String), SimError> {
    let mut rows = Vec::new();
    for source in sources {
        let (benchmark, stream) = single_stream(source, opts)?;
        let shares = slh_study::stream_shares_from(stream, &benchmark, opts.accesses)?;
        rows.push((benchmark, shares));
    }
    let mut t = Table::new(["benchmark", "len1", "len2", "len3", "len4", "len5", "len2-5", ">5"]);
    for (name, s) in &rows {
        t.row([
            name.clone(),
            pct(s.shares[0] * 100.0),
            pct(s.shares[1] * 100.0),
            pct(s.shares[2] * 100.0),
            pct(s.shares[3] * 100.0),
            pct(s.shares[4] * 100.0),
            pct(s.len2_to_5() * 100.0),
            pct(s.longer * 100.0),
        ]);
    }
    Ok((rows, format!("Figure 12: stream length distribution (% of streams)\n{}", t.render())))
}

/// One row of Figure 13.
#[derive(Debug, Clone)]
pub struct EfficiencyRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Useful-prefetch fraction, percent (paper: 82–91%).
    pub useful: f64,
    /// Coverage, percent (paper: 19–34%).
    pub coverage: f64,
    /// Delayed regular commands, percent (paper: 1–3%).
    pub delayed: f64,
}

/// The Figure 13 job list: one PMS run per selected benchmark.
fn fig13_jobs(opts: &RunOpts) -> Vec<Job> {
    let threads = if opts.smt { 2 } else { 1 };
    suites::selected_eight()
        .iter()
        .map(|profile| Job::new(profile, SystemConfig::for_kind(PrefetchKind::Pms, threads), "PMS"))
        .collect()
}

/// Assemble [`fig13_jobs`] results into the Figure 13 rows and table.
fn fig13_assemble(results: &[RunResult]) -> (Vec<EfficiencyRow>, String) {
    let rows: Vec<EfficiencyRow> = results
        .iter()
        .map(|r| {
            let m = r.mc.prefetch_metrics();
            EfficiencyRow {
                benchmark: r.benchmark.clone(),
                useful: m.useful_pct(),
                coverage: m.coverage_pct(),
                delayed: m.delayed_pct(),
            }
        })
        .collect();
    let mut t = Table::new(["benchmark", "useful prefetches", "coverage", "delayed regular"]);
    for r in &rows {
        t.row([r.benchmark.clone(), pct(r.useful), pct(r.coverage), pct(r.delayed)]);
    }
    (rows, format!("Figure 13: effectiveness of memory-side prefetching (PMS)\n{}", t.render()))
}

/// Sensitivity sweep row: performance of each size, normalized to the
/// paper's default.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Benchmark name.
    pub benchmark: String,
    /// `(size, relative performance)` — higher is better, 1.0 = default.
    pub points: Vec<(usize, f64)>,
}

/// The job list behind Figures 14/15: one PMS run per (benchmark, size),
/// sizes inner, in the chunk order [`size_sweep_assemble`] consumes.
fn size_sweep_jobs<F: Fn(usize) -> McConfig>(sizes: &[usize], make: F) -> Vec<Job> {
    let profiles = suites::selected_eight();
    let mut jobs = Vec::with_capacity(profiles.len() * sizes.len());
    for profile in &profiles {
        for &s in sizes {
            let cfg = SystemConfig::for_kind(PrefetchKind::Pms, 1).with_mc(make(s));
            jobs.push(Job::new(profile, cfg, &format!("{s}")));
        }
    }
    jobs
}

/// Assemble [`size_sweep_jobs`] results, normalizing each benchmark's
/// points to its `default_size` run.
fn size_sweep_assemble(
    sizes: &[usize],
    default_size: usize,
    results: &[RunResult],
) -> Vec<SweepRow> {
    suites::selected_eight()
        .iter()
        .zip(results.chunks(sizes.len()))
        .map(|(profile, runs)| {
            let baseline = sizes
                .iter()
                .zip(runs)
                .find(|(s, _)| **s == default_size)
                .map(|(_, r)| r.cycles as f64)
                // asd-lint: allow(D005) -- private helper; every caller passes a literal `sizes` array containing `default_size`
                .expect("default size in sweep");
            SweepRow {
                benchmark: profile.name.clone(),
                points: sizes
                    .iter()
                    .zip(runs)
                    .map(|(&s, r)| (s, baseline / r.cycles as f64))
                    .collect(),
            }
        })
        .collect()
}

/// The literals defining one size-sensitivity figure (14 or 15): the
/// swept sizes, the normalization point, the config constructor, and the
/// table title.
struct SizeSweepSpec {
    sizes: [usize; 4],
    default_size: usize,
    make: fn(usize) -> McConfig,
    title: &'static str,
}

fn fig14_spec() -> SizeSweepSpec {
    SizeSweepSpec {
        sizes: [8, 16, 32, 1024],
        default_size: 16,
        make: |s| McConfig { pb_lines: s, pb_assoc: 4, ..McConfig::default() },
        title: "Figure 14: sensitivity to prefetch buffer size (performance relative to 16 blocks)",
    }
}

fn fig15_spec() -> SizeSweepSpec {
    SizeSweepSpec {
        sizes: [4, 8, 16, 64],
        default_size: 8,
        make: |s| McConfig {
            engine: EngineKind::Asd(AsdConfig::default().with_filter_slots(s)),
            ..McConfig::default()
        },
        title: "Figure 15: sensitivity to stream filter size (performance relative to 8 entries)",
    }
}

fn render_sweep(rows: &[SweepRow], sizes: &[usize], title: &str) -> String {
    let mut header = vec!["benchmark".to_string()];
    header.extend(sizes.iter().map(|s| s.to_string()));
    let mut t = Table::new(header);
    for r in rows {
        let mut cells = vec![r.benchmark.clone()];
        cells.extend(r.points.iter().map(|(_, v)| ratio(*v)));
        t.row(cells);
    }
    format!("{title}\n{}", t.render())
}

/// Figure 16: accuracy of the finite-filter SLH approximation on a
/// GemsFDTD sample epoch.
///
/// # Errors
///
/// [`SimError::InvalidConfig`] from the epoch replay.
pub fn fig16_slh_accuracy(opts: &RunOpts) -> Result<(Vec<EpochSlh>, String), SimError> {
    fig16_slh_accuracy_from(&TraceSource::generate("GemsFDTD", opts.seed), opts)
}

/// [`fig16_slh_accuracy`] over any [`TraceSource`].
///
/// # Errors
///
/// As [`fig2_slh_from`].
pub fn fig16_slh_accuracy_from(
    source: &TraceSource,
    opts: &RunOpts,
) -> Result<(Vec<EpochSlh>, String), SimError> {
    let (_benchmark, stream) = single_stream(source, opts)?;
    let asd = AsdConfig::default();
    let epochs = slh_study::epoch_histograms_from(stream, &asd)?;
    let mean_d = slh_study::mean_l1_distance(&epochs);
    let mut text = format!(
        "Figure 16: SLH approximation accuracy (mean L1 distance across {} epochs: {:.3})\n",
        epochs.len(),
        mean_d
    );
    if let Some(e) = epochs.get(epochs.len() / 2) {
        text.push_str(&format!("\nEpoch {} actual:\n{}", e.epoch, e.oracle.ascii_chart(40)));
        text.push_str(&format!(
            "\nEpoch {} our approximation:\n{}",
            e.epoch,
            e.approx.ascii_chart(40)
        ));
    }
    Ok((epochs, text))
}

/// Everything the telemetry walkthrough produces from one fully
/// instrumented run: its merged snapshot, which every exposition backend
/// renders, and the summary derived from it.
#[derive(Debug, Clone)]
pub struct TelemetryDemo {
    /// The instrumented PMS run's snapshot, moved out of its
    /// [`RunResult::telemetry`].
    pub snapshot: Snapshot,
    /// Human-readable summary.
    pub text: String,
}

/// Telemetry walkthrough: run PMS on `bench` with metrics and events on,
/// and summarize the run's one merged snapshot, which the exposition
/// backends ([`asd_telemetry::expo`]) render. The summary re-derives the
/// Figure 13 ratios, the CAQ occupancy distribution, and the DRAM power
/// breakdown purely from the snapshot — the acceptance proof that they
/// need no other source.
///
/// # Errors
///
/// [`SimError::UnknownProfile`] when `bench` names no workload profile.
pub fn telemetry_demo(bench: &str, opts: &RunOpts) -> Result<TelemetryDemo, SimError> {
    let cfg = SystemConfig::for_kind(PrefetchKind::Pms, 1).with_telemetry(TelemetryConfig::full());
    let source = TraceSource::generate(bench, opts.seed);
    let mut result = System::from_source(cfg, &source, opts)?.with_label("PMS").run();
    let snap = result.telemetry.take().unwrap_or_default();

    let mut text = format!("Telemetry walkthrough: {bench} / PMS ({} cycles)\n", result.cycles);
    // The run's counters, read back out of the snapshot alone.
    let back = snap.read_counters::<RunResult>();
    if let Some(back) = &back {
        let m = back.mc.prefetch_metrics();
        let direct = result.mc.prefetch_metrics();
        let mut t = Table::new(["metric", "from snapshot", "from McStats"]);
        t.row(["coverage".to_string(), pct(m.coverage_pct()), pct(direct.coverage_pct())]);
        t.row(["useful prefetches".to_string(), pct(m.useful_pct()), pct(direct.useful_pct())]);
        t.row(["delayed regular".to_string(), pct(m.delayed_pct()), pct(direct.delayed_pct())]);
        text.push_str(&t.render());
    }
    if let Some(h) = snap.histogram(names::MC_CAQ_OCCUPANCY) {
        text.push_str(&format!("\nCAQ occupancy: {} samples, mean {:.2}\n", h.total(), h.mean()));
    }
    if let Some(p) = back.map(|back| back.power) {
        text.push_str(&format!(
            "DRAM energy {:.4} J = background {:.4} + activate {:.4} + read {:.4} + write {:.4}\n",
            p.energy_j, p.background_j, p.activate_j, p.read_j, p.write_j,
        ));
    }
    text.push_str(&format!(
        "{} metrics, {} events ({} dropped) in the merged snapshot\n",
        snap.metrics.len(),
        snap.events.len(),
        snap.dropped_events
    ));
    Ok(TelemetryDemo { snapshot: snap, text })
}

/// §5.1 hardware cost: bit inventory of the ASD additions.
pub fn hardware_cost_table() -> String {
    let cost = hardware_cost(&AsdConfig::default(), CostParams::default());
    let mut t = Table::new(["structure", "bits"]);
    t.row(["stream filter (per thread)".to_string(), cost.stream_filter_bits.to_string()]);
    t.row(["LHT tables (per thread)".to_string(), cost.lht_bits.to_string()]);
    t.row(["prefetch buffer data".to_string(), cost.prefetch_buffer_data_bits.to_string()]);
    t.row(["prefetch buffer tags".to_string(), cost.prefetch_buffer_tag_bits.to_string()]);
    t.row(["LPQ".to_string(), cost.lpq_bits.to_string()]);
    t.row(["TOTAL (4 threads), bytes".to_string(), cost.total_bytes().to_string()]);
    format!(
        "Hardware cost (paper §5.1: +6.08% memory controller area, +0.098% chip)\n{}\nfraction of 4x64KB competitor tables: {:.2}%\n",
        t.render(),
        cost.fraction_of_64kb_tables() * 100.0
    )
}

/// The SMT prefetch kinds, in per-benchmark chunk order.
const SMT_KINDS: [PrefetchKind; 3] = [PrefetchKind::Np, PrefetchKind::Ps, PrefetchKind::Pms];

/// The §5.2 job list: every suite's benchmarks under NP/PS/PMS with two
/// SMT threads, suites outer, in the chunk order [`smt_assemble`]
/// consumes. (The jobs run under `smt: true` options — [`smt_opts`].)
fn smt_jobs() -> Vec<Job> {
    let mut jobs = Vec::new();
    for suite in Suite::ALL {
        for profile in suite.profiles() {
            for kind in SMT_KINDS {
                jobs.push(Job::new(&profile, SystemConfig::for_kind(kind, 2), kind.name()));
            }
        }
    }
    jobs
}

/// The effective options for the SMT table: `opts` with SMT forced on.
fn smt_opts(opts: &RunOpts) -> RunOpts {
    RunOpts { smt: true, ..opts.clone() }
}

/// Assemble [`smt_jobs`] results into the §5.2 suite-average table.
fn smt_assemble(results: &[RunResult]) -> String {
    let mut t = Table::new(["suite", "PMS vs NP (SMT)", "PMS vs PS (SMT)"]);
    let mut offset = 0;
    for suite in Suite::ALL {
        let count = suite.profiles().len() * SMT_KINDS.len();
        let all = &results[offset..offset + count];
        offset += count;
        let mut vs_np = Vec::new();
        let mut vs_ps = Vec::new();
        for runs in all.chunks(SMT_KINDS.len()) {
            let (np, ps, pms) = (&runs[0], &runs[1], &runs[2]);
            vs_np.push(pms.gain_over(np));
            vs_ps.push(pms.gain_over(ps));
        }
        t.row([suite.name().to_string(), pct(mean(&vs_np)), pct(mean(&vs_ps))]);
    }
    format!("SMT results (two threads, per-thread filters and LHTs)\n{}", t.render())
}

/// The §5.3 schedulers, in table-row order.
const SCHED_KINDS: [(&str, SchedulerKind); 3] = [
    ("in-order", SchedulerKind::InOrder),
    ("memoryless", SchedulerKind::Memoryless),
    ("AHB", SchedulerKind::Ahb),
];

/// The §5.3 job list, one selected benchmark at a time: an NP/PMS pair
/// under each scheduler, in the chunk order [`sched_assemble`] consumes.
fn sched_jobs() -> Vec<Job> {
    let mut jobs = Vec::new();
    for profile in suites::selected_eight() {
        for (_, kind) in SCHED_KINDS {
            let np_cfg = SystemConfig::for_kind(PrefetchKind::Np, 1).with_mc(McConfig {
                scheduler: kind,
                engine: EngineKind::None,
                ..McConfig::default()
            });
            let pms_cfg = SystemConfig::for_kind(PrefetchKind::Pms, 1)
                .with_mc(McConfig { scheduler: kind, ..McConfig::default() });
            jobs.push(Job::new(&profile, np_cfg, "NP"));
            jobs.push(Job::new(&profile, pms_cfg, "PMS"));
        }
    }
    jobs
}

/// Assemble [`sched_jobs`] results into the §5.3 table.
fn sched_assemble(results: &[RunResult]) -> String {
    let mut t = Table::new(["scheduler", "PMS vs NP gain"]);
    for (s, (name, _)) in SCHED_KINDS.iter().enumerate() {
        let gains: Vec<f64> = results
            .chunks(SCHED_KINDS.len() * 2)
            .map(|runs| runs[2 * s + 1].gain_over(&runs[2 * s]))
            .collect();
        t.row([(*name).to_string(), pct(mean(&gains))]);
    }
    format!("Scheduler interaction (§5.3): prefetcher benefit by memory scheduler\n{}", t.render())
}

fn perf_metric_list(rows: &[PerfRow]) -> Vec<(String, MetricValue)> {
    vec![
        ("benchmarks".to_string(), MetricValue::U64(rows.len() as u64)),
        (
            "mean_pms_vs_np_pct".to_string(),
            MetricValue::F64(mean(&rows.iter().map(|r| r.pms_vs_np).collect::<Vec<_>>())),
        ),
        (
            "mean_pms_vs_ps_pct".to_string(),
            MetricValue::F64(mean(&rows.iter().map(|r| r.pms_vs_ps).collect::<Vec<_>>())),
        ),
    ]
}

fn power_metric_list(rows: &[PowerRow]) -> Vec<(String, MetricValue)> {
    vec![
        ("benchmarks".to_string(), MetricValue::U64(rows.len() as u64)),
        (
            "mean_power_increase_pct".to_string(),
            MetricValue::F64(mean(&rows.iter().map(|r| r.power_increase).collect::<Vec<_>>())),
        ),
        (
            "mean_energy_reduction_pct".to_string(),
            MetricValue::F64(mean(&rows.iter().map(|r| r.energy_reduction).collect::<Vec<_>>())),
        ),
    ]
}

fn perf_plan(name: &str, suite: Suite, title: &'static str, opts: &RunOpts) -> FigurePlan {
    let profiles = suite.profiles();
    let jobs = four_way_jobs(&profiles, opts);
    FigurePlan::new(name, opts, jobs, move |results| {
        let (rows, text) = perf_figure(&four_way_assemble(&profiles, results), title);
        Ok(FigureOutput { text, metrics: perf_metric_list(&rows), telemetry: None })
    })
}

fn power_plan(name: &str, suite: Suite, title: &'static str, opts: &RunOpts) -> FigurePlan {
    let profiles = suite.profiles();
    let jobs = four_way_jobs(&profiles, opts);
    FigurePlan::new(name, opts, jobs, move |results| {
        let (rows, text) = power_figure(&four_way_assemble(&profiles, results), title);
        Ok(FigureOutput { text, metrics: power_metric_list(&rows), telemetry: None })
    })
}

/// Every figure name [`plan`] knows, in the order the `figures` binary
/// prints them (`all` runs the whole list top to bottom; a subset keeps
/// this relative order). The `asd-serve` daemon accepts exactly these
/// names for a figure job.
pub const CATALOG: [&str; 20] = [
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

/// The declarative catalog behind [`figure_text`] and the `figures`
/// binary: one [`FigurePlan`] per [`CATALOG`] name. Equivalent to
/// [`plan_sized`] with the catalog's absolute size overrides applied
/// (`fig3` at 150 000 accesses, `smt` at 30 000).
///
/// # Errors
///
/// [`SimError::UnknownFigure`] for a name outside the catalog;
/// [`SimError::UnknownEngine`] from the arena roster.
pub fn plan(name: &str, opts: &RunOpts) -> Result<FigurePlan, SimError> {
    plan_sized(name, opts, false)
}

/// [`plan`] with the size overrides optionally suppressed: with
/// `uniform` set, every figure runs at `opts.accesses` as given (the
/// dual-mode identity tests use this to keep full catalog runs cheap).
///
/// # Errors
///
/// As [`plan`].
#[allow(clippy::too_many_lines)]
pub fn plan_sized(name: &str, opts: &RunOpts, uniform: bool) -> Result<FigurePlan, SimError> {
    let sized =
        |accesses: u64| if uniform { opts.clone() } else { RunOpts { accesses, ..opts.clone() } };
    match name {
        "fig2" => {
            let o = opts.clone();
            Ok(FigurePlan::new(name, opts, Vec::new(), move |_| {
                let (sample, text) = fig2_slh(&o)?;
                Ok(FigureOutput {
                    text,
                    metrics: vec![("epoch".to_string(), MetricValue::U64(sample.epoch))],
                    telemetry: None,
                })
            }))
        }
        "fig3" => {
            let o = sized(150_000);
            let run_opts = o.clone();
            Ok(FigurePlan::new(name, &o, Vec::new(), move |_| {
                let (epochs, text) = fig3_slh_epochs(&run_opts)?;
                Ok(FigureOutput {
                    text,
                    metrics: vec![("epochs".to_string(), MetricValue::U64(epochs.len() as u64))],
                    telemetry: None,
                })
            }))
        }
        "fig5" => {
            Ok(perf_plan(name, Suite::Spec2006Fp, "Figure 5: SPEC2006fp performance gains", opts))
        }
        "fig6" => Ok(perf_plan(name, Suite::Nas, "Figure 6: NAS performance gains", opts)),
        "fig7" => {
            Ok(perf_plan(name, Suite::Commercial, "Figure 7: commercial performance gains", opts))
        }
        "fig8" => Ok(power_plan(
            name,
            Suite::Spec2006Fp,
            "Figure 8: SPEC2006fp DRAM power/energy (PMS vs PS)",
            opts,
        )),
        "fig9" => {
            Ok(power_plan(name, Suite::Nas, "Figure 9: NAS DRAM power/energy (PMS vs PS)", opts))
        }
        "fig10" => Ok(power_plan(
            name,
            Suite::Commercial,
            "Figure 10: commercial DRAM power/energy (PMS vs PS)",
            opts,
        )),
        "fig11" => Ok(FigurePlan::new(name, opts, fig11_jobs(), |results| {
            let (rows, text) = fig11_assemble(&results);
            Ok(FigureOutput {
                text,
                metrics: vec![
                    ("benchmarks".to_string(), MetricValue::U64(rows.len() as u64)),
                    (
                        "configs".to_string(),
                        MetricValue::U64(rows.first().map_or(0, |r| r.bars.len()) as u64),
                    ),
                ],
                telemetry: None,
            })
        })),
        "fig12" => {
            let o = opts.clone();
            Ok(FigurePlan::new(name, opts, Vec::new(), move |_| {
                let (rows, text) = fig12_stream_lengths(&o)?;
                Ok(FigureOutput {
                    text,
                    metrics: vec![("benchmarks".to_string(), MetricValue::U64(rows.len() as u64))],
                    telemetry: None,
                })
            }))
        }
        "fig13" => Ok(FigurePlan::new(name, opts, fig13_jobs(opts), |results| {
            let (rows, text) = fig13_assemble(&results);
            Ok(FigureOutput {
                text,
                metrics: vec![
                    ("benchmarks".to_string(), MetricValue::U64(rows.len() as u64)),
                    (
                        "mean_useful_pct".to_string(),
                        MetricValue::F64(mean(&rows.iter().map(|r| r.useful).collect::<Vec<_>>())),
                    ),
                    (
                        "mean_coverage_pct".to_string(),
                        MetricValue::F64(mean(
                            &rows.iter().map(|r| r.coverage).collect::<Vec<_>>(),
                        )),
                    ),
                ],
                telemetry: None,
            })
        })),
        "fig14" | "fig15" => {
            let spec = if name == "fig14" { fig14_spec() } else { fig15_spec() };
            let jobs = size_sweep_jobs(&spec.sizes, spec.make);
            Ok(FigurePlan::new(name, opts, jobs, move |results| {
                let rows = size_sweep_assemble(&spec.sizes, spec.default_size, &results);
                let text = render_sweep(&rows, &spec.sizes, spec.title);
                Ok(FigureOutput {
                    text,
                    metrics: vec![("benchmarks".to_string(), MetricValue::U64(rows.len() as u64))],
                    telemetry: None,
                })
            }))
        }
        "fig16" => {
            let o = opts.clone();
            Ok(FigurePlan::new(name, opts, Vec::new(), move |_| {
                let (epochs, text) = fig16_slh_accuracy(&o)?;
                Ok(FigureOutput {
                    text,
                    metrics: vec![("epochs".to_string(), MetricValue::U64(epochs.len() as u64))],
                    telemetry: None,
                })
            }))
        }
        "cost" => Ok(FigurePlan::new(name, opts, Vec::new(), |_| {
            Ok(FigureOutput::text_only(hardware_cost_table()))
        })),
        "sched" => Ok(FigurePlan::new(name, opts, sched_jobs(), |results| {
            Ok(FigureOutput::text_only(sched_assemble(&results)))
        })),
        "smt" => {
            let o = smt_opts(&sized(30_000));
            Ok(FigurePlan::new(name, &o, smt_jobs(), |results| {
                Ok(FigureOutput::text_only(smt_assemble(&results)))
            }))
        }
        "ablations" => {
            let profiles: Vec<_> =
                ["milc", "tpcc"].iter().filter_map(|n| suites::by_name(n)).collect();
            Ok(crate::ablations::report_plan(&profiles, opts))
        }
        "arena" => {
            let roster = crate::arena::default_roster();
            let engines: Vec<&str> = roster.iter().map(String::as_str).collect();
            crate::arena::arena_plan(&engines, &suites::all_profiles(), opts)
        }
        "telemetry" => {
            let o = opts.clone();
            Ok(FigurePlan::new(name, opts, Vec::new(), move |_| {
                let TelemetryDemo { snapshot: snap, text } = telemetry_demo("tpcc", &o)?;
                Ok(FigureOutput {
                    text,
                    metrics: vec![
                        ("metrics".to_string(), MetricValue::U64(snap.metrics.len() as u64)),
                        ("events".to_string(), MetricValue::U64(snap.events.len() as u64)),
                        ("dropped_events".to_string(), MetricValue::U64(snap.dropped_events)),
                    ],
                    telemetry: Some(snap),
                })
            }))
        }
        _ => Err(SimError::UnknownFigure { name: name.to_string() }),
    }
}

/// Regenerate one figure by catalog name under `ctx` and return its
/// rendered text — the single dispatch table behind both the `figures`
/// CLI and the `asd-serve` daemon, so a figure fetched from either path
/// is byte-identical by construction. Implemented as [`plan`] run through
/// a one-plan [`Pipeline`], the executor the CLI uses for every figure.
/// Size overrides mirror the CLI: `fig3` runs at 150 000 accesses and
/// `smt` at 30 000 regardless of `opts.accesses`; everything else uses
/// `opts` as given.
///
/// # Errors
///
/// [`SimError::UnknownFigure`] for a name outside the catalog, plus any
/// error of the underlying driver.
pub fn figure_text(ctx: &RunContext, name: &str, opts: &RunOpts) -> Result<String, SimError> {
    let mut pipe = Pipeline::new(ctx);
    pipe.submit(plan(name, opts)?);
    Ok(pipe.run(&|| 0.0)?.figures.into_iter().map(|f| f.output.text).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> RunOpts {
        RunOpts { accesses: 6_000, ..RunOpts::default() }
    }

    #[test]
    fn fig11_has_eight_configs() {
        let configs = fig11_configs();
        assert_eq!(configs.len(), 8);
        assert!(configs[0].0.contains("Adaptive"));
        assert!(configs[7].0.contains("P5"));
    }

    #[test]
    fn fig13_produces_rows() {
        let ctx = RunContext::default();
        let mut pipe = Pipeline::new(&ctx);
        pipe.submit(plan("fig13", &tiny()).unwrap());
        let fig = pipe.run(&|| 0.0).unwrap().figures.remove(0).output;
        assert!(fig.text.contains("coverage"));
        for profile in suites::selected_eight() {
            assert!(fig.text.contains(&profile.name), "{} row missing", profile.name);
        }
        for (name, value) in &fig.metrics {
            match (name.as_str(), value) {
                ("benchmarks", MetricValue::U64(n)) => assert_eq!(*n, 8),
                (_, MetricValue::F64(pct)) => assert!((0.0..=100.0).contains(pct), "{name}: {pct}"),
                _ => panic!("unexpected metric {name}: {value:?}"),
            }
        }
    }

    #[test]
    fn cost_table_renders() {
        let s = hardware_cost_table();
        assert!(s.contains("stream filter"));
        assert!(s.contains("TOTAL"));
    }

    #[test]
    fn fig2_produces_histogram() {
        let opts = RunOpts { accesses: 20_000, ..RunOpts::default() };
        let (sample, text) = fig2_slh(&opts).unwrap();
        assert!(sample.oracle.total_reads() > 0);
        assert!(text.contains("Figure 2"));
    }

    #[test]
    fn figure_text_matches_direct_drivers() {
        let opts = RunOpts { accesses: 20_000, ..RunOpts::default() };
        let ctx = RunContext::default();
        assert_eq!(figure_text(&ctx, "cost", &opts).unwrap(), hardware_cost_table());
        assert_eq!(figure_text(&ctx, "fig2", &opts).unwrap(), fig2_slh(&opts).unwrap().1);
        assert!(matches!(figure_text(&ctx, "fig99", &opts), Err(SimError::UnknownFigure { .. })));
    }

    #[test]
    fn catalog_names_are_exactly_the_plannable_figures() {
        for name in CATALOG {
            assert!(plan(name, &tiny()).is_ok(), "{name} does not plan");
        }
        for name in ["fig1", "fig4", "fig99", "all", "", "FIG2", "smt "] {
            assert!(
                matches!(plan(name, &tiny()), Err(SimError::UnknownFigure { .. })),
                "{name:?} plans"
            );
        }
    }
}
