//! Ablations and extensions beyond the paper's evaluation:
//!
//! * **Processor-side ASD** — the paper's §6 future work ("we will
//!   consider applying Adaptive Stream Detection to processor-side
//!   prefetching"), compared head-to-head against the Power5-style PS
//!   unit and against no processor-side prefetching.
//! * **Direction ablation** — ASD with descending-stream tracking
//!   disabled (how much do negative streams contribute?).
//! * **Adaptivity ablation** — Adaptive Scheduling replaced by the middle
//!   fixed policy.
//! * **Multi-line ablation** — the §3.1 multi-line extension
//!   (inequality (6)) at degrees 1/2/4.
//!
//! Each section is defined once as a `(label, SystemConfig)` variant
//! list; the per-section drivers simulate them directly through
//! [`run_custom`], while the catalog's `ablations` plan (`report_plan`)
//! batches every section of every benchmark into one job list.

use crate::config::{PrefetchKind, RunOpts, SystemConfig};
use crate::error::SimError;
use crate::experiment::run_custom;
use crate::pipeline::{FigureOutput, FigurePlan, Job};
use crate::report::{pct, Table};
use crate::system::RunResult;
use asd_core::{AsdConfig, LpqPolicy};
use asd_cpu::PsKind;
use asd_mc::{EngineKind, LpqMode, McConfig};
use asd_trace::WorkloadProfile;

/// One ablation outcome: label plus the run.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Configuration label.
    pub label: String,
    /// The measured run.
    pub result: RunResult,
}

fn ps_variants() -> Vec<(String, SystemConfig)> {
    let variants: [(&str, PsKind); 3] = [
        ("no PS", PsKind::None),
        ("Power5-style PS", PsKind::Power5),
        ("processor-side ASD", PsKind::Asd(AsdConfig::default())),
    ];
    variants
        .into_iter()
        .map(|(label, ps)| {
            let mut cfg = SystemConfig::for_kind(PrefetchKind::Np, 1);
            cfg.core.ps = ps;
            (label.to_string(), cfg)
        })
        .collect()
}

fn direction_variants() -> Vec<(String, SystemConfig)> {
    [("both directions", true), ("ascending only", false)]
        .into_iter()
        .map(|(label, track_negative)| {
            let asd = AsdConfig { track_negative, ..AsdConfig::default() };
            let cfg = SystemConfig::for_kind(PrefetchKind::Pms, 1)
                .with_mc(McConfig { engine: EngineKind::Asd(asd), ..McConfig::default() });
            (label.to_string(), cfg)
        })
        .collect()
}

fn adaptivity_variants() -> Vec<(String, SystemConfig)> {
    [
        ("adaptive scheduling", LpqMode::Adaptive),
        ("fixed policy 3", LpqMode::Fixed(LpqPolicy::CaqEmpty)),
    ]
    .into_iter()
    .map(|(label, mode)| {
        let cfg = SystemConfig::for_kind(PrefetchKind::Pms, 1)
            .with_mc(McConfig { lpq_mode: mode, ..McConfig::default() });
        (label.to_string(), cfg)
    })
    .collect()
}

fn degree_variants() -> Vec<(String, SystemConfig)> {
    [1usize, 2, 4]
        .into_iter()
        .map(|degree| {
            let asd = AsdConfig { max_degree: degree, ..AsdConfig::default() };
            let cfg = SystemConfig::for_kind(PrefetchKind::Pms, 1)
                .with_mc(McConfig { engine: EngineKind::Asd(asd), ..McConfig::default() });
            (format!("max degree {degree}"), cfg)
        })
        .collect()
}

/// Simulate one variant list on one benchmark, building the labelled
/// rows.
fn run_variants(
    variants: Vec<(String, SystemConfig)>,
    profile: &WorkloadProfile,
    opts: &RunOpts,
) -> Result<Vec<AblationRow>, SimError> {
    variants
        .into_iter()
        .map(|(label, cfg)| {
            Ok(AblationRow { result: run_custom(profile, cfg, &label, opts)?, label })
        })
        .collect()
}

/// Compare processor-side engines on one benchmark, with no memory-side
/// prefetching (isolating the processor-side contribution):
/// none / Power5-style / processor-side ASD.
///
/// # Errors
///
/// As [`run_custom`].
pub fn processor_side_engines(
    profile: &WorkloadProfile,
    opts: &RunOpts,
) -> Result<Vec<AblationRow>, SimError> {
    run_variants(ps_variants(), profile, opts)
}

/// ASD with and without descending-stream tracking (memory side, PMS).
///
/// # Errors
///
/// As [`run_custom`].
pub fn direction_ablation(
    profile: &WorkloadProfile,
    opts: &RunOpts,
) -> Result<Vec<AblationRow>, SimError> {
    run_variants(direction_variants(), profile, opts)
}

/// Adaptive Scheduling vs. the fixed middle policy (memory side, PMS).
///
/// # Errors
///
/// As [`run_custom`].
pub fn adaptivity_ablation(
    profile: &WorkloadProfile,
    opts: &RunOpts,
) -> Result<Vec<AblationRow>, SimError> {
    run_variants(adaptivity_variants(), profile, opts)
}

/// The §3.1 multi-line extension: maximum prefetch degree 1 / 2 / 4.
///
/// # Errors
///
/// As [`run_custom`].
pub fn degree_ablation(
    profile: &WorkloadProfile,
    opts: &RunOpts,
) -> Result<Vec<AblationRow>, SimError> {
    run_variants(degree_variants(), profile, opts)
}

/// Render a set of ablation rows as a table of cycles and gain relative to
/// the first row.
pub fn render(rows: &[AblationRow], title: &str) -> String {
    let base = rows.first().map(|r| r.result.cycles).unwrap_or(1) as f64;
    let mut t = Table::new(["configuration", "cycles", "gain vs first", "coverage", "useful"]);
    for r in rows {
        let m = r.result.mc.prefetch_metrics();
        t.row([
            r.label.clone(),
            r.result.cycles.to_string(),
            pct((base / r.result.cycles as f64 - 1.0) * 100.0),
            pct(m.coverage_pct()),
            pct(m.useful_pct()),
        ]);
    }
    format!("{title}\n{}", t.render())
}

/// The four report sections of one benchmark: title suffix plus variant
/// list, in rendering order.
fn sections() -> [(&'static str, Vec<(String, SystemConfig)>); 4] {
    [
        ("processor-side engine (no memory-side prefetching)", ps_variants()),
        ("descending-stream tracking (PMS)", direction_variants()),
        ("adaptive vs fixed LPQ policy (PMS)", adaptivity_variants()),
        ("multi-line prefetch degree (PMS)", degree_variants()),
    ]
}

/// The full-report job list: every section's variants for every
/// benchmark, benchmarks outer, in the chunk order [`report_assemble`]
/// consumes.
fn report_jobs(profiles: &[WorkloadProfile]) -> Vec<Job> {
    let mut jobs = Vec::new();
    for profile in profiles {
        for (_, variants) in sections() {
            for (label, cfg) in variants {
                jobs.push(Job::new(profile, cfg, &label));
            }
        }
    }
    jobs
}

/// Assemble [`report_jobs`] results into the rendered report (labels are
/// read back from each result's `config` stamp).
fn report_assemble(profiles: &[WorkloadProfile], results: Vec<RunResult>) -> String {
    let mut out = String::new();
    let mut runs = results.into_iter();
    for profile in profiles {
        for (title, variants) in sections() {
            let rows: Vec<AblationRow> = variants
                .iter()
                .zip(runs.by_ref())
                .map(|(_, r)| AblationRow { label: r.config.clone(), result: r })
                .collect();
            out.push_str(&render(&rows, &format!("\n[{}] {title}", profile.name)));
        }
    }
    out
}

/// The ablations report as a [`FigurePlan`] for the pipeline.
pub(crate) fn report_plan(profiles: &[WorkloadProfile], opts: &RunOpts) -> FigurePlan {
    let jobs = report_jobs(profiles);
    let profiles = profiles.to_vec();
    FigurePlan::new("ablations", opts, jobs, move |results| {
        Ok(FigureOutput::text_only(report_assemble(&profiles, results)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use asd_trace::suites;

    fn opts() -> RunOpts {
        RunOpts::default().with_accesses(15_000)
    }

    #[test]
    fn processor_side_asd_beats_nothing_on_streams() {
        let profile = suites::by_name("lbm").unwrap();
        let rows = processor_side_engines(&profile, &opts()).unwrap();
        let none = rows[0].result.cycles;
        let asd = rows[2].result.cycles;
        assert!(asd < none, "PS-ASD must speed up a streaming workload: {asd} vs {none}");
    }

    #[test]
    fn processor_side_asd_competitive_with_power5_on_short_streams() {
        // On short-stream workloads the histogram-driven unit should not
        // lose to the sequential Power5 unit.
        let profile = suites::by_name("milc").unwrap();
        let rows = processor_side_engines(&profile, &opts()).unwrap();
        let p5 = rows[1].result.cycles as f64;
        let asd = rows[2].result.cycles as f64;
        assert!(asd <= p5 * 1.03, "PS-ASD {asd} vs Power5 {p5}");
    }

    #[test]
    fn ascending_only_loses_on_negative_heavy_workload() {
        // Commercial profiles have 20% descending streams; disabling
        // negative tracking must not help.
        let profile = suites::by_name("notesbench").unwrap();
        let rows = direction_ablation(&profile, &opts()).unwrap();
        let both = rows[0].result.cycles;
        let asc = rows[1].result.cycles;
        assert!(both <= asc, "both {both} vs ascending-only {asc}");
    }

    #[test]
    fn ablation_rows_render() {
        let profile = suites::by_name("tonto").unwrap();
        let rows = adaptivity_ablation(&profile, &opts()).unwrap();
        let text = render(&rows, "test");
        assert!(text.contains("adaptive scheduling"));
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn full_report_matches_per_section_drivers() {
        // The batched job list must render exactly what the four serial
        // drivers produce.
        let profile = suites::by_name("milc").unwrap();
        let o = opts();
        let ctx = crate::RunContext::default();
        let mut pipe = crate::pipeline::Pipeline::new(&ctx);
        pipe.submit(report_plan(std::slice::from_ref(&profile), &o));
        let report = pipe.run(&|| 0.0).unwrap().figures.remove(0).output.text;
        let mut expected = String::new();
        expected.push_str(&render(
            &processor_side_engines(&profile, &o).unwrap(),
            &format!("\n[{}] processor-side engine (no memory-side prefetching)", profile.name),
        ));
        expected.push_str(&render(
            &direction_ablation(&profile, &o).unwrap(),
            &format!("\n[{}] descending-stream tracking (PMS)", profile.name),
        ));
        expected.push_str(&render(
            &adaptivity_ablation(&profile, &o).unwrap(),
            &format!("\n[{}] adaptive vs fixed LPQ policy (PMS)", profile.name),
        ));
        expected.push_str(&render(
            &degree_ablation(&profile, &o).unwrap(),
            &format!("\n[{}] multi-line prefetch degree (PMS)", profile.name),
        ));
        assert_eq!(report, expected);
    }
}
