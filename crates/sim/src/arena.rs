//! Tournament arena: every registered prefetch engine over every
//! workload, one memoized sweep, one league table.
//!
//! The arena turns the repo from a single-paper reproduction into a
//! prefetching test bench: the paper's engines (`asd`, `next-line`,
//! `p5-style`) and the zoo (`asd_engines`) all run as the memory-side
//! engine of an otherwise identical NP machine, against a shared
//! no-prefetch baseline, over the full 30-profile workload set. Rows are
//! ranked by mean IPC delta over the baseline; coverage, accuracy, DRAM
//! energy, and prefetch traffic complete the scoreboard.
//!
//! Every job goes through the [`crate::pipeline`] executor and its
//! context's run cache: the baseline column is byte-for-byte the NP
//! configuration of the paper's four-way comparisons, so an arena
//! submitted with the figure suite pays for zero baseline simulations,
//! and re-running the arena on the same [`RunContext`] is entirely cache
//! hits. Results are bit-identical serial vs parallel vs cache-disabled.

use crate::config::{engine_by_name, engine_names, PrefetchKind, RunOpts, SystemConfig};
use crate::error::SimError;
use crate::experiment::mean;
use crate::pipeline::{FigureOutput, FigurePlan, Job, MetricValue, Pipeline, RunContext};
use crate::report::{pct, ratio, Table};
use crate::system::RunResult;
use asd_mc::EngineKind;
use asd_trace::WorkloadProfile;

/// One engine's line in the league table (means over all profiles ran).
#[derive(Debug, Clone, PartialEq)]
pub struct LeagueRow {
    /// Engine registry name.
    pub engine: String,
    /// Mean IPC delta over the no-prefetch baseline, percent (the run
    /// lengths are fixed, so cycle gain is IPC gain).
    pub ipc_delta_pct: f64,
    /// Mean prefetch coverage, percent of reads served by the Prefetch
    /// Buffer.
    pub coverage_pct: f64,
    /// Mean prefetch accuracy, percent of completed prefetches consumed.
    pub accuracy_pct: f64,
    /// Mean DRAM energy delta over the baseline, percent (negative =
    /// the engine saves energy).
    pub energy_delta_pct: f64,
    /// Mean prefetch commands issued per thousand demand reads.
    pub traffic_per_kread: f64,
}

/// The arena outcome: ranked league table plus the roster it ran.
#[derive(Debug, Clone, PartialEq)]
pub struct ArenaResult {
    /// League rows, best mean IPC delta first (ties break by name, so
    /// the ordering is total and deterministic).
    pub rows: Vec<LeagueRow>,
    /// Profile names the tournament ran over.
    pub profiles: Vec<String>,
    /// Rendered league-table figure.
    pub text: String,
}

/// The default tournament roster: every selectable engine except the
/// baseline itself.
pub fn default_roster() -> Vec<String> {
    engine_names().into_iter().filter(|n| n != "none").collect()
}

/// Run a tournament under `ctx`: `engines` (registry names) over
/// `profiles`, as one sweep. The smoke tests run 2 engines over 2
/// profiles through the same job list and league table as the full arena
/// ([`arena_plan`]).
///
/// # Errors
///
/// [`SimError::UnknownEngine`] for an unrecognized engine name, plus any
/// sweep error.
pub fn arena_with(
    ctx: &RunContext,
    engines: &[&str],
    profiles: &[WorkloadProfile],
    opts: &RunOpts,
) -> Result<ArenaResult, SimError> {
    let threads = if opts.smt { 2 } else { 1 };
    let kinds = resolve_roster(engines)?;
    let results = Pipeline::sweep(ctx, opts, arena_jobs(&kinds, profiles, threads)).results()?;
    let names: Vec<String> = kinds.into_iter().map(|(n, _)| n).collect();
    Ok(arena_assemble(&names, profiles, &results))
}

/// Resolve the whole roster up front so a typo fails before any
/// simulation runs.
fn resolve_roster(engines: &[&str]) -> Result<Vec<(String, EngineKind)>, SimError> {
    engines.iter().map(|name| Ok(((*name).to_string(), engine_by_name(name)?))).collect()
}

/// The tournament job list, one profile at a time: each profile's shared
/// NP baseline (identical to the figure suite's NP runs, so the cache —
/// and the pipeline's job graph — unifies them), then its run under each
/// engine, in the chunk order [`arena_assemble`] consumes.
fn arena_jobs(
    kinds: &[(String, EngineKind)],
    profiles: &[WorkloadProfile],
    threads: usize,
) -> Vec<Job> {
    let mut jobs = Vec::with_capacity(profiles.len() * (kinds.len() + 1));
    for profile in profiles {
        jobs.push(Job::new(profile, SystemConfig::for_kind(PrefetchKind::Np, threads), "NP"));
        for (name, kind) in kinds {
            let cfg = SystemConfig::for_kind(PrefetchKind::Np, threads).with_mc(asd_mc::McConfig {
                engine: kind.clone(),
                threads,
                ..Default::default()
            });
            jobs.push(Job::new(profile, cfg, name));
        }
    }
    jobs
}

/// Assemble [`arena_jobs`] results (job order) into the ranked league
/// table.
fn arena_assemble(
    names: &[String],
    profiles: &[WorkloadProfile],
    results: &[RunResult],
) -> ArenaResult {
    // Each profile's chunk is its baseline, then one run per engine.
    let column = |c: usize| -> Vec<&RunResult> {
        results.chunks(names.len() + 1).map(|runs| &runs[c]).collect()
    };
    let baselines = column(0);
    let mut rows: Vec<LeagueRow> = names
        .iter()
        .enumerate()
        .map(|(e, name)| league_row(name, &column(e + 1), &baselines))
        .collect();
    rows.sort_by(|a, b| {
        b.ipc_delta_pct.total_cmp(&a.ipc_delta_pct).then_with(|| a.engine.cmp(&b.engine))
    });

    let mut t = Table::new([
        "rank",
        "engine",
        "IPC delta vs NP",
        "coverage",
        "accuracy",
        "DRAM energy delta",
        "pf / 1k reads",
    ]);
    for (i, r) in rows.iter().enumerate() {
        t.row([
            format!("{}", i + 1),
            r.engine.clone(),
            pct(r.ipc_delta_pct),
            pct(r.coverage_pct),
            pct(r.accuracy_pct),
            pct(r.energy_delta_pct),
            ratio(r.traffic_per_kread),
        ]);
    }
    let text = format!(
        "Arena: {} engines x {} profiles, ranked by mean IPC delta over NP\n{}",
        rows.len(),
        profiles.len(),
        t.render()
    );
    ArenaResult { rows, profiles: profiles.iter().map(|p| p.name.clone()).collect(), text }
}

/// The arena's metrics block: the roster and profile counts, the
/// winner, and one `league` record per row, in rank order.
fn arena_metric_values(a: &ArenaResult) -> Vec<(String, MetricValue)> {
    let league = a
        .rows
        .iter()
        .map(|r| {
            let mut rec = vec![("engine".to_string(), MetricValue::Str(r.engine.clone()))];
            for (metric, v) in [
                ("ipc_delta_pct", r.ipc_delta_pct),
                ("coverage_pct", r.coverage_pct),
                ("accuracy_pct", r.accuracy_pct),
                ("energy_delta_pct", r.energy_delta_pct),
                ("traffic_per_kread", r.traffic_per_kread),
            ] {
                rec.push((metric.to_string(), MetricValue::F64(v)));
            }
            rec
        })
        .collect();
    let mut m = vec![
        ("engines".to_string(), MetricValue::U64(a.rows.len() as u64)),
        ("profiles".to_string(), MetricValue::U64(a.profiles.len() as u64)),
    ];
    if let Some(best) = a.rows.first() {
        m.push(("winner".to_string(), MetricValue::Str(best.engine.clone())));
    }
    m.push(("league".to_string(), MetricValue::Rows(league)));
    m
}

/// The tournament as a [`FigurePlan`] for the pipeline: the roster
/// resolves immediately (a typo fails before any simulation is
/// scheduled), and the assembly produces the league text plus the
/// arena's metrics block.
///
/// # Errors
///
/// [`SimError::UnknownEngine`] for an unrecognized engine name.
pub fn arena_plan(
    engines: &[&str],
    profiles: &[WorkloadProfile],
    opts: &RunOpts,
) -> Result<FigurePlan, SimError> {
    let threads = if opts.smt { 2 } else { 1 };
    let kinds = resolve_roster(engines)?;
    let jobs = arena_jobs(&kinds, profiles, threads);
    let names: Vec<String> = kinds.into_iter().map(|(n, _)| n).collect();
    let profiles = profiles.to_vec();
    Ok(FigurePlan::new("arena", opts, jobs, move |results| {
        let a = arena_assemble(&names, &profiles, &results);
        let metrics = arena_metric_values(&a);
        Ok(FigureOutput { text: a.text, metrics, telemetry: None })
    }))
}

/// Aggregate one engine's runs against the per-profile baselines.
fn league_row(name: &str, runs: &[&RunResult], baselines: &[&RunResult]) -> LeagueRow {
    let per = |f: &dyn Fn(&RunResult, &RunResult) -> f64| -> Vec<f64> {
        runs.iter().zip(baselines).map(|(r, np)| f(r, np)).collect()
    };
    let ipc = per(&|r, np| r.gain_over(np));
    let coverage = per(&|r, _| r.mc.prefetch_metrics().coverage_pct());
    let accuracy = per(&|r, _| r.mc.prefetch_metrics().useful_pct());
    let energy = per(&|r, np| -r.energy_reduction_over(np));
    let traffic = per(&|r, _| {
        if r.mc.reads == 0 {
            0.0
        } else {
            r.mc.prefetches_issued as f64 * 1000.0 / r.mc.reads as f64
        }
    });
    LeagueRow {
        engine: name.to_string(),
        ipc_delta_pct: mean(&ipc),
        coverage_pct: mean(&coverage),
        accuracy_pct: mean(&accuracy),
        energy_delta_pct: mean(&energy),
        traffic_per_kread: mean(&traffic),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asd_trace::suites;

    fn two_profiles() -> Vec<WorkloadProfile> {
        ["milc", "lbm"].iter().map(|n| suites::by_name(n).unwrap()).collect()
    }

    #[test]
    fn small_arena_ranks_deterministically() {
        let opts = RunOpts { accesses: 6_000, ..RunOpts::default() };
        let run =
            || arena_with(&RunContext::default(), &["asd", "next-line"], &two_profiles(), &opts);
        let a = run().unwrap();
        assert_eq!(a.rows.len(), 2);
        assert_eq!(a.profiles, vec!["milc", "lbm"]);
        // Deterministic: a second run on a fresh context simulates every
        // job again and reproduces the same table.
        let b = run().unwrap();
        assert_eq!(a, b);
        // Ranked: best IPC delta first.
        assert!(a.rows[0].ipc_delta_pct >= a.rows[1].ipc_delta_pct);
        assert!(a.text.contains("rank"), "{}", a.text);
    }

    #[test]
    fn unknown_engine_fails_before_simulating() {
        let opts = RunOpts { accesses: 1_000, ..RunOpts::default() };
        let err =
            arena_with(&RunContext::default(), &["asd", "warp-drive"], &two_profiles(), &opts)
                .unwrap_err();
        assert!(matches!(err, SimError::UnknownEngine { .. }), "{err:?}");
    }

    #[test]
    fn default_roster_excludes_the_baseline() {
        let roster = default_roster();
        assert!(!roster.iter().any(|n| n == "none"));
        for expected in
            ["asd", "next-line", "p5-style", "stride", "stream-table", "dspatch", "reeses"]
        {
            assert!(roster.iter().any(|n| n == expected), "{expected} missing from {roster:?}");
        }
    }
}
