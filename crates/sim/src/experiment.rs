//! Experiment drivers: run benchmarks under configurations and compare.

use crate::config::{PrefetchKind, RunOpts, SystemConfig};
use crate::error::SimError;
use crate::pipeline::{Job, Pipeline};
use crate::system::{RunResult, System};
use asd_trace::WorkloadProfile;

/// Run one benchmark under one of the four paper configurations.
///
/// # Errors
///
/// [`SimError`] from resolving `cfg.trace` when a file-backed
/// [`TraceSource`](crate::TraceSource) is configured (never for the
/// default generated path).
pub fn run_benchmark(
    profile: &WorkloadProfile,
    kind: PrefetchKind,
    opts: &RunOpts,
) -> Result<RunResult, SimError> {
    let threads = if opts.smt { 2 } else { 1 };
    let cfg = SystemConfig::for_kind(kind, threads);
    run_custom(profile, cfg, kind.name(), opts)
}

/// Run one benchmark under a fully custom system configuration. This is
/// the single cached-run entry point: every pipeline node and ad-hoc
/// driver call lands here, so cacheable runs share both the
/// cross-figure [`crate::cache`] store *and* its single-flight registry —
/// two concurrent callers with the same key produce exactly one
/// simulation, with the second joining the first's in-flight run.
///
/// # Errors
///
/// As [`run_benchmark`].
pub fn run_custom(
    profile: &WorkloadProfile,
    cfg: SystemConfig,
    label: &str,
    opts: &RunOpts,
) -> Result<RunResult, SimError> {
    run_built(profile, cfg, label, opts, |cfg| System::new(cfg, profile, opts))
}

/// [`run_custom`] with the system, when one must be simulated, built by
/// `build` from the configuration: the pipeline executor's builder reads
/// the run's trace memo.
pub(crate) fn run_built(
    profile: &WorkloadProfile,
    cfg: SystemConfig,
    label: &str,
    opts: &RunOpts,
    build: impl FnOnce(SystemConfig) -> Result<System, SimError>,
) -> Result<RunResult, SimError> {
    let Some(key) = crate::cache::key(&cfg, profile, opts) else {
        return Ok(build(cfg)?.with_label(label).run());
    };
    match crate::cache::global().claim(&key, label) {
        crate::cache::Claim::Hit(hit) => Ok(*hit),
        crate::cache::Claim::Lead(lease) => {
            // A `?` here drops the lease un-completed, releasing joiners
            // to re-claim and surface the same error themselves.
            let result = build(cfg)?.with_label(label).run();
            lease.complete(&result);
            Ok(result)
        }
    }
}

/// The four-configuration comparison the paper's Figures 5–7 are built
/// from.
#[derive(Debug, Clone)]
pub struct FourWay {
    /// Benchmark name.
    pub benchmark: String,
    /// No prefetching.
    pub np: RunResult,
    /// Processor-side only.
    pub ps: RunResult,
    /// Memory-side only.
    pub ms: RunResult,
    /// Both.
    pub pms: RunResult,
}

impl FourWay {
    /// Run all four configurations of one benchmark as one sweep (same
    /// results as four [`run_benchmark`] calls).
    ///
    /// # Errors
    ///
    /// As [`run_benchmark`].
    pub fn run(profile: &WorkloadProfile, opts: &RunOpts) -> Result<Self, SimError> {
        let mut suite = four_way_suite(std::slice::from_ref(profile), opts)?;
        suite.pop().ok_or_else(|| SimError::UnknownProfile { name: profile.name.clone() })
    }

    /// `PMS vs NP` gain, percent (first bar group of Figures 5–7).
    pub fn pms_vs_np(&self) -> f64 {
        self.pms.gain_over(&self.np)
    }

    /// `MS vs NP` gain, percent.
    pub fn ms_vs_np(&self) -> f64 {
        self.ms.gain_over(&self.np)
    }

    /// `PMS vs PS` gain, percent.
    pub fn pms_vs_ps(&self) -> f64 {
        self.pms.gain_over(&self.ps)
    }

    /// DRAM power increase of PMS over PS, percent (Figures 8–10).
    pub fn power_increase(&self) -> f64 {
        self.pms.power_increase_over(&self.ps)
    }

    /// DRAM energy reduction of PMS over PS, percent.
    pub fn energy_reduction(&self) -> f64 {
        self.pms.energy_reduction_over(&self.ps)
    }
}

/// The four-configuration job list for a set of profiles, in the order
/// [`four_way_assemble`] consumes: profiles outer, [`PrefetchKind::ALL`]
/// inner.
pub(crate) fn four_way_jobs(profiles: &[WorkloadProfile], opts: &RunOpts) -> Vec<Job> {
    let threads = if opts.smt { 2 } else { 1 };
    let mut jobs = Vec::with_capacity(profiles.len() * PrefetchKind::ALL.len());
    for profile in profiles {
        for kind in PrefetchKind::ALL {
            jobs.push(Job::new(profile, SystemConfig::for_kind(kind, threads), kind.name()));
        }
    }
    jobs
}

/// Group [`four_way_jobs`] results (job order) back into one [`FourWay`]
/// per profile.
pub(crate) fn four_way_assemble(
    profiles: &[WorkloadProfile],
    results: Vec<RunResult>,
) -> Vec<FourWay> {
    let mut runs = results.into_iter();
    profiles
        .iter()
        .map(|profile| {
            // asd-lint: allow(D005) -- one result per job; four_way_jobs queued 4 per profile
            let mut take = || runs.next().expect("4 runs per profile");
            FourWay {
                benchmark: profile.name.clone(),
                np: take(),
                ps: take(),
                ms: take(),
                pms: take(),
            }
        })
        .collect()
}

/// Run the four-configuration comparison for every profile, all
/// `4 x profiles.len()` simulations as one sweep on the
/// [`crate::pipeline`] executor. Results are bit-identical to calling
/// [`FourWay::run`] per profile.
///
/// # Errors
///
/// As [`run_benchmark`].
pub fn four_way_suite(
    profiles: &[WorkloadProfile],
    opts: &RunOpts,
) -> Result<Vec<FourWay>, SimError> {
    let results = Pipeline::sweep(opts, four_way_jobs(profiles, opts)).results()?;
    Ok(four_way_assemble(profiles, results))
}

/// Arithmetic mean of a slice (the paper reports unweighted averages).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        // asd-lint: allow(D011) -- slice iteration: summation order is fixed by the caller's Vec
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asd_trace::suites;

    #[test]
    fn four_way_orders_sanely() {
        let profile = suites::by_name("milc").unwrap();
        let opts = RunOpts { accesses: 10_000, ..RunOpts::default() };
        let f = FourWay::run(&profile, &opts).unwrap();
        // Prefetching must never be catastrophically slower than NP, and
        // PMS should improve on NP for a short-stream workload.
        assert!(f.pms_vs_np() > -5.0);
        assert!(f.ms_vs_np() > -5.0);
        assert!(f.pms.cycles < f.np.cycles, "PMS faster than NP on milc");
    }

    #[test]
    fn mean_helper() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }
}
