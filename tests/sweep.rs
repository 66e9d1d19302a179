//! Sweeps on the executor and the pluggable-engine seam, end to end: a
//! parallel sweep must be bit-identical to the same runs made serially,
//! and a third-party prefetch engine must run through the full system
//! without any change to `asd-mc` or `asd-sim`.
//!
//! Each executor run has a [`RunContext`] of its own, so it simulates
//! every job unless the test hands a second sweep the same context, and
//! it is compared with direct [`System::run`] calls, which never consult
//! a run cache.

use asd_mc::{custom_engine, EngineFactory, McConfig, PrefetchEngine};
use asd_sim::experiment::run_custom;
use asd_sim::pipeline::{Job, Pipeline};
use asd_sim::{PrefetchKind, RunContext, RunOpts, RunResult, System, SystemConfig};
use asd_trace::suites;
use std::sync::Arc;

/// Short runs with a per-test seed.
fn opts(test: u64, accesses: u64) -> RunOpts {
    RunOpts { seed: 0x005e_eb00 + test, ..RunOpts::default() }.with_accesses(accesses)
}

/// Every PrefetchKind on each of `benches`, benchmarks outer.
fn four_way_jobs(benches: &[&str]) -> Vec<Job> {
    let mut jobs = Vec::new();
    for bench in benches {
        let profile = suites::by_name(bench).unwrap();
        for kind in PrefetchKind::ALL {
            jobs.push(Job::new(&profile, SystemConfig::for_kind(kind, 1), kind.name()));
        }
    }
    jobs
}

/// The jobs run one after another through fresh systems, bypassing the
/// executor and the run cache.
fn direct(jobs: Vec<Job>, opts: &RunOpts) -> Vec<RunResult> {
    jobs.into_iter()
        .map(|j| System::new(j.cfg, &j.profile, opts).unwrap().with_label(&j.label).run())
        .collect()
}

#[test]
fn parallel_sweep_bit_identical_to_serial() {
    // Mixed benchmarks and configurations; every counter of every run
    // must match the serial execution exactly, in job order.
    let opts = opts(1, 4_000);
    let benches = ["milc", "lbm", "tpcc"];
    let ctx = RunContext::default().with_threads(4);
    let par = Pipeline::sweep(&ctx, &opts, four_way_jobs(&benches)).results().unwrap();
    let ser = direct(four_way_jobs(&benches), &opts);
    assert_eq!(par.len(), 12);
    assert_eq!(par.len(), ser.len());
    for (p, s) in par.iter().zip(&ser) {
        let tag = format!("{}/{}", p.benchmark, p.config);
        assert_eq!(p.benchmark, s.benchmark, "{tag}");
        assert_eq!(p.config, s.config, "{tag}");
        assert_eq!(p.cycles, s.cycles, "{tag}");
        assert_eq!(p.core, s.core, "{tag}");
        assert_eq!(p.mc, s.mc, "{tag}");
        assert_eq!(p.dram, s.dram, "{tag}");
        assert_eq!(p.mc.prefetches_issued, s.mc.prefetches_issued, "{tag}");
    }
}

#[test]
fn sweep_is_repeatable() {
    // A parallel sweep, the same sweep again on the same context (now
    // served from its run cache), and a direct re-simulation all agree run
    // for run.
    let opts = opts(2, 3_000);
    let ctx = RunContext::default().with_threads(4);
    let sweep = || Pipeline::sweep(&ctx, &opts, four_way_jobs(&["tonto"]));
    let a = sweep().results().unwrap();
    let b = sweep().results().unwrap();
    let c = direct(four_way_jobs(&["tonto"]), &opts);
    assert_eq!(ctx.cache().stats(), (4, 4), "(hits, misses): the repeat is served");
    assert_eq!(a.len(), 4);
    for ((x, y), z) in a.iter().zip(&b).zip(&c) {
        assert_eq!(x.cycles, z.cycles, "{}", x.config);
        assert_eq!(x.mc, z.mc, "{}", x.config);
        assert_eq!(y.cycles, z.cycles, "{}", y.config);
        assert_eq!(y.mc, z.mc, "{}", y.config);
    }
}

/// A deliberately simple third-party engine: prefetch the next `n` lines
/// after every DRAM read. Defined entirely in this test crate — no
/// `asd-mc` or `asd-sim` code knows about it.
#[derive(Debug)]
struct NextN(usize);

impl PrefetchEngine for NextN {
    fn name(&self) -> &str {
        "next-n"
    }

    fn on_read(&mut self, line: u64, _thread: u8, _now: u64, out: &mut Vec<u64>) {
        for d in 1..=self.0 as u64 {
            out.push(line + d);
        }
    }
}

#[derive(Debug)]
struct NextNFactory(usize);

impl EngineFactory for NextNFactory {
    fn build(&self, _threads: usize) -> Box<dyn PrefetchEngine> {
        Box::new(NextN(self.0))
    }

    fn label(&self) -> &str {
        "next-n"
    }
}

#[test]
fn custom_engine_runs_through_full_system() {
    // The registry seam: plugging in an external engine is a config-level
    // operation, and the engine demonstrably drives the machine (it
    // issues prefetches, some of which are useful on a streaming
    // workload).
    let opts = opts(3, 8_000);
    let profile = suites::by_name("lbm").unwrap();
    let kind = custom_engine(Arc::new(NextNFactory(1)));
    let cfg = SystemConfig::for_kind(PrefetchKind::Np, 1)
        .with_mc(McConfig { engine: kind, ..McConfig::default() });
    let custom = run_custom(&profile, cfg, "next-n", &opts).unwrap();
    let baseline =
        run_custom(&profile, SystemConfig::for_kind(PrefetchKind::Np, 1), "NP", &opts).unwrap();
    assert!(custom.mc.prefetches_issued > 0, "custom engine must issue prefetches");
    assert!(custom.mc.useful_prefetch_fraction() > 0.0, "some prefetches must be useful on lbm");
    assert_eq!(baseline.mc.prefetches_issued, 0);
    assert!(
        custom.cycles < baseline.cycles,
        "next-line prefetching must help lbm: {} vs {}",
        custom.cycles,
        baseline.cycles
    );
}

#[test]
fn custom_engine_works_inside_parallel_sweep() {
    // One factory shared by several sweep jobs: each system builds its
    // own engine instance, and parallel equals serial as usual. An
    // anonymous custom engine is uncacheable, so both passes simulate.
    let opts = opts(4, 3_000);
    let factory: Arc<dyn EngineFactory> = Arc::new(NextNFactory(2));
    let jobs = || {
        let mut jobs = Vec::new();
        for bench in ["milc", "lbm"] {
            let profile = suites::by_name(bench).unwrap();
            let cfg = SystemConfig::for_kind(PrefetchKind::Np, 1).with_mc(McConfig {
                engine: custom_engine(Arc::clone(&factory)),
                ..McConfig::default()
            });
            jobs.push(Job::new(&profile, cfg, "next-2"));
        }
        jobs
    };
    let par_ctx = RunContext::default().with_threads(2);
    let par = Pipeline::sweep(&par_ctx, &opts, jobs()).results().unwrap();
    let ser_ctx = par_ctx.with_threads(1);
    let ser = Pipeline::sweep(&ser_ctx, &opts, jobs()).results().unwrap();
    assert_eq!(ser_ctx.cache().stats(), (0, 0), "anonymous engines never reach the cache");
    assert_eq!(par.len(), 2);
    for (p, s) in par.iter().zip(&ser) {
        assert_eq!(p.cycles, s.cycles, "{}", p.benchmark);
        assert_eq!(p.mc, s.mc, "{}", p.benchmark);
        assert!(p.mc.prefetches_issued > 0, "{}", p.benchmark);
    }
}
