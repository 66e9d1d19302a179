//! Determinism regression tests (lint catalog companion, see DESIGN.md):
//! the same seeded configuration must produce bit-identical results run
//! after run, serially and under any worker-thread count. Every figure in
//! the paper rests on this property; lints D001–D004 guard it statically,
//! these tests guard it dynamically.
//!
//! Both sides of every comparison simulate. The run cache is
//! process-wide, so each test owns a seed no other test uses: its
//! executor run misses on every job, and the serial side is direct
//! [`System::run`] calls, which never consult the run cache.

use asd_sim::pipeline::{Job, Pipeline};
use asd_sim::{PrefetchKind, RunOpts, RunResult, System, SystemConfig};
use asd_trace::suites;

/// Short runs with a per-test seed: `0xde7e` tags this binary, the low
/// byte tags the test.
fn opts(test: u64) -> RunOpts {
    RunOpts { seed: 0x00de_7e00 + test, ..RunOpts::default() }.with_accesses(4_000)
}

fn seeded_jobs() -> Vec<Job> {
    let mut jobs = Vec::new();
    for bench in ["milc", "GemsFDTD", "tpcc"] {
        let profile = suites::by_name(bench).unwrap();
        for kind in [PrefetchKind::Np, PrefetchKind::Pms] {
            jobs.push(Job::new(&profile, SystemConfig::for_kind(kind, 1), kind.name()));
        }
    }
    jobs
}

/// The seeded jobs simulated one after another on the calling thread,
/// through fresh systems and without the run cache.
fn serial(opts: &RunOpts) -> Vec<RunResult> {
    seeded_jobs()
        .into_iter()
        .map(|j| System::new(j.cfg, &j.profile, opts).unwrap().with_label(&j.label).run())
        .collect()
}

/// Every counter the simulator exposes, compared exactly — no tolerance.
fn assert_bit_identical(a: &[RunResult], b: &[RunResult], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: run counts differ");
    for (x, y) in a.iter().zip(b) {
        let tag = format!("{what}: {}/{}", x.benchmark, x.config);
        assert_eq!(x.benchmark, y.benchmark, "{tag}");
        assert_eq!(x.config, y.config, "{tag}");
        assert_eq!(x.cycles, y.cycles, "{tag}");
        assert_eq!(x.core, y.core, "{tag}");
        assert_eq!(x.mc, y.mc, "{tag}");
        assert_eq!(x.dram, y.dram, "{tag}");
        assert_eq!(x.power, y.power, "{tag}");
        assert_eq!(x.asd, y.asd, "{tag}");
    }
}

#[test]
fn same_seed_twice_is_bit_identical_serially() {
    let opts = opts(1);
    let first = serial(&opts);
    let second = serial(&opts);
    assert_bit_identical(&first, &second, "serial repeat");
}

#[test]
fn four_worker_sweep_is_bit_identical_to_serial() {
    let opts = opts(2);
    let parallel = Pipeline::sweep(&opts, seeded_jobs()).with_threads(4).results().unwrap();
    assert_bit_identical(&serial(&opts), &parallel, "4 workers vs serial");
}

#[test]
fn env_var_worker_override_is_bit_identical_to_serial() {
    // `ASD_SWEEP_THREADS` only applies when no explicit thread count is
    // set; the other executor run in this binary sets one, so the
    // variable cannot leak into it even though tests share the process.
    let opts = opts(3);
    std::env::set_var("ASD_SWEEP_THREADS", "4");
    let parallel = Pipeline::sweep(&opts, seeded_jobs()).results().unwrap();
    std::env::remove_var("ASD_SWEEP_THREADS");
    assert_bit_identical(&serial(&opts), &parallel, "ASD_SWEEP_THREADS=4 vs serial");
}

#[test]
fn different_seeds_actually_diverge() {
    // A determinism test that would also pass on a simulator ignoring its
    // seed proves nothing; pin that the seed is live.
    let base = opts(4);
    let reseeded = RunOpts { seed: base.seed ^ 0xdead_beef, ..base.clone() };
    let a = serial(&base);
    let b = serial(&reseeded);
    assert!(
        a.iter().zip(&b).any(|(x, y)| x.cycles != y.cycles),
        "changing the seed changed nothing — the seed is not reaching the trace generators"
    );
}
