//! Cross-figure run-cache soundness: serving a figure point from the
//! memoized cache must be indistinguishable — every counter, bit for bit
//! — from simulating it fresh with the cache out of the loop.
//!
//! Each test builds its own [`RunContext`]: two sweeps on one context
//! share its run cache, so the second is served from it, while direct
//! [`System::run`] calls never consult a cache. Two sweeps running at
//! once on one context may both simulate a point; they must still agree,
//! and every disk write must land. `tests/pipeline_modes.rs` compares the
//! figures binary with memoization on and off, across processes.

use asd_sim::pipeline::{Job, Pipeline};
use asd_sim::{PrefetchKind, RunContext, RunOpts, RunResult, System, SystemConfig};
use asd_trace::suites;

fn opts() -> RunOpts {
    RunOpts { seed: 0xcac4e, ..RunOpts::default() }.with_accesses(3_500)
}

fn assert_same(a: &RunResult, b: &RunResult, what: &str) {
    let tag = format!("{what}: {}/{}", a.benchmark, a.config);
    assert_eq!(a.benchmark, b.benchmark, "{tag}");
    assert_eq!(a.config, b.config, "{tag}");
    assert_eq!(a.cycles, b.cycles, "{tag}");
    assert_eq!(a.core, b.core, "{tag}");
    assert_eq!(a.mc, b.mc, "{tag}");
    assert_eq!(a.dram, b.dram, "{tag}");
    assert_eq!(a.power, b.power, "{tag}");
    assert_eq!(a.asd, b.asd, "{tag}");
}

/// One job of `bench` under `cfg` on `ctx`, labelled `label`.
fn run_one(
    ctx: &RunContext,
    bench: &str,
    cfg: SystemConfig,
    label: &str,
    opts: &RunOpts,
) -> RunResult {
    let profile = suites::by_name(bench).unwrap();
    let mut results =
        Pipeline::sweep(ctx, opts, vec![Job::new(&profile, cfg, label)]).results().unwrap();
    results.remove(0)
}

#[test]
fn cached_results_match_uncached_direct_runs() {
    let opts = opts();
    let benches = ["milc", "tonto", "lbm"];
    let ctx = RunContext::default().with_threads(1);
    let sweep = || {
        let mut jobs = Vec::new();
        for bench in benches {
            let profile = suites::by_name(bench).unwrap();
            for kind in [PrefetchKind::Np, PrefetchKind::Pms] {
                jobs.push(Job::new(&profile, SystemConfig::for_kind(kind, 1), kind.name()));
            }
        }
        Pipeline::sweep(&ctx, &opts, jobs)
    };
    // First pass populates the context's cache, second pass is served
    // from it.
    let first = sweep().results().unwrap();
    assert_eq!(ctx.cache().stats(), (0, 6), "(hits, misses): the first pass simulates");
    let second = sweep().results().unwrap();
    assert_eq!(ctx.cache().stats(), (6, 6), "(hits, misses): the second pass is served");
    // The reference: fresh systems, no cache involvement at all.
    let mut i = 0;
    for bench in benches {
        let profile = suites::by_name(bench).unwrap();
        for kind in [PrefetchKind::Np, PrefetchKind::Pms] {
            let direct = System::new(SystemConfig::for_kind(kind, 1), &profile, &opts)
                .unwrap()
                .with_label(kind.name())
                .run();
            assert_same(&first[i], &direct, "populating pass vs direct");
            assert_same(&second[i], &direct, "cache-served pass vs direct");
            i += 1;
        }
    }
}

#[test]
fn concurrent_sweeps_on_one_disk_backed_context_agree_and_persist() {
    let opts = opts();
    let grid = || {
        let mut jobs = Vec::new();
        for bench in ["milc", "lbm", "tpcc"] {
            let profile = suites::by_name(bench).unwrap();
            for kind in [PrefetchKind::Np, PrefetchKind::Ms] {
                jobs.push(Job::new(&profile, SystemConfig::for_kind(kind, 1), kind.name()));
            }
        }
        jobs
    };
    let direct: Vec<RunResult> = grid()
        .into_iter()
        .map(|j| System::new(j.cfg, &j.profile, &opts).unwrap().with_label(&j.label).run())
        .collect();
    let n = direct.len() as u64;
    let dir = std::env::temp_dir().join(format!("asd-run-cache-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Two threads sweep the same jobs, in the same order, on one context,
    // starting together: each point is simulated by one of them or by both.
    let ctx = RunContext::default().with_threads(2).with_disk_dir(dir.clone());
    let start = std::sync::Barrier::new(2);
    let outputs: Vec<Vec<RunResult>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    let sweep = Pipeline::sweep(&ctx, &opts, grid());
                    start.wait();
                    sweep.results().unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for output in &outputs {
        for (got, want) in output.iter().zip(&direct) {
            assert_same(got, want, "concurrent sweep vs direct");
        }
    }
    let (hits, misses) = ctx.cache().stats();
    assert_eq!(hits + misses, 2 * n, "each sweep looks each point up once");
    assert!(misses >= n, "every point simulated at least once: {misses}");
    let (_, _, writes, evictions) = ctx.cache().disk_stats();
    assert_eq!(writes, misses, "every simulation's record lands, each from its own temp file");
    assert_eq!(evictions, 0);

    // A fresh context on the directory serves every point from disk.
    let fresh = RunContext::default().with_disk_dir(dir.clone());
    let served = Pipeline::sweep(&fresh, &opts, grid()).results().unwrap();
    assert_eq!(fresh.cache().stats(), (n, 0), "(hits, misses): nothing simulated");
    assert_eq!(fresh.cache().disk_stats(), (n, 0, 0, 0), "(hits, misses, writes, evictions)");
    for (got, want) in served.iter().zip(&direct) {
        assert_same(got, want, "disk-served sweep vs direct");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_hits_are_restamped_with_the_callers_label() {
    let opts = opts();
    let ctx = RunContext::default();
    let cfg = SystemConfig::for_kind(PrefetchKind::Ms, 1);
    let a = run_one(&ctx, "GemsFDTD", cfg.clone(), "first-label", &opts);
    let b = run_one(&ctx, "GemsFDTD", cfg, "second-label", &opts);
    assert_eq!(ctx.cache().stats(), (1, 1), "(hits, misses): the second run is served");
    assert_eq!(a.config, "first-label");
    assert_eq!(b.config, "second-label", "hit must carry the new label, not the cached one");
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.mc, b.mc);
}

#[test]
fn cache_traffic_is_observable() {
    let opts = RunOpts { seed: 0x57a75, ..opts() };
    let ctx = RunContext::default();
    let cfg = SystemConfig::for_kind(PrefetchKind::Ps, 1);
    assert_eq!(ctx.cache().stats(), (0, 0), "a fresh context has seen nothing");
    run_one(&ctx, "tpcc", cfg.clone(), "PS", &opts);
    assert_eq!(ctx.cache().stats(), (0, 1), "(hits, misses) after the first run");
    run_one(&ctx, "tpcc", cfg, "PS", &opts);
    assert_eq!(ctx.cache().stats(), (1, 1), "(hits, misses) after the second run");
}
