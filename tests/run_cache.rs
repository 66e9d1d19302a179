//! Cross-figure run-cache soundness: serving a figure point from the
//! memoized cache must be indistinguishable — every counter, bit for bit
//! — from simulating it fresh with the cache out of the loop.
//!
//! `ASD_RUN_CACHE` is latched once per process, so these tests do not
//! toggle the variable; instead they compare the results the run memo
//! stores and serves ([`Sweep`], [`experiment::run_custom`]) against
//! direct [`System::run`], which never consults the run memo. The direct
//! runs still read their traces from the trace memo, so this is not the
//! `ASD_RUN_CACHE=0` path; the trace memo's own tests pin its streams to
//! the generator's, and `tests/pipeline_modes.rs` compares the figures
//! binary with the cache on and off, across processes.

use asd_sim::sweep::Sweep;
use asd_sim::{experiment, PrefetchKind, RunOpts, RunResult, System, SystemConfig};
use asd_trace::suites;

/// Options distinct from every other test binary's, so this file owns its
/// cache keys (the cache is process-global; binaries are separate
/// processes, but keep the keys self-describing anyway).
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

#[test]
fn cached_results_match_uncached_direct_runs() {
    let opts = opts();
    let mut sweep = Sweep::new(&opts);
    let benches = ["milc", "tonto", "lbm"];
    for bench in benches {
        let profile = suites::by_name(bench).unwrap();
        for kind in [PrefetchKind::Np, PrefetchKind::Pms] {
            sweep.push(&profile, SystemConfig::for_kind(kind, 1), kind.name());
        }
    }
    // First pass populates the cache, second pass is served from it.
    let first = sweep.run_serial().unwrap();
    let second = sweep.run_serial().unwrap();
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
fn cache_hits_are_restamped_with_the_callers_label() {
    let opts = opts();
    let profile = suites::by_name("GemsFDTD").unwrap();
    let cfg = SystemConfig::for_kind(PrefetchKind::Ms, 1);
    let a = experiment::run_custom(&profile, cfg.clone(), "first-label", &opts).unwrap();
    let b = experiment::run_custom(&profile, cfg, "second-label", &opts).unwrap();
    assert_eq!(a.config, "first-label");
    assert_eq!(b.config, "second-label", "hit must carry the new label, not the cached one");
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.mc, b.mc);
}

#[test]
fn cache_traffic_is_observable() {
    let opts = RunOpts { seed: 0x57a75, ..opts() };
    let profile = suites::by_name("tpcc").unwrap();
    let cfg = SystemConfig::for_kind(PrefetchKind::Ps, 1);
    let (h0, m0) = asd_sim::cache::global().stats();
    experiment::run_custom(&profile, cfg.clone(), "PS", &opts).unwrap();
    experiment::run_custom(&profile, cfg, "PS", &opts).unwrap();
    let (h1, m1) = asd_sim::cache::global().stats();
    if asd_sim::cache::enabled() {
        assert!(m1 > m0, "first run of a distinct key must count a miss");
        assert!(h1 > h0, "second run of the same key must count a hit");
    } else {
        // Someone ran this binary with ASD_RUN_CACHE=0: every lookup is
        // a bypass and the counters must stay flat.
        assert_eq!((h1, m1), (h0, m0));
    }
}
