//! Arena + prefetcher-zoo integration: every zoo engine must be
//! bit-identical serial vs parallel vs a direct cache-free run, the
//! league table itself must reproduce one pinned golden ordering, and a
//! small arena and the §5.3 scheduler table must print pinned bytes.
//!
//! The cache-free leg is the direct [`System::run`] path, which consults
//! no run cache. The parallel and serial sweeps share one
//! [`RunContext`]: the parallel pass runs first, so it simulates every
//! job, and the serial pass after it is served from the context's run
//! cache. Zoo engines participate in the run cache through
//! `EngineFactory::stable_id`, so the cache-served pass here is also the
//! soundness check for those ids.

use asd_sim::cache::fnv64;
use asd_sim::pipeline::{Job, Pipeline};
use asd_sim::{PrefetchKind, RunContext, RunOpts, RunResult, System, SystemConfig};
use asd_trace::suites;

fn opts() -> RunOpts {
    RunOpts { seed: 0xa12e9a, ..RunOpts::default() }.with_accesses(3_000)
}

/// An NP machine per zoo engine per profile — the arena's row recipe.
fn zoo_jobs() -> Vec<Job> {
    let mut jobs = Vec::new();
    for bench in ["milc", "tpcc"] {
        let profile = suites::by_name(bench).unwrap();
        for name in asd_engines::names() {
            let cfg = SystemConfig::for_kind(PrefetchKind::Np, 1).with_engine_named(name).unwrap();
            jobs.push(Job::new(&profile, cfg, name));
        }
    }
    jobs
}

fn assert_same(a: &RunResult, b: &RunResult, what: &str) {
    let tag = format!("{what}: {}/{}", a.benchmark, a.config);
    assert_eq!(a.cycles, b.cycles, "{tag}");
    assert_eq!(a.core, b.core, "{tag}");
    assert_eq!(a.mc, b.mc, "{tag}");
    assert_eq!(a.dram, b.dram, "{tag}");
    assert_eq!(a.power, b.power, "{tag}");
    assert_eq!(a.asd, b.asd, "{tag}");
}

#[test]
fn every_zoo_engine_is_bit_identical_serial_parallel_and_uncached() {
    let opts = opts();
    let parallel_ctx = RunContext::default().with_threads(4);
    let parallel = Pipeline::sweep(&parallel_ctx, &opts, zoo_jobs()).results().unwrap();
    // The same run cache on one worker: every job is served from it.
    let jobs = zoo_jobs();
    let serial_ctx = parallel_ctx.with_threads(1);
    let serial = Pipeline::sweep(&serial_ctx, &opts, zoo_jobs()).results().unwrap();
    assert_eq!(serial.len(), asd_engines::names().len() * 2);
    assert_eq!(
        serial_ctx.cache().stats(),
        (jobs.len() as u64, jobs.len() as u64),
        "(hits, misses): the parallel pass simulated every job, the serial pass none"
    );
    for (i, job) in jobs.into_iter().enumerate() {
        // The reference: a fresh system, no cache involvement at all.
        let direct =
            System::new(job.cfg, &job.profile, &opts).unwrap().with_label(&job.label).run();
        assert_same(&parallel[i], &direct, "parallel (cache-populating) vs direct");
        assert_same(&serial[i], &direct, "serial (cache-served) vs direct");
    }
}

#[test]
fn league_table_ordering_is_golden() {
    // The full default roster over two profiles per suite; reduced run
    // length keeps this a test, not a benchmark. Any engine or scoring
    // change that reshuffles the table must update this pin consciously.
    let opts = RunOpts { seed: 0xa12e9a, ..RunOpts::default() }.with_accesses(4_000);
    let profiles: Vec<_> = ["milc", "GemsFDTD", "tpcc", "sap", "cg", "mg"]
        .iter()
        .map(|n| suites::by_name(n).unwrap())
        .collect();
    let roster = asd_sim::arena::default_roster();
    let engines: Vec<&str> = roster.iter().map(String::as_str).collect();
    let a = asd_sim::arena::arena_with(&RunContext::default(), &engines, &profiles, &opts).unwrap();
    let order: Vec<&str> = a.rows.iter().map(|r| r.engine.as_str()).collect();
    // At this run length ASD's epoch-driven histogram barely warms up, so
    // it trails the always-on engines; the full-length arena of record
    // (BENCH_figures.json) has it second. Both tables are deterministic.
    assert_eq!(
        order,
        ["next-line", "reeses", "p5-style", "stream-table", "stride", "dspatch", "asd"],
        "league table reshuffled; full rows:\n{}",
        a.text
    );
    // Sanity on the scoreboard itself: ranked column strictly ordered,
    // and every engine actually prefetched something.
    for pair in a.rows.windows(2) {
        assert!(pair[0].ipc_delta_pct >= pair[1].ipc_delta_pct);
    }
    for r in &a.rows {
        assert!(r.traffic_per_kread > 0.0, "{} issued no prefetches", r.engine);
    }
}

#[test]
fn profile_major_plans_print_the_recorded_bytes() {
    // The arena and the §5.3 scheduler table list their jobs one profile
    // at a time, so that a memoized trace lives only while one profile's
    // runs read it. Their text must not depend on that order: these
    // digests were recorded from the engine-major and scheduler-major job
    // lists that came before.
    let opts = RunOpts { seed: 0xa12e9a, ..RunOpts::default() }.with_accesses(3_000);
    let ctx = RunContext::default();
    let sched = asd_sim::figures::figure_text(&ctx, "sched", &opts).unwrap();
    let profiles: Vec<_> = ["milc", "tpcc"].iter().map(|n| suites::by_name(n).unwrap()).collect();
    let a = asd_sim::arena::arena_with(&ctx, &["asd", "stream-table"], &profiles, &opts).unwrap();
    let arena = format!("{}{:?}", a.text, a.rows);
    assert_eq!(
        (fnv64(&sched), fnv64(&arena)),
        (0xad19_7068_57f5_92f8, 0xb5b8_8969_1bbe_5dab),
        "sched:\n{sched}\narena:\n{arena}"
    );
}
