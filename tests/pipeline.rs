//! Edge-case tests for the job executor ([`asd_sim::pipeline`]): empty
//! figure sets, zero-job figures, duplicate labels, submission-time dedup
//! with its run-cache accounting, uncacheable (trace-sourced) jobs, error
//! selection (the earliest failing job of the earliest submitted plan),
//! deterministic output order under a threaded run, and the run's trace
//! memo (each trace generated once per plan, and freed after that plan's
//! last reader, so the catalog holds one node's traces at a time).
//!
//! Every test builds its own [`RunContext`], so the counts it asserts are
//! its own runs' whatever the tests beside it simulate.

use asd_sim::experiment::run_custom;
use asd_sim::pipeline::{FigureOutput, FigurePlan, Job, Pipeline};
use asd_sim::{
    figures, PrefetchKind, RunContext, RunOpts, SimError, System, SystemConfig, TraceSource,
};
use asd_trace::suites;

/// Short runs with a per-test seed.
fn opts(test: u64) -> RunOpts {
    RunOpts { seed: 0x0091_be00 + test, ..RunOpts::default() }.with_accesses(3_000)
}

fn np(threads: usize) -> SystemConfig {
    SystemConfig::for_kind(PrefetchKind::Np, threads)
}

/// A plan whose text is its own name plus each result's label and cycle
/// count — enough to prove which results arrived and in what order.
fn echo_plan(name: &str, opts: &RunOpts, jobs: Vec<Job>) -> FigurePlan {
    let tag = name.to_string();
    FigurePlan::new(name, opts, jobs, move |results| {
        let mut text = tag;
        for r in results {
            text.push_str(&format!(" {}={}", r.config, r.cycles));
        }
        Ok(FigureOutput::text_only(text))
    })
}

#[test]
fn empty_pipeline_yields_no_figures_and_zero_stats() {
    let run = Pipeline::new(&RunContext::default()).run(&|| 0.0).unwrap();
    assert!(run.figures.is_empty());
    assert_eq!(run.stats.figures, 0);
    assert_eq!(run.stats.submitted_jobs, 0);
    assert_eq!(run.stats.unique_jobs, 0);
    assert_eq!(run.stats.inflight_joins, 0);
    assert_eq!(run.stats.peak_live_jobs, 0);
}

#[test]
fn zero_job_figure_assembles_and_reads_the_clock() {
    // `cost` is a pure table: no simulations, assembly produces the text.
    let ctx = RunContext::default();
    let mut pipe = Pipeline::new(&ctx);
    pipe.submit(figures::plan("cost", &opts(1)).unwrap());
    let run = pipe.run(&|| 42.5).unwrap();
    assert_eq!(run.figures.len(), 1);
    assert_eq!(run.figures[0].name, "cost");
    assert_eq!(run.figures[0].output.text, figures::hardware_cost_table());
    assert_eq!(run.figures[0].wall_ms, 42.5);
    assert_eq!(run.stats.submitted_jobs, 0);
    assert_eq!(run.stats.peak_live_jobs, 0);
}

#[test]
fn single_job_figure_matches_a_direct_run() {
    let o = opts(2);
    let milc = suites::by_name("milc").unwrap();
    let direct = System::new(np(1), &milc, &o).unwrap().with_label("NP").run();

    let ctx = RunContext::default();
    let mut pipe = Pipeline::new(&ctx);
    pipe.submit(echo_plan("solo", &o, vec![Job::new(&milc, np(1), "NP")]));
    let graph = pipe.run(&|| 0.0).unwrap();
    assert_eq!(graph.figures[0].output.text, format!("solo NP={}", direct.cycles));
    assert_eq!(graph.stats.unique_jobs, 1);
}

#[test]
fn trace_sourced_jobs_are_uncacheable_and_never_dedup() {
    // Replay configs have no cache key (the file's contents are not part
    // of the config), so each submission must get its own node even when
    // the textual config matches.
    let o = opts(4);
    let milc = suites::by_name("milc").unwrap();
    let replay = || np(1).with_trace(TraceSource::replay("/nonexistent/pipeline-test.asdt"));
    let ctx = RunContext::default();
    let mut pipe = Pipeline::new(&ctx);
    pipe.submit(echo_plan("a", &o, vec![Job::new(&milc, replay(), "NP")]));
    pipe.submit(echo_plan("b", &o, vec![Job::new(&milc, replay(), "NP")]));
    assert_eq!(pipe.submitted_jobs(), 2);
    assert_eq!(pipe.unique_jobs(), 2, "uncacheable jobs keep their own nodes");
    assert_eq!(pipe.inflight_joins(), 0);
}

#[test]
fn job_error_selection_matches_sweep_run() {
    let o = opts(5);
    let milc = suites::by_name("milc").unwrap();
    let bad = |path: &str| np(1).with_trace(TraceSource::replay(path));

    let jobs = || {
        vec![
            Job::new(&milc, np(1), "ok"),
            Job::new(&milc, bad("/nonexistent/pipeline-b.asdt"), "bad-b"),
            Job::new(&milc, bad("/nonexistent/pipeline-a.asdt"), "bad-a"),
        ]
    };

    // Reference: the earliest job-order failure, run by itself.
    let want = run_custom(&milc, bad("/nonexistent/pipeline-b.asdt"), "bad-b", &o).unwrap_err();
    assert!(matches!(want, SimError::TraceIo { .. }), "precondition: {want:?}");

    // A sweep of the jobs, on any number of workers, and the same jobs as
    // one figure must pick that error even though `bad-a` also fails.
    for threads in [1, 4] {
        let ctx = RunContext::default().with_threads(threads);
        let got = Pipeline::sweep(&ctx, &o, jobs()).results().unwrap_err();
        assert_eq!(got, want, "sweep on {threads} workers");
    }
    let ctx = RunContext::default();
    let mut pipe = Pipeline::new(&ctx);
    pipe.submit(echo_plan("f", &o, jobs()));
    assert_eq!(pipe.run(&|| 0.0).unwrap_err(), want);
}

#[test]
fn cross_figure_errors_report_the_earliest_submitted_figure() {
    let o = opts(6);
    let milc = suites::by_name("milc").unwrap();
    let bad = |path: &str| np(1).with_trace(TraceSource::replay(path));

    let expected =
        run_custom(&milc, bad("/nonexistent/pipeline-first.asdt"), "bad", &o).unwrap_err();

    let ctx = RunContext::default();
    let mut pipe = Pipeline::new(&ctx);
    pipe.submit(echo_plan(
        "first",
        &o,
        vec![Job::new(&milc, bad("/nonexistent/pipeline-first.asdt"), "bad")],
    ));
    pipe.submit(echo_plan(
        "second",
        &o,
        vec![Job::new(&milc, bad("/nonexistent/pipeline-second.asdt"), "bad")],
    ));
    // Both figures fail; the earliest submission order wins.
    assert_eq!(pipe.run(&|| 0.0).unwrap_err(), expected);
}

#[test]
fn assemble_errors_propagate() {
    let o = opts(7);
    let ctx = RunContext::default();
    let mut pipe = Pipeline::new(&ctx);
    pipe.submit(FigurePlan::new("boom", &o, Vec::new(), |_| {
        Err(SimError::UnknownFigure { name: "boom".to_string() })
    }));
    let err = pipe.run(&|| 0.0).unwrap_err();
    assert_eq!(err, SimError::UnknownFigure { name: "boom".to_string() });
}

#[test]
fn duplicate_jobs_within_one_figure_keep_their_labels() {
    let o = opts(8);
    let milc = suites::by_name("milc").unwrap();
    let plan = FigurePlan::new(
        "relabel",
        &o,
        vec![Job::new(&milc, np(1), "L1"), Job::new(&milc, np(1), "L2")],
        |results| {
            assert_eq!(results.len(), 2);
            assert_eq!(results[0].config, "L1");
            assert_eq!(results[1].config, "L2");
            assert_eq!(results[0].cycles, results[1].cycles);
            Ok(FigureOutput::text_only("ok".to_string()))
        },
    );
    let ctx = RunContext::default();
    let mut pipe = Pipeline::new(&ctx);
    pipe.submit(plan);
    let run = pipe.run(&|| 0.0).unwrap();
    assert_eq!(run.figures[0].output.text, "ok");
    assert_eq!(run.stats.unique_jobs, 1);
    assert_eq!(run.stats.inflight_joins, 1);
}

#[test]
fn duplicate_jobs_across_figures_simulate_once() {
    let o = opts(3);
    let lbm = suites::by_name("lbm").unwrap();
    let plan = |name: &str| echo_plan(name, &o, vec![Job::new(&lbm, np(1), "NP")]);

    let ctx = RunContext::default();
    let mut pipe = Pipeline::new(&ctx);
    pipe.submit(plan("first"));
    pipe.submit(plan("second"));
    assert_eq!(pipe.submitted_jobs(), 2);
    assert_eq!(pipe.unique_jobs(), 1, "identical jobs collapse at submission");
    assert_eq!(pipe.inflight_joins(), 1);

    let run = pipe.run(&|| 0.0).unwrap();
    // One node, one simulation: the key misses once on the fresh context,
    // and the joined figure never looks it up again.
    assert_eq!(ctx.cache().stats(), (0, 1), "(hits, misses): exactly one simulation ran");
    // That simulation generated its one fresh trace; nothing else asked.
    assert_eq!(run.stats.traces_generated, 1, "one trace generated");
    assert_eq!(run.stats.traces_served, 0, "no trace served twice");
    assert_eq!(run.stats.peak_trace_bytes, 3_000 * 8, "8 bytes per access");
    assert_eq!(run.stats.peak_live_jobs, 1);
    let first = run.figures[0].output.text.strip_prefix("first").unwrap();
    let second = run.figures[1].output.text.strip_prefix("second").unwrap();
    assert_eq!(first, second, "both figures saw the same result");
}

#[test]
fn threaded_run_returns_figures_in_submission_order() {
    let o = opts(9);
    let names = ["delta", "alpha", "echo", "bravo", "charlie"];
    let ctx = RunContext::default().with_threads(4);
    let mut pipe = Pipeline::new(&ctx);
    for (i, name) in names.iter().enumerate() {
        // Distinct benchmarks so each figure has real, non-deduped work.
        let profile = suites::all_profiles().into_iter().nth(i).unwrap();
        pipe.submit(echo_plan(name, &o, vec![Job::new(&profile, np(1), "NP")]));
    }
    let run = pipe.run(&|| 0.0).unwrap();
    let got: Vec<&str> = run.figures.iter().map(|f| f.name.as_str()).collect();
    assert_eq!(got, names, "output order is submission order, not completion order");
}

/// One job per (profile, configuration) pair, profiles outer.
fn grid(profiles: &[&str], kinds: &[PrefetchKind]) -> Vec<Job> {
    let mut jobs = Vec::new();
    for name in profiles {
        let profile = suites::by_name(name).unwrap();
        for &kind in kinds {
            jobs.push(Job::new(&profile, SystemConfig::for_kind(kind, 1), kind.name()));
        }
    }
    jobs
}

#[test]
fn a_trace_is_freed_after_its_last_reader_not_at_the_end_of_the_run() {
    // Jobs reading traces A, A, B, on one worker, which runs them in
    // order: if A were kept to the end of the run, the run would hold A
    // and B at once.
    let o = opts(10);
    let jobs = grid(&["milc"], &[PrefetchKind::Np, PrefetchKind::Pms])
        .into_iter()
        .chain(grid(&["lbm"], &[PrefetchKind::Np]))
        .collect();
    let ctx = RunContext::default().with_threads(1);
    let run = Pipeline::sweep(&ctx, &o, jobs).run(&|| 0.0).unwrap();
    assert_eq!(run.stats.traces_generated, 2);
    assert_eq!(run.stats.traces_served, 1, "the second job reads A from the memo");
    assert_eq!(
        run.stats.peak_trace_bytes,
        3_000 * 8,
        "one trace at a time: A is freed before B is generated"
    );
}

#[test]
fn looped_threaded_runs_generate_each_shared_trace_once() {
    // Four workers race for two traces, four readers each, in every run:
    // a memo that regenerated a trace, or freed one before its last
    // reader, would count a third generation.
    for i in 0..20 {
        let o = RunOpts { seed: 0x0091_bf00 + i, ..RunOpts::default() }.with_accesses(2_000);
        let jobs = grid(&["milc", "tpcc"], &PrefetchKind::ALL);
        let ctx = RunContext::default().with_threads(4);
        let run = Pipeline::sweep(&ctx, &o, jobs).run(&|| 0.0).unwrap();
        let counts = (run.stats.traces_generated, run.stats.traces_served);
        assert_eq!(counts, (2, 6), "run {i}: (generated, served)");
        assert!(run.stats.peak_trace_bytes <= 2 * 2_000 * 8, "run {i}");
    }
}

#[test]
fn a_trace_lives_only_inside_the_plan_that_reads_it() {
    // Plan 1 reads trace A, plan 2 trace B, plan 3 trace A again under
    // another configuration (so its node is its own), on one worker: a
    // memo that kept A for plan 3 would hold A and B at once.
    let o = opts(11);
    let ctx = RunContext::default().with_threads(1);
    let mut pipe = Pipeline::new(&ctx);
    pipe.submit(echo_plan("a", &o, grid(&["milc"], &[PrefetchKind::Np])));
    pipe.submit(echo_plan("b", &o, grid(&["lbm"], &[PrefetchKind::Np])));
    pipe.submit(echo_plan("a-again", &o, grid(&["milc"], &[PrefetchKind::Pms])));
    let run = pipe.run(&|| 0.0).unwrap();
    assert_eq!(run.stats.traces_generated, 3, "A for plans 1 and 3, B for plan 2");
    assert_eq!(run.stats.traces_served, 0);
    assert_eq!(run.stats.peak_trace_bytes, 3_000 * 8, "one trace at a time");
}

#[test]
fn the_catalog_holds_one_nodes_traces_at_a_time() {
    // Every catalog plan that submits jobs, at one uniform size. Each
    // plan lists its jobs one profile at a time and frees a trace after
    // its own last reader, so one worker holds at most the largest node's
    // traces: an SMT pair. Holding the traces of every profile that later
    // plans read again, the run would peak at over 30.
    const ACCESSES: u64 = 2_000;
    let trace = ACCESSES as usize * 8;
    let o = RunOpts::default().with_accesses(ACCESSES);
    let mut counts = Vec::new();
    for threads in [1, 2] {
        let ctx = RunContext::default().with_threads(threads);
        let mut pipe = Pipeline::new(&ctx);
        for name in figures::CATALOG {
            let plan = figures::plan_sized(name, &o, true).unwrap();
            if !plan.jobs().is_empty() {
                pipe.submit(plan);
            }
        }
        let stats = pipe.run(&|| 0.0).unwrap().stats;
        if threads == 1 {
            assert_eq!(stats.peak_trace_bytes, 2 * trace, "one worker runs nodes in order");
        } else {
            // How two workers interleave decides which traces overlap.
            assert!(stats.peak_trace_bytes <= 10 * trace, "{stats:?}");
        }
        counts.push((stats.traces_generated, stats.traces_served));
    }
    assert_eq!(counts[0], counts[1], "(generated, served) on 1 and 2 workers");
}
