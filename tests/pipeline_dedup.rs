//! Submission-time dedup in the job-graph pipeline
//! ([`asd_sim::pipeline`]), with its run-cache and trace-memo accounting.
//!
//! The test asserts exact deltas of the process-wide run cache's
//! counters, which any concurrent simulation in the same process moves.
//! It is therefore the only test in this binary: cargo runs each test
//! binary in a process of its own. The trace counts belong to the run
//! itself ([`asd_sim::pipeline::PipelineStats`]).

use asd_sim::pipeline::{FigureOutput, FigurePlan, Job, Pipeline};
use asd_sim::{cache, PrefetchKind, RunOpts, SystemConfig};
use asd_trace::suites;

/// A plan whose text is its own name plus each result's label and cycle
/// count — enough to prove which results arrived.
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
fn duplicate_jobs_across_figures_simulate_once() {
    if !cache::enabled() {
        return; // dedup is keyed on the cache; nothing to assert with it off
    }
    let o = RunOpts { seed: 0x0091_be03, ..RunOpts::default() }.with_accesses(3_000);
    let lbm = suites::by_name("lbm").unwrap();
    let np = SystemConfig::for_kind(PrefetchKind::Np, 1);
    let plan = |name: &str| echo_plan(name, &o, vec![Job::new(&lbm, np.clone(), "NP")]);

    let mut pipe = Pipeline::new();
    pipe.submit(plan("first"));
    pipe.submit(plan("second"));
    assert_eq!(pipe.submitted_jobs(), 2);
    assert_eq!(pipe.unique_jobs(), 1, "identical jobs collapse at submission");
    assert_eq!(pipe.inflight_joins(), 1);

    let (hits_before, misses_before) = cache::global().stats();
    let run = pipe.run(&|| 0.0).unwrap();
    let (hits_after, misses_after) = cache::global().stats();
    // One node, one simulation: the fresh key misses exactly once and the
    // joined figure never touches the cache again.
    assert_eq!(misses_after - misses_before, 1, "exactly one simulation ran");
    assert_eq!(hits_after - hits_before, 0, "the duplicate joined; it did not re-look-up");
    // That simulation generated its one fresh trace; nothing else asked.
    assert_eq!(run.stats.traces_generated, 1, "one trace generated");
    assert_eq!(run.stats.traces_served, 0, "no trace served twice");
    assert_eq!(run.stats.peak_trace_bytes, 3_000 * 8, "8 bytes per access");
    assert_eq!(run.stats.peak_live_jobs, 1);
    let first = run.figures[0].output.text.strip_prefix("first").unwrap();
    let second = run.figures[1].output.text.strip_prefix("second").unwrap();
    assert_eq!(first, second, "both figures saw the same result");
}
