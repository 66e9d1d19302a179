//! Manual benches: one target per table/figure of the paper.
//!
//! Each target runs the complete regeneration pipeline for its figure at a
//! reduced trace length, so `cargo bench` both times the simulator and
//! proves every experiment still runs end to end. The harness is plain
//! `std::time` (the workspace builds offline with no external crates);
//! each target is repeated a few times and the best wall-clock time is
//! reported. The printed tables of record come from the `figures` binary
//! (see EXPERIMENTS.md).
//!
//! Run with `cargo bench -p asd-bench`; pass a substring to filter
//! targets, e.g. `cargo bench -p asd-bench -- sweep`.

use asd_bench::bench_opts;
use asd_sim::experiment::FourWay;
use asd_sim::figures as figs;
use asd_sim::pipeline::{Job, Pipeline};
use asd_sim::{PrefetchKind, RunOpts, SystemConfig};
use asd_trace::suites::{self, Suite};
use std::hint::black_box;
use std::time::{Duration, Instant};

const ITERS: u32 = 3;

fn bench(filter: &str, name: &str, mut f: impl FnMut()) {
    if !name.contains(filter) {
        return;
    }
    // Warm-up once, then keep the best of `ITERS` timed runs.
    f();
    let mut best = Duration::MAX;
    for _ in 0..ITERS {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed());
    }
    println!("{name:<32} best of {ITERS}: {:>10.3} ms", best.as_secs_f64() * 1e3);
}

fn suite_bench(filter: &str, name: &str, suite: Suite) {
    let opts = bench_opts();
    // One representative benchmark per suite keeps iterations tractable;
    // the full sweep lives in the `figures` binary.
    let profiles = suite.profiles();
    let profile = &profiles[2];
    bench(filter, name, || {
        black_box(FourWay::run(profile, &opts).expect("fourway").pms_vs_np());
    });
}

fn main() {
    // The run cache would satisfy every iteration after the first from
    // memory, so timed repeats would measure a BTreeMap lookup instead of
    // the simulator. Benches always run cache-off.
    std::env::set_var("ASD_RUN_CACHE", "0");
    let filter = std::env::args().nth(1).unwrap_or_default();
    let f = filter.as_str();

    bench(f, "fig02_slh_gemsfdtd_epoch", || {
        let opts = RunOpts { accesses: 30_000, ..bench_opts() };
        black_box(figs::fig2_slh(&opts).expect("fig2").0);
    });

    bench(f, "fig03_slh_across_epochs", || {
        let opts = RunOpts { accesses: 60_000, ..bench_opts() };
        black_box(figs::fig3_slh_epochs(&opts).expect("fig3").0.len());
    });

    suite_bench(f, "fig05_spec_fourway", Suite::Spec2006Fp);
    suite_bench(f, "fig06_nas_fourway", Suite::Nas);
    suite_bench(f, "fig07_commercial_fourway", Suite::Commercial);

    bench(f, "fig08_10_power_energy", || {
        let opts = bench_opts();
        let profile = suites::by_name("milc").unwrap();
        let four = FourWay::run(&profile, &opts).expect("fourway");
        black_box((four.power_increase(), four.energy_reduction()));
    });

    bench(f, "fig11_mc_configs", || {
        let opts = bench_opts();
        // One benchmark across all eight MC configurations per iteration.
        let profile = suites::by_name("milc").unwrap();
        let jobs = figs::fig11_configs()
            .into_iter()
            .map(|(label, mc)| {
                Job::new(&profile, SystemConfig::for_kind(PrefetchKind::Pms, 1).with_mc(mc), &label)
            })
            .collect();
        let results = Pipeline::sweep(&opts, jobs).results().expect("sweep");
        let total: u64 = results.iter().map(|r| r.cycles).sum();
        black_box(total);
    });

    bench(f, "fig12_stream_shares", || {
        let opts = RunOpts { accesses: 20_000, ..bench_opts() };
        black_box(
            asd_sim::slh_study::stream_shares(
                &suites::by_name("notesbench").unwrap(),
                opts.accesses as usize,
                opts.seed,
            )
            .expect("stream shares")
            .len2_to_5(),
        );
    });

    bench(f, "fig13_prefetch_efficiency", || {
        let opts = bench_opts();
        let profile = suites::by_name("tpcc").unwrap();
        let r = asd_sim::experiment::run_benchmark(&profile, PrefetchKind::Pms, &opts)
            .expect("benchmark");
        black_box((r.mc.coverage(), r.mc.useful_prefetch_fraction(), r.mc.delayed_fraction()));
    });

    for (name, sizes) in [("fig14_pb_size_sweep", true), ("fig15_filter_size_sweep", false)] {
        bench(f, name, || {
            let opts = bench_opts();
            let profile = suites::by_name("milc").unwrap();
            let mut jobs = Vec::new();
            for size in [8usize, 16] {
                let mc = if sizes {
                    asd_mc::McConfig { pb_lines: size, pb_assoc: 4, ..asd_mc::McConfig::default() }
                } else {
                    asd_mc::McConfig {
                        engine: asd_mc::EngineKind::Asd(
                            asd_core::AsdConfig::default().with_filter_slots(size),
                        ),
                        ..asd_mc::McConfig::default()
                    }
                };
                let cfg = SystemConfig::for_kind(PrefetchKind::Pms, 1).with_mc(mc);
                jobs.push(Job::new(&profile, cfg, "sweep"));
            }
            let results = Pipeline::sweep(&opts, jobs).results().expect("sweep");
            let total: u64 = results.iter().map(|r| r.cycles).sum();
            black_box(total);
        });
    }

    bench(f, "fig16_slh_accuracy", || {
        let opts = RunOpts { accesses: 30_000, ..bench_opts() };
        black_box(figs::fig16_slh_accuracy(&opts).expect("fig16").0.len());
    });

    bench(f, "table_hardware_cost", || {
        black_box(figs::hardware_cost_table().len());
    });

    bench(f, "arena_two_by_two", || {
        // The smoke-sized tournament: 2 engines x 2 profiles through the
        // full league-table pipeline (the 30-profile arena of record
        // lives in the `figures` binary).
        let opts = bench_opts();
        let profiles: Vec<_> =
            ["milc", "tpcc"].iter().map(|n| suites::by_name(n).expect("known")).collect();
        let a =
            asd_sim::arena::arena_with(&["asd", "stream-table"], &profiles, &opts).expect("arena");
        black_box(a.rows.len());
    });

    // Serial vs parallel four-way suite: the wall-clock ratio the
    // executor's worker threads exist for. Reported explicitly so the
    // speedup is visible in every bench run.
    if "suite_serial_vs_parallel".contains(f) || f.is_empty() {
        let opts = bench_opts();
        let profiles = Suite::Spec2006Fp.profiles();
        let build = || {
            let mut jobs = Vec::new();
            for p in &profiles {
                for kind in PrefetchKind::ALL {
                    jobs.push(Job::new(p, SystemConfig::for_kind(kind, 1), kind.name()));
                }
            }
            Pipeline::sweep(&opts, jobs)
        };
        let t0 = Instant::now();
        let serial = build().with_threads(1).results().expect("sweep");
        let t_serial = t0.elapsed();
        let t1 = Instant::now();
        let parallel = build().results().expect("sweep");
        let t_parallel = t1.elapsed();
        assert_eq!(serial.len(), parallel.len());
        println!(
            "suite_serial_vs_parallel         serial {:>8.1} ms, parallel {:>8.1} ms ({:.2}x)",
            t_serial.as_secs_f64() * 1e3,
            t_parallel.as_secs_f64() * 1e3,
            t_serial.as_secs_f64() / t_parallel.as_secs_f64().max(1e-9),
        );
    }

    // Trace replay vs regeneration: the traceio subsystem's reason to
    // exist. Record the heaviest SLH-study profile once, then compare
    // draining the decoded file against re-running the generator for the
    // same accesses. Reported explicitly, like the sweep speedup above.
    if "trace_replay_vs_generate".contains(f) || f.is_empty() {
        use asd_trace::{thread_seed, TraceGenerator};
        use asd_traceio::{record_profile, TraceReader};
        let accesses: u64 = 200_000;
        let profile = suites::by_name("GemsFDTD").expect("known profile");
        let path =
            std::env::temp_dir().join(format!("asd-bench-replay-{}.asdt", std::process::id()));
        record_profile(&path, &profile, 0x5eed, 1, accesses).expect("record");
        let drain_generate = || {
            let g = TraceGenerator::new(profile.clone(), thread_seed(0x5eed, 0)).with_thread(0);
            g.take(accesses as usize).map(|a| a.addr).fold(0u64, u64::wrapping_add)
        };
        let drain_replay = || {
            TraceReader::open(&path)
                .expect("open")
                .map(|r| r.expect("verified file decodes").addr)
                .fold(0u64, u64::wrapping_add)
        };
        assert_eq!(drain_generate(), drain_replay(), "replay must decode the same stream");
        let time = |run: &mut dyn FnMut() -> u64| {
            let mut best = Duration::MAX;
            for _ in 0..ITERS {
                let t0 = Instant::now();
                black_box(run());
                best = best.min(t0.elapsed());
            }
            best
        };
        let t_gen = time(&mut { drain_generate });
        let t_rep = time(&mut { drain_replay });
        println!(
            "trace_replay_vs_generate         generate {:>6.1} ms, replay {:>6.1} ms ({:.2}x)",
            t_gen.as_secs_f64() * 1e3,
            t_rep.as_secs_f64() * 1e3,
            t_gen.as_secs_f64() / t_rep.as_secs_f64().max(1e-9),
        );
        std::fs::remove_file(&path).ok();
    }
}
