//! Kernel hot-loop throughput: raw simulated accesses per second of the
//! event loop itself, per paper configuration.
//!
//! Unlike the figure benches (which time whole regeneration pipelines),
//! this target isolates [`System::run`] on a single benchmark at full
//! trace length, so a regression in the calendar queue, the lazy
//! component stepping, or the controller's per-cycle stages shows up here
//! first and unamortized. The PMS row exercises every hot structure at
//! once (stream filter, LPQ, prefetch buffer, CAQ, reorder queues); the
//! NP row is the floor the queues alone cost.
//!
//! Run with `cargo bench -p asd-bench --bench kernel_hotloop`. Set
//! `ASD_BENCH_ITERS` to change the best-of count (default 5; the
//! `scripts/check.sh` smoke uses 3), and `ASD_BENCH_ONLY` to a
//! comma-separated config list (e.g. `pms` or `np,ms`) to time a subset
//! — handy under a profiler.

use asd_sim::experiment::run_benchmark;
use asd_sim::{PrefetchKind, RunOpts};
use asd_trace::suites;
use std::hint::black_box;
use std::time::{Duration, Instant};

const ACCESSES: u64 = 60_000;

/// Process CPU time (user + system) in clock ticks from `/proc/self/stat`,
/// or `None` off Linux. On a shared/virtualized host, wall-clock minima
/// still include scheduler steal; CPU time summed over all iterations is
/// the noise-robust number (tick granularity is ~10 ms, so it is only
/// meaningful across the whole loop, never per iteration).
fn cpu_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The comm field (2) may contain spaces; fields resume after `)`.
    let rest = stat.rsplit_once(')')?.1;
    let mut fields = rest.split_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

fn main() {
    let iters: u32 = std::env::var("ASD_BENCH_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(5);
    let only = std::env::var("ASD_BENCH_ONLY").ok();
    let opts = RunOpts::default().with_accesses(ACCESSES);
    let profile = suites::by_name("milc").expect("known profile");

    for kind in PrefetchKind::ALL {
        if let Some(ref list) = only {
            let name = kind.name().to_lowercase();
            if !list.split(',').any(|w| w.trim().eq_ignore_ascii_case(&name)) {
                continue;
            }
        }
        let run = || {
            let r = run_benchmark(&profile, kind, &opts).expect("run");
            black_box(r.cycles);
        };
        run(); // warm-up
        let mut best = Duration::MAX;
        let ticks0 = cpu_ticks();
        for _ in 0..iters {
            let t0 = Instant::now();
            run();
            best = best.min(t0.elapsed());
        }
        let cpu = cpu_ticks().zip(ticks0).map(|(t1, t0)| t1 - t0);
        let per_sec = ACCESSES as f64 / best.as_secs_f64();
        let cpu_col = match cpu {
            Some(ticks) => format!("  cpu {:>8.3} ms/iter", ticks as f64 * 10.0 / iters as f64),
            None => String::new(),
        };
        println!(
            "kernel_hotloop_{:<4} best of {iters}: {:>9.3} ms  ({:>10.0} accesses/s){cpu_col}",
            kind.name().to_lowercase(),
            best.as_secs_f64() * 1e3,
            per_sec,
        );
    }
    println!("({ACCESSES} accesses of milc per iteration, trace generation included)");
}
