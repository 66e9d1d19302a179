//! Telemetry overhead guard: the observability layer must cost ≤2% of
//! simulation wall-clock when fully enabled, and ~0% when disabled (the
//! disabled path is a single branch on a detached registry).
//!
//! Three configurations of the same PMS run are timed — telemetry off,
//! metrics only, and metrics + event ring — and the run results are
//! asserted bit-identical (minus the snapshot itself) before any timing,
//! so the bench doubles as a neutrality check. The reported numbers of
//! record live in EXPERIMENTS.md.
//!
//! Run with `cargo bench -p asd-bench --bench telemetry_overhead`.

use asd_sim::experiment::run_custom;
use asd_sim::{PrefetchKind, RunOpts, SystemConfig};
use asd_telemetry::TelemetryConfig;
use asd_trace::suites;
use std::hint::black_box;
use std::time::{Duration, Instant};

const ITERS: u32 = 5;
const ACCESSES: u64 = 40_000;

fn config(tel: TelemetryConfig) -> SystemConfig {
    SystemConfig::for_kind(PrefetchKind::Pms, 1).with_telemetry(tel)
}

fn main() {
    let opts = RunOpts::default().with_accesses(ACCESSES);
    let profile = suites::by_name("milc").expect("known profile");
    let variants: [(&str, TelemetryConfig); 3] = [
        ("off", TelemetryConfig::off()),
        ("metrics", TelemetryConfig::metrics_only()),
        ("full", TelemetryConfig::full()),
    ];

    // Neutrality first: identical simulation outcomes in all three modes.
    let baseline = run_custom(&profile, config(TelemetryConfig::off()), "off", &opts).expect("run");
    for (name, tel) in &variants {
        let r = run_custom(&profile, config(*tel), name, &opts).expect("run");
        assert_eq!(r.cycles, baseline.cycles, "{name}: cycles drifted");
        assert_eq!(r.core, baseline.core, "{name}: core stats drifted");
        assert_eq!(r.mc, baseline.mc, "{name}: MC stats drifted");
        assert_eq!(r.dram, baseline.dram, "{name}: DRAM stats drifted");
    }

    let run_once = |tel: &TelemetryConfig| -> Duration {
        let t0 = Instant::now();
        let r = run_custom(&profile, config(*tel), "bench", &opts).expect("run");
        black_box(r.cycles);
        t0.elapsed()
    };

    // Interleave the variants round-robin so host-load drift during the
    // bench hits all three equally instead of biasing whichever ran last;
    // keep the best time per variant. One warm-up round first.
    let mut best = [Duration::MAX; 3];
    for (_, tel) in &variants {
        run_once(tel);
    }
    for _ in 0..ITERS {
        for (i, (_, tel)) in variants.iter().enumerate() {
            best[i] = best[i].min(run_once(tel));
        }
    }

    let base_ms = best[0].as_secs_f64() * 1e3;
    for (i, (name, _)) in variants.iter().enumerate() {
        let ms = best[i].as_secs_f64() * 1e3;
        let overhead = if base_ms > 0.0 { (ms / base_ms - 1.0) * 100.0 } else { 0.0 };
        println!("telemetry_{name:<8} best of {ITERS}: {ms:>9.3} ms  ({overhead:+.2}% vs off)");
    }
    println!("({ACCESSES} accesses of milc under PMS per iteration)");
}
