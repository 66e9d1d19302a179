//! Quickstart: run one benchmark under all four paper configurations
//! (NP / PS / MS / PMS) and print the headline comparison.
//!
//! ```text
//! cargo run --release --example quickstart [benchmark]
//! ```
//!
//! Defaults to `milc`; any benchmark from the three suites works
//! (see `asd_trace::suites`). The four configurations run in parallel
//! (`FourWay::run` is one sweep on the `asd_sim::pipeline` executor).

use asd_sim::experiment::FourWay;
use asd_sim::report::{pct, Table};
use asd_sim::RunOpts;
use asd_trace::suites;

fn main() {
    let bench = std::env::args().nth(1).unwrap_or_else(|| "milc".to_string());
    let profile = match suites::by_name(&bench) {
        Some(p) => p,
        None => {
            eprintln!("unknown benchmark `{bench}`; known benchmarks:");
            for p in suites::all_profiles() {
                eprintln!("  {}", p.name);
            }
            std::process::exit(1);
        }
    };

    println!("Running {bench} under NP / PS / MS / PMS ...\n");
    let opts = RunOpts::default().with_accesses(60_000);
    let four = FourWay::run(&profile, &opts).expect("generated runs never fail");

    let mut t = Table::new(["config", "cycles", "DRAM reads", "prefetches", "coverage", "useful"]);
    for r in [&four.np, &four.ps, &four.ms, &four.pms] {
        let m = r.mc.prefetch_metrics();
        t.row([
            r.config.clone(),
            r.cycles.to_string(),
            r.dram.reads.to_string(),
            r.mc.prefetches_issued.to_string(),
            pct(m.coverage_pct()),
            pct(m.useful_pct()),
        ]);
    }
    println!("{}", t.render());

    println!("PMS vs NP : {:+.1}%", four.pms_vs_np());
    println!("MS  vs NP : {:+.1}%", four.ms_vs_np());
    println!("PMS vs PS : {:+.1}%", four.pms_vs_ps());
    println!("DRAM power increase (PMS vs PS): {:+.1}%", four.power_increase());
    println!("DRAM energy reduction (PMS vs PS): {:+.1}%", four.energy_reduction());
}
