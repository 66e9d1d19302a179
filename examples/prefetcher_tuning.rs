//! Design-space exploration for the ASD prefetcher: the paper's
//! sensitivity studies (Figures 14 and 15) plus an epoch-length sweep the
//! paper leaves as an implicit design choice.
//!
//! All 17 design points run as one parallel sweep on the executor
//! ([`Pipeline::sweep`]); results come back in job order, so each table
//! just slices its range out of the batch.
//!
//! ```text
//! cargo run --release --example prefetcher_tuning [benchmark]
//! ```

use asd_core::AsdConfig;
use asd_mc::{EngineKind, McConfig};
use asd_sim::pipeline::{Job, Pipeline};
use asd_sim::report::{ratio, Table};
use asd_sim::{PrefetchKind, RunOpts, SystemConfig};
use asd_trace::suites;

const PB_LINES: [usize; 4] = [8, 16, 32, 1024];
const SF_SLOTS: [usize; 4] = [4, 8, 16, 64];
const EPOCHS: [u64; 5] = [500, 1000, 2000, 4000, 8000];
const DEGREES: [usize; 3] = [1, 2, 4];

fn main() {
    let bench = std::env::args().nth(1).unwrap_or_else(|| "GemsFDTD".to_string());
    let Some(profile) = suites::by_name(&bench) else {
        eprintln!("unknown benchmark `{bench}`");
        std::process::exit(1);
    };
    let opts = RunOpts::default().with_accesses(40_000);
    println!("Tuning study on {bench} (PMS, performance relative to the paper's default)\n");

    let pms = |mc: McConfig| SystemConfig::for_kind(PrefetchKind::Pms, 1).with_mc(mc);
    let mut jobs = vec![Job::new(&profile, pms(McConfig::default()), "default")];
    for lines in PB_LINES {
        let mc = McConfig { pb_lines: lines, pb_assoc: 4, ..McConfig::default() };
        jobs.push(Job::new(&profile, pms(mc), &format!("pb{lines}")));
    }
    for slots in SF_SLOTS {
        let mc = McConfig {
            engine: EngineKind::Asd(AsdConfig::default().with_filter_slots(slots)),
            ..McConfig::default()
        };
        jobs.push(Job::new(&profile, pms(mc), &format!("sf{slots}")));
    }
    for epoch in EPOCHS {
        let mc = McConfig {
            engine: EngineKind::Asd(AsdConfig::default().with_epoch_reads(epoch)),
            ..McConfig::default()
        };
        jobs.push(Job::new(&profile, pms(mc), &format!("epoch{epoch}")));
    }
    for degree in DEGREES {
        let mc = McConfig {
            engine: EngineKind::Asd(AsdConfig { max_degree: degree, ..AsdConfig::default() }),
            ..McConfig::default()
        };
        jobs.push(Job::new(&profile, pms(mc), &format!("degree{degree}")));
    }

    let results = Pipeline::sweep(&opts, jobs).results().expect("generated sweeps never fail");
    let base = results[0].cycles as f64;
    let mut rest = results[1..].iter();
    let mut table = |title: &str, labels: Vec<String>| {
        let mut t = Table::new([title, "relative performance"]);
        for label in labels {
            let r = rest.next().expect("one result per design point");
            t.row([label, ratio(base / r.cycles as f64)]);
        }
        println!("{}", t.render());
    };

    // Figure 14: Prefetch Buffer size.
    table("prefetch buffer (lines)", PB_LINES.iter().map(|s| s.to_string()).collect());
    // Figure 15: Stream Filter size.
    table("stream filter (slots)", SF_SLOTS.iter().map(|s| s.to_string()).collect());
    // Epoch length: how much history should one SLH summarize?
    table("epoch (reads)", EPOCHS.iter().map(|s| s.to_string()).collect());
    // Multi-line prefetching (the paper's §3.1 extension, not evaluated
    // there): allow up to `d` consecutive lines per trigger.
    table("max prefetch degree", DEGREES.iter().map(|s| s.to_string()).collect());
}
