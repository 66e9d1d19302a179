//! Golden runs: the kernel's outputs pinned across commits.
//!
//! The other identity oracles compare two paths of one build (serial vs
//! parallel, cache on vs off, mono vs dyn dispatch, event-driven vs
//! cycle-accurate). This one compares against numbers recorded from an
//! earlier build, so a change that moves every path at once — a queue
//! layout, a stepping rule — still fails here unless it is bit-identical.
//!
//! Each row is one run at 4,000 accesses per thread (default seed): its
//! `cycles`, the four `DramStats` counters, FNV-1a digests of the `Debug`
//! text of `CoreStats` and `McStats` (every counter, nested cache, Prefetch
//! Buffer and scheduler stats included), and the bits of the DRAM energy.
//! On a mismatch the test prints the whole table as Rust source; an
//! intended model change re-blesses by pasting it over `GOLDEN`.
//!
//! The Power5+ hierarchy's 36 MB L3 evicts no dirty line within a run this
//! short, so its rows never write DRAM. The `+small` rows rerun every
//! profile on a shrunken L2 and L3 under each reorder-queue scheduler, so
//! that the table also pins the write path: the write queue, AHB's
//! read/write grouping and the bus turnaround.

use asd_cache::CacheConfig;
use asd_mc::SchedulerKind;
use asd_sim::{PrefetchKind, RunOpts, RunResult, System, SystemConfig};
use asd_trace::suites;

/// `(benchmark, SMT)`: three single-thread SPEC profiles with distinct
/// stream mixes, and a two-thread commercial one.
const PROFILES: [(&str, bool); 4] =
    [("milc", false), ("lbm", false), ("tonto", false), ("tpcc", true)];

/// The paper's four configurations plus two zoo engines with the
/// processor-side prefetcher off.
const CONFIGS: [&str; 6] = ["NP", "PS", "MS", "PMS", "next-line", "stream-table"];

/// Configurations run on the shrunken hierarchy ([`shrink_hierarchy`]):
/// NP and PMS under the default AHB scheduler, and PMS under the other
/// two schedulers, whose write-queue scans differ.
const WRITE_CONFIGS: [&str; 4] =
    ["NP+small", "PMS+small", "PMS+small+memoryless", "PMS+small+in-order"];

const ACCESSES: u64 = 4_000;

/// What one run pins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Row {
    cycles: u64,
    /// `DramStats` reads, writes, activations, row hits.
    dram: [u64; 4],
    core_digest: u64,
    mc_digest: u64,
    energy_bits: u64,
}

/// `("benchmark/config", row)` in `PROFILES` x `CONFIGS` order, then
/// `PROFILES` x `WRITE_CONFIGS`.
#[rustfmt::skip]
const GOLDEN: [(&str, Row); 40] = [
    ("milc/NP", Row { cycles: 404183, dram: [2892, 0, 2781, 111], core_digest: 0x0efa07a67f25b167, mc_digest: 0x935a511cdeb66db3, energy_bits: 0x3f5ce444716327b0 }),
    ("milc/PS", Row { cycles: 401627, dram: [3063, 0, 2947, 116], core_digest: 0x1fcc3c14a63483c8, mc_digest: 0x2c299c0f49007f04, energy_bits: 0x3f5ceea36b6eea76 }),
    ("milc/MS", Row { cycles: 386813, dram: [3092, 0, 2979, 113], core_digest: 0x2f5df2b5b6724061, mc_digest: 0xe8d9bd0019b63565, energy_bits: 0x3f5c08bbdc71cd75 }),
    ("milc/PMS", Row { cycles: 382980, dram: [3329, 0, 3210, 119], core_digest: 0x0f01b8367831aa06, mc_digest: 0xc1bf59c6e996c2de, energy_bits: 0x3f5c128cbfd71fa8 }),
    ("milc/next-line", Row { cycles: 326032, dram: [4582, 0, 4170, 412], core_digest: 0x50f8b5fe758dd92a, mc_digest: 0xaa7c84dd2de1064d, energy_bits: 0x3f59d0d647bc7ddc }),
    ("milc/stream-table", Row { cycles: 386807, dram: [4654, 0, 4500, 154], core_digest: 0x071d27e38446f6e8, mc_digest: 0x90d9bb019265aeea, energy_bits: 0x3f5de10cbf55a390 }),
    ("lbm/NP", Row { cycles: 445862, dram: [3329, 0, 3232, 97], core_digest: 0xa0f5afcb5807c25f, mc_digest: 0xecbad2009e1d09f9, energy_bits: 0x3f60068b6f21a086 }),
    ("lbm/PS", Row { cycles: 361520, dram: [3775, 0, 3583, 192], core_digest: 0x4c649ac6586a6d31, mc_digest: 0xc67408b63803d032, energy_bits: 0x3f5b362c298203d0 }),
    ("lbm/MS", Row { cycles: 388227, dram: [3445, 0, 3339, 106], core_digest: 0xbf9452268637acd8, mc_digest: 0xbb7ed6fc9c123d48, energy_bits: 0x3f5c8ca6e1780552 }),
    ("lbm/PMS", Row { cycles: 322602, dram: [3921, 0, 3723, 198], core_digest: 0x3e9fc5887d642dad, mc_digest: 0x1f5a2ec8ed4b40e8, energy_bits: 0x3f58ed959fe93cce }),
    ("lbm/next-line", Row { cycles: 298883, dram: [4379, 0, 3893, 486], core_digest: 0xe489a8cc942015ce, mc_digest: 0xd87f23a39cb3bdf5, energy_bits: 0x3f57d1bd4d10b6b7 }),
    ("lbm/stream-table", Row { cycles: 242824, dram: [3831, 0, 3672, 159], core_digest: 0xd9e87fec7be85c71, mc_digest: 0x59edd53f679329fa, energy_bits: 0x3f53cf5c341fdf70 }),
    ("tonto/NP", Row { cycles: 341644, dram: [2086, 0, 1885, 201], core_digest: 0x68f11afadf7d346f, mc_digest: 0xe99c9d3a1ac2b4d4, energy_bits: 0x3f57eec93264eaab }),
    ("tonto/PS", Row { cycles: 342843, dram: [2193, 0, 2000, 193], core_digest: 0x9bd6b28755152edd, mc_digest: 0xb1d42ce7780d6ebf, energy_bits: 0x3f58240caf3fb509 }),
    ("tonto/MS", Row { cycles: 341644, dram: [2086, 0, 1885, 201], core_digest: 0x68f11afadf7d346f, mc_digest: 0x84443e7b07ea0a37, energy_bits: 0x3f57eec93264eaab }),
    ("tonto/PMS", Row { cycles: 341964, dram: [2208, 0, 2015, 193], core_digest: 0x5fe6af3b2069e95c, mc_digest: 0x30ee8af2a365dc66, energy_bits: 0x3f581a72d1276c80 }),
    ("tonto/next-line", Row { cycles: 301904, dram: [3614, 0, 3140, 474], core_digest: 0x561c17c5fe244085, mc_digest: 0x1c48dc83c7465894, energy_bits: 0x3f5719fec2c315c1 }),
    ("tonto/stream-table", Row { cycles: 347938, dram: [3193, 0, 2912, 281], core_digest: 0x3b8a358a202d88da, mc_digest: 0x38d62e78849c306d, energy_bits: 0x3f599bf4f0ae9c1b }),
    ("tpcc/NP", Row { cycles: 361425, dram: [3996, 0, 3822, 174], core_digest: 0x3f787bf58024a5aa, mc_digest: 0x8603575851318f45, energy_bits: 0x3f5b7ade508f02c2 }),
    ("tpcc/PS", Row { cycles: 365383, dram: [4322, 0, 4140, 182], core_digest: 0xa715bc771abc7906, mc_digest: 0xac830830bf0bb60b, energy_bits: 0x3f5c1d74c42567ba }),
    ("tpcc/MS", Row { cycles: 361425, dram: [3997, 0, 3823, 174], core_digest: 0x3f787bf58024a5aa, mc_digest: 0x8a5189a70be71479, energy_bits: 0x3f5b7b2cb2a555f3 }),
    ("tpcc/PMS", Row { cycles: 364131, dram: [4357, 0, 4175, 182], core_digest: 0xa4ecfd753a60212a, mc_digest: 0xa08b1e96fb1b6041, energy_bits: 0x3f5c13f4a6feca74 }),
    ("tpcc/next-line", Row { cycles: 349539, dram: [5485, 0, 5206, 279], core_digest: 0xacf2c5da6280da86, mc_digest: 0x34390c617cae0272, energy_bits: 0x3f5c73df2962ccc8 }),
    ("tpcc/stream-table", Row { cycles: 355670, dram: [5260, 0, 5041, 219], core_digest: 0xe9cb050fc8a7c5c8, mc_digest: 0xdd8c5f56a61198d1, energy_bits: 0x3f5c9a89beec8107 }),
    ("milc/NP+small", Row { cycles: 434274, dram: [2950, 165, 2993, 122], core_digest: 0xa1ea3d81d5995165, mc_digest: 0x6a2390614ff83ed6, energy_bits: 0x3f5f0fa54fb7ed4f }),
    ("milc/PMS+small", Row { cycles: 412921, dram: [3357, 162, 3388, 131], core_digest: 0x5ac65c6ee2070d71, mc_digest: 0x255ba0b4ac2b7ce4, energy_bits: 0x3f5e313582c95b35 }),
    ("milc/PMS+small+memoryless", Row { cycles: 409455, dram: [3362, 162, 3396, 128], core_digest: 0xe3cf344ddeff820d, mc_digest: 0xc1cf4edf971356f2, energy_bits: 0x3f5dfb332ddd734f }),
    ("milc/PMS+small+in-order", Row { cycles: 413231, dram: [3355, 162, 3387, 130], core_digest: 0x3809b10beec3a101, mc_digest: 0xddf31d64462fddcc, energy_bits: 0x3f5e35bebb3fd05b }),
    ("lbm/NP+small", Row { cycles: 470164, dram: [3378, 260, 3538, 100], core_digest: 0x1cf5fdadb6b01bb4, mc_digest: 0x8a112718570bbedb, energy_bits: 0x3f60fc07159729db }),
    ("lbm/PMS+small", Row { cycles: 340172, dram: [3945, 122, 3879, 188], core_digest: 0x96725c858c516b6d, mc_digest: 0x089a1b7dc8a433b1, energy_bits: 0x3f5a39799511621a }),
    ("lbm/PMS+small+memoryless", Row { cycles: 326064, dram: [3969, 126, 3939, 156], core_digest: 0x0ebefbec081edb59, mc_digest: 0x59c147f519082a74, energy_bits: 0x3f5962ddff16b746 }),
    ("lbm/PMS+small+in-order", Row { cycles: 338037, dram: [3949, 127, 3896, 180], core_digest: 0x2003819e346c9916, mc_digest: 0x6ac78d673b6e2aaf, energy_bits: 0x3f5a1afae39434b4 }),
    ("tonto/NP+small", Row { cycles: 375660, dram: [2092, 34, 1925, 201], core_digest: 0xcbdd2c05633aae15, mc_digest: 0x7d655e7645cabe86, energy_bits: 0x3f5a20e212a45abf }),
    ("tonto/PMS+small", Row { cycles: 376966, dram: [2222, 32, 2061, 193], core_digest: 0x30e37dc085d54568, mc_digest: 0x33d8f8ee6db37b72, energy_bits: 0x3f5a5e45557fda22 }),
    ("tonto/PMS+small+memoryless", Row { cycles: 374908, dram: [2221, 32, 2061, 192], core_digest: 0x4956576c0de69341, mc_digest: 0x4ec70bbcc2d8dae0, energy_bits: 0x3f5a3ce0163558c2 }),
    ("tonto/PMS+small+in-order", Row { cycles: 375094, dram: [2222, 32, 2061, 193], core_digest: 0x057537ec200c6b13, mc_digest: 0x33d8f8ee6db37b72, energy_bits: 0x3f5a400ad9b840ba }),
    ("tpcc/NP+small", Row { cycles: 418370, dram: [4076, 570, 4463, 183], core_digest: 0xf6b16662e117635f, mc_digest: 0x614abe479d00e35f, energy_bits: 0x3f5fe1b2792260e9 }),
    ("tpcc/PMS+small", Row { cycles: 417318, dram: [4447, 547, 4802, 192], core_digest: 0x420df3d57042158a, mc_digest: 0x88b4e2cb8b3bf3f0, energy_bits: 0x3f601ccbd95a0999 }),
    ("tpcc/PMS+small+memoryless", Row { cycles: 393469, dram: [4476, 543, 4834, 185], core_digest: 0x0ca458b7f1b4c9ea, mc_digest: 0x5e6d00f6d339d401, energy_bits: 0x3f5ec112866abb2b }),
    ("tpcc/PMS+small+in-order", Row { cycles: 415036, dram: [4436, 546, 4798, 184], core_digest: 0xbdca793d36544fe8, mc_digest: 0x83215e6acc917c3a, energy_bits: 0x3f600918c279e92c }),
];

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// L2 64 KB and L3 256 KB (the L1 keeps its 32 KB): a 4,000-access run
/// overflows both, so dirty lines leave the chip as DRAM writes.
fn shrink_hierarchy(cfg: &mut SystemConfig) {
    cfg.core.hierarchy.l2 = CacheConfig { size_bytes: 64 * 1024, assoc: 8, line_bytes: 128 };
    cfg.core.hierarchy.l3 = CacheConfig { size_bytes: 256 * 1024, assoc: 8, line_bytes: 128 };
}

/// `label` is a configuration name, optionally followed by `+small` (the
/// shrunken hierarchy) and `+memoryless` or `+in-order` (the scheduler).
fn system_config(label: &str, threads: usize) -> SystemConfig {
    let mut parts = label.split('+');
    let mut cfg = match parts.next().unwrap() {
        "NP" => SystemConfig::for_kind(PrefetchKind::Np, threads),
        "PS" => SystemConfig::for_kind(PrefetchKind::Ps, threads),
        "MS" => SystemConfig::for_kind(PrefetchKind::Ms, threads),
        "PMS" => SystemConfig::for_kind(PrefetchKind::Pms, threads),
        engine => SystemConfig::for_kind(PrefetchKind::Np, threads)
            .with_engine_named(engine)
            .unwrap_or_else(|e| panic!("{engine}: {e}")),
    };
    for part in parts {
        match part {
            "small" => shrink_hierarchy(&mut cfg),
            "memoryless" => cfg.mc.scheduler = SchedulerKind::Memoryless,
            "in-order" => cfg.mc.scheduler = SchedulerKind::InOrder,
            other => panic!("unknown config part {other:?} in {label:?}"),
        }
    }
    cfg
}

fn run(bench: &str, smt: bool, label: &str) -> RunResult {
    let profile = suites::by_name(bench).unwrap();
    let opts = RunOpts { accesses: ACCESSES, smt, ..RunOpts::default() };
    let cfg = system_config(label, if smt { 2 } else { 1 });
    System::new(cfg, &profile, &opts).unwrap().with_label(label).run()
}

fn row(r: &RunResult) -> Row {
    Row {
        cycles: r.cycles,
        dram: [r.dram.reads, r.dram.writes, r.dram.activations, r.dram.row_hits],
        core_digest: fnv64(format!("{:?}", r.core).as_bytes()),
        mc_digest: fnv64(format!("{:?}", r.mc).as_bytes()),
        energy_bits: r.power.energy_j.to_bits(),
    }
}

fn source(rows: &[(String, Row)]) -> String {
    let mut s = format!("const GOLDEN: [(&str, Row); {}] = [\n", rows.len());
    for (name, g) in rows {
        let [rd, wr, act, hit] = g.dram;
        s.push_str(&format!(
            "    ({name:?}, Row {{ cycles: {}, dram: [{rd}, {wr}, {act}, {hit}], \
             core_digest: {:#018x}, mc_digest: {:#018x}, energy_bits: {:#018x} }}),\n",
            g.cycles, g.core_digest, g.mc_digest, g.energy_bits
        ));
    }
    s.push_str("];\n");
    s
}

#[test]
fn kernel_outputs_match_the_recorded_table() {
    let mut actual = Vec::new();
    let mut diffs = Vec::new();
    let runs = PROFILES
        .iter()
        .flat_map(|&p| CONFIGS.iter().map(move |&c| (p, c)))
        .chain(PROFILES.iter().flat_map(|&p| WRITE_CONFIGS.iter().map(move |&c| (p, c))));
    for ((bench, smt), label) in runs {
        let name = format!("{bench}/{label}");
        let r = run(bench, smt, label);
        let got = row(&r);
        if GOLDEN.get(actual.len()) != Some(&(name.as_str(), got)) {
            diffs.push(format!("{name}: core {:?}\n    mc {:?}", r.core, r.mc));
        }
        actual.push((name, got));
    }
    assert!(
        diffs.is_empty() && GOLDEN.len() == actual.len(),
        "{} of {} runs differ from the recorded table:\n{}\n\nactual table:\n{}",
        diffs.len(),
        actual.len(),
        diffs.join("\n"),
        source(&actual)
    );
    // The `+small` rows exist to pin the write path: each must write DRAM,
    // or a re-blessed table would silently stop covering it.
    let writing = GOLDEN.iter().filter(|(name, g)| name.contains("+small") && g.dram[1] > 0);
    assert_eq!(
        writing.count(),
        PROFILES.len() * WRITE_CONFIGS.len(),
        "a +small row writes no DRAM"
    );
}
