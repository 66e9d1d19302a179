//! Telemetry neutrality and single-source-of-truth tests.
//!
//! The observability layer must never perturb the simulation: a run with
//! telemetry fully on is bit-identical (every counter, every cycle) to
//! the same run with telemetry off, serially and under a parallel sweep.
//! And the merged snapshot must be a complete source of truth — every
//! exported counter of the run's schema, so the paper's Figure 13
//! ratios and the Figure 10 DRAM power breakdown, plus the CAQ occupancy
//! distribution, all have to come out of one [`asd_telemetry::Snapshot`]
//! with no reach-back into the stats structs.

use asd_core::counters::Slot;
use asd_sim::experiment::run_custom;
use asd_sim::pipeline::{Job, Pipeline};
use asd_sim::{PrefetchKind, RunContext, RunOpts, RunResult, System, SystemConfig};
use asd_telemetry::{names, MetricValue, TelemetryConfig};
use asd_trace::suites;

/// One profile from each of the three suites.
const PROFILES: [&str; 3] = ["milc", "GemsFDTD", "tpcc"];

fn opts() -> RunOpts {
    RunOpts::default().with_accesses(8_000)
}

fn run(bench: &str, tel: TelemetryConfig) -> RunResult {
    let profile = suites::by_name(bench).unwrap();
    let cfg = SystemConfig::for_kind(PrefetchKind::Pms, 1).with_telemetry(tel);
    run_custom(&profile, cfg, "PMS", &opts()).unwrap()
}

/// Everything except the snapshot itself, compared exactly.
fn assert_same_simulation(a: &RunResult, b: &RunResult, what: &str) {
    assert_eq!(a.cycles, b.cycles, "{what}: cycles");
    assert_eq!(a.core, b.core, "{what}: core stats");
    assert_eq!(a.mc, b.mc, "{what}: MC stats");
    assert_eq!(a.dram, b.dram, "{what}: DRAM stats");
    assert_eq!(a.power, b.power, "{what}: power report");
    assert_eq!(a.asd, b.asd, "{what}: ASD stats");
}

#[test]
fn telemetry_on_vs_off_is_bit_identical_across_profiles() {
    for bench in PROFILES {
        let off = run(bench, TelemetryConfig::off());
        let metrics = run(bench, TelemetryConfig::metrics_only());
        let full = run(bench, TelemetryConfig::full());
        assert_same_simulation(&off, &metrics, &format!("{bench}: metrics-only vs off"));
        assert_same_simulation(&off, &full, &format!("{bench}: full vs off"));
        assert!(off.telemetry.is_none(), "{bench}: off must not produce a snapshot");
        assert!(full.telemetry.is_some(), "{bench}: full must produce a snapshot");
    }
}

#[test]
fn serial_and_parallel_sweeps_produce_identical_snapshots() {
    // The parallel sweep runs on a fresh context, so it simulates every
    // job; the serial side is direct runs, which never consult a cache.
    let opts = RunOpts { seed: 0x7e1e_5eed, ..opts() };
    let jobs = || {
        PROFILES.map(|bench| {
            let profile = suites::by_name(bench).unwrap();
            let cfg = SystemConfig::for_kind(PrefetchKind::Pms, 1)
                .with_telemetry(TelemetryConfig::full());
            Job::new(&profile, cfg, "PMS")
        })
    };
    let serial: Vec<RunResult> = jobs()
        .into_iter()
        .map(|j| System::new(j.cfg, &j.profile, &opts).unwrap().with_label(&j.label).run())
        .collect();
    let ctx = RunContext::default().with_threads(4);
    let parallel = Pipeline::sweep(&ctx, &opts, jobs().into()).results().unwrap();
    assert_eq!(parallel.len(), PROFILES.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_same_simulation(s, p, &format!("{}: parallel vs serial", s.benchmark));
        assert_eq!(
            s.telemetry, p.telemetry,
            "{}: snapshots must be bit-identical across sweep modes",
            s.benchmark
        );
    }
}

#[test]
fn snapshot_is_a_single_source_of_truth_for_the_figures() {
    let r = run("tpcc", TelemetryConfig::full());
    let snap = r.telemetry.as_ref().unwrap();

    // Every exported counter of the schema walk sits in the snapshot
    // under its name, unit and help, with its struct value exactly; an
    // unexported one is absent.
    let mut exported = Vec::new();
    r.for_each_counter(|name, export, slot| {
        let metric = snap.metrics.iter().find(|m| m.name == name);
        let Some(e) = export else {
            assert!(metric.is_none(), "{name} is not exported");
            return;
        };
        exported.push(name.to_string());
        let metric = metric.unwrap_or_else(|| panic!("{name} missing from the snapshot"));
        assert_eq!((metric.unit, metric.help.as_str()), (e.unit, e.help), "{name}");
        match slot {
            Slot::U64(v) => assert_eq!(snap.counter(name), Some(*v), "{name}"),
            Slot::F64(v) => assert_eq!(snap.gauge(name), Some(*v), "{name}"),
        }
    });
    // And every scalar in the snapshot is a schema counter, but for the
    // DRAM's live per-bank conflict counters.
    for m in &snap.metrics {
        let scalar = matches!(m.value, MetricValue::Counter(_) | MetricValue::Gauge(_));
        if scalar && !m.name.starts_with("dram.bank[") {
            assert!(exported.contains(&m.name), "{} is not a schema counter", m.name);
        }
    }

    // Read back through the schema, the snapshot gives the controller's
    // stats exactly, so the Figure 13 ratios, and the Figure 10 power
    // breakdown.
    let back = snap.read_counters::<RunResult>().unwrap();
    assert_eq!(back.mc, r.mc, "McStats read back from the snapshot");
    assert_eq!(back.mc.prefetch_metrics(), r.mc.prefetch_metrics(), "Figure 13 ratios diverge");
    assert_eq!(back.power, r.power, "power report read back from the snapshot");
    assert_eq!(back.cycles, r.cycles);

    // The one constant `names` keeps names a snapshot instrument: the CAQ
    // occupancy histogram, populated, with every sample inside the
    // configured queue capacity.
    let caq = snap.histogram(names::MC_CAQ_OCCUPANCY).expect("every `names` constant is present");
    assert!(caq.total() > 0, "CAQ occupancy histogram is empty");
    assert!(caq.mean() <= *caq.bounds().last().unwrap() as f64);
}

#[test]
fn event_ring_orders_events_and_reports_drops() {
    // A small ring forces wraparound on a real run; the snapshot must
    // stay cycle-ordered and account for every displaced event.
    let tiny = TelemetryConfig { metrics: true, events: true, event_capacity: 64 };
    let r = run("milc", tiny);
    let snap = r.telemetry.as_ref().unwrap();
    assert_eq!(snap.events.len(), 64, "ring must retain exactly its capacity");
    assert!(snap.dropped_events > 0, "a full run must overflow a 64-slot ring");
    assert!(snap.events.windows(2).all(|w| w[0].at <= w[1].at), "events must be cycle-sorted");

    let full = run("milc", TelemetryConfig::full());
    let full_snap = full.telemetry.as_ref().unwrap();
    assert_eq!(
        full_snap.events.len() as u64 + full_snap.dropped_events - snap.dropped_events,
        64,
        "retained + dropped must cover the same event stream"
    );
}
