//! The cycle-level system loop tying cores, controller, and DRAM together.
//!
//! The loop is event-driven: every component exposes the
//! [`asd_core::Clocked`] interface, and [`System::run`] folds the
//! [`NextEvent`]s they report into the next cycle worth simulating, so
//! idle stretches — long compute gaps, DRAM bursts in flight — are skipped
//! in one jump. [`System::run_cycle_accurate`] keeps the old
//! cycle-by-cycle pacing as a cross-check; both produce identical results.

use crate::config::{RunOpts, SystemConfig};
use crate::error::SimError;
use crate::source::{ResolvedTrace, TraceSource, TraceStream};
use asd_core::{CalendarQueue, Clocked, NextEvent};
use asd_cpu::{Core, MemoryPort, PortResponse};
use asd_dram::{Dram, DramStats, PowerReport};
use asd_mc::{
    AsdEngine, EngineKind, McStats, MemoryController, NextLineEngine, NoPrefetch, P5StyleEngine,
    PrefetchEngine, ReadCompletion, ReadResponse,
};
use asd_telemetry::{names, Registry, Snapshot, TelemetryConfig, Unit};
use asd_trace::{MemAccess, TraceGenerator, WorkloadProfile};

type Trace = TraceStream;

/// Everything measured in one simulation run — the raw material for every
/// figure in the paper.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Benchmark name.
    pub benchmark: String,
    /// Configuration label (NP/PS/MS/PMS or a custom label).
    pub config: String,
    /// Execution time in CPU cycles.
    pub cycles: u64,
    /// Core-side counters.
    pub core: asd_cpu::CoreStats,
    /// Memory-controller counters.
    pub mc: McStats,
    /// DRAM counters.
    pub dram: DramStats,
    /// DRAM energy/power report.
    pub power: PowerReport,
    /// ASD detector counters aggregated across all per-thread detectors
    /// (when the memory-side engine is ASD).
    pub asd: Option<asd_core::AsdStats>,
    /// Merged telemetry snapshot: every counter above mirrored under its
    /// canonical name, plus the live-updated instruments (queue-occupancy
    /// histograms, per-epoch series, the event ring). `None` when
    /// [`SystemConfig::telemetry`](crate::SystemConfig) is fully off.
    pub telemetry: Option<Snapshot>,
}

impl RunResult {
    /// The paper's "performance gain of A over B" in percent:
    /// `(t_B / t_A - 1) * 100` with `self` as A (faster = positive).
    pub fn gain_over(&self, baseline: &RunResult) -> f64 {
        (baseline.cycles as f64 / self.cycles as f64 - 1.0) * 100.0
    }

    /// Execution time normalized to a baseline (Figure 11's y-axis).
    pub fn normalized_time(&self, baseline: &RunResult) -> f64 {
        self.cycles as f64 / baseline.cycles as f64
    }

    /// DRAM power increase of `self` relative to `baseline`, percent
    /// (Figures 8–10).
    pub fn power_increase_over(&self, baseline: &RunResult) -> f64 {
        (self.power.average_power_w / baseline.power.average_power_w - 1.0) * 100.0
    }

    /// DRAM energy reduction of `self` relative to `baseline`, percent
    /// (positive = `self` uses less energy).
    pub fn energy_reduction_over(&self, baseline: &RunResult) -> f64 {
        (1.0 - self.power.energy_j / baseline.power.energy_j) * 100.0
    }
}

struct McPort<'a, E: PrefetchEngine> {
    mc: &'a mut MemoryController<E>,
    /// Whether the core pushed anything into the controller this step —
    /// the event loop's signal that the controller saw new input and its
    /// cached next-event hint is stale.
    dirty: bool,
}

impl<E: PrefetchEngine> MemoryPort for McPort<'_, E> {
    fn read(&mut self, line: u64, thread: u8, now: u64) -> PortResponse {
        self.dirty = true;
        match self.mc.enqueue_read(line, thread, now) {
            ReadResponse::Done { at } => PortResponse::Done { at },
            ReadResponse::Queued => PortResponse::Queued,
            ReadResponse::Rejected => PortResponse::Rejected,
        }
    }

    fn write(&mut self, line: u64, now: u64) -> bool {
        self.dirty = true;
        self.mc.enqueue_write(line, now)
    }
}

/// Core + controller + DRAM instantiated for one concrete engine type:
/// the whole per-cycle path — `Core::step`, port enqueues, the engine's
/// `on_read`, the controller's `advance` — monomorphizes and inlines with
/// no virtual call anywhere.
struct Engined<E: PrefetchEngine> {
    core: Core<Trace>,
    mc: MemoryController<E>,
    /// Read completions in flight, delivered in ascending
    /// `(at, line, thread)` order.
    completions: CalendarQueue,
    /// Scratch for the completions due at the current cycle. Capacity is
    /// reused across iterations.
    due_buf: Vec<(u64, u64, u8)>,
    /// Scratch the controller drains `ReadCompletion`s into each step.
    /// Allocated once (controller queues bound its size) and reused.
    completion_buf: Vec<ReadCompletion>,
    now: u64,
}

/// The engine-selected machine. One variant per paper engine — picked
/// once at build time from [`asd_mc::EngineKind`] — plus the boxed
/// fallback for `EngineKind::Custom`, whose factories produce trait
/// objects by design.
enum Machine {
    None(Engined<NoPrefetch>),
    Asd(Engined<AsdEngine>),
    NextLine(Engined<NextLineEngine>),
    P5Style(Engined<P5StyleEngine>),
    Custom(Engined<Box<dyn PrefetchEngine>>),
}

/// One simulated machine: cores + memory controller + DRAM.
pub struct System {
    machine: Machine,
    benchmark: String,
    config_label: String,
    tel_cfg: TelemetryConfig,
}

impl System {
    /// Build a system running `profile` under `cfg`. With `opts.smt`, two
    /// thread contexts run the same profile with decorrelated seeds
    /// ([`asd_trace::thread_seed`]). When `cfg.trace` is set, the
    /// [`TraceSource`] overrides `profile` as the origin of the access
    /// stream (replay from file, capture, or generate by name).
    ///
    /// # Errors
    ///
    /// [`SimError::TraceIo`] or [`SimError::UnknownProfile`] from
    /// resolving `cfg.trace`; the default in-memory path is infallible.
    pub fn new(
        cfg: SystemConfig,
        profile: &WorkloadProfile,
        opts: &RunOpts,
    ) -> Result<Self, SimError> {
        let resolved = match &cfg.trace {
            Some(source) => source.resolve(opts)?,
            None => {
                let threads = if opts.smt { 2 } else { 1 };
                ResolvedTrace::generated(profile, opts.seed, threads, opts.accesses)
            }
        };
        Ok(Self::build(cfg, resolved))
    }

    /// Build a system directly from a [`TraceSource`], resolving the
    /// benchmark name from the source (the profile name for
    /// generate/capture, the ASDT header for replay).
    ///
    /// # Errors
    ///
    /// As [`System::new`] with `cfg.trace` set.
    pub fn from_source(
        cfg: SystemConfig,
        source: &TraceSource,
        opts: &RunOpts,
    ) -> Result<Self, SimError> {
        let resolved = source.resolve(opts)?;
        Ok(Self::build(cfg, resolved))
    }

    /// Build a system over already resolved streams (`cfg.trace` is not
    /// consulted).
    pub(crate) fn build(cfg: SystemConfig, resolved: ResolvedTrace) -> Self {
        let ResolvedTrace { benchmark, streams } = resolved;
        let mut mc_cfg = cfg.mc.clone();
        mc_cfg.threads = streams.len();
        let threads = mc_cfg.threads;
        let dram = Dram::new(cfg.dram);
        // Select the monomorphized instantiation once, here; every cycle
        // after this dispatches statically. The engines are constructed
        // exactly as `asd_mc::build_engine` would.
        let machine = match mc_cfg.engine.clone() {
            EngineKind::None => {
                Machine::None(Engined::new(&cfg, mc_cfg, dram, streams, NoPrefetch))
            }
            EngineKind::Asd(acfg) => Machine::Asd(Engined::new(
                &cfg,
                mc_cfg,
                dram,
                streams,
                AsdEngine::new(&acfg, threads),
            )),
            EngineKind::NextLine => {
                Machine::NextLine(Engined::new(&cfg, mc_cfg, dram, streams, NextLineEngine))
            }
            EngineKind::P5Style => {
                Machine::P5Style(Engined::new(&cfg, mc_cfg, dram, streams, P5StyleEngine::new()))
            }
            EngineKind::Custom(factory) => {
                Machine::Custom(Engined::new(&cfg, mc_cfg, dram, streams, factory.build(threads)))
            }
        };
        System { machine, benchmark, config_label: String::new(), tel_cfg: cfg.telemetry }
    }

    /// Attach a configuration label for reporting.
    pub fn with_label(mut self, label: &str) -> Self {
        self.config_label = label.to_string();
        self
    }

    /// Run to completion and return the measurements.
    ///
    /// Event-driven: each iteration simulates one cycle that at least one
    /// component declared interesting, then jumps straight to the next
    /// such cycle.
    pub fn run(self) -> RunResult {
        self.run_inner(false)
    }

    /// Reference pacing: one iteration per cycle whenever the memory
    /// controller is busy (the pre-event-loop behaviour). Slower but
    /// trivially correct — tests assert [`System::run`] matches it
    /// exactly.
    pub fn run_cycle_accurate(self) -> RunResult {
        self.run_inner(true)
    }

    fn run_inner(self, cycle_accurate: bool) -> RunResult {
        let System { machine, benchmark, config_label, tel_cfg } = self;
        match machine {
            Machine::None(m) => m.run(cycle_accurate, benchmark, config_label, tel_cfg),
            Machine::Asd(m) => m.run(cycle_accurate, benchmark, config_label, tel_cfg),
            Machine::NextLine(m) => m.run(cycle_accurate, benchmark, config_label, tel_cfg),
            Machine::P5Style(m) => m.run(cycle_accurate, benchmark, config_label, tel_cfg),
            Machine::Custom(m) => m.run(cycle_accurate, benchmark, config_label, tel_cfg),
        }
    }
}

impl<E: PrefetchEngine> Engined<E> {
    fn new(
        cfg: &SystemConfig,
        mc_cfg: asd_mc::McConfig,
        dram: Dram,
        streams: Vec<Trace>,
        engine: E,
    ) -> Self {
        let mut mc = MemoryController::with_engine(mc_cfg, dram, engine);
        if cfg.telemetry.any() {
            mc.attach_telemetry(&cfg.telemetry);
        }
        Engined {
            core: Core::new(cfg.core.clone(), streams),
            mc,
            completions: CalendarQueue::new(),
            due_buf: Vec::with_capacity(8),
            completion_buf: Vec::with_capacity(8),
            now: 0,
        }
    }

    // asd-lint: hot
    fn run(
        mut self,
        cycle_accurate: bool,
        benchmark: String,
        config_label: String,
        tel_cfg: TelemetryConfig,
    ) -> RunResult {
        // Cached next-event hints. `Clocked` promises no state change
        // before the hinted cycle absent new inputs, so a component whose
        // hint is in the future and whose inputs haven't changed can skip
        // its step entirely — the step would be a no-op (the
        // `event_driven_matches_cycle_accurate` test pins this down). The
        // core's only input is `on_fill`; the controller's only inputs are
        // the port enqueues the core makes while stepping.
        let mut core_next = NextEvent::At(0);
        let mut mc_next = NextEvent::At(0);
        let mut guard: u64 = 0;
        loop {
            // Deliver due read completions to the core, in the same
            // ascending (at, line, thread) order the old heap popped.
            let mut filled = false;
            if self.completions.peek().is_some_and(|at| at <= self.now) {
                self.completions.drain_due(self.now, &mut self.due_buf);
                for &(_at, line, _thread) in &self.due_buf {
                    self.core.on_fill(line, self.now);
                }
                self.due_buf.clear();
                filled = true;
            }

            // Core issues work (may enqueue reads/writes into the MC).
            let mut enqueued = false;
            if cycle_accurate || filled || core_next.at().is_some_and(|t| t <= self.now) {
                let mut port = McPort { mc: &mut self.mc, dirty: false };
                core_next = self.core.clocked(&mut port).step(self.now);
                enqueued = port.dirty;
            }

            // Controller performs this cycle's transitions.
            if cycle_accurate || enqueued || mc_next.at().is_some_and(|t| t <= self.now) {
                mc_next = Clocked::step(&mut self.mc, self.now);
                self.mc.drain_completions(&mut self.completion_buf);
                for c in self.completion_buf.drain(..) {
                    self.completions.push(c.at, c.line, c.thread);
                }
            }

            if self.core.finished() && !self.mc.busy() && self.completions.is_empty() {
                break;
            }

            // Advance time to the earliest cycle any component cares about.
            let mut next = core_next.min(mc_next);
            if let Some(at) = self.completions.peek() {
                next = next.min(NextEvent::At(at));
            }
            self.now = if cycle_accurate && self.mc.busy() {
                self.now + 1
            } else {
                match next.at() {
                    Some(t) => t.max(self.now + 1),
                    // Nothing scheduled anywhere: only in-flight MC work
                    // could wake us, but the MC is idle — this is a wedge.
                    // asd-lint: allow(D005) -- a wedged simulation is a simulator bug; aborting with state beats a wrong result
                    None => panic!(
                        "deadlock at cycle {}: core finished={} completions={}",
                        self.now,
                        self.core.finished(),
                        self.completions.len()
                    ),
                }
            };

            guard += 1;
            assert!(guard < 2_000_000_000, "runaway simulation");
        }
        let cycles = self.now;
        let asd = self.mc.engine().stats();
        let power = self.mc.dram_mut().power_report(cycles.max(1));
        let core = self.core.stats();
        let mc = self.mc.stats();
        let dram = self.mc.dram().stats();
        let telemetry = if tel_cfg.any() {
            let mut snap = mirror_stats(&tel_cfg, cycles, &core, &mc, &dram, &power, asd.as_ref());
            snap.merge(self.mc.telemetry_snapshot());
            snap.sort_events();
            Some(snap)
        } else {
            None
        };
        RunResult { benchmark, config: config_label, cycles, core, mc, dram, power, asd, telemetry }
    }
}

/// Mirror the authoritative end-of-run stats structs onto a top-level
/// registry section under the canonical [`names`] — the producer half of
/// the contract [`asd_telemetry::PrefetchMetrics::from_snapshot`] and the
/// exposition smoke checks consume.
#[allow(clippy::too_many_arguments)]
// asd-lint: cold -- exposition mirror: runs once at end of run, not per cycle
fn mirror_stats(
    cfg: &TelemetryConfig,
    cycles: u64,
    core: &asd_cpu::CoreStats,
    mc: &McStats,
    dram: &DramStats,
    power: &PowerReport,
    asd: Option<&asd_core::AsdStats>,
) -> Snapshot {
    let mut r = Registry::section("", cfg);
    r.fill_counter(names::SIM_CYCLES, Unit::Cycles, "total simulated cycles", cycles);

    r.fill_counter(names::CPU_ACCESSES, Unit::Accesses, "trace accesses executed", core.accesses);
    r.fill_counter(names::CPU_READS, Unit::Accesses, "loads executed", core.reads);
    r.fill_counter(names::CPU_WRITES, Unit::Accesses, "stores executed", core.writes);
    r.fill_counter(
        names::CPU_DEMAND_MEMORY_READS,
        Unit::Accesses,
        "demand reads that missed the whole hierarchy",
        core.demand_memory_reads,
    );
    r.fill_counter(
        names::CPU_PS_READS_SENT,
        Unit::Commands,
        "processor-side prefetch reads sent to memory",
        core.ps_reads_sent,
    );
    r.fill_counter(
        names::CPU_STALL_CYCLES,
        Unit::Cycles,
        "cycles threads spent stalled waiting on a fill",
        core.stall_cycles,
    );

    let cache = &core.cache;
    for (hits, misses, level) in [
        (names::CACHE_L1_HITS, names::CACHE_L1_MISSES, &cache.l1),
        (names::CACHE_L2_HITS, names::CACHE_L2_MISSES, &cache.l2),
        (names::CACHE_L3_HITS, names::CACHE_L3_MISSES, &cache.l3),
    ] {
        r.fill_counter(hits, Unit::Accesses, "lookups that hit", level.hits);
        r.fill_counter(misses, Unit::Accesses, "lookups that missed", level.misses);
    }
    r.fill_counter(
        names::CACHE_MEMORY_WRITEBACKS,
        Unit::Lines,
        "dirty lines written back to memory",
        cache.memory_writebacks,
    );

    for (name, help, v) in [
        (names::MC_READS, "read commands that entered the controller", mc.reads),
        (names::MC_WRITES, "write commands that entered the controller", mc.writes),
        (
            names::MC_PB_HITS_ON_ARRIVAL,
            "reads satisfied by the PB on arrival",
            mc.pb_hits_on_arrival,
        ),
        (names::MC_PB_HITS_AT_CAQ, "reads satisfied by the PB at the CAQ head", mc.pb_hits_at_caq),
        (
            names::MC_MERGED_WITH_PREFETCH,
            "reads merged with an in-flight prefetch",
            mc.merged_with_prefetch,
        ),
        (
            names::MC_PREFETCHES_ISSUED,
            "memory-side prefetches issued to DRAM",
            mc.prefetches_issued,
        ),
        (names::MC_LPQ_DROPPED, "prefetch candidates dropped for a full LPQ", mc.lpq_dropped),
        (
            names::MC_PREFETCH_REDUNDANT,
            "prefetch candidates skipped as redundant",
            mc.prefetch_redundant,
        ),
        (names::MC_LPQ_SQUASHED, "queued prefetches squashed by the demand read", mc.lpq_squashed),
        (names::MC_DELAYED_REGULAR, "regular commands delayed by a prefetch", mc.delayed_regular),
        (names::MC_READ_REJECTS, "reads rejected for a full reorder queue", mc.read_rejects),
        (names::MC_WRITE_REJECTS, "writes rejected for a full reorder queue", mc.write_rejects),
    ] {
        r.fill_counter(name, Unit::Commands, help, v);
    }
    r.fill_counter(names::MC_PB_INSERTS, Unit::Lines, "prefetch buffer inserts", mc.pb.inserts);
    r.fill_counter(
        names::MC_PB_READ_HITS,
        Unit::Lines,
        "prefetch buffer lines consumed by demand reads",
        mc.pb.read_hits,
    );
    r.fill_counter(
        names::MC_PB_WRITE_INVALIDATIONS,
        Unit::Lines,
        "prefetch buffer lines invalidated by writes",
        mc.pb.write_invalidations,
    );
    r.fill_counter(
        names::MC_PB_UNUSED_EVICTIONS,
        Unit::Lines,
        "prefetch buffer lines evicted unused",
        mc.pb.unused_evictions,
    );
    r.fill_counter(
        names::MC_SCHED_CONFLICTS,
        Unit::Events,
        "prefetch-induced conflicts seen by Adaptive Scheduling",
        mc.sched.conflicts,
    );
    r.fill_counter(
        names::MC_SCHED_TIGHTENED,
        Unit::Events,
        "policy steps toward conservative",
        mc.sched.tightened,
    );
    r.fill_counter(
        names::MC_SCHED_LOOSENED,
        Unit::Events,
        "policy steps toward aggressive",
        mc.sched.loosened,
    );

    r.fill_counter(names::DRAM_READS, Unit::Commands, "DRAM read bursts", dram.reads);
    r.fill_counter(names::DRAM_WRITES, Unit::Commands, "DRAM write bursts", dram.writes);
    r.fill_counter(names::DRAM_ACTIVATIONS, Unit::Events, "row activations", dram.activations);
    r.fill_counter(names::DRAM_ROW_HITS, Unit::Events, "open-row hits", dram.row_hits);
    for (name, help, v) in [
        (names::DRAM_POWER_ENERGY_J, "total DRAM energy over the run", power.energy_j),
        (names::DRAM_POWER_BACKGROUND_J, "background energy", power.background_j),
        (names::DRAM_POWER_ACTIVATE_J, "activate/precharge energy", power.activate_j),
        (names::DRAM_POWER_READ_J, "read-burst energy", power.read_j),
        (names::DRAM_POWER_WRITE_J, "write-burst energy", power.write_j),
    ] {
        r.fill_gauge(name, Unit::Joules, help, v);
    }
    r.fill_gauge(
        names::DRAM_POWER_ELAPSED_S,
        Unit::Seconds,
        "simulated seconds the energy was integrated over",
        power.elapsed_s,
    );
    r.fill_gauge(
        names::DRAM_POWER_AVERAGE_W,
        Unit::Watts,
        "average DRAM power over the run",
        power.average_power_w,
    );

    if let Some(a) = asd {
        r.fill_counter(names::ASD_READS, Unit::Accesses, "reads seen by the ASD engine", a.reads);
        r.fill_counter(
            names::ASD_PREFETCHES,
            Unit::Commands,
            "prefetch candidates the ASD engine generated",
            a.prefetches,
        );
        r.fill_counter(
            names::ASD_STREAMS_OBSERVED,
            Unit::Events,
            "streams reported to the histograms",
            a.streams_observed,
        );
        r.fill_counter(
            names::ASD_UNTRACKED_READS,
            Unit::Accesses,
            "reads not tracked by any filter slot",
            a.untracked_reads,
        );
        r.fill_counter(names::ASD_EPOCHS, Unit::Events, "completed epochs", a.epochs);
    }
    r.snapshot()
}

/// Build a plain access vector for ad-hoc experiments (re-exported
/// convenience used by examples).
pub fn collect_trace(profile: &WorkloadProfile, seed: u64, n: usize) -> Vec<MemAccess> {
    TraceGenerator::new(profile.clone(), seed).take(n).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PrefetchKind, SystemConfig};
    use asd_trace::suites;

    fn run(kind: PrefetchKind, bench: &str, accesses: u64) -> RunResult {
        let profile = suites::by_name(bench).expect("benchmark exists");
        let opts = RunOpts { accesses, ..RunOpts::default() };
        let cfg = SystemConfig::for_kind(kind, 1);
        System::new(cfg, &profile, &opts).expect("generated source").with_label(kind.name()).run()
    }

    #[test]
    fn np_run_completes_and_counts() {
        let r = run(PrefetchKind::Np, "milc", 5_000);
        assert_eq!(r.core.accesses, 5_000);
        assert!(r.cycles > 0);
        assert!(r.dram.reads > 0, "streaming workload must reach DRAM");
        assert_eq!(r.mc.prefetches_issued, 0);
        assert!(r.power.energy_j > 0.0);
    }

    #[test]
    fn pms_beats_np_on_streaming_workload() {
        let np = run(PrefetchKind::Np, "lbm", 12_000);
        let pms = run(PrefetchKind::Pms, "lbm", 12_000);
        assert!(pms.mc.prefetches_issued > 0, "ASD must fire on lbm");
        assert!(pms.gain_over(&np) > 5.0, "PMS gain over NP on lbm: {:.1}%", pms.gain_over(&np));
    }

    #[test]
    fn ms_beats_np_on_short_stream_workload() {
        let np = run(PrefetchKind::Np, "milc", 12_000);
        let ms = run(PrefetchKind::Ms, "milc", 12_000);
        assert!(ms.mc.prefetches_issued > 0);
        assert!(ms.gain_over(&np) > 0.0, "MS gain: {:.2}%", ms.gain_over(&np));
    }

    #[test]
    fn smt_doubles_accesses() {
        let profile = suites::by_name("milc").unwrap();
        let opts = RunOpts { accesses: 3_000, smt: true, ..RunOpts::default() };
        let cfg = SystemConfig::for_kind(PrefetchKind::Pms, 2);
        let r = System::new(cfg, &profile, &opts)
            .expect("generated source")
            .with_label("PMS-SMT")
            .run();
        assert_eq!(r.core.accesses, 6_000);
    }

    #[test]
    fn event_driven_matches_cycle_accurate() {
        // The event loop must be a pure acceleration: identical results to
        // stepping the controller every cycle, across engines and
        // workloads.
        for (kind, bench) in [
            (PrefetchKind::Np, "milc"),
            (PrefetchKind::Ps, "tonto"),
            (PrefetchKind::Ms, "lbm"),
            (PrefetchKind::Pms, "milc"),
        ] {
            let profile = suites::by_name(bench).expect("benchmark exists");
            let opts = RunOpts { accesses: 6_000, ..RunOpts::default() };
            let cfg = SystemConfig::for_kind(kind, 1);
            let fast = System::new(cfg.clone(), &profile, &opts)
                .expect("generated source")
                .with_label(kind.name())
                .run();
            let slow = System::new(cfg, &profile, &opts)
                .expect("generated source")
                .with_label(kind.name())
                .run_cycle_accurate();
            assert_eq!(fast.cycles, slow.cycles, "{bench}/{}", kind.name());
            assert_eq!(fast.mc, slow.mc, "{bench}/{}", kind.name());
            assert_eq!(fast.dram, slow.dram, "{bench}/{}", kind.name());
            assert_eq!(fast.core, slow.core, "{bench}/{}", kind.name());
        }
    }

    #[test]
    fn deterministic_runs() {
        let a = run(PrefetchKind::Pms, "tonto", 4_000);
        let b = run(PrefetchKind::Pms, "tonto", 4_000);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.mc.prefetches_issued, b.mc.prefetches_issued);
    }
}
