//! The per-layer kernel split: the replay corpus fed through each model
//! crate's entry point on its own, timed from here. Each stage runs
//! `REPS` times; times are the median, counts must repeat exactly.

use crate::replay::{Trace, ACCESSES};
use crate::util::{Obj, SpanId, Spans};
use asd_cache::{Hierarchy, HierarchyConfig, HitLevel};
use asd_core::{AsdConfig, AsdDetector, Clocked, NextEvent};
use asd_cpu::{Core, CoreConfig, FixedLatencyMemory};
use asd_dram::{Dram, DramCmdKind, DramConfig};
use asd_mc::{EngineKind, McConfig, MemoryController, ReadCompletion, ReadResponse};
use asd_trace::{thread_seed, AccessKind, MemAccess, TraceGenerator};
use asd_traceio::{TraceReader, TraceWriter};
use std::hint::black_box;
use std::time::Instant;

const REPS: usize = 3;
/// Read latency of the stand-in memory behind `Core::step`, in cycles.
const MEM_LATENCY: u64 = 200;
/// Upper bound on controller steps per trace, so a wedged controller
/// fails the run instead of hanging it.
const MC_STEP_LIMIT: u64 = 50_000_000;

/// One access that left the cache hierarchy, at a synthetic cycle.
#[derive(Clone, Copy)]
struct MemOp {
    line: u64,
    thread: u8,
    write: bool,
    at: u64,
}

/// Per-stage totals over the corpus for one repetition.
#[derive(Default, Clone, PartialEq)]
struct Counts {
    records: u64,
    core_accesses: u64,
    l1_hits: u64,
    l2_hits: u64,
    l3_hits: u64,
    mem_reads: u64,
    mem_writes: u64,
    candidates: u64,
    engine_prefetches: Vec<u64>,
    mc_reads: u64,
    mc_prefetches: u64,
    mc_covered: u64,
    mc_used: u64,
    mc_completed: u64,
    dram_cmds: u64,
    activations: u64,
    row_hits: u64,
}

#[derive(Default)]
struct Times {
    decode: u64,
    verify: u64,
    encode: u64,
    gen: u64,
    cpu: u64,
    cache: u64,
    core: u64,
    engines: Vec<u64>,
    mc: u64,
    dram: u64,
}

fn since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn is_write(a: &MemAccess) -> bool {
    a.kind == AccessKind::Write
}

pub fn split(
    traces: &[Trace],
    seed: u64,
    spans: &mut Spans,
    parent: SpanId,
) -> Result<String, String> {
    let zoo = asd_engines::names();
    let mut times: Vec<Times> = Vec::with_capacity(REPS);
    let mut first: Option<Counts> = None;
    for rep in 0..REPS {
        let mut t = Times { engines: vec![0; zoo.len()], ..Times::default() };
        let mut c = Counts { engine_prefetches: vec![0; zoo.len()], ..Counts::default() };
        for (idx, trace) in traces.iter().enumerate() {
            let id = (rep * traces.len() + idx) as u64;
            let s = spans.open("layers.trace", id, Some(parent));
            stage_trace(trace, seed, &zoo, &mut t, &mut c, spans, s)?;
            spans.close(s);
        }
        match &first {
            None => first = Some(c),
            Some(f) if *f != c => return Err("layer counts differ between repetitions".to_string()),
            Some(_) => {}
        }
        times.push(t);
    }
    let c = first.unwrap_or_default();
    let med = |f: &dyn Fn(&Times) -> u64| {
        let mut v: Vec<u64> = times.iter().map(f).collect();
        v.sort_unstable();
        v[v.len() / 2] as f64
    };
    let per = |ns: f64, n: u64| if n == 0 { 0.0 } else { ns / n as f64 };
    let mut out = Obj::new()
        .num("traceio.encode_ns_per_record", per(med(&|t| t.encode), c.records))
        .num("traceio.verify_ns_per_record", per(med(&|t| t.verify), c.records))
        .num("traceio.decode_ns_per_record", per(med(&|t| t.decode), c.records))
        .num("trace.gen_ns_per_access", per(med(&|t| t.gen), c.records))
        .num("cpu.ns_per_access", per(med(&|t| t.cpu), c.core_accesses))
        .num("cache.ns_per_access", per(med(&|t| t.cache), c.records))
        .int("cache.l1_hits", c.l1_hits)
        .int("cache.l2_hits", c.l2_hits)
        .int("cache.l3_hits", c.l3_hits)
        .int("cache.mem_reads", c.mem_reads)
        .num("core.ns_per_read", per(med(&|t| t.core), c.mem_reads))
        .int("core.candidates", c.candidates);
    for (i, name) in zoo.iter().enumerate() {
        out = out
            .num(&format!("engines.{name}.ns_per_read"), per(med(&|t| t.engines[i]), c.mem_reads));
    }
    let useful = if c.mc_completed == 0 { 0.0 } else { c.mc_used as f64 / c.mc_completed as f64 };
    out = out
        .num("mc.ns_per_read", per(med(&|t| t.mc), c.mc_reads))
        .int("mc.reads", c.mc_reads)
        .int("mc.prefetches_issued", c.mc_prefetches)
        .int("mc.covered_reads", c.mc_covered)
        .num("mc.useful_prefetch_fraction", useful)
        .num("dram.ns_per_cmd", per(med(&|t| t.dram), c.dram_cmds))
        .int("dram.activations", c.activations)
        .int("dram.row_hits", c.row_hits);
    Ok(out.finish())
}

/// Steps a controller event by event through `Clocked::step`.
struct McStepper {
    mc: MemoryController,
    now: u64,
    next: NextEvent,
    steps: u64,
    done: Vec<ReadCompletion>,
}

impl McStepper {
    fn new(mut mc: MemoryController) -> Self {
        let next = Clocked::step(&mut mc, 0);
        McStepper { mc, now: 0, next, steps: 1, done: Vec::new() }
    }

    fn step_at(&mut self, t: u64) -> Result<(), String> {
        self.now = t.max(self.now);
        self.next = Clocked::step(&mut self.mc, self.now);
        self.mc.drain_completions(&mut self.done);
        self.done.clear();
        self.steps += 1;
        if self.steps > MC_STEP_LIMIT {
            return Err("memory controller wedged".to_string());
        }
        Ok(())
    }
}

fn stage_trace(
    trace: &Trace,
    seed: u64,
    zoo: &[&str],
    t: &mut Times,
    c: &mut Counts,
    spans: &mut Spans,
    parent: SpanId,
) -> Result<(), String> {
    let io_err = |e: asd_traceio::TraceIoError| format!("{}: {e}", trace.path.display());
    let threads = usize::from(trace.threads);

    // traceio: decode with `TraceReader::fill`, then verify, then encode
    // the decoded records again; the re-encoding must equal the file.
    let s = spans.open("traceio.TraceReader::fill", 0, Some(parent));
    let t0 = Instant::now();
    let mut reader = TraceReader::open(&trace.path).map_err(io_err)?;
    let meta = reader.meta().clone();
    let mut records: Vec<MemAccess> = Vec::with_capacity(meta.accesses as usize);
    while reader.fill(4096, &mut records).map_err(io_err)? > 0 {}
    t.decode += since(t0);
    spans.close(s);
    c.records += records.len() as u64;

    let s = spans.open("traceio.TraceReader::verify", 0, Some(parent));
    let t0 = Instant::now();
    let verified = TraceReader::open(&trace.path).and_then(TraceReader::verify).map_err(io_err)?;
    t.verify += since(t0);
    spans.close(s);
    if verified != records.len() as u64 {
        return Err(format!("{}: verify counted {verified} records", trace.path.display()));
    }

    let file = std::fs::read(&trace.path).map_err(|e| format!("{}: {e}", trace.path.display()))?;
    let s = spans.open("traceio.TraceWriter", 0, Some(parent));
    let t0 = Instant::now();
    let mut writer = TraceWriter::new(Vec::with_capacity(file.len()), meta).map_err(io_err)?;
    writer.write_all_accesses(records.iter().copied()).map_err(io_err)?;
    let encoded = writer.finish().map_err(io_err)?;
    t.encode += since(t0);
    spans.close(s);
    if encoded != file {
        return Err(format!("{}: re-encoding differs from the recording", trace.path.display()));
    }

    // trace: regenerate each thread with `TraceGenerator::fill`; capture
    // is record-then-replay, so it must equal the decoded records.
    let s = spans.open("trace.TraceGenerator::fill", 0, Some(parent));
    let t0 = Instant::now();
    let mut generated: Vec<MemAccess> = Vec::with_capacity(records.len());
    for th in 0..trace.threads {
        let mut g =
            TraceGenerator::new(trace.profile.clone(), thread_seed(seed, th)).with_thread(th);
        let mut left = ACCESSES as usize;
        while left > 0 {
            let n = left.min(4096);
            g.fill(n, &mut generated);
            left -= n;
        }
    }
    t.gen += since(t0);
    spans.close(s);
    if generated != records {
        return Err(format!("{}: generator differs from the recording", trace.path.display()));
    }

    // cpu: `Core::step` over a fixed-latency memory.
    let per_thread: Vec<Vec<MemAccess>> = (0..threads)
        .map(|th| records.iter().filter(|a| usize::from(a.thread) == th).copied().collect())
        .collect();
    let s = spans.open("cpu.Core::step", 0, Some(parent));
    let t0 = Instant::now();
    let mut core =
        Core::new(CoreConfig::default(), per_thread.into_iter().map(Vec::into_iter).collect());
    let mut mem = FixedLatencyMemory::new(MEM_LATENCY);
    let mut now = 0u64;
    while !core.finished() {
        core.step(now, &mut mem);
        now = core.next_event(now).map_or(now + 1, |e| e.max(now + 1));
    }
    t.cpu += since(t0);
    spans.close(s);
    c.core_accesses += core.stats().accesses;

    // cache: `Hierarchy::access`, filling from memory on a miss. The
    // accesses that leave the hierarchy form the miss stream below.
    let s = spans.open("cache.Hierarchy::access", 0, Some(parent));
    let t0 = Instant::now();
    let mut h = Hierarchy::new(HierarchyConfig::default());
    let mut ops: Vec<MemOp> = Vec::with_capacity(records.len() / 2);
    let mut clock = 0u64;
    for a in &records {
        let line = a.line();
        let out = h.access(line, is_write(a));
        clock += u64::from(a.gap) + out.latency;
        match out.level {
            HitLevel::L1 => c.l1_hits += 1,
            HitLevel::L2 => c.l2_hits += 1,
            HitLevel::L3 => c.l3_hits += 1,
            HitLevel::Memory => {
                c.mem_reads += 1;
                ops.push(MemOp { line, thread: a.thread, write: false, at: clock });
                let fill = h.fill_from_memory(line, is_write(a));
                for wb in fill.writebacks {
                    ops.push(MemOp { line: wb, thread: a.thread, write: true, at: clock });
                }
            }
        }
        for wb in out.writebacks {
            ops.push(MemOp { line: wb, thread: a.thread, write: true, at: clock });
        }
    }
    t.cache += since(t0);
    spans.close(s);
    c.mem_writes += ops.iter().filter(|o| o.write).count() as u64;
    let reads: Vec<MemOp> = ops.iter().filter(|o| !o.write).copied().collect();

    // core: the ASD detector (one per hardware thread) on the miss stream.
    let s = spans.open("core.AsdDetector::on_read", 0, Some(parent));
    let t0 = Instant::now();
    let mut detectors = (0..threads)
        .map(|_| AsdDetector::new(AsdConfig::default()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let mut cands = Vec::new();
    for o in &reads {
        detectors[usize::from(o.thread)].on_read(o.line, o.at, &mut cands);
        c.candidates += cands.len() as u64;
        cands.clear();
    }
    black_box(&detectors);
    t.core += since(t0);
    spans.close(s);

    // engines: each zoo engine's `on_read` on the same stream.
    for (i, name) in zoo.iter().enumerate() {
        let Some(EngineKind::Custom(factory)) = asd_engines::by_name(name) else {
            return Err(format!("zoo engine `{name}` does not resolve"));
        };
        let s = spans.open("engines.on_read", i as u64, Some(parent));
        let t0 = Instant::now();
        let mut engine = factory.build(threads);
        let mut out = Vec::new();
        for o in &reads {
            engine.on_read(o.line, o.thread, o.at, &mut out);
            c.engine_prefetches[i] += out.len() as u64;
            out.clear();
        }
        black_box(&engine);
        t.engines[i] += since(t0);
        spans.close(s);
    }

    // mc: the controller with the ASD engine, fed the whole miss stream
    // (reads and writebacks) and stepped event by event until drained.
    let s = spans.open("mc.MemoryController", 0, Some(parent));
    let t0 = Instant::now();
    let cfg =
        McConfig { engine: EngineKind::Asd(AsdConfig::default()), threads, ..McConfig::default() };
    let mut d = McStepper::new(MemoryController::new(cfg, Dram::new(DramConfig::default())));
    for o in &ops {
        while let Some(e) = d.next.at().filter(|&e| e < o.at) {
            d.step_at(e)?;
        }
        let mut at = o.at.max(d.now);
        loop {
            let accepted = if o.write {
                d.mc.enqueue_write(o.line, at)
            } else {
                !matches!(d.mc.enqueue_read(o.line, o.thread, at), ReadResponse::Rejected)
            };
            d.step_at(at)?;
            if accepted {
                break;
            }
            at = d.next.at().map_or(at + 1, |e| e.max(at + 1));
        }
    }
    while d.mc.busy() {
        let t = d.next.at().map_or(d.now + 1, |e| e.max(d.now + 1));
        d.step_at(t)?;
    }
    let mc = d.mc;
    t.mc += since(t0);
    spans.close(s);
    let st = mc.stats();
    let pc = st.prefetch_counts();
    c.mc_reads += st.reads;
    c.mc_prefetches += st.prefetches_issued;
    c.mc_covered += st.covered_reads();
    c.mc_used += pc.pb_read_hits + pc.merged_with_prefetch;
    c.mc_completed += pc.pb_read_hits
        + pc.merged_with_prefetch
        + pc.pb_unused_evictions
        + pc.pb_write_invalidations;

    // dram: `Dram::issue` for every command of the miss stream, each at
    // its earliest legal cycle.
    let s = spans.open("dram.Dram::issue", 0, Some(parent));
    let t0 = Instant::now();
    let mut dram = Dram::new(DramConfig::default());
    let mut now = 0u64;
    for o in &ops {
        now = dram.earliest_issue(o.line, o.at.max(now)).max(o.at.max(now));
        let kind = if o.write { DramCmdKind::Write } else { DramCmdKind::Read };
        black_box(dram.issue(o.line, kind, now));
    }
    t.dram += since(t0);
    spans.close(s);
    let ds = dram.stats();
    c.dram_cmds += ops.len() as u64;
    c.activations += ds.activations;
    c.row_hits += ds.row_hits;
    Ok(())
}
