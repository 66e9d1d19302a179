//! The memory controller of the paper's Figure 4.

use crate::config::{LpqMode, McConfig, SchedulerKind};
use crate::engine::PrefetchEngine;
use crate::prefetch_buffer::PrefetchBuffer;
use crate::queues::{BoundedFifo, QueuedCommand, ReorderQueue};
use crate::registry::build_engine;
use crate::sched::{CommandPicker, PickedFrom};
use crate::stats::McStats;
use asd_core::{AdaptiveScheduler, Clocked, LpqPolicy, NextEvent, QueueView};
use asd_dram::{Dram, DramCmdKind};
use asd_telemetry::{
    Buckets, EventKind, HistogramId, Registry, SeriesId, Snapshot, TelemetryConfig, Unit,
};

/// Immediate answer to [`MemoryController::enqueue_read`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadResponse {
    /// Data available at the given cycle without a DRAM round trip of its
    /// own (Prefetch Buffer hit, or merged with an in-flight prefetch).
    Done {
        /// Cycle the data reaches the requester.
        at: u64,
    },
    /// Accepted; a completion will be reported from
    /// [`MemoryController::step`] once the command is scheduled.
    Queued,
    /// The read reorder queue is full; retry next cycle.
    Rejected,
}

/// A read completion produced by [`MemoryController::step`]. `at` may be in
/// the future (the data-burst completion time); the caller delivers it to
/// the core at that cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadCompletion {
    /// The filled cache line.
    pub line: u64,
    /// Requesting hardware thread.
    pub thread: u8,
    /// Cycle the data is available.
    pub at: u64,
}

#[derive(Debug, Clone, Copy)]
struct InflightPrefetch {
    line: u64,
    data_at: u64,
}

enum LpqArbiter {
    Adaptive(AdaptiveScheduler),
    Fixed(LpqPolicy),
}

/// Hot-path instrument handles, registered once (at construction or
/// [`MemoryController::attach_telemetry`]) so updates are plain indexed
/// operations with no name lookups.
#[derive(Debug, Clone, Copy)]
struct McInstruments {
    caq_occupancy: HistogramId,
    lpq_occupancy: HistogramId,
    reorder_occupancy: HistogramId,
    epoch_prefetches: SeriesId,
    epoch_conflicts: SeriesId,
}

/// The full memory controller: reorder queues + scheduler + CAQ, extended
/// with the ASD prefetcher (Stream Filter / LHTs inside
/// [`PrefetchEngine`]), LPQ, Prefetch Buffer, and Final Scheduler.
///
/// Generic over the engine type so the per-read `on_read` and per-step
/// `take_epoch_boundaries` calls devirtualize (and inline) when a concrete
/// engine is named — the simulator instantiates one controller per paper
/// engine. The default parameter keeps the dynamic-dispatch form
/// (`MemoryController::new`, used by `EngineKind::Custom` and existing
/// callers) spelled exactly as before.
pub struct MemoryController<E: PrefetchEngine = Box<dyn PrefetchEngine>> {
    cfg: McConfig,
    dram: Dram,
    reads: ReorderQueue,
    writes: ReorderQueue,
    caq: BoundedFifo,
    lpq: BoundedFifo,
    pb: PrefetchBuffer,
    engine: E,
    picker: CommandPicker,
    arbiter: LpqArbiter,
    inflight: Vec<InflightPrefetch>,
    /// Per-bank: busy with a memory-side prefetch until this cycle.
    bank_prefetch_until: Vec<u64>,
    /// Max over `bank_prefetch_until`: when `<= now`, no bank is occupied
    /// by a prefetch and the per-command conflict scan is a no-op — the
    /// single compare that makes conflict accounting free for
    /// configurations that never prefetch (NP/PS).
    prefetch_horizon: u64,
    stats: McStats,
    cand_scratch: Vec<u64>,
    /// Read completions produced since the last drain.
    outbox: Vec<ReadCompletion>,
    /// Telemetry section (`mc.` prefix); inert unless
    /// [`MemoryController::attach_telemetry`] enables it. Observational
    /// only — no simulation decision reads it.
    tel: Registry,
    inst: McInstruments,
    /// Epoch boundaries seen so far (event numbering only).
    epoch_count: u64,
}

impl MemoryController {
    /// Build a controller around a DRAM channel, constructing the engine
    /// named by the configuration behind dynamic dispatch. Callers that
    /// know the engine statically use
    /// [`MemoryController::with_engine`] instead.
    pub fn new(cfg: McConfig, dram: Dram) -> Self {
        let engine = build_engine(&cfg.engine, cfg.threads);
        Self::with_engine(cfg, dram, engine)
    }
}

impl<E: PrefetchEngine> MemoryController<E> {
    /// Queue-occupancy histograms are sampled on cycles where
    /// `now & MASK == 0` (every 64th cycle), not every cycle: the
    /// sampled distribution has the same shape at 1/64th the hot-path
    /// cost, which is what keeps enabled-telemetry overhead ≤2%.
    const OCCUPANCY_SAMPLE_MASK: u64 = 63;

    /// Build a controller around a DRAM channel with a concrete engine
    /// (monomorphized dispatch; `cfg.engine` is kept for reporting but the
    /// passed engine is the one consulted).
    pub fn with_engine(cfg: McConfig, dram: Dram, engine: E) -> Self {
        cfg.assert_valid();
        let banks = dram.config().banks;
        let arbiter = match cfg.lpq_mode {
            LpqMode::Adaptive => LpqArbiter::Adaptive(AdaptiveScheduler::new()),
            LpqMode::Fixed(p) => LpqArbiter::Fixed(p),
        };
        let mut tel = Registry::disabled();
        let inst = Self::instruments(&mut tel, &cfg);
        MemoryController {
            reads: ReorderQueue::new(cfg.read_queue_cap),
            writes: ReorderQueue::new(cfg.write_queue_cap),
            caq: BoundedFifo::new(cfg.caq_cap),
            lpq: BoundedFifo::new(cfg.lpq_cap),
            pb: PrefetchBuffer::new(cfg.pb_lines.max(1), cfg.pb_assoc.max(1)),
            engine,
            picker: CommandPicker::new(cfg.scheduler),
            arbiter,
            inflight: Vec::with_capacity(8),
            bank_prefetch_until: vec![0; banks],
            prefetch_horizon: 0,
            stats: McStats::default(),
            cand_scratch: Vec::with_capacity(8),
            outbox: Vec::with_capacity(8),
            tel,
            inst,
            epoch_count: 0,
            cfg,
            dram,
        }
    }

    /// Register the controller's hot-path instruments on `tel`. Bucket
    /// bounds come from the configured queue capacities, so every
    /// occupancy value has an exact bucket.
    fn instruments(tel: &mut Registry, cfg: &McConfig) -> McInstruments {
        McInstruments {
            caq_occupancy: tel.histogram(
                "caq.occupancy",
                Unit::Commands,
                "CAQ depth sampled every controller cycle",
                Buckets::zero_to(cfg.caq_cap as u64),
            ),
            lpq_occupancy: tel.histogram(
                "lpq.occupancy",
                Unit::Commands,
                "LPQ depth sampled every controller cycle",
                Buckets::zero_to(cfg.lpq_cap as u64),
            ),
            reorder_occupancy: tel.histogram(
                "reorder.occupancy",
                Unit::Commands,
                "combined read+write reorder queue depth sampled every controller cycle",
                Buckets::zero_to((cfg.read_queue_cap + cfg.write_queue_cap) as u64),
            ),
            epoch_prefetches: tel.series(
                "epoch.prefetches",
                Unit::Commands,
                "cumulative prefetches issued, sampled at each SLH epoch boundary",
            ),
            epoch_conflicts: tel.series(
                "epoch.conflicts",
                Unit::Events,
                "cumulative delayed regular commands, sampled at each SLH epoch boundary",
            ),
        }
    }

    /// Enable telemetry per `cfg`, replacing the inert registry created
    /// by [`MemoryController::new`]. Call before running; this covers the
    /// controller's own instruments and its DRAM channel's.
    pub fn attach_telemetry(&mut self, cfg: &TelemetryConfig) {
        let mut tel = Registry::section("mc.", cfg);
        self.inst = Self::instruments(&mut tel, &self.cfg);
        self.tel = tel;
        self.dram.attach_telemetry(cfg);
    }

    /// Freeze the live-updated instruments (occupancy histograms, epoch
    /// series, events) of this controller and its DRAM channel. Scalar
    /// counters are not duplicated here — [`MemoryController::stats`]
    /// stays authoritative and the run-level assembler mirrors it.
    // asd-lint: cold -- exposition freeze: runs at snapshot time, not per cycle
    pub fn telemetry_snapshot(&self) -> Snapshot {
        let mut snap = self.tel.snapshot();
        snap.merge(self.dram.telemetry_snapshot());
        snap
    }

    /// The configuration in force.
    pub fn config(&self) -> &McConfig {
        &self.cfg
    }

    /// Submit a Read command at cycle `now`.
    ///
    /// The Stream Filter observes every incoming Read (Figure 4 taps the
    /// input), then the Prefetch Buffer is checked (first check), then
    /// in-flight prefetches are consulted for a merge; only then does the
    /// command enter the read reorder queue.
    // asd-lint: hot
    pub fn enqueue_read(&mut self, line: u64, thread: u8, now: u64) -> ReadResponse {
        self.stats.reads += 1;

        // Train the memory-side engine and harvest prefetch candidates.
        self.cand_scratch.clear();
        let mut cands = std::mem::take(&mut self.cand_scratch);
        self.engine.on_read(line, thread, now, &mut cands);
        for cand in cands.drain(..) {
            self.consider_prefetch(cand, now);
        }
        self.cand_scratch = cands;

        // First Prefetch Buffer check.
        if self.pb.take_for_read(line) {
            self.stats.pb_hits_on_arrival += 1;
            self.tel.event(now, EventKind::PbHit, line, 0);
            return ReadResponse::Done { at: now + self.cfg.pb_hit_latency };
        }

        // A still-queued prefetch for this line is pointless now — the
        // demand read will fetch the data itself. Squash it.
        if self.lpq.remove_line(line).is_some() {
            self.stats.lpq_squashed += 1;
            self.tel.event(now, EventKind::PrefetchSquashed, line, self.lpq.len() as u64);
        }

        // Merge with an in-flight memory-side prefetch of the same line.
        if let Some(pos) = self.inflight.iter().position(|p| p.line == line) {
            let p = self.inflight.swap_remove(pos);
            self.stats.merged_with_prefetch += 1;
            return ReadResponse::Done { at: p.data_at.max(now) + self.cfg.pb_hit_latency };
        }

        if self.reads.is_full() {
            self.stats.read_rejects += 1;
            return ReadResponse::Rejected;
        }
        let (bank, row) = self.dram.map_line(line);
        let accepted = self.reads.push(QueuedCommand {
            line,
            bank: bank as u32,
            row,
            kind: DramCmdKind::Read,
            thread,
            arrival: now,
            conflict_counted: false,
        });
        debug_assert!(accepted);
        ReadResponse::Queued
    }

    /// Submit a Write command (writeback or store traffic). Returns `false`
    /// when the write queue is full (caller retries). Writes invalidate any
    /// matching Prefetch Buffer entry (§3.3).
    pub fn enqueue_write(&mut self, line: u64, now: u64) -> bool {
        self.stats.writes += 1;
        self.pb.invalidate_for_write(line);
        if self.writes.is_full() {
            self.stats.write_rejects += 1;
            return false;
        }
        let (bank, row) = self.dram.map_line(line);
        self.writes.push(QueuedCommand {
            line,
            bank: bank as u32,
            row,
            kind: DramCmdKind::Write,
            thread: 0,
            arrival: now,
            conflict_counted: false,
        })
    }

    fn consider_prefetch(&mut self, line: u64, now: u64) {
        // Redundant if already buffered, queued anywhere, or in flight.
        if self.pb.contains(line)
            || self.lpq.contains_line(line)
            || self.reads.contains_line(line)
            || self.caq.contains_line(line)
            || self.inflight.iter().any(|p| p.line == line)
        {
            self.stats.prefetch_redundant += 1;
            return;
        }
        let (bank, row) = self.dram.map_line(line);
        let cmd = QueuedCommand {
            line,
            bank: bank as u32,
            row,
            kind: DramCmdKind::Read,
            thread: 0,
            arrival: now,
            conflict_counted: false,
        };
        if !self.lpq.push(cmd) {
            self.stats.lpq_dropped += 1;
            self.tel.event(now, EventKind::PrefetchDropped, line, self.lpq.len() as u64);
        }
    }

    // asd-lint: hot
    fn queue_view(&self, now: u64) -> QueueView {
        // `reorder_issuable` is only read by LPQ policy 2, whose condition
        // starts with `caq_len == 0` — with commands in the CAQ the count
        // is unobservable, so skip the probe-per-command scan.
        let issuable = if self.caq.is_empty() {
            count_issuable(&self.reads, &self.dram, now)
                + count_issuable(&self.writes, &self.dram, now)
        } else {
            0
        };
        QueueView {
            caq_len: self.caq.len(),
            lpq_len: self.lpq.len(),
            lpq_capacity: self.lpq.capacity(),
            reorder_len: self.reads.len() + self.writes.len(),
            reorder_issuable: issuable,
            lpq_head_ts: self.lpq.head().map(|c| c.arrival),
            caq_head_ts: self.caq.head().map(|c| c.arrival),
        }
    }

    /// Count (once per command) regular commands that cannot proceed
    /// because the memory system is busy with a previously issued prefetch
    /// — the feedback signal of Adaptive Scheduling (§3.5) and the
    /// "delayed regular commands" measure of Figure 13.
    // asd-lint: hot
    fn count_prefetch_blocks(&mut self, now: u64) {
        // No bank is occupied by a prefetch: nothing can be blocked. This
        // single compare is the whole cost for NP/PS configurations and
        // for every prefetching cycle with no prefetch in the DRAM.
        if self.prefetch_horizon <= now {
            return;
        }
        let banks = &self.bank_prefetch_until;
        let tel = &mut self.tel;
        let mut conflicts = self.reads.mark_new_conflicts(banks, now, |bank| {
            tel.event(now, EventKind::BankConflict, u64::from(bank), 1);
        });
        conflicts += self.writes.mark_new_conflicts(banks, now, |bank| {
            tel.event(now, EventKind::BankConflict, u64::from(bank), 1);
        });
        if let Some(head) = self.caq.head_mut() {
            if !head.conflict_counted && banks[head.bank as usize] > now {
                head.conflict_counted = true;
                conflicts += 1;
                tel.event(now, EventKind::BankConflict, u64::from(head.bank), 1);
            }
        }
        if conflicts > 0 {
            self.stats.delayed_regular += conflicts;
            if let LpqArbiter::Adaptive(sched) = &mut self.arbiter {
                for _ in 0..conflicts {
                    sched.record_conflict();
                }
            }
        }
    }

    /// Advance the controller one cycle, appending any read completions
    /// (possibly with future timestamps) to `out`.
    ///
    /// Compatibility wrapper: the cycle's transitions, then
    /// [`MemoryController::drain_completions`]; event-driven callers use
    /// the [`Clocked`] implementation instead.
    pub fn step(&mut self, now: u64, out: &mut Vec<ReadCompletion>) {
        self.advance(now);
        self.drain_completions(out);
    }

    /// Move completions produced so far (by stepping the controller, or by
    /// [`MemoryController::enqueue_read`] fast paths routed through
    /// `step`) into `out`. Timestamps may be in the future — the caller
    /// delivers each at its `at` cycle.
    pub fn drain_completions(&mut self, out: &mut Vec<ReadCompletion>) {
        out.append(&mut self.outbox);
    }

    /// Perform every state transition due at cycle `now`. Returns `true`
    /// when the very next cycle must also be stepped — cases a jump to
    /// [`MemoryController::next_event_hint`] would get wrong:
    ///
    /// * a CAQ pop exposed a new head that has not been checked against
    ///   the Prefetch Buffer or the DRAM timing yet;
    /// * the reorder queues are non-empty, the CAQ has room, and the
    ///   scheduler promotes without waiting for bank readiness (InOrder,
    ///   AHB) — it will act next cycle no matter what the DRAM says;
    /// * a prefetch just issued while demand commands were queued — the
    ///   following cycle is where they observe the newly occupied bank
    ///   (the conflict-marking cycle Adaptive Scheduling adapts on, which
    ///   the cycle-accurate reference also hits). With every demand queue
    ///   empty nothing can be marked and no step is forced.
    ///
    /// Everything else (promotion of ready commands under Memoryless,
    /// issue of the current heads, prefetch landings) is exactly captured
    /// by the hint's enablement times.
    // asd-lint: hot
    fn advance(&mut self, now: u64) -> bool {
        let mut popped_caq = false;

        // 0. Occupancy histograms (the queues Adaptive Scheduling watches,
        // §3.5). Inert single branch when telemetry is off; sampled every
        // 64th cycle when on — the occupancy *distribution* is the signal,
        // and sampling keeps the enabled path within the ≤2% overhead
        // budget instead of paying three bucket updates per cycle.
        if now & Self::OCCUPANCY_SAMPLE_MASK == 0 && self.tel.metrics_on() {
            self.tel.observe(self.inst.caq_occupancy, self.caq.len() as u64);
            self.tel.observe(self.inst.lpq_occupancy, self.lpq.len() as u64);
            let reorder = (self.reads.len() + self.writes.len()) as u64;
            self.tel.observe(self.inst.reorder_occupancy, reorder);
        }

        // 1. Land completed prefetches in the Prefetch Buffer. (The CAQ
        // head is checked against the refreshed buffer in stage 5 of this
        // same cycle, so landing alone never requires stepping the next
        // cycle.)
        let mut i = 0;
        while i < self.inflight.len() {
            if self.inflight[i].data_at <= now {
                let p = self.inflight.swap_remove(i);
                self.pb.insert(p.line);
            } else {
                i += 1;
            }
        }

        // 2. Epoch boundaries: the adaptive scheduler adapts on the same
        // epoch the Stream Length Histograms use.
        let boundaries = self.engine.take_epoch_boundaries();
        if boundaries > 0 {
            let before = self.current_lpq_policy();
            if let LpqArbiter::Adaptive(sched) = &mut self.arbiter {
                for _ in 0..boundaries {
                    sched.on_epoch_end();
                }
            }
            self.epoch_count += boundaries;
            if self.tel.events_on() {
                let after = self.current_lpq_policy();
                self.tel.event(
                    now,
                    EventKind::EpochRollover,
                    self.epoch_count,
                    self.stats.delayed_regular,
                );
                if after != before {
                    self.tel.event(
                        now,
                        EventKind::PolicySwitch,
                        before.number() as u64,
                        after.number() as u64,
                    );
                }
            }
            self.tel.sample(self.inst.epoch_prefetches, now, self.stats.prefetches_issued as f64);
            self.tel.sample(self.inst.epoch_conflicts, now, self.stats.delayed_regular as f64);
        }

        // 3. Conflict accounting.
        self.count_prefetch_blocks(now);

        // 4. Promote one command from the reorder queues to the CAQ. (The
        // promotion itself never forces a next-cycle step: whether another
        // can follow is the queue-room condition computed at the end, and
        // the promoted command's issue time is in the hint via the CAQ
        // head.)
        if !self.caq.is_full() {
            if let Some(pick) = self.picker.pick(&self.reads, &self.writes, &self.dram, now) {
                let cmd = match pick {
                    PickedFrom::Read(i) => self.reads.remove(i),
                    PickedFrom::Write(i) => self.writes.remove(i),
                };
                let accepted = self.caq.push(cmd);
                debug_assert!(accepted, "checked capacity above");
            }
        }

        // 5. Final Scheduler: one DRAM issue per cycle, LPQ vs CAQ. The
        // LPQ arbitration (and the issuable scan feeding its QueueView) is
        // only consulted when a prefetch is actually waiting — the
        // policies are pure functions of the view, so an empty LPQ makes
        // the whole block unobservable.
        if !self.lpq.is_empty() {
            let view = self.queue_view(now);
            let lpq_allowed = match &self.arbiter {
                LpqArbiter::Adaptive(s) => s.allows(view),
                LpqArbiter::Fixed(p) => p.allows(view),
            };
            if lpq_allowed {
                if let Some(cmd) = self.lpq.head() {
                    if self.dram.can_issue_mapped(cmd.bank as usize, cmd.row, now) {
                        self.lpq.pop();
                        let completion = self.dram.issue(cmd.line, DramCmdKind::Read, now);
                        self.picker.note_issued(DramCmdKind::Read);
                        let bank = cmd.bank as usize;
                        self.bank_prefetch_until[bank] = completion.data_at;
                        self.prefetch_horizon = self.prefetch_horizon.max(completion.data_at);
                        self.inflight.push(InflightPrefetch {
                            line: cmd.line,
                            data_at: completion.data_at + self.cfg.transit_latency,
                        });
                        self.stats.prefetches_issued += 1;
                        self.tel.event(now, EventKind::PrefetchIssued, cmd.line, bank as u64);
                        // The next cycle is the conflict-marking cycle —
                        // but only commands already waiting can be marked
                        // (later arrivals are examined on arrival), so
                        // with every demand queue empty there is nothing
                        // to observe the newly occupied bank and the
                        // forced step would be a no-op. The hint covers
                        // everything else: the next LPQ issue through the
                        // head probe, the landing through the in-flight
                        // probe.
                        if !self.reads.is_empty() || !self.writes.is_empty() || !self.caq.is_empty()
                        {
                            return true;
                        }
                        return false;
                    }
                }
            }
        }
        if let Some(head) = self.caq.head() {
            // Second Prefetch Buffer check: the data may have arrived while
            // the Read waited in the CAQ.
            if head.kind == DramCmdKind::Read && self.pb.take_for_read(head.line) {
                self.caq.pop();
                self.stats.pb_hits_at_caq += 1;
                self.tel.event(now, EventKind::PbHit, head.line, 1);
                self.outbox.push(ReadCompletion {
                    line: head.line,
                    thread: head.thread,
                    at: now + self.cfg.pb_hit_latency,
                });
                popped_caq = true;
            } else if self.dram.can_issue_mapped(head.bank as usize, head.row, now) {
                self.caq.pop();
                let completion = self.dram.issue(head.line, head.kind, now);
                self.picker.note_issued(head.kind);
                if head.kind == DramCmdKind::Read {
                    self.outbox.push(ReadCompletion {
                        line: head.line,
                        thread: head.thread,
                        at: completion.data_at + self.cfg.transit_latency,
                    });
                }
                popped_caq = true;
            }
        }

        let promotes_unready = self.picker.kind() != SchedulerKind::Memoryless;
        (popped_caq && !self.caq.is_empty())
            || (promotes_unready
                && !self.caq.is_full()
                && (!self.reads.is_empty() || !self.writes.is_empty()))
    }

    /// The earliest future cycle at which a stalled controller could make
    /// progress: a queued command becoming issuable, an in-flight prefetch
    /// landing. Conservative (never later than the true enablement time);
    /// [`NextEvent::Idle`] when nothing is pending.
    // asd-lint: hot
    fn next_event_hint(&self, now: u64) -> NextEvent {
        let mut next = NextEvent::Idle;
        for p in &self.inflight {
            next = next.min(NextEvent::At(p.data_at.max(now + 1)));
        }
        // Issuability of reorder-queue commands gates promotion to the
        // CAQ, which cannot happen while the CAQ is full — and the cycles
        // at which the CAQ drains (its head issuing, or a buffered line
        // landing for the second PB check) are covered by the CAQ-head and
        // in-flight probes. Conflict accounting needs no wake-ups of its
        // own: commands are examined on arrival and on the step after
        // every prefetch issue. So the reorder queues only contribute
        // wake-ups while the CAQ has room.
        if !self.caq.is_full() {
            // `next_issue_at_mapped(bank, row, ..)` depends on `row` only
            // through "is it the bank's open row", so the minimum over all
            // queued commands is the minimum over (bank, row-class) pairs
            // present: classify every entry with one compare, then run the
            // timing function at most twice per bank instead of once per
            // entry. (With more banks than mask bits — never the paper's
            // machine — fall back to the per-entry walk.)
            if self.bank_prefetch_until.len() <= 64 {
                let mut hit_mask = 0u64;
                let mut miss_mask = 0u64;
                for c in self.reads.entries().iter().chain(self.writes.entries()) {
                    let b = c.bank as usize;
                    let bit = 1u64 << b;
                    let mask = if self.dram.row_hit_idx(b, c.row) {
                        &mut hit_mask
                    } else {
                        &mut miss_mask
                    };
                    if *mask & bit == 0 {
                        *mask |= bit;
                        let at = self.dram.next_issue_at_mapped(b, c.row, now);
                        next = next.min(NextEvent::At(at.max(now + 1)));
                    }
                }
            } else {
                for c in self.reads.entries().iter().chain(self.writes.entries()) {
                    let at = self.dram.next_issue_at_mapped(c.bank as usize, c.row, now);
                    next = next.min(NextEvent::At(at.max(now + 1)));
                }
            }
        }
        if let Some(head) = self.caq.head() {
            let at = self.dram.next_issue_at_mapped(head.bank as usize, head.row, now);
            next = next.min(NextEvent::At(at.max(now + 1)));
        }
        if let Some(head) = self.lpq.head() {
            // The LPQ head can only issue on a cycle where the arbiter
            // allows it, and between controller steps `allows` can only
            // flip from allowed to disallowed as time passes: every term
            // of every policy is frozen between steps (queue lengths,
            // head timestamps) except the issuable count, which only
            // grows as banks free and appears solely as `issuable == 0`.
            // So a head disallowed now stays disallowed until some other
            // event steps the controller and recomputes this hint —
            // probing its DRAM enablement time would wake the loop every
            // cycle for nothing. (A disallowed LPQ never idles the
            // controller: policy 1's "everything empty" condition is
            // cumulative into all five policies, so disallowed implies
            // another queue is non-empty and contributes its own probe.)
            let view = self.queue_view(now);
            let allowed = match &self.arbiter {
                LpqArbiter::Adaptive(s) => s.allows(view),
                LpqArbiter::Fixed(p) => p.allows(view),
            };
            if allowed {
                let at = self.dram.next_issue_at_mapped(head.bank as usize, head.row, now);
                next = next.min(NextEvent::At(at.max(now + 1)));
            }
        }
        next
    }

    /// Whether the controller still holds or expects work.
    pub fn busy(&self) -> bool {
        !self.reads.is_empty()
            || !self.writes.is_empty()
            || !self.caq.is_empty()
            || !self.lpq.is_empty()
            || !self.inflight.is_empty()
    }

    /// Counters, assembled fresh from every subcomponent.
    pub fn stats(&self) -> McStats {
        let mut s = self.stats;
        s.pb = self.pb.stats();
        if let LpqArbiter::Adaptive(sched) = &self.arbiter {
            s.sched = sched.stats();
        }
        s
    }

    /// The DRAM channel (power/energy reporting at end of run).
    pub fn dram_mut(&mut self) -> &mut Dram {
        &mut self.dram
    }

    /// The DRAM channel, read-only.
    pub fn dram(&self) -> &Dram {
        &self.dram
    }

    /// The prefetch engine (Figure 16 inspects the ASD detectors).
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// The LPQ prioritization policy currently in force.
    pub fn current_lpq_policy(&self) -> LpqPolicy {
        match &self.arbiter {
            LpqArbiter::Adaptive(s) => s.policy(),
            LpqArbiter::Fixed(p) => *p,
        }
    }
}

impl<E: PrefetchEngine> Clocked for MemoryController<E> {
    /// Event-driven stepping: performs the cycle's transitions, then
    /// reports when to step again. `now + 1` only when the next cycle is
    /// genuinely interesting (the three cases documented on the private
    /// `advance`); otherwise it jumps straight to the next enablement
    /// time; idle controllers return [`NextEvent::Idle`]. Completions
    /// accumulate internally — collect them with
    /// [`MemoryController::drain_completions`].
    fn step(&mut self, now: u64) -> NextEvent {
        if self.advance(now) {
            NextEvent::At(now + 1)
        } else if self.busy() {
            self.next_event_hint(now)
        } else {
            NextEvent::Idle
        }
    }
}

/// The DRAM-probing half of [`QueueView`]: how many queued commands could
/// issue right now.
// asd-lint: hot
fn count_issuable(q: &ReorderQueue, dram: &Dram, now: u64) -> usize {
    q.entries().iter().filter(|c| dram.can_issue_mapped(c.bank as usize, c.row, now)).count()
}

impl<E: PrefetchEngine> std::fmt::Debug for MemoryController<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryController")
            .field("reads", &self.reads.len())
            .field("writes", &self.writes.len())
            .field("caq", &self.caq.len())
            .field("lpq", &self.lpq.len())
            .field("inflight", &self.inflight.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineKind;
    use asd_core::AsdConfig;
    use asd_dram::DramConfig;

    fn controller(engine: EngineKind) -> MemoryController {
        let cfg = McConfig { engine, ..McConfig::default() };
        MemoryController::new(cfg, Dram::new(DramConfig::default()))
    }

    /// Run the controller until idle, collecting completions.
    fn drain(mc: &mut MemoryController, mut now: u64) -> (Vec<ReadCompletion>, u64) {
        let mut out = Vec::new();
        let mut guard = 0;
        while mc.busy() {
            mc.step(now, &mut out);
            now += 1;
            guard += 1;
            assert!(guard < 1_000_000, "controller wedged");
        }
        (out, now)
    }

    #[test]
    fn read_round_trip() {
        let mut mc = controller(EngineKind::None);
        assert_eq!(mc.enqueue_read(42, 0, 0), ReadResponse::Queued);
        let (done, _) = drain(&mut mc, 0);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].line, 42);
        assert!(done[0].at > 0);
    }

    #[test]
    fn writes_complete_silently() {
        let mut mc = controller(EngineKind::None);
        assert!(mc.enqueue_write(7, 0));
        let (done, _) = drain(&mut mc, 0);
        assert!(done.is_empty());
        assert_eq!(mc.dram().stats().writes, 1);
    }

    #[test]
    fn backpressure_on_full_read_queue() {
        let mut mc = controller(EngineKind::None);
        let cap = mc.config().read_queue_cap;
        let mut rejected = 0;
        // CAQ (3) also absorbs commands as steps run; enqueue without
        // stepping so the reorder queue alone takes them.
        for i in 0..cap + 3 {
            if mc.enqueue_read(1000 + i as u64 * 64, 0, 0) == ReadResponse::Rejected {
                rejected += 1;
            }
        }
        assert!(rejected >= 3);
        assert_eq!(mc.stats().read_rejects, rejected as u64);
    }

    #[test]
    fn next_line_engine_populates_prefetch_buffer() {
        let mut mc = controller(EngineKind::NextLine);
        mc.enqueue_read(100, 0, 0);
        let (_, now) = drain(&mut mc, 0);
        assert_eq!(mc.stats().prefetches_issued, 1);
        // The prefetched line (101) now satisfies a read instantly.
        match mc.enqueue_read(101, 0, now) {
            ReadResponse::Done { at } => assert_eq!(at, now + mc.config().pb_hit_latency),
            other => panic!("expected PB hit, got {other:?}"),
        }
        assert_eq!(mc.stats().pb_hits_on_arrival, 1);
    }

    #[test]
    fn merge_with_inflight_prefetch() {
        let mut mc = controller(EngineKind::NextLine);
        mc.enqueue_read(200, 0, 0);
        // Step a little: enough for the prefetch of 201 to issue but not
        // complete.
        let mut out = Vec::new();
        for now in 0..40 {
            mc.step(now, &mut out);
        }
        if mc.stats().prefetches_issued == 1 && mc.stats().pb.inserts == 0 {
            match mc.enqueue_read(201, 0, 40) {
                ReadResponse::Done { at } => assert!(at >= 40),
                other => panic!("expected merge, got {other:?}"),
            }
            assert_eq!(mc.stats().merged_with_prefetch, 1);
        }
    }

    #[test]
    fn asd_learns_and_covers_pair_workload() {
        let cfg = AsdConfig { epoch_reads: 200, ..AsdConfig::default() };
        let mut mc = controller(EngineKind::Asd(cfg));
        let mut now = 0u64;
        let mut out = Vec::new();
        let mut covered = 0u64;
        // 400 back-to-back pair streams; after the first epoch ASD should
        // prefetch the second line of each pair.
        for s in 0..400u64 {
            let base = 1_000_000 + s * 64;
            for off in 0..2u64 {
                match mc.enqueue_read(base + off, 0, now) {
                    ReadResponse::Done { .. } => covered += 1,
                    ReadResponse::Queued => {}
                    ReadResponse::Rejected => {}
                }
                // Let the controller work between reads (~600 cycles).
                for _ in 0..600 {
                    mc.step(now, &mut out);
                    now += 1;
                }
            }
        }
        assert!(mc.stats().prefetches_issued > 100, "issued {}", mc.stats().prefetches_issued);
        assert!(covered > 100, "covered {covered}");
        let useful = mc.stats().useful_prefetch_fraction();
        assert!(useful > 0.8, "useful fraction {useful}");
    }

    #[test]
    fn write_invalidates_prefetch_buffer() {
        let mut mc = controller(EngineKind::NextLine);
        mc.enqueue_read(300, 0, 0);
        let (_, now) = drain(&mut mc, 0);
        assert_eq!(mc.stats().pb.inserts, 1);
        mc.enqueue_write(301, now);
        match mc.enqueue_read(301, 0, now + 1) {
            ReadResponse::Queued => {}
            other => panic!("PB entry should be gone, got {other:?}"),
        }
        assert_eq!(mc.stats().pb.write_invalidations, 1);
    }

    #[test]
    fn redundant_candidates_filtered() {
        let mut mc = controller(EngineKind::NextLine);
        mc.enqueue_read(400, 0, 0);
        let (_, now) = drain(&mut mc, 0);
        // 401 is now in the PB; reading 400 again proposes 401 again.
        mc.enqueue_read(400, 0, now);
        assert_eq!(mc.stats().prefetch_redundant, 1);
    }

    #[test]
    fn np_controller_never_prefetches() {
        let mut mc = controller(EngineKind::None);
        for i in 0..50u64 {
            mc.enqueue_read(i, 0, i * 100);
        }
        let (_, _) = drain(&mut mc, 5000);
        assert_eq!(mc.stats().prefetches_issued, 0);
        assert_eq!(mc.stats().coverage(), 0.0);
    }

    #[test]
    fn fixed_policy_mode_reported() {
        let cfg = McConfig {
            engine: EngineKind::NextLine,
            lpq_mode: LpqMode::Fixed(LpqPolicy::LpqOlder),
            ..McConfig::default()
        };
        let mc = MemoryController::new(cfg, Dram::new(DramConfig::default()));
        assert_eq!(mc.current_lpq_policy(), LpqPolicy::LpqOlder);
    }
}
