//! Reorder-queue schedulers: which queued command moves to the CAQ.

use crate::config::SchedulerKind;
use crate::queues::ReorderQueue;
use asd_dram::{Dram, DramCmdKind};
use std::cmp::Reverse;

/// Picks the next command to promote from the reorder queues to the CAQ.
///
/// * `InOrder` — strict arrival order across both queues, regardless of
///   whether the command can issue (head-of-line blocking included); the
///   paper's weakest baseline scheduler (§5.3).
/// * `Memoryless` — oldest command whose bank/bus are ready (Hur & Lin's
///   "memoryless" scheduler).
/// * `Ahb` — Adaptive History-Based: among ready commands, prefer those
///   that hit an open row and that keep a balanced read/write mix, using a
///   short history of issued commands.
///
/// All three walk [`ReorderQueue::entries`] front to back, so index order
/// is arrival order and every tie-break below is positional.
#[derive(Debug, Clone)]
pub struct CommandPicker {
    kind: SchedulerKind,
    /// Recent command kinds, most recent last (AHB history; length 2).
    history: [Option<DramCmdKind>; 2],
}

/// Identifies which reorder queue a pick came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PickedFrom {
    /// The read reorder queue.
    Read(usize),
    /// The write reorder queue.
    Write(usize),
}

impl CommandPicker {
    /// Create a picker of the given kind.
    pub fn new(kind: SchedulerKind) -> Self {
        CommandPicker { kind, history: [None, None] }
    }

    /// The scheduler kind in force.
    pub fn kind(&self) -> SchedulerKind {
        self.kind
    }

    /// Record an issued command in the AHB history.
    pub fn note_issued(&mut self, kind: DramCmdKind) {
        self.history[0] = self.history[1];
        self.history[1] = Some(kind);
    }

    /// Choose an entry to promote to the CAQ at cycle `now`, or `None` when
    /// nothing should move. Does not remove the entry.
    pub fn pick(
        &self,
        reads: &ReorderQueue,
        writes: &ReorderQueue,
        dram: &Dram,
        now: u64,
    ) -> Option<PickedFrom> {
        match self.kind {
            SchedulerKind::InOrder => {
                // Oldest command overall, even if its bank is busy.
                let r = reads.entries().first().map(|c| c.arrival);
                let w = writes.entries().first().map(|c| c.arrival);
                match (r, w) {
                    (Some(ra), Some(wa)) => {
                        if ra <= wa {
                            Some(PickedFrom::Read(0))
                        } else {
                            Some(PickedFrom::Write(0))
                        }
                    }
                    (Some(_), None) => Some(PickedFrom::Read(0)),
                    (None, Some(_)) => Some(PickedFrom::Write(0)),
                    (None, None) => None,
                }
            }
            SchedulerKind::Memoryless => {
                // Oldest *ready* command; reads win ties (latency critical).
                let best_read = oldest_ready(reads, dram, now);
                let best_write = oldest_ready(writes, dram, now);
                match (best_read, best_write) {
                    (Some((ri, ra)), Some((_, wa))) if ra <= wa => Some(PickedFrom::Read(ri)),
                    (Some((ri, _)), None) => Some(PickedFrom::Read(ri)),
                    (_, Some((wi, _))) => Some(PickedFrom::Write(wi)),
                    (None, None) => None,
                }
            }
            SchedulerKind::Ahb => {
                // Score ready candidates: open-row hits and same-kind
                // grouping (avoids bus turnaround) score higher; reads get
                // a base bonus; oldest breaks ties.
                let last_kind = self.history[1];
                let best_read = best_scored(reads, dram, now, DramCmdKind::Read, last_kind);
                let best_write = best_scored(writes, dram, now, DramCmdKind::Write, last_kind);
                match (best_read, best_write) {
                    (Some((rs, ri)), Some((ws, _))) if rs >= ws => Some(PickedFrom::Read(ri)),
                    (Some((_, ri)), None) => Some(PickedFrom::Read(ri)),
                    (_, Some((_, wi))) => Some(PickedFrom::Write(wi)),
                    (None, None) => None,
                }
            }
        }
    }
}

/// The first (lowest-index) entry with the minimal arrival among those the
/// DRAM can issue right now: ties on arrival keep the earlier index, the
/// `min_by_key` over `(arrival, index)` the scan replaces.
// asd-lint: hot
fn oldest_ready(q: &ReorderQueue, dram: &Dram, now: u64) -> Option<(usize, u64)> {
    let mut best: Option<(usize, u64)> = None;
    for (i, c) in q.entries().iter().enumerate() {
        if dram.can_issue_mapped(c.bank as usize, c.row, now)
            && best.map_or(true, |(_, a)| c.arrival < a)
        {
            best = Some((i, c.arrival));
        }
    }
    best
}

/// The AHB-best entry of one queue: the *last* entry attaining the maximal
/// `(score, Reverse(arrival))` key — exactly what `.max()` over
/// `(key, index)` tuples selects, since the index rises monotonically and
/// breaks every key tie upward.
// asd-lint: hot
fn best_scored(
    q: &ReorderQueue,
    dram: &Dram,
    now: u64,
    kind: DramCmdKind,
    last_kind: Option<DramCmdKind>,
) -> Option<((i64, Reverse<u64>), usize)> {
    let base: i64 = i64::from(Some(kind) == last_kind) * 2 + i64::from(kind == DramCmdKind::Read);
    let mut best: Option<((i64, Reverse<u64>), usize)> = None;
    for (i, c) in q.entries().iter().enumerate() {
        let (bank_free, issuable) = dram.issue_readiness_mapped(c.bank as usize, c.row, now);
        let s = base + i64::from(bank_free) * 4 + i64::from(issuable) * 4;
        let key = (s, Reverse(c.arrival));
        if best.map_or(true, |(k, _)| key >= k) {
            best = Some((key, i));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queues::QueuedCommand;
    use asd_dram::DramConfig;

    fn cmd(line: u64, arrival: u64) -> QueuedCommand {
        let (bank, row) = DramConfig::default().map(line);
        QueuedCommand {
            line,
            bank: bank as u32,
            row,
            kind: DramCmdKind::Read,
            thread: 0,
            arrival,
            conflict_counted: false,
        }
    }

    fn setup() -> (ReorderQueue, ReorderQueue, Dram) {
        (ReorderQueue::new(8), ReorderQueue::new(8), Dram::new(DramConfig::default()))
    }

    #[test]
    fn inorder_takes_oldest_across_queues() {
        let (mut r, mut w, dram) = setup();
        r.push(cmd(1, 10));
        w.push(QueuedCommand { kind: DramCmdKind::Write, ..cmd(2, 5) });
        let p = CommandPicker::new(SchedulerKind::InOrder);
        assert_eq!(p.pick(&r, &w, &dram, 0), Some(PickedFrom::Write(0)));
    }

    #[test]
    fn inorder_blocks_on_head() {
        let (mut r, w, mut dram) = setup();
        // Make bank 0 busy.
        dram.issue(0, DramCmdKind::Read, 0);
        r.push(cmd(0, 1)); // same bank: not ready, but InOrder picks it anyway
        r.push(cmd(1, 2));
        let p = CommandPicker::new(SchedulerKind::InOrder);
        assert_eq!(p.pick(&r, &w, &dram, 5), Some(PickedFrom::Read(0)));
    }

    #[test]
    fn memoryless_skips_busy_banks() {
        let (mut r, w, mut dram) = setup();
        dram.issue(0, DramCmdKind::Read, 0); // bank 0 + bus busy for a while
        let done = dram.earliest_issue(0, 0);
        r.push(cmd(8, 1)); // bank 0: blocked
        r.push(cmd(1, 2)); // bank 1: ready once the bus frees
        let p = CommandPicker::new(SchedulerKind::Memoryless);
        // At a time when the bus is free but bank 0 still precharging,
        // memoryless must pick the bank-1 command.
        let t = done;
        if dram.can_issue(1, t) && !dram.can_issue(8, t) {
            assert_eq!(p.pick(&r, &w, &dram, t), Some(PickedFrom::Read(1)));
        }
        // With nothing ready, nothing moves.
        assert_eq!(p.pick(&r, &w, &dram, 0), None);
    }

    #[test]
    fn memoryless_ties_keep_the_earlier_entry() {
        let (mut r, w, dram) = setup();
        r.push(cmd(1, 5));
        r.push(cmd(2, 5)); // same arrival, later index
        let p = CommandPicker::new(SchedulerKind::Memoryless);
        assert_eq!(p.pick(&r, &w, &dram, 0), Some(PickedFrom::Read(0)));
    }

    #[test]
    fn ahb_prefers_ready_over_old() {
        let (mut r, w, mut dram) = setup();
        dram.issue(0, DramCmdKind::Read, 0);
        r.push(cmd(8, 1)); // older, bank 0 busy
        r.push(cmd(3, 2)); // younger, bank 3 free
        let p = CommandPicker::new(SchedulerKind::Ahb);
        // While bank 0 is busy the ready command wins despite age.
        assert_eq!(p.pick(&r, &w, &dram, 1), Some(PickedFrom::Read(1)));
    }

    #[test]
    fn ahb_groups_same_kind() {
        let (mut r, mut w, dram) = setup();
        r.push(cmd(1, 5));
        w.push(QueuedCommand { kind: DramCmdKind::Write, ..cmd(2, 5) });
        let mut p = CommandPicker::new(SchedulerKind::Ahb);
        p.note_issued(DramCmdKind::Write);
        // Write gets +2 same-kind, read gets +1 read bonus: write wins.
        assert_eq!(p.pick(&r, &w, &dram, 0), Some(PickedFrom::Write(0)));
    }

    #[test]
    fn ahb_ties_keep_the_later_entry() {
        // Identical (score, arrival) keys: the dense scan must preserve
        // the `.max()`-over-(key, index) semantics, where the higher
        // index wins the tie.
        let (mut r, w, dram) = setup();
        r.push(cmd(1, 5)); // bank 1
        r.push(cmd(2, 5)); // bank 2: same score, same arrival
        let p = CommandPicker::new(SchedulerKind::Ahb);
        assert_eq!(p.pick(&r, &w, &dram, 0), Some(PickedFrom::Read(1)));
    }

    #[test]
    fn empty_queues_pick_nothing() {
        let (r, w, dram) = setup();
        for kind in [SchedulerKind::InOrder, SchedulerKind::Memoryless, SchedulerKind::Ahb] {
            assert_eq!(CommandPicker::new(kind).pick(&r, &w, &dram, 0), None);
        }
    }
}
