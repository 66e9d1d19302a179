//! Reorder queues, CAQ, and LPQ.
//!
//! Both queue types store whole [`QueuedCommand`]s, 32 bytes each, in one
//! array, and every scan walks that one slice. At the paper's depths (CAQ
//! and LPQ 3, reorder queues 8) a whole queue spans one to four cache
//! lines, so scans read little in any layout; what the layout decides is
//! the cost of a push, pop or removal, which here moves one struct instead
//! of gathering or scattering one array per field (see DESIGN.md, "Data
//! layout").

use asd_dram::DramCmdKind;

/// Who produced a command (statistics and conflict attribution).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmdOrigin {
    /// Demand read or write from a core (includes processor-side
    /// prefetches, which "appear in the memory controller indistinguishable
    /// from any other command").
    Regular,
    /// Memory-side prefetch from the LPQ.
    MsPrefetch,
}

/// A command resident in one of the controller's queues.
///
/// The DRAM coordinates of the target line are computed once on entry
/// (`bank`/`row`) so the per-cycle scheduler and conflict scans probe bank
/// state directly instead of re-dividing the line address each time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuedCommand {
    /// Target cache line.
    pub line: u64,
    /// DRAM bank the line maps to (cached from `Dram::map_line`).
    pub bank: u32,
    /// DRAM row the line maps to (cached from `Dram::map_line`).
    pub row: u64,
    /// Read or write.
    pub kind: DramCmdKind,
    /// Issuing hardware thread (reads only; writes carry 0).
    pub thread: u8,
    /// Cycle the command entered the controller.
    pub arrival: u64,
    /// Whether a blocked-by-prefetch conflict has already been counted for
    /// this command (each command contributes at most one conflict event).
    pub conflict_counted: bool,
}

/// An unoccupied ring slot (never observed: only `len` slots are live).
const VACANT: QueuedCommand = QueuedCommand {
    line: 0,
    bank: 0,
    row: 0,
    kind: DramCmdKind::Read,
    thread: 0,
    arrival: 0,
    conflict_counted: false,
};

/// A bounded FIFO used for the CAQ and LPQ: a fixed-capacity ring buffer
/// of commands over power-of-two storage.
///
/// Indices advance with a single mask (`(head + k) & mask`), storage is
/// allocated once at construction and never reallocated, and FIFO order is
/// the logical order `head, head+1, ..., head+len-1` (mod storage). The
/// only order-disturbing operation, [`BoundedFifo::remove_line`], closes
/// the gap by shifting younger entries back one slot, preserving the
/// arrival order of everything that stays.
#[derive(Debug, Clone)]
pub struct BoundedFifo {
    slots: Box<[QueuedCommand]>,
    /// Physical index of the oldest entry.
    head: usize,
    /// Logical occupancy (`<= cap`).
    len: usize,
    /// Logical capacity (the configured queue depth, not the storage size).
    cap: usize,
    /// Storage size minus one; storage is `cap.next_power_of_two()`.
    mask: usize,
}

impl BoundedFifo {
    /// An empty FIFO with the given capacity. Storage is rounded up to the
    /// next power of two so every index computation is one AND.
    pub fn new(cap: usize) -> Self {
        let storage = cap.max(1).next_power_of_two();
        BoundedFifo {
            slots: vec![VACANT; storage].into_boxed_slice(),
            head: 0,
            len: 0,
            cap,
            mask: storage - 1,
        }
    }

    /// Physical slot of logical position `k` (0 = oldest).
    #[inline]
    fn slot(&self, k: usize) -> usize {
        (self.head + k) & self.mask
    }

    /// Push to the back; returns `false` (rejecting the item) when full.
    pub fn push(&mut self, cmd: QueuedCommand) -> bool {
        if self.len >= self.cap {
            return false;
        }
        let i = self.slot(self.len);
        self.slots[i] = cmd;
        self.len += 1;
        true
    }

    /// The oldest entry.
    #[inline]
    pub fn head(&self) -> Option<QueuedCommand> {
        if self.len == 0 {
            None
        } else {
            Some(self.slots[self.head])
        }
    }

    /// The oldest entry, mutably (the conflict scan marks it counted).
    pub fn head_mut(&mut self) -> Option<&mut QueuedCommand> {
        if self.len == 0 {
            None
        } else {
            Some(&mut self.slots[self.head])
        }
    }

    /// Remove and return the oldest entry.
    pub fn pop(&mut self) -> Option<QueuedCommand> {
        let cmd = self.head()?;
        self.head = (self.head + 1) & self.mask;
        self.len -= 1;
        Some(cmd)
    }

    /// Occupancy.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the FIFO is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the FIFO is at capacity.
    pub fn is_full(&self) -> bool {
        self.len >= self.cap
    }

    /// Capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Whether any entry targets `line`.
    pub fn contains_line(&self, line: u64) -> bool {
        (0..self.len).any(|k| self.slots[self.slot(k)].line == line)
    }

    /// Remove the first (oldest) entry targeting `line`, if any. Younger
    /// entries shift back one slot, so FIFO order is preserved.
    pub fn remove_line(&mut self, line: u64) -> Option<QueuedCommand> {
        let pos = (0..self.len).find(|&k| self.slots[self.slot(k)].line == line)?;
        let removed = self.slots[self.slot(pos)];
        for k in pos..self.len - 1 {
            let (to, from) = (self.slot(k), self.slot(k + 1));
            self.slots[to] = self.slots[from];
        }
        self.len -= 1;
        Some(removed)
    }

    /// Iterate entries oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = QueuedCommand> + '_ {
        (0..self.len).map(|k| self.slots[self.slot(k)])
    }
}

/// An unbounded-order (but bounded-size) reorder queue: the scheduler may
/// pick any entry, not just the head.
///
/// Entries are stored in arrival order and removal is order-preserving
/// (`Vec::remove`). The scheduler, hint and conflict scans walk
/// [`ReorderQueue::entries`] front to back, so index order is arrival
/// order in every tie-break.
#[derive(Debug, Clone)]
pub struct ReorderQueue {
    entries: Vec<QueuedCommand>,
    cap: usize,
}

impl ReorderQueue {
    /// An empty queue with the given capacity.
    pub fn new(cap: usize) -> Self {
        ReorderQueue { entries: Vec::with_capacity(cap), cap }
    }

    /// Insert; returns `false` when full.
    pub fn push(&mut self, cmd: QueuedCommand) -> bool {
        if self.entries.len() >= self.cap {
            return false;
        }
        self.entries.push(cmd);
        true
    }

    /// Remove and return the entry at `idx` (order-preserving).
    pub fn remove(&mut self, idx: usize) -> QueuedCommand {
        self.entries.remove(idx)
    }

    /// The queued commands, in arrival order.
    #[inline]
    pub fn entries(&self) -> &[QueuedCommand] {
        &self.entries
    }

    /// Occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the queue is at capacity.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.cap
    }

    /// Whether any entry targets `line`.
    pub fn contains_line(&self, line: u64) -> bool {
        self.entries.iter().any(|c| c.line == line)
    }

    /// Mark (at most once per entry) commands whose bank is occupied by a
    /// previously issued prefetch, calling `on_conflict(bank)` for each
    /// newly marked entry. Returns the number of new conflicts.
    pub fn mark_new_conflicts(
        &mut self,
        bank_prefetch_until: &[u64],
        now: u64,
        mut on_conflict: impl FnMut(u32),
    ) -> u64 {
        let mut conflicts = 0u64;
        for cmd in &mut self.entries {
            if !cmd.conflict_counted && bank_prefetch_until[cmd.bank as usize] > now {
                cmd.conflict_counted = true;
                conflicts += 1;
                on_conflict(cmd.bank);
            }
        }
        conflicts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asd_core::rng::Xoshiro256PlusPlus;
    use std::collections::VecDeque;

    fn cmd(line: u64, arrival: u64) -> QueuedCommand {
        QueuedCommand {
            line,
            bank: 0,
            row: 0,
            kind: DramCmdKind::Read,
            thread: 0,
            arrival,
            conflict_counted: false,
        }
    }

    #[test]
    fn fifo_order_and_capacity() {
        let mut f = BoundedFifo::new(2);
        assert!(f.push(cmd(1, 0)));
        assert!(f.push(cmd(2, 1)));
        assert!(!f.push(cmd(3, 2)), "full");
        assert!(f.is_full());
        assert_eq!(f.pop().unwrap().line, 1);
        assert_eq!(f.head().unwrap().line, 2);
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn fifo_contains_line() {
        let mut f = BoundedFifo::new(3);
        f.push(cmd(9, 0));
        assert!(f.contains_line(9));
        assert!(!f.contains_line(8));
    }

    #[test]
    fn fifo_wraps_around_storage() {
        // Capacity 3 rides on power-of-two storage (4); cycling pushes and
        // pops far past the storage size must keep strict FIFO order.
        let mut f = BoundedFifo::new(3);
        let mut next_in = 0u64;
        let mut next_out = 0u64;
        for _ in 0..50 {
            while f.push(cmd(next_in, next_in)) {
                next_in += 1;
            }
            assert_eq!(f.len(), 3);
            assert_eq!(f.pop().unwrap().line, next_out);
            assert_eq!(f.pop().unwrap().line, next_out + 1);
            next_out += 2;
            assert_eq!(f.head().unwrap().line, next_out);
        }
    }

    #[test]
    fn fifo_remove_line_preserves_order() {
        let mut f = BoundedFifo::new(4);
        for i in 0..4 {
            f.push(cmd(i, i));
        }
        // Remove from the middle; survivors keep their relative order.
        assert_eq!(f.remove_line(1).unwrap().arrival, 1);
        assert_eq!(f.remove_line(7), None);
        let left: Vec<u64> = f.iter().map(|c| c.line).collect();
        assert_eq!(left, vec![0, 2, 3]);
        // Removal frees a slot immediately.
        assert!(f.push(cmd(9, 9)));
        assert_eq!(f.iter().map(|c| c.line).collect::<Vec<_>>(), vec![0, 2, 3, 9]);
    }

    #[test]
    fn fifo_round_trips_all_fields() {
        let mut f = BoundedFifo::new(2);
        let c = QueuedCommand {
            line: 0xabcd,
            bank: 7,
            row: 0x123,
            kind: DramCmdKind::Write,
            thread: 3,
            arrival: 99,
            conflict_counted: true,
        };
        f.push(c);
        assert_eq!(f.head(), Some(c));
        assert_eq!(f.pop(), Some(c));
        assert_eq!(f.pop(), None);
    }

    /// A random command on one of `lines` distinct lines, so pushes
    /// collide and `remove_line`/`contains_line` hit often.
    fn random_cmd(rng: &mut Xoshiro256PlusPlus, lines: u64, arrival: u64) -> QueuedCommand {
        let kind = if rng.next_u64() & 1 == 0 { DramCmdKind::Read } else { DramCmdKind::Write };
        QueuedCommand {
            line: rng.gen_range_u64(0, lines),
            bank: rng.gen_range_u64(0, 16) as u32,
            row: rng.next_u64(),
            kind,
            thread: rng.gen_range_u64(0, 2) as u8,
            arrival,
            conflict_counted: rng.next_u64() & 1 == 0,
        }
    }

    #[test]
    fn fifo_matches_a_vecdeque_model() {
        // Capacities 3, 5, 6 and 7 ride on rounded-up storage; every
        // return value and the whole FIFO order are compared after each
        // operation, long enough for `head` to wrap many times.
        for cap in 1..=8usize {
            let mut rng = Xoshiro256PlusPlus::seed_from_u64(0xf1f0 + cap as u64);
            let mut f = BoundedFifo::new(cap);
            let mut model: VecDeque<QueuedCommand> = VecDeque::new();
            let (mut wraps, mut wrapped_removals) = (0u64, 0u64);
            for step in 0..20_000u64 {
                let line = rng.gen_range_u64(0, 6);
                match rng.gen_range_u64(0, 6) {
                    0 | 1 => {
                        let cmd = random_cmd(&mut rng, 6, step);
                        let fits = model.len() < cap;
                        if fits {
                            model.push_back(cmd);
                        }
                        assert_eq!(f.push(cmd), fits);
                    }
                    2 => {
                        // Popping the last physical slot wraps `head` to 0.
                        wraps += u64::from(!f.is_empty() && f.head == f.mask);
                        assert_eq!(f.pop(), model.pop_front());
                    }
                    3 => {
                        // A live range that runs off the end of storage.
                        let wrapped = f.head + f.len > f.mask + 1;
                        let expect = model.iter().position(|c| c.line == line);
                        let expect = expect.and_then(|pos| model.remove(pos));
                        wrapped_removals += u64::from(wrapped && expect.is_some());
                        assert_eq!(f.remove_line(line), expect);
                    }
                    4 => {
                        if let Some(c) = model.front_mut() {
                            c.conflict_counted = true;
                        }
                        if let Some(c) = f.head_mut() {
                            c.conflict_counted = true;
                        }
                    }
                    _ => assert_eq!(f.contains_line(line), model.iter().any(|c| c.line == line)),
                }
                assert_eq!(f.head(), model.front().copied());
                assert_eq!(f.len(), model.len());
                assert_eq!(f.is_empty(), model.is_empty());
                assert_eq!(f.is_full(), model.len() == cap);
                assert!(f.iter().eq(model.iter().copied()), "cap {cap}, step {step}");
            }
            assert!(wraps > 100, "cap {cap}: head wrapped only {wraps} times");
            if cap > 1 {
                assert!(wrapped_removals > 0, "cap {cap}: no removal from a wrapped range");
            }
        }
    }

    #[test]
    fn reorder_queue_removal_by_index() {
        let mut q = ReorderQueue::new(4);
        q.push(cmd(1, 0));
        q.push(cmd(2, 1));
        q.push(cmd(3, 2));
        let removed = q.remove(1);
        assert_eq!(removed.line, 2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.entries()[0].line, 1);
        assert_eq!(q.entries()[1].line, 3);
    }

    #[test]
    fn reorder_queue_rejects_when_full() {
        let mut q = ReorderQueue::new(1);
        assert!(q.push(cmd(1, 0)));
        assert!(!q.push(cmd(2, 1)));
        assert!(q.is_full());
    }

    #[test]
    fn reorder_queue_round_trips_all_fields() {
        let mut q = ReorderQueue::new(2);
        let c = QueuedCommand {
            line: 42,
            bank: 5,
            row: 77,
            kind: DramCmdKind::Write,
            thread: 1,
            arrival: 1234,
            conflict_counted: false,
        };
        q.push(c);
        assert_eq!(q.entries(), &[c]);
        assert_eq!(q.remove(0), c);
        assert!(q.is_empty());
    }

    #[test]
    fn reorder_queue_marks_conflicts_once() {
        let mut q = ReorderQueue::new(4);
        q.push(QueuedCommand { bank: 0, ..cmd(1, 0) });
        q.push(QueuedCommand { bank: 1, ..cmd(2, 1) });
        let until = vec![10u64, 0]; // bank 0 busy until cycle 10
        let mut seen = Vec::new();
        let n = q.mark_new_conflicts(&until, 5, |b| seen.push(b));
        assert_eq!(n, 1);
        assert_eq!(seen, vec![0]);
        // Already counted: scanning again finds nothing new.
        assert_eq!(q.mark_new_conflicts(&until, 5, |b| seen.push(b)), 0);
        assert_eq!(seen, vec![0]);
    }
}
