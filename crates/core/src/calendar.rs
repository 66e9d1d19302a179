//! The completion queue of the simulation kernel.
//!
//! The kernel's completion queues hold a handful of events: no replay job
//! measured ever had more than 7 pending at once. At that size a vector
//! kept sorted by `(at, key, tag)` is cheap: `push` binary-searches its
//! slot and inserts there, shifting a few words, and
//! [`CalendarQueue::drain_due`] takes the due events off the front. The
//! queue needs no horizon: construction reserves a few slots, and a queue
//! that outgrows them grows like any `Vec`, correct at any size.
//!
//! Ordering contract: [`CalendarQueue::drain_due`] yields events in
//! ascending `(at, key, tag)` order — bit-identical to popping a
//! `BinaryHeap<Reverse<(u64, u64, u8)>>` of the same entries, which is the
//! order the event loops were built on. `tests/` and the sim crate's
//! equivalence suite pin this.

/// One queued event: `(at, key, tag)`; `key`/`tag` are payload (cache line
/// and hardware thread in the kernel's queues) and tie-break the order of
/// events due on the same cycle.
type Event = (u64, u64, u8);

/// Pending slots reserved at construction, above the deepest completion
/// queue measured.
const RESERVED: usize = 16;

/// A queue of `(at, key, tag)` events, kept sorted ascending.
#[derive(Debug, Clone)]
pub struct CalendarQueue {
    /// Pending events in ascending `(at, key, tag)` order.
    events: Vec<Event>,
}

impl Default for CalendarQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl CalendarQueue {
    /// An empty queue with room for a few pending events.
    pub fn new() -> Self {
        CalendarQueue { events: Vec::with_capacity(RESERVED) }
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are queued.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The earliest queued timestamp.
    pub fn peek(&self) -> Option<u64> {
        self.events.first().map(|e| e.0)
    }

    /// Queue an event after every event that orders at or before it.
    // asd-lint: hot
    pub fn push(&mut self, at: u64, key: u64, tag: u8) {
        let ev = (at, key, tag);
        let slot = self.events.partition_point(|&e| e <= ev);
        self.events.insert(slot, ev);
    }

    /// Remove every event with `at <= now`, appending them to `out` in
    /// ascending `(at, key, tag)` order.
    // asd-lint: hot
    pub fn drain_due(&mut self, now: u64, out: &mut Vec<Event>) {
        let due = self.events.partition_point(|e| e.0 <= now);
        out.extend(self.events.drain(..due));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    impl CalendarQueue {
        /// The timing wheel's constructor, which these tests were written
        /// against. The sorted queue needs no horizon.
        fn with_horizon(_horizon: u64) -> Self {
            Self::new()
        }
    }

    /// Deterministic pseudo-random stream (no external crates, fixed seed).
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            self.0 >> 33
        }
    }

    #[test]
    fn empty_queue_behaves() {
        let mut q = CalendarQueue::with_horizon(256);
        assert!(q.is_empty());
        assert_eq!(q.peek(), None);
        let mut out = Vec::new();
        q.drain_due(1_000, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn single_event_round_trip() {
        let mut q = CalendarQueue::with_horizon(256);
        q.push(42, 7, 1);
        assert_eq!(q.peek(), Some(42));
        let mut out = Vec::new();
        q.drain_due(41, &mut out);
        assert!(out.is_empty(), "not due yet");
        q.drain_due(42, &mut out);
        assert_eq!(out, vec![(42, 7, 1)]);
        assert!(q.is_empty());
    }

    #[test]
    fn same_cycle_ties_break_by_key_then_tag() {
        let mut q = CalendarQueue::with_horizon(64);
        q.push(5, 30, 1);
        q.push(5, 10, 2);
        q.push(5, 10, 0);
        q.push(5, 20, 0);
        let mut out = Vec::new();
        q.drain_due(5, &mut out);
        assert_eq!(out, vec![(5, 10, 0), (5, 10, 2), (5, 20, 0), (5, 30, 1)]);
    }

    #[test]
    fn matches_binary_heap_order_on_random_workload() {
        // Property check: interleaved pushes and drains produce exactly
        // the pop order of BinaryHeap<Reverse<(at, key, tag)>>.
        let mut rng = Lcg(0x5eed_cafe);
        let mut wheel = CalendarQueue::with_horizon(300);
        let mut heap: BinaryHeap<Reverse<(u64, u64, u8)>> = BinaryHeap::new();
        let mut now = 0u64;
        let mut wheel_out = Vec::new();
        for _ in 0..5_000 {
            for _ in 0..(rng.next() % 4) {
                let at = now + rng.next() % 290;
                let key = rng.next() % 8; // force same-cycle collisions
                let tag = (rng.next() % 3) as u8;
                wheel.push(at, key, tag);
                heap.push(Reverse((at, key, tag)));
            }
            now += rng.next() % 40;
            wheel_out.clear();
            wheel.drain_due(now, &mut wheel_out);
            let mut heap_out = Vec::new();
            while let Some(&Reverse(ev)) = heap.peek() {
                if ev.0 > now {
                    break;
                }
                heap.pop();
                heap_out.push(ev);
            }
            assert_eq!(wheel_out, heap_out, "divergence at cycle {now}");
            assert_eq!(wheel.len(), heap.len());
            assert_eq!(wheel.peek(), heap.peek().map(|&Reverse((at, _, _))| at));
        }
    }

    #[test]
    fn grows_past_configured_horizon() {
        let mut q = CalendarQueue::with_horizon(32);
        q.push(10, 1, 0);
        q.push(10_000, 2, 0); // far beyond the horizon: forces a grow
        q.push(500, 3, 0);
        assert_eq!(q.peek(), Some(10));
        let mut out = Vec::new();
        q.drain_due(20_000, &mut out);
        assert_eq!(out, vec![(10, 1, 0), (500, 3, 0), (10_000, 2, 0)]);
    }

    #[test]
    fn floor_tracks_across_refills() {
        let mut q = CalendarQueue::with_horizon(128);
        q.push(100, 1, 0);
        let mut out = Vec::new();
        q.drain_due(100, &mut out);
        assert!(q.is_empty());
        q.push(90, 2, 0); // earlier than the drained event: must still work
        assert_eq!(q.peek(), Some(90));
        out.clear();
        q.drain_due(95, &mut out);
        assert_eq!(out, vec![(90, 2, 0)]);
    }

    #[test]
    fn holds_hundreds_of_pending_events_with_ties() {
        // 300 pending events, about six per cycle with repeated keys,
        // pushed in scrambled order and drained in three slices: the
        // queue's order must not rest on it staying small.
        let mut rng = Lcg(0x0dd_ba11);
        let mut q = CalendarQueue::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64, u8)>> = BinaryHeap::new();
        for _ in 0..300 {
            let at = 1_000 + rng.next() % 50;
            let key = rng.next() % 4;
            let tag = (rng.next() % 2) as u8;
            q.push(at, key, tag);
            heap.push(Reverse((at, key, tag)));
        }
        assert_eq!(q.len(), 300);
        let mut out = Vec::new();
        for now in [1_010, 1_030, 1_049] {
            q.drain_due(now, &mut out);
            assert_eq!(q.peek(), heap.iter().map(|&Reverse(e)| e.0).filter(|&at| at > now).min());
        }
        assert!(q.is_empty());
        let expect: Vec<_> = std::iter::from_fn(|| heap.pop().map(|Reverse(e)| e)).collect();
        assert_eq!(out, expect);
        assert!(out.windows(2).any(|w| w[0] == w[1]), "duplicate events kept");
    }
}
