//! The trace memo of one [`Pipeline`](crate::pipeline::Pipeline) run.
//!
//! Runs that differ only in system configuration — the four-way
//! comparisons, the MC/PB/filter sweeps, the arena's engine columns — read
//! the same generated per-thread trace. Before its workers start, a
//! pipeline run registers each node that generates its accesses as a
//! *reader* of its threads' traces, keyed by `(plan, profile, seed,
//! thread, accesses)`, where `plan` is the node's owning plan: the first
//! plan that submitted it. The first reader to run generates a trace,
//! packed 8 bytes per access ([`PackedAccess`]), while concurrent readers
//! of the same key wait for it; each reader's stream holds an `Arc` to the
//! records; and the last reader to finish drops the memo's entry, which
//! frees them. A trace therefore lives from its plan's first reader's
//! start to that plan's last reader's end, not to the end of the run, and
//! a later plan that reads it generates it again. The catalog's plans list
//! their jobs one profile at a time, so a worker holds only the traces of
//! the profile it is on, and one worker holds one node's traces at once.
//! Replaying the records is bit-identical to generating, because the memo
//! stores exactly what the generator yields.
//!
//! The memo belongs to the run, so nothing outlives it: `System::new`
//! outside a pipeline streams straight from the generator, and a daemon
//! keeps no trace between jobs.

use crate::config::{RunOpts, SystemConfig};
use crate::source::{thread_generator, ResolvedTrace, TraceSource, TraceStream};
use asd_trace::{suites, PackedAccess, WorkloadProfile};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// One trace's cell: empty until its first reader has generated it, then
/// the packed records, or `None` when some access did not pack.
type Cell = Arc<OnceLock<Option<Arc<[PackedAccess]>>>>;

/// What one trace is generated from.
struct Spec {
    profile: WorkloadProfile,
    seed: u64,
    thread: u8,
    accesses: u64,
}

/// A trace's readers still to finish, and its cell until the last of them
/// has.
struct Slot {
    readers: usize,
    cell: Option<Cell>,
}

/// The memo's mutable state: one slot per trace, and the bytes of packed
/// records held now and at most.
#[derive(Default)]
struct Held {
    slots: Vec<Slot>,
    bytes: usize,
    peak: usize,
}

/// The traces one pipeline run's nodes read, each freed after its last
/// reader. See the module docs.
#[derive(Default)]
pub(crate) struct TraceMemo {
    ids: BTreeMap<String, usize>,
    specs: Vec<Spec>,
    held: Mutex<Held>,
    generated: AtomicU64,
    served: AtomicU64,
}

impl TraceMemo {
    /// Register a run of `profile` under `cfg` and `opts`, owned by plan
    /// `plan`, as a reader of each of its threads' traces, and return
    /// their ids in thread order. A run reads nothing here when its
    /// accesses come from a file (or a source naming no profile, which
    /// fails when the run resolves it).
    pub(crate) fn register(
        &mut self,
        plan: usize,
        cfg: &SystemConfig,
        profile: &WorkloadProfile,
        opts: &RunOpts,
    ) -> Vec<usize> {
        let (profile, seed) = match &cfg.trace {
            None => (profile.clone(), opts.seed),
            Some(TraceSource::Generate { profile, seed }) => match suites::by_name(profile) {
                Some(p) => (p, *seed),
                None => return Vec::new(),
            },
            Some(_) => return Vec::new(),
        };
        let threads: u8 = if opts.smt { 2 } else { 1 };
        (0..threads).map(|t| self.add_reader(plan, &profile, seed, t, opts.accesses)).collect()
    }

    /// Count one more reader, in plan `plan`, of the trace of `thread`
    /// under `(profile, seed, accesses)`, and return its id.
    pub(crate) fn add_reader(
        &mut self,
        plan: usize,
        profile: &WorkloadProfile,
        seed: u64,
        thread: u8,
        accesses: u64,
    ) -> usize {
        let next = self.specs.len();
        let key = format!("{plan}|{profile:?}|{seed}|{thread}|{accesses}");
        let id = *self.ids.entry(key).or_insert(next);
        let held = self.held.get_mut().unwrap_or_else(PoisonError::into_inner);
        if id == next {
            self.specs.push(Spec { profile: profile.clone(), seed, thread, accesses });
            held.slots.push(Slot { readers: 0, cell: Some(Cell::default()) });
        }
        held.slots[id].readers += 1;
        id
    }

    fn lock(&self) -> MutexGuard<'_, Held> {
        // A poisoned memo means a sibling worker panicked mid-run, and the
        // scope re-raises that panic; the counts stay usable until then.
        self.held.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The records of trace `id`: the first call generates them, outside
    /// the lock, and counts a generation; a concurrent call waits for it
    /// rather than generate them again, and each later call the memo
    /// serves counts one served. `None` when an access did not pack, or
    /// when every registered reader has released the trace already; the
    /// caller then streams from the generator.
    pub(crate) fn records(&self, id: usize) -> Option<Arc<[PackedAccess]>> {
        let cell = self.lock().slots[id].cell.clone()?;
        let mut generated = false;
        let records = cell
            .get_or_init(|| {
                generated = true;
                let spec = &self.specs[id];
                let gen = thread_generator(&spec.profile, spec.seed, spec.thread);
                gen.take(spec.accesses as usize).map(|a| PackedAccess::pack(&a)).collect()
            })
            .clone();
        if generated {
            self.generated.fetch_add(1, Ordering::Relaxed);
            let mut held = self.lock();
            held.bytes += records.as_deref().map_or(0, std::mem::size_of_val);
            held.peak = held.peak.max(held.bytes);
        } else if records.is_some() {
            self.served.fetch_add(1, Ordering::Relaxed);
        }
        records
    }

    /// A reader's streams, one per id in thread order: the memoized
    /// records, or the generator itself where they are not memoized.
    /// `ids` must not be empty.
    pub(crate) fn resolve(&self, ids: &[usize]) -> ResolvedTrace {
        let streams = ids
            .iter()
            .map(|&id| {
                let spec = &self.specs[id];
                match self.records(id) {
                    Some(records) => TraceStream::packed(records, spec.thread),
                    None => TraceStream::generated(
                        thread_generator(&spec.profile, spec.seed, spec.thread),
                        spec.accesses,
                    ),
                }
            })
            .collect();
        let benchmark = ids.first().map(|&id| self.specs[id].profile.name.clone());
        ResolvedTrace { benchmark: benchmark.unwrap_or_default(), streams }
    }

    /// One reader of trace `id` has finished, whether it read the trace,
    /// was served by the run cache, or failed first. The last one drops
    /// the memo's entry, freeing the records once no stream holds them.
    pub(crate) fn release(&self, id: usize) {
        let freed = {
            let mut held = self.lock();
            let slot = &mut held.slots[id];
            slot.readers = slot.readers.saturating_sub(1);
            if slot.readers > 0 {
                return;
            }
            let freed = slot.cell.take();
            let bytes = freed
                .as_ref()
                .and_then(|cell| cell.get())
                .and_then(Option::as_deref)
                .map_or(0, std::mem::size_of_val);
            held.bytes -= bytes;
            freed
        };
        // Free the records outside the lock.
        drop(freed);
    }

    /// `(generated, served, peak bytes)`: traces generated, reads served
    /// without generating, and the most bytes of records held at once.
    pub(crate) fn stats(&self) -> (u64, u64, usize) {
        (
            self.generated.load(Ordering::Relaxed),
            self.served.load(Ordering::Relaxed),
            self.lock().peak,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asd_trace::MemAccess;

    fn milc() -> WorkloadProfile {
        suites::by_name("milc").expect("suite profile")
    }

    /// A memo with `readers` readers of thread `thread`'s trace of
    /// `profile` under seed `0x5eed`; returns the memo and the trace's id.
    fn memo_of(
        profile: &WorkloadProfile,
        thread: u8,
        accesses: u64,
        readers: usize,
    ) -> (TraceMemo, usize) {
        let mut memo = TraceMemo::default();
        let ids: Vec<usize> =
            (0..readers).map(|_| memo.add_reader(0, profile, 0x5eed, thread, accesses)).collect();
        assert!(ids.iter().all(|&id| id == ids[0]), "one key, one id");
        (memo, ids[0])
    }

    #[test]
    fn concurrent_requests_generate_a_trace_once() {
        let (memo, id) = memo_of(&milc(), 0, 20_000, 4);
        let barrier = std::sync::Barrier::new(4);
        let traces: Vec<Arc<[PackedAccess]>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        memo.records(id).expect("suite traces pack")
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().expect("worker panicked")).collect()
        });
        let (generated, served, _) = memo.stats();
        assert_eq!((served, generated), (3, 1), "one request generates, three are served");
        assert!(traces.iter().all(|t| Arc::ptr_eq(t, &traces[0])), "one shared trace");
    }

    #[test]
    fn memoized_trace_holds_eight_bytes_per_access() {
        let (memo, id) = memo_of(&milc(), 0, 100_000, 1);
        let records = memo.records(id).expect("suite traces pack");
        assert_eq!(std::mem::size_of_val(&*records), 800_000);
        assert_eq!(memo.stats(), (1, 0, 800_000));
    }

    #[test]
    fn a_trace_that_does_not_pack_is_not_memoized() {
        // Lines up to 2^45 overflow the packed record's 44-bit line field.
        let wide = WorkloadProfile { name: "wide".into(), footprint_lines: 1 << 45, ..milc() };
        let (memo, id) = memo_of(&wide, 0, 5_000, 2);
        assert!(memo.records(id).is_none());
        assert!(memo.records(id).is_none());
        // Generated (and abandoned) once, never served, never held.
        assert_eq!(memo.stats(), (1, 0, 0));
        // Its readers stream from the generator instead.
        let streamed: Vec<MemAccess> = memo.resolve(&[id]).streams.into_iter().flatten().collect();
        assert!(streamed == thread_generator(&wide, 0x5eed, 0).generate(5_000));
    }

    #[test]
    fn a_trace_is_freed_after_its_last_reader() {
        let (memo, id) = memo_of(&milc(), 0, 10_000, 2);
        let weak = Arc::downgrade(&memo.records(id).expect("suite traces pack"));
        memo.release(id);
        assert!(weak.upgrade().is_some(), "one reader left: the trace stays");
        assert!(memo.records(id).is_some(), "the second reader is served");
        memo.release(id);
        assert!(weak.upgrade().is_none(), "the last reader freed the trace");
        assert_eq!(memo.stats(), (1, 1, 80_000));
        // A read past the registered readers streams from the generator.
        assert!(memo.records(id).is_none());
    }
}
