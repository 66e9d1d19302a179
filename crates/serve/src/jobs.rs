//! The job table: a bounded FIFO queue of submitted specs plus the
//! lifecycle state every connection handler reads.
//!
//! One executor thread claims jobs with [`JobTable::claim_next`]
//! (blocking); handler threads submit, poll, watch (blocking on the
//! same condvar), and cancel. The queue depth is capped — a submit
//! beyond the cap returns the typed [`ServeError::Busy`] rejection
//! instead of growing without bound — and [`JobTable::begin_shutdown`]
//! flips the table into draining mode: new submissions are refused with
//! [`ServeError::ShuttingDown`] while queued and running jobs complete.

use crate::error::ServeError;
use crate::proto::JobSpec;
use asd_bench::json::Value;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Condvar, Mutex, MutexGuard};

/// Where a job is in its life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for the executor.
    Queued,
    /// The executor is running it.
    Running,
    /// Finished with a result document.
    Done,
    /// Finished with an error.
    Failed,
    /// Cancelled while queued (running jobs finish their sweep; their
    /// result is then discarded).
    Cancelled,
}

impl JobState {
    /// Wire name of the state.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Whether the job will never change state again.
    pub fn terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Failed | JobState::Cancelled)
    }
}

/// A point-in-time copy of one job's externally visible state.
#[derive(Debug, Clone)]
pub struct JobSnapshot {
    /// The id issued at submit time.
    pub id: u64,
    /// Lifecycle state.
    pub state: JobState,
    /// Completed simulation runs.
    pub done: usize,
    /// Total simulation runs (progress denominator).
    pub total: usize,
    /// The result document, present when `state == Done`.
    pub result: Option<Value>,
    /// The failure, present when `state == Failed`.
    pub error: Option<ServeError>,
}

struct JobRecord {
    spec: JobSpec,
    state: JobState,
    done: usize,
    total: usize,
    result: Option<Value>,
    error: Option<ServeError>,
}

struct Inner {
    jobs: BTreeMap<u64, JobRecord>,
    queue: VecDeque<u64>,
    next_id: u64,
    accepted: u64,
    completed: u64,
    shutting_down: bool,
}

/// The shared table; every clone of the surrounding `Arc` sees the same
/// queue, ids, and condvar.
pub struct JobTable {
    inner: Mutex<Inner>,
    cv: Condvar,
    cap: usize,
}

impl JobTable {
    /// An empty table refusing more than `cap` queued jobs at a time.
    pub fn new(cap: usize) -> Self {
        JobTable {
            inner: Mutex::new(Inner {
                jobs: BTreeMap::new(),
                queue: VecDeque::new(),
                next_id: 1,
                accepted: 0,
                completed: 0,
                shutting_down: false,
            }),
            cv: Condvar::new(),
            cap: cap.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // asd-lint: allow(D005) -- table poisoning means a sibling daemon thread panicked; propagating is correct
        self.inner.lock().expect("job table poisoned")
    }

    /// Accept a validated spec, or refuse with the typed busy /
    /// shutting-down rejection.
    ///
    /// # Errors
    ///
    /// [`ServeError::Busy`] at the queue cap, [`ServeError::ShuttingDown`]
    /// while draining.
    pub fn submit(&self, spec: JobSpec) -> Result<u64, ServeError> {
        let total = spec.total_runs();
        let mut g = self.lock();
        if g.shutting_down {
            return Err(ServeError::ShuttingDown);
        }
        if g.queue.len() >= self.cap {
            return Err(ServeError::Busy { depth: g.queue.len(), cap: self.cap });
        }
        let id = g.next_id;
        g.next_id += 1;
        g.accepted += 1;
        g.jobs.insert(
            id,
            JobRecord { spec, state: JobState::Queued, done: 0, total, result: None, error: None },
        );
        g.queue.push_back(id);
        drop(g);
        self.cv.notify_all();
        Ok(id)
    }

    /// Block until a job is available and claim it (marking it
    /// `Running`), or return `None` once the table is draining and the
    /// queue is empty. Cancelled entries are skipped.
    pub fn claim_next(&self) -> Option<(u64, JobSpec)> {
        let mut g = self.lock();
        loop {
            while let Some(id) = g.queue.pop_front() {
                if let Some(rec) = g.jobs.get_mut(&id) {
                    if rec.state == JobState::Queued {
                        rec.state = JobState::Running;
                        return Some((id, rec.spec.clone()));
                    }
                }
            }
            if g.shutting_down {
                return None;
            }
            // asd-lint: allow(D005) -- table poisoning means a sibling daemon thread panicked; propagating is correct
            g = self.cv.wait(g).expect("job table poisoned");
        }
    }

    /// Record progress on a running job and wake watchers. Reports from
    /// concurrent workers can arrive out of order, so `done` only ever
    /// grows: a smaller count than the one recorded is ignored.
    pub fn progress(&self, id: u64, done: usize, total: usize) {
        let mut g = self.lock();
        if let Some(rec) = g.jobs.get_mut(&id) {
            rec.done = rec.done.max(done);
            if total > 0 {
                rec.total = total;
            }
        }
        drop(g);
        self.cv.notify_all();
    }

    /// Terminate a job with its outcome. A job cancelled while running
    /// stays `Cancelled`; its late result is discarded.
    pub fn finish(&self, id: u64, outcome: Result<Value, ServeError>) {
        let mut g = self.lock();
        g.completed += 1;
        if let Some(rec) = g.jobs.get_mut(&id) {
            if rec.state != JobState::Cancelled {
                match outcome {
                    Ok(doc) => {
                        rec.done = rec.total;
                        rec.result = Some(doc);
                        rec.state = JobState::Done;
                    }
                    Err(e) => {
                        rec.error = Some(e);
                        rec.state = JobState::Failed;
                    }
                }
            }
        }
        drop(g);
        self.cv.notify_all();
    }

    /// Cancel a job. Queued jobs never run; running jobs finish their
    /// current sweep and are then discarded; terminal jobs are left
    /// untouched.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownJob`] for an id the table never issued.
    pub fn cancel(&self, id: u64) -> Result<JobState, ServeError> {
        let mut g = self.lock();
        let rec = g.jobs.get_mut(&id).ok_or(ServeError::UnknownJob { id })?;
        if !rec.state.terminal() {
            rec.state = JobState::Cancelled;
        }
        let state = rec.state;
        drop(g);
        self.cv.notify_all();
        Ok(state)
    }

    /// A point-in-time copy of one job.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownJob`] for an id the table never issued.
    pub fn status(&self, id: u64) -> Result<JobSnapshot, ServeError> {
        let g = self.lock();
        let rec = g.jobs.get(&id).ok_or(ServeError::UnknownJob { id })?;
        Ok(JobSnapshot {
            id,
            state: rec.state,
            done: rec.done,
            total: rec.total,
            result: rec.result.clone(),
            error: rec.error.clone(),
        })
    }

    /// Block until the job reaches a terminal state, then return its
    /// final snapshot. `step` fires on every observed change (progress
    /// streaming) **with the table unlocked** — a slow consumer never
    /// stalls the daemon; return `false` from it to stop waiting early.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownJob`] for an id the table never issued.
    pub fn wait_terminal(
        &self,
        id: u64,
        mut step: impl FnMut(&JobSnapshot) -> bool,
    ) -> Result<JobSnapshot, ServeError> {
        let mut last = (usize::MAX, JobState::Queued);
        let mut g = self.lock();
        loop {
            let snap = {
                let rec = g.jobs.get(&id).ok_or(ServeError::UnknownJob { id })?;
                JobSnapshot {
                    id,
                    state: rec.state,
                    done: rec.done,
                    total: rec.total,
                    result: rec.result.clone(),
                    error: rec.error.clone(),
                }
            };
            if (snap.done, snap.state) != last {
                last = (snap.done, snap.state);
                drop(g);
                if !step(&snap) || snap.state.terminal() {
                    return Ok(snap);
                }
                g = self.lock();
                continue; // re-read: state may have moved while unlocked
            }
            if snap.state.terminal() {
                return Ok(snap);
            }
            // asd-lint: allow(D005) -- table poisoning means a sibling daemon thread panicked; propagating is correct
            g = self.cv.wait(g).expect("job table poisoned");
        }
    }

    /// Flip into draining mode: refuse new submissions, let queued and
    /// running jobs complete, and wake every blocked thread.
    pub fn begin_shutdown(&self) {
        self.lock().shutting_down = true;
        self.cv.notify_all();
    }

    /// Whether [`JobTable::begin_shutdown`] has been called.
    pub fn shutting_down(&self) -> bool {
        self.lock().shutting_down
    }

    /// `(accepted, completed, queue_depth)` counters for the health
    /// gauges.
    pub fn counts(&self) -> (u64, u64, usize) {
        let g = self.lock();
        (g.accepted, g.completed, g.queue.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec::Figure { figure: "cost".to_string(), accesses: 1_000, seed: 1 }
    }

    #[test]
    fn queue_cap_yields_typed_busy() {
        let table = JobTable::new(2);
        table.submit(spec()).unwrap();
        table.submit(spec()).unwrap();
        match table.submit(spec()) {
            Err(ServeError::Busy { depth, cap }) => {
                assert_eq!((depth, cap), (2, 2));
            }
            other => panic!("expected busy, got {other:?}"),
        }
        // Claiming one frees a slot.
        let (id, _) = table.claim_next().unwrap();
        assert_eq!(id, 1);
        table.submit(spec()).unwrap();
    }

    #[test]
    fn lifecycle_and_watchers() {
        let table = JobTable::new(8);
        let id = table.submit(spec()).unwrap();
        assert_eq!(table.status(id).unwrap().state, JobState::Queued);
        let (claimed, _) = table.claim_next().unwrap();
        assert_eq!(claimed, id);
        assert_eq!(table.status(id).unwrap().state, JobState::Running);
        table.progress(id, 1, 4);
        assert_eq!(table.status(id).unwrap().done, 1);
        table.finish(id, Ok(Value::obj()));
        let snap = table.wait_terminal(id, |_| true).unwrap();
        assert_eq!(snap.state, JobState::Done);
        assert_eq!(snap.done, 4, "finish snaps progress to total");
        assert!(snap.result.is_some());
    }

    #[test]
    fn progress_never_goes_backwards() {
        // Workers report progress unordered: a late 5 after a 6 must not
        // step a watcher back.
        let table = JobTable::new(8);
        let id = table.submit(spec()).unwrap();
        table.claim_next().unwrap();
        table.progress(id, 6, 8);
        table.progress(id, 5, 8);
        assert_eq!(table.status(id).unwrap().done, 6);
    }

    #[test]
    fn unknown_ids_are_typed() {
        let table = JobTable::new(2);
        assert!(matches!(table.status(99), Err(ServeError::UnknownJob { id: 99 })));
        assert!(matches!(table.cancel(99), Err(ServeError::UnknownJob { id: 99 })));
        assert!(matches!(
            table.wait_terminal(99, |_| true),
            Err(ServeError::UnknownJob { id: 99 })
        ));
    }

    #[test]
    fn cancelled_queued_jobs_never_run() {
        let table = JobTable::new(8);
        let a = table.submit(spec()).unwrap();
        let b = table.submit(spec()).unwrap();
        table.cancel(a).unwrap();
        let (claimed, _) = table.claim_next().unwrap();
        assert_eq!(claimed, b, "cancelled job skipped");
        assert_eq!(table.status(a).unwrap().state, JobState::Cancelled);
        // A cancelled-while-running job discards its late result.
        table.cancel(b).unwrap();
        table.finish(b, Ok(Value::obj()));
        let snap = table.status(b).unwrap();
        assert_eq!(snap.state, JobState::Cancelled);
        assert!(snap.result.is_none());
    }

    #[test]
    fn shutdown_drains_then_refuses() {
        let table = JobTable::new(8);
        let id = table.submit(spec()).unwrap();
        table.begin_shutdown();
        assert!(matches!(table.submit(spec()), Err(ServeError::ShuttingDown)));
        // The queued job is still claimable; after it, the claim loop
        // reports drained.
        assert_eq!(table.claim_next().map(|(i, _)| i), Some(id));
        assert!(table.claim_next().is_none());
    }
}
