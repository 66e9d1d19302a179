//! The job executor: the one place that claims simulation work, spawns
//! worker threads and consults a run cache.
//!
//! Every batch of simulations — a whole `figures all` run, one figure, a
//! four-way comparison, an arena, a daemon sweep — is a set of
//! [`FigurePlan`]s: a list of [`Job`]s (the simulations a plan needs)
//! plus an `assemble` closure that turns their results into the plan's
//! output. A figure's output is a [`FigureOutput`]; a *sweep*
//! ([`Pipeline::sweep`]) is a one-plan pipeline whose output is the
//! results themselves. A [`Pipeline`] runs under the [`RunContext`] it is
//! built with, accepts any number of plans, and runs their union:
//!
//! - **Submission-time dedup.** Jobs are collapsed into *nodes* by their
//!   [`crate::cache`] key: two plans (or two jobs of one plan) requesting
//!   the same point share one node (counted in
//!   [`PipelineStats::inflight_joins`]). Uncacheable jobs (trace-sourced,
//!   anonymous custom engines, memoization off) always get their own node.
//! - **One work queue.** All nodes drain through a single shrinking-chunk
//!   cursor, so there is no idle tail between plans.
//! - **Eager assembly.** A plan's `assemble` runs on whichever worker
//!   deposits its last outstanding node; slow plans never block finished
//!   ones. Node results are freed as soon as their last consumer
//!   assembles ([`PipelineStats::peak_live_jobs`] tracks the high-water
//!   mark).
//! - **A trace memo per plan.** Nodes of one plan that differ only in
//!   system configuration read one generated trace per thread. A node
//!   belongs to the first plan that submitted it, and the run keys each
//!   trace by that plan, counting its readers before the workers start;
//!   the plan's first reader generates the trace, packed 8 bytes per
//!   access, and its last reader to finish frees it. The catalog's plans
//!   list their jobs one profile at a time, so a run holds only the traces
//!   of the profiles its workers are on ([`PipelineStats::traces_generated`],
//!   [`PipelineStats::traces_served`],
//!   [`PipelineStats::peak_trace_bytes`]). A context with memoization off
//!   turns the memo off too, and every node streams from the generator.
//! - **Deterministic output.** [`Pipeline::run`] returns outputs in
//!   submission order, and `assemble` receives one result per job, in job
//!   order, each re-stamped with its job's label — whatever the thread
//!   count or completion order. On failure it reports the earliest
//!   submitted plan's earliest job-order error.
//!
//! The context's worker count ([`RunContext::with_threads`]) sets how
//! many workers run; one worker runs everything on the calling thread.
//!
//! A node with a cache key goes through the context's run cache: a key
//! a finished run stored (in memory, or on disk under
//! [`RunContext::with_disk_dir`]) is served without simulating. Two
//! `Pipeline`s on one context may both simulate a key the other is
//! running; the results are identical, so the later store writes an
//! equal value.

use crate::cache::{self, RunCache};
use crate::config::{RunOpts, SystemConfig};
use crate::error::SimError;
use crate::memo::TraceMemo;
use crate::system::{RunResult, System};
use asd_telemetry::Snapshot;
use asd_trace::WorkloadProfile;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// One simulation a plan needs: a workload under a configuration, with a
/// label for reporting.
pub struct Job {
    /// Workload to simulate.
    pub profile: WorkloadProfile,
    /// Full system configuration.
    pub cfg: SystemConfig,
    /// Reporting label stamped into [`RunResult::config`].
    pub label: String,
}

impl Job {
    /// A job running `profile` under `cfg`, labelled `label`.
    pub fn new(profile: &WorkloadProfile, cfg: SystemConfig, label: &str) -> Self {
        Job { profile: profile.clone(), cfg, label: label.to_string() }
    }
}

/// A typed metric value a figure reports alongside its text. The bench
/// binary converts these to its JSON values; keeping the enum here lets
/// figure metrics live next to the figure logic without `sim` depending
/// on a JSON layer (D007 layering).
#[derive(Debug)]
pub enum MetricValue {
    /// An integer count (rendered as a JSON number).
    U64(u64),
    /// A float (rendered as a JSON number).
    F64(f64),
    /// A string.
    Str(String),
    /// A list of objects, each a list of `(key, value)` pairs in
    /// insertion order (the arena league table uses this).
    Rows(Vec<Vec<(String, MetricValue)>>),
}

/// Everything a figure produces: the rendered text, the metrics block
/// for the JSON report, and the telemetry walkthrough's snapshot.
#[derive(Debug)]
pub struct FigureOutput {
    /// The figure text exactly as `figures` prints it.
    pub text: String,
    /// `(name, value)` metric pairs in report order.
    pub metrics: Vec<(String, MetricValue)>,
    /// The merged snapshot of a figure that instruments its run, moved
    /// out of that run's [`RunResult`]. It is kept unrendered: `figures`
    /// renders its exposition files only when it is asked to write them.
    pub telemetry: Option<Snapshot>,
}

impl FigureOutput {
    /// An output with text only.
    pub fn text_only(text: String) -> Self {
        FigureOutput { text, metrics: Vec::new(), telemetry: None }
    }
}

/// The assembly half of a plan: a function from the plan's run results
/// (in job order, labels re-stamped) to its output.
pub type AssembleFn<T> = Box<dyn FnOnce(Vec<RunResult>) -> Result<T, SimError> + Send>;

/// A plan as data: its name, effective run options, required
/// simulations, and assembly closure. Figures are built by the catalog
/// in [`crate::figures::plan`] (and [`crate::arena::arena_plan`]) and
/// output a [`FigureOutput`]; every plan runs by being submitted to a
/// [`Pipeline`].
pub struct FigurePlan<T = FigureOutput> {
    name: String,
    opts: RunOpts,
    jobs: Vec<Job>,
    assemble: AssembleFn<T>,
}

impl<T> FigurePlan<T> {
    /// A plan from its parts. `assemble` receives one [`RunResult`] per
    /// job, in job order, each re-stamped with that job's label.
    pub fn new(
        name: &str,
        opts: &RunOpts,
        jobs: Vec<Job>,
        assemble: impl FnOnce(Vec<RunResult>) -> Result<T, SimError> + Send + 'static,
    ) -> Self {
        FigurePlan {
            name: name.to_string(),
            opts: opts.clone(),
            jobs,
            assemble: Box::new(assemble),
        }
    }

    /// The plan's name (`fig5`, `arena`, ...).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The simulations the plan needs, in job order (none for a figure
    /// that simulates inside its assembly).
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }
}

/// A deduplicated simulation point: the first submitter's label, the opts
/// it runs under, and its owning plan (the first submitter, whose traces
/// it reads). Later jobs mapping here re-stamp their own label onto a
/// clone of the node's result at assembly.
struct Node {
    profile: WorkloadProfile,
    cfg: SystemConfig,
    opts: RunOpts,
    label: String,
    plan: usize,
}

/// One submitted plan: its per-job labels, the node each job maps to,
/// the deduplicated dependency list, and the assembly closure (taken
/// exactly once, by whichever worker readies the plan).
struct Planned<T> {
    name: String,
    labels: Vec<String>,
    node_of_job: Vec<usize>,
    deps: Vec<usize>,
    assemble: Mutex<Option<AssembleFn<T>>>,
}

/// Counters describing one [`Pipeline::run`].
#[derive(Debug)]
pub struct PipelineStats {
    /// Plans submitted.
    pub figures: usize,
    /// Jobs submitted across all plans, before dedup.
    pub submitted_jobs: usize,
    /// Distinct nodes actually scheduled.
    pub unique_jobs: usize,
    /// Jobs that joined an already-submitted node instead of scheduling
    /// a new one (`submitted_jobs - unique_jobs` for cacheable jobs).
    pub inflight_joins: u64,
    /// High-water mark of node results held live at once (results are
    /// freed as their last consuming plan assembles).
    pub peak_live_jobs: usize,
    /// Per-thread traces the run's memo generated: one per distinct
    /// `(plan, profile, seed, thread, accesses)` its simulated nodes read,
    /// with each node counted in its owning plan.
    pub traces_generated: u64,
    /// Trace reads the memo served without generating.
    pub traces_served: u64,
    /// The most bytes of memoized trace records the run held at once
    /// (traces are freed after their plan's last reader, so this depends
    /// on how the workers interleave; on one worker, with every plan's
    /// jobs listed one profile at a time, it is the largest node's traces).
    pub peak_trace_bytes: usize,
}

/// One finished plan out of [`Pipeline::run`].
#[derive(Debug)]
pub struct FigureRun<T = FigureOutput> {
    /// The plan's name.
    pub name: String,
    /// The assembled output.
    pub output: T,
    /// The clock reading at the moment this plan's assembly finished.
    /// Plans overlap, so this is *time-to-ready from pipeline start*, not
    /// exclusive cost — the per-figure `wall_ms` the bench report
    /// documents.
    pub wall_ms: f64,
}

/// Everything [`Pipeline::run`] returns: plan outputs in submission
/// order plus the run's [`PipelineStats`].
#[derive(Debug)]
pub struct PipelineRun<T = FigureOutput> {
    /// One entry per submitted plan, in submission order.
    pub figures: Vec<FigureRun<T>>,
    /// Dedup/liveness counters for the run.
    pub stats: PipelineStats,
}

/// What a batch of simulations shares: the worker-thread count, whether
/// jobs are memoized, and the run cache. The caller builds it and hands
/// it to every [`Pipeline`] of the batch; two contexts share no cache
/// entry or counter. [`RunContext::default`] runs on the machine's
/// available parallelism, memoizes, and has no disk tier.
pub struct RunContext {
    threads: usize,
    memoize: bool,
    cache: RunCache,
}

impl Default for RunContext {
    fn default() -> Self {
        RunContext {
            threads: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            memoize: true,
            cache: RunCache::default(),
        }
    }
}

impl RunContext {
    /// Run on `threads` workers (at least one); `1` runs every job on the
    /// calling thread.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// With memoization off no job has a cache key: nothing is
    /// deduplicated, cached or read from the trace memo. Results are
    /// bit-identical either way.
    #[must_use]
    pub fn with_memoize(mut self, memoize: bool) -> Self {
        self.memoize = memoize;
        self
    }

    /// Persist the run cache under `dir` (created on first write), and
    /// read it back from there, across processes.
    #[must_use]
    pub fn with_disk_dir(mut self, dir: PathBuf) -> Self {
        self.cache.disk_dir = Some(dir);
        self
    }

    /// The worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether jobs are memoized.
    pub fn memoize(&self) -> bool {
        self.memoize
    }

    /// The run cache, for its counters.
    pub fn cache(&self) -> &RunCache {
        &self.cache
    }
}

/// The job executor. Submit plans, then [`Pipeline::run`] their union.
/// See the module docs for the execution model.
pub struct Pipeline<'c, T = FigureOutput> {
    ctx: &'c RunContext,
    nodes: Vec<Node>,
    by_key: BTreeMap<String, usize>,
    figures: Vec<Planned<T>>,
    submitted: usize,
    joins: u64,
}

impl<'c> Pipeline<'c> {
    /// An empty pipeline of figures, run under `ctx`.
    pub fn new(ctx: &'c RunContext) -> Self {
        Pipeline::empty(ctx)
    }
}

impl<'c> Pipeline<'c, Vec<RunResult>> {
    /// A sweep under `ctx`: one plan running `jobs` under `opts`, whose
    /// output is their results in job order, each re-stamped with its
    /// job's label.
    pub fn sweep(ctx: &'c RunContext, opts: &RunOpts, jobs: Vec<Job>) -> Self {
        let mut pipe = Pipeline::empty(ctx);
        pipe.submit(FigurePlan::new("sweep", opts, jobs, Ok));
        pipe
    }

    /// Run the sweep: every plan's results, in submission order and job
    /// order within each plan.
    ///
    /// # Errors
    ///
    /// The earliest (job-order) failing job's [`SimError`] (file-backed
    /// trace sources can fail to resolve; purely generated jobs cannot).
    pub fn results(self) -> Result<Vec<RunResult>, SimError> {
        Ok(self.run(&|| 0.0)?.figures.into_iter().flat_map(|f| f.output).collect())
    }
}

impl<'c, T: Send> Pipeline<'c, T> {
    fn empty(ctx: &'c RunContext) -> Self {
        Pipeline {
            ctx,
            nodes: Vec::new(),
            by_key: BTreeMap::new(),
            figures: Vec::new(),
            submitted: 0,
            joins: 0,
        }
    }

    /// Number of plans submitted so far.
    pub fn figure_count(&self) -> usize {
        self.figures.len()
    }

    /// Jobs submitted so far, before dedup.
    pub fn submitted_jobs(&self) -> usize {
        self.submitted
    }

    /// Distinct nodes scheduled so far.
    pub fn unique_jobs(&self) -> usize {
        self.nodes.len()
    }

    /// Jobs that joined an already-submitted node.
    pub fn inflight_joins(&self) -> u64 {
        self.joins
    }

    /// Add a plan to the graph. Each of its jobs is collapsed onto an
    /// existing node when its cache key matches one already submitted
    /// (by this or an earlier plan); uncacheable jobs, and every job
    /// under a context with memoization off, get fresh nodes. The plan's
    /// assembly runs as soon as its last node lands.
    pub fn submit(&mut self, plan: FigurePlan<T>) {
        let FigurePlan { name, opts, jobs, assemble } = plan;
        let mut labels = Vec::with_capacity(jobs.len());
        let mut node_of_job = Vec::with_capacity(jobs.len());
        let mut deps: Vec<usize> = Vec::new();
        for job in jobs {
            self.submitted += 1;
            let key = self.ctx.memoize.then(|| cache::key(&job.cfg, &job.profile, &opts)).flatten();
            let node = match key.as_ref().and_then(|k| self.by_key.get(k)) {
                Some(&existing) => {
                    self.joins += 1;
                    existing
                }
                None => {
                    let idx = self.nodes.len();
                    self.nodes.push(Node {
                        profile: job.profile,
                        cfg: job.cfg,
                        opts: opts.clone(),
                        label: job.label.clone(),
                        plan: self.figures.len(),
                    });
                    if let Some(key) = key {
                        self.by_key.insert(key, idx);
                    }
                    idx
                }
            };
            labels.push(job.label);
            node_of_job.push(node);
            if !deps.contains(&node) {
                deps.push(node);
            }
        }
        self.figures.push(Planned {
            name,
            labels,
            node_of_job,
            deps,
            assemble: Mutex::new(Some(assemble)),
        });
    }

    /// Execute the graph and assemble every plan, returning outputs in
    /// submission order. `clock` is sampled at each plan's assembly
    /// completion for its [`FigureRun::wall_ms`] (the `sim` crate takes
    /// an injected clock rather than reading time itself; pass
    /// `&|| 0.0` when timings are not needed).
    ///
    /// # Errors
    ///
    /// The earliest submitted plan's earliest job-order [`SimError`], or
    /// the first plan's assembly error.
    pub fn run(self, clock: &(dyn Fn() -> f64 + Sync)) -> Result<PipelineRun<T>, SimError> {
        self.run_observed(clock, &|_, _| {})
    }

    /// [`Pipeline::run`] with a progress observer: `progress(done,
    /// total)` fires once per finished node, from whichever worker ran
    /// it, with `total` the number of nodes. Calls from different workers
    /// are not ordered, so a later call may carry a smaller `done`.
    /// Observers must be cheap and thread-safe; the daemon uses this to
    /// stream per-run progress.
    ///
    /// # Errors
    ///
    /// As [`Pipeline::run`].
    pub fn run_observed(
        self,
        clock: &(dyn Fn() -> f64 + Sync),
        progress: &(dyn Fn(usize, usize) + Sync),
    ) -> Result<PipelineRun<T>, SimError> {
        let Pipeline { ctx, nodes, by_key, figures, submitted, joins } = self;
        let total = nodes.len();
        let workers = ctx.threads.clamp(1, total.max(1));
        let mut keys: Vec<Option<String>> = vec![None; total];
        for (key, n) in by_key {
            keys[n] = Some(key);
        }
        let mut memo = TraceMemo::default();
        let mut reads: Vec<Vec<usize>> = vec![Vec::new(); total];
        if ctx.memoize {
            reads =
                nodes.iter().map(|n| memo.register(n.plan, &n.cfg, &n.profile, &n.opts)).collect();
        }

        let slots: Vec<ResultSlot> = (0..total).map(|_| Mutex::new(None)).collect();
        let outputs: Vec<OutputSlot<T>> = figures.iter().map(|_| Mutex::new(None)).collect();
        let mut consumers_of: Vec<Vec<usize>> = vec![Vec::new(); total];
        for (f, fig) in figures.iter().enumerate() {
            for &n in &fig.deps {
                consumers_of[n].push(f);
            }
        }
        let track = Track {
            remaining: figures.iter().map(|f| f.deps.len()).collect(),
            failed: vec![false; figures.len()],
            consumers: consumers_of.iter().map(Vec::len).collect(),
            ready: (0..figures.len()).filter(|&f| figures[f].deps.is_empty()).collect(),
            done: 0,
            live: 0,
            peak: 0,
        };
        let exec = Exec {
            cache: &ctx.cache,
            nodes: &nodes,
            keys: &keys,
            reads: &reads,
            memo: &memo,
            figures: &figures,
            consumers_of: &consumers_of,
            slots: &slots,
            outputs: &outputs,
            track: &Mutex::new(track),
            chunker: &Chunker::new(total, workers),
            clock,
            progress,
        };
        std::thread::scope(|scope| {
            // One worker runs on the calling thread; spawning all of
            // them would leave it idle.
            for _ in 1..workers {
                scope.spawn(|| exec.worker());
            }
            exec.worker();
        });

        // Deterministic error selection, then output collection — in
        // plan submission order, jobs in job order within each plan.
        let mut out = Vec::with_capacity(figures.len());
        for (f, fig) in figures.iter().enumerate() {
            for &n in &fig.node_of_job {
                // asd-lint: allow(D005) -- the scope joined all workers, so no slot lock is poisoned
                let mut slot = slots[n].lock().expect("node slot poisoned");
                if matches!(slot.as_ref(), Some(Err(_))) {
                    if let Some(Err(e)) = slot.take() {
                        return Err(e);
                    }
                }
            }
            // asd-lint: allow(D005) -- the scope joined all workers, so no output lock is poisoned
            let assembled = outputs[f].lock().expect("figure output poisoned").take();
            match assembled {
                Some((Ok(output), wall_ms)) => {
                    out.push(FigureRun { name: fig.name.clone(), output, wall_ms });
                }
                Some((Err(e), _)) => return Err(e),
                // Unreachable: every plan either fails a dependency
                // (caught above) or is readied and assembled by the
                // worker that deposited its last node.
                // asd-lint: allow(D005) -- structurally unreachable; a panic here flags a scheduler bug loudly
                None => unreachable!("plan {} neither failed nor assembled", fig.name),
            }
        }
        let track = exec.track;
        // asd-lint: allow(D005) -- the scope joined all workers, so the tracker lock is not poisoned
        let peak = track.lock().expect("tracker poisoned").peak;
        let (traces_generated, traces_served, peak_trace_bytes) = memo.stats();
        Ok(PipelineRun {
            figures: out,
            stats: PipelineStats {
                figures: figures.len(),
                submitted_jobs: submitted,
                unique_jobs: total,
                inflight_joins: joins,
                peak_live_jobs: peak,
                traces_generated,
                traces_served,
                peak_trace_bytes,
            },
        })
    }
}

/// A shrinking-chunk work cursor over `total` nodes.
///
/// Idle workers claim contiguous ranges via CAS on a shared cursor.
/// Chunks shrink as the queue drains — roughly 1/(4·claimants) of the
/// remaining work, clamped to `[1, 8]` — so early claims amortize the
/// cursor contention while the tail degrades to single-node granularity
/// and a long-pole node never strands the finish line behind one worker.
struct Chunker {
    next: AtomicUsize,
    total: usize,
    claimants: usize,
}

impl Chunker {
    fn new(total: usize, claimants: usize) -> Self {
        Chunker { next: AtomicUsize::new(0), total, claimants: claimants.max(1) }
    }

    /// Claim the next chunk as a half-open `(start, end)` range, or
    /// `None` when the queue is drained.
    fn claim(&self) -> Option<(usize, usize)> {
        let mut cur = self.next.load(Ordering::Relaxed);
        loop {
            if cur >= self.total {
                return None;
            }
            let chunk = ((self.total - cur) / (self.claimants * 4)).clamp(1, 8);
            match self.next.compare_exchange_weak(
                cur,
                cur + chunk,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some((cur, cur + chunk)),
                Err(seen) => cur = seen,
            }
        }
    }
}

type ResultSlot = Mutex<Option<Result<RunResult, SimError>>>;
type OutputSlot<T> = Mutex<Option<(Result<T, SimError>, f64)>>;

/// Mutable scheduling state shared by the workers, behind one mutex:
/// per-plan outstanding-dependency counts, per-node remaining-consumer
/// counts (for freeing results), the ready-to-assemble queue, the count
/// of finished nodes, and the live-results high-water mark.
struct Track {
    remaining: Vec<usize>,
    failed: Vec<bool>,
    consumers: Vec<usize>,
    ready: Vec<usize>,
    done: usize,
    live: usize,
    peak: usize,
}

/// The per-run executor the scoped workers share. Lock order: the
/// tracker mutex may be held while taking a node slot (freeing results),
/// but never the reverse — node deposits release the slot before
/// touching the tracker.
struct Exec<'a, T> {
    cache: &'a RunCache,
    nodes: &'a [Node],
    /// Each node's cache key, if it has one.
    keys: &'a [Option<String>],
    /// The memo traces each node reads, in thread order (none when it
    /// streams from a file or the memo is off).
    reads: &'a [Vec<usize>],
    memo: &'a TraceMemo,
    figures: &'a [Planned<T>],
    consumers_of: &'a [Vec<usize>],
    slots: &'a [ResultSlot],
    outputs: &'a [OutputSlot<T>],
    track: &'a Mutex<Track>,
    chunker: &'a Chunker,
    clock: &'a (dyn Fn() -> f64 + Sync),
    progress: &'a (dyn Fn(usize, usize) + Sync),
}

impl<T> Exec<'_, T> {
    fn lock_track(&self) -> std::sync::MutexGuard<'_, Track> {
        // asd-lint: allow(D005) -- tracker poisoning means a sibling worker panicked mid-run; propagating is correct
        self.track.lock().expect("tracker poisoned")
    }

    /// Worker loop: prefer assembling ready plans (freeing their node
    /// results), otherwise claim and run a chunk of nodes. Exits when
    /// the node queue is drained and no plan is ready — any plan still
    /// pending at that point will be readied, and assembled, by the
    /// worker that deposits its last dependency.
    fn worker(&self) {
        loop {
            if let Some(f) = self.pop_ready() {
                self.assemble(f);
                continue;
            }
            match self.chunker.claim() {
                Some((start, end)) => {
                    for node in start..end {
                        self.run_node(node);
                    }
                }
                None => {
                    // A deposit may have readied a plan between our pop
                    // and the drained claim; drain once more.
                    if let Some(f) = self.pop_ready() {
                        self.assemble(f);
                        continue;
                    }
                    return;
                }
            }
        }
    }

    fn pop_ready(&self) -> Option<usize> {
        self.lock_track().ready.pop()
    }

    /// Run node `index` (through the run cache when it has a key) and
    /// deposit its result, readying (or failing) any plan whose last
    /// dependency this was, then report progress. The node reads its
    /// generated traces from the run's memo, and gives each back when it
    /// finishes, however it finished.
    fn run_node(&self, index: usize) {
        let node = &self.nodes[index];
        let reads = &self.reads[index];
        let simulate = || -> Result<RunResult, SimError> {
            let system = if reads.is_empty() {
                System::new(node.cfg.clone(), &node.profile, &node.opts)?
            } else {
                System::build(node.cfg.clone(), self.memo.resolve(reads))
            };
            Ok(system.with_label(&node.label).run())
        };
        let result = match &self.keys[index] {
            Some(key) => self.cache.get_or_run(key, &node.label, simulate),
            None => simulate(),
        };
        for &id in reads {
            self.memo.release(id);
        }
        let ok = result.is_ok();
        {
            // asd-lint: allow(D005) -- slot poisoning means a sibling worker panicked mid-run; propagating is correct
            let mut slot = self.slots[index].lock().expect("node slot poisoned");
            *slot = Some(result);
        }
        let done = {
            let mut track = self.lock_track();
            if ok {
                track.live += 1;
                track.peak = track.peak.max(track.live);
            }
            for &f in &self.consumers_of[index] {
                if !ok {
                    track.failed[f] = true;
                }
                track.remaining[f] -= 1;
                if track.remaining[f] == 0 {
                    if track.failed[f] {
                        // The plan will never assemble; free its Ok
                        // dependencies now (Err slots stay for the final
                        // error scan).
                        self.release_deps(&mut track, f);
                    } else {
                        track.ready.push(f);
                    }
                }
            }
            track.done += 1;
            track.done
        };
        (self.progress)(done, self.nodes.len());
    }

    /// Assemble plan `f` (all dependencies landed Ok): clone each job's
    /// node result re-stamped with the job's label, hand the owned list
    /// to the assembly closure, record the output and completion time,
    /// and release the plan's claim on its node results.
    fn assemble(&self, f: usize) {
        let fig = &self.figures[f];
        let mut inputs = Vec::with_capacity(fig.node_of_job.len());
        for (job, &n) in fig.node_of_job.iter().enumerate() {
            // asd-lint: allow(D005) -- slot poisoning means a sibling worker panicked mid-run; propagating is correct
            let slot = self.slots[n].lock().expect("node slot poisoned");
            match slot.as_ref() {
                Some(Ok(r)) => {
                    let mut stamped = r.clone();
                    stamped.config = fig.labels[job].clone();
                    inputs.push(stamped);
                }
                // Unreachable: ready implies every dependency deposited
                // Ok, and results are only freed after the last consumer
                // assembles — which is happening right now.
                // asd-lint: allow(D005) -- structurally unreachable; a panic here flags a scheduler bug loudly
                _ => unreachable!("ready plan {} missing node {n}", fig.name),
            }
        }
        // asd-lint: allow(D005) -- assemble mutex poisoning means a sibling worker panicked mid-run; propagating is correct
        let assemble = fig.assemble.lock().expect("assemble slot poisoned").take();
        let Some(assemble) = assemble else { return };
        let output = assemble(inputs);
        let wall_ms = (self.clock)();
        {
            // asd-lint: allow(D005) -- output poisoning means a sibling worker panicked mid-run; propagating is correct
            let mut out = self.outputs[f].lock().expect("figure output poisoned");
            *out = Some((output, wall_ms));
        }
        let mut track = self.lock_track();
        self.release_deps(&mut track, f);
    }

    /// Drop plan `f`'s claim on its dependency results; a node's Ok
    /// result is freed when its last consumer releases it.
    fn release_deps(&self, track: &mut Track, f: usize) {
        for &n in &self.figures[f].deps {
            track.consumers[n] -= 1;
            if track.consumers[n] == 0 {
                // asd-lint: allow(D005) -- slot poisoning means a sibling worker panicked mid-run; propagating is correct
                let mut slot = self.slots[n].lock().expect("node slot poisoned");
                if matches!(slot.as_ref(), Some(Ok(_))) {
                    *slot = None;
                    track.live -= 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PrefetchKind;
    use asd_trace::suites;

    #[test]
    fn chunker_claims_cover_everything_disjointly() {
        let chunker = Chunker::new(103, 4);
        let mut seen = [false; 103];
        while let Some((start, end)) = chunker.claim() {
            assert!(start < end && end <= 103);
            for flag in &mut seen[start..end] {
                assert!(!*flag, "range claimed twice");
                *flag = true;
            }
        }
        assert!(seen.iter().all(|&f| f), "every index claimed");
        assert!(chunker.claim().is_none(), "drained cursor stays drained");
    }

    #[test]
    fn observer_fires_once_per_node() {
        let opts = RunOpts { seed: 0x0b5e, ..RunOpts::default() }.with_accesses(3_000);
        let mut jobs = Vec::new();
        for bench in ["milc", "tonto", "lbm"] {
            let profile = suites::by_name(bench).unwrap();
            for kind in [PrefetchKind::Np, PrefetchKind::Pms] {
                jobs.push(Job::new(&profile, SystemConfig::for_kind(kind, 1), kind.name()));
            }
        }
        let calls = AtomicUsize::new(0);
        let maxed = AtomicUsize::new(0);
        let ctx = RunContext::default().with_threads(3);
        let run = Pipeline::sweep(&ctx, &opts, jobs)
            .run_observed(&|| 0.0, &|done, total| {
                assert_eq!(total, 6);
                calls.fetch_add(1, Ordering::Relaxed);
                maxed.fetch_max(done, Ordering::Relaxed);
            })
            .unwrap();
        assert_eq!(run.figures[0].output.len(), 6);
        assert_eq!(calls.load(Ordering::Relaxed), 6);
        assert_eq!(maxed.load(Ordering::Relaxed), 6);
    }
}
