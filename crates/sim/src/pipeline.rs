//! Global job-graph executor: one scheduler for every requested figure.
//!
//! The barrier problem. `figures all` historically ran as 19+ sequential
//! barriers — each figure built its own [`Sweep`], blocked on
//! `sweep.run()`, then the next figure started. Total wall time was the
//! *sum* of per-figure critical paths, and the tail of every sweep left
//! most workers idle.
//!
//! This module replaces the barriers with a declarative split. Each
//! figure becomes a [`FigurePlan`]: a list of [`Job`]s (the simulations
//! it needs) plus a pure `assemble(&[RunResult]) -> FigureOutput`
//! closure (the formatting). A [`Pipeline`] accepts the union of all
//! requested figures' plans at once:
//!
//! - **Submission-time dedup.** Jobs are collapsed into *nodes* by their
//!   [`crate::cache`] key: two figures requesting the same point share
//!   one node (counted in [`PipelineStats::inflight_joins`]). Uncacheable
//!   jobs (trace-sourced, anonymous custom engines, cache disabled)
//!   always get their own node.
//! - **One work queue.** All nodes drain through a single shrinking-chunk
//!   [`Chunker`] — the same claiming discipline [`Sweep::run`] uses — so
//!   there is no idle tail between figures.
//! - **Eager assembly.** A figure's `assemble` runs on whichever worker
//!   deposits its last outstanding node; slow figures never block
//!   finished ones. Node results are freed as soon as their last
//!   consumer assembles ([`PipelineStats::peak_live_jobs`] tracks the
//!   high-water mark).
//! - **Deterministic output.** [`Pipeline::run`] returns figures in
//!   submission order with results re-stamped per job label, so graph
//!   mode is bit-identical to barrier mode. On failure it reports the
//!   earliest submission-order figure's earliest job error — the same
//!   error [`Sweep::run`] would pick.
//!
//! Node execution goes through [`crate::experiment::run_custom`], which
//! adds the cache's *single-flight* registry: even two independent
//! `Pipeline`s (e.g. concurrent `asd-serve` connections) computing the
//! same key run one simulation, with the loser joining the winner's
//! in-flight run (see [`RunCache::flight_stats`](crate::cache::RunCache::flight_stats)).
//!
//! The `ASD_PIPELINE=barrier` environment variable ([`barrier_mode`])
//! restores the sequential per-figure behavior for A/B verification;
//! [`FigurePlan::run`] is exactly that fallback.

use crate::config::{RunOpts, SystemConfig};
use crate::error::SimError;
use crate::experiment::run_custom;
use crate::sweep::{worker_count, Chunker, Sweep};
use crate::system::RunResult;
use asd_trace::WorkloadProfile;
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

/// One simulation a figure needs: a workload under a configuration,
/// with a label for reporting (mirrors what [`Sweep::push`] takes).
pub struct Job {
    /// Workload to simulate.
    pub profile: WorkloadProfile,
    /// Full system configuration.
    pub cfg: SystemConfig,
    /// Reporting label stamped into [`RunResult::config`].
    pub label: String,
}

impl Job {
    /// Convenience constructor mirroring [`Sweep::push`].
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
/// for the JSON report, and named artifact bodies (the telemetry demo's
/// exposition files).
#[derive(Debug)]
pub struct FigureOutput {
    /// The figure text exactly as `figures` prints it.
    pub text: String,
    /// `(name, value)` metric pairs in report order.
    pub metrics: Vec<(String, MetricValue)>,
    /// `(file name, body)` pairs for figures that emit files.
    pub artifacts: Vec<(String, String)>,
}

impl FigureOutput {
    /// An output with text only.
    pub fn text_only(text: String) -> Self {
        FigureOutput { text, metrics: Vec::new(), artifacts: Vec::new() }
    }
}

/// The assembly half of a figure: a pure function from the figure's run
/// results (in job order, labels re-stamped) to its output.
pub type AssembleFn = Box<dyn FnOnce(&[RunResult]) -> Result<FigureOutput, SimError> + Send>;

/// A figure as data: its name, effective run options, required
/// simulations, and assembly closure. Built by the catalog in
/// [`crate::figures::plan`] (and [`crate::arena::arena_plan`]); executed
/// either standalone ([`FigurePlan::run`], the barrier path) or
/// submitted to a [`Pipeline`].
pub struct FigurePlan {
    name: String,
    opts: RunOpts,
    jobs: Vec<Job>,
    assemble: AssembleFn,
}

impl FigurePlan {
    /// A plan from its parts. `assemble` receives one [`RunResult`] per
    /// job, in job order, each re-stamped with that job's label.
    pub fn new(
        name: &str,
        opts: &RunOpts,
        jobs: Vec<Job>,
        assemble: impl FnOnce(&[RunResult]) -> Result<FigureOutput, SimError> + Send + 'static,
    ) -> Self {
        FigurePlan {
            name: name.to_string(),
            opts: opts.clone(),
            jobs,
            assemble: Box::new(assemble),
        }
    }

    /// The figure's name (`fig5`, `arena`, ...).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of simulations the plan requests (before any dedup).
    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    /// Barrier-mode execution: run the plan's jobs through one
    /// [`Sweep`] (push order = job order) and assemble. This is today's
    /// per-figure behavior, kept as the `ASD_PIPELINE=barrier` fallback.
    ///
    /// # Errors
    ///
    /// The earliest (job-order) failing job's [`SimError`], as
    /// [`Sweep::run`]; or the assembly's own error.
    pub fn run(self) -> Result<FigureOutput, SimError> {
        let mut sweep = Sweep::new(&self.opts);
        for job in &self.jobs {
            sweep.push(&job.profile, job.cfg.clone(), &job.label);
        }
        let results = sweep.run()?;
        (self.assemble)(&results)
    }
}

/// Pipeline execution mode from the `ASD_PIPELINE` environment variable:
/// `true` when set to `barrier` (sequential per-figure sweeps), `false`
/// otherwise (the global job graph). Read once per process.
pub fn barrier_mode() -> bool {
    static MODE: OnceLock<bool> = OnceLock::new();
    *MODE.get_or_init(|| std::env::var("ASD_PIPELINE").is_ok_and(|v| v == "barrier"))
}

/// A deduplicated simulation point: the first submitter's label and the
/// opts it runs under. Later jobs mapping here re-stamp their own label
/// onto a clone of the node's result at assembly.
struct Node {
    profile: WorkloadProfile,
    cfg: SystemConfig,
    opts: RunOpts,
    label: String,
}

/// One submitted figure: its per-job labels, the node each job maps to,
/// the deduplicated dependency list, and the assembly closure (taken
/// exactly once, by whichever worker readies the figure).
struct Planned {
    name: String,
    labels: Vec<String>,
    node_of_job: Vec<usize>,
    deps: Vec<usize>,
    assemble: Mutex<Option<AssembleFn>>,
}

/// Counters describing one [`Pipeline::run`].
#[derive(Debug)]
pub struct PipelineStats {
    /// Figures submitted.
    pub figures: usize,
    /// Jobs submitted across all figures, before dedup.
    pub submitted_jobs: usize,
    /// Distinct nodes actually scheduled.
    pub unique_jobs: usize,
    /// Jobs that joined an already-submitted node instead of scheduling
    /// a new one (`submitted_jobs - unique_jobs` for cacheable jobs).
    pub inflight_joins: u64,
    /// High-water mark of node results held live at once (results are
    /// freed as their last consuming figure assembles).
    pub peak_live_jobs: usize,
}

/// One finished figure out of [`Pipeline::run`].
#[derive(Debug)]
pub struct FigureRun {
    /// The plan's name.
    pub name: String,
    /// The assembled output.
    pub output: FigureOutput,
    /// The clock reading at the moment this figure's assembly finished.
    /// Under the graph scheduler figures overlap, so this is
    /// *time-to-ready from pipeline start*, not exclusive cost — the
    /// per-figure `wall_ms` the bench report documents.
    pub wall_ms: f64,
}

/// Everything [`Pipeline::run`] returns: figure outputs in submission
/// order plus the run's [`PipelineStats`].
#[derive(Debug)]
pub struct PipelineRun {
    /// One entry per submitted figure, in submission order.
    pub figures: Vec<FigureRun>,
    /// Dedup/liveness counters for the run.
    pub stats: PipelineStats,
}

/// The global job-graph scheduler. Submit every requested figure's
/// [`FigurePlan`], then [`Pipeline::run`] the union. See the module docs
/// for the execution model.
#[derive(Default)]
pub struct Pipeline {
    nodes: Vec<Node>,
    by_key: BTreeMap<String, usize>,
    figures: Vec<Planned>,
    submitted: usize,
    joins: u64,
    threads: Option<usize>,
}

impl Pipeline {
    /// An empty pipeline.
    pub fn new() -> Self {
        Pipeline::default()
    }

    /// Override the worker-thread count (defaults to `ASD_SWEEP_THREADS`
    /// or the machine's available parallelism, like [`Sweep`]).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Number of figures submitted so far.
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

    /// Add a figure to the graph. Each of its jobs is collapsed onto an
    /// existing node when its cache key matches one already submitted
    /// (by this or an earlier figure); uncacheable jobs always get fresh
    /// nodes. The figure's assembly runs as soon as its last node lands.
    pub fn submit(&mut self, plan: FigurePlan) {
        let FigurePlan { name, opts, jobs, assemble } = plan;
        let mut labels = Vec::with_capacity(jobs.len());
        let mut node_of_job = Vec::with_capacity(jobs.len());
        let mut deps: Vec<usize> = Vec::new();
        for job in jobs {
            self.submitted += 1;
            let node = match crate::cache::key(&job.cfg, &job.profile, &opts) {
                Some(key) => {
                    if let Some(&existing) = self.by_key.get(&key) {
                        self.joins += 1;
                        existing
                    } else {
                        let idx = self.nodes.len();
                        self.nodes.push(Node {
                            profile: job.profile,
                            cfg: job.cfg,
                            opts: opts.clone(),
                            label: job.label.clone(),
                        });
                        self.by_key.insert(key, idx);
                        idx
                    }
                }
                None => {
                    let idx = self.nodes.len();
                    self.nodes.push(Node {
                        profile: job.profile,
                        cfg: job.cfg,
                        opts: opts.clone(),
                        label: job.label.clone(),
                    });
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

    /// Execute the graph and assemble every figure, returning outputs in
    /// submission order. `clock` is sampled at each figure's assembly
    /// completion for its [`FigureRun::wall_ms`] (the `sim` crate takes
    /// an injected clock rather than reading time itself; pass
    /// `&|| 0.0` when timings are not needed).
    ///
    /// # Errors
    ///
    /// The earliest submission-order figure's earliest job-order
    /// [`SimError`] (matching [`Sweep::run`] semantics per figure), or
    /// the first figure's assembly error.
    pub fn run(self, clock: &(dyn Fn() -> f64 + Sync)) -> Result<PipelineRun, SimError> {
        let Pipeline { nodes, figures, submitted, joins, threads, .. } = self;
        let total = nodes.len();
        let workers = threads.unwrap_or_else(worker_count).clamp(1, total.max(1));

        let slots: Vec<ResultSlot> = (0..total).map(|_| Mutex::new(None)).collect();
        let outputs: Vec<OutputSlot> = figures.iter().map(|_| Mutex::new(None)).collect();
        let mut consumers_of: Vec<Vec<usize>> = vec![Vec::new(); total];
        for (f, fig) in figures.iter().enumerate() {
            for &n in &fig.deps {
                consumers_of[n].push(f);
            }
        }
        let mut track = Track {
            remaining: figures.iter().map(|f| f.deps.len()).collect(),
            failed: vec![false; figures.len()],
            consumers: figures.iter().flat_map(|f| f.deps.iter().copied()).fold(
                vec![0usize; total],
                |mut acc, n| {
                    acc[n] += 1;
                    acc
                },
            ),
            ready: Vec::new(),
            live: 0,
            peak: 0,
        };
        for (f, fig) in figures.iter().enumerate() {
            if fig.deps.is_empty() {
                track.ready.push(f);
            }
        }
        let exec = Exec {
            nodes: &nodes,
            figures: &figures,
            consumers_of: &consumers_of,
            slots: &slots,
            outputs: &outputs,
            track: &Mutex::new(track),
            chunker: &Chunker::new(total, workers),
            clock,
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
        // figure submission order, jobs in job order within each figure,
        // mirroring Sweep::run's earliest-push-order-error contract.
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
                // Unreachable: every figure either fails a dependency
                // (caught above) or is readied and assembled by the
                // worker that deposited its last node.
                // asd-lint: allow(D005) -- structurally unreachable; a panic here flags a scheduler bug loudly
                None => unreachable!("figure {} neither failed nor assembled", fig.name),
            }
        }
        let track = exec.track;
        // asd-lint: allow(D005) -- the scope joined all workers, so the tracker lock is not poisoned
        let peak = track.lock().expect("tracker poisoned").peak;
        Ok(PipelineRun {
            figures: out,
            stats: PipelineStats {
                figures: figures.len(),
                submitted_jobs: submitted,
                unique_jobs: total,
                inflight_joins: joins,
                peak_live_jobs: peak,
            },
        })
    }
}

type ResultSlot = Mutex<Option<Result<RunResult, SimError>>>;
type OutputSlot = Mutex<Option<(Result<FigureOutput, SimError>, f64)>>;

/// Mutable scheduling state shared by the workers, behind one mutex:
/// per-figure outstanding-dependency counts, per-node remaining-consumer
/// counts (for freeing results), the ready-to-assemble queue, and the
/// live-results high-water mark.
struct Track {
    remaining: Vec<usize>,
    failed: Vec<bool>,
    consumers: Vec<usize>,
    ready: Vec<usize>,
    live: usize,
    peak: usize,
}

/// The per-run executor the scoped workers share. Lock order: the
/// tracker mutex may be held while taking a node slot (freeing results),
/// but never the reverse — node deposits release the slot before
/// touching the tracker.
struct Exec<'a> {
    nodes: &'a [Node],
    figures: &'a [Planned],
    consumers_of: &'a [Vec<usize>],
    slots: &'a [ResultSlot],
    outputs: &'a [OutputSlot],
    track: &'a Mutex<Track>,
    chunker: &'a Chunker,
    clock: &'a (dyn Fn() -> f64 + Sync),
}

impl Exec<'_> {
    fn lock_track(&self) -> std::sync::MutexGuard<'_, Track> {
        // asd-lint: allow(D005) -- tracker poisoning means a sibling worker panicked mid-run; propagating is correct
        self.track.lock().expect("tracker poisoned")
    }

    /// Worker loop: prefer assembling ready figures (freeing their node
    /// results), otherwise claim and run a chunk of nodes. Exits when
    /// the node queue is drained and no figure is ready — any figure
    /// still pending at that point will be readied, and assembled, by
    /// the worker that deposits its last dependency.
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
                    // A deposit may have readied a figure between our
                    // pop and the drained claim; drain once more.
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

    /// Run node `index` and deposit its result, readying (or failing)
    /// any figure whose last dependency this was.
    fn run_node(&self, index: usize) {
        let node = &self.nodes[index];
        let result = run_custom(&node.profile, node.cfg.clone(), &node.label, &node.opts);
        let ok = result.is_ok();
        {
            // asd-lint: allow(D005) -- slot poisoning means a sibling worker panicked mid-run; propagating is correct
            let mut slot = self.slots[index].lock().expect("node slot poisoned");
            *slot = Some(result);
        }
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
                    // The figure will never assemble; free its Ok
                    // dependencies now (Err slots stay for the final
                    // error scan).
                    self.release_deps(&mut track, f);
                } else {
                    track.ready.push(f);
                }
            }
        }
    }

    /// Assemble figure `f` (all dependencies landed Ok): clone each
    /// job's node result re-stamped with the job's label, run the
    /// assembly closure, record the output and completion time, and
    /// release the figure's claim on its node results.
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
                _ => unreachable!("ready figure {} missing node {n}", fig.name),
            }
        }
        // asd-lint: allow(D005) -- assemble mutex poisoning means a sibling worker panicked mid-run; propagating is correct
        let assemble = self.figures[f].assemble.lock().expect("assemble slot poisoned").take();
        let Some(assemble) = assemble else { return };
        let output = assemble(&inputs);
        let wall_ms = (self.clock)();
        {
            // asd-lint: allow(D005) -- output poisoning means a sibling worker panicked mid-run; propagating is correct
            let mut out = self.outputs[f].lock().expect("figure output poisoned");
            *out = Some((output, wall_ms));
        }
        let mut track = self.lock_track();
        self.release_deps(&mut track, f);
    }

    /// Drop figure `f`'s claim on its dependency results; a node's Ok
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
