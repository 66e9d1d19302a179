//! The daemon core: a worker-pool accept loop over `std::net`, a pool
//! of executor threads draining the [`JobTable`], and the request
//! dispatcher.
//!
//! Connection handlers are a fixed pool of threads all blocked in
//! `accept` on the shared listener — no thread-per-connection growth —
//! and every job runs on one of `executors` executor threads (its
//! *simulations* fan out through the [`asd_sim::pipeline`] executor's
//! worker threads), so memory stays bounded no matter how many clients
//! connect: at most `queue_cap` queued specs plus `executors` running
//! jobs. Every job runs under the daemon's one [`RunContext`], built at
//! bind time. With more than one executor, concurrent jobs that request
//! the same simulation share it through its run cache's single-flight
//! registry: the first claimant simulates, the rest park and reuse its
//! result (the `stats` gauges `cache_flight_leads` /
//! `cache_flight_joins` count both sides).
//!
//! Shutdown is protocol-driven (`{"op":"shutdown"}`; the workspace
//! forbids `unsafe`, so there is no signal handler): the table flips to
//! draining, the executor finishes queued jobs, the read side of every
//! connection still open is shut down so that handlers blocked in a read
//! return at once (an idle client cannot hold the process for its read
//! timeout), handler threads are nudged out of `accept` by loopback
//! connections, and the persistent cache index is written before `run`
//! returns.

use crate::corpus::Corpus;
use crate::error::ServeError;
use crate::jobs::{JobSnapshot, JobTable};
use crate::proto::{
    self, err_obj, ok_obj, parse_spec, read_json, write_frame, write_json, JobSpec,
};
use asd_sim::pipeline::Pipeline;
use asd_sim::{RunContext, RunOpts};
use asd_telemetry::json::Value;
use asd_telemetry::{expo, names, Registry, TelemetryConfig, Unit};
use asd_trace::suites;
use std::collections::BTreeMap;
use std::io::BufReader;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// How the daemon is wired up.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen host (default loopback).
    pub host: String,
    /// Listen port; 0 picks an ephemeral port.
    pub port: u16,
    /// Connection-handler pool size.
    pub handlers: usize,
    /// Executor-thread pool size: jobs running concurrently. Beyond 1,
    /// overlapping jobs share identical simulations through the run
    /// cache's single-flight registry instead of repeating them.
    pub executors: usize,
    /// Job-queue cap ([`ServeError::Busy`] beyond it).
    pub queue_cap: usize,
    /// State root: the persistent run cache lives in `<root>/cache`, the
    /// trace corpus in `<root>/corpus`.
    pub root: PathBuf,
    /// Per-read socket timeout; idle connections are dropped after it.
    pub read_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            host: "127.0.0.1".to_string(),
            port: 0,
            handlers: 8,
            executors: 1,
            queue_cap: 64,
            root: PathBuf::from("target/asd-serve"),
            read_timeout: Duration::from_secs(30),
        }
    }
}

/// A bound daemon, ready to [`Server::run`].
pub struct Server {
    cfg: ServerConfig,
    ctx: RunContext,
    listener: TcpListener,
    table: Arc<JobTable>,
    corpus: Arc<Corpus>,
    conns: Arc<Connections>,
}

/// The connections the handlers are serving, so that the drain can end
/// their reads.
#[derive(Default)]
struct Connections {
    state: Mutex<ConnState>,
}

#[derive(Default)]
struct ConnState {
    closing: bool,
    next: u64,
    open: BTreeMap<u64, TcpStream>,
}

impl Connections {
    fn lock(&self) -> MutexGuard<'_, ConnState> {
        // The registry stays consistent under a panicking handler: every
        // update is a single insert, remove or flag store.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Whether the drain has begun; handlers stop accepting then.
    fn closing(&self) -> bool {
        self.lock().closing
    }

    /// Track a clone of `stream` until [`Connections::forget`]. `None`
    /// once the drain has begun (the caller drops the connection) or when
    /// the socket cannot be cloned.
    fn track(&self, stream: &TcpStream) -> Option<u64> {
        let mut state = self.lock();
        if state.closing {
            return None;
        }
        let clone = stream.try_clone().ok()?;
        let id = state.next;
        state.next += 1;
        state.open.insert(id, clone);
        Some(id)
    }

    fn forget(&self, id: u64) {
        self.lock().open.remove(&id);
    }

    /// Begin the drain: refuse new connections, and shut down the read
    /// side of every open one, so that a handler blocked in a read sees
    /// the end of its stream now. A response being written still goes
    /// out.
    fn close(&self) {
        let mut state = self.lock();
        state.closing = true;
        for stream in state.open.values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
    }
}

impl Server {
    /// Bind the listen socket and build the daemon's run context, whose
    /// run cache persists under `<root>/cache`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Bind`] when the address cannot be bound.
    pub fn bind(cfg: ServerConfig) -> Result<Server, ServeError> {
        let addr = format!("{}:{}", cfg.host, cfg.port);
        let listener = TcpListener::bind(&addr)
            .map_err(|e| ServeError::Bind { addr: addr.clone(), message: e.to_string() })?;
        let ctx = RunContext::default().with_disk_dir(cfg.root.join("cache"));
        let corpus = Arc::new(Corpus::new(cfg.root.join("corpus")));
        Ok(Server {
            ctx,
            table: Arc::new(JobTable::new(cfg.queue_cap)),
            conns: Arc::new(Connections::default()),
            listener,
            corpus,
            cfg,
        })
    }

    /// The bound address (resolves ephemeral ports).
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] if the socket has no local address.
    pub fn local_addr(&self) -> Result<SocketAddr, ServeError> {
        self.listener.local_addr().map_err(|e| ServeError::Io {
            context: "resolving listen address".to_string(),
            message: e.to_string(),
        })
    }

    /// Serve until a `shutdown` request completes the drain: queued jobs
    /// finish, open connections are ended, the disk-cache index is
    /// persisted, and every pool thread is joined.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] for listener-level failures.
    pub fn run(self) -> Result<(), ServeError> {
        let addr = self.local_addr()?;
        let Server { cfg, ctx, listener, table, corpus, conns } = self;
        let ctx = &ctx;
        let listener = Arc::new(listener);
        std::thread::scope(|scope| {
            let mut executors = Vec::new();
            for _ in 0..cfg.executors.max(1) {
                let table = Arc::clone(&table);
                executors.push(scope.spawn(move || {
                    while let Some((id, spec)) = table.claim_next() {
                        let outcome = execute(ctx, &spec, id, &table);
                        table.finish(id, outcome);
                    }
                }));
            }
            let mut handlers = Vec::new();
            for _ in 0..cfg.handlers.max(1) {
                let listener = Arc::clone(&listener);
                let table = Arc::clone(&table);
                let corpus = Arc::clone(&corpus);
                let conns = Arc::clone(&conns);
                let timeout = cfg.read_timeout;
                handlers.push(scope.spawn(move || {
                    while !conns.closing() {
                        let Ok((stream, _)) = listener.accept() else { continue };
                        let Some(id) = conns.track(&stream) else { break };
                        handle_conn(stream, timeout, ctx, &table, &corpus);
                        conns.forget(id);
                    }
                }));
            }
            // The executors return once a shutdown request drained the
            // queue. Then end every open connection's reads, and release
            // the accept pool: nudge each blocked accept with a loopback
            // connection, which the closing registry refuses.
            for executor in executors {
                let _ = executor.join();
            }
            conns.close();
            for _ in &handlers {
                let _ = TcpStream::connect(addr);
            }
        });
        match ctx.cache().persist_disk_index() {
            Ok(n) => eprintln!("asd-serve: persisted cache index ({n} entries)"),
            Err(e) => eprintln!("asd-serve: could not persist cache index: {e}"),
        }
        Ok(())
    }
}

/// Run one job spec under `ctx` to its result document. Shared by the
/// executor thread and (indirectly, through the same underlying drivers)
/// the CLI paths the bit-identity tests compare against.
fn execute(
    ctx: &RunContext,
    spec: &JobSpec,
    id: u64,
    table: &JobTable,
) -> Result<Value, ServeError> {
    let progress = |done: usize, total: usize| table.progress(id, done, total);
    match spec {
        JobSpec::Sweep { .. } => {
            let (opts, jobs) = proto::build_sweep(spec).map_err(ServeError::Sim)?;
            let run = Pipeline::sweep(ctx, &opts, jobs)
                .run_observed(&|| 0.0, &progress)
                .map_err(ServeError::Sim)?;
            let results: Vec<_> = run.figures.into_iter().flat_map(|f| f.output).collect();
            Ok(proto::sweep_doc(&results))
        }
        JobSpec::Figure { figure, .. } => {
            // Every simulation lands in the context's single-flight
            // registry, so two connections requesting overlapping figures
            // run each shared point once.
            let text = asd_sim::figures::figure_text(ctx, figure, &spec.opts())
                .map_err(ServeError::Sim)?;
            progress(1, 1);
            let mut doc = Value::obj();
            doc.set("kind", "figure");
            doc.set("figure", figure.clone());
            doc.set("text", text);
            Ok(doc)
        }
        JobSpec::Arena { engines, profiles, .. } => {
            let result =
                run_arena(ctx, engines, profiles, &spec.opts()).map_err(ServeError::Sim)?;
            progress(1, 1);
            let mut doc = Value::obj();
            doc.set("kind", "arena");
            doc.set("text", result.text.clone());
            if let Some(best) = result.rows.first() {
                doc.set("winner", best.engine.clone());
            }
            Ok(doc)
        }
    }
}

/// The arena exactly as the CLI runs it: empty roster/profile lists mean
/// the defaults.
fn run_arena(
    ctx: &RunContext,
    engines: &[String],
    profiles: &[String],
    opts: &RunOpts,
) -> Result<asd_sim::arena::ArenaResult, asd_sim::SimError> {
    let roster =
        if engines.is_empty() { asd_sim::arena::default_roster() } else { engines.to_vec() };
    let roster: Vec<&str> = roster.iter().map(String::as_str).collect();
    let profiles = if profiles.is_empty() {
        suites::all_profiles()
    } else {
        profiles
            .iter()
            .map(|n| {
                suites::by_name(n)
                    .ok_or_else(|| asd_sim::SimError::UnknownProfile { name: n.clone() })
            })
            .collect::<Result<Vec<_>, _>>()?
    };
    asd_sim::arena::arena_with(ctx, &roster, &profiles, opts)
}

fn snapshot_value(snap: &JobSnapshot) -> Value {
    let mut v = ok_obj();
    v.set("id", snap.id);
    v.set("state", snap.state.name());
    v.set("done", snap.done);
    v.set("total", snap.total);
    v
}

/// The `stats` response: job/queue/cache counters plus the `serve.*`
/// Prometheus exposition, all read from one telemetry snapshot so the
/// numbers and the text can never disagree.
fn stats_value(ctx: &RunContext, table: &JobTable) -> Value {
    let (accepted, completed, depth) = table.counts();
    let cache = ctx.cache();
    let (run_hits, run_misses) = cache.stats();
    let (disk_hits, disk_misses, disk_writes, disk_evictions) = cache.disk_stats();
    let (flight_leads, flight_joins) = cache.flight_stats();
    let mut tel = Registry::section("serve.", &TelemetryConfig::metrics_only());
    let metrics = [
        ("jobs_accepted", "jobs accepted into the queue", accepted),
        ("jobs_completed", "jobs run to a terminal state", completed),
        ("queue_depth", "jobs currently queued", depth as u64),
        ("cache_run_hits", "runs served from the memory or disk cache", run_hits),
        ("cache_run_misses", "runs actually simulated", run_misses),
        ("cache_disk_hits", "runs served from the persistent disk tier", disk_hits),
        ("cache_disk_misses", "disk-tier lookups that missed", disk_misses),
        ("cache_disk_writes", "records written to the disk tier", disk_writes),
        ("cache_disk_evictions", "corrupt disk records evicted", disk_evictions),
        ("cache_flight_leads", "cacheable runs this process simulated as single-flight leader", {
            flight_leads
        }),
        ("cache_flight_joins", "runs that joined another caller's in-flight simulation", {
            flight_joins
        }),
    ];
    for (metric, help, v) in metrics {
        tel.fill_gauge(&names::serve_metric(metric), Unit::Events, help, v as f64);
    }
    let snap = tel.snapshot();
    let mut v = ok_obj();
    for (metric, ..) in metrics {
        v.set(metric, snap.gauge(&format!("serve.{metric}")).unwrap_or(0.0));
    }
    v.set("disk_entries", cache.disk_entry_count());
    v.set("prom", expo::prom::render(&snap));
    v
}

fn terminal_value(snap: &JobSnapshot) -> Value {
    match (&snap.result, &snap.error) {
        (Some(doc), _) => {
            let mut v = snapshot_value(snap);
            v.set("result", doc.clone());
            v
        }
        (None, Some(e)) => {
            let mut v = err_obj(e);
            v.set("state", snap.state.name());
            v
        }
        (None, None) => {
            let mut v = snapshot_value(snap);
            v.set("ok", snap.state.name() == "cancelled");
            v
        }
    }
}

/// Serve one connection: a request/response loop over frames until the
/// peer closes, errs, or asks for shutdown.
fn handle_conn(
    stream: TcpStream,
    timeout: Duration,
    ctx: &RunContext,
    table: &JobTable,
    corpus: &Corpus,
) {
    let _ = stream.set_read_timeout(Some(timeout));
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    loop {
        let request = match read_json(&mut reader) {
            Ok(Some(v)) => v,
            Ok(None) => return,
            Err(e) => {
                // Structured error response, then drop the connection —
                // after a framing violation the stream position is
                // unreliable.
                let _ = write_json(&mut writer, &err_obj(&e));
                return;
            }
        };
        let response = dispatch(&request, &mut reader, &mut writer, ctx, table, corpus);
        match response {
            Ok(Some(v)) => {
                if write_json(&mut writer, &v).is_err() {
                    return;
                }
            }
            Ok(None) => {} // the op wrote its own frames (watch/trace-get)
            Err(e) => {
                if write_json(&mut writer, &err_obj(&e)).is_err() {
                    return;
                }
            }
        }
    }
}

/// Handle one request. `Ok(Some(v))` sends `v`; `Ok(None)` means the op
/// already wrote its response frames; `Err(e)` sends the structured
/// error.
fn dispatch(
    request: &Value,
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    ctx: &RunContext,
    table: &JobTable,
    corpus: &Corpus,
) -> Result<Option<Value>, ServeError> {
    let op = request.str_field("op").ok_or_else(|| ServeError::MalformedRequest {
        message: "request needs an `op` field".to_string(),
    })?;
    let id_of = |request: &Value| {
        request.u64_field("id").ok_or_else(|| ServeError::MalformedRequest {
            message: format!("`{op}` needs a numeric `id`"),
        })
    };
    match op {
        "ping" => {
            let mut v = ok_obj();
            v.set("pong", true);
            v.set("version", env!("CARGO_PKG_VERSION"));
            Ok(Some(v))
        }
        "submit" => {
            let job = request.get("job").ok_or_else(|| ServeError::MalformedRequest {
                message: "`submit` needs a `job` spec".to_string(),
            })?;
            let spec = parse_spec(job)?;
            let id = table.submit(spec)?;
            let mut v = ok_obj();
            v.set("id", id);
            Ok(Some(v))
        }
        "status" => Ok(Some(snapshot_value(&table.status(id_of(request)?)?))),
        "result" => {
            let snap = table.status(id_of(request)?)?;
            if !snap.state.terminal() {
                return Err(ServeError::MalformedRequest {
                    message: format!(
                        "job {} is not finished (state {})",
                        snap.id,
                        snap.state.name()
                    ),
                });
            }
            Ok(Some(terminal_value(&snap)))
        }
        "wait" => {
            let snap = table.wait_terminal(id_of(request)?, |_| true)?;
            Ok(Some(terminal_value(&snap)))
        }
        "watch" => {
            let id = id_of(request)?;
            let ok = std::cell::Cell::new(true);
            let snap = table.wait_terminal(id, |s| {
                let mut ev = Value::obj();
                ev.set("event", "progress");
                ev.set("id", s.id);
                ev.set("state", s.state.name());
                ev.set("done", s.done);
                ev.set("total", s.total);
                let sent = write_json(writer, &ev).is_ok();
                ok.set(sent);
                sent
            })?;
            if !ok.get() {
                return Ok(None); // peer went away mid-stream
            }
            let mut end = terminal_value(&snap);
            end.set("event", "end");
            Ok(Some(end))
        }
        "cancel" => {
            let state = table.cancel(id_of(request)?)?;
            let mut v = ok_obj();
            v.set("state", state.name());
            Ok(Some(v))
        }
        "stats" => Ok(Some(stats_value(ctx, table))),
        "trace-put" => {
            let name = request.str_field("name").ok_or_else(|| ServeError::MalformedRequest {
                message: "`trace-put` needs a `name`".to_string(),
            })?;
            let bytes = proto::read_frame(reader)?.ok_or_else(|| ServeError::MalformedRequest {
                message: "`trace-put` needs a binary payload frame".to_string(),
            })?;
            let accesses = corpus.put(name, &bytes)?;
            let mut v = ok_obj();
            v.set("name", name);
            v.set("accesses", accesses);
            Ok(Some(v))
        }
        "trace-list" => {
            let traces = corpus
                .list()
                .into_iter()
                .map(|t| {
                    let mut v = Value::obj();
                    v.set("name", t.name);
                    v.set("bytes", t.bytes);
                    v.set("profile", t.profile);
                    v.set("accesses", t.accesses);
                    v.set("threads", u64::from(t.threads));
                    v
                })
                .collect();
            let mut v = ok_obj();
            v.set("traces", Value::Arr(traces));
            Ok(Some(v))
        }
        "trace-get" => {
            let name = request.str_field("name").ok_or_else(|| ServeError::MalformedRequest {
                message: "`trace-get` needs a `name`".to_string(),
            })?;
            let bytes = corpus.get(name)?;
            let mut v = ok_obj();
            v.set("name", name);
            v.set("bytes", bytes.len());
            write_json(writer, &v)?;
            write_frame(writer, &bytes)?;
            Ok(None)
        }
        "shutdown" => {
            table.begin_shutdown();
            let mut v = ok_obj();
            v.set("draining", true);
            Ok(Some(v))
        }
        other => Err(ServeError::MalformedRequest { message: format!("unknown op `{other}`") }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_failure_is_typed() {
        // 300.0.0.1 is not a parseable IPv4 address, so the bind fails
        // on every platform without touching the network.
        let cfg = ServerConfig { host: "300.0.0.1".to_string(), port: 1, ..Default::default() };
        match Server::bind(cfg) {
            Err(ServeError::Bind { addr, .. }) => assert!(addr.contains("300.0.0.1")),
            other => panic!("expected bind error, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn stats_value_carries_prom_exposition() {
        let table = JobTable::new(4);
        let v = stats_value(&RunContext::default(), &table);
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        let prom = v.str_field("prom").unwrap_or_default();
        assert!(prom.contains("serve.jobs_accepted") || prom.contains("serve_jobs_accepted"));
        assert!(expo::prom::validate(prom).is_ok(), "exposition must validate");
    }

    #[test]
    fn execute_runs_figure_jobs() {
        let table = JobTable::new(4);
        let id = table
            .submit(JobSpec::Figure { figure: "cost".to_string(), accesses: 1_000, seed: 1 })
            .unwrap();
        let (claimed, spec) = table.claim_next().unwrap();
        assert_eq!(claimed, id);
        let doc = execute(&RunContext::default(), &spec, id, &table).unwrap();
        let text = doc.str_field("text").unwrap_or_default();
        assert_eq!(text, asd_sim::figures::hardware_cost_table());
    }
}
