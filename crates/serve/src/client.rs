//! Blocking protocol client, daemon process helpers, and the load-test
//! harness behind `asd-serve bench`.
//!
//! [`Client`] speaks the frame protocol of [`crate::proto`] over one
//! persistent TCP connection; server-side failures come back as the same
//! typed [`ServeError`] values the daemon raised (reconstructed from the
//! structured error object). [`load_bench`] fires a duplicate-heavy mix
//! of concurrent sweep requests at a daemon and checks **every**
//! response bit-for-bit against a direct in-process run of the same
//! spec ([`reference_doc`]) — the daemon and its cache tiers must be
//! invisible in the bytes.

use crate::error::ServeError;
use crate::proto::{
    build_sweep, err_of_value, read_frame, read_json, sweep_doc, write_frame, write_json, JobSpec,
};
use asd_sim::pipeline::Pipeline;
use asd_sim::RunContext;
use asd_telemetry::json::Value;
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

fn op(name: &str) -> Value {
    let mut v = Value::obj();
    v.set("op", name);
    v
}

fn with_id(name: &str, id: u64) -> Value {
    let mut v = op(name);
    v.set("id", id);
    v
}

/// A blocking connection to an `asd-serve` daemon.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect to `addr` (`host:port`).
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the connection cannot be established.
    pub fn connect(addr: &str) -> Result<Client, ServeError> {
        let io =
            |message: String| ServeError::Io { context: format!("connecting to {addr}"), message };
        let writer = TcpStream::connect(addr).map_err(|e| io(e.to_string()))?;
        let _ = writer.set_nodelay(true);
        let read_half = writer.try_clone().map_err(|e| io(e.to_string()))?;
        Ok(Client { reader: BufReader::new(read_half), writer })
    }

    /// Send one raw request object and read one response frame.
    /// Responses carrying `"ok": false` come back as the reconstructed
    /// typed error.
    ///
    /// # Errors
    ///
    /// Transport failures as [`ServeError::Io`]; server-side failures as
    /// the error the daemon reported.
    pub fn request(&mut self, req: &Value) -> Result<Value, ServeError> {
        write_json(&mut self.writer, req)?;
        self.read_response()
    }

    fn read_response(&mut self) -> Result<Value, ServeError> {
        match read_json(&mut self.reader)? {
            Some(v) => {
                if v.get("ok").and_then(Value::as_bool) == Some(false) {
                    Err(err_of_value(&v))
                } else {
                    Ok(v)
                }
            }
            None => Err(ServeError::Io {
                context: "reading response".to_string(),
                message: "server closed the connection".to_string(),
            }),
        }
    }

    /// Health check; returns the daemon's version string.
    ///
    /// # Errors
    ///
    /// As [`Client::request`].
    pub fn ping(&mut self) -> Result<String, ServeError> {
        let v = self.request(&op("ping"))?;
        Ok(v.str_field("version").unwrap_or("unknown").to_string())
    }

    /// Submit a job; returns its id.
    ///
    /// # Errors
    ///
    /// [`ServeError::Busy`] at queue capacity, [`ServeError::ShuttingDown`]
    /// while draining, [`ServeError::MalformedRequest`] for bad specs.
    pub fn submit(&mut self, spec: &JobSpec) -> Result<u64, ServeError> {
        let mut req = op("submit");
        req.set("job", spec.to_value());
        let v = self.request(&req)?;
        v.u64_field("id").ok_or_else(|| ServeError::MalformedRequest {
            message: "submit response carried no job id".to_string(),
        })
    }

    /// One progress/terminal snapshot of a job.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownJob`] for ids the daemon never issued.
    pub fn status(&mut self, id: u64) -> Result<Value, ServeError> {
        self.request(&with_id("status", id))
    }

    /// Block until the job is terminal; returns the final document
    /// (result embedded under `"result"`).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownJob`], or the job's own failure.
    pub fn wait(&mut self, id: u64) -> Result<Value, ServeError> {
        self.request(&with_id("wait", id))
    }

    /// Stream progress events until the job is terminal; `on_event`
    /// fires per event, and the terminal document is returned.
    ///
    /// # Errors
    ///
    /// As [`Client::wait`].
    pub fn watch(
        &mut self,
        id: u64,
        mut on_event: impl FnMut(&Value),
    ) -> Result<Value, ServeError> {
        write_json(&mut self.writer, &with_id("watch", id))?;
        loop {
            let v = self.read_response()?;
            if v.str_field("event") == Some("end") {
                return Ok(v);
            }
            on_event(&v);
        }
    }

    /// Fetch a finished job's document without blocking.
    ///
    /// # Errors
    ///
    /// [`ServeError::MalformedRequest`] if the job is still running.
    pub fn result(&mut self, id: u64) -> Result<Value, ServeError> {
        self.request(&with_id("result", id))
    }

    /// Cancel a queued job; returns its resulting state name.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownJob`] for ids the daemon never issued.
    pub fn cancel(&mut self, id: u64) -> Result<String, ServeError> {
        let v = self.request(&with_id("cancel", id))?;
        Ok(v.str_field("state").unwrap_or("unknown").to_string())
    }

    /// The daemon's counter snapshot plus its `serve.*` Prometheus
    /// exposition.
    ///
    /// # Errors
    ///
    /// As [`Client::request`].
    pub fn server_stats(&mut self) -> Result<Value, ServeError> {
        self.request(&op("stats"))
    }

    /// Ask the daemon to drain and exit.
    ///
    /// # Errors
    ///
    /// As [`Client::request`].
    pub fn shutdown(&mut self) -> Result<Value, ServeError> {
        self.request(&op("shutdown"))
    }

    /// Upload a trace into the corpus; returns its verified access
    /// count.
    ///
    /// # Errors
    ///
    /// [`ServeError::Corpus`] for bad names or payloads that fail
    /// verification.
    pub fn trace_put(&mut self, name: &str, bytes: &[u8]) -> Result<u64, ServeError> {
        let mut req = op("trace-put");
        req.set("name", name);
        write_json(&mut self.writer, &req)?;
        write_frame(&mut self.writer, bytes)?;
        let v = self.read_response()?;
        Ok(v.u64_field("accesses").unwrap_or(0))
    }

    /// List the stored traces (the `"traces"` array).
    ///
    /// # Errors
    ///
    /// As [`Client::request`].
    pub fn trace_list(&mut self) -> Result<Value, ServeError> {
        self.request(&op("trace-list"))
    }

    /// Download a stored trace's bytes.
    ///
    /// # Errors
    ///
    /// [`ServeError::Corpus`] for unknown names.
    pub fn trace_get(&mut self, name: &str) -> Result<Vec<u8>, ServeError> {
        let mut req = op("trace-get");
        req.set("name", name);
        write_json(&mut self.writer, &req)?;
        self.read_response()?;
        read_frame(&mut self.reader)?.ok_or_else(|| ServeError::Io {
            context: "reading trace payload".to_string(),
            message: "server closed the connection mid-download".to_string(),
        })
    }
}

/// The stdout banner `asd-serve serve` prints once bound; process
/// helpers and tests parse the address off it.
pub const LISTEN_BANNER: &str = "asd-serve listening on ";

/// A daemon subprocess spawned through [`spawn_daemon`].
pub struct DaemonHandle {
    child: Child,
    // Held open so the child never sees a closed stdout pipe.
    _stdout: BufReader<ChildStdout>,
    /// The bound address parsed from the listen banner.
    pub addr: String,
}

/// Spawn `program serve <args>` and wait for its listen banner.
///
/// # Errors
///
/// [`ServeError::Io`] if the process cannot be spawned or never prints
/// the banner (e.g. it exited with a bind failure).
pub fn spawn_daemon(program: &Path, args: &[&str]) -> Result<DaemonHandle, ServeError> {
    let fail = |message: String| ServeError::Io {
        context: format!("spawning daemon {}", program.display()),
        message,
    };
    let mut child = Command::new(program)
        .arg("serve")
        .args(args)
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| fail(e.to_string()))?;
    let Some(out) = child.stdout.take() else {
        let _ = child.kill();
        return Err(fail("no stdout pipe".to_string()));
    };
    let mut reader = BufReader::new(out);
    let mut line = String::new();
    reader.read_line(&mut line).map_err(|e| fail(e.to_string()))?;
    let Some(addr) = line.trim().strip_prefix(LISTEN_BANNER) else {
        let _ = child.kill();
        let _ = child.wait();
        return Err(fail(format!("expected listen banner, got {line:?}")));
    };
    Ok(DaemonHandle { addr: addr.to_string(), _stdout: reader, child })
}

impl DaemonHandle {
    /// Request a graceful drain and wait for the process to exit;
    /// returns its exit code.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] if the daemon cannot be reached or waited on.
    pub fn shutdown(mut self) -> Result<i32, ServeError> {
        let mut client = Client::connect(&self.addr)?;
        client.shutdown()?;
        drop(client);
        let status = self.child.wait().map_err(|e| ServeError::Io {
            context: "waiting for daemon exit".to_string(),
            message: e.to_string(),
        })?;
        Ok(status.code().unwrap_or(-1))
    }

    /// Wait for the daemon to exit on its own (after a `shutdown`
    /// request some client already sent); returns its exit code.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] if the process cannot be waited on.
    pub fn wait_exit(mut self) -> Result<i32, ServeError> {
        let status = self.child.wait().map_err(|e| ServeError::Io {
            context: "waiting for daemon exit".to_string(),
            message: e.to_string(),
        })?;
        Ok(status.code().unwrap_or(-1))
    }

    /// Kill the daemon without draining (test teardown for failure
    /// paths).
    pub fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The duplicate-heavy spec mix the load harness fires: four distinct
/// (benchmark, config) sweeps, so a run of N requests contains N/4
/// duplicates of each — exactly the shape a run cache exists for.
pub fn bench_specs(accesses: u64) -> Vec<JobSpec> {
    [("milc", "NP"), ("milc", "PMS"), ("lbm", "PS"), ("tpcc", "MS")]
        .iter()
        .map(|(bench, config)| JobSpec::Sweep {
            benchmarks: vec![(*bench).to_string()],
            configs: vec![(*config).to_string()],
            accesses,
            seed: 7,
            smt: false,
        })
        .collect()
}

/// The reference document for `spec`, computed directly: the
/// [`build_sweep`] job list run as a [`Pipeline::sweep`] in this process,
/// on a fresh [`RunContext`], exactly as the daemon runs it. The rendered
/// string the daemon's response must match byte for byte.
///
/// # Errors
///
/// [`ServeError::Sim`] if the spec cannot build or the run fails.
pub fn reference_doc(spec: &JobSpec) -> Result<String, ServeError> {
    let (opts, jobs) = build_sweep(spec).map_err(ServeError::Sim)?;
    let results =
        Pipeline::sweep(&RunContext::default(), &opts, jobs).results().map_err(ServeError::Sim)?;
    Ok(sweep_doc(&results).render())
}

/// Load-harness knobs.
#[derive(Debug, Clone)]
pub struct BenchOpts {
    /// Concurrent client connections.
    pub clients: usize,
    /// Requests each client issues on its connection.
    pub requests_per_client: usize,
    /// Access budget per simulated run (small: the harness measures the
    /// daemon, not the simulator).
    pub accesses: u64,
}

impl Default for BenchOpts {
    fn default() -> Self {
        BenchOpts { clients: 100, requests_per_client: 3, accesses: 2_000 }
    }
}

/// What [`load_bench`] measured.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Concurrent connections used.
    pub clients: usize,
    /// Total requests issued.
    pub requests: usize,
    /// Responses that were not bit-identical to the local reference.
    pub mismatches: usize,
    /// Typed `Busy` rejections absorbed by retry.
    pub busy_retries: u64,
    /// Wall-clock seconds for the whole load phase.
    pub seconds: f64,
    /// The daemon's `stats` document after the load.
    pub stats: Value,
}

impl BenchReport {
    /// Requests per second over the load phase.
    pub fn throughput(&self) -> f64 {
        if self.seconds > 0.0 {
            self.requests as f64 / self.seconds
        } else {
            0.0
        }
    }

    fn stat(&self, key: &str) -> f64 {
        self.stats.get(key).and_then(Value::as_f64).unwrap_or(0.0)
    }

    /// Hits over lookups in the persistent disk tier (0.0 when the tier
    /// was never consulted, i.e. everything hit in memory).
    pub fn disk_hit_rate(&self) -> f64 {
        let hits = self.stat("cache_disk_hits");
        let lookups = hits + self.stat("cache_disk_misses");
        if lookups > 0.0 {
            hits / lookups
        } else {
            0.0
        }
    }

    /// The human-readable report `asd-serve bench` prints.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "asd-serve bench: {} clients x {} requests = {} total\n",
            self.clients,
            self.requests / self.clients.max(1),
            self.requests
        ));
        out.push_str(&format!("  wall time        : {:.3} s\n", self.seconds));
        out.push_str(&format!("  throughput       : {:.1} req/s\n", self.throughput()));
        out.push_str(&format!("  bit mismatches   : {}\n", self.mismatches));
        out.push_str(&format!("  busy retries     : {}\n", self.busy_retries));
        out.push_str(&format!(
            "  run cache        : {} hits / {} misses\n",
            self.stat("cache_run_hits"),
            self.stat("cache_run_misses")
        ));
        out.push_str(&format!(
            "  disk tier        : {} hits / {} misses / {} writes ({:.0}% hit rate)\n",
            self.stat("cache_disk_hits"),
            self.stat("cache_disk_misses"),
            self.stat("cache_disk_writes"),
            self.disk_hit_rate() * 100.0
        ));
        out
    }
}

fn connect_retry(addr: &str) -> Result<Client, ServeError> {
    for _ in 0..50 {
        if let Ok(c) = Client::connect(addr) {
            return Ok(c);
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    Client::connect(addr)
}

fn client_session(
    addr: &str,
    lane: usize,
    per_client: usize,
    specs: &[JobSpec],
    expected: &[String],
) -> Result<(usize, u64), ServeError> {
    let mut client = connect_retry(addr)?;
    let mut mismatches = 0;
    let mut busy = 0u64;
    for i in 0..per_client {
        let k = (lane + i) % specs.len();
        let id = loop {
            match client.submit(&specs[k]) {
                Ok(id) => break id,
                Err(ServeError::Busy { .. }) => {
                    busy += 1;
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(e),
            }
        };
        let resp = client.wait(id)?;
        let got = resp.get("result").map(|v| v.render()).unwrap_or_default();
        if got != expected[k] {
            mismatches += 1;
        }
    }
    Ok((mismatches, busy))
}

/// Fire `opts.clients` concurrent connections at the daemon on `addr`,
/// each issuing `opts.requests_per_client` submit+wait round trips over
/// the duplicate-heavy [`bench_specs`] mix, and check every response
/// bit-for-bit against [`reference_doc`].
///
/// # Errors
///
/// The first transport or job failure any client hit; bit mismatches
/// are *not* errors — they are counted in the report so the caller can
/// decide (the `bench` subcommand exits nonzero on any).
pub fn load_bench(addr: &str, opts: &BenchOpts) -> Result<BenchReport, ServeError> {
    let specs = bench_specs(opts.accesses);
    let mut expected = Vec::new();
    for spec in &specs {
        expected.push(reference_doc(spec)?);
    }
    let clients = opts.clients.max(1);
    let per_client = opts.requests_per_client.max(1);
    // asd-lint: allow(D001) -- the harness reports real wall-clock throughput; no simulated result depends on it
    let start = std::time::Instant::now();
    let outcomes: Vec<Result<(usize, u64), ServeError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|lane| {
                let specs = &specs;
                let expected = &expected;
                scope.spawn(move || client_session(addr, lane, per_client, specs, expected))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    Err(ServeError::Io {
                        context: "joining bench client".to_string(),
                        message: "client thread panicked".to_string(),
                    })
                })
            })
            .collect()
    });
    let seconds = start.elapsed().as_secs_f64();
    let mut mismatches = 0;
    let mut busy_retries = 0u64;
    for outcome in outcomes {
        let (m, b) = outcome?;
        mismatches += m;
        busy_retries += b;
    }
    let stats = connect_retry(addr)?.server_stats()?;
    Ok(BenchReport {
        clients,
        requests: clients * per_client,
        mismatches,
        busy_retries,
        seconds,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Server, ServerConfig};

    /// A test daemon's state root, removed when the test ends, also when
    /// it fails.
    struct StateRoot(std::path::PathBuf);

    impl Drop for StateRoot {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// A daemon on an ephemeral port with a fresh state root.
    fn in_process_server(queue_cap: usize) -> (String, std::thread::JoinHandle<()>, StateRoot) {
        let root = StateRoot(
            std::env::temp_dir()
                .join(format!("asd-serve-client-test-{}-{queue_cap}", std::process::id())),
        );
        let _ = std::fs::remove_dir_all(&root.0);
        let cfg = ServerConfig { queue_cap, root: root.0.clone(), ..Default::default() };
        let server = Server::bind(cfg).expect("bind ephemeral");
        let addr = server.local_addr().expect("local addr").to_string();
        let handle = std::thread::spawn(move || {
            server.run().expect("server run");
        });
        (addr, handle, root)
    }

    /// Join a shut-down daemon and check that its state root goes with it.
    fn join_and_clean(handle: std::thread::JoinHandle<()>, root: StateRoot) {
        handle.join().expect("server thread");
        let path = root.0.clone();
        drop(root);
        assert!(!path.exists(), "state root {} left behind", path.display());
    }

    #[test]
    fn client_roundtrip_is_bit_identical_and_errors_are_typed() {
        let (addr, handle, root) = in_process_server(8);
        let mut client = Client::connect(&addr).expect("connect");
        assert_eq!(client.ping().expect("ping"), env!("CARGO_PKG_VERSION"));

        let spec = &bench_specs(1_200)[0];
        let id = client.submit(spec).expect("submit");
        let resp = client.wait(id).expect("wait");
        let got = resp.get("result").map(|v| v.render()).unwrap_or_default();
        assert_eq!(got, reference_doc(spec).expect("reference"), "daemon must be bit-identical");
        let again = client.result(id).expect("result replay");
        assert_eq!(again.get("result").map(|v| v.render()).unwrap_or_default(), got);

        match client.status(999_999) {
            Err(ServeError::UnknownJob { .. }) => {}
            other => panic!("expected UnknownJob, got {other:?}"),
        }
        let mut bogus = Value::obj();
        bogus.set("op", "teleport");
        match client.request(&bogus) {
            Err(ServeError::MalformedRequest { .. }) => {}
            other => panic!("expected MalformedRequest, got {other:?}"),
        }

        client.shutdown().expect("shutdown");
        drop(client);
        join_and_clean(handle, root);
    }

    #[test]
    fn load_bench_runs_clean_against_in_process_server() {
        let (addr, handle, root) = in_process_server(64);
        let opts = BenchOpts { clients: 8, requests_per_client: 2, accesses: 1_100 };
        let report = load_bench(&addr, &opts).expect("load bench");
        assert_eq!(report.requests, 16);
        assert_eq!(report.mismatches, 0, "every response must be bit-identical");
        assert!(report.throughput() >= 0.0);
        assert!(!report.render().is_empty());
        Client::connect(&addr).expect("connect").shutdown().expect("shutdown");
        join_and_clean(handle, root);
    }
}
