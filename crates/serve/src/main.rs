//! CLI entry point for `asd-serve`. Usage:
//!
//! ```text
//! asd-serve serve [--host H] [--port P] [--handlers N] [--executors N]
//!                 [--queue-cap N] [--dir PATH] [--read-timeout SECS]
//! asd-serve client ADDR OP [ARGS...]
//! asd-serve bench [--clients N] [--requests N] [--accesses N] [--dir PATH]
//! ```
//!
//! Exit codes: 0 success, 1 runtime/job failures (a job errored, a bench
//! found mismatches), 2 usage and startup errors (bad flags, bind
//! failure, malformed specs).

#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

use asd_serve::client::{spawn_daemon, BenchOpts, Client, LISTEN_BANNER};
use asd_serve::{Server, ServerConfig};
use asd_telemetry::json::{self, Value};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

fn usage() -> ExitCode {
    eprintln!("asd-serve: sweep daemon with a persistent run cache");
    eprintln!("usage:");
    eprintln!("  asd-serve serve [--host H] [--port P] [--handlers N] [--executors N]");
    eprintln!("                  [--queue-cap N] [--dir PATH] [--read-timeout SECS]");
    eprintln!("  asd-serve client ADDR OP [ARGS...]");
    eprintln!("      ops: ping | stats | shutdown | trace-list");
    eprintln!("           submit JSON | status ID | result ID | wait ID | watch ID | cancel ID");
    eprintln!("           trace-put NAME FILE | trace-get NAME FILE");
    eprintln!("  asd-serve bench [--clients N] [--requests N] [--accesses N] [--dir PATH]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => cmd_serve(&args[1..]),
        Some("client") => cmd_client(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        _ => usage(),
    }
}

/// Parse `--flag VALUE` pairs; returns None (usage error) on unknown
/// flags or missing/bad values.
fn parse_flags(args: &[String], known: &[&str]) -> Option<Vec<(String, String)>> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !known.contains(&flag.as_str()) {
            eprintln!("asd-serve: unknown flag `{flag}`");
            return None;
        }
        let Some(value) = it.next() else {
            eprintln!("asd-serve: `{flag}` requires a value");
            return None;
        };
        out.push((flag.clone(), value.clone()));
    }
    Some(out)
}

fn numeric<T: std::str::FromStr>(flag: &str, value: &str) -> Option<T> {
    match value.parse() {
        Ok(v) => Some(v),
        Err(_) => {
            eprintln!("asd-serve: `{flag}` needs a number, got `{value}`");
            None
        }
    }
}

fn cmd_serve(args: &[String]) -> ExitCode {
    let known =
        ["--host", "--port", "--handlers", "--executors", "--queue-cap", "--dir", "--read-timeout"];
    let Some(flags) = parse_flags(args, &known) else {
        return usage();
    };
    let mut cfg = ServerConfig::default();
    for (flag, value) in flags {
        let ok = match flag.as_str() {
            "--host" => {
                cfg.host = value;
                true
            }
            "--port" => numeric(&flag, &value).map(|p| cfg.port = p).is_some(),
            "--handlers" => numeric(&flag, &value).map(|n| cfg.handlers = n).is_some(),
            "--executors" => numeric(&flag, &value).map(|n| cfg.executors = n).is_some(),
            "--queue-cap" => numeric(&flag, &value).map(|n| cfg.queue_cap = n).is_some(),
            "--dir" => {
                cfg.root = PathBuf::from(value);
                true
            }
            "--read-timeout" => numeric(&flag, &value)
                .map(|s: u64| cfg.read_timeout = Duration::from_secs(s))
                .is_some(),
            _ => false,
        };
        if !ok {
            return usage();
        }
    }
    let server = match Server::bind(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("asd-serve: {e}");
            return ExitCode::from(2);
        }
    };
    let addr = match server.local_addr() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("asd-serve: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{LISTEN_BANNER}{addr}");
    let _ = std::io::stdout().flush();
    match server.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("asd-serve: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_client(args: &[String]) -> ExitCode {
    let (Some(addr), Some(op)) = (args.first(), args.get(1)) else {
        return usage();
    };
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("asd-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    let arg = args.get(2).map(String::as_str);
    let id_arg = || -> Option<u64> { arg.and_then(|a| a.parse().ok()) };
    let outcome = match (op.as_str(), arg) {
        ("ping", _) => client.request(&op_obj("ping")),
        ("stats", _) => client.server_stats(),
        ("shutdown", _) => client.shutdown(),
        ("trace-list", _) => client.trace_list(),
        ("submit", Some(spec_text)) => match json::parse(spec_text) {
            Ok(job) => {
                let mut req = op_obj("submit");
                req.set("job", job);
                client.request(&req)
            }
            Err(e) => {
                eprintln!("asd-serve: bad job spec: {e}");
                return usage();
            }
        },
        ("status" | "result" | "wait" | "cancel", Some(_)) => match id_arg() {
            Some(id) => {
                let mut req = op_obj(op);
                req.set("id", id);
                client.request(&req)
            }
            None => return usage(),
        },
        ("watch", Some(_)) => match id_arg() {
            Some(id) => client.watch(id, |event| println!("{}", event.render())),
            None => return usage(),
        },
        ("trace-put", Some(name)) => match args.get(3).map(std::fs::read) {
            Some(Ok(bytes)) => client.trace_put(name, &bytes).map(|accesses| {
                let mut v = Value::obj();
                v.set("ok", true);
                v.set("accesses", accesses);
                v
            }),
            Some(Err(e)) => {
                eprintln!("asd-serve: cannot read trace file: {e}");
                return ExitCode::FAILURE;
            }
            None => return usage(),
        },
        ("trace-get", Some(name)) => {
            let Some(path) = args.get(3) else {
                return usage();
            };
            match client.trace_get(name) {
                Ok(bytes) => match std::fs::write(path, &bytes) {
                    Ok(()) => {
                        let mut v = Value::obj();
                        v.set("ok", true);
                        v.set("bytes", bytes.len());
                        Ok(v)
                    }
                    Err(e) => {
                        eprintln!("asd-serve: cannot write {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                },
                Err(e) => Err(e),
            }
        }
        _ => return usage(),
    };
    match outcome {
        Ok(v) => {
            println!("{}", v.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("asd-serve: {e}");
            ExitCode::FAILURE
        }
    }
}

fn op_obj(name: &str) -> Value {
    let mut v = Value::obj();
    v.set("op", name);
    v
}

/// Two-phase load test: warm a fresh daemon's disk cache, restart it,
/// then fire the concurrent duplicate-heavy load at the warm-disk
/// daemon. Exits 1 on any bit mismatch, and 1 if the restarted daemon
/// simulated anything at all (the disk tier must serve every run).
fn cmd_bench(args: &[String]) -> ExitCode {
    let known = ["--clients", "--requests", "--accesses", "--dir"];
    let Some(flags) = parse_flags(args, &known) else {
        return usage();
    };
    let mut opts = BenchOpts::default();
    let mut dir: Option<PathBuf> = None;
    for (flag, value) in flags {
        let ok = match flag.as_str() {
            "--clients" => numeric(&flag, &value).map(|n| opts.clients = n).is_some(),
            "--requests" => numeric(&flag, &value).map(|n| opts.requests_per_client = n).is_some(),
            "--accesses" => numeric(&flag, &value).map(|n| opts.accesses = n).is_some(),
            "--dir" => {
                dir = Some(PathBuf::from(value));
                true
            }
            _ => false,
        };
        if !ok {
            return usage();
        }
    }
    let dir = dir.unwrap_or_else(|| {
        std::env::temp_dir().join(format!("asd-serve-bench-{}", std::process::id()))
    });
    let _ = std::fs::remove_dir_all(&dir);
    let program = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("asd-serve: cannot locate own binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let dir_text = dir.display().to_string();
    let daemon_args = ["--port", "0", "--dir", dir_text.as_str(), "--queue-cap", "256"];

    // Phase 1: cold daemon — simulate each unique spec once, writing the
    // disk tier.
    eprintln!("asd-serve bench: phase 1 (cold cache warm-up) in {dir_text}");
    let warm = match spawn_daemon(&program, &daemon_args) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("asd-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    let warm_opts = BenchOpts { clients: 4, requests_per_client: 1, accesses: opts.accesses };
    let phase1 = asd_serve::load_bench(&warm.addr, &warm_opts);
    let phase1 = match phase1 {
        Ok(r) => r,
        Err(e) => {
            eprintln!("asd-serve: warm-up failed: {e}");
            warm.kill();
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = warm.shutdown() {
        eprintln!("asd-serve: warm-up shutdown failed: {e}");
        return ExitCode::FAILURE;
    }

    // Phase 2: restarted daemon — cold memory, warm disk. The load must
    // be served without a single new simulation run.
    eprintln!("asd-serve bench: phase 2 (restart, warm disk) — {} clients", opts.clients);
    let daemon = match spawn_daemon(&program, &daemon_args) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("asd-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = match asd_serve::load_bench(&daemon.addr, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("asd-serve: load failed: {e}");
            daemon.kill();
            return ExitCode::FAILURE;
        }
    };
    let run_misses = report.stats.get("cache_run_misses").and_then(Value::as_f64).unwrap_or(-1.0);
    let disk_hits = report.stats.get("cache_disk_hits").and_then(Value::as_f64).unwrap_or(0.0);
    match daemon.shutdown() {
        Ok(0) => {}
        Ok(code) => {
            eprintln!("asd-serve: daemon exited with code {code}");
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("asd-serve: shutdown failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    print!("{}", report.render());
    println!(
        "  phase 1 sims     : {} (disk writes {})",
        phase1.stats.get("cache_run_misses").and_then(Value::as_f64).unwrap_or(0.0),
        phase1.stats.get("cache_disk_writes").and_then(Value::as_f64).unwrap_or(0.0)
    );
    println!("  phase 2 sims     : {run_misses} (disk hits {disk_hits})");
    let _ = std::fs::remove_dir_all(&dir);
    if report.mismatches > 0 {
        eprintln!("asd-serve bench: FAILED — {} bit mismatches", report.mismatches);
        return ExitCode::FAILURE;
    }
    if run_misses != 0.0 {
        eprintln!("asd-serve bench: FAILED — restarted daemon simulated {run_misses} runs");
        return ExitCode::FAILURE;
    }
    if disk_hits <= 0.0 {
        eprintln!("asd-serve bench: FAILED — disk tier never hit after restart");
        return ExitCode::FAILURE;
    }
    println!("asd-serve bench: OK");
    ExitCode::SUCCESS
}
