//! Wire protocol: length-prefixed frames carrying newline-JSON, the job
//! spec vocabulary, and the canonical JSON rendering of results.
//!
//! A frame is `<decimal byte length>\n<payload>\n`, and its payload is
//! one JSON request or response object. The length line is read through
//! a [`MAX_HEADER`]-byte window and the length is checked against
//! [`MAX_FRAME`], both before anything is allocated for the payload.
//!
//! Requests and responses are read and written through
//! `asd_telemetry::json`, the workspace's one JSON codec, which also
//! writes the `figures` bench report.
//!
//! **Bit-identity.** Responses embed results as [`result_to_value`]
//! objects rendered by that codec — the same float formatter the
//! figure pipeline uses, and `f64`'s `Display` round-trips — so
//! comparing rendered documents is comparing exact bits. Figure, arena,
//! and ablation jobs return the same rendered text the CLI prints, via
//! one shared dispatch ([`asd_sim::figures::figure_text`]).

use crate::error::ServeError;
use asd_core::counters::Slot;
use asd_sim::pipeline::Job;
use asd_sim::{PrefetchKind, RunOpts, RunResult, SystemConfig};
use asd_telemetry::json::{self, Value};
use asd_trace::suites;
use std::io::{BufRead, Read, Write};

/// Hard cap on a single frame's payload, request or response. Responses
/// are the largest frames: a sweep's document carries every counter of
/// every run it asked for.
pub const MAX_FRAME: usize = 64 << 20;

/// Hard cap on a frame's length line, newline included: far more than
/// any length up to [`MAX_FRAME`] needs, so a longer line is malformed.
pub const MAX_HEADER: usize = 32;

/// Write one frame: decimal length, newline, payload, newline.
///
/// # Errors
///
/// [`ServeError::Io`] on any write failure.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), ServeError> {
    let io = |e: std::io::Error| ServeError::Io {
        context: "writing frame".to_string(),
        message: e.to_string(),
    };
    w.write_all(format!("{}\n", payload.len()).as_bytes()).map_err(io)?;
    w.write_all(payload).map_err(io)?;
    w.write_all(b"\n").map_err(io)?;
    w.flush().map_err(io)
}

/// Read one frame's payload. `Ok(None)` on a clean EOF at a frame
/// boundary (the peer closed the connection); errors on oversize,
/// non-numeric, or truncated frames. At most [`MAX_HEADER`] bytes are
/// read looking for the length line's newline.
///
/// # Errors
///
/// [`ServeError::MalformedRequest`] for framing violations,
/// [`ServeError::Io`] for transport failures.
pub fn read_frame(r: &mut impl BufRead) -> Result<Option<Vec<u8>>, ServeError> {
    let io = |e: std::io::Error| ServeError::Io {
        context: "reading frame".to_string(),
        message: e.to_string(),
    };
    let mut header = String::new();
    if r.by_ref().take(MAX_HEADER as u64).read_line(&mut header).map_err(io)? == 0 {
        return Ok(None);
    }
    if header.len() == MAX_HEADER && !header.ends_with('\n') {
        return Err(ServeError::MalformedRequest {
            message: format!("frame header longer than {MAX_HEADER} bytes"),
        });
    }
    let len: usize = header.trim().parse().map_err(|_| ServeError::MalformedRequest {
        message: format!("frame header `{}` is not a length", header.trim()),
    })?;
    if len > MAX_FRAME {
        return Err(ServeError::MalformedRequest {
            message: format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"),
        });
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(io)?;
    let mut tail = [0u8; 1];
    r.read_exact(&mut tail).map_err(io)?;
    if tail != *b"\n" {
        return Err(ServeError::MalformedRequest {
            message: "frame payload not terminated by newline".to_string(),
        });
    }
    Ok(Some(payload))
}

/// Write a JSON value as one frame.
///
/// # Errors
///
/// As [`write_frame`].
pub fn write_json(w: &mut impl Write, v: &Value) -> Result<(), ServeError> {
    write_frame(w, v.render().as_bytes())
}

/// Read one frame and parse it as JSON. `Ok(None)` on clean EOF.
///
/// # Errors
///
/// As [`read_frame`], plus [`ServeError::MalformedRequest`] for frames
/// that are not UTF-8 JSON.
pub fn read_json(r: &mut impl BufRead) -> Result<Option<Value>, ServeError> {
    let Some(payload) = read_frame(r)? else {
        return Ok(None);
    };
    let text = std::str::from_utf8(&payload).map_err(|_| ServeError::MalformedRequest {
        message: "frame payload is not UTF-8".to_string(),
    })?;
    json::parse(text)
        .map(Some)
        .map_err(|e| ServeError::MalformedRequest { message: format!("bad JSON: {e}") })
}

/// An `{"ok":true}` response skeleton.
pub fn ok_obj() -> Value {
    let mut v = Value::obj();
    v.set("ok", true);
    v
}

/// The structured error response for `e`.
pub fn err_obj(e: &ServeError) -> Value {
    let mut err = Value::obj();
    err.set("kind", e.kind());
    err.set("message", e.to_string());
    let mut v = Value::obj();
    v.set("ok", false);
    v.set("error", err);
    v
}

/// Reconstruct a [`ServeError`] from a response's `error` object
/// (client side). Unknown kinds fold into
/// [`ServeError::MalformedRequest`] carrying the message.
pub fn err_of_value(v: &Value) -> ServeError {
    let err = v.get("error");
    let kind = err.and_then(|e| e.str_field("kind")).unwrap_or("");
    let message =
        err.and_then(|e| e.str_field("message")).unwrap_or("unspecified error").to_string();
    match kind {
        "busy" => ServeError::Busy { depth: 0, cap: 0 },
        "shutting-down" => ServeError::ShuttingDown,
        "unknown-job" => {
            ServeError::UnknownJob { id: err.and_then(|e| e.u64_field("id")).unwrap_or(0) }
        }
        "io" => ServeError::Io { context: "server".to_string(), message },
        _ => ServeError::MalformedRequest { message },
    }
}

/// A job the daemon knows how to run. The spec is the unit of
/// submission and of bit-identity testing (the same spec built locally
/// must produce the same document).
#[derive(Debug, Clone, PartialEq)]
pub enum JobSpec {
    /// A raw (benchmark × config) sweep; the result document carries one
    /// [`result_to_value`] object per pair, in spec order.
    Sweep {
        /// Workload profile names ([`asd_trace::suites::by_name`]).
        benchmarks: Vec<String>,
        /// Configuration names: `NP`/`PS`/`MS`/`PMS` or any engine
        /// registry name.
        configs: Vec<String>,
        /// Access budget per run.
        accesses: u64,
        /// Base RNG seed.
        seed: u64,
        /// Two-thread SMT mode.
        smt: bool,
    },
    /// One figure/table from the regeneration catalog; the result is its
    /// rendered text.
    Figure {
        /// A name from [`asd_sim::figures::CATALOG`].
        figure: String,
        /// Access budget (catalog-specific overrides still apply).
        accesses: u64,
        /// Base RNG seed.
        seed: u64,
    },
    /// A prefetcher-arena tournament; the result is the league table.
    Arena {
        /// Engine roster (empty = default roster).
        engines: Vec<String>,
        /// Profile restriction (empty = all 30).
        profiles: Vec<String>,
        /// Access budget per run.
        accesses: u64,
        /// Base RNG seed.
        seed: u64,
    },
}

impl JobSpec {
    /// The run options this spec implies.
    pub fn opts(&self) -> RunOpts {
        let (accesses, seed, smt) = match self {
            JobSpec::Sweep { accesses, seed, smt, .. } => (*accesses, *seed, *smt),
            JobSpec::Figure { accesses, seed, .. } => (*accesses, *seed, false),
            JobSpec::Arena { accesses, seed, .. } => (*accesses, *seed, false),
        };
        RunOpts { accesses, seed, smt }
    }

    /// Canonical JSON form: the inverse of [`parse_spec`], used to
    /// submit a spec over the wire.
    pub fn to_value(&self) -> Value {
        fn arr(names: &[String]) -> Value {
            Value::Arr(names.iter().map(|n| Value::Str(n.clone())).collect())
        }
        let mut v = Value::obj();
        match self {
            JobSpec::Sweep { benchmarks, configs, accesses, seed, smt } => {
                v.set("kind", "sweep");
                v.set("benchmarks", arr(benchmarks));
                v.set("configs", arr(configs));
                v.set("accesses", *accesses);
                v.set("seed", *seed);
                v.set("smt", *smt);
            }
            JobSpec::Figure { figure, accesses, seed } => {
                v.set("kind", "figure");
                v.set("figure", figure.clone());
                v.set("accesses", *accesses);
                v.set("seed", *seed);
            }
            JobSpec::Arena { engines, profiles, accesses, seed } => {
                v.set("kind", "arena");
                v.set("engines", arr(engines));
                v.set("profiles", arr(profiles));
                v.set("accesses", *accesses);
                v.set("seed", *seed);
            }
        }
        v
    }

    /// Number of simulation runs the spec fans out (the progress
    /// denominator). Figure and arena totals are advisory (their inner
    /// sweeps report coarser progress).
    pub fn total_runs(&self) -> usize {
        match self {
            JobSpec::Sweep { benchmarks, configs, .. } => benchmarks.len() * configs.len(),
            JobSpec::Figure { .. } => 1,
            JobSpec::Arena { engines, profiles, .. } => {
                let e = if engines.is_empty() {
                    asd_sim::arena::default_roster().len()
                } else {
                    engines.len()
                };
                let p =
                    if profiles.is_empty() { suites::all_profiles().len() } else { profiles.len() };
                (e + 1) * p
            }
        }
    }
}

fn str_list(v: &Value, key: &str) -> Result<Vec<String>, ServeError> {
    let Some(field) = v.get(key) else {
        return Ok(Vec::new());
    };
    let arr = field.as_arr().ok_or_else(|| ServeError::MalformedRequest {
        message: format!("`{key}` must be an array of strings"),
    })?;
    arr.iter()
        .map(|e| {
            e.as_str().map(String::from).ok_or_else(|| ServeError::MalformedRequest {
                message: format!("`{key}` must be an array of strings"),
            })
        })
        .collect()
}

/// An optional integer field: `Ok(None)` when absent, an error when
/// present but not an exact `u64` (a string, a negative or fractional
/// number, or one at or above 2^53, where JSON numbers stop being exact).
fn opt_u64(v: &Value, key: &str) -> Result<Option<u64>, ServeError> {
    v.get(key)
        .map(|field| {
            field.as_u64().ok_or_else(|| ServeError::MalformedRequest {
                message: format!("`{key}` must be an integer below 2^53"),
            })
        })
        .transpose()
}

/// Parse and validate a job spec object. Unknown kinds, unknown
/// benchmark/figure names, empty sweeps, and `seed` or `accesses` fields
/// that are present but not exact integers are rejected here, before the
/// job is accepted — a queued job can only fail inside the simulator.
///
/// # Errors
///
/// [`ServeError::MalformedRequest`] with a message naming the offending
/// field.
pub fn parse_spec(v: &Value) -> Result<JobSpec, ServeError> {
    let accesses = opt_u64(v, "accesses")?.unwrap_or_else(|| asd_bench::full_opts().accesses);
    let seed = opt_u64(v, "seed")?.unwrap_or_else(|| RunOpts::default().seed);
    let spec = match v.str_field("kind") {
        Some("sweep") => JobSpec::Sweep {
            benchmarks: str_list(v, "benchmarks")?,
            configs: str_list(v, "configs")?,
            accesses,
            seed,
            smt: v.get("smt").and_then(Value::as_bool).unwrap_or(false),
        },
        Some("figure") => JobSpec::Figure {
            figure: v
                .str_field("figure")
                .ok_or_else(|| ServeError::MalformedRequest {
                    message: "figure job needs a `figure` name".to_string(),
                })?
                .to_string(),
            accesses,
            seed,
        },
        Some("arena") => JobSpec::Arena {
            engines: str_list(v, "engines")?,
            profiles: str_list(v, "profiles")?,
            accesses,
            seed,
        },
        Some(other) => {
            return Err(ServeError::MalformedRequest {
                message: format!("unknown job kind `{other}` (sweep|figure|arena)"),
            })
        }
        None => {
            return Err(ServeError::MalformedRequest {
                message: "job spec needs a `kind` field".to_string(),
            })
        }
    };
    validate_spec(&spec)?;
    Ok(spec)
}

/// Reject specs that could not possibly run: empty fan-outs, unknown
/// benchmark / figure / engine names. Submission-time validation keeps
/// the failure close to the client instead of deep in a queued job.
///
/// # Errors
///
/// [`ServeError::MalformedRequest`] or a folded
/// [`ServeError::Sim`] naming the unresolvable item.
pub fn validate_spec(spec: &JobSpec) -> Result<(), ServeError> {
    match spec {
        JobSpec::Sweep { benchmarks, configs, .. } => {
            if benchmarks.is_empty() || configs.is_empty() {
                return Err(ServeError::MalformedRequest {
                    message: "sweep needs at least one benchmark and one config".to_string(),
                });
            }
            build_sweep(spec)?;
        }
        JobSpec::Figure { figure, .. } => {
            if !asd_sim::figures::CATALOG.contains(&figure.as_str()) {
                return Err(ServeError::MalformedRequest {
                    message: format!("unknown figure `{figure}`"),
                });
            }
        }
        JobSpec::Arena { engines, profiles, .. } => {
            for name in engines {
                asd_sim::engine_by_name(name).map_err(ServeError::Sim)?;
            }
            for name in profiles {
                if suites::by_name(name).is_none() {
                    return Err(ServeError::Sim(asd_sim::SimError::UnknownProfile {
                        name: name.clone(),
                    }));
                }
            }
        }
    }
    Ok(())
}

/// Build the options and job list a sweep spec describes: benchmarks in
/// spec order, configs nested inside each benchmark, labels equal to the
/// config names. The daemon and the bit-identity harness
/// ([`crate::client::reference_doc`]) both run this list as an
/// `asd_sim::pipeline::Pipeline::sweep`, so they run byte-identical job
/// lists on the same executor by construction.
///
/// # Errors
///
/// [`UnknownProfile`](asd_sim::SimError::UnknownProfile) /
/// [`UnknownEngine`](asd_sim::SimError::UnknownEngine) for unresolvable
/// names; non-sweep specs are a caller bug reported as
/// [`UnknownProfile`](asd_sim::SimError::UnknownProfile) on the spec kind.
pub fn build_sweep(spec: &JobSpec) -> Result<(RunOpts, Vec<Job>), asd_sim::SimError> {
    let JobSpec::Sweep { benchmarks, configs, smt, .. } = spec else {
        return Err(asd_sim::SimError::UnknownProfile { name: "<non-sweep spec>".to_string() });
    };
    let threads = if *smt { 2 } else { 1 };
    let mut jobs = Vec::with_capacity(benchmarks.len() * configs.len());
    for bench in benchmarks {
        let profile = suites::by_name(bench)
            .ok_or_else(|| asd_sim::SimError::UnknownProfile { name: bench.clone() })?;
        for config in configs {
            let cfg = match config.as_str() {
                "NP" => SystemConfig::for_kind(PrefetchKind::Np, threads),
                "PS" => SystemConfig::for_kind(PrefetchKind::Ps, threads),
                "MS" => SystemConfig::for_kind(PrefetchKind::Ms, threads),
                "PMS" => SystemConfig::for_kind(PrefetchKind::Pms, threads),
                engine => {
                    SystemConfig::for_kind(PrefetchKind::Np, threads).with_engine_named(engine)?
                }
            };
            jobs.push(Job::new(&profile, cfg, config));
        }
    }
    Ok((spec.opts(), jobs))
}

/// The result document for a sweep's run: what the daemon returns and
/// what the bit-identity harness recomputes locally through the same
/// [`build_sweep`] constructor. One function so the two can never
/// diverge.
pub fn sweep_doc(results: &[RunResult]) -> Value {
    let mut doc = Value::obj();
    doc.set("kind", "sweep");
    doc.set("results", Value::Arr(results.iter().map(result_to_value).collect()));
    doc
}

/// Render one simulation result as the canonical response object: its
/// two labels and every counter of its schema walk (the counters the
/// wire codec persists), in one flat object keyed by dotted name. Cycle
/// counts at realistic run lengths sit far below 2^53, so the `f64`
/// numbers are exact.
pub fn result_to_value(r: &RunResult) -> Value {
    let mut v = Value::obj();
    v.set("benchmark", r.benchmark.clone());
    v.set("config", r.config.clone());
    r.for_each_counter(|name, _, slot| {
        match slot {
            Slot::U64(n) => v.set(name, *n),
            Slot::F64(x) => v.set(name, *x),
        };
    });
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn frames_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = BufReader::new(&buf[..]);
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b"hello"[..]));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b""[..]));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");
    }

    #[test]
    fn bad_frames_are_typed_errors() {
        let cases: [&[u8]; 4] = [b"x\n", b"99999999999999\n", b"5\nab", b"2\nabX"];
        for case in cases {
            let mut r = BufReader::new(case);
            assert!(read_frame(&mut r).is_err(), "{case:?}");
        }
    }

    #[test]
    fn an_endless_header_is_rejected_after_max_header_bytes() {
        let mut r = std::io::Cursor::new(vec![b'1'; 1 << 20]);
        let err = read_frame(&mut r).unwrap_err();
        assert!(matches!(err, ServeError::MalformedRequest { .. }), "{err:?}");
        assert!(r.position() <= MAX_HEADER as u64, "read {} bytes", r.position());
    }

    #[test]
    fn a_signed_unicode_escape_is_a_malformed_request() {
        // `\u+065` is three hex digits behind a sign, not an escape.
        let mut frame = Vec::new();
        write_frame(&mut frame, br#"{"op":"submit","job":{"kind":"sw\u+065ep"}}"#).unwrap();
        let err = read_json(&mut BufReader::new(&frame[..])).unwrap_err();
        assert!(matches!(err, ServeError::MalformedRequest { .. }), "{err:?}");
    }

    #[test]
    fn spec_roundtrips_through_json() {
        let spec = JobSpec::Sweep {
            benchmarks: vec!["milc".into(), "lbm".into()],
            configs: vec!["NP".into(), "PMS".into()],
            accesses: 3_000,
            seed: 42,
            smt: false,
        };
        let back = parse_spec(&spec.to_value()).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.total_runs(), 4);
    }

    #[test]
    fn bad_specs_are_rejected_at_parse_time() {
        let mut v = Value::obj();
        v.set("kind", "sweep");
        assert!(parse_spec(&v).is_err(), "empty sweep");
        let mut v = Value::obj();
        v.set("kind", "teleport");
        assert!(parse_spec(&v).is_err(), "unknown kind");
        let figure = |name: &str| {
            let mut v = Value::obj();
            v.set("kind", "figure");
            v.set("figure", name);
            parse_spec(&v)
        };
        for name in asd_sim::figures::CATALOG {
            assert!(figure(name).is_ok(), "catalog figure {name} rejected");
        }
        assert!(figure("fig99").is_err(), "unknown figure");
        let spec = JobSpec::Sweep {
            benchmarks: vec!["not-a-benchmark".into()],
            configs: vec!["NP".into()],
            accesses: 1_000,
            seed: 1,
            smt: false,
        };
        assert!(validate_spec(&spec).is_err(), "unknown benchmark");
    }

    #[test]
    fn seeds_and_accesses_must_be_exact_integers() {
        let spec = |field: &str, value: Value| {
            let mut v = Value::obj();
            v.set("kind", "figure");
            v.set("figure", "fig5");
            v.set(field, value);
            parse_spec(&v)
        };
        let bad = [
            ("seed", json::parse("9007199254740993").unwrap()), // 2^53 + 1
            ("seed", Value::Str("7".into())),
            ("seed", Value::Num(-1.0)),
            ("seed", Value::Num(7.5)),
            ("accesses", Value::Str("2000".into())),
            ("accesses", Value::Num(-1.0)),
        ];
        for (field, value) in bad {
            let err = spec(field, value.clone()).unwrap_err();
            assert!(
                matches!(&err, ServeError::MalformedRequest { message } if message.contains(field)),
                "{field} = {value:?}: {err:?}"
            );
        }
        let below = spec("seed", Value::Num(((1u64 << 53) - 1) as f64)).unwrap();
        assert_eq!(below.opts().seed, (1 << 53) - 1);
        // Absent fields still default.
        let absent = spec("unrelated", Value::Null).unwrap();
        assert_eq!(absent.opts().seed, RunOpts::default().seed);
        assert_eq!(absent.opts().accesses, asd_bench::full_opts().accesses);
    }

    #[test]
    fn build_sweep_orders_bench_major() {
        let spec = JobSpec::Sweep {
            benchmarks: vec!["milc".into(), "lbm".into()],
            configs: vec!["NP".into(), "next-line".into()],
            accesses: 1_000,
            seed: 1,
            smt: false,
        };
        let (opts, jobs) = build_sweep(&spec).unwrap();
        assert_eq!(opts, spec.opts());
        let names: Vec<(&str, &str)> =
            jobs.iter().map(|j| (j.profile.name.as_str(), j.label.as_str())).collect();
        assert_eq!(
            names,
            [("milc", "NP"), ("milc", "next-line"), ("lbm", "NP"), ("lbm", "next-line")]
        );
    }

    #[test]
    fn result_object_carries_every_schema_counter() {
        let profile = suites::by_name("milc").unwrap();
        let cfg = SystemConfig::for_kind(PrefetchKind::Pms, 1);
        let r = asd_sim::System::new(cfg, &profile, &RunOpts::quick()).unwrap().run();
        let v = result_to_value(&r);
        let mut names = Vec::new();
        r.for_each_counter(|name, _, slot| {
            let want = match slot {
                Slot::U64(n) => *n as f64,
                Slot::F64(x) => *x,
            };
            assert_eq!(v.get(name).and_then(Value::as_f64), Some(want), "{name}");
            names.push(name.to_string());
        });
        // The Prefetch Buffer and scheduler blocks included.
        for name in [
            "mc.pb.inserts",
            "mc.pb.read_hits",
            "mc.pb.write_invalidations",
            "mc.pb.unused_evictions",
            "mc.sched.conflicts",
            "mc.sched.tightened",
            "mc.sched.loosened",
            "asd.epochs",
            "cache.l3.dirty_evictions",
        ] {
            assert!(names.iter().any(|n| n == name), "{name} not walked");
        }
        let Value::Obj(fields) = &v else { panic!("not an object: {v:?}") };
        assert_eq!(fields.len(), names.len() + 2, "two labels and the counters");
    }

    #[test]
    fn error_objects_roundtrip_kind() {
        let e = ServeError::Busy { depth: 3, cap: 2 };
        let v = err_obj(&e);
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
        assert!(matches!(err_of_value(&v), ServeError::Busy { .. }));
        let e = ServeError::ShuttingDown;
        assert!(matches!(err_of_value(&err_obj(&e)), ServeError::ShuttingDown));
    }
}
