//! The `serve` workload's client side, written against the frame format
//! in DESIGN.md: a cold fill of the seeded hot set, and the closed-loop
//! load (each caller submits, then `wait`s, as the CLI does).

use crate::replay::config_labels;
use crate::util::{fnv64, mix, Calibrator, Flags, Obj, Spans, SplitMix64};
use asd_trace::suites;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Specs in the hot set the cold fill simulates.
pub const HOT_SPECS: usize = 48;
/// Accesses per spec (one benchmark under one configuration).
pub const SPEC_ACCESSES: u64 = 10_000;
/// About one request in this many asks for a spec never seen before.
const MISS_ONE_IN: u64 = 10;
/// Miss specs asked again after the timed phase (now memory hits).
const RECHECK_MISSES: usize = 8;
/// Largest frame accepted from the daemon.
const MAX_FRAME: usize = 64 << 20;
/// Requests per measurement window. The load pauses between windows to
/// time the calibration kernel.
const WINDOW: u64 = 1500;
/// Calibration measurements per core in each pause between windows.
const REF_SAMPLES: usize = 8;
/// Completed requests after which the daemon's peak RSS is read: a fixed
/// amount of work, since the daemon keeps a record of every job.
const RSS_AT: u64 = 5000;

fn spec_json(benchmark: &str, config: &str, seed: u64) -> String {
    format!(
        "{{\"kind\":\"sweep\",\"benchmarks\":[\"{benchmark}\"],\"configs\":[\"{config}\"],\"accesses\":{SPEC_ACCESSES},\"seed\":{seed}}}"
    )
}

fn combos() -> Vec<(String, String)> {
    let configs = config_labels();
    suites::all_profiles()
        .into_iter()
        .flat_map(|p| configs.iter().map(move |c| (p.name.clone(), c.clone())))
        .collect()
}

/// The seeded hot set: distinct (benchmark, configuration) pairs, all at
/// the run seed.
pub fn hot_set(seed: u64) -> Vec<String> {
    let mut all = combos();
    SplitMix64::new(seed ^ 0x686f_7473).shuffle(&mut all);
    all.iter().take(HOT_SPECS).map(|(b, c)| spec_json(b, c, seed)).collect()
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A hot spec's first touch after the restart: served from disk.
    Disk,
    /// A hot spec touched before: served from memory.
    Hit,
    /// A spec the daemon has never seen: a simulation and a disk write.
    Miss,
}

/// Workload seeds the never-seen specs use. The daemon keeps every trace
/// it generates, so misses draw from a fixed set of (benchmark, seed)
/// traces and stay new through their configuration.
const MISS_SEEDS: u64 = 12;

/// One request of the sequence: a hot-set index, or a never-seen spec.
enum Req {
    Hot(usize),
    Miss(String),
}

/// The seeded request sequence. About one request in `MISS_ONE_IN` is a
/// miss; miss `k` visits every (benchmark, miss seed) pair once per round
/// with a different configuration each round, so no spec repeats until
/// every configuration is used, after which misses take fresh seeds.
struct Sequence {
    seed: u64,
    configs: Vec<String>,
    pairs: Vec<(String, u64, usize)>,
    next: u64,
    misses: u64,
}

impl Sequence {
    fn new(seed: u64) -> Self {
        let configs = config_labels();
        let mut pairs: Vec<(String, u64, usize)> = suites::all_profiles()
            .iter()
            .flat_map(|p| (0..MISS_SEEDS).map(move |j| (p.name.clone(), j)))
            .map(|(b, j)| {
                // Below 2^53, so the seed survives the daemon's JSON numbers,
                // and never the run seed the hot set uses.
                let mut s = mix(seed ^ 0x6d69_7373, j) >> 12;
                if s == seed {
                    s ^= 1;
                }
                (b, s, 0)
            })
            .collect();
        let mut rng = SplitMix64::new(seed ^ 0x7061_6972);
        rng.shuffle(&mut pairs);
        for p in &mut pairs {
            p.2 = rng.below(configs.len());
        }
        Sequence { seed, configs, pairs, next: 0, misses: 0 }
    }

    fn next(&mut self) -> (u64, Req) {
        let i = self.next;
        self.next += 1;
        let r = mix(self.seed ^ 0x73_6572_7665, i);
        if !r.is_multiple_of(MISS_ONE_IN) {
            return (i, Req::Hot(((r >> 8) % HOT_SPECS as u64) as usize));
        }
        let k = self.misses;
        self.misses += 1;
        let n = self.pairs.len() as u64;
        let round = (k / n) as usize;
        let spec = if round < self.configs.len() {
            let (b, s, offset) = &self.pairs[(k % n) as usize];
            spec_json(b, &self.configs[(round + offset) % self.configs.len()], *s)
        } else {
            let (b, _, offset) = &self.pairs[(r >> 8) as usize % self.pairs.len()];
            spec_json(
                b,
                &self.configs[*offset],
                (mix(self.seed ^ 0x66_7265_7368, k) >> 12) | 1 << 52,
            )
        };
        (i, Req::Miss(spec))
    }
}

/// One connection: a frame is `<decimal length>\n<payload>\n`.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_read_timeout(Some(Duration::from_secs(60))).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { reader, writer: stream })
    }

    fn request(&mut self, payload: &str) -> Result<Vec<u8>, String> {
        let frame = format!("{}\n{payload}\n", payload.len());
        self.writer.write_all(frame.as_bytes()).map_err(|e| format!("send: {e}"))?;
        let mut len = String::new();
        self.reader.read_line(&mut len).map_err(|e| format!("receive: {e}"))?;
        let n: usize = len.trim().parse().map_err(|_| format!("bad frame length {len:?}"))?;
        if n > MAX_FRAME {
            return Err(format!("frame of {n} bytes"));
        }
        let mut body = vec![0u8; n + 1];
        self.reader.read_exact(&mut body).map_err(|e| format!("receive: {e}"))?;
        if body.pop() != Some(b'\n') {
            return Err("frame not terminated by a newline".to_string());
        }
        Ok(body)
    }

    /// Submit `spec` and wait for it; returns the digest of the raw
    /// `result` bytes and the number of `busy` refusals retried.
    fn run(&mut self, spec: &str, spans: &mut Spans, id: u64) -> Result<(u64, u64), String> {
        let root = spans.open("serve.request", id, None);
        let mut busy = 0u64;
        let s = spans.open("serve.submit", id, Some(root));
        let job = loop {
            let resp = self.request(&format!("{{\"op\":\"submit\",\"job\":{spec}}}"))?;
            if field(&resp, "ok") == Some(b"true") {
                break field(&resp, "id")
                    .and_then(|v| std::str::from_utf8(v).ok()?.parse::<u64>().ok())
                    .ok_or("submit answer without an id")?;
            }
            if field(&resp, "error") == Some(b"\"busy\"") && busy < 1000 {
                busy += 1;
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
            return Err(format!("submit refused: {}", String::from_utf8_lossy(&resp)));
        };
        spans.close(s);
        let s = spans.open("serve.wait", id, Some(root));
        let resp = self.request(&format!("{{\"op\":\"wait\",\"id\":{job}}}"))?;
        spans.close(s);
        spans.close(root);
        if field(&resp, "ok") != Some(b"true") {
            return Err(format!("job failed: {}", String::from_utf8_lossy(&resp)));
        }
        let result = field(&resp, "result").ok_or("wait answer without a result")?;
        Ok((fnv64(result), busy))
    }
}

/// The raw bytes of top-level field `key` of a JSON object.
fn field<'a>(json: &'a [u8], key: &str) -> Option<&'a [u8]> {
    let mut i = skip_ws(json, 0);
    if json.get(i) != Some(&b'{') {
        return None;
    }
    i += 1;
    loop {
        i = skip_ws(json, i);
        if json.get(i) != Some(&b'"') {
            return None;
        }
        let key_end = skip_value(json, i)?;
        let name = &json[i + 1..key_end - 1];
        i = skip_ws(json, key_end);
        if json.get(i) != Some(&b':') {
            return None;
        }
        let start = skip_ws(json, i + 1);
        let end = skip_value(json, start)?;
        if name == key.as_bytes() {
            return Some(&json[start..end]);
        }
        i = skip_ws(json, end);
        match json.get(i) {
            Some(b',') => i += 1,
            _ => return None,
        }
    }
}

fn skip_ws(json: &[u8], mut i: usize) -> usize {
    while json.get(i).is_some_and(u8::is_ascii_whitespace) {
        i += 1;
    }
    i
}

/// End (exclusive) of the JSON value starting at `i`.
fn skip_value(json: &[u8], i: usize) -> Option<usize> {
    match *json.get(i)? {
        b'"' => {
            let mut j = i + 1;
            loop {
                match *json.get(j)? {
                    b'\\' => j += 2,
                    b'"' => return Some(j + 1),
                    _ => j += 1,
                }
            }
        }
        b'{' | b'[' => {
            let mut depth = 0usize;
            let mut j = i;
            loop {
                match *json.get(j)? {
                    b'"' => {
                        j = skip_value(json, j)?;
                        continue;
                    }
                    b'{' | b'[' => depth += 1,
                    b'}' | b']' => {
                        depth -= 1;
                        if depth == 0 {
                            return Some(j + 1);
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        _ => {
            let mut j = i;
            while json
                .get(j)
                .is_some_and(|c| !matches!(c, b',' | b'}' | b']') && !c.is_ascii_whitespace())
            {
                j += 1;
            }
            Some(j)
        }
    }
}

fn read_digests(path: &Path) -> Result<HashMap<String, u64>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    text.lines()
        .map(|l| {
            let (d, spec) = l.split_once('\t').ok_or("bad digest line")?;
            Ok((spec.to_string(), u64::from_str_radix(d, 16).map_err(|_| "bad digest")?))
        })
        .collect()
}

/// `serve-fill`: simulate every hot spec once, in order, on one
/// connection, and write `<digest>\t<spec>` lines to `--digests`.
pub fn fill(flags: &Flags) -> Result<String, String> {
    let seed: u64 = flags.num("seed")?;
    let mut conn = Conn::connect(flags.str("addr")?)?;
    let mut spans = Spans::new(flags.opt("spans").is_some());
    let t0 = Instant::now();
    let mut lines = String::new();
    for (i, spec) in hot_set(seed).iter().enumerate() {
        let (d, _) = conn.run(spec, &mut spans, i as u64)?;
        lines.push_str(&format!("{d:016x}\t{spec}\n"));
    }
    let fill_s = t0.elapsed().as_secs_f64();
    std::fs::write(flags.str("digests")?, &lines).map_err(|e| format!("writing digests: {e}"))?;
    if let Some(p) = flags.opt("spans") {
        spans.write(Path::new(p)).map_err(|e| format!("writing spans: {e}"))?;
    }
    Ok(Obj::new().num("fill_s", fill_s).int("specs", HOT_SPECS as u64).finish())
}

/// Calibration kernels, one per core, timed at once in every pause
/// between load windows.
struct Reference(Vec<Calibrator>);

impl Reference {
    /// The mean over cores of each core's median of `REF_SAMPLES` kernel
    /// times. (The cores can run at different speeds; a median over all
    /// samples would flip between them.)
    fn measure(&mut self) -> f64 {
        let per_core: Vec<f64> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .0
                .iter_mut()
                .map(|c| {
                    scope.spawn(move || {
                        let mut v: Vec<f64> = (0..REF_SAMPLES).map(|_| c.measure_ms()).collect();
                        v.sort_by(f64::total_cmp);
                        v[v.len() / 2]
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("calibration thread panicked")).collect()
        });
        per_core.iter().sum::<f64>() / per_core.len() as f64
    }
}

struct Shared {
    seq: Sequence,
    touched: Vec<bool>,
    digests: HashMap<String, u64>,
    misses_seen: Vec<String>,
    /// Requests claimed so far, and how many the current window allows.
    claimed: u64,
    quota: u64,
    completed: u64,
    hwm_kb: Option<u64>,
}

/// utime + stime of process `pid`, in clock ticks.
fn cpu_ticks(pid: Option<u32>) -> u64 {
    let Some(pid) = pid else { return 0 };
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    let fields: Vec<&str> =
        stat.rsplit_once(')').map_or("", |(_, rest)| rest).split_whitespace().collect();
    let field = |i: usize| fields.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    field(11) + field(12)
}

/// Peak resident set of process `pid` so far, in KiB.
fn peak_rss_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[derive(Default)]
struct Worker {
    kinds: Vec<Kind>,
    latency_ms: Vec<f64>,
    window: Vec<f64>,
    busy: u64,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// The connection failed; this caller makes no more requests.
    dead: bool,
}

/// `serve-load`: `--conns` closed-loop callers for `--seconds`, in windows
/// of `WINDOW` requests with the calibration kernel timed on
/// `--cal-threads` cores in the pause before and after each, plus an
/// optional pinger on its own connection every `--ping-ms`.
pub fn load(flags: &Flags) -> Result<String, String> {
    let seed: u64 = flags.num("seed")?;
    let seconds: f64 = flags.num("seconds")?;
    let conns: usize = flags.num("conns")?;
    let addr = flags.str("addr")?.to_string();
    let traced = flags.opt("spans").is_some();
    let ping_ms: Option<u64> =
        flags.opt("ping-ms").map(str::parse).transpose().map_err(|_| "bad --ping-ms")?;
    let pid: Option<u32> =
        flags.opt("daemon-pid").map(str::parse).transpose().map_err(|_| "bad --daemon-pid")?;
    let hot = hot_set(seed);
    let digests = read_digests(Path::new(flags.str("digests")?))?;
    let deadline = Duration::from_secs_f64(seconds);
    let shared = Mutex::new(Shared {
        seq: Sequence::new(seed),
        touched: vec![false; hot.len()],
        digests,
        misses_seen: Vec::new(),
        claimed: 0,
        quota: 0,
        completed: 0,
        hwm_kb: None,
    });
    let mut callers = Vec::new();
    for _ in 0..conns {
        callers.push((Conn::connect(&addr)?, Worker::default(), Spans::new(traced)));
    }
    let cores: usize = flags.num("cal-threads")?;
    let mut reference = Reference((0..cores.max(1)).map(|_| Calibrator::new()).collect());
    let start = Instant::now();

    let claim = || {
        if start.elapsed() >= deadline {
            return None;
        }
        let mut sh = shared.lock().expect("request counter lock");
        if sh.claimed >= sh.quota {
            return None;
        }
        let window = sh.claimed / WINDOW;
        sh.claimed += 1;
        let (i, req) = sh.seq.next();
        Some(match req {
            Req::Hot(h) => {
                let kind = if sh.touched[h] { Kind::Hit } else { Kind::Disk };
                sh.touched[h] = true;
                (i, hot[h].clone(), kind, window)
            }
            Req::Miss(spec) => (i, spec, Kind::Miss, window),
        })
    };
    // Record a completed request: whether its result bytes match earlier
    // answers for the same spec.
    let complete = |spec: &str, d: u64, kind: Kind| -> bool {
        let mut sh = shared.lock().expect("digest table lock");
        if kind == Kind::Miss && sh.misses_seen.len() < RECHECK_MISSES {
            sh.misses_seen.push(spec.to_string());
        }
        sh.completed += 1;
        if sh.completed == RSS_AT {
            sh.hwm_kb = pid.and_then(peak_rss_kb);
        }
        *sh.digests.entry(spec.to_string()).or_insert(d) == d
    };

    // Per full window: seconds, daemon CPU ticks, and the calibration
    // measured in the pause after it (`cal_ms[0]` is from before the first).
    let mut window_s = Vec::new();
    let mut window_ticks = Vec::new();
    let mut cal_ms = vec![reference.measure()];
    let pings = std::thread::scope(|scope| {
        let pinger = ping_ms.map(|every| {
            let addr = &addr;
            scope.spawn(move || -> Result<Vec<f64>, String> {
                let mut conn = Conn::connect(addr)?;
                let mut out = Vec::new();
                while start.elapsed() < deadline {
                    let t0 = Instant::now();
                    let resp = conn.request("{\"op\":\"ping\"}")?;
                    out.push(t0.elapsed().as_secs_f64() * 1e3);
                    if field(&resp, "ok") != Some(b"true") {
                        return Err("ping refused".to_string());
                    }
                    std::thread::sleep(Duration::from_millis(every));
                }
                Ok(out)
            })
        });
        while start.elapsed() < deadline && callers.iter().any(|c| !c.1.dead) {
            let t0 = start.elapsed().as_secs_f64();
            let ticks0 = cpu_ticks(pid);
            shared.lock().expect("request counter lock").quota += WINDOW;
            std::thread::scope(|inner| {
                for (conn, w, spans) in callers.iter_mut().filter(|c| !c.1.dead) {
                    let (claim, complete) = (&claim, &complete);
                    inner.spawn(move || {
                        while let Some((i, spec, kind, window)) = claim() {
                            w.attempted += 1;
                            let t0 = Instant::now();
                            match conn.run(&spec, spans, i) {
                                Ok((d, busy)) => {
                                    let ms = t0.elapsed().as_secs_f64() * 1e3;
                                    w.busy += busy;
                                    if !complete(&spec, d, kind) {
                                        w.failed += 1;
                                        w.failures.push(format!(
                                            "request {i}: result bytes differ for {spec}"
                                        ));
                                    }
                                    w.kinds.push(kind);
                                    w.latency_ms.push(ms);
                                    w.window.push(window as f64);
                                }
                                Err(e) => {
                                    w.failed += 1;
                                    w.failures.push(format!("request {i}: {e}"));
                                    w.dead = true;
                                    break;
                                }
                            }
                        }
                    });
                }
            });
            let cut = {
                let sh = shared.lock().expect("request counter lock");
                sh.claimed < sh.quota
            };
            if cut {
                break;
            }
            window_s.push(start.elapsed().as_secs_f64() - t0);
            window_ticks.push(cpu_ticks(pid).saturating_sub(ticks0) as f64);
            cal_ms.push(reference.measure());
        }
        pinger.map(|p| p.join().expect("pinger thread panicked"))
    });
    let elapsed = start.elapsed().as_secs_f64();

    let mut all = Worker::default();
    let mut spans = Vec::new();
    for (_, w, s) in callers {
        all.kinds.extend(w.kinds);
        all.latency_ms.extend(w.latency_ms);
        all.window.extend(w.window);
        all.busy += w.busy;
        all.attempted += w.attempted;
        all.failed += w.failed;
        all.failures.extend(w.failures.into_iter().take(10));
        spans.push(s);
    }
    let ping_ms = match pings {
        Some(Ok(v)) => v,
        Some(Err(e)) => {
            all.attempted += 1;
            all.failed += 1;
            all.failures.push(format!("pinger: {e}"));
            Vec::new()
        }
        None => Vec::new(),
    };

    // Miss results asked again: now served from memory, same bytes.
    let shared = shared.into_inner().expect("digest table lock");
    let mut conn = Conn::connect(&addr)?;
    let mut quiet = Spans::new(false);
    for spec in &shared.misses_seen {
        all.attempted += 1;
        match conn.run(spec, &mut quiet, 0) {
            Ok((d, _)) if shared.digests.get(spec) == Some(&d) => {}
            Ok(_) => {
                all.failed += 1;
                all.failures.push(format!("re-asked miss differs: {spec}"));
            }
            Err(e) => {
                all.failed += 1;
                all.failures.push(format!("re-asked miss: {e}"));
            }
        }
    }
    if let Some(p) = flags.opt("spans") {
        let refs: Vec<&Spans> = spans.iter().collect();
        Spans::write_many(&refs, Path::new(p)).map_err(|e| format!("writing spans: {e}"))?;
    }

    let pick = |k: Kind| -> Vec<f64> {
        all.kinds.iter().zip(&all.latency_ms).filter(|(x, _)| **x == k).map(|(_, l)| *l).collect()
    };
    let kinds: String = all
        .kinds
        .iter()
        .map(|k| match k {
            Kind::Disk => 'd',
            Kind::Hit => 'h',
            Kind::Miss => 'm',
        })
        .collect();
    let mut sequence = Sequence::new(seed);
    let seq: Vec<String> = (0..1000)
        .map(|_| match sequence.next().1 {
            Req::Hot(h) => hot[h].clone(),
            Req::Miss(s) => s,
        })
        .collect();
    Ok(Obj::new()
        .num("elapsed_s", elapsed)
        .int("completed", all.latency_ms.len() as u64)
        .int("attempted", all.attempted)
        .int("failed", all.failed)
        .strs("failures", &all.failures)
        .int("busy_retries", all.busy)
        .int("misses", pick(Kind::Miss).len() as u64)
        .int("spec_accesses", SPEC_ACCESSES)
        .str("kinds", &kinds)
        .nums("latency_ms", &all.latency_ms)
        .nums("request_window", &all.window)
        .nums("hit_ms", &pick(Kind::Hit))
        .nums("disk_ms", &pick(Kind::Disk))
        .nums("miss_ms", &pick(Kind::Miss))
        .nums("ping_ms", &ping_ms)
        .str("sequence_digest", &format!("{:016x}", fnv64(seq.join("\n").as_bytes())))
        .int("window", WINDOW)
        .nums("window_s", &window_s)
        .nums("window_ticks", &window_ticks)
        .nums("cal_ms", &cal_ms)
        .num("cal_nominal_ms", Calibrator::NOMINAL_MS)
        .int("rss_at", RSS_AT)
        .num("rss_at_kb", shared.hwm_kb.map_or(f64::NAN, |k| k as f64))
        .finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn field_returns_raw_top_level_values() {
        let doc = br#"{"ok":true,"id":17,"note":"a \"}\" b","result":{"kind":"sweep","results":[{"x":[1,2]}]}}"#;
        assert_eq!(field(doc, "ok"), Some(&b"true"[..]));
        assert_eq!(field(doc, "id"), Some(&b"17"[..]));
        assert_eq!(field(doc, "note"), Some(&br#""a \"}\" b""#[..]));
        assert_eq!(field(doc, "result"), Some(&br#"{"kind":"sweep","results":[{"x":[1,2]}]}"#[..]));
        assert_eq!(field(doc, "kind"), None, "nested keys are not top-level fields");
        assert_eq!(field(b"[1,2]", "ok"), None);
    }

    fn first(seed: u64, n: usize) -> Vec<String> {
        let hot = hot_set(seed);
        let mut seq = Sequence::new(seed);
        (0..n)
            .map(|_| match seq.next().1 {
                Req::Hot(h) => hot[h].clone(),
                Req::Miss(s) => s,
            })
            .collect()
    }

    #[test]
    fn the_seed_fixes_the_request_sequence() {
        assert_eq!(first(7, 2000), first(7, 2000));
        assert_ne!(first(7, 2000), first(8, 2000));
        assert_eq!(hot_set(7).iter().collect::<HashSet<_>>().len(), HOT_SPECS);
    }

    #[test]
    fn misses_are_never_seen_specs() {
        let hot: HashSet<String> = hot_set(5).into_iter().collect();
        let mut seq = Sequence::new(5);
        let mut seen = HashSet::new();
        let mut misses = 0;
        // Past the end of the (benchmark, seed) x configuration pool, so the
        // fresh-seed fallback is covered too.
        while misses < 4000 {
            if let (_, Req::Miss(spec)) = seq.next() {
                assert!(!hot.contains(&spec), "miss repeats a hot spec: {spec}");
                assert!(seen.insert(spec.clone()), "miss repeats: {spec}");
                misses += 1;
            }
        }
    }
}
