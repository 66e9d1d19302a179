//! Small shared pieces: command-line flags, a seeded generator, FNV
//! digests, a JSON object writer and the in-memory span recorder.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// `--flag value` pairs after the subcommand.
pub struct Flags(BTreeMap<String, String>);

impl Flags {
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut map = BTreeMap::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let key = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("expected a --flag, got `{flag}`"))?;
            let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
            map.insert(key.to_string(), value.clone());
        }
        Ok(Flags(map))
    }

    pub fn str(&self, key: &str) -> Result<&str, String> {
        self.0.get(key).map(String::as_str).ok_or_else(|| format!("missing --{key}"))
    }

    pub fn opt(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }

    pub fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.str(key)?.parse().map_err(|_| format!("--{key} needs a number"))
    }
}

/// SplitMix64: the benchmark's only source of randomness, so one seed
/// fixes every job list and request sequence.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }
}

/// A well-mixed value for item `i` of stream `seed`.
pub fn mix(seed: u64, i: u64) -> u64 {
    SplitMix64::new(seed ^ i.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Fixed work whose time stands for the host's current speed: random
/// probes into a 2 MiB table of 8-way sets with LRU replacement, about
/// the size and access pattern of the simulator's largest hot structure
/// (the L3 tag array). It is part of the benchmark, so it is the same
/// code in every commit measured.
pub struct Calibrator {
    table: Vec<u64>,
    state: u64,
}

impl Calibrator {
    const PROBES: u64 = 15_000;
    /// One sample's time on the reference host (a 2-vCPU shared x86-64
    /// virtual machine) in its fast phase. Calibrated times are host times
    /// scaled by this over the samples taken around them.
    pub const NOMINAL_MS: f64 = 0.54;

    pub fn new() -> Self {
        let mut c = Calibrator { table: vec![0; 1 << 18], state: 1 };
        for _ in 0..20 {
            c.sample_ms();
        }
        c
    }

    /// One discarded sample to bring the table back into the caches the
    /// measured work just used, then the median of three.
    pub fn measure_ms(&mut self) -> f64 {
        self.sample_ms();
        let mut v = [self.sample_ms(), self.sample_ms(), self.sample_ms()];
        v.sort_by(f64::total_cmp);
        v[1]
    }

    /// Run the kernel once; its wall time in milliseconds.
    pub fn sample_ms(&mut self) -> f64 {
        let t0 = Instant::now();
        let sets = (self.table.len() / 8) as u64;
        let mut hits = 0u64;
        for i in 0..Self::PROBES {
            self.state = self
                .state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let line = (self.state >> 33) % (sets * 12);
            let base = (line % sets) as usize * 8;
            let ways = &mut self.table[base..base + 8];
            let stamp = (line << 32) | (i & 0xffff_ffff);
            match ways.iter().position(|t| *t >> 32 == line) {
                Some(w) => {
                    ways[w] = stamp;
                    hits += 1;
                }
                None => {
                    let victim = (0..8).min_by_key(|&w| ways[w] & 0xffff_ffff).unwrap_or(0);
                    ways[victim] = stamp;
                }
            }
        }
        std::hint::black_box(hits);
        t0.elapsed().as_secs_f64() * 1e3
    }
}

/// CPU time of the calling thread in nanoseconds (Linux schedstat).
pub fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0)
}

/// A JSON object built field by field, in insertion order.
pub struct Obj(String);

impl Obj {
    pub fn new() -> Self {
        Obj(String::from("{"))
    }

    fn key(&mut self, k: &str) {
        if self.0.len() > 1 {
            self.0.push(',');
        }
        let _ = write!(self.0, "\"{k}\":");
    }

    pub fn num(mut self, k: &str, v: f64) -> Self {
        self.key(k);
        push_f64(&mut self.0, v);
        self
    }

    pub fn int(mut self, k: &str, v: u64) -> Self {
        self.key(k);
        let _ = write!(self.0, "{v}");
        self
    }

    pub fn str(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        push_str(&mut self.0, v);
        self
    }

    pub fn raw(mut self, k: &str, json: &str) -> Self {
        self.key(k);
        self.0.push_str(json);
        self
    }

    pub fn nums(mut self, k: &str, vs: &[f64]) -> Self {
        self.key(k);
        self.0.push('[');
        for (i, v) in vs.iter().enumerate() {
            if i > 0 {
                self.0.push(',');
            }
            push_f64(&mut self.0, *v);
        }
        self.0.push(']');
        self
    }

    pub fn strs(mut self, k: &str, vs: &[String]) -> Self {
        self.key(k);
        self.0.push('[');
        for (i, v) in vs.iter().enumerate() {
            if i > 0 {
                self.0.push(',');
            }
            push_str(&mut self.0, v);
        }
        self.0.push(']');
        self
    }

    pub fn finish(mut self) -> String {
        self.0.push('}');
        self.0
    }
}

fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

fn push_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Span {
    name: &'static str,
    id: u64,
    parent: Option<usize>,
    start: Instant,
    end: Option<Instant>,
}

/// In-memory spans, written out once when the run ends. Disabled (every
/// call a no-op) in untraced runs.
pub struct Spans {
    on: bool,
    t0: Instant,
    unix0_ns: u128,
    spans: Vec<Span>,
}

/// Handle of an open span (meaningless when tracing is off).
#[derive(Clone, Copy)]
pub struct SpanId(usize);

impl Spans {
    pub fn new(on: bool) -> Self {
        let unix0_ns = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_nanos());
        Spans { on, t0: Instant::now(), unix0_ns, spans: Vec::new() }
    }

    pub fn open(&mut self, name: &'static str, id: u64, parent: Option<SpanId>) -> SpanId {
        if !self.on {
            return SpanId(usize::MAX);
        }
        let start = Instant::now();
        self.spans.push(Span { name, id, parent: parent.map(|p| p.0), start, end: None });
        SpanId(self.spans.len() - 1)
    }

    pub fn close(&mut self, span: SpanId) {
        if let Some(s) = self.spans.get_mut(span.0) {
            s.end = Some(Instant::now());
        }
    }

    /// Write one JSON object per span: name, id, parent index, and start
    /// and end as Unix-epoch nanoseconds.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        Spans::write_many(&[self], path)
    }

    /// Write several recorders' spans to one file; parent indices are
    /// offset so they stay valid in the concatenation.
    pub fn write_many(all: &[&Spans], path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        let mut base = 0usize;
        for spans in all {
            spans.render(base, &mut out);
            base += spans.spans.len();
        }
        std::fs::write(path, out)
    }

    fn render(&self, base: usize, out: &mut String) {
        let ns = |t: Instant| self.unix0_ns + t.duration_since(self.t0).as_nanos();
        for (i, s) in self.spans.iter().enumerate() {
            let end = s.end.unwrap_or(s.start);
            let _ = writeln!(
                out,
                "{{\"idx\":{},\"name\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                base + i,
                s.name,
                s.id,
                s.parent.map_or("null".to_string(), |p| (base + p).to_string()),
                ns(s.start),
                ns(end)
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let shuffled = |seed| {
            let mut v: Vec<u32> = (0..100).collect();
            SplitMix64::new(seed).shuffle(&mut v);
            v
        };
        assert_eq!(shuffled(3), shuffled(3));
        assert_ne!(shuffled(3), shuffled(4));
        let mut sorted = shuffled(3);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn obj_writes_json() {
        let json = Obj::new()
            .int("n", 3)
            .num("x", 0.5)
            .str("s", "a\"b")
            .nums("v", &[1.0, f64::NAN])
            .finish();
        assert_eq!(json, r#"{"n":3,"x":0.5,"s":"a\"b","v":[1,null]}"#);
    }
}
