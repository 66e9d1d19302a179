//! Exposition backends: render a [`Snapshot`] to Prometheus text,
//! Chrome `trace_event` JSON (loadable in Perfetto / `about://tracing`),
//! or per-epoch CSV — plus the matching in-tree validators the CI smoke
//! steps run (the workspace has no external parsers to lean on).

use crate::json::{self, Value};
use crate::registry::{MetricValue, Snapshot};

/// Format an `f64` for machine-readable output; non-finite values become
/// `0` (JSON has no NaN, and a ratio over an empty run is just zero).
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Split a hierarchical metric name into a Prometheus-safe base name and
/// labels: dots become underscores and a `[i]` index segment becomes an
/// `index="i"` label (`dram.bank[3].conflicts` →
/// `dram_bank_conflicts{index="3"}`).
fn prom_name(name: &str) -> (String, Vec<(String, String)>) {
    let mut base = String::with_capacity(name.len());
    let mut labels = Vec::new();
    let mut chars = name.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '[' => {
                let mut idx = String::new();
                for c in chars.by_ref() {
                    if c == ']' {
                        break;
                    }
                    idx.push(c);
                }
                labels.push(("index".to_string(), idx));
            }
            c if c.is_ascii_alphanumeric() || c == '_' || c == ':' => base.push(c),
            _ => base.push('_'),
        }
    }
    if base.starts_with(|c: char| c.is_ascii_digit()) {
        // asd-lint: allow(D008) -- String prepend during exposition rendering, once per metric name, never in the cycle loop
        base.insert(0, '_');
    }
    (base, labels)
}

fn render_labels(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Prometheus text exposition format.
pub mod prom {
    use super::*;

    struct Family {
        base: String,
        kind: &'static str,
        help: String,
        lines: Vec<String>,
    }

    fn family<'a>(
        families: &'a mut Vec<Family>,
        base: &str,
        kind: &'static str,
        help: &str,
    ) -> &'a mut Family {
        if let Some(i) = families.iter().position(|f| f.base == base) {
            &mut families[i]
        } else {
            families.push(Family {
                base: base.to_string(),
                kind,
                help: help.to_string(),
                lines: Vec::new(),
            });
            let last = families.len() - 1;
            &mut families[last]
        }
    }

    /// Render the snapshot in Prometheus text format. Counter families
    /// that differ only in an `[i]` index (per-bank counters) share one
    /// `# TYPE` declaration with an `index` label; histograms render as
    /// classic cumulative `_bucket`/`_sum`/`_count` families; a series
    /// contributes its most recent sample as a gauge.
    pub fn render(s: &Snapshot) -> String {
        let mut families: Vec<Family> = Vec::new();
        for m in &s.metrics {
            let (base, labels) = prom_name(&m.name);
            let unit = m.unit.label();
            let help = match (m.help.is_empty(), unit.is_empty()) {
                (false, false) => format!("{} ({unit})", m.help),
                (false, true) => m.help.clone(),
                (true, _) => unit.to_string(),
            };
            match &m.value {
                MetricValue::Counter(v) => {
                    let f = family(&mut families, &base, "counter", &help);
                    f.lines.push(format!("{base}{} {v}", render_labels(&labels)));
                }
                MetricValue::Gauge(v) => {
                    let f = family(&mut families, &base, "gauge", &help);
                    f.lines.push(format!("{base}{} {}", render_labels(&labels), fmt_f64(*v)));
                }
                MetricValue::Histogram(h) => {
                    let f = family(&mut families, &base, "histogram", &help);
                    let mut cum = 0u64;
                    for (bound, count) in h.bounds().iter().zip(h.counts()) {
                        cum += count;
                        f.lines.push(format!("{base}_bucket{{le=\"{bound}\"}} {cum}"));
                    }
                    cum += h.counts().last().copied().unwrap_or(0);
                    f.lines.push(format!("{base}_bucket{{le=\"+Inf\"}} {cum}"));
                    f.lines.push(format!("{base}_sum {}", h.sum()));
                    f.lines.push(format!("{base}_count {}", h.total()));
                }
                MetricValue::Series(points) => {
                    let f = family(&mut families, &base, "gauge", &help);
                    let last = points.last().map_or(0.0, |(_, v)| *v);
                    f.lines.push(format!("{base}{} {}", render_labels(&labels), fmt_f64(last)));
                }
            }
        }
        let mut out = String::new();
        for f in families {
            let help = f.help.replace('\\', "\\\\").replace('\n', "\\n");
            out.push_str(&format!("# HELP {} {}\n", f.base, help));
            out.push_str(&format!("# TYPE {} {}\n", f.base, f.kind));
            for line in f.lines {
                out.push_str(&line);
                out.push('\n');
            }
        }
        if s.dropped_events > 0 {
            out.push_str("# HELP telemetry_dropped_events events lost to ring wraparound\n");
            out.push_str("# TYPE telemetry_dropped_events counter\n");
            out.push_str(&format!("telemetry_dropped_events {}\n", s.dropped_events));
        }
        out
    }

    fn parse_metric_name(line: &str) -> Option<(&str, &str)> {
        let mut end = 0;
        for (i, c) in line.char_indices() {
            let ok = if i == 0 {
                c.is_ascii_alphabetic() || c == '_' || c == ':'
            } else {
                c.is_ascii_alphanumeric() || c == '_' || c == ':'
            };
            if !ok {
                break;
            }
            end = i + c.len_utf8();
        }
        if end == 0 {
            None
        } else {
            Some((&line[..end], &line[end..]))
        }
    }

    /// Validate Prometheus text: every sample line must carry a name
    /// declared by a `# TYPE` line (histogram samples may use the
    /// `_bucket`/`_sum`/`_count` suffixes) and a numeric value. Returns
    /// the number of samples.
    pub fn validate(text: &str) -> Result<usize, String> {
        let mut types: Vec<(String, String)> = Vec::new();
        let mut samples = 0usize;
        for (idx, raw) in text.lines().enumerate() {
            let n = idx + 1;
            let line = raw.trim_end();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut it = rest.split_whitespace();
                let name = it.next().ok_or_else(|| format!("line {n}: TYPE without a name"))?;
                let kind = it.next().ok_or_else(|| format!("line {n}: TYPE without a kind"))?;
                if !matches!(kind, "counter" | "gauge" | "histogram" | "summary" | "untyped") {
                    return Err(format!("line {n}: unknown TYPE kind `{kind}`"));
                }
                if types.iter().any(|(t, _)| t == name) {
                    return Err(format!("line {n}: duplicate TYPE for `{name}`"));
                }
                types.push((name.to_string(), kind.to_string()));
                continue;
            }
            if line.starts_with('#') {
                continue;
            }
            let (name, rest) = parse_metric_name(line)
                .ok_or_else(|| format!("line {n}: malformed metric name"))?;
            let rest = if let Some(r) = rest.strip_prefix('{') {
                let close =
                    r.find('}').ok_or_else(|| format!("line {n}: unterminated label set"))?;
                for pair in r[..close].split(',') {
                    if pair.is_empty() {
                        continue;
                    }
                    let eq =
                        pair.find('=').ok_or_else(|| format!("line {n}: label without `=`"))?;
                    let v = &pair[eq + 1..];
                    if !(v.starts_with('"') && v.ends_with('"') && v.len() >= 2) {
                        return Err(format!("line {n}: label value must be quoted"));
                    }
                }
                &r[close + 1..]
            } else {
                rest
            };
            let value = rest.trim();
            let numeric = value.parse::<f64>().is_ok()
                || matches!(value, "+Inf" | "-Inf" | "NaN" | "Nan" | "nan");
            if !numeric {
                return Err(format!("line {n}: `{value}` is not a number"));
            }
            let declared = types.iter().any(|(t, kind)| {
                name == t
                    || (kind == "histogram"
                        && (name.strip_suffix("_bucket") == Some(t)
                            || name.strip_suffix("_sum") == Some(t)
                            || name.strip_suffix("_count") == Some(t)))
            });
            if !declared {
                return Err(format!("line {n}: sample `{name}` has no preceding # TYPE"));
            }
            samples += 1;
        }
        Ok(samples)
    }
}

/// Chrome `trace_event` JSON. One trace microsecond equals one simulated
/// cycle, so Perfetto's timeline reads directly in cycles.
pub mod chrome {
    use super::*;

    /// Render the snapshot's events as instant events and its series as
    /// counter tracks, with the standard process/thread metadata.
    pub fn render(s: &Snapshot) -> String {
        let mut ev: Vec<String> = Vec::new();
        ev.push(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"asd-sim\"}}"
                .to_string(),
        );
        ev.push(
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"sim events\"}}"
                .to_string(),
        );
        for e in &s.events {
            let (an, bn) = e.kind.arg_names();
            ev.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"sim\",\"ph\":\"i\",\"ts\":{},\"pid\":1,\"tid\":0,\
                 \"s\":\"t\",\"args\":{{\"{an}\":{},\"{bn}\":{},\"cycle\":{}}}}}",
                e.kind.name(),
                e.at,
                e.a,
                e.b,
                e.at,
            ));
        }
        for m in &s.metrics {
            if let MetricValue::Series(points) = &m.value {
                let mut name = String::new();
                json::write_escaped(&m.name, &mut name);
                for (t, v) in points {
                    ev.push(format!(
                        "{{\"name\":{name},\"ph\":\"C\",\"ts\":{t},\"pid\":1,\"tid\":0,\
                         \"args\":{{\"value\":{}}}}}",
                        fmt_f64(*v),
                    ));
                }
            }
        }
        format!(
            "{{\"displayTimeUnit\":\"ms\",\
             \"otherData\":{{\"source\":\"asd-telemetry\",\"us_per_cycle\":1,\
             \"dropped_events\":{}}},\
             \"traceEvents\":[\n{}\n]}}\n",
            s.dropped_events,
            ev.join(",\n"),
        )
    }

    /// Validate trace-event JSON: the document must parse, carry a
    /// `traceEvents` array, and every entry must be an object with string
    /// `ph`/`name` and (except metadata events) a numeric `ts`. Returns
    /// the number of trace events.
    pub fn validate(text: &str) -> Result<usize, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        let events = doc
            .get("traceEvents")
            .and_then(|v| v.as_arr())
            .ok_or_else(|| "missing `traceEvents` array".to_string())?;
        for (i, e) in events.iter().enumerate() {
            let ph = e
                .get("ph")
                .and_then(|v| v.as_str())
                .ok_or_else(|| format!("traceEvents[{i}]: missing string `ph`"))?;
            if e.get("name").and_then(|v| v.as_str()).is_none() {
                return Err(format!("traceEvents[{i}]: missing string `name`"));
            }
            if ph != "M" && e.get("ts").and_then(|v| v.as_f64()).is_none() {
                return Err(format!("traceEvents[{i}]: missing numeric `ts`"));
            }
        }
        Ok(events.len())
    }
}

/// Per-epoch CSV series: `series,t,value` rows, one per sample.
pub mod csv {
    use super::*;

    /// Header row.
    pub const HEADER: &str = "series,t,value";

    /// Render every series in the snapshot.
    pub fn render(s: &Snapshot) -> String {
        let mut out = String::from(HEADER);
        out.push('\n');
        for m in &s.metrics {
            if let MetricValue::Series(points) = &m.value {
                for (t, v) in points {
                    out.push_str(&format!("{},{t},{}\n", m.name, fmt_f64(*v)));
                }
            }
        }
        out
    }

    /// Validate: header row plus `name,integer,number` rows. Returns the
    /// number of data rows.
    pub fn validate(text: &str) -> Result<usize, String> {
        let mut lines = text.lines();
        match lines.next() {
            Some(h) if h.trim_end() == HEADER => {}
            other => return Err(format!("bad header: {other:?} (want `{HEADER}`)")),
        }
        let mut rows = 0usize;
        for (idx, raw) in lines.enumerate() {
            let n = idx + 2;
            let line = raw.trim_end();
            if line.is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split(',').collect();
            if fields.len() != 3 {
                return Err(format!("line {n}: want 3 fields, got {}", fields.len()));
            }
            if fields[0].is_empty() {
                return Err(format!("line {n}: empty series name"));
            }
            if fields[1].parse::<u64>().is_err() {
                return Err(format!("line {n}: `{}` is not an integer t", fields[1]));
            }
            if fields[2].parse::<f64>().is_err() {
                return Err(format!("line {n}: `{}` is not a number", fields[2]));
            }
            rows += 1;
        }
        Ok(rows)
    }
}

/// Wall-time comparison of two `BENCH_figures.json` documents
/// (`asd-bench-figures/1` schema): the CI regression guard.
pub mod bench_diff {
    use super::*;

    fn wall_times(doc: &Value) -> Result<Vec<(String, f64)>, String> {
        let figures = doc
            .get("figures")
            .and_then(|v| v.as_arr())
            .ok_or_else(|| "missing `figures` array".to_string())?;
        let mut out = Vec::new();
        for (i, f) in figures.iter().enumerate() {
            let name = f
                .get("name")
                .and_then(|v| v.as_str())
                .ok_or_else(|| format!("figures[{i}]: missing `name`"))?;
            let wall = f
                .get("wall_ms")
                .and_then(|v| v.as_f64())
                .ok_or_else(|| format!("figures[{i}]: missing numeric `wall_ms`"))?;
            out.push((name.to_string(), wall));
        }
        // The report-level pipeline wall time rides along as a synthetic
        // row: under the graph scheduler figures overlap, so per-figure
        // times no longer sum to the end-to-end time, and the true total
        // deserves the same regression gate as any figure.
        if let Some(total) =
            doc.get("pipeline").and_then(|p| p.get("total_wall_ms")).and_then(|v| v.as_f64())
        {
            out.push(("pipeline.total_wall_ms".to_string(), total));
        }
        Ok(out)
    }

    /// The outcome of comparing two bench reports: per-figure regression
    /// messages split by severity, plus roster changes.
    #[derive(Debug, Default)]
    pub struct Diff {
        /// Figures past the warn threshold but under the fail threshold.
        pub warnings: Vec<String>,
        /// Figures past the fail threshold — the CI gate exits nonzero on
        /// any of these.
        pub failures: Vec<String>,
        /// Figures present only in the current report (informational: a
        /// new figure landing must not fail the gate on first landing).
        pub added: Vec<String>,
        /// Figures present only in the baseline report (informational).
        pub removed: Vec<String>,
    }

    /// Compare two reports and describe every figure whose wall time grew
    /// by at least `warn_pct` percent; growth of at least `fail_pct`
    /// lands in [`Diff::failures`] instead (the CI gate fails on those,
    /// while warnings stay advisory — wall time on a shared host is
    /// noisy, but the gate's 30% default sits well past that noise on
    /// whole-figure regeneration times). Figures
    /// faster than 1 ms in the baseline are skipped entirely, and
    /// figures under 100 ms can warn but never fail: at that scale a
    /// single scheduling hiccup is tens of percent, so a hard gate on
    /// them fires on noise, not regressions. Figures present in only one
    /// of the two reports are never a regression: they land in
    /// [`Diff::added`] / [`Diff::removed`] as informational rows, so a
    /// figure's first landing (or retirement) passes the gate. Parse
    /// failures are errors.
    pub fn diff(
        baseline: &str,
        current: &str,
        warn_pct: f64,
        fail_pct: f64,
    ) -> Result<Diff, String> {
        let base = wall_times(&json::parse(baseline).map_err(|e| format!("baseline: {e}"))?)
            .map_err(|e| format!("baseline: {e}"))?;
        let cur = wall_times(&json::parse(current).map_err(|e| format!("current: {e}"))?)
            .map_err(|e| format!("current: {e}"))?;
        let mut out = Diff::default();
        for (name, _) in &cur {
            if !base.iter().any(|(n, _)| n == name) {
                out.added.push(name.clone());
            }
        }
        for (name, b) in &base {
            let Some((_, c)) = cur.iter().find(|(n, _)| n == name) else {
                out.removed.push(name.clone());
                continue;
            };
            if *b < 1.0 {
                continue;
            }
            let grew_past = |pct: f64| *c > *b * (1.0 + pct / 100.0);
            if grew_past(fail_pct) && *b >= 100.0 {
                out.failures.push(format!(
                    "{name}: wall_ms {b:.1} -> {c:.1} (+{:.0}% >= {fail_pct:.0}%)",
                    (c / b - 1.0) * 100.0,
                ));
            } else if grew_past(warn_pct) {
                out.warnings.push(format!(
                    "{name}: wall_ms {b:.1} -> {c:.1} (+{:.0}% >= {warn_pct:.0}%)",
                    (c / b - 1.0) * 100.0,
                ));
            }
        }
        Ok(out)
    }

    /// Render a GitHub-flavored markdown table of per-figure wall times,
    /// baseline vs. current, with the signed percentage delta — the CI
    /// job-summary view of the same comparison [`diff`] gates on.
    /// Figures present in only one report render with `-` in the missing
    /// column and no delta.
    pub fn markdown_table(baseline: &str, current: &str) -> Result<String, String> {
        let base = wall_times(&json::parse(baseline).map_err(|e| format!("baseline: {e}"))?)
            .map_err(|e| format!("baseline: {e}"))?;
        let cur = wall_times(&json::parse(current).map_err(|e| format!("current: {e}"))?)
            .map_err(|e| format!("current: {e}"))?;
        let mut out = String::from(
            "| figure | baseline wall_ms | current wall_ms | delta |\n\
             |---|---:|---:|---:|\n",
        );
        for (name, b) in &base {
            match cur.iter().find(|(n, _)| n == name) {
                Some((_, c)) => {
                    let delta = (c / b - 1.0) * 100.0;
                    out.push_str(&format!("| {name} | {b:.1} | {c:.1} | {delta:+.1}% |\n"));
                }
                None => out.push_str(&format!("| {name} | {b:.1} | - | |\n")),
            }
        }
        for (name, c) in &cur {
            if !base.iter().any(|(n, _)| n == name) {
                out.push_str(&format!("| {name} | - | {c:.1} | |\n"));
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TelemetryConfig;
    use crate::events::EventKind;
    use crate::hist::Buckets;
    use crate::registry::{Registry, Unit};

    fn sample_snapshot() -> Snapshot {
        let mut r = Registry::section("", &TelemetryConfig::full());
        r.fill_counter("mc.reads", Unit::Commands, "reads entering the controller", 120);
        r.fill_counter("dram.bank[0].conflicts", Unit::Events, "row conflicts", 3);
        r.fill_counter("dram.bank[1].conflicts", Unit::Events, "row conflicts", 5);
        r.fill_gauge("dram.power.average_w", Unit::Watts, "mean power", 4.25);
        let h = r.histogram("mc.caq.occupancy", Unit::Commands, "CAQ depth", Buckets::zero_to(3));
        r.observe(h, 0);
        r.observe(h, 2);
        r.observe(h, 9);
        let se = r.series("mc.epoch.prefetches", Unit::Commands, "per-epoch prefetches");
        r.sample(se, 1000, 10.0);
        r.sample(se, 2000, 25.0);
        r.event(40, EventKind::PrefetchIssued, 7, 2);
        r.event(90, EventKind::PolicySwitch, 1, 2);
        r.snapshot()
    }

    #[test]
    fn prom_name_maps_brackets_to_labels() {
        let (base, labels) = prom_name("dram.bank[3].conflicts");
        assert_eq!(base, "dram_bank_conflicts");
        assert_eq!(labels, vec![("index".to_string(), "3".to_string())]);
        let (base, labels) = prom_name("mc.caq.occupancy");
        assert_eq!(base, "mc_caq_occupancy");
        assert!(labels.is_empty());
    }

    #[test]
    fn prom_renders_and_validates() {
        let text = prom::render(&sample_snapshot());
        assert!(text.contains("# TYPE mc_reads counter"));
        assert!(text.contains("mc_reads 120"));
        assert!(text.contains("dram_bank_conflicts{index=\"1\"} 5"));
        assert!(text.contains("mc_caq_occupancy_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("mc_caq_occupancy_count 3"));
        // The per-bank family declares its TYPE exactly once.
        assert_eq!(text.matches("# TYPE dram_bank_conflicts").count(), 1);
        let samples = prom::validate(&text).expect("generated text validates");
        assert!(samples >= 10, "got {samples} samples:\n{text}");
    }

    #[test]
    fn prom_validate_rejects_garbage() {
        assert!(prom::validate("mc_reads 12\n").is_err(), "sample without TYPE");
        assert!(prom::validate("# TYPE x counter\nx notanumber\n").is_err());
        assert!(prom::validate("# TYPE x wat\n").is_err());
        assert!(prom::validate("# TYPE x counter\nx{l=unquoted} 1\n").is_err());
        assert!(prom::validate("# TYPE x counter\n# TYPE x counter\n").is_err());
    }

    #[test]
    fn chrome_renders_parseable_trace_with_events_and_counters() {
        let text = chrome::render(&sample_snapshot());
        let n = chrome::validate(&text).expect("trace validates");
        // 2 metadata + 2 instants + 2 counter samples.
        assert_eq!(n, 6, "{text}");
        let doc = json::parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let issued = events
            .iter()
            .find(|e| e.get("name").and_then(|v| v.as_str()) == Some("prefetch_issued"))
            .expect("instant event present");
        assert_eq!(issued.get("ts").unwrap().as_f64(), Some(40.0));
        assert_eq!(issued.get("args").unwrap().get("line").unwrap().as_f64(), Some(7.0));
    }

    #[test]
    fn chrome_validate_rejects_bad_documents() {
        assert!(chrome::validate("not json").is_err());
        assert!(chrome::validate("{}").is_err(), "no traceEvents");
        assert!(chrome::validate("{\"traceEvents\":[{\"ph\":\"i\"}]}").is_err(), "no name");
        assert!(
            chrome::validate("{\"traceEvents\":[{\"ph\":\"i\",\"name\":\"x\"}]}").is_err(),
            "no ts"
        );
    }

    #[test]
    fn csv_roundtrip() {
        let text = csv::render(&sample_snapshot());
        assert_eq!(csv::validate(&text), Ok(2));
        assert!(text.contains("mc.epoch.prefetches,1000,10\n"));
        assert!(csv::validate("wrong,header\n").is_err());
        assert!(csv::validate("series,t,value\na,notint,1\n").is_err());
        assert!(csv::validate("series,t,value\na,1\n").is_err());
    }

    #[test]
    fn bench_diff_flags_only_real_regressions() {
        let base = r#"{"figures":[
            {"name":"fig2","wall_ms":100.0},
            {"name":"fig3","wall_ms":100.0},
            {"name":"tiny","wall_ms":0.2},
            {"name":"gone","wall_ms":50.0}]}"#;
        let cur = r#"{"figures":[
            {"name":"fig2","wall_ms":130.0},
            {"name":"fig3","wall_ms":110.0},
            {"name":"tiny","wall_ms":5.0},
            {"name":"new","wall_ms":1.0}]}"#;
        let d = bench_diff::diff(base, cur, 20.0, 50.0).expect("parses");
        assert_eq!(d.warnings.len(), 1, "{d:?}");
        assert!(d.warnings[0].starts_with("fig2:"), "{d:?}");
        assert!(d.failures.is_empty(), "{d:?}");
        // Roster changes are informational rows, never regressions.
        assert_eq!(d.added, vec!["new"], "{d:?}");
        assert_eq!(d.removed, vec!["gone"], "{d:?}");
        assert!(bench_diff::diff("not json", cur, 20.0, 50.0).is_err());
    }

    #[test]
    fn bench_diff_fails_past_the_hard_threshold() {
        let base = r#"{"figures":[
            {"name":"slow","wall_ms":100.0},
            {"name":"warned","wall_ms":100.0},
            {"name":"small","wall_ms":36.0},
            {"name":"fine","wall_ms":100.0}]}"#;
        let cur = r#"{"figures":[
            {"name":"slow","wall_ms":151.0},
            {"name":"warned","wall_ms":130.0},
            {"name":"small","wall_ms":70.0},
            {"name":"fine","wall_ms":99.0}]}"#;
        let d = bench_diff::diff(base, cur, 20.0, 50.0).expect("parses");
        assert_eq!(d.failures.len(), 1, "{d:?}");
        assert!(d.failures[0].starts_with("slow:"), "{d:?}");
        // `small` nearly doubled but sits under the 100 ms fail floor:
        // a sub-100 ms figure demotes to a warning however far it grew.
        assert_eq!(d.warnings.len(), 2, "{d:?}");
        assert!(d.warnings.iter().any(|w| w.starts_with("warned:")), "{d:?}");
        assert!(d.warnings.iter().any(|w| w.starts_with("small:")), "{d:?}");
    }

    #[test]
    fn bench_diff_gates_the_pipeline_total_row() {
        // The report-level `pipeline.total_wall_ms` rides through the
        // same gate as any figure row, and its absence on either side is
        // an informational roster change, not an error.
        let base = r#"{"pipeline":{"total_wall_ms":400.0},"figures":[
            {"name":"fig2","wall_ms":100.0}]}"#;
        let cur = r#"{"pipeline":{"total_wall_ms":640.0},"figures":[
            {"name":"fig2","wall_ms":100.0}]}"#;
        let d = bench_diff::diff(base, cur, 20.0, 50.0).expect("parses");
        assert_eq!(d.failures.len(), 1, "{d:?}");
        assert!(d.failures[0].starts_with("pipeline.total_wall_ms:"), "{d:?}");
        let t = bench_diff::markdown_table(base, cur).expect("parses");
        assert!(t.contains("| pipeline.total_wall_ms | 400.0 | 640.0 | +60.0% |"), "{t}");
        // A baseline without the block sees the row as newly added.
        let old = r#"{"figures":[{"name":"fig2","wall_ms":100.0}]}"#;
        let d = bench_diff::diff(old, cur, 20.0, 50.0).expect("parses");
        assert!(d.failures.is_empty() && d.warnings.is_empty(), "{d:?}");
        assert_eq!(d.added, vec!["pipeline.total_wall_ms"], "{d:?}");
    }

    #[test]
    fn bench_table_renders_every_figure_once() {
        let base = r#"{"figures":[
            {"name":"fig2","wall_ms":100.0},
            {"name":"gone","wall_ms":50.0}]}"#;
        let cur = r#"{"figures":[
            {"name":"fig2","wall_ms":80.0},
            {"name":"new","wall_ms":12.5}]}"#;
        let t = bench_diff::markdown_table(base, cur).expect("parses");
        assert!(t.starts_with("| figure |"), "{t}");
        assert!(t.contains("| fig2 | 100.0 | 80.0 | -20.0% |"), "{t}");
        assert!(t.contains("| gone | 50.0 | - | |"), "{t}");
        assert!(t.contains("| new | - | 12.5 | |"), "{t}");
        assert!(bench_diff::markdown_table("nope", cur).is_err());
    }
}
