#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

//! `asd-telemetry`: the simulator's observability subsystem.
//!
//! The paper's evaluation is built on internal visibility — prefetch
//! accuracy/coverage (Fig. 13), queue occupancies and conflict counts
//! driving Adaptive Scheduling (§3.5), DRAM power breakdowns (Fig. 10).
//! This crate gives all of that one schema:
//!
//! * [`Registry`] — typed instruments (monotonic counters, gauges,
//!   fixed-bucket [`Histogram`]s, per-epoch series) registered once under
//!   hierarchical names (`mc.caq.occupancy`, `dram.bank[3].conflicts`),
//!   so hot-path updates are a plain indexed add with no hashing.
//! * [`EventRing`] — a bounded ring of timestamped [`Event`]s (prefetch
//!   issued/dropped, policy switch, bank conflict, epoch rollover)
//!   behind an enabled flag; the disabled path is a single branch.
//! * [`expo`] — exposition backends: Prometheus text, Chrome
//!   `trace_event` JSON (loadable in Perfetto), per-epoch CSV, each with
//!   an in-tree validator used by the CI smoke steps, plus the
//!   `BENCH_figures.json` wall-time regression diff.
//! * [`Registry::fill_counters`] / [`Snapshot::read_counters`] — the
//!   end-of-run stats structs mirrored onto a snapshot and read back out
//!   of one, both through `asd-core`'s counter schema
//!   ([`asd_core::counters`](mod@asd_core::counters)).
//! * [`metrics`] — the metric names a consumer outside their producer
//!   reads, and the zero-safe `ratio` of the derived metrics.
//! * [`json`] — the workspace's one JSON codec: the bench report, the
//!   `asd-serve` wire protocol and the validators above all read and
//!   write JSON through it.
//!
//! Each instrumented component owns its own registry *section* (no
//! shared mutability on the hot path); at the end of a run the sections
//! are snapshotted and [`Snapshot::merge`]d into one document. Telemetry
//! only observes: results are bit-identical with it on or off, which
//! `tests/telemetry.rs` pins across suites and sweep modes.
//!
//! This crate sits directly above `core` in the workspace layering and
//! depends only on it (for the counter schema and [`Unit`]), so every
//! sim crate can use it.

pub mod config;
pub mod events;
pub mod expo;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod registry;

pub use config::TelemetryConfig;
pub use events::{Event, EventKind, EventRing};
pub use hist::{Buckets, Histogram};
pub use metrics::names;
pub use registry::{
    CounterId, GaugeId, HistogramId, Metric, MetricValue, Registry, SeriesId, Snapshot, Unit,
};

/// Parser cases for [`json`] on small hand-written documents: scalars,
/// member order, `\u` escapes and surrogate pairs, raw UTF-8 and
/// malformed input. `json.rs` holds the codec's rendering, round-trip,
/// depth-limit and fuzz tests.
#[cfg(test)]
mod jsonv {
    mod tests {
        use crate::json::{parse, Value};

        #[test]
        fn parses_scalars() {
            assert_eq!(parse("null"), Ok(Value::Null));
            assert_eq!(parse(" true "), Ok(Value::Bool(true)));
            assert_eq!(parse("-12.5e2"), Ok(Value::Num(-1250.0)));
            assert_eq!(parse(r#""a\nb""#), Ok(Value::Str("a\nb".into())));
        }

        #[test]
        fn parses_nested_structures_in_order() {
            let v = parse(r#"{"b": [1, {"x": null}], "a": "s"}"#).unwrap();
            let Value::Obj(fields) = &v else { panic!("not an object: {v:?}") };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["b", "a"]);
            assert_eq!(v.get("b").and_then(Value::as_arr).unwrap()[0].as_f64(), Some(1.0));
        }

        #[test]
        fn unicode_escapes_and_surrogate_pairs() {
            assert_eq!(parse(r#""\u0041""#), Ok(Value::Str("A".into())));
            assert_eq!(parse(r#""\ud83d\ude00""#), Ok(Value::Str("😀".into())));
            assert!(parse(r#""\ud83d""#).is_err(), "lone high surrogate rejected");
            assert!(parse(r#""\udc00""#).is_err(), "lone low surrogate rejected");
        }

        #[test]
        fn rejects_malformed_documents() {
            for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "1 2", "\"\x01\"", "nul"] {
                assert!(parse(bad).is_err(), "{bad:?} should fail");
            }
        }

        #[test]
        fn utf8_passthrough() {
            assert_eq!(parse("\"héllo✓😀\""), Ok(Value::Str("héllo✓😀".into())));
        }
    }
}
