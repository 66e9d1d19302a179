//! The instrument registry: typed instruments under hierarchical names,
//! allocated once so hot-path updates are a plain indexed add.
//!
//! Each instrumented component owns its own `Registry` *section* (the
//! memory controller's carries the `mc.` prefix, the DRAM model's
//! `dram.`), so there is no shared mutability on the hot path. At the end
//! of a run the sections are snapshotted and [`Snapshot::merge`]d into
//! one document that every exposition backend reads from.

use crate::config::TelemetryConfig;
use crate::events::{Event, EventKind, EventRing};
use crate::hist::{Buckets, Histogram};
use asd_core::counters::{Counters, Slot};

pub use asd_core::counters::Unit;

/// Handle to a registered counter. `u32::MAX` is the detached sentinel
/// returned by a metrics-off registry; updates through it are no-ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(u32);

/// Handle to a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(u32);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(u32);

/// Handle to a registered series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesId(u32);

const DETACHED: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq)]
struct Meta {
    name: String,
    unit: Unit,
    help: String,
}

/// One section of instruments plus an event ring. Cloneable so that
/// components owning a registry (e.g. the DRAM model) stay cloneable.
#[derive(Debug, Clone, PartialEq)]
pub struct Registry {
    prefix: String,
    metrics_on: bool,
    counters: Vec<u64>,
    counter_meta: Vec<Meta>,
    gauges: Vec<f64>,
    gauge_meta: Vec<Meta>,
    hists: Vec<Histogram>,
    hist_meta: Vec<Meta>,
    series: Vec<Vec<(u64, f64)>>,
    series_meta: Vec<Meta>,
    events: EventRing,
}

impl Registry {
    /// A section whose instrument names all carry `prefix` (use `"mc."`,
    /// `"dram."`, or `""` for the top level).
    pub fn section(prefix: &str, cfg: &TelemetryConfig) -> Self {
        Registry {
            prefix: prefix.to_string(),
            metrics_on: cfg.metrics,
            counters: Vec::new(),
            counter_meta: Vec::new(),
            gauges: Vec::new(),
            gauge_meta: Vec::new(),
            hists: Vec::new(),
            hist_meta: Vec::new(),
            series: Vec::new(),
            series_meta: Vec::new(),
            events: EventRing::new(cfg.events, cfg.event_capacity),
        }
    }

    /// A registry that records nothing; every registration returns the
    /// detached sentinel and every update is a no-op.
    pub fn disabled() -> Self {
        Registry::section("", &TelemetryConfig::off())
    }

    /// Are metric updates recorded?
    pub fn metrics_on(&self) -> bool {
        self.metrics_on
    }

    /// Is the event ring recording?
    pub fn events_on(&self) -> bool {
        self.events.is_on()
    }

    fn full_name(&self, name: &str) -> String {
        let mut s = String::with_capacity(self.prefix.len() + name.len());
        s.push_str(&self.prefix);
        s.push_str(name);
        s
    }

    /// Register a monotonic counter.
    pub fn counter(&mut self, name: &str, unit: Unit, help: &str) -> CounterId {
        if !self.metrics_on {
            return CounterId(DETACHED);
        }
        let id = CounterId(self.counters.len() as u32);
        self.counters.push(0);
        self.counter_meta.push(Meta { name: self.full_name(name), unit, help: help.to_string() });
        id
    }

    /// Register a gauge (a point-in-time `f64`).
    pub fn gauge(&mut self, name: &str, unit: Unit, help: &str) -> GaugeId {
        if !self.metrics_on {
            return GaugeId(DETACHED);
        }
        let id = GaugeId(self.gauges.len() as u32);
        self.gauges.push(0.0);
        self.gauge_meta.push(Meta { name: self.full_name(name), unit, help: help.to_string() });
        id
    }

    /// Register a fixed-bucket histogram.
    pub fn histogram(
        &mut self,
        name: &str,
        unit: Unit,
        help: &str,
        buckets: Buckets,
    ) -> HistogramId {
        if !self.metrics_on {
            return HistogramId(DETACHED);
        }
        let id = HistogramId(self.hists.len() as u32);
        self.hists.push(Histogram::new(buckets));
        self.hist_meta.push(Meta { name: self.full_name(name), unit, help: help.to_string() });
        id
    }

    /// Register a `(t, value)` series sampled at epoch granularity.
    pub fn series(&mut self, name: &str, unit: Unit, help: &str) -> SeriesId {
        if !self.metrics_on {
            return SeriesId(DETACHED);
        }
        let id = SeriesId(self.series.len() as u32);
        self.series.push(Vec::new());
        self.series_meta.push(Meta { name: self.full_name(name), unit, help: help.to_string() });
        id
    }

    /// Add `n` to a counter.
    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        if self.metrics_on {
            if let Some(c) = self.counters.get_mut(id.0 as usize) {
                *c += n;
            }
        }
    }

    /// Overwrite a counter (snapshot-time fill from an authoritative
    /// stats struct).
    pub fn set_counter(&mut self, id: CounterId, v: u64) {
        if self.metrics_on {
            if let Some(c) = self.counters.get_mut(id.0 as usize) {
                *c = v;
            }
        }
    }

    /// Set a gauge.
    #[inline]
    pub fn set_gauge(&mut self, id: GaugeId, v: f64) {
        if self.metrics_on {
            if let Some(g) = self.gauges.get_mut(id.0 as usize) {
                *g = v;
            }
        }
    }

    /// Record one histogram sample.
    #[inline]
    pub fn observe(&mut self, id: HistogramId, v: u64) {
        if self.metrics_on {
            if let Some(h) = self.hists.get_mut(id.0 as usize) {
                h.observe(v);
            }
        }
    }

    /// Append one `(t, value)` sample to a series.
    #[inline]
    pub fn sample(&mut self, id: SeriesId, t: u64, v: f64) {
        if self.metrics_on {
            if let Some(s) = self.series.get_mut(id.0 as usize) {
                s.push((t, v));
            }
        }
    }

    /// Record an event at cycle `at` (no-op unless the ring is on).
    #[inline]
    pub fn event(&mut self, at: u64, kind: EventKind, a: u64, b: u64) {
        self.events.record(Event { at, kind, a, b });
    }

    /// Register-and-set in one call: the snapshot-time path that mirrors
    /// an already-accumulated stat onto the registry.
    pub fn fill_counter(&mut self, name: &str, unit: Unit, help: &str, v: u64) {
        let id = self.counter(name, unit, help);
        self.set_counter(id, v);
    }

    /// Register-and-set for gauges.
    pub fn fill_gauge(&mut self, name: &str, unit: Unit, help: &str, v: f64) {
        let id = self.gauge(name, unit, help);
        self.set_gauge(id, v);
    }

    /// Mirror every exported counter of `stats` onto this section, in
    /// walk order: a `u64` as a counter, an `f64` as a gauge.
    pub fn fill_counters(&mut self, stats: &mut dyn Counters) {
        stats.visit_counters(&mut String::new(), &mut |name, export, slot| {
            let Some(e) = export else { return };
            match slot {
                Slot::U64(v) => self.fill_counter(name, e.unit, e.help, *v),
                Slot::F64(v) => self.fill_gauge(name, e.unit, e.help, *v),
            }
        });
    }

    /// Freeze this section into a snapshot. Metrics appear in
    /// registration order (counters, then gauges, histograms, series).
    pub fn snapshot(&self) -> Snapshot {
        let mut metrics = Vec::new();
        for (m, v) in self.counter_meta.iter().zip(&self.counters) {
            metrics.push(Metric {
                name: m.name.clone(),
                unit: m.unit,
                help: m.help.clone(),
                value: MetricValue::Counter(*v),
            });
        }
        for (m, v) in self.gauge_meta.iter().zip(&self.gauges) {
            metrics.push(Metric {
                name: m.name.clone(),
                unit: m.unit,
                help: m.help.clone(),
                value: MetricValue::Gauge(*v),
            });
        }
        for (m, h) in self.hist_meta.iter().zip(&self.hists) {
            metrics.push(Metric {
                name: m.name.clone(),
                unit: m.unit,
                help: m.help.clone(),
                value: MetricValue::Histogram(h.clone()),
            });
        }
        for (m, s) in self.series_meta.iter().zip(&self.series) {
            metrics.push(Metric {
                name: m.name.clone(),
                unit: m.unit,
                help: m.help.clone(),
                value: MetricValue::Series(s.clone()),
            });
        }
        Snapshot { metrics, events: self.events.to_vec(), dropped_events: self.events.dropped() }
    }
}

/// A metric's value at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic count.
    Counter(u64),
    /// Point-in-time value.
    Gauge(f64),
    /// Distribution.
    Histogram(Histogram),
    /// `(t, value)` samples, typically one per epoch.
    Series(Vec<(u64, f64)>),
}

/// One named metric in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Full hierarchical name (`mc.caq.occupancy`, ...).
    pub name: String,
    /// Unit.
    pub unit: Unit,
    /// One-line description.
    pub help: String,
    /// The value.
    pub value: MetricValue,
}

/// The frozen, merged view of a run's telemetry: what the exposition
/// backends and derived-metric helpers read from.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// All metrics, in section order.
    pub metrics: Vec<Metric>,
    /// All retained events.
    pub events: Vec<Event>,
    /// Events lost to ring wraparound.
    pub dropped_events: u64,
}

impl Snapshot {
    /// Append another section's snapshot.
    pub fn merge(&mut self, other: Snapshot) {
        self.metrics.extend(other.metrics);
        self.events.extend(other.events);
        self.dropped_events += other.dropped_events;
    }

    /// Stable-sort events by cycle (sections record independently, so the
    /// merged list interleaves).
    pub fn sort_events(&mut self) {
        self.events.sort_by_key(|e| e.at);
    }

    fn find(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Counter value by full name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.find(name)?.value {
            MetricValue::Counter(v) => Some(v),
            _ => None,
        }
    }

    /// Gauge value by full name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.find(name)?.value {
            MetricValue::Gauge(v) => Some(v),
            _ => None,
        }
    }

    /// Histogram by full name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        match &self.find(name)?.value {
            MetricValue::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// Series by full name.
    pub fn series(&self, name: &str) -> Option<&[(u64, f64)]> {
        match &self.find(name)?.value {
            MetricValue::Series(s) => Some(s),
            _ => None,
        }
    }

    /// Read a stats struct back out of the snapshot through its counter
    /// schema: every exported counter of `T`, under the name its walk
    /// gives it from the root path — the inverse of
    /// [`Registry::fill_counters`]. Unexported counters keep their
    /// default. `None` if any exported counter is missing (metrics off).
    pub fn read_counters<T: Counters + Default>(&self) -> Option<T> {
        let mut stats = T::default();
        let mut complete = true;
        stats.visit_counters(&mut String::new(), &mut |name, export, slot| {
            if export.is_none() {
                return;
            }
            let found = match slot {
                Slot::U64(v) => self.counter(name).map(|x| *v = x),
                Slot::F64(v) => self.gauge(name).map(|x| *v = x),
            };
            complete &= found.is_some();
        });
        complete.then_some(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexed_updates_and_snapshot_roundtrip() {
        let mut r = Registry::section("mc.", &TelemetryConfig::full());
        let c = r.counter("reads", Unit::Commands, "demand reads");
        let h = r.histogram("caq.occupancy", Unit::Commands, "CAQ depth", Buckets::zero_to(3));
        let s = r.series("epoch.prefetches", Unit::Commands, "per-epoch prefetches");
        r.add(c, 2);
        r.add(c, 3);
        r.observe(h, 1);
        r.sample(s, 100, 7.0);
        r.event(5, EventKind::PrefetchIssued, 42, 1);
        let snap = r.snapshot();
        assert_eq!(snap.counter("mc.reads"), Some(5));
        assert_eq!(snap.histogram("mc.caq.occupancy").map(|h| h.total()), Some(1));
        assert_eq!(snap.series("mc.epoch.prefetches"), Some(&[(100, 7.0)][..]));
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.events[0].at, 5);
    }

    #[test]
    fn disabled_registry_is_inert() {
        let mut r = Registry::disabled();
        let c = r.counter("reads", Unit::Commands, "x");
        let h = r.histogram("h", Unit::Cycles, "x", Buckets::pow2(4));
        r.add(c, 10);
        r.observe(h, 1);
        r.event(1, EventKind::PbHit, 0, 0);
        let snap = r.snapshot();
        assert!(snap.metrics.is_empty());
        assert!(snap.events.is_empty());
    }

    #[test]
    fn detached_ids_do_not_cross_wires_into_live_registries() {
        // An id handed out by a disabled registry must stay a no-op even
        // if misused against an enabled one.
        let mut off = Registry::disabled();
        let bad = off.counter("x", Unit::None, "x");
        let mut on = Registry::section("", &TelemetryConfig::metrics_only());
        let good = on.counter("y", Unit::None, "y");
        on.add(bad, 99);
        on.add(good, 1);
        assert_eq!(on.snapshot().counter("y"), Some(1));
    }

    #[test]
    fn merge_concatenates_and_sort_orders_events() {
        let mut a = Registry::section("a.", &TelemetryConfig::full());
        a.fill_counter("n", Unit::None, "x", 1);
        a.event(10, EventKind::PbHit, 0, 0);
        let mut b = Registry::section("b.", &TelemetryConfig::full());
        b.fill_counter("n", Unit::None, "x", 2);
        b.event(4, EventKind::BankConflict, 1, 1);
        let mut snap = a.snapshot();
        snap.merge(b.snapshot());
        snap.sort_events();
        assert_eq!(snap.counter("a.n"), Some(1));
        assert_eq!(snap.counter("b.n"), Some(2));
        assert_eq!(snap.events.iter().map(|e| e.at).collect::<Vec<_>>(), [4, 10]);
    }

    asd_core::counters! {
        /// A stats block for the mirror tests.
        #[derive(Debug, Clone, Copy, PartialEq, Default)]
        struct Block {
            /// A counter.
            reads: u64 => ("blk.reads", Commands, "reads"),
            /// A gauge.
            energy: f64 => ("blk.energy_j", Joules, "energy"),
            /// Not exported.
            scratch: u64 => (unexported),
        }
    }

    #[test]
    fn read_counters_roundtrips_fill_counters() {
        let mut block = Block { reads: 7, energy: 0.25, scratch: 3 };
        let mut r = Registry::section("", &TelemetryConfig::metrics_only());
        r.fill_counters(&mut block);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["blk.reads", "blk.energy_j"], "counters first, unexported left out");
        assert_eq!(snap.read_counters::<Block>(), Some(Block { scratch: 0, ..block }));
    }

    #[test]
    fn read_counters_is_none_when_counters_missing() {
        assert_eq!(Snapshot::default().read_counters::<Block>(), None);
        let mut r = Registry::section("", &TelemetryConfig::metrics_only());
        r.fill_counter("blk.reads", Unit::Commands, "reads", 1);
        assert_eq!(r.snapshot().read_counters::<Block>(), None, "the gauge is missing");
    }

    #[test]
    fn events_only_config_keeps_metrics_off() {
        let cfg = TelemetryConfig { metrics: false, events: true, event_capacity: 8 };
        let mut r = Registry::section("", &cfg);
        let c = r.counter("n", Unit::None, "x");
        r.add(c, 1);
        r.event(1, EventKind::EpochRollover, 0, 0);
        let snap = r.snapshot();
        assert!(snap.metrics.is_empty());
        assert_eq!(snap.events.len(), 1);
    }
}
