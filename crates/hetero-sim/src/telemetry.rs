//! Structured observability: a named metrics registry and hierarchical
//! sim-time spans.
//!
//! The paper's headline claims are quantitative — management-overhead
//! percentages (Fig 8), miss-latency cycles (Fig 6), migration counts
//! (Table 6) — and debugging a policy means asking *which subsystem* spent
//! the time. This module provides the two primitives the engines wire
//! through their hot paths when [`telemetry`] is switched on:
//!
//! * a [`Registry`] of named metrics — saturating counters, `f64` gauges
//!   and [`Histogram`]-backed latency distributions — with deterministic
//!   (sorted) iteration so two runs with the same seed snapshot to the
//!   same bytes;
//! * a [`SpanTracer`] of lightweight hierarchical spans (epoch →
//!   guest-op → vmm-decision) stamped with simulated time, kept in a
//!   bounded ring like the [`EventLog`](crate::EventLog).
//!
//! Everything here is observational: recording a metric or a span never
//! draws from the RNG and never advances the clock, so a telemetry-enabled
//! run produces the **same** `RunReport` and event trace as a disabled one.
//!
//! Naming scheme: dot-separated `layer.subsystem.metric`, e.g.
//! `guest.lru.activations`, `vmm.scan.frames`, `engine.epoch_ns`.
//!
//! [`telemetry`]: self
//!
//! # Examples
//!
//! ```
//! use hetero_sim::telemetry::Telemetry;
//! use hetero_sim::Nanos;
//!
//! let mut t = Telemetry::new();
//! let epoch = t.spans.open("epoch", Nanos::ZERO);
//! let scan = t.spans.open("vmm-decision", Nanos::from_micros(10));
//! t.registry.counter_add("vmm.scan.frames", 512);
//! t.registry.observe("engine.epoch_ns", 1_000);
//! t.spans.close(scan, Nanos::from_micros(40));
//! t.spans.close(epoch, Nanos::from_micros(50));
//! assert_eq!(t.registry.counter("vmm.scan.frames"), 512);
//! assert_eq!(t.spans.finished().count(), 2);
//! ```

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use crate::export::{json_f64, json_string};
use crate::stats::Histogram;
use crate::time::Nanos;

/// Default bound on retained finished spans (older spans are dropped,
/// counted, exactly like the event log).
pub const DEFAULT_SPAN_CAPACITY: usize = 8192;

/// One named metric.
#[derive(Debug, Clone)]
pub enum MetricValue {
    /// Monotonic saturating count.
    Counter(u64),
    /// Last-written instantaneous value.
    Gauge(f64),
    /// Power-of-two bucketed sample distribution (boxed: the bucket array
    /// would otherwise dwarf the scalar variants).
    Histogram(Box<Histogram>),
}

impl MetricValue {
    fn kind_name(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        }
    }
}

/// A registry of named metrics with deterministic iteration order.
///
/// Names are dot-separated paths (`guest.slab.allocs`); the map is sorted,
/// so snapshots and exports are byte-stable across runs given the same
/// recorded values.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    metrics: BTreeMap<String, MetricValue>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn counter_mut(&mut self, name: &str) -> &mut u64 {
        let entry = self
            .metrics
            .entry(name.to_string())
            .or_insert(MetricValue::Counter(0));
        match entry {
            MetricValue::Counter(v) => v,
            other => panic!("metric '{name}' is a {}, not a counter", other.kind_name()),
        }
    }

    /// Adds `n` to the named counter (creating it at zero), saturating.
    ///
    /// # Panics
    ///
    /// Panics if the name is already registered as a different kind.
    pub fn counter_add(&mut self, name: &str, n: u64) {
        let v = self.counter_mut(name);
        *v = v.saturating_add(n);
    }

    /// Adds one to the named counter.
    pub fn counter_incr(&mut self, name: &str) {
        self.counter_add(name, 1);
    }

    /// Overwrites the named counter with a sampled cumulative total.
    ///
    /// Subsystems that keep their own counters (the guest kernel's LRU and
    /// slab statistics, the VMM ledger) are *sampled* into the registry —
    /// the source is already cumulative, so the sample replaces rather than
    /// accumulates. Idempotent: sampling every epoch is safe.
    pub fn counter_set(&mut self, name: &str, v: u64) {
        *self.counter_mut(name) = v;
    }

    /// Sets the named gauge (creating it if needed).
    ///
    /// # Panics
    ///
    /// Panics if the name is already registered as a different kind.
    pub fn gauge_set(&mut self, name: &str, v: f64) {
        let entry = self
            .metrics
            .entry(name.to_string())
            .or_insert(MetricValue::Gauge(0.0));
        match entry {
            MetricValue::Gauge(g) => *g = v,
            other => panic!("metric '{name}' is a {}, not a gauge", other.kind_name()),
        }
    }

    /// Records a sample into the named histogram (creating it if needed).
    ///
    /// # Panics
    ///
    /// Panics if the name is already registered as a different kind.
    pub fn observe(&mut self, name: &str, v: u64) {
        let entry = self
            .metrics
            .entry(name.to_string())
            .or_insert_with(|| MetricValue::Histogram(Box::default()));
        match entry {
            MetricValue::Histogram(h) => h.record(v),
            other => panic!(
                "metric '{name}' is a {}, not a histogram",
                other.kind_name()
            ),
        }
    }

    /// Current value of a counter, `0` when absent.
    pub fn counter(&self, name: &str) -> u64 {
        match self.metrics.get(name) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Current value of a gauge, `None` when absent.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.metrics.get(name) {
            Some(MetricValue::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// The named histogram, `None` when absent.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        match self.metrics.get(name) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// All metrics in sorted-name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.metrics.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Renders the registry as a JSON object keyed by metric name.
    ///
    /// Counters become `{"type":"counter","value":N}`, gauges
    /// `{"type":"gauge","value":X}`, histograms a summary object with
    /// count/mean/min/max and the p50/p90/p99 bucket bounds.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, metric)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n  ");
            out.push_str(&json_string(name));
            out.push_str(": ");
            match metric {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("{{\"type\":\"counter\",\"value\":{v}}}"));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!(
                        "{{\"type\":\"gauge\",\"value\":{}}}",
                        json_f64(*v)
                    ));
                }
                MetricValue::Histogram(h) => {
                    out.push_str(&format!(
                        "{{\"type\":\"histogram\",\"count\":{},\"mean\":{},\
                         \"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                        h.count(),
                        json_f64(h.mean()),
                        h.min(),
                        h.max(),
                        h.percentile(0.5),
                        h.percentile(0.9),
                        h.percentile(0.99),
                    ));
                }
            }
        }
        out.push_str("\n}");
        out
    }

    /// Renders the registry as CSV: `name,type,value,count,mean,min,max`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("name,type,value,count,mean,min,max\n");
        for (name, metric) in self.metrics.iter() {
            let row = match metric {
                MetricValue::Counter(v) => format!("{name},counter,{v},,,,"),
                MetricValue::Gauge(v) => format!("{name},gauge,{v},,,,"),
                MetricValue::Histogram(h) => format!(
                    "{name},histogram,,{},{},{},{}",
                    h.count(),
                    h.mean(),
                    h.min(),
                    h.max()
                ),
            };
            out.push_str(&row);
            out.push('\n');
        }
        out
    }
}

/// Handle to an open span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(u64);

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id (creation order, starting at 1).
    pub id: u64,
    /// Id of the enclosing span, `None` for roots.
    pub parent: Option<u64>,
    /// Nesting depth (roots are 0).
    pub depth: u32,
    /// Span label (e.g. `epoch`, `guest-ops`, `vmm-decision`).
    pub label: String,
    /// Simulated instant the span opened.
    pub start: Nanos,
    /// Simulated instant the span closed.
    pub end: Nanos,
}

impl SpanRecord {
    /// Span duration in simulated time.
    pub fn duration(&self) -> Nanos {
        self.end - self.start
    }
}

impl fmt::Display for SpanRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:indent$}{} [{} .. {}] ({})",
            "",
            self.label,
            self.start,
            self.end,
            self.duration(),
            indent = self.depth as usize * 2
        )
    }
}

#[derive(Debug, Clone)]
struct OpenSpan {
    id: u64,
    label: String,
    start: Nanos,
}

/// Hierarchical span collector with a bounded finished-span ring.
///
/// Spans close LIFO: closing a span implicitly closes any still-open
/// children (stamped with the same end instant), so the hierarchy is
/// always well-nested even if an engine path forgets an inner close.
#[derive(Debug, Clone)]
pub struct SpanTracer {
    next_id: u64,
    open: Vec<OpenSpan>,
    finished: VecDeque<SpanRecord>,
    capacity: usize,
    dropped: u64,
}

impl Default for SpanTracer {
    fn default() -> Self {
        SpanTracer::new(DEFAULT_SPAN_CAPACITY)
    }
}

impl SpanTracer {
    /// Creates a tracer retaining at most `capacity` finished spans.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "span capacity must be non-zero");
        SpanTracer {
            next_id: 1,
            open: Vec::new(),
            finished: VecDeque::with_capacity(capacity.min(1024)),
            capacity,
            dropped: 0,
        }
    }

    /// Opens a span nested under the innermost open span.
    pub fn open(&mut self, label: impl Into<String>, at: Nanos) -> SpanId {
        let id = self.next_id;
        self.next_id += 1;
        self.open.push(OpenSpan {
            id,
            label: label.into(),
            start: at,
        });
        SpanId(id)
    }

    /// Closes a span (and, first, any still-open spans nested inside it).
    /// A no-op if the id was already closed.
    pub fn close(&mut self, id: SpanId, at: Nanos) {
        let Some(pos) = self.open.iter().position(|s| s.id == id.0) else {
            return;
        };
        while self.open.len() > pos {
            let span = self.open.pop().expect("len checked");
            let parent = self.open.last().map(|s| s.id);
            let depth = self.open.len() as u32;
            self.push_finished(SpanRecord {
                id: span.id,
                parent,
                depth,
                label: span.label,
                start: span.start,
                end: at,
            });
        }
    }

    fn push_finished(&mut self, record: SpanRecord) {
        if self.finished.len() == self.capacity {
            self.finished.pop_front();
            self.dropped += 1;
        }
        self.finished.push_back(record);
    }

    /// Number of currently open (unclosed) spans.
    pub fn open_depth(&self) -> usize {
        self.open.len()
    }

    /// Finished spans, in completion order (children before parents).
    pub fn finished(&self) -> impl Iterator<Item = &SpanRecord> {
        self.finished.iter()
    }

    /// Retained finished-span count.
    pub fn len(&self) -> usize {
        self.finished.len()
    }

    /// True when no span has finished.
    pub fn is_empty(&self) -> bool {
        self.finished.is_empty()
    }

    /// Finished spans evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Renders finished spans as a JSON array of objects.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.finished.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n  ");
            let parent = match s.parent {
                Some(p) => p.to_string(),
                None => "null".to_string(),
            };
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"depth\":{},\"label\":{},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                parent,
                s.depth,
                json_string(&s.label),
                s.start.as_nanos(),
                s.end.as_nanos(),
            ));
        }
        out.push_str("\n]");
        out
    }

    /// Renders finished spans as CSV: `id,parent,depth,label,start_ns,end_ns`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("id,parent,depth,label,start_ns,end_ns\n");
        for s in self.finished.iter() {
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
            out.push_str(&format!(
                "{},{},{},{},{},{}\n",
                s.id,
                parent,
                s.depth,
                crate::export::csv_field(&s.label),
                s.start.as_nanos(),
                s.end.as_nanos(),
            ));
        }
        out
    }
}

/// The per-run observability bundle: one registry plus one span tracer.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    /// Named counters, gauges and histograms.
    pub registry: Registry,
    /// Hierarchical sim-time spans.
    pub spans: SpanTracer,
}

impl Telemetry {
    /// Creates empty telemetry with the default span bound.
    pub fn new() -> Self {
        Telemetry::default()
    }

    /// Creates empty telemetry retaining at most `span_capacity` spans.
    pub fn with_span_capacity(span_capacity: usize) -> Self {
        Telemetry {
            registry: Registry::new(),
            spans: SpanTracer::new(span_capacity),
        }
    }

    /// Renders the whole bundle as one JSON document:
    /// `{"metrics": {...}, "spans": [...], "spans_dropped": N}`.
    pub fn snapshot_json(&self) -> String {
        format!(
            "{{\n\"metrics\": {},\n\"spans\": {},\n\"spans_dropped\": {}\n}}",
            self.registry.to_json(),
            self.spans.to_json(),
            self.spans.dropped()
        )
    }
}

crate::impl_snap!(enum MetricValue {
    0 => Counter(v),
    1 => Gauge(v),
    2 => Histogram(h),
});

crate::impl_snap!(struct Registry { metrics });

crate::impl_snap!(struct SpanRecord { id, parent, depth, label, start, end });

crate::impl_snap!(struct OpenSpan { id, label, start });

crate::impl_snap!(struct SpanTracer { next_id, open, finished, capacity, dropped });

crate::impl_snap!(struct Telemetry { registry, spans });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_saturate() {
        let mut r = Registry::new();
        r.counter_add("a.b", 2);
        r.counter_incr("a.b");
        assert_eq!(r.counter("a.b"), 3);
        r.counter_add("a.b", u64::MAX);
        assert_eq!(r.counter("a.b"), u64::MAX);
        assert_eq!(r.counter("missing"), 0);
    }

    #[test]
    fn counter_set_overwrites() {
        let mut r = Registry::new();
        r.counter_set("sampled", 10);
        r.counter_set("sampled", 10);
        assert_eq!(r.counter("sampled"), 10);
    }

    #[test]
    fn gauges_and_histograms() {
        let mut r = Registry::new();
        r.gauge_set("g", 0.25);
        assert_eq!(r.gauge("g"), Some(0.25));
        r.gauge_set("g", 0.5);
        assert_eq!(r.gauge("g"), Some(0.5));
        for v in [10, 20, 30] {
            r.observe("h", v);
        }
        let h = r.histogram("h").expect("histogram registered");
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), 30);
        assert_eq!(r.gauge("h"), None, "kind-checked accessors");
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let mut r = Registry::new();
        r.counter_incr("x");
        r.gauge_set("x", 1.0);
    }

    #[test]
    fn iteration_is_sorted() {
        let mut r = Registry::new();
        r.counter_incr("z.last");
        r.counter_incr("a.first");
        r.counter_incr("m.middle");
        let names: Vec<&str> = r.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a.first", "m.middle", "z.last"]);
    }

    #[test]
    fn spans_nest_and_close_in_order() {
        let mut t = SpanTracer::new(16);
        let a = t.open("epoch", Nanos::from_nanos(0));
        let b = t.open("guest-ops", Nanos::from_nanos(10));
        let c = t.open("vmm-decision", Nanos::from_nanos(20));
        assert_eq!(t.open_depth(), 3);
        t.close(c, Nanos::from_nanos(30));
        t.close(b, Nanos::from_nanos(40));
        t.close(a, Nanos::from_nanos(50));
        let spans: Vec<&SpanRecord> = t.finished().collect();
        assert_eq!(spans.len(), 3);
        // Completion order: innermost first.
        assert_eq!(spans[0].label, "vmm-decision");
        assert_eq!(spans[0].depth, 2);
        assert_eq!(spans[0].parent, Some(spans[1].id));
        assert_eq!(spans[1].parent, Some(spans[2].id));
        assert_eq!(spans[2].parent, None);
        assert_eq!(spans[2].duration(), Nanos::from_nanos(50));
    }

    #[test]
    fn closing_parent_closes_open_children() {
        let mut t = SpanTracer::new(16);
        let a = t.open("epoch", Nanos::ZERO);
        let _leaked = t.open("guest-ops", Nanos::from_nanos(5));
        t.close(a, Nanos::from_nanos(9));
        assert_eq!(t.open_depth(), 0);
        let spans: Vec<&SpanRecord> = t.finished().collect();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].label, "guest-ops");
        assert_eq!(
            spans[0].end,
            Nanos::from_nanos(9),
            "stamped at parent close"
        );
    }

    #[test]
    fn double_close_is_a_noop() {
        let mut t = SpanTracer::new(16);
        let a = t.open("epoch", Nanos::ZERO);
        t.close(a, Nanos::from_nanos(1));
        t.close(a, Nanos::from_nanos(2));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn ring_bounds_and_counts_drops() {
        let mut t = SpanTracer::new(2);
        for i in 0..4u64 {
            let s = t.open("epoch", Nanos::from_nanos(i));
            t.close(s, Nanos::from_nanos(i + 1));
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 2);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_span_capacity_rejected() {
        SpanTracer::new(0);
    }

    #[test]
    fn registry_json_is_deterministic_and_typed() {
        let build = || {
            let mut r = Registry::new();
            r.counter_add("b.count", 7);
            r.gauge_set("a.gauge", 0.125);
            r.observe("c.hist", 100);
            r.to_json()
        };
        let j1 = build();
        let j2 = build();
        assert_eq!(j1, j2);
        assert!(j1.contains("\"a.gauge\": {\"type\":\"gauge\",\"value\":0.125}"));
        assert!(j1.contains("\"b.count\": {\"type\":\"counter\",\"value\":7}"));
        assert!(j1.contains("\"type\":\"histogram\",\"count\":1"));
    }

    #[test]
    fn span_json_and_csv_carry_hierarchy() {
        let mut t = SpanTracer::new(8);
        let a = t.open("epoch", Nanos::ZERO);
        let b = t.open("guest-ops", Nanos::from_nanos(3));
        t.close(b, Nanos::from_nanos(5));
        t.close(a, Nanos::from_nanos(8));
        let json = t.to_json();
        assert!(json.contains("\"label\":\"guest-ops\""));
        assert!(json.contains("\"parent\":1"));
        assert!(json.contains("\"parent\":null"));
        let csv = t.to_csv();
        assert!(csv.starts_with("id,parent,depth,label,start_ns,end_ns\n"));
        assert!(csv.contains("2,1,1,guest-ops,3,5\n"));
        assert!(csv.contains("1,,0,epoch,0,8\n"));
    }

    #[test]
    fn snapshot_json_bundles_both() {
        let mut t = Telemetry::new();
        t.registry.counter_incr("engine.epochs");
        let s = t.spans.open("epoch", Nanos::ZERO);
        t.spans.close(s, Nanos::from_nanos(1));
        let json = t.snapshot_json();
        assert!(json.contains("\"metrics\""));
        assert!(json.contains("\"spans\""));
        assert!(json.contains("\"spans_dropped\": 0"));
    }

    #[test]
    fn span_display_indents_by_depth() {
        let r = SpanRecord {
            id: 2,
            parent: Some(1),
            depth: 1,
            label: "guest-ops".into(),
            start: Nanos::from_nanos(0),
            end: Nanos::from_nanos(10),
        };
        assert_eq!(r.to_string(), "  guest-ops [0ns .. 10ns] (10ns)");
    }
}
