//! Typed metrics registry.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are
//! registered once per (name, labels) pair and cloned freely; every clone
//! shares the same atomic cell, so the hot path is a single relaxed atomic
//! RMW with no locking. The registry's own lock is taken only at
//! registration and snapshot time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Monotonically increasing counter.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn new() -> Self {
        Self::default()
    }
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }
    /// Raise the cell to `n` if it is currently lower (high-water marks).
    #[inline]
    pub fn max(&self, n: u64) {
        self.0.fetch_max(n, Ordering::Relaxed);
    }
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Gauge that can move both ways (queue depths, live chunk counts).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    pub fn new() -> Self {
        Self::default()
    }
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }
    #[inline]
    pub fn sub(&self, n: u64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }
    #[inline]
    pub fn set(&self, n: u64) {
        self.0.store(n, Ordering::Relaxed);
    }
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramInner {
    /// Upper bounds of the finite buckets, sorted ascending. An implicit
    /// `+Inf` bucket follows.
    bounds: Vec<u64>,
    /// `bounds.len() + 1` cells; the last is the `+Inf` overflow bucket.
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

/// Fixed-bucket histogram (values are unit-free `u64`s; the registrant
/// documents the unit in the help text).
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    pub fn new(bounds: &[u64]) -> Self {
        let mut sorted = bounds.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let buckets = (0..=sorted.len()).map(|_| AtomicU64::new(0)).collect();
        Self(Arc::new(HistogramInner {
            bounds: sorted,
            buckets,
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }))
    }

    #[inline]
    pub fn observe(&self, v: u64) {
        let inner = &self.0;
        let idx = inner.bounds.iter().position(|&b| v <= b).unwrap_or(inner.bounds.len());
        inner.buckets[idx].fetch_add(1, Ordering::Relaxed);
        inner.sum.fetch_add(v, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        let inner = &self.0;
        HistogramSnapshot {
            bounds: inner.bounds.clone(),
            counts: inner.buckets.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
            sum: inner.sum.load(Ordering::Relaxed),
            count: inner.count.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time view of a [`Histogram`]. `counts` are per-bucket (not
/// cumulative) and one longer than `bounds` (the `+Inf` overflow bucket).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub bounds: Vec<u64>,
    pub counts: Vec<u64>,
    pub sum: u64,
    pub count: u64,
}

#[derive(Clone, Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

#[derive(Debug)]
struct Entry {
    name: String,
    help: String,
    labels: Vec<(String, String)>,
    metric: Metric,
}

/// Name → metric map. Registering the same (name, labels) twice returns the
/// original handle; registering it as a different type panics (that is a
/// programming error, not an operational condition).
#[derive(Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with_labels(name, help, &[])
    }

    pub fn counter_with_labels(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.register(name, help, labels, || Metric::Counter(Counter::new())) {
            Metric::Counter(c) => c,
            other => panic!("metric {name} already registered as {}", kind_name(&other)),
        }
    }

    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        match self.register(name, help, &[], || Metric::Gauge(Gauge::new())) {
            Metric::Gauge(g) => g,
            other => panic!("metric {name} already registered as {}", kind_name(&other)),
        }
    }

    pub fn histogram(&self, name: &str, help: &str, bounds: &[u64]) -> Histogram {
        match self.register(name, help, &[], || Metric::Histogram(Histogram::new(bounds))) {
            Metric::Histogram(h) => h,
            other => panic!("metric {name} already registered as {}", kind_name(&other)),
        }
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Metric,
    ) -> Metric {
        let labels: Vec<(String, String)> =
            labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        let mut entries = self.entries.lock().unwrap();
        if let Some(e) = entries.iter().find(|e| e.name == name && e.labels == labels) {
            return e.metric.clone();
        }
        let metric = make();
        entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            labels,
            metric: metric.clone(),
        });
        metric
    }

    pub fn snapshot(&self) -> RegistrySnapshot {
        let entries = self.entries.lock().unwrap();
        RegistrySnapshot {
            metrics: entries
                .iter()
                .map(|e| MetricSnapshot {
                    name: e.name.clone(),
                    help: e.help.clone(),
                    labels: e.labels.clone(),
                    value: match &e.metric {
                        Metric::Counter(c) => MetricValue::Counter(c.get()),
                        Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                        Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                    },
                })
                .collect(),
        }
    }
}

fn kind_name(m: &Metric) -> &'static str {
    match m {
        Metric::Counter(_) => "counter",
        Metric::Gauge(_) => "gauge",
        Metric::Histogram(_) => "histogram",
    }
}

/// Point-in-time view of every registered metric, in registration order.
#[derive(Clone, Debug)]
pub struct RegistrySnapshot {
    pub metrics: Vec<MetricSnapshot>,
}

#[derive(Clone, Debug)]
pub struct MetricSnapshot {
    pub name: String,
    pub help: String,
    pub labels: Vec<(String, String)>,
    pub value: MetricValue,
}

#[derive(Clone, Debug)]
pub enum MetricValue {
    Counter(u64),
    Gauge(u64),
    Histogram(HistogramSnapshot),
}

impl RegistrySnapshot {
    /// Scalar value of a metric by name (first label set), if present.
    pub fn scalar(&self, name: &str) -> Option<u64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| match &m.value {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => *v,
            MetricValue::Histogram(h) => h.count,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registering_the_same_name_returns_the_same_cell() {
        let r = Registry::new();
        let a = r.counter("psgl_requests", "requests");
        let b = r.counter("psgl_requests", "requests");
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4);
        assert_eq!(r.snapshot().scalar("psgl_requests"), Some(4));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn registering_a_name_as_a_different_type_panics() {
        let r = Registry::new();
        let _ = r.counter("psgl_x", "x");
        let _ = r.gauge("psgl_x", "x");
    }

    #[test]
    fn labels_distinguish_series_under_one_name() {
        let r = Registry::new();
        let a = r.counter_with_labels("psgl_tenant_queries", "q", &[("tenant", "a")]);
        let b = r.counter_with_labels("psgl_tenant_queries", "q", &[("tenant", "b")]);
        a.inc();
        b.add(2);
        let snap = r.snapshot();
        let vals: Vec<u64> = snap
            .metrics
            .iter()
            .filter(|m| m.name == "psgl_tenant_queries")
            .map(|m| match m.value {
                MetricValue::Counter(v) => v,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(vals, vec![1, 2]);
    }

    #[test]
    fn gauge_moves_both_ways_and_counter_tracks_maximum() {
        let r = Registry::new();
        let g = r.gauge("psgl_queue_depth", "depth");
        g.add(5);
        g.sub(2);
        assert_eq!(g.get(), 3);
        let peak = r.counter("psgl_peak", "peak");
        peak.max(7);
        peak.max(4);
        assert_eq!(peak.get(), 7);
    }

    #[test]
    fn histogram_buckets_observe_into_the_right_cells() {
        let h = Histogram::new(&[10, 100, 1000]);
        for v in [1, 10, 11, 99, 5000] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.bounds, vec![10, 100, 1000]);
        assert_eq!(s.counts, vec![2, 2, 0, 1]);
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1 + 10 + 11 + 99 + 5000);
    }
}
