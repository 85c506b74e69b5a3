//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Nothing inside the crates is instrumented: a span is either the wall
//! time of one public call, or an interval synthesised from what that call
//! returned (`RunStats` per-superstep timings, a reply's `wall_ms`). Spans
//! stay in memory and are written out once, after the measurement.

use psgl_service::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Spans that only group other spans. Time inside them that no child
/// covers is time the benchmark cannot attribute to a layer.
const CONTAINERS: [&str; 5] =
    ["bench.setup", "bench.pass", "bench.batch", "core.run", "cluster.run_local"];

/// The layer a span's self time is charged to: the name up to the first
/// dot, with three exceptions. A container's self time is nobody's. The
/// workers' compute inside a superstep is the expansion kernel, so `core`,
/// though the span sits among the `bsp.*` superstep spans. And the
/// server's own wall for a query is queueing plus an engine run that
/// cannot be split from outside, so it is charged to `engine`.
fn layer_of(name: &str) -> &str {
    if CONTAINERS.contains(&name) {
        "unattributed"
    } else if name.starts_with("bsp.compute") {
        "core"
    } else if name == "service.engine" {
        "engine"
    } else {
        name.split('.').next().unwrap_or("unattributed")
    }
}

/// Identifier of a recorded span (its index).
pub type SpanId = usize;

struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    /// Shared by every span of one operation (pass, request, batch).
    op_id: u64,
}

/// In-memory span store. Disabled (the `--trace 0` run) it records
/// nothing, so the end-to-end metrics are measured without it.
pub struct Spans {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans { epoch: Instant::now(), enabled, spans: Vec::new() }
    }

    /// Nanoseconds since the store was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a span with explicit bounds; the id is meaningless when
    /// recording is off.
    pub fn record(
        &mut self,
        name: &str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        op_id: u64,
    ) -> SpanId {
        if self.enabled {
            self.spans.push(Span { name: name.to_string(), start_ns, end_ns, parent, op_id });
        }
        self.spans.len().saturating_sub(1)
    }

    /// Runs `f` and returns its result with the elapsed seconds. With a
    /// parent the call is recorded as a leaf span under it; without one
    /// (an operation run with tracing off) it is only timed.
    pub fn time<T>(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        op_id: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let start_ns = self.now_ns();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        if parent.is_some() {
            self.record(name, start_ns, start_ns + (secs * 1e9) as u64, parent, op_id);
        }
        (out, secs)
    }

    /// Opens a container span; close it with [`Self::close`].
    pub fn open(&mut self, name: &str, parent: Option<SpanId>, op_id: u64) -> SpanId {
        let now = self.now_ns();
        self.record(name, now, now, parent, op_id)
    }

    pub fn close(&mut self, id: SpanId) {
        let now = self.now_ns();
        if self.enabled {
            self.spans[id].end_ns = now;
        }
    }

    /// Per span: duration minus the part its children cover.
    fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> =
            self.spans.iter().map(|s| s.end_ns.saturating_sub(s.start_ns)).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let covered = span.end_ns.saturating_sub(span.start_ns);
                own[parent] = own[parent].saturating_sub(covered);
            }
        }
        own
    }

    /// Self seconds per layer over the operation spans (everything outside
    /// `bench.setup`), the operations' total seconds, and the share of it
    /// no layer accounts for (see [`layer_of`]).
    pub fn closure(&self) -> (BTreeMap<String, f64>, f64, f64) {
        let own = self.self_times();
        let in_setup = |mut id: SpanId| loop {
            if self.spans[id].name == "bench.setup" {
                return true;
            }
            match self.spans[id].parent {
                Some(parent) => id = parent,
                None => return false,
            }
        };
        let mut layers: BTreeMap<String, f64> = BTreeMap::new();
        let mut total = 0.0;
        for (id, span) in self.spans.iter().enumerate() {
            if in_setup(id) {
                continue;
            }
            if span.parent.is_none() {
                total += span.end_ns.saturating_sub(span.start_ns) as f64 / 1e9;
            }
            *layers.entry(layer_of(&span.name).to_string()).or_default() += own[id] as f64 / 1e9;
        }
        let unattributed = layers.get("unattributed").copied().unwrap_or(0.0);
        let share = if total > 0.0 { unattributed / total } else { 0.0 };
        (layers, total, share)
    }

    /// The trace document: `{name, start_ns, end_ns, parent, op_id}` per
    /// span, `parent` being an index into the same array or null.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::from(s.name.as_str())),
                        ("start_ns", Json::from(s.start_ns)),
                        ("end_ns", Json::from(s.end_ns)),
                        ("parent", s.parent.map_or(Json::Null, Json::from)),
                        ("op_id", Json::from(s.op_id)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_containers_are_unattributed() {
        let mut spans = Spans::new(true);
        let pass = spans.record("bench.pass", 0, 1_000, None, 1);
        let run = spans.record("core.run", 100, 900, Some(pass), 1);
        spans.record("bsp.compute", 100, 500, Some(run), 1);
        spans.record("bsp.exchange", 500, 700, Some(run), 1);
        let (layers, total, share) = spans.closure();
        assert_eq!(total, 1_000.0 / 1e9);
        assert!((layers["core"] - 400.0 / 1e9).abs() < 1e-15);
        assert!((layers["bsp"] - 200.0 / 1e9).abs() < 1e-15);
        // 200 ns outside core.run plus 200 ns inside it that no child covers.
        assert!((layers["unattributed"] - 400.0 / 1e9).abs() < 1e-15);
        assert!((share - 0.4).abs() < 1e-9);
    }

    #[test]
    fn disabled_store_records_nothing() {
        let mut spans = Spans::new(false);
        let ((), secs) = spans.time("graph.gen", Some(0), 0, || ());
        assert!(secs >= 0.0);
        assert_eq!(spans.to_json(), Json::Arr(Vec::new()));
    }
}
