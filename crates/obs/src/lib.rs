//! Unified observability for the PSgL stack (DESIGN.md §15).
//!
//! Four pieces, all std-only and dependency-free:
//!
//! * [`metrics`] — a typed counter/gauge/histogram registry. Handles are
//!   registered once per name and are lock-free on the hot path (plain
//!   atomic cells). A [`metrics::Registry::snapshot`] is the single
//!   source for every stats surface.
//! * [`trace`] — cheap structured events. A [`Tracer`] stamps each event
//!   with a sequence number and a timestamp from either a wall clock or a
//!   *logical* clock (`Tracer::seeded`) so deterministic-simulation
//!   fingerprints are unaffected by tracing.
//! * [`recorder`] — a fixed-size ring of recent events (the flight
//!   recorder), dumped to a JSON file on run errors, chaos invariant
//!   failures, or worker death.
//! * [`expo`] + [`slowlog`] — Prometheus text exposition of a registry
//!   snapshot, and a threshold-triggered slow-query log carrying the
//!   per-superstep compute / barrier / spill-stall / exchange timeline.
//!
//! Plus [`counters!`]: the table macro every counter struct of the stack
//! is declared through, so each counter is named once.

mod counters;
pub mod expo;
pub mod metrics;
pub mod recorder;
pub mod slowlog;
pub mod trace;

pub use expo::{render_json, render_prometheus};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricSnapshot, MetricValue, Registry,
    RegistrySnapshot,
};
pub use recorder::FlightRecorder;
pub use slowlog::{SlowQueryEntry, SlowQueryLog, SuperstepTiming};
pub use trace::{TraceEvent, Tracer, Value};

use std::sync::OnceLock;

/// Process-global observability context: one registry + one wall-clock
/// tracer whose ring doubles as the process flight recorder. Components
/// that need isolation (tests, the deterministic simulator) construct
/// their own [`Registry`] / [`Tracer`] instead.
pub struct Obs {
    pub registry: Registry,
    pub tracer: Tracer,
}

static GLOBAL: OnceLock<Obs> = OnceLock::new();

/// Capacity of the process-global flight recorder ring.
pub const GLOBAL_RING_CAPACITY: usize = 4096;

pub fn global() -> &'static Obs {
    GLOBAL.get_or_init(|| Obs {
        registry: Registry::new(),
        tracer: Tracer::wall(GLOBAL_RING_CAPACITY),
    })
}

/// The process-global metrics registry.
pub fn registry() -> &'static Registry {
    &global().registry
}

/// The process-global wall-clock tracer (its ring is the process flight
/// recorder).
pub fn tracer() -> &'static Tracer {
    &global().tracer
}

/// Appends `s` to `out` as a JSON string literal: quoted, with `"`, `\`
/// and control characters escaped. The workspace's one escape routine —
/// trace events, the exposition renderer, the slow-query log and
/// `psgl_service::Json`'s writer all render strings through it.
pub fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    let mut rest = s;
    while let Some(i) = rest.find(|c: char| matches!(c, '"' | '\\') || c < ' ') {
        out.push_str(&rest[..i]);
        match rest.as_bytes()[i] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            c => out.push_str(&format!("\\u{c:04x}")),
        }
        rest = &rest[i + 1..]; // every escaped character is one ASCII byte
    }
    out.push_str(rest);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_strings_escape_control_and_quote_chars() {
        let quoted = |s: &str| {
            let mut out = String::new();
            push_json_string(&mut out, s);
            out
        };
        assert_eq!(quoted("a\"b\\c\nd\r\te"), "\"a\\\"b\\\\c\\nd\\r\\te\"");
        assert_eq!(quoted("\u{01}π\u{1f}"), "\"\\u0001π\\u001f\"");
        assert_eq!(quoted("x"), "\"x\"");
    }

    #[test]
    fn global_context_is_a_singleton() {
        let a = registry() as *const Registry;
        let b = registry() as *const Registry;
        assert_eq!(a, b);
        tracer().event("obs_smoke", &[("n", Value::U64(1))]);
        assert!(tracer().events().iter().any(|e| e.name == "obs_smoke"));
    }
}
