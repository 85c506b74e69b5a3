//! Structured trace events.
//!
//! A [`Tracer`] is a cheap cloneable handle; every clone feeds the same
//! flight-recorder ring. Events carry a sequence number and a timestamp
//! from one of two clocks:
//!
//! * **wall** — nanoseconds since the tracer was created; for services and
//!   the coordinator, where operators read real timelines.
//! * **logical** (`Tracer::seeded`) — the timestamp *is* the sequence
//!   number. Two identical seeded runs therefore produce byte-identical
//!   event streams, which the deterministic-simulation suite asserts.
//!
//! Event payloads in deterministic contexts must carry only deterministic
//! values (counters, superstep numbers, byte totals) — never wall
//! durations; that discipline belongs to emitters, and the chaos suite's
//! determinism test enforces it.

use crate::recorder::FlightRecorder;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A single typed field value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    U64(u64),
    I64(i64),
    Str(String),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(v as u64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    pub seq: u64,
    pub ts_nanos: u64,
    pub name: &'static str,
    pub fields: Vec<(&'static str, Value)>,
}

impl TraceEvent {
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    pub fn field_u64(&self, key: &str) -> Option<u64> {
        match self.field(key) {
            Some(Value::U64(v)) => Some(*v),
            _ => None,
        }
    }

    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64);
        out.push_str(&format!("{{\"seq\":{},\"ts_nanos\":{},\"name\":", self.seq, self.ts_nanos));
        crate::push_json_string(&mut out, self.name);
        for (k, v) in &self.fields {
            out.push(',');
            crate::push_json_string(&mut out, k);
            out.push(':');
            match v {
                Value::U64(n) => out.push_str(&n.to_string()),
                Value::I64(n) => out.push_str(&n.to_string()),
                Value::Str(s) => crate::push_json_string(&mut out, s),
            }
        }
        out.push('}');
        out
    }
}

enum Clock {
    Wall(Instant),
    /// Timestamp == sequence number; no wall clock is ever read.
    Logical,
}

struct Inner {
    clock: Clock,
    seq: AtomicU64,
    ring: FlightRecorder,
}

/// Cloneable event emitter; all clones share one ring and one clock.
#[derive(Clone)]
pub struct Tracer(Arc<Inner>);

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("seeded", &self.is_seeded())
            .field("capacity", &self.0.ring.capacity())
            .finish()
    }
}

impl Tracer {
    /// Wall-clock tracer (timestamps are nanos since creation).
    pub fn wall(ring_capacity: usize) -> Self {
        Self(Arc::new(Inner {
            clock: Clock::Wall(Instant::now()),
            seq: AtomicU64::new(0),
            ring: FlightRecorder::new(ring_capacity),
        }))
    }

    /// Deterministic tracer: never reads the wall clock, `ts_nanos == seq`.
    pub fn seeded(ring_capacity: usize) -> Self {
        Self(Arc::new(Inner {
            clock: Clock::Logical,
            seq: AtomicU64::new(0),
            ring: FlightRecorder::new(ring_capacity),
        }))
    }

    pub fn is_seeded(&self) -> bool {
        matches!(self.0.clock, Clock::Logical)
    }

    pub fn event(&self, name: &'static str, fields: &[(&'static str, Value)]) {
        let seq = self.0.seq.fetch_add(1, Ordering::Relaxed);
        let ts_nanos = match &self.0.clock {
            Clock::Wall(epoch) => epoch.elapsed().as_nanos() as u64,
            Clock::Logical => seq,
        };
        self.0.ring.push(TraceEvent { seq, ts_nanos, name, fields: fields.to_vec() });
    }

    /// The ring backing this tracer (for dumping on failures).
    pub fn recorder(&self) -> &FlightRecorder {
        &self.0.ring
    }

    /// Snapshot of the retained events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.0.ring.events()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_clock_is_wall_free_and_sequential() {
        let t = Tracer::seeded(16);
        t.event("a", &[("x", Value::U64(1))]);
        t.event("b", &[]);
        let evs = t.events();
        assert_eq!(evs.len(), 2);
        assert_eq!((evs[0].seq, evs[0].ts_nanos), (0, 0));
        assert_eq!((evs[1].seq, evs[1].ts_nanos), (1, 1));
        assert_eq!(evs[0].field_u64("x"), Some(1));
    }

    #[test]
    fn clones_share_one_ring() {
        let t = Tracer::seeded(16);
        let u = t.clone();
        t.event("from_t", &[]);
        u.event("from_u", &[]);
        let names: Vec<_> = t.events().iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["from_t", "from_u"]);
    }

    #[test]
    fn event_json_escapes_string_fields() {
        let t = Tracer::seeded(4);
        t.event("err", &[("msg", Value::Str("bad \"quote\"\n".into()))]);
        let json = t.events()[0].to_json();
        assert!(json.contains("\\\"quote\\\"\\n"), "{json}");
        assert!(json.starts_with("{\"seq\":0,"));
    }
}
