//! Threshold-triggered slow-query log.
//!
//! When a query's wall time crosses the configured threshold, its
//! per-superstep timeline — compute vs barrier-wait vs spill-stall vs
//! exchange time — is recorded in a bounded ring so operators can see
//! *where* a slow query spent its time without re-running it.

use std::collections::VecDeque;
use std::sync::Mutex;

#[derive(Clone, Debug, PartialEq)]
pub struct SuperstepTiming {
    pub superstep: u32,
    pub compute_ms: f64,
    pub barrier_ms: f64,
    pub spill_stall_ms: f64,
    pub exchange_ms: f64,
}

#[derive(Clone, Debug, PartialEq)]
pub struct SlowQueryEntry {
    pub query_id: String,
    pub tenant: String,
    pub pattern: String,
    pub total_ms: f64,
    pub timeline: Vec<SuperstepTiming>,
}

impl SlowQueryEntry {
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        for (key, value) in [
            ("{\"query_id\":", &self.query_id),
            (",\"tenant\":", &self.tenant),
            (",\"pattern\":", &self.pattern),
        ] {
            out.push_str(key);
            crate::push_json_string(&mut out, value);
        }
        out.push_str(&format!(",\"total_ms\":{:.3},\"timeline\":[", self.total_ms));
        for (i, t) in self.timeline.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"superstep\":{},\"compute_ms\":{:.3},\"barrier_ms\":{:.3},\"spill_stall_ms\":{:.3},\"exchange_ms\":{:.3}}}",
                t.superstep, t.compute_ms, t.barrier_ms, t.spill_stall_ms, t.exchange_ms
            ));
        }
        out.push_str("]}");
        out
    }
}

pub struct SlowQueryLog {
    threshold_ms: u64,
    capacity: usize,
    ring: Mutex<VecDeque<SlowQueryEntry>>,
}

impl SlowQueryLog {
    /// Queries slower than `threshold_ms` are retained; the newest
    /// `capacity` entries are kept. A threshold of 0 records every query.
    pub fn new(threshold_ms: u64, capacity: usize) -> Self {
        Self { threshold_ms, capacity: capacity.max(1), ring: Mutex::new(VecDeque::new()) }
    }

    pub fn threshold_ms(&self) -> u64 {
        self.threshold_ms
    }

    /// Record `entry` if it crosses the threshold; returns whether it was
    /// retained.
    pub fn maybe_record(&self, entry: SlowQueryEntry) -> bool {
        if entry.total_ms < self.threshold_ms as f64 {
            return false;
        }
        let mut ring = self.ring.lock().unwrap();
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(entry);
        true
    }

    /// Retained entries, oldest first.
    pub fn entries(&self) -> Vec<SlowQueryEntry> {
        self.ring.lock().unwrap().iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: &str, total_ms: f64) -> SlowQueryEntry {
        SlowQueryEntry {
            query_id: id.into(),
            tenant: "t".into(),
            pattern: "triangle".into(),
            total_ms,
            timeline: vec![SuperstepTiming {
                superstep: 0,
                compute_ms: 1.0,
                barrier_ms: 0.5,
                spill_stall_ms: 0.0,
                exchange_ms: 0.25,
            }],
        }
    }

    #[test]
    fn threshold_filters_and_ring_is_bounded() {
        let log = SlowQueryLog::new(100, 2);
        assert!(!log.maybe_record(entry("fast", 5.0)));
        assert!(log.maybe_record(entry("a", 150.0)));
        assert!(log.maybe_record(entry("b", 200.0)));
        assert!(log.maybe_record(entry("c", 300.0)));
        let ids: Vec<_> = log.entries().iter().map(|e| e.query_id.clone()).collect();
        assert_eq!(ids, vec!["b".to_string(), "c".to_string()]);
    }

    #[test]
    fn entry_json_carries_the_timeline() {
        let json = entry("q1", 150.0).to_json();
        assert!(json.contains("\"query_id\":\"q1\""), "{json}");
        assert!(json.contains("\"barrier_ms\":0.500"), "{json}");
        assert!(json.contains("\"exchange_ms\":0.250"), "{json}");
    }
}
