//! Replay fingerprints: a 64-bit digest of everything a run produced that
//! is *supposed* to be deterministic.
//!
//! The digest covers the full [`RunStats`] (expansion counters, per-worker
//! costs, per-superstep message curves, pool accounting, makespan) and the
//! listing output itself — everything except `wall_time`, which is the one
//! field measured in real time and therefore legitimately varies between
//! replays. Two runs of the same `(seed, config)` scenario must produce
//! equal fingerprints; an inequality is a determinism bug by definition.

use psgl_core::runner::ListingResult;
use psgl_core::stats::RunStats;

use crate::sched::splitmix64;

/// Incremental 64-bit mixer.
#[derive(Clone, Copy)]
struct Mixer(u64);

impl Mixer {
    fn new() -> Self {
        Mixer(0x243F_6A88_85A3_08D3)
    }

    fn mix(&mut self, word: u64) {
        self.0 = splitmix64(self.0 ^ word);
    }

    fn mix_slice(&mut self, words: &[u64]) {
        self.mix(words.len() as u64);
        for &w in words {
            self.mix(w);
        }
    }
}

/// Digest of a [`RunStats`], excluding the nondeterministic `wall_time`.
pub fn fingerprint_stats(stats: &RunStats) -> u64 {
    let mut m = Mixer::new();
    for w in stats.expand.to_array() {
        m.mix(w);
    }
    m.mix_slice(&stats.per_worker_cost);
    m.mix(stats.simulated_makespan);
    m.mix(stats.supersteps as u64);
    m.mix(stats.messages);
    m.mix(stats.messages_local);
    m.mix(stats.bytes_exchanged);
    m.mix_slice(&stats.messages_out_per_superstep);
    m.mix_slice(&stats.messages_in_per_superstep);
    m.mix(stats.pool_exhausted);
    m.mix(stats.chunks_outstanding as u64);
    m.mix(stats.cost_imbalance.to_bits());
    m.0
}

/// Digest of a whole [`ListingResult`]: the stats digest plus the instance
/// count, the collected instances (when present), and the initial-vertex
/// decision.
pub fn fingerprint_run(result: &ListingResult) -> u64 {
    let mut m = Mixer::new();
    m.mix(fingerprint_stats(&result.stats));
    m.mix(result.instance_count);
    m.mix(u64::from(result.init_vertex));
    if let Some(instances) = &result.instances {
        m.mix(instances.len() as u64);
        for inst in instances {
            for &v in inst {
                m.mix(u64::from(v));
            }
        }
    }
    m.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use psgl_core::stats::ExpandStats;

    #[test]
    fn wall_time_does_not_influence_the_digest() {
        let mut a = RunStats { messages: 10, ..Default::default() };
        let mut b = a.clone();
        a.wall_time = std::time::Duration::from_secs(1);
        b.wall_time = std::time::Duration::from_secs(9);
        assert_eq!(fingerprint_stats(&a), fingerprint_stats(&b));
    }

    #[test]
    fn every_deterministic_field_influences_the_digest() {
        let base = RunStats::default();
        let with = |f: &dyn Fn(&mut RunStats)| {
            let mut s = base.clone();
            f(&mut s);
            fingerprint_stats(&s)
        };
        let reference = fingerprint_stats(&base);
        for slot in 0..ExpandStats::LEN {
            let mut expand = [0; ExpandStats::LEN];
            expand[slot] = 1;
            let digest = with(&|s| s.expand = ExpandStats::from_array(expand));
            assert_ne!(digest, reference, "{} is not mixed in", ExpandStats::NAMES[slot]);
        }
        assert_ne!(with(&|s| s.per_worker_cost = vec![1]), reference);
        assert_ne!(with(&|s| s.messages_out_per_superstep = vec![3]), reference);
        assert_ne!(with(&|s| s.pool_exhausted = 1), reference);
        assert_ne!(with(&|s| s.chunks_outstanding = -1), reference);
        assert_ne!(with(&|s| s.cost_imbalance = 2.0), reference);
    }

    /// Golden pin: the digest mixes the expansion counters in declaration
    /// order, so reordering, adding or dropping one moves this value (and
    /// every pinned corpus fingerprint with it).
    #[test]
    fn stats_digest_is_pinned() {
        let stats = RunStats {
            expand: ExpandStats::from_array(std::array::from_fn(|i| 101 + i as u64)),
            per_worker_cost: vec![60, 53],
            simulated_makespan: 61,
            supersteps: 3,
            messages: 40,
            messages_local: 25,
            bytes_exchanged: 1440,
            messages_out_per_superstep: vec![30, 10, 0],
            messages_in_per_superstep: vec![0, 30, 10],
            pool_exhausted: 2,
            chunks_outstanding: 0,
            cost_imbalance: 1.0625,
            ..Default::default()
        };
        assert_eq!(fingerprint_stats(&stats), 0xDEB3F1A52DBE8711);
    }

    #[test]
    fn empty_and_singleton_slices_hash_differently() {
        // Length prefixing keeps [1] ++ [] distinct from [] ++ [1].
        let a = RunStats { per_worker_cost: vec![1], ..Default::default() };
        let b = RunStats { messages_out_per_superstep: vec![1], ..Default::default() };
        assert_ne!(fingerprint_stats(&a), fingerprint_stats(&b));
    }
}
