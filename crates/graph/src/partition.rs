//! Vertex partitioning across workers.
//!
//! Section 5.1: *"In PSgL, the data graph is simply random partitioned"* —
//! a hash of the vertex id picks the owning worker. The partitioner is the
//! single source of truth for vertex placement used by the BSP engine, the
//! distribution strategies (which need `map(vp) belongs to worker i`,
//! Equation 4) and the MapReduce shuffle.

use crate::csr::VertexId;
use crate::hash::hash_u64;

/// Random (hash) partitioner over `k` workers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HashPartitioner {
    workers: u32,
    /// Salt so different runs/engines can decorrelate placements.
    salt: u64,
    /// Chaos knob: per-mille of vertices force-routed to worker 0 on top
    /// of the hash placement. 0 (the default) is the unskewed production
    /// path; the simulation harness uses nonzero values to manufacture the
    /// hot-partition scenarios the paper's workload-aware strategies are
    /// supposed to absorb (Section 5.3).
    hot_per_mille: u16,
}

impl HashPartitioner {
    /// Creates a partitioner over `workers` workers (must be >= 1).
    pub fn new(workers: usize) -> Self {
        assert!(workers >= 1, "need at least one worker");
        HashPartitioner { workers: workers as u32, salt: 0, hot_per_mille: 0 }
    }

    /// Creates a salted partitioner; different salts give independent
    /// placements for the same worker count.
    pub fn with_salt(workers: usize, salt: u64) -> Self {
        assert!(workers >= 1, "need at least one worker");
        HashPartitioner { workers: workers as u32, salt, hot_per_mille: 0 }
    }

    /// Creates a deliberately skewed partitioner: on top of the salted
    /// hash placement, roughly `hot_per_mille`‰ of vertices (chosen by an
    /// independent hash, deterministically) are re-routed to worker 0.
    /// Values ≥ 1000 send *every* vertex to worker 0.
    pub fn with_skew(workers: usize, salt: u64, hot_per_mille: u16) -> Self {
        assert!(workers >= 1, "need at least one worker");
        HashPartitioner { workers: workers as u32, salt, hot_per_mille }
    }

    /// Number of workers.
    #[inline]
    pub fn workers(&self) -> usize {
        self.workers as usize
    }

    /// Worker owning vertex `v`.
    ///
    /// The avalanched hash is reduced to `0..workers` with Lemire's
    /// multiply-shift (`(h * k) >> 64`) instead of `%`: a multiply and a
    /// shift replace the division, and the reduction reads the hash's high
    /// bits, which splitmix64 mixes just as thoroughly as the low ones.
    #[inline]
    pub fn owner(&self, v: VertexId) -> usize {
        if self.hot_per_mille > 0 {
            // Independent hash stream (distinct constant) so the skew
            // selection does not correlate with the placement hash.
            let s = hash_u64(u64::from(v) ^ self.salt ^ 0xC0FF_EE00_D15E_A5E5);
            if (((u128::from(s) * 1000) >> 64) as u16) < self.hot_per_mille {
                return 0;
            }
        }
        let h = hash_u64(u64::from(v) ^ self.salt);
        ((u128::from(h) * u128::from(self.workers)) >> 64) as usize
    }

    /// Vertex lists of a *subset* of partitions: one list per entry of
    /// `parts` (same order), covering vertices `0..num_vertices`. This is
    /// the partition-subset loading path a distributed worker uses — it
    /// hosts a few of the global partitions and needs exactly their
    /// vertices, without materializing the other partitions' lists.
    pub fn owned_vertices(&self, num_vertices: usize, parts: &[usize]) -> Vec<Vec<VertexId>> {
        let mut slot_of = vec![usize::MAX; self.workers as usize];
        for (slot, &p) in parts.iter().enumerate() {
            assert!(p < self.workers as usize, "partition {p} out of range");
            slot_of[p] = slot;
        }
        let mut owned = vec![Vec::new(); parts.len()];
        for v in 0..num_vertices as VertexId {
            let slot = slot_of[self.owner(v)];
            if slot != usize::MAX {
                owned[slot].push(v);
            }
        }
        owned
    }

    /// Max/mean imbalance factor of a per-worker load vector
    /// (1.0 = perfectly balanced; undefined/1.0 for all-zero loads).
    pub fn imbalance(loads: &[u64]) -> f64 {
        let total: u64 = loads.iter().sum();
        if total == 0 || loads.is_empty() {
            return 1.0;
        }
        let mean = total as f64 / loads.len() as f64;
        let max = *loads.iter().max().unwrap() as f64;
        max / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_is_stable_and_in_range() {
        let p = HashPartitioner::new(7);
        for v in 0..1000u32 {
            let o = p.owner(v);
            assert!(o < 7);
            assert_eq!(o, p.owner(v));
        }
        // Golden assignments pin the multiply-shift (Lemire) reduction:
        // `owner = (hash_u64(v) * workers) >> 64`. A change to the hash or
        // the reduction shows up here before it silently reshuffles every
        // partition-dependent artifact.
        assert_eq!((0..8).map(|v| p.owner(v)).collect::<Vec<_>>(), vec![6, 3, 4, 0, 3, 2, 5, 2]);
        let p2 = HashPartitioner::with_salt(3, 0xfeed);
        assert_eq!((0..8).map(|v| p2.owner(v)).collect::<Vec<_>>(), vec![0, 1, 1, 0, 2, 0, 0, 1]);
    }

    #[test]
    fn single_worker_owns_everything() {
        let p = HashPartitioner::new(1);
        assert!((0..100).all(|v| p.owner(v) == 0));
    }

    #[test]
    fn salting_changes_placement() {
        let a = HashPartitioner::with_salt(8, 1);
        let b = HashPartitioner::with_salt(8, 2);
        let diffs = (0..1000u32).filter(|&v| a.owner(v) != b.owner(v)).count();
        assert!(diffs > 500, "salts should decorrelate placements ({diffs} differ)");
    }

    #[test]
    fn owned_vertices_selects_partition_subsets() {
        let p = HashPartitioner::with_salt(5, 99);
        let n = 1000usize;
        // The full set, queried per-partition, reproduces owner() exactly.
        let all = p.owned_vertices(n, &[0, 1, 2, 3, 4]);
        assert_eq!(all.iter().map(Vec::len).sum::<usize>(), n);
        for (part, vs) in all.iter().enumerate() {
            assert!(vs.iter().all(|&v| p.owner(v) == part));
            assert!(vs.windows(2).all(|w| w[0] < w[1]), "ascending vertex order");
        }
        // A subset, in arbitrary order, yields the same per-partition lists.
        let subset = p.owned_vertices(n, &[3, 1]);
        assert_eq!(subset[0], all[3]);
        assert_eq!(subset[1], all[1]);
        // Empty subset is fine.
        assert!(p.owned_vertices(n, &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn owned_vertices_rejects_bad_partition() {
        HashPartitioner::new(3).owned_vertices(10, &[3]);
    }

    #[test]
    fn imbalance_metric() {
        assert_eq!(HashPartitioner::imbalance(&[5, 5, 5, 5]), 1.0);
        assert_eq!(HashPartitioner::imbalance(&[10, 0, 0, 10]), 2.0);
        assert_eq!(HashPartitioner::imbalance(&[0, 0]), 1.0);
        assert_eq!(HashPartitioner::imbalance(&[]), 1.0);
    }

    #[test]
    fn skew_routes_hot_vertices_to_worker_zero() {
        // Zero skew is bit-identical to the plain salted partitioner.
        let plain = HashPartitioner::with_salt(4, 7);
        let zero = HashPartitioner::with_skew(4, 7, 0);
        assert!((0..1000u32).all(|v| plain.owner(v) == zero.owner(v)));
        // 300‰ skew: worker 0 owns its hash share plus ~30% of the rest.
        let skewed = HashPartitioner::with_skew(4, 7, 300);
        let n = 10_000u32;
        let hot = (0..n).filter(|&v| skewed.owner(v) == 0).count();
        assert!(
            (4000..5100).contains(&hot),
            "expected ~25% + 30%·75% ≈ 47.5% on worker 0, got {hot} of {n}"
        );
        // Non-hot vertices keep their hash placement.
        assert!((0..n).all(|v| skewed.owner(v) == 0 || skewed.owner(v) == plain.owner(v)));
        // Full skew funnels everything.
        let all = HashPartitioner::with_skew(4, 7, 1000);
        assert!((0..1000u32).all(|v| all.owner(v) == 0));
        // Deterministic: same config, same placement.
        let again = HashPartitioner::with_skew(4, 7, 300);
        assert!((0..1000u32).all(|v| skewed.owner(v) == again.owner(v)));
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        HashPartitioner::new(0);
    }
}
