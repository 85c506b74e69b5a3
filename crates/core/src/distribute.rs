//! Partial-subgraph-instance distribution strategies (Section 5.1,
//! Algorithm 3).
//!
//! When a new Gpsi is generated, one of its GRAY vertices must be chosen as
//! the next expanding vertex — and since a Gpsi is expanded on the worker
//! owning the mapped data vertex, this choice *is* the load-balancing
//! decision. The underlying assignment problem is NP-hard (Theorem 2,
//! reduction from Minimum Makespan Scheduling), so PSgL ships three online
//! heuristics:
//!
//! - **Random** — uniform over GRAY candidates; minimal overhead, balances
//!   the *number* of Gpsis per worker but not their cost;
//! - **Roulette wheel** — picks GRAY `k` with probability
//!   `p_k ∝ ∏_{j≠k} deg(v_dj)` (Equation 6), i.e. inversely proportional
//!   to the mapped vertex's degree (Heuristic 1: high-degree vertices
//!   should expand fewer Gpsis);
//! - **Workload-aware** — `argmin_j { W_j^α + w_ij }` over a worker-local
//!   view of total workloads `W_j`, with `w_ij` estimated by the binomial
//!   upper bound `C(deg(v_d), w_vp)` of the expansion fan-out `f(v_p)`.
//!   `α = 1` is the classic greedy rule (K·OPT-bounded, Ibarra & Kim);
//!   `α = 0` minimizes the increment only; `α = 0.5` is the paper's
//!   trade-off, still K·OPT-bounded by Theorem 3.

use psgl_graph::partition::HashPartitioner;
use psgl_graph::VertexId;
use psgl_pattern::PatternVertex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Which distribution strategy to run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Strategy {
    /// Uniform random GRAY choice.
    Random,
    /// Degree-based roulette wheel selection (Equation 6).
    RouletteWheel,
    /// `argmin_j { W_j^α + w_ij }` with the paper's `α` knob.
    WorkloadAware {
        /// Penalty exponent `α ∈ [0, 1]`; the paper evaluates 0, 0.5, 1.
        alpha: f64,
    },
}

impl Strategy {
    /// The five variants evaluated in Figure 3, in the paper's order.
    pub fn paper_variants() -> [(&'static str, Strategy); 5] {
        [
            ("Random", Strategy::Random),
            ("Roulette", Strategy::RouletteWheel),
            ("(WA,1)", Strategy::WorkloadAware { alpha: 1.0 }),
            ("(WA,0)", Strategy::WorkloadAware { alpha: 0.0 }),
            ("(WA,0.5)", Strategy::WorkloadAware { alpha: 0.5 }),
        ]
    }
}

/// A GRAY vertex eligible to become the next expanding vertex.
#[derive(Clone, Copy, Debug)]
pub struct GrayCandidate {
    /// The GRAY pattern vertex.
    pub vp: PatternVertex,
    /// The data vertex it maps to.
    pub vd: VertexId,
    /// `deg(vd)` in the data graph.
    pub degree: u32,
    /// Number of WHITE pattern neighbors of `vp` (`w_vp` in the paper).
    pub white_neighbors: u32,
}

/// Estimated cost of expanding a Gpsi at a GRAY candidate: the paper's
/// `load(Gpsi) ≈ C(deg(v_d), w_vp)` upper bound, saturating in `f64`.
/// Verification-only expansions (`w_vp = 0`) cost a constant 1.
pub fn estimated_load(degree: u32, white_neighbors: u32) -> f64 {
    if white_neighbors == 0 {
        return 1.0;
    }
    if degree < white_neighbors {
        // Not enough neighbors to fill the WHITE slots: the Gpsi dies
        // cheaply at this vertex.
        return 1.0;
    }
    let mut c = 1.0f64;
    for i in 0..white_neighbors {
        c *= f64::from(degree - i) / f64::from(i + 1);
        if c > 1e18 {
            return 1e18;
        }
    }
    c.max(1.0)
}

/// Algorithm 3's penalty `W^α` for `α > 0`. The paper's two nonzero
/// exponents take no `powf`: `W^½` is `W.sqrt()` and `W^1` is `W`. Both are
/// exact: `sqrt` is correctly rounded, `powf(W, 0.5)` agrees with it bit
/// for bit (`penalty_shortcuts_equal_powf` holds the platform's libm to
/// that), and `powf(W, 1.0)` is `W`. Any other `α` keeps `powf`.
#[inline]
fn pow_alpha(workload: f64, alpha: f64) -> f64 {
    if alpha == 0.5 {
        workload.sqrt()
    } else if alpha == 1.0 {
        workload
    } else {
        workload.powf(alpha)
    }
}

/// Per-worker distributor state: the strategy, a worker-local workload view
/// (Section 6: maintaining a global view would need synchronization, so
/// each worker tracks only the Gpsis *it* distributed), and an RNG.
///
/// The workload-aware rule reads `W_j^α` for every candidate but changes
/// one `W_j` per choice, so each worker's penalty is cached and
/// recomputed only after its `W_j` changed: at most one penalty per choice
/// in the long run, none for a lone candidate, and bit-identical to
/// computing it afresh. Each choice still invalidates one `W_j`, so
/// recomputations are common; at the paper's `α` of ½ and 1 one is a
/// square root or nothing, not a `powf` (see [`pow_alpha`]). The cache is
/// derived state: snapshots leave it out and a restored distributor
/// rebuilds it on demand.
#[derive(Clone, Debug)]
pub struct Distributor {
    strategy: Strategy,
    /// Local view of per-worker accumulated workload `W_j`.
    workload: Vec<f64>,
    /// `W_j^α` per worker; `None` until first read after `W_j` changed.
    penalty: Vec<Option<f64>>,
    rng: SmallRng,
}

impl Distributor {
    /// Creates a distributor for one worker. Seeds must differ across
    /// workers so random choices decorrelate.
    pub fn new(strategy: Strategy, num_workers: usize, seed: u64) -> Distributor {
        Distributor {
            strategy,
            workload: vec![0.0; num_workers],
            penalty: vec![None; num_workers],
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Chooses the next expanding vertex among `candidates` (must be
    /// non-empty). Returns the index into `candidates`.
    pub fn choose(&mut self, candidates: &[GrayCandidate], partitioner: &HashPartitioner) -> usize {
        debug_assert!(!candidates.is_empty());
        if candidates.len() == 1 {
            if let Strategy::WorkloadAware { .. } = self.strategy {
                let c = &candidates[0];
                self.add_load(partitioner.owner(c.vd), estimated_load(c.degree, c.white_neighbors));
            }
            return 0;
        }
        match self.strategy {
            Strategy::Random => self.rng.gen_range(0..candidates.len()),
            Strategy::RouletteWheel => self.roulette(candidates),
            Strategy::WorkloadAware { alpha } => {
                self.workload_aware(candidates, partitioner, alpha)
            }
        }
    }

    /// Equation 6: `p_k ∝ ∏_{j≠k} deg(v_dj)`.
    fn roulette(&mut self, candidates: &[GrayCandidate]) -> usize {
        let mut weights = [0.0f64; crate::gpsi::MAX_GPSI_VERTICES];
        let mut total = 0.0f64;
        for (k, _) in candidates.iter().enumerate() {
            let mut prod = 1.0f64;
            for (j, c) in candidates.iter().enumerate() {
                if j != k {
                    prod *= f64::from(c.degree);
                }
            }
            weights[k] = prod;
            total += prod;
        }
        if total <= 0.0 {
            // All-but-one degrees are zero everywhere: fall back to uniform.
            return self.rng.gen_range(0..candidates.len());
        }
        let mut rand_num = self.rng.gen_range(0.0..total);
        for (k, &w) in weights[..candidates.len()].iter().enumerate() {
            if rand_num <= w {
                return k;
            }
            rand_num -= w;
        }
        candidates.len() - 1
    }

    /// Algorithm 3 (workload-aware): `argmin_j { W_j^α + w_ij }`, then
    /// update the local view `W_k += w_ik`.
    fn workload_aware(
        &mut self,
        candidates: &[GrayCandidate],
        partitioner: &HashPartitioner,
        alpha: f64,
    ) -> usize {
        let mut best = 0usize;
        let mut best_score = f64::INFINITY;
        let mut best_load = 0.0f64;
        let mut best_worker = 0usize;
        for (k, c) in candidates.iter().enumerate() {
            let j = partitioner.owner(c.vd);
            let w_ij = estimated_load(c.degree, c.white_neighbors);
            let penalty = if alpha == 0.0 {
                0.0
            } else {
                *self.penalty[j].get_or_insert_with(|| pow_alpha(self.workload[j], alpha))
            };
            let score = penalty + w_ij;
            if score < best_score {
                best_score = score;
                best = k;
                best_load = w_ij;
                best_worker = j;
            }
        }
        self.add_load(best_worker, best_load);
        best
    }

    /// `W_j += load`, invalidating the cached `W_j^α`.
    fn add_load(&mut self, j: usize, load: f64) {
        self.workload[j] += load;
        self.penalty[j] = None;
    }

    /// The local workload view (tests, ablation reporting).
    pub fn workload_view(&self) -> &[f64] {
        &self.workload
    }

    /// Captures the distributor's mutable state — the RNG stream position
    /// and the worker-local workload view — for a superstep-boundary
    /// checkpoint. [`Distributor::from_snapshot`] continues choices
    /// exactly where the capture left off.
    pub fn snapshot(&self) -> DistributorSnapshot {
        DistributorSnapshot { rng_state: self.rng.state(), workload: self.workload.clone() }
    }

    /// Rebuilds a distributor from a [`Distributor::snapshot`]; `strategy`
    /// is carried by the run configuration, not the snapshot.
    pub fn from_snapshot(strategy: Strategy, snapshot: DistributorSnapshot) -> Distributor {
        Distributor {
            strategy,
            penalty: vec![None; snapshot.workload.len()],
            workload: snapshot.workload,
            rng: SmallRng::from_state(snapshot.rng_state),
        }
    }
}

/// Serializable mutable state of one [`Distributor`] (checkpoint payload).
#[derive(Clone, Debug, PartialEq)]
pub struct DistributorSnapshot {
    /// Raw xoshiro256++ state of the strategy RNG.
    pub rng_state: [u64; 4],
    /// Worker-local accumulated workload view `W_j`.
    pub workload: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(vp: u8, vd: u32, degree: u32, white: u32) -> GrayCandidate {
        GrayCandidate { vp, vd, degree, white_neighbors: white }
    }

    #[test]
    fn estimated_load_is_binomial() {
        assert_eq!(estimated_load(10, 2), 45.0);
        assert_eq!(estimated_load(5, 1), 5.0);
        assert_eq!(estimated_load(4, 0), 1.0); // verification only
        assert_eq!(estimated_load(1, 3), 1.0); // dies cheaply
        assert_eq!(estimated_load(100_000, 6), 1e18); // saturates
    }

    #[test]
    fn random_strategy_spreads_choices() {
        let p = HashPartitioner::new(4);
        let mut d = Distributor::new(Strategy::Random, 4, 1);
        let cands = [cand(0, 1, 5, 1), cand(1, 2, 5, 1), cand(2, 3, 5, 1)];
        let mut hist = [0usize; 3];
        for _ in 0..3000 {
            hist[d.choose(&cands, &p)] += 1;
        }
        for &h in &hist {
            assert!((800..1200).contains(&h), "uniformity violated: {hist:?}");
        }
    }

    #[test]
    fn roulette_prefers_low_degree() {
        // Heuristic 1: the high-degree vertex should expand fewer Gpsis.
        let p = HashPartitioner::new(4);
        let mut d = Distributor::new(Strategy::RouletteWheel, 4, 2);
        let cands = [cand(0, 1, 100, 1), cand(1, 2, 1, 1)];
        let mut low = 0usize;
        for _ in 0..1000 {
            if d.choose(&cands, &p) == 1 {
                low += 1;
            }
        }
        // p(low degree) = 100/101 ≈ 0.99.
        assert!(low > 950, "low-degree picked only {low}/1000");
    }

    #[test]
    fn roulette_handles_zero_degrees() {
        let p = HashPartitioner::new(2);
        let mut d = Distributor::new(Strategy::RouletteWheel, 2, 3);
        // Degree-0 candidate gets all the mass (its competitor's weight
        // includes the zero factor).
        let cands = [cand(0, 1, 0, 1), cand(1, 2, 9, 1)];
        for _ in 0..50 {
            assert_eq!(d.choose(&cands, &p), 0);
        }
        // Two zero-degree candidates: total weight 0 → uniform fallback.
        let cands = [cand(0, 1, 0, 1), cand(1, 2, 0, 1)];
        let picks: Vec<usize> = (0..100).map(|_| d.choose(&cands, &p)).collect();
        assert!(picks.contains(&0) && picks.contains(&1));
    }

    #[test]
    fn workload_aware_alpha0_always_takes_cheapest() {
        let p = HashPartitioner::new(4);
        let mut d = Distributor::new(Strategy::WorkloadAware { alpha: 0.0 }, 4, 4);
        let cands = [cand(0, 1, 50, 2), cand(1, 2, 3, 2)];
        for _ in 0..100 {
            assert_eq!(d.choose(&cands, &p), 1, "α=0 must ignore accumulated load");
        }
    }

    #[test]
    fn workload_aware_alpha1_balances_accumulated_load() {
        // Two candidates with equal increment on different workers: the
        // greedy rule must alternate between them as W_j grows.
        let p = HashPartitioner::new(8);
        // Find two data vertices on different workers.
        let (a, b) = {
            let a = 0u32;
            let b = (1..100).find(|&v| p.owner(v) != p.owner(a)).unwrap();
            (a, b)
        };
        let mut d = Distributor::new(Strategy::WorkloadAware { alpha: 1.0 }, 8, 5);
        let cands = [cand(0, a, 10, 1), cand(1, b, 10, 1)];
        let picks: Vec<usize> = (0..10).map(|_| d.choose(&cands, &p)).collect();
        let zeros = picks.iter().filter(|&&i| i == 0).count();
        assert_eq!(zeros, 5, "α=1 should alternate: {picks:?}");
    }

    #[test]
    fn workload_view_accumulates_only_for_wa() {
        let p = HashPartitioner::new(2);
        let mut d = Distributor::new(Strategy::WorkloadAware { alpha: 0.5 }, 2, 6);
        let cands = [cand(0, 1, 10, 1)];
        d.choose(&cands, &p);
        assert!(d.workload_view().iter().sum::<f64>() > 0.0);
        let mut r = Distributor::new(Strategy::Random, 2, 6);
        r.choose(&cands, &p);
        assert_eq!(r.workload_view().iter().sum::<f64>(), 0.0);
    }

    #[test]
    fn single_candidate_short_circuits_but_updates_wa_view() {
        let p = HashPartitioner::new(2);
        let mut d = Distributor::new(Strategy::WorkloadAware { alpha: 0.5 }, 2, 7);
        assert_eq!(d.choose(&[cand(0, 1, 10, 2)], &p), 0);
        assert_eq!(d.workload_view()[p.owner(1)], 45.0);
    }

    #[test]
    fn snapshot_roundtrip_continues_choices_exactly() {
        let p = HashPartitioner::new(4);
        for strategy in
            [Strategy::Random, Strategy::RouletteWheel, Strategy::WorkloadAware { alpha: 0.5 }]
        {
            let cands = [cand(0, 1, 9, 1), cand(1, 2, 4, 2), cand(2, 3, 7, 1)];
            let mut base = Distributor::new(strategy, 4, 99);
            for _ in 0..25 {
                base.choose(&cands, &p);
            }
            let mut resumed = Distributor::from_snapshot(strategy, base.snapshot());
            let mut uninterrupted = base.clone();
            for _ in 0..50 {
                assert_eq!(uninterrupted.choose(&cands, &p), resumed.choose(&cands, &p));
            }
            assert_eq!(uninterrupted.workload_view(), resumed.workload_view());
        }
    }

    /// Algorithm 3 as the paper states it: `W_j^α` computed afresh for
    /// every candidate. Other strategies do not read the workload view.
    fn choose_uncached(d: &mut Distributor, cands: &[GrayCandidate], p: &HashPartitioner) -> usize {
        let Strategy::WorkloadAware { alpha } = d.strategy else {
            return d.choose(cands, p);
        };
        let (mut best, mut best_score, mut best_load, mut best_worker) = (0, f64::INFINITY, 0.0, 0);
        for (k, c) in cands.iter().enumerate() {
            let j = p.owner(c.vd);
            let w_ij = estimated_load(c.degree, c.white_neighbors);
            let penalty = if alpha == 0.0 { 0.0 } else { d.workload[j].powf(alpha) };
            if penalty + w_ij < best_score {
                (best, best_score, best_load, best_worker) = (k, penalty + w_ij, w_ij, j);
            }
        }
        d.workload[best_worker] += best_load;
        best
    }

    #[test]
    fn cached_penalties_choose_exactly_as_uncached() {
        let p = HashPartitioner::new(5);
        for (name, strategy) in Strategy::paper_variants() {
            for seed in 0..4u64 {
                let mut stream = SmallRng::seed_from_u64(seed);
                let mut cached = Distributor::new(strategy, 5, seed);
                let mut uncached = Distributor::new(strategy, 5, seed);
                for step in 0..2_000 {
                    if step == 1_000 {
                        cached = Distributor::from_snapshot(strategy, cached.snapshot());
                        uncached = Distributor::from_snapshot(strategy, uncached.snapshot());
                    }
                    // Lone candidates (no penalty read) mixed with choices
                    // among up to five, on hub and leaf vertices alike.
                    let n =
                        if stream.gen_range(0..3u8) == 0 { 1 } else { stream.gen_range(2..6u8) };
                    let cands: Vec<GrayCandidate> = (0..n)
                        .map(|k| {
                            let degree = match stream.gen_range(0..4u8) {
                                0 => stream.gen_range(0..3u32),
                                1 => stream.gen_range(500..5_000u32),
                                _ => stream.gen_range(1..40u32),
                            };
                            cand(k, stream.gen_range(0..64u32), degree, stream.gen_range(0..4u32))
                        })
                        .collect();
                    let case = format!("{name} seed {seed} step {step}");
                    assert_eq!(
                        cached.choose(&cands, &p),
                        choose_uncached(&mut uncached, &cands, &p),
                        "{case}"
                    );
                    let bits = |d: &Distributor| {
                        d.workload_view().iter().map(|w| w.to_bits()).collect::<Vec<_>>()
                    };
                    assert_eq!(bits(&cached), bits(&uncached), "{case}");
                }
            }
        }
    }

    /// `pow_alpha` takes `W^½` as a square root and `W^1` as `W`; the
    /// uncached reference above keeps `powf`. Both shortcuts must agree with
    /// `powf` bit for bit wherever a workload can land: on integers (sums of
    /// binomial loads) up to 2^32 and on doubles across the range the sums
    /// reach. A platform whose libm rounds `powf(x, 0.5)` differently fails
    /// here with the value.
    #[test]
    fn penalty_shortcuts_equal_powf() {
        let agree = |w: f64| {
            assert_eq!(pow_alpha(w, 0.5).to_bits(), w.powf(0.5).to_bits(), "sqrt({w:e})");
            assert_eq!(pow_alpha(w, 1.0).to_bits(), w.powf(1.0).to_bits(), "{w:e}^1");
        };
        (0..100_000u64).chain((0..1u64 << 32).step_by(65_521)).for_each(|w| agree(w as f64));
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..200_000 {
            // A uniform mantissa at a uniform binary exponent in [-20, 100].
            let exponent = rng.gen_range(-20..101i32);
            agree(rng.gen_range(1.0..2.0f64) * 2f64.powi(exponent));
        }
        agree(f64::INFINITY);
    }

    #[test]
    fn paper_variants_enumerates_five() {
        let v = Strategy::paper_variants();
        assert_eq!(v.len(), 5);
        assert_eq!(v[4].0, "(WA,0.5)");
    }
}
