//! The seeded, virtual-time chaos scheduler.
//!
//! [`SimExecutor`] implements the engine's
//! [`Executor`](psgl_bsp::Executor) seam with a single-threaded scheduler
//! driven by one splitmix64 stream: each superstep it draws a fresh
//! permutation of the workers, runs their tasks in that order — which
//! decides who meets the shared chunk-pool cap and the spill store first —
//! and advances a virtual clock one tick per task. The executor contract
//! (each task exactly once) is upheld for every seed, so the engine's
//! results must be correct under *any* drawn schedule.
//!
//! Every scheduling decision is folded into a running trace hash, so two
//! runs from the same seed can be checked for schedule identity — the
//! replay test's strongest signal besides the stats fingerprint.

use parking_lot::Mutex;
use psgl_bsp::{Executor, WorkerTask};

/// One splitmix64 step — the crate's only randomness source.
pub(crate) fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A tiny deterministic RNG over a splitmix64 stream.
pub(crate) struct SimRng(pub u64);

impl SimRng {
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }

    /// Uniform draw in `0..bound` (bound ≥ 1).
    pub(crate) fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Three retired scenario knobs drew from the stream mid-derivation (a
    /// coin; on heads a one-in-three draw; on a hit a one-in-four draw).
    /// Scenario derivation burns the same draws so every pinned corpus
    /// seed keeps the fault menu it had.
    pub(crate) fn skip_retired_knobs(&mut self) {
        if self.below(2) == 0 && self.below(3) == 0 {
            self.below(4);
        }
    }

    /// Fisher–Yates permutation of `0..k`.
    pub(crate) fn permutation(&mut self, k: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..k).collect();
        for i in (1..k).rev() {
            let j = self.below(i as u64 + 1) as usize;
            order.swap(i, j);
        }
        order
    }
}

struct SimState {
    rng: SimRng,
    trace_hash: u64,
    virtual_time: u64,
}

/// The deterministic chaos scheduler (see the module docs).
pub struct SimExecutor {
    state: Mutex<SimState>,
}

impl SimExecutor {
    /// Creates a scheduler seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SimExecutor {
            state: Mutex::new(SimState {
                rng: SimRng(splitmix64(seed ^ 0x5EED_5EED_5EED_5EED)),
                trace_hash: 0x6A09_E667_F3BC_C908,
                virtual_time: 0,
            }),
        }
    }

    /// Hash of every scheduling decision taken so far; two runs with the
    /// same seed and workload must agree exactly.
    pub fn trace_hash(&self) -> u64 {
        self.state.lock().trace_hash
    }

    /// Virtual clock: one tick per executed task.
    pub fn virtual_time(&self) -> u64 {
        self.state.lock().virtual_time
    }

    fn record(&self, superstep: u32, worker: usize) {
        let mut st = self.state.lock();
        let event = (u64::from(superstep) << 32) | (worker as u64 & 0xFFFF_FFFF);
        st.trace_hash = splitmix64(st.trace_hash ^ event);
        st.virtual_time += 1;
    }
}

impl Executor for SimExecutor {
    fn run_superstep(&self, superstep: u32, tasks: Vec<WorkerTask<'_>>) {
        // Drawn up front so the RNG stream depends only on (seed,
        // superstep sequence, k) — not on what the tasks do.
        let order = self.state.lock().rng.permutation(tasks.len());
        let mut tasks: Vec<Option<WorkerTask<'_>>> = tasks.into_iter().map(Some).collect();
        for slot in order {
            let task = tasks[slot].take().expect("a permutation visits each slot once");
            (task.run)();
            self.record(superstep, task.worker);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn counting_tasks(runs: &[AtomicUsize]) -> Vec<WorkerTask<'_>> {
        runs.iter()
            .enumerate()
            .map(|(worker, count)| WorkerTask {
                worker,
                run: Box::new(move || {
                    count.fetch_add(1, Ordering::SeqCst);
                }),
            })
            .collect()
    }

    #[test]
    fn runs_every_task_once_for_many_seeds() {
        for seed in 0..50 {
            let exec = SimExecutor::new(seed);
            let runs: Vec<AtomicUsize> = (0..6).map(|_| AtomicUsize::new(0)).collect();
            exec.run_superstep(0, counting_tasks(&runs));
            assert!(runs.iter().all(|c| c.load(Ordering::SeqCst) == 1), "seed {seed}");
            assert_eq!(exec.virtual_time(), 6);
        }
    }

    #[test]
    fn trace_hash_is_reproducible_and_seed_sensitive() {
        let run = |seed| {
            let exec = SimExecutor::new(seed);
            let runs: Vec<AtomicUsize> = (0..5).map(|_| AtomicUsize::new(0)).collect();
            for superstep in 0..4 {
                exec.run_superstep(superstep, counting_tasks(&runs));
            }
            exec.trace_hash()
        };
        assert_eq!(run(7), run(7), "same seed, same schedule");
        assert_ne!(run(7), run(8), "different seeds should diverge");
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut rng = SimRng(1);
        for k in [1usize, 2, 7, 16] {
            let mut p = rng.permutation(k);
            p.sort_unstable();
            assert_eq!(p, (0..k).collect::<Vec<_>>());
        }
    }
}
