#![warn(missing_docs)]

//! An in-memory mini MapReduce engine.
//!
//! The baselines PSgL is evaluated against — Afrati et al.'s single-round
//! multiway join and Plantenga's SGIA-MR — run on Hadoop. This crate is the
//! single-machine substrate standing in for it: mappers run over input
//! splits in parallel threads, the shuffle hash-partitions keys to
//! reducers, and reducers process their keys in sorted order (so output is
//! deterministic).
//!
//! The engine *meters* what the paper's analysis cares about:
//! shuffle volume (communication) and per-reducer record/cost skew — "the
//! curse of the last reducer" that makes the MapReduce solutions slow on
//! skewed graphs (Section 7.5). Disk and JVM overheads are deliberately
//! absent; they scale constants, not the comparison's shape (`DESIGN.md`
//! §3).

use psgl_graph::hash::hash_u64;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

/// A MapReduce job: `map` over inputs, `reduce` over grouped keys.
pub trait MapReduceJob: Sync {
    /// One input record.
    type Input: Sync;
    /// Intermediate key.
    type Key: Ord + Hash + Send + Clone;
    /// Intermediate value.
    type Value: Send;
    /// One output record.
    type Output: Send;

    /// Emits `(key, value)` pairs for one input record.
    fn map(&self, input: &Self::Input, emit: &mut dyn FnMut(Self::Key, Self::Value));

    /// Reduces all values of one key. Work must be charged to `ctx` (via
    /// [`ReduceCtx::try_charge`]) so skew can be measured and runaway jobs
    /// cut off; when `try_charge` returns `false` the reducer should return
    /// immediately — the engine aborts the job with
    /// [`MrError::CostBudgetExceeded`].
    fn reduce(
        &self,
        key: &Self::Key,
        values: Vec<Self::Value>,
        emit: &mut dyn FnMut(Self::Output),
        ctx: &mut ReduceCtx,
    );
}

/// Per-reducer cost accounting with an optional budget — the deterministic
/// stand-in for the paper's wall-clock cutoffs ("the MapReduce solutions
/// cannot be finished in four hours for PG5", Section 7.5).
#[derive(Clone, Copy, Debug)]
pub struct ReduceCtx {
    cost: u64,
    budget: Option<u64>,
    exceeded: bool,
}

impl ReduceCtx {
    fn new(budget: Option<u64>) -> ReduceCtx {
        ReduceCtx { cost: 0, budget, exceeded: false }
    }

    /// Charges `units` of work. Returns `false` — and marks the job as
    /// over budget — when the per-reducer budget is exhausted; the caller
    /// should stop immediately (check *before* performing a large join:
    /// `|partials| × |edges|` is known up front).
    #[inline]
    pub fn try_charge(&mut self, units: u64) -> bool {
        self.cost = self.cost.saturating_add(units);
        if let Some(budget) = self.budget {
            if self.cost > budget {
                self.exceeded = true;
                return false;
            }
        }
        true
    }

    /// Cost accumulated so far on this reducer.
    #[inline]
    pub fn cost(&self) -> u64 {
        self.cost
    }

    /// Whether the budget has been exceeded.
    #[inline]
    pub fn is_exceeded(&self) -> bool {
        self.exceeded
    }
}

/// Engine configuration.
#[derive(Clone, Copy, Debug)]
pub struct MrConfig {
    /// Number of reducers (and mapper threads).
    pub reducers: usize,
    /// Abort when the shuffle holds more than this many records
    /// (simulated OOM, as in the paper's failed baseline runs).
    pub shuffle_budget: Option<u64>,
    /// Abort when any single reducer accumulates more than this much work
    /// (the deterministic analog of the paper's four-hour cutoff).
    pub cost_budget: Option<u64>,
}

impl Default for MrConfig {
    fn default() -> Self {
        MrConfig { reducers: 4, shuffle_budget: None, cost_budget: None }
    }
}

/// Metrics of one job execution.
#[derive(Clone, Debug, Default)]
pub struct JobMetrics {
    /// Records emitted by mappers (shuffle volume).
    pub shuffle_records: u64,
    /// Records received per reducer (skew view).
    pub reducer_records: Vec<u64>,
    /// Cost units reported per reducer.
    pub reducer_cost: Vec<u64>,
    /// Wall time of the whole job.
    pub wall_time: Duration,
}

impl JobMetrics {
    /// Max per-reducer cost — the job's makespan contribution
    /// ("the last reducer").
    pub fn max_reducer_cost(&self) -> u64 {
        self.reducer_cost.iter().copied().max().unwrap_or(0)
    }

    /// Max/mean imbalance of reducer cost.
    pub fn cost_imbalance(&self) -> f64 {
        let total: u64 = self.reducer_cost.iter().sum();
        if total == 0 || self.reducer_cost.is_empty() {
            return 1.0;
        }
        self.max_reducer_cost() as f64 / (total as f64 / self.reducer_cost.len() as f64)
    }
}

/// Errors from job execution.
#[derive(Debug)]
pub enum MrError {
    /// The shuffle exceeded [`MrConfig::shuffle_budget`].
    ShuffleBudgetExceeded {
        /// Records in the shuffle.
        records: u64,
        /// The configured budget.
        budget: u64,
    },
    /// A reducer exceeded [`MrConfig::cost_budget`] — the job "did not
    /// finish" in the paper's sense.
    CostBudgetExceeded {
        /// Cost accumulated when the budget tripped.
        cost: u64,
        /// The configured budget.
        budget: u64,
    },
}

impl std::fmt::Display for MrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MrError::ShuffleBudgetExceeded { records, budget } => write!(
                f,
                "out of memory (simulated): shuffle holds {records} records, budget {budget}"
            ),
            MrError::CostBudgetExceeded { cost, budget } => write!(
                f,
                "did not finish (simulated cutoff): reducer cost {cost} exceeds budget {budget}"
            ),
        }
    }
}

impl std::error::Error for MrError {}

fn key_hash<K: Hash>(key: &K) -> u64 {
    let mut h = psgl_graph::hash::FxHasher::default();
    key.hash(&mut h);
    hash_u64(h.finish())
}

/// Runs one MapReduce round. Outputs are ordered by reducer id, then by key
/// (deterministic).
pub fn run_job<J: MapReduceJob>(
    job: &J,
    inputs: &[J::Input],
    config: &MrConfig,
) -> Result<(Vec<J::Output>, JobMetrics), MrError> {
    let started = Instant::now();
    let r = config.reducers.max(1);
    // --- map phase (parallel over input chunks) -------------------------
    let chunk = inputs.len().div_ceil(r).max(1);
    type Shuffle<J> = Vec<(<J as MapReduceJob>::Key, <J as MapReduceJob>::Value)>;
    let chunks: Vec<&[J::Input]> = inputs.chunks(chunk).collect();
    let mut partitions: Vec<Shuffle<J>> = (0..r).map(|_| Vec::new()).collect();
    let mapper_outputs: Vec<Vec<Shuffle<J>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|split| {
                scope.spawn(move || {
                    let mut local: Vec<Vec<(J::Key, J::Value)>> =
                        (0..r).map(|_| Vec::new()).collect();
                    for input in split {
                        job.map(input, &mut |k, v| {
                            let dest = (key_hash(&k) % r as u64) as usize;
                            local[dest].push((k, v));
                        });
                    }
                    local
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("mapper join")).collect()
    });
    let mut shuffle_records = 0u64;
    for local in mapper_outputs {
        for (dest, mut recs) in local.into_iter().enumerate() {
            shuffle_records += recs.len() as u64;
            partitions[dest].append(&mut recs);
        }
    }
    if let Some(budget) = config.shuffle_budget {
        if shuffle_records > budget {
            return Err(MrError::ShuffleBudgetExceeded { records: shuffle_records, budget });
        }
    }
    // --- reduce phase (parallel over reducers) --------------------------
    let reducer_records: Vec<u64> = partitions.iter().map(|p| p.len() as u64).collect();
    let cost_budget = config.cost_budget;
    let reduced: Vec<(Vec<J::Output>, ReduceCtx)> = std::thread::scope(|scope| {
        // The intermediate collect is what makes the reducers parallel: all
        // threads must spawn before the first join.
        #[allow(clippy::needless_collect)]
        let handles: Vec<_> = partitions
            .into_iter()
            .map(|mut part| {
                scope.spawn(move || {
                    // Group by key in sorted order for determinism.
                    part.sort_by(|a, b| a.0.cmp(&b.0));
                    let mut out = Vec::new();
                    let mut ctx = ReduceCtx::new(cost_budget);
                    let mut it = part.into_iter().peekable();
                    while let Some((key, first)) = it.next() {
                        let mut values = vec![first];
                        while it.peek().is_some_and(|(k, _)| *k == key) {
                            values.push(it.next().unwrap().1);
                        }
                        job.reduce(&key, values, &mut |o| out.push(o), &mut ctx);
                        if ctx.is_exceeded() {
                            break;
                        }
                    }
                    (out, ctx)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("reducer join")).collect()
    });
    let mut outputs = Vec::new();
    let mut reducer_cost = Vec::with_capacity(r);
    for (mut out, ctx) in reduced {
        if ctx.is_exceeded() {
            return Err(MrError::CostBudgetExceeded {
                cost: ctx.cost(),
                budget: cost_budget.expect("budget set when exceeded"),
            });
        }
        outputs.append(&mut out);
        reducer_cost.push(ctx.cost());
    }
    let metrics =
        JobMetrics { shuffle_records, reducer_records, reducer_cost, wall_time: started.elapsed() };
    Ok((outputs, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Classic word count over integer "words".
    struct Count;

    impl MapReduceJob for Count {
        type Input = Vec<u32>;
        type Key = u32;
        type Value = u64;
        type Output = (u32, u64);

        fn map(&self, input: &Vec<u32>, emit: &mut dyn FnMut(u32, u64)) {
            for &w in input {
                emit(w, 1);
            }
        }

        fn reduce(
            &self,
            key: &u32,
            values: Vec<u64>,
            emit: &mut dyn FnMut((u32, u64)),
            ctx: &mut ReduceCtx,
        ) {
            if !ctx.try_charge(values.len() as u64) {
                return;
            }
            emit((*key, values.iter().sum()));
        }
    }

    #[test]
    fn word_count_is_correct_and_deterministic() {
        let inputs = vec![vec![1, 2, 2, 3], vec![3, 3, 4], vec![1]];
        let (mut out, metrics) = run_job(&Count, &inputs, &MrConfig::default()).unwrap();
        out.sort();
        assert_eq!(out, vec![(1, 2), (2, 2), (3, 3), (4, 1)]);
        assert_eq!(metrics.shuffle_records, 8);
        assert_eq!(metrics.reducer_records.iter().sum::<u64>(), 8);
        assert_eq!(metrics.reducer_cost.iter().sum::<u64>(), 8);
        // Re-running produces identical output order.
        let (out2, _) = run_job(&Count, &inputs, &MrConfig::default()).unwrap();
        let (out3, _) = run_job(&Count, &inputs, &MrConfig::default()).unwrap();
        assert_eq!(out2, out3);
    }

    #[test]
    fn shuffle_budget_aborts() {
        let inputs = vec![vec![1; 100]];
        let config = MrConfig { reducers: 2, shuffle_budget: Some(50), cost_budget: None };
        match run_job(&Count, &inputs, &config) {
            Err(MrError::ShuffleBudgetExceeded { records: 100, budget: 50 }) => {}
            other => panic!("expected budget error, got {other:?}"),
        }
    }

    #[test]
    fn skew_is_visible_in_metrics() {
        // All records share one key → one reducer takes everything.
        let inputs = vec![vec![7; 1000]];
        let config = MrConfig { reducers: 4, shuffle_budget: None, cost_budget: None };
        let (_, metrics) = run_job(&Count, &inputs, &config).unwrap();
        assert_eq!(metrics.max_reducer_cost(), 1000);
        assert_eq!(metrics.cost_imbalance(), 4.0);
    }

    #[test]
    fn cost_budget_reports_did_not_finish() {
        let inputs = vec![vec![7; 1000]];
        let config = MrConfig { reducers: 2, shuffle_budget: None, cost_budget: Some(100) };
        match run_job(&Count, &inputs, &config) {
            Err(MrError::CostBudgetExceeded { cost, budget: 100 }) => assert!(cost > 100),
            other => panic!("expected cost budget error, got {other:?}"),
        }
        // A sufficient budget completes normally.
        let config = MrConfig { reducers: 2, shuffle_budget: None, cost_budget: Some(10_000) };
        assert!(run_job(&Count, &inputs, &config).is_ok());
    }

    #[test]
    fn empty_inputs_produce_empty_outputs() {
        let (out, metrics) = run_job(&Count, &[], &MrConfig::default()).unwrap();
        assert!(out.is_empty());
        assert_eq!(metrics.shuffle_records, 0);
        assert_eq!(metrics.cost_imbalance(), 1.0);
    }

    #[test]
    fn single_reducer_processes_all_keys() {
        let inputs = vec![vec![5, 6, 7, 8, 9]];
        let config = MrConfig { reducers: 1, shuffle_budget: None, cost_budget: None };
        let (out, metrics) = run_job(&Count, &inputs, &config).unwrap();
        assert_eq!(out.len(), 5);
        assert_eq!(metrics.reducer_records, vec![5]);
        // Sorted key order within the single reducer.
        let keys: Vec<u32> = out.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![5, 6, 7, 8, 9]);
    }
}
