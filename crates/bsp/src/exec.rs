//! The scheduler seam: who runs a superstep's worker tasks, and in what
//! order.
//!
//! [`run_controlled`](crate::engine::run_controlled) packages each superstep as one
//! [`WorkerTask`] per worker — a single closure that reads the worker's
//! inbox, groups it by vertex and runs the vertex program over every batch
//! — and hands the set to an [`Executor`]. Production uses
//! [`ThreadExecutor`] (one scoped OS thread per worker, or the calling
//! thread for a lone worker); the simulation
//! harness in `crates/sim` substitutes a seeded, virtual-time scheduler
//! that runs the same closures single-threaded in an adversarial but fully
//! reproducible order.
//!
//! # Executor contract
//!
//! - Every closure must be invoked exactly once; `run_superstep` returns
//!   only after all of them have returned. The closures never unwind —
//!   the engine catches panics internally and reports them through its
//!   own channel — so executors need no unwind handling of their own.
//! - Closures may be run on any thread(s), sequentially or in parallel,
//!   in any order: a worker's closure touches only that worker's inbox,
//!   state and outbox, plus the shared chunk pool and spill store. The
//!   engine guarantees correctness (exact instance counts, message
//!   conservation) for *every* legal schedule; only scheduling-dependent
//!   metrics (per-worker elapsed time, which sends met a capped pool)
//!   vary.

/// A boxed worker closure; see the module docs for the execution contract.
pub type TaskFn<'a> = Box<dyn FnOnce() + Send + 'a>;

/// One worker's share of a superstep.
pub struct WorkerTask<'a> {
    /// Worker id (index into the engine's worker arrays).
    pub worker: usize,
    /// Regroups the inbox and runs the vertex program over it.
    pub run: TaskFn<'a>,
}

/// Drives the worker tasks of one superstep. See the module docs for the
/// contract implementations must uphold.
pub trait Executor: Sync {
    /// Runs every task of `superstep` to completion.
    fn run_superstep(&self, superstep: u32, tasks: Vec<WorkerTask<'_>>);
}

/// The production executor: one scoped OS thread per worker. A lone task
/// (a one-worker run) has nothing to run beside, so it runs on the
/// calling thread: no thread per superstep, and a long-lived caller such
/// as a service pool worker keeps the run's allocations in its own malloc
/// arena instead of scattering them over short-lived threads' arenas.
#[derive(Clone, Copy, Debug, Default)]
pub struct ThreadExecutor;

impl Executor for ThreadExecutor {
    fn run_superstep(&self, superstep: u32, tasks: Vec<WorkerTask<'_>>) {
        if tasks.len() == 1 {
            return SerialExecutor.run_superstep(superstep, tasks);
        }
        std::thread::scope(|scope| {
            for task in tasks {
                scope.spawn(task.run);
            }
        });
    }
}

/// A trivial deterministic executor: runs every task on the calling
/// thread, in worker-id order. Useful for debugging engine issues without
/// threads in the picture; `crates/sim` builds its seeded chaos scheduler
/// on the same trait.
#[derive(Clone, Copy, Debug, Default)]
pub struct SerialExecutor;

impl Executor for SerialExecutor {
    fn run_superstep(&self, _superstep: u32, tasks: Vec<WorkerTask<'_>>) {
        for task in tasks {
            (task.run)();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn check_every_task_runs_once(executor: &dyn Executor) {
        let runs: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        let tasks: Vec<WorkerTask<'_>> = runs
            .iter()
            .enumerate()
            .map(|(worker, count)| WorkerTask {
                worker,
                run: Box::new(move || {
                    count.fetch_add(1, Ordering::SeqCst);
                }),
            })
            .collect();
        executor.run_superstep(0, tasks);
        for (worker, count) in runs.iter().enumerate() {
            assert_eq!(count.load(Ordering::SeqCst), 1, "worker {worker}");
        }
    }

    #[test]
    fn thread_executor_runs_every_task_once() {
        check_every_task_runs_once(&ThreadExecutor);
    }

    #[test]
    fn thread_executor_runs_a_lone_task_on_the_calling_thread() {
        let mut ran_on = None;
        let slot = &mut ran_on;
        let run = Box::new(move || *slot = Some(std::thread::current().id()));
        ThreadExecutor.run_superstep(0, vec![WorkerTask { worker: 0, run }]);
        assert_eq!(ran_on, Some(std::thread::current().id()));
    }

    #[test]
    fn serial_executor_runs_every_task_once() {
        check_every_task_runs_once(&SerialExecutor);
    }
}
