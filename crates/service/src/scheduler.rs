//! Preemptive, deadline-aware weighted-fair scheduler.
//!
//! Queries are decomposed into *superstep slices* via the engine's
//! checkpoint seam ([`psgl_core::Stop::slice`]): a worker runs at most
//! `slice_supersteps` supersteps of a query, then the run yields at the
//! barrier with a resume checkpoint and goes back to the run queue, so
//! slices of many concurrent queries interleave over the shared pool and
//! one giant scan can no longer hold a worker end-to-end.
//!
//! The run queue orders by `(class, key, seq)`:
//!
//! - **class 0** — queries with a wall-clock deadline (`timeout_ms`),
//!   ordered earliest-deadline-first. A deadline is an urgency statement;
//!   boosting these is what lets short interactive queries overtake long
//!   scans, and what turns an already-expired deadline into a prompt
//!   `cancelled` instead of a 40-second queue wait.
//! - **class 1** — everything else, ordered by weighted virtual time:
//!   each slice charges its tenant `supersteps × SCALE / weight`, so a
//!   weight-2 tenant's virtual clock advances half as fast and it receives
//!   twice the slices under saturation. A tenant (re)entering the queue
//!   starts at the global virtual-time floor — idling banks no credit.
//!
//! Admission control is unchanged from the FIFO scheduler it replaces:
//! at most `queue_cap` tasks may *wait* (running tasks are not counted)
//! and [`Scheduler::submit`] fails fast with [`ServiceError::Overloaded`]
//! beyond that. Preempted tasks re-enter the queue without re-admission —
//! they were already admitted, so the queue may transiently exceed
//! `queue_cap` and new arrivals bounce instead.
//!
//! Slicing never changes results: resume is bit-identical, so a query
//! preempted N times returns exactly the counts, instances, and resume
//! semantics of an uninterrupted run. Hard triggers (explicit cancel,
//! disconnect, non-checkpoint deadline) still abort mid-slice through the
//! shared [`CancelToken`]; budget and checkpointed-deadline suspends
//! still produce client-facing resume tokens.

use crate::cache::{canonical_pattern, config_fingerprint, CachedQuery, ResultKey};
use crate::error::ServiceError;
use crate::protocol::{instances_line, QuerySpec};
use crate::state::ServiceState;
use psgl_core::{
    run, CancelReason, CancelToken, Checkpoint, ListingEnd, PsglConfig, PsglError, PsglShared,
    RunRequest, RunnerHooks, Start, Stop,
};
use psgl_graph::VertexId;
use psgl_obs::{SlowQueryEntry, Value as TraceValue};
use psgl_pattern::PatternVertex;
use std::collections::{BTreeSet, HashMap};
use std::sync::mpsc::{SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Default supersteps per slice. Small enough that a giant scan yields
/// its worker every few hundred milliseconds on large graphs; large
/// enough that short queries pay at most one extra engine start.
pub const DEFAULT_SLICE_SUPERSTEPS: u32 = 2;

/// Tenant billed when a query names none.
pub const DEFAULT_TENANT: &str = "default";

/// Virtual-time resolution: one superstep at weight 1 advances a
/// tenant's clock by this much.
const VTIME_SCALE: u64 = 1 << 20;

/// How long a worker naps when a streaming client's page channel is full
/// before re-checking for cancellation. The connection thread blocks on
/// the channel, so it is full only when the client itself reads slowly.
const PAGE_BACKOFF: Duration = Duration::from_millis(1);

/// Outcome of a successful query (count or list).
#[derive(Clone, Debug)]
pub struct QueryOutcome {
    /// Instances found.
    pub count: u64,
    /// Collected instance tuples (list queries only; `None` after the
    /// instances were streamed out as pages).
    pub instances: Option<Arc<Vec<Vec<VertexId>>>>,
    /// Whether the result came from the result cache.
    pub cache_hit: bool,
    /// Whether the plan came from the plan cache.
    pub plan_cache_hit: bool,
    /// Gpsis generated (0 on a cache hit — no new engine work ran).
    pub gpsis_generated: u64,
    /// Candidates pruned by the run that produced this result.
    pub pruned: u64,
    /// Supersteps of the producing run.
    pub supersteps: usize,
    /// Initial pattern vertex used (0-based).
    pub init_vertex: PatternVertex,
    /// Selection rule, rendered.
    pub selection_rule: String,
    /// Wall-clock milliseconds from admission to completion (queue wait
    /// and preempted waits included).
    pub wall_ms: f64,
    /// Whether this outcome completed a resumed (checkpointed) run.
    pub resumed: bool,
    /// Superstep slices this query ran on the pool (0 on a cache hit).
    pub slices: u64,
    /// Of `slices`, how many ended in preemption.
    pub preemptions: u64,
    /// Page events streamed for this query (`stream: true` lists only).
    pub pages: u64,
}

/// Where a `stream: true` list query's page events go. The worker renders
/// each `{"ok":true,"page":N,"instances":[...]}` line to its final bytes
/// (trailing `\n` included) and pushes it through the bounded channel;
/// the connection thread blocks on the channel and writes the lines in
/// order. A full channel is backpressure (the worker naps and re-checks
/// the cancel token); one closed by the receiver means the client is
/// gone. The worker drops the sink with the task, right after it sends
/// [`Job::reply`], so the channel closing *is* the end-of-pages signal:
/// by then every page is in the channel and the outcome is waiting.
pub struct StreamSink {
    /// Bounded channel of rendered page lines.
    pub tx: SyncSender<Vec<u8>>,
    /// Instances per page event.
    pub chunk: usize,
}

/// One admitted query job.
pub struct Job {
    /// The query to run.
    pub query: QuerySpec,
    /// Collect instance tuples (list) instead of counting only.
    pub collect: bool,
    /// The run's cancel token: carries the query's deadline and is fired
    /// by the `cancel` verb or a client disconnect.
    pub token: CancelToken,
    /// Where the worker sends the outcome.
    pub reply: std::sync::mpsc::Sender<Result<QueryOutcome, ServiceError>>,
    /// Page-event sink for `stream: true` list queries.
    pub stream: Option<StreamSink>,
}

/// One admitted query's scheduling state, alive across slices.
struct Task {
    seq: u64,
    query: Arc<QuerySpec>,
    job: Job,
    tenant: String,
    weight: u64,
    /// Absolute deadline in microseconds since the scheduler epoch
    /// (class-0 EDF key); `None` puts the task in the weighted class.
    deadline_key: Option<u64>,
    /// In-memory resume point between slices.
    resume: Option<Box<Checkpoint>>,
    /// Whether the query redeemed a client resume token.
    client_resumed: bool,
    /// Whether the (single-use) resume token was already taken.
    resume_redeemed: bool,
    slices: u64,
    preemptions: u64,
    pages: u64,
    /// Instances already streamed out as pages.
    streamed: u64,
    /// Superstep the next slice resumes at (0 before the first).
    last_superstep: u32,
    partial_count: u64,
    admitted_at: Instant,
    /// Serve this task as a memory-bounded spilling run (tight live-chunk
    /// cap, Gpsi budget lifted) instead of rejecting it. Set at admission
    /// when the queue is full, or mid-run when the budget trips, and only
    /// when the server's defaults configure a spill tier.
    degraded: bool,
}

impl Task {
    /// A freshly admitted query that has run nothing yet. `seq` and
    /// `degraded` are the run queue's to set.
    fn new(job: Job, deadline_key: Option<u64>) -> Task {
        Task {
            seq: 0,
            query: Arc::new(job.query.clone()),
            tenant: job.query.tenant.clone().unwrap_or_else(|| DEFAULT_TENANT.to_string()),
            weight: job.query.weight.unwrap_or(1).max(1),
            job,
            deadline_key,
            resume: None,
            client_resumed: false,
            resume_redeemed: false,
            slices: 0,
            preemptions: 0,
            pages: 0,
            streamed: 0,
            last_superstep: 0,
            partial_count: 0,
            admitted_at: Instant::now(),
            degraded: false,
        }
    }
}

#[derive(Default)]
struct RunQueue {
    /// `(class, key, seq)` — BTreeSet iteration order is the dispatch
    /// order: expired/near deadlines first, then lowest virtual time.
    ready: BTreeSet<(u8, u64, u64)>,
    tasks: HashMap<u64, Task>,
    /// Per-tenant virtual clocks (authoritative; mirrored into
    /// [`ServiceState::tenants`] for the stats verb).
    vtimes: HashMap<String, u64>,
    /// Largest class-1 key ever dispatched: tenants (re)enter at or
    /// above this, so idle time banks no credit.
    vfloor: u64,
    next_seq: u64,
    shutdown: bool,
}

struct SchedShared {
    state: Arc<ServiceState>,
    queue_cap: usize,
    slice_supersteps: u32,
    epoch: Instant,
    queue: Mutex<RunQueue>,
    ready_cond: Condvar,
}

/// Preemptive weighted-fair run queue + worker pool.
pub struct Scheduler {
    shared: Arc<SchedShared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Scheduler {
    /// Starts `pool` worker threads with the default slice length.
    /// (`pool` 0 is allowed — jobs queue but never execute — and exists
    /// for deterministic admission tests.)
    pub fn start(state: Arc<ServiceState>, pool: usize, queue_cap: usize) -> Scheduler {
        Scheduler::start_with(state, pool, queue_cap, DEFAULT_SLICE_SUPERSTEPS)
    }

    /// Starts the pool with an explicit slice length (supersteps per
    /// slice; 1 = finest interleaving).
    pub fn start_with(
        state: Arc<ServiceState>,
        pool: usize,
        queue_cap: usize,
        slice_supersteps: u32,
    ) -> Scheduler {
        let shared = Arc::new(SchedShared {
            state,
            queue_cap: queue_cap.max(1),
            slice_supersteps: slice_supersteps.max(1),
            epoch: Instant::now(),
            queue: Mutex::new(RunQueue::default()),
            ready_cond: Condvar::new(),
        });
        let workers = (0..pool)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("psgl-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();
        Scheduler { shared, workers: Mutex::new(workers) }
    }

    /// Admits a job, or rejects immediately when too many tasks are
    /// already waiting (backpressure) or the scheduler is shutting down.
    pub fn submit(&self, job: Job) -> Result<(), ServiceError> {
        let deadline_key = job
            .query
            .timeout_ms
            .map(|ms| (self.shared.epoch.elapsed() + Duration::from_millis(ms)).as_micros() as u64);
        let mut task = Task::new(job, deadline_key);
        let (tenant, weight) = (task.tenant.clone(), task.weight);
        let mut q = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        if q.shutdown {
            return Err(ServiceError::ShuttingDown);
        }
        let mut degraded = false;
        if q.ready.len() >= self.shared.queue_cap {
            // With a spill tier configured the full queue is a served
            // scenario, not a rejection: over-admit the job as a degraded
            // memory-bounded run (up to 2x the cap, so backpressure still
            // exists). Without one, fail fast as before.
            if self.shared.state.defaults.spill.is_some()
                && q.ready.len() < self.shared.queue_cap.saturating_mul(2)
            {
                degraded = true;
            } else {
                drop(q);
                self.shared.state.tenants.update(&tenant, |a| a.rejected += 1);
                return Err(ServiceError::Overloaded { queue_cap: self.shared.queue_cap });
            }
        }
        task.seq = q.next_seq;
        q.next_seq += 1;
        task.degraded = degraded;
        let vtime = enqueue(&mut q, task);
        drop(q);
        self.shared.state.stats.queue_depth.add(1);
        if degraded {
            self.shared.state.stats.degraded_to_spill.inc();
        }
        self.shared.state.tenants.update(&tenant, |a| {
            a.admitted += 1;
            a.active += 1;
            a.weight = weight;
            a.vtime = a.vtime.max(vtime);
            if degraded {
                a.degraded_to_spill += 1;
            }
        });
        self.shared.ready_cond.notify_one();
        Ok(())
    }

    /// Stops admitting, lets the workers drain every admitted task to
    /// completion, and joins them; anything still queued afterwards (an
    /// empty pool) is answered with `shutting_down` so no client blocks
    /// forever.
    pub fn shutdown(&self) {
        {
            let mut q = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            q.shutdown = true;
        }
        self.shared.ready_cond.notify_all();
        let handles: Vec<_> =
            self.workers.lock().unwrap_or_else(|e| e.into_inner()).drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
        let stranded: Vec<Task> = {
            let mut q = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            q.ready.clear();
            q.tasks.drain().map(|(_, t)| t).collect()
        };
        for task in stranded {
            self.shared.state.stats.queue_depth.sub(1);
            finish_accounting(&self.shared.state, &task);
            let _ = task.job.reply.send(Err(ServiceError::ShuttingDown));
        }
    }
}

/// Inserts a task into the ready set and reserves one slice against its
/// tenant's virtual clock: the task's fair key is the tenant's virtual
/// *finish* time `max(vtime, vfloor) + SCALE/weight`, so a tenant's
/// queued slices stack on its own clock (weight-2 stacks half as fast)
/// instead of all entering at the floor and bursting through FIFO.
/// Deadline tasks keep their EDF key but still advance the clock, so a
/// tenant cannot dodge its share by stamping deadlines on everything.
/// Caller holds the queue lock and owns the queue-depth increment;
/// returns the tenant's new virtual time for the stats mirror.
fn enqueue(q: &mut RunQueue, task: Task) -> u64 {
    let floor = q.vfloor;
    let v = q.vtimes.entry(task.tenant.clone()).or_insert(floor);
    let finish = (*v).max(floor) + VTIME_SCALE / task.weight.max(1);
    *v = finish;
    let key = match task.deadline_key {
        Some(d) => (0u8, d, task.seq),
        None => (1u8, finish, task.seq),
    };
    q.ready.insert(key);
    q.tasks.insert(task.seq, task);
    finish
}

fn finish_accounting(state: &ServiceState, task: &Task) {
    state.tenants.update(&task.tenant, |a| {
        a.finished += 1;
        a.active = a.active.saturating_sub(1);
    });
}

fn worker_loop(shared: &SchedShared) {
    loop {
        let mut task = {
            let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(&key) = q.ready.iter().next() {
                    q.ready.remove(&key);
                    let (class, k, seq) = key;
                    if class == 1 {
                        q.vfloor = q.vfloor.max(k);
                    }
                    break q.tasks.remove(&seq).expect("ready task is registered");
                }
                if q.shutdown {
                    return;
                }
                q = shared.ready_cond.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        shared.state.stats.queue_depth.sub(1);
        // A task cancelled while waiting (disconnect, cancel verb) frees
        // its slot without running the engine; partial progress from
        // earlier slices is reported but not resumable.
        if let Some(reason) = task.job.token.reason() {
            finish_accounting(&shared.state, &task);
            let _ = task.job.reply.send(Err(ServiceError::Cancelled {
                reason,
                superstep: task.last_superstep,
                partial_count: task.partial_count,
                resume_token: None,
            }));
            continue;
        }
        shared.state.stats.running.add(1);
        let step = run_slice(&shared.state, &mut task, Some(shared.slice_supersteps));
        shared.state.stats.running.sub(1);
        match step {
            SliceStep::Yield => {
                let tenant = task.tenant.clone();
                let vtime = {
                    let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
                    enqueue(&mut q, task)
                };
                shared.state.stats.queue_depth.add(1);
                // The mirror write races other slices of the same tenant,
                // but vtime is monotonic so the snapshot stays sane.
                shared.state.tenants.update(&tenant, |a| a.vtime = a.vtime.max(vtime));
                shared.ready_cond.notify_one();
            }
            SliceStep::Done(result) => {
                finish_accounting(&shared.state, &task);
                // `task`, and with it the page sink, drops only after this
                // send: a streaming connection sees its page channel close
                // once the outcome is already waiting.
                let _ = task.job.reply.send(result);
            }
        }
    }
}

enum SliceStep {
    /// The slice was preempted; the task goes back to the run queue.
    Yield,
    /// The query is finished (success or error) — reply and retire.
    Done(Result<QueryOutcome, ServiceError>),
}

fn done(result: Result<QueryOutcome, ServiceError>) -> SliceStep {
    SliceStep::Done(result)
}

/// Runs one slice of `task` on the calling worker thread: at most `slice`
/// supersteps, or to the end when `None`.
fn run_slice(state: &ServiceState, task: &mut Task, slice: Option<u32>) -> SliceStep {
    let query = Arc::clone(&task.query);
    let Some(entry) = state.catalog.get(&query.graph) else {
        return done(Err(ServiceError::GraphNotFound(query.graph.clone())));
    };
    // A resume token buys back the suspended run's checkpoint, once, on
    // the first slice. Tokens are single-use: the bytes leave the store
    // here, and a failed decode or guard mismatch is the client's error.
    if !task.resume_redeemed {
        task.resume_redeemed = true;
        if let Some(tok) = &query.resume {
            let Some(bytes) = state.checkpoints.take(tok) else {
                return done(Err(ServiceError::BadRequest(format!(
                    "unknown or expired resume token {tok:?}"
                ))));
            };
            match Checkpoint::from_bytes(&bytes) {
                Ok(cp) => {
                    task.last_superstep = cp.superstep;
                    task.resume = Some(Box::new(cp));
                    task.client_resumed = true;
                }
                Err(e) => return done(Err(ServiceError::from(PsglError::from(e)))),
            }
        }
    }
    let config = query_config(state, &query, task.job.collect, task.degraded);
    let key = ResultKey {
        graph_hash: entry.content_hash,
        pattern: canonical_pattern(&query.pattern),
        config_fp: config_fingerprint(&config),
    };
    // A resumed run continues mid-flight state; the cache only answers
    // whole queries, so resumes bypass it in both directions.
    if task.slices == 0 && !query.no_cache && task.resume.is_none() {
        if let Some(cached) = state.results.get(&key) {
            let mut outcome = QueryOutcome {
                count: cached.count,
                instances: cached.instances.clone(),
                cache_hit: true,
                plan_cache_hit: true,
                gpsis_generated: cached.gpsis_generated,
                pruned: cached.pruned,
                supersteps: cached.supersteps,
                init_vertex: cached.init_vertex,
                selection_rule: cached.selection_rule.clone(),
                wall_ms: task.admitted_at.elapsed().as_secs_f64() * 1e3,
                resumed: false,
                slices: 0,
                preemptions: 0,
                pages: 0,
            };
            if let Err(e) = stream_outcome_pages(state, task, &mut outcome) {
                return done(Err(e));
            }
            return done(Ok(outcome));
        }
    }
    let (plan, plan_cache_hit) = match state.plans.get_or_prepare(
        entry.content_hash,
        &query.pattern,
        &config,
        &entry.histogram,
    ) {
        Ok(p) => p,
        Err(e) => return done(Err(ServiceError::from(e))),
    };
    let index = config.use_edge_index.then(|| Arc::clone(&entry.index));
    let shared = PsglShared::from_parts(&entry.graph, Arc::clone(&entry.ordered), index, &plan);
    let request = RunRequest {
        start: match task.resume.take() {
            Some(cp) => Start::Checkpoint(*cp),
            None => Start::Init,
        },
        hooks: run_hooks(state, task.degraded),
        stop: Stop { cancel: Some(&task.job.token), checkpoint: query.checkpoint, slice },
        ..Default::default()
    };
    let end = run(&shared, &config, request);
    task.slices += 1;
    state.stats.slices.inc();
    state.tenants.update(&task.tenant, |a| a.slices += 1);
    match end {
        Err(e) => {
            // A tripped Gpsi budget is the paper's simulated OOM. With a
            // spill tier configured the server serves it instead of
            // bouncing it: restart the query from scratch as a degraded
            // memory-bounded run, budget lifted, frontier on disk.
            // (A run that already streamed pages cannot restart — the
            // client would see the early pages twice.)
            if matches!(e, PsglError::OutOfMemory { .. })
                && !task.degraded
                && task.streamed == 0
                && state.defaults.spill.is_some()
            {
                task.degraded = true;
                task.resume = None;
                task.last_superstep = 0;
                task.partial_count = 0;
                state.stats.degraded_to_spill.inc();
                state.tenants.update(&task.tenant, |a| a.degraded_to_spill += 1);
                return SliceStep::Yield;
            }
            done(Err(ServiceError::from(e)))
        }
        Ok(ListingEnd::Complete(result)) => {
            state.stats.record_run(&result.stats);
            state.tenants.update(&task.tenant, |a| a.spill_bytes += result.stats.spill_bytes);
            let mut outcome = QueryOutcome {
                count: result.instance_count,
                instances: result.instances.map(Arc::new),
                cache_hit: false,
                plan_cache_hit,
                gpsis_generated: result.stats.expand.generated,
                pruned: result.stats.expand.total_pruned(),
                supersteps: result.stats.supersteps,
                init_vertex: result.init_vertex,
                selection_rule: format!("{:?}", result.selection_rule),
                wall_ms: task.admitted_at.elapsed().as_secs_f64() * 1e3,
                resumed: task.client_resumed,
                slices: task.slices,
                preemptions: task.preemptions,
                pages: task.pages,
            };
            // Only whole, never-drained runs are cacheable: a streamed
            // run that shipped pages mid-flight no longer holds the full
            // instance list, and a client-resumed run is a fragment.
            if !query.no_cache && !task.client_resumed && task.streamed == 0 {
                state.results.insert(
                    key,
                    CachedQuery {
                        count: outcome.count,
                        instances: outcome.instances.clone(),
                        gpsis_generated: outcome.gpsis_generated,
                        pruned: outcome.pruned,
                        supersteps: outcome.supersteps,
                        init_vertex: outcome.init_vertex,
                        selection_rule: outcome.selection_rule.clone(),
                        pattern: query.pattern.clone(),
                        config: config.clone(),
                    },
                );
            }
            observe_run(state, task, &result.stats, outcome.wall_ms);
            if let Err(e) = stream_outcome_pages(state, task, &mut outcome) {
                return done(Err(e));
            }
            SliceStep::Done(Ok(outcome))
        }
        Ok(ListingEnd::Preempted { superstep, partial, mut checkpoint }) => {
            task.last_superstep = superstep;
            task.partial_count = partial.instance_count;
            task.preemptions += 1;
            state.stats.preemptions.inc();
            state.tenants.update(&task.tenant, |a| a.preemptions += 1);
            if task.job.stream.is_some() {
                let drained = checkpoint.drain_instances();
                if let Err(e) = emit_pages(state, task, &drained) {
                    return done(Err(e));
                }
            }
            task.resume = Some(checkpoint);
            SliceStep::Yield
        }
        Ok(ListingEnd::Cancelled(c)) => {
            // Partial engine work still happened; keep the server-wide
            // counters honest before reporting the cancellation. (The
            // partial stats are cumulative across this task's slices, so
            // they are recorded exactly once, here.)
            state.stats.record_run(&c.partial.stats);
            state.tenants.update(&task.tenant, |a| a.spill_bytes += c.partial.stats.spill_bytes);
            observe_run(
                state,
                task,
                &c.partial.stats,
                task.admitted_at.elapsed().as_secs_f64() * 1e3,
            );
            if matches!(c.reason, CancelReason::Disconnected) {
                state.tracer.event(
                    "client_disconnected",
                    &[
                        ("query_id", TraceValue::Str(task_query_id(task))),
                        ("tenant", TraceValue::Str(task.tenant.clone())),
                        ("superstep", TraceValue::U64(u64::from(c.superstep))),
                        ("partial_count", TraceValue::U64(c.partial.instance_count)),
                    ],
                );
            }
            let resume_token = c.checkpoint.as_ref().map(|cp| state.checkpoints.put(cp.to_bytes()));
            done(Err(ServiceError::Cancelled {
                reason: c.reason,
                superstep: c.superstep,
                partial_count: c.partial.instance_count,
                resume_token,
            }))
        }
    }
}

/// Streams a finished outcome's instances out as pages (no-op for
/// non-streamed jobs) and strips them from the reply — the done line
/// carries only the count.
fn stream_outcome_pages(
    state: &ServiceState,
    task: &mut Task,
    outcome: &mut QueryOutcome,
) -> Result<(), ServiceError> {
    if task.job.stream.is_none() {
        return Ok(());
    }
    if let Some(instances) = outcome.instances.take() {
        emit_pages(state, task, &instances)?;
    }
    outcome.pages = task.pages;
    Ok(())
}

/// Pushes `instances` through the task's page sink in bounded chunks.
/// Blocks with backpressure when the client reads slowly; aborts when
/// the client disconnects (channel closed or token cancelled).
fn emit_pages(
    state: &ServiceState,
    task: &mut Task,
    instances: &[Vec<VertexId>],
) -> Result<(), ServiceError> {
    let Some(sink) = &task.job.stream else { return Ok(()) };
    if instances.is_empty() {
        return Ok(());
    }
    let chunk = sink.chunk.max(1);
    let tx = sink.tx.clone();
    for block in instances.chunks(chunk) {
        let mut line = instances_line("page", task.pages, block);
        loop {
            match tx.try_send(line) {
                Ok(()) => break,
                Err(TrySendError::Full(l)) => {
                    if task.job.token.is_cancelled() {
                        return Err(stream_abort(state, task));
                    }
                    line = l;
                    std::thread::sleep(PAGE_BACKOFF);
                }
                Err(TrySendError::Disconnected(_)) => {
                    task.job.token.cancel(CancelReason::Disconnected);
                    return Err(stream_abort(state, task));
                }
            }
        }
        task.pages += 1;
        task.streamed += block.len() as u64;
        state.stats.pages_streamed.inc();
        state.tenants.update(&task.tenant, |a| a.pages += 1);
    }
    Ok(())
}

fn stream_abort(state: &ServiceState, task: &Task) -> ServiceError {
    let reason = task.job.token.reason().unwrap_or(CancelReason::Disconnected);
    if matches!(reason, CancelReason::Disconnected) {
        state.tracer.event(
            "client_disconnected_midstream",
            &[
                ("query_id", TraceValue::Str(task_query_id(task))),
                ("tenant", TraceValue::Str(task.tenant.clone())),
                ("pages", TraceValue::U64(task.pages)),
                ("streamed", TraceValue::U64(task.streamed)),
                ("superstep", TraceValue::U64(u64::from(task.last_superstep))),
            ],
        );
    }
    ServiceError::Cancelled {
        reason,
        superstep: task.last_superstep,
        partial_count: task.partial_count,
        resume_token: None,
    }
}

/// The wire query id, or `""` for anonymous queries (the slow-query log
/// and trace events still want the tenant in that case).
fn task_query_id(task: &Task) -> String {
    task.query.query_id.clone().unwrap_or_default()
}

/// Post-run observability: records the per-superstep timeline in the
/// slow-query log when the run crossed the threshold, and raises
/// spill-write degradations from anonymous counters to attributed trace
/// events (which query, which tenant) — the counter alone cannot answer
/// "whose spill writes failed".
fn observe_run(state: &ServiceState, task: &Task, stats: &psgl_core::RunStats, wall_ms: f64) {
    if stats.spill_write_failures > 0 {
        state.tracer.event(
            "query_spill_write_degraded",
            &[
                ("query_id", TraceValue::Str(task_query_id(task))),
                ("tenant", TraceValue::Str(task.tenant.clone())),
                ("failures", TraceValue::U64(stats.spill_write_failures)),
            ],
        );
    }
    state.slow_queries.maybe_record(SlowQueryEntry {
        query_id: task_query_id(task),
        tenant: task.tenant.clone(),
        pattern: canonical_pattern(&task.query.pattern),
        total_ms: wall_ms,
        timeline: stats.superstep_timeline(),
    });
}

/// Live-chunk cap for degraded runs when the server's defaults set a
/// spill tier but no explicit cap: tight enough that a giant frontier
/// lives mostly on disk instead of in the pool.
const DEGRADED_MAX_LIVE_CHUNKS: u64 = 8;

/// Materializes a query's engine configuration against server defaults.
/// A `degraded` run is one the scheduler chose to serve memory-bounded
/// instead of rejecting: its Gpsi budget (the simulated OOM) is lifted
/// because the spill tier, not the budget, now bounds memory.
fn query_config(
    state: &ServiceState,
    query: &QuerySpec,
    collect: bool,
    degraded: bool,
) -> PsglConfig {
    let config = PsglConfig {
        workers: query.workers.unwrap_or(state.defaults.workers).max(1),
        init_vertex: query.init_vertex,
        break_automorphisms: query.break_automorphisms,
        use_edge_index: query.use_index,
        collect_instances: collect,
        gpsi_budget: if degraded { None } else { query.budget.or(state.defaults.budget) },
        seed: query.seed.unwrap_or(state.defaults.seed),
        ..PsglConfig::default()
    };
    match query.strategy {
        Some(strategy) => PsglConfig { strategy, ..config },
        None => config,
    }
}

/// Runner hooks for a query run: threads the server's spill tier and
/// live-chunk cap through to the engine. Degraded runs get a tight cap
/// even when the defaults leave the pool unbounded, so the frontier of
/// a giant query spills instead of occupying the whole pool.
fn run_hooks(state: &ServiceState, degraded: bool) -> RunnerHooks<'_> {
    let mut hooks = RunnerHooks {
        tracer: Some(&state.tracer),
        spill: state.defaults.spill.clone(),
        max_live_chunks: state.defaults.max_live_chunks,
        chunk_capacity: state.defaults.chunk_capacity,
        ..RunnerHooks::default()
    };
    if degraded && state.defaults.spill.is_some() {
        hooks.max_live_chunks =
            Some(state.defaults.max_live_chunks.unwrap_or(DEGRADED_MAX_LIVE_CHUNKS));
    }
    hooks
}

/// Answers a query on the calling thread: the scheduler's own slice
/// path, one unbounded slice at a time, with no queue in front of it.
/// For embedders and tests.
pub fn execute_query(
    state: &ServiceState,
    query: &QuerySpec,
    collect: bool,
    token: &CancelToken,
) -> Result<QueryOutcome, ServiceError> {
    // The outcome is returned, not sent; nothing reads the job's channel.
    let (reply, _) = std::sync::mpsc::channel();
    let job = Job { query: query.clone(), collect, token: token.clone(), reply, stream: None };
    let mut task = Task::new(job, None);
    loop {
        // A slice yields here only to restart as a degraded spilling run.
        if let SliceStep::Done(result) = run_slice(state, &mut task, None) {
            return result;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loader::GraphFormat;
    use crate::protocol::parse_pattern_spec;
    use crate::state::QueryDefaults;
    use std::sync::mpsc::channel;

    fn karate_state() -> Arc<ServiceState> {
        let state = Arc::new(ServiceState::new(64, 64, QueryDefaults::default()));
        state.catalog.load("karate", "karate-club", GraphFormat::Fixture).unwrap();
        state
    }

    fn triangle_query() -> QuerySpec {
        QuerySpec {
            graph: "karate".into(),
            pattern_spec: "triangle".into(),
            pattern: parse_pattern_spec("triangle").unwrap(),
            workers: Some(2),
            strategy: None,
            init_vertex: None,
            seed: None,
            budget: None,
            use_index: true,
            break_automorphisms: true,
            no_cache: false,
            timeout_ms: None,
            checkpoint: false,
            query_id: None,
            resume: None,
            tenant: None,
            weight: None,
            stream: false,
        }
    }

    fn job(
        query: QuerySpec,
        reply: std::sync::mpsc::Sender<Result<QueryOutcome, ServiceError>>,
    ) -> Job {
        Job { query, collect: false, token: CancelToken::new(), reply, stream: None }
    }

    #[test]
    fn execute_counts_karate_triangles_and_caches() {
        let state = karate_state();
        let first = execute_query(&state, &triangle_query(), false, &CancelToken::new()).unwrap();
        assert_eq!(first.count, 45);
        assert!(!first.cache_hit);
        assert!(first.gpsis_generated > 0);
        let second = execute_query(&state, &triangle_query(), false, &CancelToken::new()).unwrap();
        assert_eq!(second.count, 45);
        assert!(second.cache_hit);
        let (hits, misses, ..) = state.results.stats();
        assert_eq!((hits, misses), (1, 1));
        // Cache hit added no engine work.
        let snap = state.stats.snapshot();
        assert_eq!(snap.get("gpsis_generated").unwrap().as_u64().unwrap(), first.gpsis_generated);
    }

    #[test]
    fn cache_hit_survives_same_hash_reload() {
        let state = karate_state();
        let first = execute_query(&state, &triangle_query(), false, &CancelToken::new()).unwrap();
        assert!(!first.cache_hit);
        // Reloading identical content is a catalog no-op: no replaced hash
        // is reported, so the server-side invalidation (mirrored here)
        // never fires and the cached result stays warm.
        let outcome = state.catalog.load("karate", "karate-club", GraphFormat::Fixture).unwrap();
        assert!(outcome.same_content);
        if let Some(old_hash) = outcome.replaced_hash {
            state.results.invalidate_graph(old_hash);
        }
        let second = execute_query(&state, &triangle_query(), false, &CancelToken::new()).unwrap();
        assert!(second.cache_hit, "same-content reload must keep the cache warm");
        assert_eq!(state.results.stats().3, 0, "no invalidations on a no-op reload");
    }

    #[test]
    fn budget_and_missing_graph_map_to_protocol_errors() {
        let state = karate_state();
        let mut q = triangle_query();
        q.budget = Some(1);
        match execute_query(&state, &q, false, &CancelToken::new()) {
            Err(ServiceError::BudgetExceeded { budget: 1, .. }) => {}
            other => panic!("expected budget_exceeded, got {:?}", other.err().map(|e| e.code())),
        }
        q.graph = "missing".into();
        assert_eq!(
            execute_query(&state, &q, false, &CancelToken::new()).unwrap_err().code(),
            "not_found"
        );
    }

    #[test]
    fn sliced_budget_maps_to_the_same_protocol_error() {
        // The sliced path must report a non-checkpoint budget overrun as
        // budget_exceeded, exactly like the unsliced path — not as a
        // preemption artifact.
        let state = karate_state();
        let scheduler = Scheduler::start_with(Arc::clone(&state), 1, 4, 1);
        let mut q = triangle_query();
        q.budget = Some(1);
        let (tx, rx) = channel();
        scheduler.submit(job(q, tx)).unwrap();
        match rx.recv().unwrap() {
            Err(ServiceError::BudgetExceeded { budget: 1, .. }) => {}
            other => panic!("expected budget_exceeded, got {:?}", other.map(|o| o.count)),
        }
        scheduler.shutdown();
    }

    #[test]
    fn list_collects_instances_and_shares_them_via_cache() {
        let state = karate_state();
        let out = execute_query(&state, &triangle_query(), true, &CancelToken::new()).unwrap();
        let instances = out.instances.expect("collected");
        assert_eq!(instances.len(), 45);
        let again = execute_query(&state, &triangle_query(), true, &CancelToken::new()).unwrap();
        assert!(again.cache_hit);
        assert!(Arc::ptr_eq(&instances, again.instances.as_ref().unwrap()));
        // A count query has a different config fingerprint → separate entry.
        let count = execute_query(&state, &triangle_query(), false, &CancelToken::new()).unwrap();
        assert!(!count.cache_hit);
    }

    #[test]
    fn scheduler_runs_jobs_and_rejects_when_full() {
        let state = karate_state();
        // Real pool: jobs execute and reply.
        let scheduler = Scheduler::start(Arc::clone(&state), 2, 4);
        let (tx, rx) = channel();
        scheduler.submit(job(triangle_query(), tx)).unwrap();
        let outcome = rx.recv().unwrap().unwrap();
        assert_eq!(outcome.count, 45);
        assert!(outcome.slices >= 1);
        scheduler.shutdown();
        assert_eq!(
            scheduler.submit(job(triangle_query(), channel().0)).unwrap_err().code(),
            "shutting_down"
        );

        // Zero workers: the queue fills deterministically, then rejects.
        let stalled = Scheduler::start(Arc::clone(&state), 0, 2);
        for _ in 0..2 {
            stalled.submit(job(triangle_query(), channel().0)).unwrap();
        }
        let err = stalled.submit(job(triangle_query(), channel().0)).unwrap_err();
        assert_eq!(err.code(), "overloaded");
        assert!(matches!(err, ServiceError::Overloaded { queue_cap: 2 }));
        // The default tenant saw two admissions and one rejection.
        let account = state.tenants.get(DEFAULT_TENANT).unwrap();
        assert_eq!(account.rejected, 1);
        assert!(account.admitted >= 2);
        stalled.shutdown();
    }

    #[test]
    fn pre_cancelled_jobs_are_skipped_without_engine_work() {
        let state = karate_state();
        let scheduler = Scheduler::start(Arc::clone(&state), 1, 4);
        let token = CancelToken::new();
        token.cancel(CancelReason::Disconnected);
        let (tx, rx) = channel();
        scheduler
            .submit(Job { query: triangle_query(), collect: false, token, reply: tx, stream: None })
            .unwrap();
        match rx.recv().unwrap() {
            Err(ServiceError::Cancelled { reason, partial_count: 0, .. }) => {
                assert_eq!(reason, CancelReason::Disconnected);
            }
            other => panic!("expected cancelled, got {:?}", other.map(|o| o.count)),
        }
        // No engine work ran for the skipped job.
        assert_eq!(state.stats.gpsis_generated.get(), 0);
        scheduler.shutdown();
    }

    #[test]
    fn deadline_with_checkpoint_suspends_and_resumes_through_the_store() {
        let state = karate_state();
        // An already-expired deadline plus checkpointing: the run stops at
        // the first barrier with in-flight work and leaves a resume token.
        let expired = CancelToken::with_timeout(std::time::Duration::from_millis(0));
        let mut q = triangle_query();
        q.checkpoint = true;
        q.no_cache = true;
        let err = execute_query(&state, &q, false, &expired).unwrap_err();
        let (superstep, token) = match err {
            ServiceError::Cancelled {
                reason: CancelReason::Deadline,
                superstep,
                resume_token: Some(t),
                ..
            } => (superstep, t),
            other => panic!("expected resumable deadline cancel, got {:?}", other.code()),
        };
        assert_eq!(state.checkpoints.len(), 1);

        // Resuming completes the query with the uninterrupted answer —
        // through the sliced scheduler, which is how the server resumes.
        let scheduler = Scheduler::start_with(Arc::clone(&state), 1, 4, 1);
        let mut resume = triangle_query();
        resume.no_cache = true;
        resume.resume = Some(token.clone());
        let (tx, rx) = channel();
        scheduler.submit(job(resume, tx)).unwrap();
        let out = rx.recv().unwrap().unwrap();
        assert_eq!(out.count, 45);
        assert!(out.resumed);
        assert!(out.supersteps as u64 >= u64::from(superstep));
        assert!(state.checkpoints.is_empty(), "resume tokens are single-use");

        // Replaying the token fails cleanly.
        let mut replay = triangle_query();
        replay.resume = Some(token);
        let (tx, rx) = channel();
        scheduler.submit(job(replay, tx)).unwrap();
        assert_eq!(rx.recv().unwrap().unwrap_err().code(), "bad_request");
        scheduler.shutdown();
    }

    #[test]
    fn sliced_runs_preempt_and_still_match_the_unsliced_answer() {
        let state = karate_state();
        // One-superstep slices force several preemptions per query; the
        // final count must equal the unsliced run's.
        let scheduler = Scheduler::start_with(Arc::clone(&state), 1, 8, 1);
        let mut q = triangle_query();
        q.no_cache = true;
        let (tx, rx) = channel();
        scheduler.submit(job(q, tx)).unwrap();
        let out = rx.recv().unwrap().unwrap();
        assert_eq!(out.count, 45);
        assert!(out.preemptions >= 1, "one-superstep slices must preempt: {out:?}");
        assert_eq!(out.slices, out.preemptions + 1);
        assert_eq!(
            state.stats.preemptions.get(),
            out.preemptions,
            "server-wide preemption counter tracks the run"
        );
        let account = state.tenants.get(DEFAULT_TENANT).unwrap();
        assert_eq!(account.slices, out.slices);
        assert_eq!(account.preemptions, out.preemptions);
        assert!(account.vtime > 0);
        scheduler.shutdown();
    }
}
