//! The coordinator: membership, barrier sequencing, and recovery.
//!
//! One coordinator process drives `N` worker processes through the BSP
//! superstep loop. Its event loop is single-threaded; per-connection
//! reader threads feed it a channel of [`Event`]s. The coordinator
//! never touches graph data — it merges per-partition metrics into the
//! global superstep record, broadcasts the global in-flight count that
//! keeps every worker's halt/budget decisions identical, stores
//! checkpoint shards, and orchestrates rollback when a worker dies.
//!
//! # Barrier protocol
//!
//! Workers compute superstep `s`, ship their remote outboxes over the
//! data plane, then send [`WorkerMsg::Barrier`] with their local
//! per-partition metrics. When every alive worker has reported `s`, the
//! coordinator assembles the `K`-wide global metric row (one slot per
//! partition, exactly as the single-process engine records it), sums
//! `messages_out` into the global in-flight count, and broadcasts
//! [`CoordMsg::Proceed`]. A `checkpoint` flag on the proceed tells
//! workers to capture their incoming frontier before computing `s + 1`.
//!
//! # Recovery
//!
//! A worker is declared dead on heartbeat lapse, control-connection
//! EOF, or a [`WorkerMsg::Error`] report. The coordinator then aborts
//! the current attempt on the survivors (the abort names the *old*
//! attempt id; stale messages from it are ignored thereafter), bumps
//! the attempt counter, truncates the global metric log back to the
//! newest complete checkpoint, reassigns the dead worker's partitions
//! round-robin over the survivors, and restarts from the checkpoint
//! shards. Execution is deterministic, so the re-run reproduces the
//! exact frontier the failed attempt would have carried.

use std::collections::{BTreeMap, HashMap};
use std::io::BufReader;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use psgl_bsp::{
    CarriedCounters, EngineMetrics, NetSuperstepMetrics, SuperstepMetrics, WorkerSuperstepMetrics,
};
use psgl_core::{assemble_run_stats, ExpandStats, RunStats};
use psgl_graph::VertexId;
use psgl_obs::Value as TraceValue;
use psgl_service::wire::{read_json, write_json, MAX_LINE_BYTES};
use psgl_service::Json;

use crate::control::{CoordMsg, JobSpec, WorkerMsg};
use crate::membership::Membership;

/// How long the event loop sleeps waiting for worker traffic before
/// re-checking heartbeats and the deadline.
const EVENT_POLL: Duration = Duration::from_millis(20);

/// Coordinator-side configuration for one cluster run.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Worker processes to wait for before starting.
    pub workers: usize,
    /// The job to execute.
    pub job: JobSpec,
    /// Silence threshold after which a worker is declared dead.
    pub heartbeat_timeout: Duration,
    /// How long to wait for all `workers` to join.
    pub join_timeout: Duration,
    /// Optional wall-clock budget for the whole run (all attempts).
    pub deadline: Option<Duration>,
    /// How long the coordinator keeps its listener open after the run
    /// finishes, so `metrics` scrapes can still reach it (CI smoke tests,
    /// operators collecting a final snapshot). Zero tears down at once.
    pub linger: Duration,
    /// Trace sink for membership and recovery events. Defaults to the
    /// process tracer; tests pass their own to assert event sequences.
    pub tracer: psgl_obs::Tracer,
}

impl ClusterConfig {
    /// A config with conventional timeouts: 3 s heartbeat, 30 s join,
    /// no deadline.
    pub fn new(workers: usize, job: JobSpec) -> ClusterConfig {
        ClusterConfig {
            workers,
            job,
            heartbeat_timeout: Duration::from_secs(3),
            join_timeout: Duration::from_secs(30),
            deadline: None,
            linger: Duration::ZERO,
            tracer: psgl_obs::tracer().clone(),
        }
    }
}

/// Coordinator counters, registered once in the process-global registry so
/// the `metrics` scrape (JSON or Prometheus) sees them.
struct CoordCounters {
    workers_joined: psgl_obs::Counter,
    workers_lost: psgl_obs::Counter,
    attempts: psgl_obs::Counter,
    supersteps: psgl_obs::Counter,
    instances: psgl_obs::Counter,
    messages: psgl_obs::Counter,
}

impl CoordCounters {
    fn new() -> CoordCounters {
        let r = psgl_obs::registry();
        CoordCounters {
            workers_joined: r
                .counter("psgl_cluster_workers_joined", "Worker processes that joined."),
            workers_lost: r
                .counter("psgl_cluster_workers_lost", "Workers declared dead and recovered from."),
            attempts: r.counter("psgl_cluster_attempts", "Execution attempts started."),
            supersteps: r
                .counter("psgl_cluster_supersteps", "Global superstep barriers completed."),
            instances: r.counter("psgl_cluster_instances", "Embeddings found by finished jobs."),
            messages: r.counter("psgl_cluster_messages", "Messages exchanged by finished jobs."),
        }
    }
}

/// What a completed cluster run produced.
#[derive(Clone, Debug)]
pub struct ClusterOutcome {
    /// Total embeddings found (sum of worker `ExpandStats::results`).
    pub instance_count: u64,
    /// Sorted instance tuples when the job collected them.
    pub instances: Option<Vec<Vec<VertexId>>>,
    /// Aggregated run statistics (global superstep metrics, merged
    /// network counters, merged expansion counters).
    pub stats: RunStats,
    /// Execution attempts (1 = no failures).
    pub attempts: u32,
    /// Workers that died and were recovered from.
    pub workers_lost: usize,
}

/// Why a cluster run failed.
#[derive(Debug)]
pub enum ClusterError {
    /// Socket-level failure on the coordinator itself.
    Io(String),
    /// `job.partitions` < worker count: some worker would host nothing.
    TooFewPartitions {
        /// Logical partitions in the job.
        partitions: usize,
        /// Worker processes configured.
        workers: usize,
    },
    /// Not all workers joined within the join timeout.
    JoinTimeout {
        /// Workers that did join.
        joined: usize,
        /// Workers expected.
        expected: usize,
    },
    /// Every worker died; nothing left to recover onto.
    AllWorkersLost {
        /// Last error a worker reported, if any did.
        last_error: Option<String>,
    },
    /// The run was cancelled (deadline).
    Cancelled {
        /// `CancelReason::as_str` form.
        reason: String,
    },
    /// A worker violated the control protocol.
    Protocol(String),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Io(m) => write!(f, "cluster i/o error: {m}"),
            ClusterError::TooFewPartitions { partitions, workers } => write!(
                f,
                "{partitions} partitions cannot cover {workers} workers; need partitions >= workers"
            ),
            ClusterError::JoinTimeout { joined, expected } => {
                write!(f, "only {joined}/{expected} workers joined before the timeout")
            }
            ClusterError::AllWorkersLost { last_error } => match last_error {
                Some(e) => write!(f, "all workers lost (last error: {e})"),
                None => write!(f, "all workers lost"),
            },
            ClusterError::Cancelled { reason } => write!(f, "cluster run cancelled: {reason}"),
            ClusterError::Protocol(m) => write!(f, "protocol violation: {m}"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// What a connection reader thread feeds the event loop.
enum Event {
    Joined { proc: u32, writer: TcpStream, data_addr: String },
    Msg { proc: u32, msg: WorkerMsg },
    Gone { proc: u32 },
}

/// Coordinator-side view of one worker process.
struct WorkerSlot {
    writer: TcpStream,
    data_addr: String,
    alive: bool,
}

impl WorkerSlot {
    fn send(&self, msg: &CoordMsg) {
        // Send failures surface as the worker's own death (its pings
        // stop flowing over the same broken socket), so they are not
        // handled here.
        let mut w = &self.writer;
        let _ = write_json(&mut w, &msg.to_json());
    }
}

/// The pieces of a worker's `done` report the aggregate needs.
struct DoneParts {
    expand: ExpandStats,
    instances: Option<Vec<Vec<VertexId>>>,
    net: Vec<(u32, NetSuperstepMetrics)>,
    pool_exhausted: u64,
    chunks_outstanding: i64,
}

/// Runs a cluster job to completion over an already-bound listener.
///
/// Blocks until the job finishes, fails, or the deadline expires. On
/// every exit path the coordinator sends [`CoordMsg::Stop`] to all
/// workers and shuts both directions of every control socket down, so
/// worker processes (and [`crate::local`] harness threads) always
/// unblock.
pub fn run_cluster(
    listener: TcpListener,
    cfg: ClusterConfig,
) -> Result<ClusterOutcome, ClusterError> {
    if cfg.job.partitions < cfg.workers {
        return Err(ClusterError::TooFewPartitions {
            partitions: cfg.job.partitions,
            workers: cfg.workers,
        });
    }
    let addr = listener.local_addr().map_err(|e| ClusterError::Io(e.to_string()))?;
    let (tx, rx) = mpsc::channel::<Event>();
    let shutdown = Arc::new(AtomicBool::new(false));
    let accept_handle = {
        let shutdown = Arc::clone(&shutdown);
        std::thread::spawn(move || accept_loop(listener, tx, shutdown))
    };

    let mut slots: BTreeMap<u32, WorkerSlot> = BTreeMap::new();
    let result = drive(&rx, &cfg, &mut slots);

    // Teardown, unconditionally: tell everyone to stop, then sever the
    // sockets so blocked reader threads on both sides wake up. With a
    // linger the listener stays up in between, so a scraper can still
    // collect the final counters of the finished run.
    for slot in slots.values() {
        slot.send(&CoordMsg::Stop);
        let _ = slot.writer.shutdown(Shutdown::Both);
    }
    if !cfg.linger.is_zero() {
        std::thread::sleep(cfg.linger);
    }
    shutdown.store(true, Ordering::SeqCst);
    let _ = TcpStream::connect(addr); // wake the accept loop
    let _ = accept_handle.join();
    result
}

fn accept_loop(listener: TcpListener, tx: Sender<Event>, shutdown: Arc<AtomicBool>) {
    let mut next_proc: u32 = 0;
    loop {
        let Ok((stream, _)) = listener.accept() else {
            if shutdown.load(Ordering::SeqCst) {
                return;
            }
            continue;
        };
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let proc = next_proc;
        next_proc += 1;
        let tx = tx.clone();
        std::thread::spawn(move || worker_reader(stream, proc, tx));
    }
}

/// Reads one worker's control connection. The first message must be a
/// `join` — unless it is a `metrics` scrape, which gets one reply line
/// (the coordinator's registry, JSON or Prometheus text) and hangs up.
fn worker_reader(stream: TcpStream, proc: u32, tx: Sender<Event>) {
    let _ = stream.set_nodelay(true);
    let Ok(writer) = stream.try_clone() else { return };
    let mut reader = BufReader::new(stream);
    match read_json(&mut reader, MAX_LINE_BYTES) {
        Ok(Some(json)) => {
            if json.get("verb").and_then(Json::as_str) == Some("metrics") {
                serve_metrics_scrape(&writer, &json);
                let _ = writer.shutdown(Shutdown::Both);
                return;
            }
            match WorkerMsg::from_json(&json) {
                Ok(WorkerMsg::Join { data_addr }) => {
                    if tx.send(Event::Joined { proc, writer, data_addr }).is_err() {
                        return;
                    }
                }
                _ => return,
            }
        }
        _ => return,
    }
    loop {
        match read_json(&mut reader, MAX_LINE_BYTES) {
            Ok(Some(json)) => {
                let Ok(msg) = WorkerMsg::from_json(&json) else {
                    let _ = tx.send(Event::Gone { proc });
                    return;
                };
                if tx.send(Event::Msg { proc, msg }).is_err() {
                    return;
                }
            }
            Ok(None) | Err(_) => {
                let _ = tx.send(Event::Gone { proc });
                return;
            }
        }
    }
}

/// Answers a one-shot `metrics` scrape on the control port with the
/// process-global registry, as structured JSON or (with
/// `"format":"prometheus"`) as exposition text in a `body` field.
fn serve_metrics_scrape(writer: &TcpStream, req: &Json) {
    let snapshot = psgl_obs::registry().snapshot();
    let mut w = writer;
    let reply = if req.get("format").and_then(Json::as_str) == Some("prometheus") {
        Json::obj([
            ("ok", Json::Bool(true)),
            ("format", Json::from("prometheus")),
            ("body", Json::from(psgl_obs::render_prometheus(&snapshot))),
        ])
    } else {
        let metrics =
            Json::parse(&psgl_obs::render_json(&snapshot)).unwrap_or(Json::Arr(Vec::new()));
        Json::obj([("ok", Json::Bool(true)), ("metrics", metrics)])
    };
    let _ = write_json(&mut w, &reply);
}

/// The event loop proper: join phase, then attempts until done.
fn drive(
    rx: &Receiver<Event>,
    cfg: &ClusterConfig,
    slots: &mut BTreeMap<u32, WorkerSlot>,
) -> Result<ClusterOutcome, ClusterError> {
    let mut membership = Membership::new(cfg.heartbeat_timeout);
    let counters = CoordCounters::new();
    let tracer = &cfg.tracer;

    // Join phase: wait for `workers` processes to register.
    let join_deadline = Instant::now() + cfg.join_timeout;
    while slots.len() < cfg.workers {
        let wait = join_deadline.saturating_duration_since(Instant::now()).min(EVENT_POLL);
        match rx.recv_timeout(wait) {
            Ok(Event::Joined { proc, writer, data_addr }) => {
                let slot = WorkerSlot { writer, data_addr, alive: true };
                slot.send(&CoordMsg::Welcome { proc });
                membership.touch(proc, Instant::now());
                slots.insert(proc, slot);
                counters.workers_joined.inc();
                tracer.event(
                    "cluster_member_joined",
                    &[
                        ("proc", TraceValue::U64(proc as u64)),
                        ("joined", TraceValue::U64(slots.len() as u64)),
                        ("expected", TraceValue::U64(cfg.workers as u64)),
                    ],
                );
            }
            Ok(Event::Msg { proc, .. }) => membership.touch(proc, Instant::now()),
            Ok(Event::Gone { proc }) => {
                slots.remove(&proc);
                membership.remove(proc);
            }
            Err(RecvTimeoutError::Timeout) => {
                if Instant::now() >= join_deadline {
                    return Err(ClusterError::JoinTimeout {
                        joined: slots.len(),
                        expected: cfg.workers,
                    });
                }
            }
            Err(RecvTimeoutError::Disconnected) => {
                return Err(ClusterError::Io("event channel closed".into()))
            }
        }
    }

    let started = Instant::now();
    let deadline = cfg.deadline.map(|d| started + d);
    let k = cfg.job.partitions;
    let mut attempt: u32 = 0;
    let mut workers_lost = 0usize;
    let mut last_error: Option<String> = None;
    // Global per-superstep metrics, exactly as a single-process run
    // would record them (K worker slots, one per partition).
    let mut global_steps: Vec<SuperstepMetrics> = Vec::new();
    // Checkpoint store: superstep -> partition -> shard bytes. A
    // checkpoint is usable once all K partitions are present. Shards
    // survive attempt bumps: execution is deterministic, so a stale
    // attempt's shard for (s, p) is byte-identical to a fresh one.
    let mut shards: HashMap<u32, HashMap<u32, Vec<u8>>> = HashMap::new();
    let mut latest_complete: Option<u32> = None;
    // Barrier accumulation for the current attempt:
    // superstep -> proc -> (partitions, metrics).
    type BarrierRow = (Vec<u32>, Vec<WorkerSuperstepMetrics>);
    let mut barriers: HashMap<u32, HashMap<u32, BarrierRow>> = HashMap::new();
    let mut dones: BTreeMap<u32, DoneParts> = BTreeMap::new();

    start_attempt(slots, cfg, attempt, 0, &shards, &counters);

    loop {
        let now = Instant::now();
        if deadline.is_some_and(|d| now >= d) {
            tracer.event(
                "cluster_attempt_aborted",
                &[
                    ("attempt", TraceValue::U64(attempt as u64)),
                    ("reason", TraceValue::Str("deadline".into())),
                ],
            );
            broadcast_alive(slots, &CoordMsg::Abort { attempt, reason: "deadline".into() });
            return Err(ClusterError::Cancelled { reason: "deadline".into() });
        }
        // Deaths observed this iteration; heartbeat expiries join below,
        // *after* the recv, so the early `continue` (message from an
        // already-dead proc) never drops a collected expiry.
        let mut dead: Vec<u32> = Vec::new();

        match rx.recv_timeout(EVENT_POLL) {
            Ok(Event::Msg { proc, msg }) => {
                if slots.get(&proc).is_none_or(|s| !s.alive) {
                    continue;
                }
                membership.touch(proc, Instant::now());
                match msg {
                    WorkerMsg::Ping | WorkerMsg::Join { .. } => {}
                    WorkerMsg::Barrier { attempt: a, superstep, partitions, metrics }
                        if a == attempt =>
                    {
                        barriers.entry(superstep).or_default().insert(proc, (partitions, metrics));
                        let alive = alive_count(slots);
                        if barriers.get(&superstep).map(HashMap::len) == Some(alive) {
                            let rows = barriers.remove(&superstep).unwrap_or_default();
                            if superstep as usize != global_steps.len() {
                                return Err(ClusterError::Protocol(format!(
                                    "barrier for superstep {superstep} but {} recorded",
                                    global_steps.len()
                                )));
                            }
                            let mut workers = vec![WorkerSuperstepMetrics::default(); k];
                            for (_, (parts, ms)) in rows {
                                for (p, m) in parts.into_iter().zip(ms) {
                                    workers[p as usize] = m;
                                }
                            }
                            let in_flight: u64 = workers.iter().map(|w| w.messages_out).sum();
                            global_steps.push(SuperstepMetrics {
                                workers,
                                net: NetSuperstepMetrics::default(),
                                spill_stall_nanos: 0,
                            });
                            counters.supersteps.inc();
                            let interval = cfg.job.checkpoint_interval;
                            let checkpoint =
                                interval > 0 && in_flight > 0 && (superstep + 1) % interval == 0;
                            broadcast_alive(
                                slots,
                                &CoordMsg::Proceed { attempt, superstep, in_flight, checkpoint },
                            );
                        }
                    }
                    WorkerMsg::Barrier { .. } => {} // stale attempt
                    WorkerMsg::Shard { attempt: a, superstep, partition, bytes }
                        if a == attempt =>
                    {
                        let entry = shards.entry(superstep).or_default();
                        entry.insert(partition, bytes);
                        if entry.len() == k {
                            latest_complete =
                                Some(latest_complete.map_or(superstep, |c| c.max(superstep)));
                        }
                    }
                    WorkerMsg::Shard { .. } => {} // stale attempt
                    WorkerMsg::Done {
                        attempt: a,
                        expand,
                        instances,
                        supersteps,
                        net,
                        pool_exhausted,
                        chunks_outstanding,
                    } if a == attempt => {
                        // After a recovery the worker's own metrics span
                        // only the supersteps of the final attempt, so
                        // the global log is an upper bound, not an
                        // equality.
                        if supersteps as usize > global_steps.len() {
                            return Err(ClusterError::Protocol(format!(
                                "worker {proc} ran {supersteps} supersteps, coordinator saw {}",
                                global_steps.len()
                            )));
                        }
                        dones.insert(
                            proc,
                            DoneParts {
                                expand,
                                instances,
                                net,
                                pool_exhausted,
                                chunks_outstanding,
                            },
                        );
                        if dones.len() == alive_count(slots) {
                            let dones = std::mem::take(&mut dones);
                            return Ok(aggregate(
                                cfg,
                                global_steps,
                                dones,
                                started,
                                attempt,
                                workers_lost,
                                &counters,
                            ));
                        }
                    }
                    WorkerMsg::Done { .. } => {} // stale attempt
                    WorkerMsg::Error { message } => {
                        tracer.event(
                            "cluster_worker_error",
                            &[
                                ("proc", TraceValue::U64(proc as u64)),
                                ("attempt", TraceValue::U64(attempt as u64)),
                                ("message", TraceValue::Str(message.clone())),
                            ],
                        );
                        last_error = Some(message);
                        dead.push(proc);
                    }
                }
            }
            Ok(Event::Gone { proc }) => {
                if slots.get(&proc).is_some_and(|s| s.alive) {
                    dead.push(proc);
                }
            }
            // A process connecting after the cluster is full is not a
            // member; never welcomed, it will read EOF at teardown.
            Ok(Event::Joined { .. }) => {}
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => {
                return Err(ClusterError::Io("event channel closed".into()))
            }
        }

        let expired: Vec<u32> = membership
            .expired(Instant::now())
            .into_iter()
            .filter(|p| slots.get(p).is_some_and(|s| s.alive))
            .collect();
        for &proc in &expired {
            // Heartbeat lapse: the socket is still up but the worker has
            // been silent past the timeout. Distinct from `Gone` so the
            // operator can tell a hung worker from a dead connection.
            tracer.event(
                "cluster_member_suspected",
                &[
                    ("proc", TraceValue::U64(proc as u64)),
                    ("attempt", TraceValue::U64(attempt as u64)),
                    ("timeout_ms", TraceValue::U64(cfg.heartbeat_timeout.as_millis() as u64)),
                ],
            );
        }
        dead.extend(expired);
        if !dead.is_empty() {
            dead.sort_unstable();
            dead.dedup();
            for proc in &dead {
                if let Some(slot) = slots.get_mut(proc) {
                    if !slot.alive {
                        continue;
                    }
                    slot.alive = false;
                    workers_lost += 1;
                    membership.remove(*proc);
                    let _ = slot.writer.shutdown(Shutdown::Both);
                    counters.workers_lost.inc();
                    tracer.event(
                        "cluster_member_dead",
                        &[
                            ("proc", TraceValue::U64(*proc as u64)),
                            ("attempt", TraceValue::U64(attempt as u64)),
                            ("alive", TraceValue::U64(alive_count(slots) as u64)),
                        ],
                    );
                }
            }
            // Snapshot the ring for post-mortems: the dump carries the
            // join / suspected / dead sequence that led here.
            let _ = tracer.recorder().dump_on_failure("cluster-worker-death");
            if alive_count(slots) == 0 {
                return Err(ClusterError::AllWorkersLost { last_error });
            }
            // Recovery: cancel the wounded attempt on the survivors,
            // roll back to the newest complete checkpoint, reassign.
            tracer.event(
                "cluster_attempt_aborted",
                &[
                    ("attempt", TraceValue::U64(attempt as u64)),
                    ("reason", TraceValue::Str("disconnected".into())),
                ],
            );
            broadcast_alive(slots, &CoordMsg::Abort { attempt, reason: "disconnected".into() });
            attempt += 1;
            let resume_superstep = latest_complete.unwrap_or(0);
            global_steps.truncate(resume_superstep as usize);
            barriers.clear();
            dones.clear();
            start_attempt(slots, cfg, attempt, resume_superstep, &shards, &counters);
        }
    }
}

fn alive_count(slots: &BTreeMap<u32, WorkerSlot>) -> usize {
    slots.values().filter(|s| s.alive).count()
}

fn broadcast_alive(slots: &BTreeMap<u32, WorkerSlot>, msg: &CoordMsg) {
    for slot in slots.values().filter(|s| s.alive) {
        slot.send(msg);
    }
}

/// Assigns partitions round-robin over the alive workers and sends each
/// its `start` order. Round-robin over `partition % alive` guarantees
/// every worker hosts at least one partition whenever `K >= alive`.
fn start_attempt(
    slots: &BTreeMap<u32, WorkerSlot>,
    cfg: &ClusterConfig,
    attempt: u32,
    resume_superstep: u32,
    shards: &HashMap<u32, HashMap<u32, Vec<u8>>>,
    counters: &CoordCounters,
) {
    let alive: Vec<u32> = slots.iter().filter(|(_, s)| s.alive).map(|(&p, _)| p).collect();
    let k = cfg.job.partitions;
    let owners: Vec<u32> = (0..k).map(|p| alive[p % alive.len()]).collect();
    counters.attempts.inc();
    if attempt > 0 {
        cfg.tracer.event(
            "cluster_partitions_reassigned",
            &[
                ("attempt", TraceValue::U64(attempt as u64)),
                ("alive", TraceValue::U64(alive.len() as u64)),
                ("partitions", TraceValue::U64(k as u64)),
                ("resume_superstep", TraceValue::U64(resume_superstep as u64)),
            ],
        );
    }
    cfg.tracer.event(
        "cluster_attempt_started",
        &[
            ("attempt", TraceValue::U64(attempt as u64)),
            ("alive", TraceValue::U64(alive.len() as u64)),
            ("resume_superstep", TraceValue::U64(resume_superstep as u64)),
        ],
    );
    let peers: Vec<(u32, String)> =
        alive.iter().map(|p| (*p, slots[p].data_addr.clone())).collect();
    let resume_set = if resume_superstep > 0 { shards.get(&resume_superstep) } else { None };
    for &w in &alive {
        let partitions: Vec<u32> = (0..k as u32).filter(|&p| owners[p as usize] == w).collect();
        let resume: Vec<Vec<u8>> = match resume_set {
            Some(set) => partitions.iter().filter_map(|p| set.get(p).cloned()).collect(),
            None => Vec::new(),
        };
        slots[&w].send(&CoordMsg::Start {
            attempt,
            job: cfg.job.clone(),
            partitions,
            owners: owners.clone(),
            peers: peers.clone(),
            resume,
        });
    }
}

/// Merges the per-worker `done` reports into the final outcome.
fn aggregate(
    cfg: &ClusterConfig,
    mut steps: Vec<SuperstepMetrics>,
    dones: BTreeMap<u32, DoneParts>,
    started: Instant,
    attempt: u32,
    workers_lost: usize,
    counters: &CoordCounters,
) -> ClusterOutcome {
    let mut expand = ExpandStats::default();
    let mut instances: Option<Vec<Vec<VertexId>>> =
        if cfg.job.collect_instances { Some(Vec::new()) } else { None };
    let mut pool_exhausted = 0u64;
    let mut chunks_outstanding = 0i64;
    for parts in dones.into_values() {
        expand.merge(&parts.expand);
        if let (Some(all), Some(mine)) = (instances.as_mut(), parts.instances) {
            all.extend(mine);
        }
        // Per-superstep network counters are merged into the global
        // record by superstep index. After a recovery the resumed-over
        // prefix keeps zero network counters: the attempt that paid for
        // those frames never reported (its `done` was never sent).
        for (s, net) in parts.net {
            if let Some(step) = steps.get_mut(s as usize) {
                step.net.merge(&net);
            }
        }
        pool_exhausted += parts.pool_exhausted;
        chunks_outstanding += parts.chunks_outstanding;
    }
    if let Some(all) = instances.as_mut() {
        all.sort_unstable();
    }
    counters.instances.add(expand.results);
    let messages: u64 = steps.iter().flat_map(|s| s.workers.iter()).map(|w| w.messages_out).sum();
    counters.messages.add(messages);
    cfg.tracer.event(
        "cluster_job_done",
        &[
            ("attempts", TraceValue::U64(attempt as u64 + 1)),
            ("workers_lost", TraceValue::U64(workers_lost as u64)),
            ("instances", TraceValue::U64(expand.results)),
            ("supersteps", TraceValue::U64(steps.len() as u64)),
        ],
    );
    let metrics = EngineMetrics {
        supersteps: steps,
        wall_time: started.elapsed(),
        chunks_outstanding,
        carried: CarriedCounters { pool_exhausted, ..Default::default() },
        ..EngineMetrics::default()
    };
    let stats = assemble_run_stats(expand, &metrics);
    ClusterOutcome {
        instance_count: expand.results,
        instances,
        stats,
        attempts: attempt + 1,
        workers_lost,
    }
}
