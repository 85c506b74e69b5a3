//! The worker process: joins a coordinator, hosts a slice of the
//! partitions, and runs the unchanged PSgL engine with a
//! [`TcpExchange`] plugged into the delivery seam.
//!
//! Thread layout per worker process:
//!
//! - **main loop** — waits for `start` orders, builds the per-attempt
//!   data mesh, runs `psgl_core::run` as a [`ClusterMember`], reports
//!   `done`.
//! - **control reader** — routes coordinator messages into
//!   [`ControlShared`]; a dead control connection ends the worker.
//! - **ping** — heartbeats every [`WorkerOptions::ping_interval`].
//! - **data accept + one reader per inbound connection** — append raw
//!   tuples into the attempt's [`Inbound`] registry entry.
//!
//! A worker survives recovery: when the coordinator aborts an attempt
//! and sends a new `start` with reassigned partitions and resume
//! shards, the main loop simply runs again. The shards are single-part
//! checkpoints; the worker joins them into one [`Checkpoint`] and the
//! engine restores it through [`Start::Checkpoint`], which rebuilds
//! distributor RNG streams and expansion counters exactly, so the
//! re-run is bit-identical to an uninterrupted one.

use crate::control::{CoordMsg, GraphSpec, StartOrder, WorkerMsg};
use crate::exchange::{parse_cancel_reason, ControlHandle, InboundRegistry, TcpExchange};
use crate::frame::{encode, read_frame, Frame, FrameKind};
use psgl_core::{
    run, Checkpoint, ClusterMember, Gpsi, ListingEnd, PsglShared, RunRequest, ShardSink, Start,
};
use psgl_graph::DataGraph;
use psgl_service::wire::{read_json, MAX_LINE_BYTES};
use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Worker tuning and fault-injection knobs.
#[derive(Clone, Debug)]
pub struct WorkerOptions {
    /// Chaos hook: crash (silently, as a real failure would) when the
    /// exchange for this superstep begins — first attempt only, so the
    /// recovered run completes.
    pub die_at_superstep: Option<u32>,
    /// Heartbeat interval.
    pub ping_interval: Duration,
}

impl Default for WorkerOptions {
    fn default() -> WorkerOptions {
        WorkerOptions { die_at_superstep: None, ping_interval: Duration::from_millis(100) }
    }
}

/// Connects to a coordinator and serves until told to stop (or until
/// the control connection dies).
pub fn run_worker(coordinator: &str, opts: WorkerOptions) -> Result<(), String> {
    let stream = TcpStream::connect(coordinator)
        .map_err(|e| format!("connect to coordinator {coordinator}: {e}"))?;
    run_worker_on(stream, opts)
}

fn run_worker_on(stream: TcpStream, opts: WorkerOptions) -> Result<(), String> {
    let _ = stream.set_nodelay(true);
    let control = Arc::new(ControlHandle::new(
        stream.try_clone().map_err(|e| format!("clone control stream: {e}"))?,
    ));
    let registry = Arc::new(InboundRegistry::default());

    // Data-plane listener; the accept thread is woken for shutdown by a
    // self-connection.
    let listener =
        TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind data listener: {e}"))?;
    let data_addr =
        listener.local_addr().map_err(|e| format!("data listener addr: {e}"))?.to_string();
    let accept_shutdown = Arc::new(AtomicBool::new(false));
    {
        let registry = Arc::clone(&registry);
        let shutdown = Arc::clone(&accept_shutdown);
        std::thread::spawn(move || data_accept_loop(listener, registry, shutdown));
    }
    {
        let control = Arc::clone(&control);
        std::thread::spawn(move || control_reader(stream, control));
    }
    control
        .send(&WorkerMsg::Join { data_addr: data_addr.clone() })
        .map_err(|e| format!("join failed: {e}"))?;
    {
        let control = Arc::clone(&control);
        let interval = opts.ping_interval;
        std::thread::spawn(move || loop {
            std::thread::sleep(interval);
            if !control.live() || control.send(&WorkerMsg::Ping).is_err() {
                let mut shared = control.shared.lock().expect("control state lock poisoned");
                shared.dead = true;
                return;
            }
        });
    }

    // Graph cache: attempts of the same job reload nothing.
    let mut graph_cache: Option<(String, DataGraph)> = None;
    loop {
        let order = {
            let mut shared = control.shared.lock().expect("control state lock poisoned");
            if shared.stopped || shared.dead {
                None
            } else {
                match shared.starts.pop_front() {
                    Some(order) => Some(order),
                    None => {
                        drop(shared);
                        std::thread::sleep(Duration::from_millis(1));
                        continue;
                    }
                }
            }
        };
        let Some(order) = order else { break };
        registry.retire_before(order.attempt);
        if let AttemptEnd::Crashed =
            run_attempt(&order, &control, &registry, &mut graph_cache, &opts)
        {
            break;
        }
    }

    // Shut down helper threads: the stopped flag ends the ping loop,
    // the self-connection wakes the accept loop.
    control.shared.lock().expect("control state lock poisoned").stopped = true;
    accept_shutdown.store(true, Ordering::SeqCst);
    let _ = TcpStream::connect(&data_addr);
    Ok(())
}

enum AttemptEnd {
    /// Wait for the next `start` (or stop).
    Continue,
    /// Chaos crash: exit the worker without a word, like a real death.
    Crashed,
}

fn run_attempt(
    order: &StartOrder,
    control: &Arc<ControlHandle>,
    registry: &Arc<InboundRegistry>,
    graph_cache: &mut Option<(String, DataGraph)>,
    opts: &WorkerOptions,
) -> AttemptEnd {
    let report = |message: String| {
        let _ = control.send(&WorkerMsg::Error { message });
        AttemptEnd::Continue
    };
    let my_proc = {
        let shared = control.shared.lock().expect("control state lock poisoned");
        match shared.proc {
            // The control channel is ordered, so `welcome` precedes any
            // `start`.
            Some(proc) => proc,
            None => return report("start arrived before welcome".into()),
        }
    };
    if graph_cache.as_ref().is_none_or(|(spec, _)| spec != &order.job.graph) {
        let spec = match GraphSpec::parse(&order.job.graph) {
            Ok(spec) => spec,
            Err(e) => return report(e),
        };
        let graph = match spec.load() {
            Ok(graph) => graph,
            Err(e) => return report(e),
        };
        *graph_cache = Some((order.job.graph.clone(), graph));
    }
    let graph = &graph_cache.as_ref().expect("cache just filled").1;
    let config = match order.job.config() {
        Ok(config) => config,
        Err(e) => return report(e),
    };
    let pattern = match psgl_service::parse_pattern_spec(&order.job.pattern) {
        Ok(pattern) => pattern,
        Err(e) => return report(e),
    };
    let shared = match PsglShared::prepare(graph, &pattern, &config) {
        Ok(shared) => shared,
        Err(e) => return report(e.to_string()),
    };

    // Build the attempt's data mesh: one outbound connection per peer,
    // opened with a hello naming this proc and the attempt.
    let inbound = registry.get(order.attempt);
    let mut writers = HashMap::new();
    for (proc, addr) in &order.peers {
        if *proc == my_proc {
            continue;
        }
        let stream = match TcpStream::connect(addr) {
            Ok(stream) => stream,
            Err(e) => return report(format!("data connect to proc {proc} at {addr}: {e}")),
        };
        let _ = stream.set_nodelay(true);
        let mut writer = BufWriter::new(stream);
        let hello = Frame::<Gpsi>::signal(FrameKind::Hello, order.attempt, my_proc);
        if let Err(e) = writer.write_all(&encode(&hello)).and_then(|()| writer.flush()) {
            return report(format!("data hello to proc {proc}: {e}"));
        }
        writers.insert(*proc, Mutex::new(writer));
    }

    let die = opts.die_at_superstep.filter(|_| order.attempt == 0);
    let exchange = TcpExchange::new(order, my_proc, writers, inbound, Arc::clone(control), die);
    let sink = WireShardSink { control: Arc::clone(control), attempt: order.attempt };
    let start = if order.resume.is_empty() {
        Start::Init
    } else {
        let shards: Result<Vec<_>, _> =
            order.resume.iter().map(|b| Checkpoint::from_bytes(b)).collect();
        match shards.and_then(Checkpoint::join) {
            Ok(cp) => Start::Checkpoint(cp),
            Err(e) => return report(format!("bad resume shards: {e}")),
        }
    };
    let member = ClusterMember {
        exchange: &exchange,
        shard_sink: (order.job.checkpoint_interval > 0).then_some(&sink as &dyn ShardSink),
    };
    match run(&shared, &config, RunRequest { start, cluster: Some(member), ..Default::default() }) {
        Ok(ListingEnd::Complete(result)) => {
            let done = WorkerMsg::Done {
                attempt: order.attempt,
                expand: result.stats.expand,
                instances: result.instances,
                supersteps: result.stats.supersteps as u32,
                net: exchange.net_history(),
                pool_exhausted: result.stats.pool_exhausted,
                chunks_outstanding: result.stats.chunks_outstanding,
            };
            let _ = control.send(&done);
            AttemptEnd::Continue
        }
        // An aborted attempt (recovery, deadline, explicit cancel)
        // reports nothing — the coordinator already knows why.
        Ok(ListingEnd::Cancelled(_) | ListingEnd::Preempted { .. }) => AttemptEnd::Continue,
        Err(e) => {
            let message = e.to_string();
            if die.is_some() && message.contains("chaos") {
                AttemptEnd::Crashed
            } else {
                report(message)
            }
        }
    }
}

/// Streams checkpoint shards to the coordinator as the engine captures
/// them at superstep boundaries.
struct WireShardSink {
    control: Arc<ControlHandle>,
    attempt: u32,
}

impl ShardSink for WireShardSink {
    fn capture(&self, shards: Vec<Checkpoint>) {
        for shard in shards {
            let msg = WorkerMsg::Shard {
                attempt: self.attempt,
                superstep: shard.superstep,
                partition: shard.parts[0].partition,
                bytes: shard.to_bytes(),
            };
            // A failed send surfaces soon enough as a dead control
            // connection; the checkpoint just ends up incomplete, which
            // recovery already tolerates.
            let _ = self.control.send(&msg);
        }
    }
}

fn control_reader(stream: TcpStream, control: Arc<ControlHandle>) {
    let mut reader = BufReader::new(stream);
    loop {
        match read_json(&mut reader, MAX_LINE_BYTES) {
            Ok(Some(json)) => {
                let Ok(msg) = CoordMsg::from_json(&json) else { continue };
                let mut shared = control.shared.lock().expect("control state lock poisoned");
                match msg {
                    CoordMsg::Welcome { proc } => shared.proc = Some(proc),
                    CoordMsg::Start { attempt, job, partitions, owners, peers, resume } => {
                        shared.starts.push_back(StartOrder {
                            attempt,
                            job,
                            partitions,
                            owners,
                            peers,
                            resume,
                        });
                    }
                    CoordMsg::Proceed { attempt, superstep, in_flight, checkpoint } => {
                        shared.proceeds.insert((attempt, superstep), (in_flight, checkpoint));
                    }
                    CoordMsg::Abort { attempt, reason } => {
                        shared.abort = Some((attempt, parse_cancel_reason(&reason)));
                    }
                    CoordMsg::Stop => {
                        shared.stopped = true;
                        return;
                    }
                }
            }
            Ok(None) | Err(_) => {
                control.shared.lock().expect("control state lock poisoned").dead = true;
                return;
            }
        }
    }
}

fn data_accept_loop(
    listener: TcpListener,
    registry: Arc<InboundRegistry>,
    shutdown: Arc<AtomicBool>,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let registry = Arc::clone(&registry);
                std::thread::spawn(move || data_reader(stream, registry));
            }
            Err(_) => {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
        }
    }
}

fn data_reader(stream: TcpStream, registry: Arc<InboundRegistry>) {
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream);
    let (proc, attempt) = match read_frame::<Gpsi>(&mut reader) {
        Ok(Some((frame, _))) if frame.kind == FrameKind::Hello => (frame.src, frame.superstep),
        _ => return,
    };
    let inbound = registry.get(attempt);
    loop {
        match read_frame::<Gpsi>(&mut reader) {
            Ok(Some((frame, size))) => match frame.kind {
                FrameKind::Data => inbound.deliver(frame, size),
                FrameKind::EndOfStep => inbound.end_of_step(frame.src, frame.superstep, size),
                FrameKind::Hello => {}
            },
            // Either a mid-attempt death or the peer finishing the
            // attempt; if the run still needs this peer, the exchange's
            // barrier wait reports it and the coordinator recovers.
            Ok(None) | Err(_) => {
                inbound.peer_failed(proc);
                return;
            }
        }
    }
}
