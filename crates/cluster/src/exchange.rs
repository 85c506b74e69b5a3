//! The distributed exchange: ships remote outboxes over TCP, waits out
//! the coordinator barrier, and assembles the next superstep's inboxes
//! in the global source order the engine's determinism contract
//! requires.
//!
//! ## Data plane
//!
//! Each worker process listens on a data address; per attempt, every
//! pair of processes is connected by two TCP streams (one per
//! direction). A connection opens with a [`FrameKind::Hello`] naming
//! the sending proc and the attempt; after that it carries
//! [`FrameKind::Data`] frames (one per chunk, batched into a single
//! buffered write per peer per superstep) and one
//! [`FrameKind::EndOfStep`] per superstep. TCP's per-connection
//! ordering makes the end-of-step marker a valid completion signal, and
//! keeps each (source partition → destination partition) route's tuples
//! in send order, which is all inbox assembly needs.
//!
//! Received tuples live in an [`Inbound`] registry as raw vectors — no
//! pool chunks — so a crashing peer can never strand pooled chunks on
//! the receive side. They are re-chunked with
//! [`psgl_bsp::push_chunked`] during assembly; chunk boundaries are
//! irrelevant to determinism because a worker regroups its inbox by
//! vertex and delivery position, never by chunk.
//!
//! ## Barrier
//!
//! After shipping, the worker reports per-partition metrics to the
//! coordinator (`barrier`) and spins until it holds **both** the
//! coordinator's `proceed` for the superstep and every peer's
//! end-of-step marker — or an `abort`, which releases everything and
//! surfaces as [`ExchangeDirective::Abort`]. The `proceed` carries the
//! global in-flight count, so every engine replica makes identical
//! halt/budget decisions.

use crate::control::{StartOrder, WorkerMsg};
use crate::frame::{encode, Frame, FrameKind};
use psgl_bsp::{
    push_chunked, CancelReason, Chunk, ChunkPool, Exchange, ExchangeDirective, ExchangeError,
    ExchangeOutcome, NetSuperstepMetrics, SuperstepMetrics, WorkerOutbox,
};
use psgl_core::Gpsi;
use psgl_graph::VertexId;
use psgl_service::wire::write_json;
use std::collections::{HashMap, VecDeque};
use std::io::{BufWriter, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How long the barrier spin sleeps between checks. The barrier is
/// latency-sensitive (every superstep crosses it) but the sleep keeps
/// the spin from burning a core while peers compute.
const BARRIER_POLL: Duration = Duration::from_micros(200);

/// How long the barrier wait tolerates a dead data connection before
/// giving up without a coordinator abort (which normally arrives well
/// within a heartbeat timeout).
const PEER_FAILURE_GRACE: Duration = Duration::from_secs(10);

/// Worker-side view of the control connection: a shared writer (main
/// loop, ping thread, and shard sink all send on it) plus the state the
/// control-reader thread routes coordinator messages into.
pub struct ControlHandle {
    writer: Mutex<TcpStream>,
    /// Coordinator messages routed by the control-reader thread.
    pub shared: Mutex<ControlShared>,
}

/// Mailbox filled by the control-reader thread, polled by the worker
/// main loop and the exchange barrier wait.
#[derive(Default)]
pub struct ControlShared {
    /// Proc id from `welcome`.
    pub proc: Option<u32>,
    /// Pending `start` orders, oldest first.
    pub starts: VecDeque<StartOrder>,
    /// `(attempt, superstep)` → `(global in-flight, checkpoint?)`.
    pub proceeds: HashMap<(u32, u32), (u64, bool)>,
    /// Latest abort: `(attempt, reason)`. Stale attempts ignore it.
    pub abort: Option<(u32, CancelReason)>,
    /// Coordinator said `stop`.
    pub stopped: bool,
    /// Control connection died.
    pub dead: bool,
}

impl ControlHandle {
    /// Wraps a connected control stream.
    pub fn new(writer: TcpStream) -> ControlHandle {
        ControlHandle { writer: Mutex::new(writer), shared: Mutex::new(ControlShared::default()) }
    }

    /// Sends one control message (serialized under the writer lock so
    /// concurrent senders cannot interleave lines).
    pub fn send(&self, msg: &WorkerMsg) -> std::io::Result<()> {
        let mut writer = self.writer.lock().expect("control writer lock poisoned");
        write_json(&mut *writer, &msg.to_json())
    }

    /// Whether the worker should keep running at all.
    pub fn live(&self) -> bool {
        let shared = self.shared.lock().expect("control state lock poisoned");
        !shared.stopped && !shared.dead
    }
}

/// Raw tuples received from remote peers, keyed by superstep and
/// (source partition, destination partition) route. One per attempt.
#[derive(Default)]
pub struct Inbound {
    state: Mutex<InboundState>,
}

#[derive(Default)]
struct InboundState {
    steps: HashMap<u32, StepInbound>,
    /// Procs whose inbound connection closed or errored — their
    /// end-of-step markers will never arrive.
    failed_peers: Vec<u32>,
}

#[derive(Default)]
struct StepInbound {
    routes: HashMap<(u32, u32), Vec<(VertexId, Gpsi)>>,
    eos: Vec<u32>,
    frames: u64,
    wire_bytes: u64,
}

impl Inbound {
    /// Appends a data frame's tuples (called by reader threads).
    pub fn deliver(&self, frame: Frame<Gpsi>, wire_bytes: u64) {
        let mut state = self.state.lock().expect("inbound lock poisoned");
        let step = state.steps.entry(frame.superstep).or_default();
        step.frames += 1;
        step.wire_bytes += wire_bytes;
        step.routes.entry((frame.src, frame.dst)).or_default().extend(frame.tuples);
    }

    /// Marks `proc`'s traffic for `superstep` complete.
    pub fn end_of_step(&self, proc: u32, superstep: u32, wire_bytes: u64) {
        let mut state = self.state.lock().expect("inbound lock poisoned");
        let step = state.steps.entry(superstep).or_default();
        step.frames += 1;
        step.wire_bytes += wire_bytes;
        step.eos.push(proc);
    }

    /// Records that `proc`'s connection died (reader thread exit).
    pub fn peer_failed(&self, proc: u32) {
        let mut state = self.state.lock().expect("inbound lock poisoned");
        state.failed_peers.push(proc);
    }

    /// Whether every proc in `peers` has ended `superstep`, or
    /// `Err(proc)` if one of them can no longer do so. Completion wins
    /// over failure: a peer that delivered its end-of-step and *then*
    /// closed (it finished the attempt) is not a failure for this
    /// superstep.
    fn step_complete(&self, superstep: u32, peers: &[u32]) -> Result<bool, u32> {
        let state = self.state.lock().expect("inbound lock poisoned");
        if state.steps.get(&superstep).is_some_and(|s| peers.iter().all(|p| s.eos.contains(p))) {
            return Ok(true);
        }
        if let Some(&dead) = state.failed_peers.iter().find(|p| peers.contains(p)) {
            return Err(dead);
        }
        Ok(false)
    }

    /// Removes and returns a superstep's accumulated traffic.
    fn take_step(&self, superstep: u32) -> StepInbound {
        let mut state = self.state.lock().expect("inbound lock poisoned");
        state.steps.remove(&superstep).unwrap_or_default()
    }
}

/// Per-attempt [`Inbound`] instances, shared between the data-plane
/// accept/reader threads and the run loop.
#[derive(Default)]
pub struct InboundRegistry {
    attempts: Mutex<HashMap<u32, Arc<Inbound>>>,
}

impl InboundRegistry {
    /// The inbox for `attempt`, created on first touch.
    pub fn get(&self, attempt: u32) -> Arc<Inbound> {
        let mut attempts = self.attempts.lock().expect("registry lock poisoned");
        Arc::clone(attempts.entry(attempt).or_default())
    }

    /// Drops attempts older than `attempt` — their traffic can never be
    /// consumed once a newer attempt started.
    pub fn retire_before(&self, attempt: u32) {
        let mut attempts = self.attempts.lock().expect("registry lock poisoned");
        attempts.retain(|&a, _| a >= attempt);
    }
}

/// The remote [`Exchange`]: one per (worker process, attempt).
pub struct TcpExchange {
    num_partitions: usize,
    locals: Vec<usize>,
    /// Global partition id → owning proc.
    owners: Vec<u32>,
    my_proc: u32,
    /// Peer procs (everyone alive but me), ascending.
    peer_procs: Vec<u32>,
    /// Outbound data connections, one per peer proc.
    writers: HashMap<u32, Mutex<BufWriter<TcpStream>>>,
    inbound: Arc<Inbound>,
    control: Arc<ControlHandle>,
    attempt: u32,
    /// Chaos hook: fail the exchange entered at this superstep,
    /// simulating a worker crash (tests and the CLI's fault injection).
    die_at_superstep: Option<u32>,
    /// Per-superstep network counters, harvested into the `done`
    /// message after the run.
    net_history: Mutex<Vec<(u32, NetSuperstepMetrics)>>,
}

impl TcpExchange {
    /// Assembles the exchange from an accepted `start` order and the
    /// data-plane connections built for it.
    pub fn new(
        start: &StartOrder,
        my_proc: u32,
        writers: HashMap<u32, Mutex<BufWriter<TcpStream>>>,
        inbound: Arc<Inbound>,
        control: Arc<ControlHandle>,
        die_at_superstep: Option<u32>,
    ) -> TcpExchange {
        let peer_procs = start.peers.iter().map(|&(p, _)| p).filter(|&p| p != my_proc).collect();
        TcpExchange {
            num_partitions: start.owners.len(),
            locals: start.partitions.iter().map(|&p| p as usize).collect(),
            owners: start.owners.clone(),
            my_proc,
            peer_procs,
            writers,
            inbound,
            control,
            attempt: start.attempt,
            die_at_superstep,
            net_history: Mutex::new(Vec::new()),
        }
    }

    /// The per-superstep network counters recorded so far.
    pub fn net_history(&self) -> Vec<(u32, NetSuperstepMetrics)> {
        self.net_history.lock().expect("net history lock poisoned").clone()
    }

    /// Releases every chunk still held locally (used on every failure
    /// and abort path — the exchange contract requires a balanced pool
    /// before returning).
    fn release_held(
        pool: &ChunkPool<Gpsi>,
        local_routes: &mut HashMap<(u32, u32), Vec<Chunk<Gpsi>>>,
    ) {
        for (_, chunks) in local_routes.drain() {
            for chunk in chunks {
                pool.release(chunk);
            }
        }
    }

    /// What the barrier wait resolved to. A failed peer does not end
    /// the wait immediately: the coordinator detects the same death
    /// (heartbeat lapse or control EOF) and aborts the attempt, which
    /// is the clean exit — only if no abort arrives within
    /// [`PEER_FAILURE_GRACE`] does the exchange give up on its own.
    fn await_barrier(&self, superstep: u32) -> BarrierOutcome {
        let mut peer_failed_at: Option<(Instant, u32)> = None;
        loop {
            {
                let shared = self.control.shared.lock().expect("control state lock poisoned");
                if let Some((attempt, reason)) = shared.abort {
                    if attempt == self.attempt {
                        return BarrierOutcome::Abort(reason);
                    }
                }
                if shared.stopped || shared.dead {
                    return BarrierOutcome::Abort(CancelReason::Disconnected);
                }
                if let Some(&(in_flight, checkpoint)) =
                    shared.proceeds.get(&(self.attempt, superstep))
                {
                    drop(shared);
                    match self.inbound.step_complete(superstep, &self.peer_procs) {
                        Ok(true) => return BarrierOutcome::Proceed { in_flight, checkpoint },
                        Ok(false) => {}
                        Err(proc) => {
                            let (since, _) = *peer_failed_at.get_or_insert((Instant::now(), proc));
                            if since.elapsed() > PEER_FAILURE_GRACE {
                                return BarrierOutcome::PeerFailed(proc);
                            }
                        }
                    }
                }
            }
            std::thread::sleep(BARRIER_POLL);
        }
    }
}

enum BarrierOutcome {
    Proceed { in_flight: u64, checkpoint: bool },
    Abort(CancelReason),
    PeerFailed(u32),
}

impl Exchange<Gpsi> for TcpExchange {
    fn num_partitions(&self) -> usize {
        self.num_partitions
    }

    fn local_partitions(&self) -> Vec<usize> {
        self.locals.clone()
    }

    fn exchange(
        &self,
        superstep: u32,
        pool: &ChunkPool<Gpsi>,
        outs: Vec<WorkerOutbox<Gpsi>>,
        step: &SuperstepMetrics,
    ) -> Result<ExchangeOutcome<Gpsi>, ExchangeError> {
        let l = self.locals.len();
        if self.die_at_superstep == Some(superstep) {
            // Chaos: release everything (the exchange-error contract)
            // and fail; the worker harness turns this into a silent
            // process death for the coordinator to detect.
            for chunk in outs.into_iter().flatten().flat_map(|stream| stream.chunks) {
                pool.release(chunk);
            }
            return Err(ExchangeError {
                superstep,
                message: format!("chaos: worker killed at superstep {superstep}"),
            });
        }

        let mut net = NetSuperstepMetrics::default();
        // Split outboxes into locally-routed chunks (both partitions
        // hosted here — a partition's stream to itself, at
        // `outs[slot][partition]`, is one of them) and per-peer wire
        // buffers. Wire chunks are serialized and released immediately.
        let mut local_routes: HashMap<(u32, u32), Vec<Chunk<Gpsi>>> = HashMap::new();
        let mut wire_bufs: HashMap<u32, Vec<u8>> =
            self.peer_procs.iter().map(|&p| (p, Vec::new())).collect();
        for (slot, streams) in outs.into_iter().enumerate() {
            let src = self.locals[slot] as u32;
            for (dst, stream) in streams.into_iter().enumerate() {
                let chunks = stream.chunks;
                if chunks.is_empty() {
                    continue;
                }
                let owner = self.owners[dst];
                if owner == self.my_proc {
                    local_routes.insert((src, dst as u32), chunks);
                    continue;
                }
                let buf = wire_bufs.get_mut(&owner).expect("owner is a peer");
                for chunk in chunks {
                    let frame = Frame {
                        kind: FrameKind::Data,
                        superstep,
                        src,
                        dst: dst as u32,
                        tuples: chunk.clone(),
                    };
                    buf.extend_from_slice(&encode(&frame));
                    net.frames_sent += 1;
                    pool.release(chunk);
                }
            }
        }

        // One buffered write + end-of-step per peer.
        let mut fail: Option<String> = None;
        for &proc in &self.peer_procs {
            let mut buf = wire_bufs.remove(&proc).expect("buffer exists");
            buf.extend_from_slice(&encode(&Frame::<Gpsi>::signal(
                FrameKind::EndOfStep,
                superstep,
                self.my_proc,
            )));
            net.frames_sent += 1;
            net.wire_bytes_sent += buf.len() as u64;
            let mut writer = self.writers[&proc].lock().expect("data writer lock poisoned");
            if let Err(e) = writer.write_all(&buf).and_then(|()| writer.flush()) {
                fail = Some(format!("data send to proc {proc} failed: {e}"));
                break;
            }
        }
        if fail.is_none() {
            let barrier = WorkerMsg::Barrier {
                attempt: self.attempt,
                superstep,
                partitions: self.locals.iter().map(|&p| p as u32).collect(),
                metrics: step.workers.clone(),
            };
            if let Err(e) = self.control.send(&barrier) {
                fail = Some(format!("barrier report failed: {e}"));
            }
        }
        if let Some(message) = fail {
            Self::release_held(pool, &mut local_routes);
            return Err(ExchangeError { superstep, message });
        }

        let wait_start = Instant::now();
        let outcome = self.await_barrier(superstep);
        net.barrier_wait_nanos = wait_start.elapsed().as_nanos() as u64;
        match outcome {
            BarrierOutcome::Abort(reason) => {
                Self::release_held(pool, &mut local_routes);
                self.net_history.lock().expect("net history lock poisoned").push((superstep, net));
                Ok(ExchangeOutcome {
                    inboxes: (0..l).map(|_| Vec::new()).collect(),
                    in_flight: 0,
                    net,
                    directive: ExchangeDirective::Abort(reason),
                })
            }
            BarrierOutcome::PeerFailed(proc) => {
                Self::release_held(pool, &mut local_routes);
                Err(ExchangeError {
                    superstep,
                    message: format!("data connection from proc {proc} died"),
                })
            }
            BarrierOutcome::Proceed { in_flight, checkpoint } => {
                let mut wire = self.inbound.take_step(superstep);
                net.frames_received = wire.frames;
                net.wire_bytes_received = wire.wire_bytes;
                // Assemble each local inbox in global source-partition
                // order — the determinism contract. Self-sends slot in
                // at the destination's own source position, exactly as
                // the in-process exchange does.
                let mut inboxes: Vec<Vec<Chunk<Gpsi>>> = Vec::with_capacity(l);
                for &dst in &self.locals {
                    let dst = dst as u32;
                    let mut inbox: Vec<Chunk<Gpsi>> = Vec::new();
                    for src in 0..self.num_partitions as u32 {
                        if self.owners[src as usize] == self.my_proc {
                            if let Some(mut chunks) = local_routes.remove(&(src, dst)) {
                                inbox.append(&mut chunks);
                            }
                        } else if let Some(tuples) = wire.routes.remove(&(src, dst)) {
                            for (v, gpsi) in tuples {
                                push_chunked(pool, &mut inbox, v, gpsi);
                            }
                        }
                    }
                    inboxes.push(inbox);
                }
                debug_assert!(local_routes.is_empty(), "route to a non-local destination");
                debug_assert!(wire.routes.is_empty(), "wire tuples for a non-local destination");
                self.net_history.lock().expect("net history lock poisoned").push((superstep, net));
                let directive = if checkpoint {
                    ExchangeDirective::CheckpointAndContinue
                } else {
                    ExchangeDirective::Continue
                };
                Ok(ExchangeOutcome { inboxes, in_flight, net, directive })
            }
        }
    }
}

/// Parses a [`CancelReason`] from its `as_str` form (used for abort
/// messages on the wire). Unknown strings map to `Explicit`.
pub fn parse_cancel_reason(s: &str) -> CancelReason {
    match s {
        "disconnected" => CancelReason::Disconnected,
        "deadline" => CancelReason::Deadline,
        "budget" => CancelReason::Budget,
        _ => CancelReason::Explicit,
    }
}
