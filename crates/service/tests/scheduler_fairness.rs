//! Conformance suite for the preemptive weighted-fair scheduler:
//! no starvation, weighted slice shares under saturation, deadline
//! boost, and preempt/resume result parity.
//!
//! All tests drive the [`Scheduler`] directly (no TCP) on a single
//! worker with one-superstep slices, so dispatch order is governed by
//! the run queue's virtual-time math rather than thread timing.

use psgl_core::{CancelReason, CancelToken};
use psgl_service::{
    execute_query, GraphFormat, Job, Json, QueryDefaults, QuerySpec, Scheduler, ServiceState,
    StreamSink, {parse_pattern_spec, ServiceError},
};
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::time::Duration;

fn karate_state() -> Arc<ServiceState> {
    let state = Arc::new(ServiceState::new(64, 64, QueryDefaults::default()));
    state.catalog.load("karate", "karate-club", GraphFormat::Fixture).unwrap();
    state
}

fn query(pattern: &str, tenant: &str, weight: u64) -> QuerySpec {
    QuerySpec {
        graph: "karate".into(),
        pattern_spec: pattern.into(),
        pattern: parse_pattern_spec(pattern).unwrap(),
        workers: Some(2),
        strategy: None,
        init_vertex: None,
        seed: None,
        budget: None,
        use_index: true,
        break_automorphisms: true,
        no_cache: true, // every query must actually run slices
        timeout_ms: None,
        checkpoint: false,
        query_id: None,
        resume: None,
        tenant: Some(tenant.into()),
        weight: Some(weight),
        stream: false,
    }
}

fn submit(
    scheduler: &Scheduler,
    query: QuerySpec,
    collect: bool,
) -> Receiver<Result<psgl_service::QueryOutcome, ServiceError>> {
    let (tx, rx) = channel();
    scheduler
        .submit(Job { query, collect, token: CancelToken::new(), reply: tx, stream: None })
        .expect("admission");
    rx
}

const RECV: Duration = Duration::from_secs(120);

/// Under saturation (one worker, one-superstep slices), a weight-2
/// tenant must receive at least 1.5x the slices of a weight-1 tenant by
/// the time the weighted tenant's queries finish — and the weight-1
/// tenant must still complete everything afterwards (no starvation).
#[test]
fn weighted_tenant_gets_its_share_and_nobody_starves() {
    let state = karate_state();
    let reference =
        execute_query(&state, &query("square", "ref", 1), false, &CancelToken::new()).unwrap();
    let scheduler = Scheduler::start_with(Arc::clone(&state), 1, 64, 1);

    // Interleaved submission: 6 queries each for the weight-2 tenant "a"
    // and the weight-1 tenant "b". Identical work per query.
    let mut a_replies = Vec::new();
    let mut b_replies = Vec::new();
    for _ in 0..6 {
        a_replies.push(submit(&scheduler, query("square", "a", 2), false));
        b_replies.push(submit(&scheduler, query("square", "b", 1), false));
    }

    // Wait for all of a's queries; every one returns the exact answer.
    for rx in &a_replies {
        let out = rx.recv_timeout(RECV).expect("a reply").expect("a outcome");
        assert_eq!(out.count, reference.count);
    }
    let a = state.tenants.get("a").expect("tenant a account");
    let b = state.tenants.get("b").expect("tenant b account");
    assert_eq!(a.finished, 6, "all weighted queries completed");
    assert!(
        a.slices as f64 >= 1.5 * b.slices.max(1) as f64,
        "weight-2 tenant must out-schedule weight-1 at least 1.5x under saturation \
         (a: {} slices, b: {} slices)",
        a.slices,
        b.slices,
    );

    // No starvation: the light tenant's queries all complete too, with
    // the same exact answer.
    for rx in &b_replies {
        let out = rx.recv_timeout(RECV).expect("b reply").expect("b outcome");
        assert_eq!(out.count, reference.count);
    }
    let b = state.tenants.get("b").expect("tenant b account");
    assert_eq!(b.finished, 6);
    assert_eq!(b.active, 0);
    scheduler.shutdown();
}

/// A query with a deadline enters the EDF class and overtakes the
/// backlog of weightless scans: its (already expired) deadline resolves
/// to a prompt `cancelled` while most of the backlog is still queued.
#[test]
fn deadline_queries_overtake_the_scan_backlog() {
    let state = karate_state();
    let scheduler = Scheduler::start_with(Arc::clone(&state), 1, 64, 1);
    let backlog: Vec<_> =
        (0..6).map(|_| submit(&scheduler, query("square", "scan", 1), false)).collect();

    let mut urgent = query("triangle", "urgent", 1);
    urgent.timeout_ms = Some(0); // already expired: must cancel, never queue
                                 // The server derives the wall-clock token from timeout_ms; mirror it.
    let token = CancelToken::with_timeout(Duration::from_millis(0));
    let (tx, urgent_rx) = channel();
    scheduler
        .submit(Job { query: urgent, collect: false, token, reply: tx, stream: None })
        .expect("admission");
    match urgent_rx.recv_timeout(RECV).expect("urgent reply") {
        Err(ServiceError::Cancelled { reason: CancelReason::Deadline, .. }) => {}
        other => panic!("expected deadline cancel, got {:?}", other.map(|o| o.count)),
    }
    // The urgent query jumped the line: at most one backlog scan (the one
    // holding the worker when it was admitted) can have finished by now.
    let mut done_scans = 0;
    let mut pending = Vec::new();
    for rx in backlog {
        match rx.try_recv() {
            Ok(_) => done_scans += 1,
            Err(_) => pending.push(rx),
        }
    }
    // (<= 2 leaves room for the scan holding the worker at admission
    // plus one more finishing in the race window after the reply.)
    assert!(
        done_scans <= 2,
        "urgent query should beat the backlog, {done_scans} scans finished first"
    );
    // And the boost starves nobody: every scan still completes.
    for rx in pending {
        rx.recv_timeout(RECV).expect("scan starved").expect("scan outcome");
    }
    scheduler.shutdown();
}

/// Preempt/resume parity: a list query forced through one-superstep
/// slices (several preemptions) returns the bit-identical instance
/// multiset of an unpreempted run.
#[test]
fn preempted_list_results_are_bit_identical_to_unpreempted() {
    let state = karate_state();
    let reference =
        execute_query(&state, &query("square", "ref", 1), true, &CancelToken::new()).unwrap();
    let expected = reference.instances.expect("collected reference");

    let scheduler = Scheduler::start_with(Arc::clone(&state), 1, 8, 1);
    let rx = submit(&scheduler, query("square", "sliced", 1), true);
    let out = rx.recv_timeout(RECV).expect("reply").expect("outcome");
    assert!(out.preemptions >= 1, "one-superstep slices must preempt: {out:?}");
    assert_eq!(out.count, reference.count);
    assert_eq!(
        out.instances.as_deref().map(Vec::as_slice),
        Some(expected.as_slice()),
        "preempted run must return the identical instance list"
    );
    scheduler.shutdown();
}

/// A client that hangs up mid-stream (drops the page receiver) makes
/// the worker abort the stream, report a disconnect cancel, and free the
/// tenant's accounting slot — no worker wedges on a dead channel.
#[test]
fn dropped_stream_receiver_cancels_and_frees_the_tenant() {
    let state = karate_state();
    let scheduler = Scheduler::start(Arc::clone(&state), 1, 4);
    let mut q = query("triangle", "ghost", 1);
    q.stream = true;
    let (page_tx, page_rx) = std::sync::mpsc::sync_channel(1);
    let (tx, rx) = channel();
    scheduler
        .submit(Job {
            query: q,
            collect: true,
            token: CancelToken::new(),
            reply: tx,
            stream: Some(StreamSink { tx: page_tx, chunk: 1 }),
        })
        .unwrap();
    // Read two pages, then vanish: the worker's next page send hits a
    // closed channel.
    let first = page_rx.recv_timeout(RECV).expect("first page");
    let first = Json::parse(std::str::from_utf8(&first).unwrap()).expect("a page is one JSON line");
    assert_eq!(first.get("page").unwrap().as_u64(), Some(0));
    assert_eq!(first.get("instances").unwrap().as_arr().unwrap().len(), 1);
    let _second = page_rx.recv_timeout(RECV).expect("second page");
    drop(page_rx);
    match rx.recv_timeout(RECV).expect("reply") {
        Err(ServiceError::Cancelled {
            reason: CancelReason::Disconnected,
            resume_token: None,
            ..
        }) => {}
        other => panic!("expected disconnect cancel, got {:?}", other.map(|o| o.count)),
    }
    let ghost = state.tenants.get("ghost").expect("tenant account");
    assert_eq!(ghost.active, 0, "disconnect must free the tenant's active slot");
    assert_eq!(ghost.finished, 1);
    assert!(ghost.pages >= 2);
    // The server stays healthy: the same tenant's next query runs fine.
    let rx = submit(&scheduler, query("triangle", "ghost", 1), false);
    assert_eq!(rx.recv_timeout(RECV).unwrap().unwrap().count, 45);
    scheduler.shutdown();
}

/// Backpressure: a reader that sleeps between pages stalls the producer
/// at the channel's capacity — never more than `CAP` rendered pages wait
/// for it — the channel closes only once the outcome is waiting, and the
/// pages still concatenate to the buffered answer.
#[test]
fn slow_stream_reader_stalls_the_producer_at_the_channel_capacity() {
    const CAP: usize = 3;
    let state = karate_state();
    let reference =
        execute_query(&state, &query("triangle", "ref", 1), true, &CancelToken::new()).unwrap();
    let expected = reference.instances.expect("collected reference");

    let scheduler = Scheduler::start(Arc::clone(&state), 1, 4);
    let mut q = query("triangle", "slow", 1);
    q.stream = true;
    let (page_tx, page_rx) = std::sync::mpsc::sync_channel(CAP);
    let (tx, rx) = channel();
    scheduler
        .submit(Job {
            query: q,
            collect: true,
            token: CancelToken::new(),
            reply: tx,
            stream: Some(StreamSink { tx: page_tx, chunk: 1 }),
        })
        .unwrap();
    // With nobody reading, the producer fills the channel and stops there.
    let produced = || state.tenants.get("slow").map_or(0, |account| account.pages);
    let deadline = std::time::Instant::now() + RECV;
    while produced() < CAP as u64 {
        assert!(std::time::Instant::now() < deadline, "the producer never filled the channel");
        std::thread::yield_now();
    }
    let mut streamed: Vec<Vec<u32>> = Vec::new();
    // The loop ends when the worker drops its sink, i.e. after the reply.
    for (read, line) in page_rx.iter().enumerate() {
        // `pages` counts pages the worker has put into the channel: the
        // ones read so far (this one included) plus at most CAP waiting.
        let produced = produced();
        assert!(produced <= (read + 1 + CAP) as u64, "{produced} produced after {read} reads");
        let page = Json::parse(std::str::from_utf8(&line).unwrap()).expect("one JSON line");
        assert_eq!(page.get("page").and_then(Json::as_u64), Some(read as u64));
        for instance in page.get("instances").and_then(Json::as_arr).unwrap() {
            let vertex = |v: &Json| v.as_u64().unwrap() as u32;
            streamed.push(instance.as_arr().unwrap().iter().map(vertex).collect());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let out = rx.try_recv().expect("the outcome is sent before the page channel closes").unwrap();
    assert_eq!((out.count, out.pages), (45, 45));
    assert_eq!(streamed, *expected, "pages must concatenate to the buffered list");
    scheduler.shutdown();
}
