//! End-to-end protocol tests over a real loopback TCP socket.
//!
//! These are the acceptance checks for the service subsystem: the cache
//! demonstrably short-circuits engine work, a blown Gpsi budget degrades
//! to an error response while the server keeps serving, and a full
//! admission queue rejects with `overloaded` instead of blocking.

use psgl_service::json::Json;
use psgl_service::{serve, Client, ClientError, QueryDefaults, ServiceConfig, SpillConfig};

fn test_config() -> ServiceConfig {
    ServiceConfig {
        addr: "127.0.0.1:0".to_string(), // free port per test
        pool: 2,
        queue_cap: 8,
        result_cache_cap: 32,
        plan_cache_cap: 32,
        defaults: QueryDefaults::default(),
        list_chunk: 16,
        slice_supersteps: 2,
    }
}

fn count_request(extra: &[(&'static str, Json)]) -> Json {
    let mut fields = vec![
        ("verb", Json::from("count")),
        ("graph", Json::from("karate")),
        ("pattern", Json::from("triangle")),
    ];
    fields.extend(extra.iter().cloned());
    Json::obj(fields)
}

fn u64_field(obj: &Json, key: &str) -> u64 {
    obj.get(key).and_then(Json::as_u64).unwrap_or_else(|| panic!("missing {key}: {obj}"))
}

#[test]
fn loopback_count_cache_budget_and_stats() {
    let handle = serve(test_config()).expect("bind loopback");
    let mut client = Client::connect(handle.addr()).expect("connect");

    // health before any graph is loaded
    let health = client.health().unwrap();
    assert_eq!(u64_field(&health, "graphs"), 0);

    // load the karate-club fixture
    let loaded = client.load("karate", "karate-club", "fixture").unwrap();
    assert_eq!(u64_field(&loaded, "vertices"), 34);
    assert_eq!(u64_field(&loaded, "edges"), 78);

    // first count: a cache miss that runs the engine
    let first = client.count("karate", "triangle").unwrap();
    assert_eq!(u64_field(&first, "count"), 45);
    assert_eq!(first.get("cache_hit").and_then(Json::as_bool), Some(false));
    let gpsis = u64_field(&first, "gpsis_generated");
    assert!(gpsis > 0);

    let stats = client.stats().unwrap();
    let server = stats.get("server").unwrap();
    let gpsis_after_miss = u64_field(server, "gpsis_generated");
    assert_eq!(gpsis_after_miss, gpsis);

    // second count: served from the result cache, with NO new Gpsi work
    let second = client.count("karate", "triangle").unwrap();
    assert_eq!(u64_field(&second, "count"), 45);
    assert_eq!(second.get("cache_hit").and_then(Json::as_bool), Some(true));
    let stats = client.stats().unwrap();
    assert_eq!(u64_field(stats.get("server").unwrap(), "gpsis_generated"), gpsis_after_miss);
    let cache = stats.get("result_cache").unwrap();
    assert_eq!(u64_field(cache, "hits"), 1);
    assert_eq!(u64_field(cache, "misses"), 1);

    // a tiny Gpsi budget fails gracefully ...
    let err = client
        .request(&count_request(&[("budget", Json::from(1u64)), ("no_cache", Json::from(true))]))
        .unwrap_err();
    match &err {
        ClientError::Remote(remote) => assert_eq!(remote.code, "budget_exceeded"),
        other => panic!("expected remote budget error, got {other:?}"),
    }

    // ... and the server keeps serving afterwards, on the same connection
    let after = client.count("karate", "triangle").unwrap();
    assert_eq!(u64_field(&after, "count"), 45);
    let stats = client.stats().unwrap();
    assert_eq!(u64_field(stats.get("server").unwrap(), "rejected_budget"), 1);

    // reloading identical content is a no-op: cached results survive
    let reloaded = client.load("karate", "karate-club", "fixture").unwrap();
    assert_eq!(reloaded.get("same_content").and_then(Json::as_bool), Some(true));
    let fresh = client.count("karate", "triangle").unwrap();
    assert_eq!(fresh.get("cache_hit").and_then(Json::as_bool), Some(true));
    assert_eq!(u64_field(&fresh, "count"), 45);

    // unknown graph → not_found, still no connection loss
    let missing = client.count("nope", "triangle").unwrap_err();
    assert_eq!(missing.code(), Some("not_found"));
    client.shutdown().unwrap();
    handle.wait();
}

#[test]
fn loopback_list_streams_chunks() {
    let handle = serve(test_config()).expect("bind loopback");
    let mut client = Client::connect(handle.addr()).expect("connect");
    client.load("karate", "karate-club", "fixture").unwrap();

    let request = Json::obj([
        ("verb", Json::from("list")),
        ("graph", Json::from("karate")),
        ("pattern", Json::from("triangle")),
        ("chunk", Json::from(10u64)),
    ]);
    let mut streamed = 0usize;
    let mut chunks = 0usize;
    let done = client
        .list(&request, |chunk| {
            let instances = chunk.get("instances").and_then(Json::as_arr).unwrap();
            assert!(instances.len() <= 10);
            for inst in instances {
                assert_eq!(inst.as_arr().unwrap().len(), 3); // triangle tuples
            }
            streamed += instances.len();
            chunks += 1;
        })
        .unwrap();
    assert_eq!(u64_field(&done, "count"), 45);
    assert_eq!(streamed, 45);
    assert_eq!(chunks, 5); // ceil(45 / 10)
    handle.shutdown();
}

#[test]
fn loopback_full_queue_rejects_with_overloaded() {
    // No workers: admitted jobs never finish, so the queue state is
    // deterministic — one slot, occupied by the first query.
    let config = ServiceConfig { pool: 0, queue_cap: 1, ..test_config() };
    let handle = serve(config).expect("bind loopback");

    let mut loader = Client::connect(handle.addr()).unwrap();
    loader.load("karate", "karate-club", "fixture").unwrap();

    // First query occupies the only queue slot; its connection thread is
    // now blocked waiting for a worker that does not exist.
    let addr = handle.addr();
    let blocked = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        // Errors (shutting_down / EOF at server stop) are expected here.
        c.count("karate", "triangle")
    });

    // Give the first request time to be admitted.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let depth = u64_field(loader.stats().unwrap().get("server").unwrap(), "queue_depth");
        if depth == 1 {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "first query never queued");
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    // Second query: the queue is full → immediate overloaded, not a hang.
    let err = loader.count("karate", "triangle").unwrap_err();
    assert_eq!(err.code(), Some("overloaded"), "{err}");

    // The server is still responsive to non-query verbs.
    let stats = loader.stats().unwrap();
    assert_eq!(u64_field(stats.get("server").unwrap(), "rejected_overloaded"), 1);
    assert_eq!(u64_field(stats.get("server").unwrap(), "queue_depth"), 1);

    handle.shutdown();
    // The stranded query resolves with an error once the scheduler drops.
    assert!(blocked.join().unwrap().is_err());
}

#[test]
fn loopback_overloaded_connection_recovers_with_a_successful_query() {
    use std::time::{Duration, Instant};

    // One worker and one queue slot, on a graph heavy enough that a count
    // occupies the worker for a measurable while: query A runs, query B
    // fills the queue, query C must bounce with `overloaded` — and the
    // *same rejected connection* must then serve a query successfully once
    // the backlog drains. This is the backpressure contract: rejection is
    // per-request, never per-connection.
    let config = ServiceConfig { pool: 1, queue_cap: 1, ..test_config() };
    let handle = serve(config).expect("bind loopback");

    // A dense pseudo-random edge list (LCG-generated, deterministic) in a
    // temp file, loaded through the real edge-list path.
    let path = std::env::temp_dir().join(format!("psgl-loopback-{}.txt", std::process::id()));
    {
        use std::io::Write as _;
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path).unwrap());
        let (n, m) = (1_000u64, 30_000u64);
        let mut state = 0x5EEDu64;
        let mut step = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        let mut written = 0u64;
        while written < m {
            let (u, v) = (step(), step());
            if u != v {
                writeln!(f, "{u} {v}").unwrap();
                written += 1;
            }
        }
    }

    let mut client = Client::connect(handle.addr()).unwrap();
    client
        .request(&Json::obj([
            ("verb", Json::from("load")),
            ("name", Json::from("dense")),
            ("path", Json::from(path.to_str().unwrap())),
            ("format", Json::from("edge-list")),
        ]))
        .unwrap();

    // The query must occupy the worker long enough for the staged
    // saturation below to observe it; optimized builds need a heavier
    // pattern than debug builds to produce a comparable window.
    let slow_pattern = if cfg!(debug_assertions) { "square" } else { "house" };
    let slow_request = move || {
        Json::obj([
            ("verb", Json::from("count")),
            ("graph", Json::from("dense")),
            ("pattern", Json::from(slow_pattern)),
            ("no_cache", Json::from(true)), // every run does real engine work
        ])
    };
    let addr = handle.addr();
    let spawn_slow = || {
        let req = slow_request();
        std::thread::spawn(move || Client::connect(addr).unwrap().request(&req))
    };

    // Saturate in two staged steps — query A must be *running* before
    // query B is sent, otherwise B finds A still in the single queue slot
    // and bounces in A's place — then probe. If the backlog drains before
    // a step lands (fast machines, release builds), the step simply
    // observes finished threads or a successful probe, and we re-saturate
    // instead of flaking.
    let server_field = |client: &mut Client, key: &str| {
        let stats = client.stats().unwrap();
        u64_field(stats.get("server").unwrap(), key)
    };
    let mut background = Vec::new();
    let mut expected_count = None;
    let mut bounced = false;
    for _attempt in 0..5 {
        let deadline = Instant::now() + Duration::from_secs(30);
        let a = spawn_slow();
        while !a.is_finished() && server_field(&mut client, "running") == 0 {
            assert!(Instant::now() < deadline, "query A neither ran nor finished");
            std::thread::sleep(Duration::from_millis(1));
        }
        let b = spawn_slow();
        while !b.is_finished() && server_field(&mut client, "queue_depth") == 0 {
            assert!(Instant::now() < deadline, "query B neither queued nor finished");
            std::thread::sleep(Duration::from_millis(1));
        }
        background.push(a);
        background.push(b);
        match client.request(&slow_request()) {
            Err(err) => {
                assert_eq!(err.code(), Some("overloaded"), "{err}");
                bounced = true;
                break;
            }
            // Lost the race: the worker drained both queries first.
            Ok(response) => expected_count = Some(u64_field(&response, "count")),
        }
    }
    assert!(bounced, "never observed overloaded backpressure in 5 attempts");

    // The backlog completes normally despite the rejection in between.
    for t in background {
        let response = t.join().unwrap().unwrap();
        let count = u64_field(&response, "count");
        assert_eq!(*expected_count.get_or_insert(count), count);
    }

    // The rejected connection is intact: the very next query on it runs
    // the engine end-to-end and agrees with the backlog's answer.
    let after = client.request(&slow_request()).unwrap();
    assert_eq!(Some(u64_field(&after, "count")), expected_count);
    let stats = client.stats().unwrap();
    assert!(u64_field(stats.get("server").unwrap(), "rejected_overloaded") >= 1);
    assert_eq!(u64_field(stats.get("server").unwrap(), "queue_depth"), 0);

    std::fs::remove_file(&path).ok();
    handle.shutdown();
}

#[test]
fn loopback_tight_budget_rejects_each_time_but_never_poisons_the_connection() {
    // Degraded-path sibling of the budget check in the cache test above:
    // hammer the same connection with alternating doomed (budget 1) and
    // healthy requests and require strict interleaving to keep working —
    // a leaked scheduler slot or half-written response frame would break
    // the sequence within a few rounds.
    let handle = serve(test_config()).expect("bind loopback");
    let mut client = Client::connect(handle.addr()).expect("connect");
    client.load("karate", "karate-club", "fixture").unwrap();

    for round in 0..4 {
        let err = client
            .request(&count_request(&[
                ("budget", Json::from(1u64)),
                ("no_cache", Json::from(true)),
            ]))
            .unwrap_err();
        assert_eq!(err.code(), Some("budget_exceeded"), "round {round}: {err}");
        let ok = client.count("karate", "triangle").unwrap();
        assert_eq!(u64_field(&ok, "count"), 45, "round {round}");
    }
    let stats = client.stats().unwrap();
    assert_eq!(u64_field(stats.get("server").unwrap(), "rejected_budget"), 4);
    handle.shutdown();
}

#[test]
fn loopback_oversized_worker_count_is_a_bad_request_and_the_connection_keeps_serving() {
    // One request line asking for 100 000 workers would allocate a
    // 100 000-slot distributor per worker: it must be refused at parse
    // time, before anything is admitted.
    let handle = serve(test_config()).expect("bind loopback");
    let mut client = Client::connect(handle.addr()).expect("connect");
    client.load("karate", "karate-club", "fixture").unwrap();
    for workers in [100_000u64, 1025] {
        let err = client.request(&count_request(&[("workers", Json::from(workers))])).unwrap_err();
        assert_eq!(err.code(), Some("bad_request"), "{workers}: {err}");
        assert!(err.to_string().contains("1024"), "{workers}: {err}");
    }
    let ok = client.request(&count_request(&[("workers", Json::from(4u64))])).unwrap();
    assert_eq!(u64_field(&ok, "count"), 45);
    handle.shutdown();
}

/// Writes a dense pseudo-random edge list (LCG-generated, deterministic)
/// of `edges` edges over 1 000 vertices to a temp file and loads it as
/// `name`. Counting squares on it occupies a worker long enough to observe
/// cancellation races deterministically; the tests that need that count
/// to take at least 100 ms load theirs through [`load_timed_graph`].
fn load_dense_graph(client: &mut Client, name: &str, edges: u64) -> std::path::PathBuf {
    use std::io::Write as _;
    use std::sync::atomic::{AtomicUsize, Ordering};
    // Tests run in parallel in one process: a file per call, or one test
    // truncates the file another is loading.
    static SERIAL: AtomicUsize = AtomicUsize::new(0);
    let serial = SERIAL.fetch_add(1, Ordering::Relaxed);
    let path =
        std::env::temp_dir().join(format!("psgl-{name}-{}-{serial}.txt", std::process::id()));
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path).unwrap());
    let (n, m) = (1_000u64, edges);
    let mut state = 0x5EEDu64;
    let mut step = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) % n
    };
    let mut written = 0u64;
    while written < m {
        let (u, v) = (step(), step());
        if u != v {
            writeln!(f, "{u} {v}").unwrap();
            written += 1;
        }
    }
    drop(f);
    client
        .request(&Json::obj([
            ("verb", Json::from("load")),
            ("name", Json::from(name)),
            ("path", Json::from(path.to_str().unwrap())),
            ("format", Json::from("edge-list")),
        ]))
        .unwrap();
    path
}

/// Edges of the dense graph most cancellation tests count squares on.
const DENSE_EDGES: u64 = 30_000;

/// Loads a dense graph as `dense` whose uncached square count takes at
/// least 100 ms on this machine, for the tests that time cancellation
/// against that count: [`DENSE_EDGES`] edges, doubled after each count
/// that was faster, at most four times. Returns the graph's file, the
/// count's reply and how long it took.
fn load_timed_graph(client: &mut Client) -> (std::path::PathBuf, Json, u64) {
    let mut edges = DENSE_EDGES;
    loop {
        let path = load_dense_graph(client, "dense", edges);
        let start = std::time::Instant::now();
        let baseline = client.request(&slow_request("dense", &[])).unwrap();
        let baseline_ms = start.elapsed().as_millis() as u64;
        if baseline_ms >= 100 {
            return (path, baseline, baseline_ms);
        }
        std::fs::remove_file(&path).ok();
        assert!(
            edges < DENSE_EDGES << 4,
            "a square count on {edges} edges took {baseline_ms}ms, still under the 100 ms floor"
        );
        edges *= 2;
    }
}

fn slow_request(graph: &str, extra: &[(&'static str, Json)]) -> Json {
    let mut fields = vec![
        ("verb", Json::from("count")),
        ("graph", Json::from(graph)),
        ("pattern", Json::from("square")),
        ("no_cache", Json::from(true)),
    ];
    fields.extend(extra.iter().cloned());
    Json::obj(fields)
}

fn server_field(client: &mut Client, key: &str) -> u64 {
    let stats = client.stats().unwrap();
    u64_field(stats.get("server").unwrap(), key)
}

#[test]
fn loopback_timeout_cancels_within_twice_the_deadline() {
    use std::time::Instant;

    let handle = serve(test_config()).expect("bind loopback");
    let mut client = Client::connect(handle.addr()).expect("connect");
    // Baseline: how long the query takes uninterrupted on this machine.
    let (path, baseline, baseline_ms) = load_timed_graph(&mut client);
    assert!(baseline_ms >= 100, "dense square count too fast ({baseline_ms}ms) to time out");

    // A deadline at a quarter of the baseline must cancel, and the
    // response must land within twice the deadline (hard cancels poll
    // inside the superstep, so granularity is a message batch, not a
    // superstep).
    let timeout_ms = (baseline_ms / 4).max(50);
    let start = Instant::now();
    let err = client
        .request(&slow_request("dense", &[("timeout_ms", Json::from(timeout_ms))]))
        .unwrap_err();
    let elapsed_ms = start.elapsed().as_millis() as u64;
    assert_eq!(err.code(), Some("cancelled"), "{err}");
    match &err {
        ClientError::Remote(remote) => {
            assert_eq!(remote.details.get("reason").and_then(Json::as_str), Some("deadline"));
            assert!(remote.details.get("resume_token").is_none(), "hard cancel has no token");
        }
        other => panic!("expected remote error, got {other:?}"),
    }
    assert!(
        elapsed_ms <= 2 * timeout_ms,
        "cancelled response took {elapsed_ms}ms against a {timeout_ms}ms deadline"
    );

    // The connection and server both keep working afterwards.
    let after = client.request(&slow_request("dense", &[])).unwrap();
    assert_eq!(u64_field(&after, "count"), u64_field(&baseline, "count"));
    assert_eq!(server_field(&mut client, "cancelled"), 1);

    std::fs::remove_file(&path).ok();
    handle.shutdown();
}

#[test]
fn loopback_budget_checkpoint_suspends_and_resume_token_completes() {
    let handle = serve(test_config()).expect("bind loopback");
    let mut client = Client::connect(handle.addr()).expect("connect");
    client.load("karate", "karate-club", "fixture").unwrap();
    let reference = client.count("karate", "triangle").unwrap();
    assert_eq!(u64_field(&reference, "count"), 45);

    // A tiny budget with checkpointing suspends instead of failing.
    let err = client
        .request(&count_request(&[
            ("budget", Json::from(1u64)),
            ("checkpoint", Json::from(true)),
            ("no_cache", Json::from(true)),
        ]))
        .unwrap_err();
    assert_eq!(err.code(), Some("cancelled"), "{err}");
    let token = err.resume_token().expect("budget cancel with checkpoint is resumable").to_string();
    match &err {
        ClientError::Remote(remote) => {
            assert_eq!(remote.details.get("reason").and_then(Json::as_str), Some("budget"));
            assert!(remote.details.get("partial_count").and_then(Json::as_u64).unwrap() < 45);
        }
        other => panic!("expected remote error, got {other:?}"),
    }

    // Resuming (without the tight budget) finishes with the exact answer.
    let resumed = client
        .request(&count_request(&[
            ("resume", Json::from(token.clone())),
            ("no_cache", Json::from(true)),
        ]))
        .unwrap();
    assert_eq!(u64_field(&resumed, "count"), 45);
    assert_eq!(resumed.get("resumed").and_then(Json::as_bool), Some(true));

    // Resume tokens are single-use: replay fails cleanly.
    let replay = client.request(&count_request(&[("resume", Json::from(token))])).unwrap_err();
    assert_eq!(replay.code(), Some("bad_request"), "{replay}");
    assert_eq!(server_field(&mut client, "cancelled"), 1);
    handle.shutdown();
}

#[test]
fn loopback_disconnect_mid_query_cancels_the_job_and_frees_the_slot() {
    use std::io::Write as _;
    use std::time::{Duration, Instant};

    // One worker: the abandoned query must release it or nothing else runs.
    let config = ServiceConfig { pool: 1, queue_cap: 2, ..test_config() };
    let handle = serve(config).expect("bind loopback");
    let mut monitor = Client::connect(handle.addr()).expect("connect");
    let path = load_dense_graph(&mut monitor, "dense", DENSE_EDGES);
    monitor.load("karate", "karate-club", "fixture").unwrap();

    // A raw connection submits the slow query, waits until it occupies the
    // worker, then vanishes without reading the response.
    let mut doomed = std::net::TcpStream::connect(handle.addr()).unwrap();
    writeln!(doomed, "{}", slow_request("dense", &[])).unwrap();
    doomed.flush().unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    while server_field(&mut monitor, "running") == 0 {
        assert!(Instant::now() < deadline, "abandoned query never started running");
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(doomed);

    // The server notices the dead client, cancels the job, and frees the
    // worker — long before the query could have finished on its own.
    while server_field(&mut monitor, "cancelled") == 0 {
        assert!(Instant::now() < deadline, "disconnect never cancelled the job");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(server_field(&mut monitor, "running"), 0);

    // The freed slot serves the next query normally.
    let next = monitor.count("karate", "triangle").unwrap();
    assert_eq!(u64_field(&next, "count"), 45);

    std::fs::remove_file(&path).ok();
    handle.shutdown();
}

#[test]
fn loopback_cancel_verb_aborts_a_running_query_by_id() {
    use std::time::{Duration, Instant};

    let config = ServiceConfig { pool: 1, queue_cap: 2, ..test_config() };
    let handle = serve(config).expect("bind loopback");
    let mut monitor = Client::connect(handle.addr()).expect("connect");
    let path = load_dense_graph(&mut monitor, "dense", DENSE_EDGES);

    let addr = handle.addr();
    let victim = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.request(&slow_request("dense", &[("query_id", Json::from("job-1"))]))
    });
    let deadline = Instant::now() + Duration::from_secs(30);
    while server_field(&mut monitor, "running") == 0 {
        assert!(Instant::now() < deadline && !victim.is_finished(), "query never ran");
        std::thread::sleep(Duration::from_millis(5));
    }

    let ack = monitor.cancel("job-1").unwrap();
    assert_eq!(ack.get("found").and_then(Json::as_bool), Some(true));
    let err = victim.join().unwrap().unwrap_err();
    assert_eq!(err.code(), Some("cancelled"), "{err}");
    match &err {
        ClientError::Remote(remote) => {
            assert_eq!(remote.details.get("reason").and_then(Json::as_str), Some("explicit"));
        }
        other => panic!("expected remote error, got {other:?}"),
    }

    // A finished query_id is no longer cancellable.
    let gone = monitor.cancel("job-1").unwrap();
    assert_eq!(gone.get("found").and_then(Json::as_bool), Some(false));
    assert_eq!(server_field(&mut monitor, "cancelled"), 1);

    std::fs::remove_file(&path).ok();
    handle.shutdown();
}

#[test]
fn loopback_bad_requests_get_structured_errors() {
    let handle = serve(test_config()).expect("bind loopback");
    let mut client = Client::connect(handle.addr()).expect("connect");

    for (request, code) in [
        (Json::obj([("verb", Json::from("frobnicate"))]), "bad_request"),
        (
            Json::obj([
                ("verb", Json::from("count")),
                ("graph", Json::from("g")),
                ("pattern", Json::from("dodecahedron")),
            ]),
            "bad_request",
        ),
        (
            Json::obj([
                ("verb", Json::from("load")),
                ("name", Json::from("g")),
                ("path", Json::from("/nonexistent/graph.txt")),
            ]),
            "load_failed",
        ),
    ] {
        let err = client.request(&request).unwrap_err();
        assert_eq!(err.code(), Some(code), "{request}");
    }
    handle.shutdown();
}

#[test]
fn loopback_mutate_patches_cache_and_streams_subscriber_deltas() {
    let handle = serve(test_config()).expect("bind loopback");
    let mut client = Client::connect(handle.addr()).expect("connect");
    client.load("karate", "karate-club", "fixture").unwrap();

    // A second connection becomes a dedicated event stream.
    let mut watcher = Client::connect(handle.addr()).expect("connect watcher");
    let ack = watcher.subscribe("karate", "triangle").unwrap();
    assert_eq!(ack.get("subscribed").and_then(Json::as_bool), Some(true));
    assert_eq!(u64_field(&ack, "epoch"), 0);

    // Warm the cache, then mutate: the cached count must be patched (a
    // cache hit on the new epoch), not recomputed or dropped.
    let before = client.count("karate", "triangle").unwrap();
    assert_eq!(u64_field(&before, "count"), 45);
    let mutated = client.mutate("karate", &[], &[(0, 1)]).unwrap();
    assert_eq!(u64_field(&mutated, "epoch"), 1);
    assert_eq!(u64_field(&mutated, "deleted"), 1);
    assert_eq!(u64_field(&mutated, "views_patched"), 1);
    assert_eq!(u64_field(&mutated, "subscribers_notified"), 1);
    assert_ne!(
        mutated.get("content_hash").and_then(Json::as_str),
        mutated.get("parent_hash").and_then(Json::as_str),
    );

    let after = client.count("karate", "triangle").unwrap();
    assert_eq!(after.get("cache_hit").and_then(Json::as_bool), Some(true));
    let patched = u64_field(&after, "count");
    // Oracle: a scratch run on the mutated graph must agree.
    let scratch = client.request(&count_request(&[("no_cache", Json::from(true))])).unwrap();
    assert_eq!(patched, u64_field(&scratch, "count"));
    assert!(patched < 45, "deleting (0,1) kills triangles through it");

    // The watcher sees the same mutation as a signed delta event.
    let event = watcher.next_event().unwrap();
    assert_eq!(event.get("event").and_then(Json::as_str), Some("delta"));
    assert_eq!(u64_field(&event, "epoch"), 1);
    let removed = event.get("removed").and_then(Json::as_arr).unwrap().len() as u64;
    let added = event.get("added").and_then(Json::as_arr).unwrap().len() as u64;
    assert_eq!(45 - removed + added, patched);

    let stats = client.stats().unwrap();
    assert_eq!(u64_field(&stats, "subscriptions"), 1);
    assert_eq!(u64_field(stats.get("server").unwrap(), "mutations"), 1);
    let graphs = stats.get("graphs").and_then(Json::as_arr).unwrap();
    assert!(graphs[0].get("parent_hash").and_then(Json::as_str).is_some());

    // An empty batch is a bad request; an unknown graph is not_found.
    let err = client
        .request(&Json::obj([("verb", Json::from("mutate")), ("graph", Json::from("karate"))]));
    assert_eq!(err.unwrap_err().code(), Some("bad_request"));
    let err = client.mutate("nope", &[(0, 1)], &[]).unwrap_err();
    assert_eq!(err.code(), Some("not_found"));

    client.shutdown().unwrap();
    handle.wait();
}

#[test]
fn loopback_streamed_pages_arrive_in_order_and_concatenate() {
    let handle = serve(test_config()).expect("bind loopback");
    let mut client = Client::connect(handle.addr()).expect("connect");
    client.load("karate", "karate-club", "fixture").unwrap();

    // Reference: the buffered list path collects everything server-side
    // and chunks it after the fact.
    let request = Json::obj([
        ("verb", Json::from("list")),
        ("graph", Json::from("karate")),
        ("pattern", Json::from("triangle")),
        ("chunk", Json::from(10u64)),
    ]);
    let mut expected = Vec::new();
    client
        .list(&request, |chunk| {
            expected.extend(chunk.get("instances").and_then(Json::as_arr).unwrap().iter().cloned());
        })
        .unwrap();
    assert_eq!(expected.len(), 45);

    // Streamed: bounded `page` events, sequentially numbered, whose
    // concatenation is exactly the buffered answer.
    let request = Json::obj([
        ("verb", Json::from("list")),
        ("graph", Json::from("karate")),
        ("pattern", Json::from("triangle")),
        ("chunk", Json::from(10u64)),
        ("stream", Json::from(true)),
        ("no_cache", Json::from(true)), // exercise the live engine path
    ]);
    let mut streamed = Vec::new();
    let mut pages = 0u64;
    let done = client
        .list_stream(&request, |page| {
            assert_eq!(page.get("page").and_then(Json::as_u64), Some(pages), "{page}");
            let instances = page.get("instances").and_then(Json::as_arr).unwrap();
            assert!(!instances.is_empty() && instances.len() <= 10, "{page}");
            streamed.extend(instances.iter().cloned());
            pages += 1;
        })
        .unwrap();
    assert_eq!(done.get("done").and_then(Json::as_bool), Some(true));
    assert_eq!(u64_field(&done, "count"), 45);
    assert_eq!(u64_field(&done, "pages"), 5); // ceil(45 / 10)
    assert_eq!(pages, 5);
    assert_eq!(streamed, expected, "pages must concatenate to the buffered list");
    handle.shutdown();
}

/// The request path pays no delayed ACK: a request is one write on a
/// `TCP_NODELAY` socket and so is its reply. With either missing, each
/// direction stalled ≥ 40 ms; a healthy loopback round trip of a cached
/// count is well under a millisecond, so 20 ms separates the two widely.
#[test]
fn loopback_cached_count_round_trip_pays_no_delayed_ack() {
    use std::time::Instant;

    let handle = serve(test_config()).expect("bind loopback");
    let mut client = Client::connect(handle.addr()).expect("connect");
    client.load("karate", "karate-club", "fixture").unwrap();
    client.request(&count_request(&[])).unwrap(); // fills the result cache
    let mut round_trips_ms: Vec<f64> = (0..50)
        .map(|_| {
            let start = Instant::now();
            let reply = client.request(&count_request(&[])).unwrap();
            assert_eq!(reply.get("cache_hit").and_then(Json::as_bool), Some(true));
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    round_trips_ms.sort_by(f64::total_cmp);
    let median = round_trips_ms[round_trips_ms.len() / 2];
    assert!(median < 20.0, "median cached round trip {median:.2} ms: {round_trips_ms:?}");
    handle.shutdown();
}

/// A client that reads slowly still gets every page, in order, ahead of
/// the `done` line, and the pages concatenate to the buffered answer.
/// (That the producer stalls at the page channel's capacity meanwhile is
/// asserted where the channel is visible: `scheduler_fairness.rs`.)
#[test]
fn loopback_slow_stream_reader_still_gets_the_whole_answer() {
    let handle = serve(test_config()).expect("bind loopback");
    let mut client = Client::connect(handle.addr()).expect("connect");
    client.load("karate", "karate-club", "fixture").unwrap();
    let list = |extra: &[(&'static str, Json)]| {
        let mut fields = vec![
            ("verb", Json::from("list")),
            ("graph", Json::from("karate")),
            ("pattern", Json::from("square")),
            ("chunk", Json::from(2u64)),
        ];
        fields.extend(extra.iter().cloned());
        Json::obj(fields)
    };
    let mut expected = Vec::new();
    client
        .list(&list(&[]), |chunk| {
            expected.extend(chunk.get("instances").and_then(Json::as_arr).unwrap().iter().cloned());
        })
        .unwrap();

    // Far more pages than the page channel holds, read one per millisecond.
    let mut streamed = Vec::new();
    let mut pages = 0u64;
    let done = client
        .list_stream(
            &list(&[("stream", Json::from(true)), ("no_cache", Json::from(true))]),
            |page| {
                assert_eq!(page.get("page").and_then(Json::as_u64), Some(pages), "{page}");
                streamed
                    .extend(page.get("instances").and_then(Json::as_arr).unwrap().iter().cloned());
                pages += 1;
                std::thread::sleep(std::time::Duration::from_millis(1));
            },
        )
        .unwrap();
    assert!(pages > 64, "only {pages} pages: the stream never outran the channel");
    assert_eq!(u64_field(&done, "pages"), pages);
    assert_eq!(u64_field(&done, "count"), expected.len() as u64);
    assert_eq!(streamed, expected, "pages must concatenate to the buffered list");
    handle.shutdown();
}

#[test]
fn loopback_expired_deadline_jumps_the_queue_and_cancels_promptly() {
    use std::time::{Duration, Instant};

    // One worker, one-superstep slices: the running scan yields at every
    // superstep boundary, so a deadline query admitted behind a backlog
    // reaches the worker after at most one superstep of waiting.
    let config = ServiceConfig { pool: 1, queue_cap: 8, slice_supersteps: 1, ..test_config() };
    let handle = serve(config).expect("bind loopback");
    let mut monitor = Client::connect(handle.addr()).expect("connect");
    // Baseline: one uninterrupted scan on this machine.
    let (path, _, baseline_ms) = load_timed_graph(&mut monitor);
    assert!(baseline_ms >= 100, "dense square count too fast ({baseline_ms}ms)");
    monitor.load("karate", "karate-club", "fixture").unwrap();

    // A backlog of three scans. Under a FIFO scheduler a later query
    // would wait for every one of them (~4x baseline) before running.
    let addr = handle.addr();
    let giants: Vec<_> = (0..3)
        .map(|i| {
            let req = slow_request("dense", &[("query_id", Json::from(format!("giant-{i}")))]);
            std::thread::spawn(move || Client::connect(addr).unwrap().request(&req))
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(30);
    while server_field(&mut monitor, "running") == 0 {
        assert!(Instant::now() < deadline, "no scan ever started running");
        std::thread::sleep(Duration::from_millis(5));
    }

    // An already-expired deadline enters the EDF class: it overtakes the
    // queued scans and resolves `cancelled`/`deadline` after at most the
    // running scan's current slice — never behind the whole backlog.
    let start = Instant::now();
    let err = monitor
        .request(&count_request(&[
            ("timeout_ms", Json::from(0u64)),
            ("no_cache", Json::from(true)),
        ]))
        .unwrap_err();
    let elapsed_ms = start.elapsed().as_millis() as u64;
    assert_eq!(err.code(), Some("cancelled"), "{err}");
    match &err {
        ClientError::Remote(remote) => {
            assert_eq!(remote.details.get("reason").and_then(Json::as_str), Some("deadline"));
        }
        other => panic!("expected remote error, got {other:?}"),
    }
    assert!(
        elapsed_ms < (2 * baseline_ms).max(1_000),
        "deadline query queued behind the backlog: {elapsed_ms}ms \
         against a {baseline_ms}ms baseline (FIFO would be ~4x baseline)"
    );

    // Wind the backlog down instead of waiting it out; finished and
    // cancelled scans are both acceptable at this point.
    for i in 0..3 {
        monitor.cancel(&format!("giant-{i}")).unwrap();
    }
    for t in giants {
        t.join().unwrap().ok();
    }
    assert_eq!(u64_field(&monitor.count("karate", "triangle").unwrap(), "count"), 45);

    std::fs::remove_file(&path).ok();
    handle.shutdown();
}

#[test]
fn loopback_mid_stream_disconnect_frees_the_tenant_accounting() {
    use std::io::{BufRead as _, BufReader, Write as _};
    use std::time::{Duration, Instant};

    let handle = serve(test_config()).expect("bind loopback");
    let mut monitor = Client::connect(handle.addr()).expect("connect");
    let path = load_dense_graph(&mut monitor, "dense", DENSE_EDGES);
    monitor.load("karate", "karate-club", "fixture").unwrap();

    // A raw connection asks for every dense triangle as one-instance
    // pages (tens of thousands — far more than the socket buffers hold),
    // reads two pages to prove the stream is live, then vanishes.
    let ghost = std::net::TcpStream::connect(handle.addr()).unwrap();
    let mut ghost_writer = ghost.try_clone().unwrap();
    let mut ghost_reader = BufReader::new(ghost);
    let request = Json::obj([
        ("verb", Json::from("list")),
        ("graph", Json::from("dense")),
        ("pattern", Json::from("triangle")),
        ("stream", Json::from(true)),
        ("chunk", Json::from(1u64)),
        ("tenant", Json::from("ghost")),
        ("no_cache", Json::from(true)),
    ]);
    writeln!(ghost_writer, "{request}").unwrap();
    ghost_writer.flush().unwrap();
    for expect_page in 0..2u64 {
        let mut line = String::new();
        ghost_reader.read_line(&mut line).unwrap();
        let page = Json::parse(&line).unwrap();
        assert_eq!(page.get("ok").and_then(Json::as_bool), Some(true), "{page}");
        assert_eq!(page.get("page").and_then(Json::as_u64), Some(expect_page), "{page}");
    }
    drop(ghost_reader);
    drop(ghost_writer);

    // The worker's next page write hits the dead peer, the stream is
    // unregistered, and the tenant's active slot drains back to zero.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let stats = monitor.stats().unwrap();
        let tenant = stats
            .get("tenants")
            .and_then(|t| t.get("ghost"))
            .unwrap_or_else(|| panic!("missing ghost tenant in stats: {stats}"));
        if u64_field(tenant, "active") == 0 {
            assert_eq!(u64_field(tenant, "finished"), 1);
            assert!(u64_field(tenant, "pages") >= 2, "{tenant}");
            break;
        }
        assert!(Instant::now() < deadline, "disconnect never freed the tenant: {tenant}");
        std::thread::sleep(Duration::from_millis(20));
    }

    // The server is healthy: the freed worker serves the next query.
    assert_eq!(u64_field(&monitor.count("karate", "triangle").unwrap(), "count"), 45);
    assert_eq!(server_field(&mut monitor, "running"), 0);

    std::fs::remove_file(&path).ok();
    handle.shutdown();
}

/// Spill defaults for a memory-tight server: every run is capped to a
/// handful of live chunks and evicts the rest of its frontier to disk.
fn spill_defaults(spill: SpillConfig) -> QueryDefaults {
    QueryDefaults {
        max_live_chunks: Some(4),
        chunk_capacity: Some(16),
        spill: Some(spill),
        ..QueryDefaults::default()
    }
}

#[test]
fn loopback_spill_serves_concurrent_giant_queries_without_overloaded() {
    use std::time::{Duration, Instant};

    // One worker, one queue slot, on a memory-tight spill-enabled server.
    // Query A occupies the worker, query B fills the only queue slot, and
    // query C — the request a seed server bounces with `overloaded` (see
    // loopback_overloaded_connection_recovers_with_a_successful_query) —
    // is instead admitted as a degraded memory-bounded run. All three
    // giants complete with identical counts: out-of-core execution turns
    // the rejection into a served scenario.
    let config = ServiceConfig {
        pool: 1,
        queue_cap: 1,
        defaults: spill_defaults(SpillConfig::in_temp()),
        ..test_config()
    };
    let handle = serve(config).expect("bind loopback");
    let mut monitor = Client::connect(handle.addr()).expect("connect");
    let path = load_dense_graph(&mut monitor, "dense", DENSE_EDGES);

    let addr = handle.addr();
    let a = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.request(&slow_request("dense", &[]))
    });
    let deadline = Instant::now() + Duration::from_secs(60);
    while server_field(&mut monitor, "running") == 0 {
        assert!(Instant::now() < deadline, "query A never started running");
        std::thread::sleep(Duration::from_millis(5));
    }
    let b = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.request(&slow_request("dense", &[]))
    });
    while server_field(&mut monitor, "queue_depth") == 0 {
        assert!(Instant::now() < deadline, "query B never queued");
        std::thread::sleep(Duration::from_millis(5));
    }

    // The queue is full; without a spill tier this request would get
    // `overloaded`. Here it is admitted (degraded) and answered.
    let c = monitor.request(&slow_request("dense", &[])).unwrap();
    let a = a.join().unwrap().unwrap();
    let b = b.join().unwrap().unwrap();
    let count = u64_field(&a, "count");
    assert!(count > 0);
    assert_eq!(u64_field(&b, "count"), count, "capped runs must agree");
    assert_eq!(u64_field(&c, "count"), count, "degraded run must agree");

    let stats = monitor.stats().unwrap();
    let server = stats.get("server").unwrap();
    assert_eq!(u64_field(server, "rejected_overloaded"), 0, "{server}");
    assert!(u64_field(server, "degraded_to_spill") >= 1, "{server}");
    assert!(u64_field(server, "spill_chunks") > 0, "capped giants must spill: {server}");
    assert_eq!(
        u64_field(server, "spill_chunks"),
        u64_field(server, "readmitted_chunks"),
        "complete runs re-admit everything they spill: {server}"
    );

    std::fs::remove_file(&path).ok();
    handle.shutdown();
}

#[test]
fn loopback_mid_spill_disconnect_frees_the_slot_and_removes_the_spill_dir() {
    use std::io::Write as _;
    use std::time::{Duration, Instant};

    // Spill into a directory this test owns, so it can assert the run's
    // files are gone after the cancel, and count the segments written as
    // they are written.
    let base = std::env::temp_dir().join(format!("psgl-spill-loopback-{}", std::process::id()));
    std::fs::create_dir_all(&base).unwrap();
    let written = psgl_obs::Counter::default();
    let spill = SpillConfig {
        dir: Some(base.clone()),
        segments_written: Some(written.clone()),
        ..SpillConfig::default()
    };
    let config =
        ServiceConfig { pool: 1, queue_cap: 2, defaults: spill_defaults(spill), ..test_config() };
    let handle = serve(config).expect("bind loopback");
    let mut monitor = Client::connect(handle.addr()).expect("connect");
    let path = load_dense_graph(&mut monitor, "dense", DENSE_EDGES);
    monitor.load("karate", "karate-club", "fixture").unwrap();

    // A raw connection submits the giant query and vanishes once its run
    // has demonstrably spilled. A segment lives only until it is read
    // back, so the test watches the count of segments written, which only
    // grows, rather than the files themselves.
    let mut doomed = std::net::TcpStream::connect(handle.addr()).unwrap();
    writeln!(doomed, "{}", slow_request("dense", &[])).unwrap();
    doomed.flush().unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    while written.get() == 0 {
        assert!(Instant::now() < deadline, "abandoned query never spilled");
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(doomed);

    // The server notices the dead client and cancels the job; the run's
    // Drop guard removes its spill directory on the cancel path.
    while server_field(&mut monitor, "cancelled") == 0 {
        assert!(Instant::now() < deadline, "disconnect never cancelled the job");
        std::thread::sleep(Duration::from_millis(10));
    }
    while std::fs::read_dir(&base).map_or(0, |d| d.count()) > 0 {
        assert!(Instant::now() < deadline, "cancelled run left spill files behind");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(server_field(&mut monitor, "running"), 0);
    // The cancelled run's partial stats still account its disk traffic.
    assert!(server_field(&mut monitor, "spill_chunks") > 0);
    assert!(server_field(&mut monitor, "spill_bytes") > 0);

    // The freed slot serves the next query normally.
    assert_eq!(u64_field(&monitor.count("karate", "triangle").unwrap(), "count"), 45);

    std::fs::remove_dir_all(&base).ok();
    std::fs::remove_file(&path).ok();
    handle.shutdown();
}

/// The `metrics` verb is a strict superset of `stats`: every field the
/// legacy verb reports appears with the same value (module the metrics
/// request itself), plus the raw registry series, the slow-query log,
/// and a Prometheus rendition on request.
#[test]
fn loopback_metrics_verb_is_a_superset_of_stats() {
    let mut config = test_config();
    config.defaults.slow_query_ms = 0; // record every query's timeline
    let handle = serve(config).expect("bind loopback");
    let mut client = Client::connect(handle.addr()).expect("connect");
    client.load("karate", "karate-club", "fixture").unwrap();
    assert_eq!(u64_field(&client.count("karate", "triangle").unwrap(), "count"), 45);

    let stats = client.stats().unwrap();
    let metrics = client.request(&Json::obj([("verb", Json::from("metrics"))])).unwrap();

    // Every top-level stats object is mirrored. Nothing ran between the
    // two requests, so all but the server counters must match exactly.
    let Json::Obj(stat_fields) = &stats else { panic!("stats not an object: {stats}") };
    for (key, value) in stat_fields {
        let mirrored =
            metrics.get(key).unwrap_or_else(|| panic!("metrics is missing stats key {key}"));
        if key != "server" {
            assert_eq!(mirrored.to_string(), value.to_string(), "metrics.{key} diverges");
        }
    }
    // The server counters agree field-for-field. `requests` is the one
    // honest exception — the metrics request itself is request N+1 —
    // and `uptime_secs` is wall time, so it only moves forward.
    let Json::Obj(server_fields) = stats.get("server").unwrap() else {
        panic!("stats.server not an object")
    };
    let mserver = metrics.get("server").unwrap();
    for (key, value) in server_fields {
        let got = mserver.get(key).unwrap_or_else(|| panic!("metrics.server is missing {key}"));
        match key.as_str() {
            "requests" => assert_eq!(got.as_u64(), value.as_u64().map(|v| v + 1)),
            "uptime_secs" => {
                assert!(got.as_f64().unwrap() >= value.as_f64().unwrap(), "uptime went backwards")
            }
            _ => assert_eq!(got.to_string(), value.to_string(), "metrics.server.{key} diverges"),
        }
    }

    // The superset part: raw registry series ...
    let series = metrics.get("metrics").and_then(Json::as_arr).expect("metrics array");
    let series_value = |name: &str| {
        series
            .iter()
            .find(|s| s.get("name").and_then(Json::as_str) == Some(name))
            .and_then(|s| s.get("value"))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("missing series {name}"))
    };
    assert_eq!(series_value("psgl_queries_ok"), u64_field(mserver, "queries_ok"));
    assert_eq!(series_value("psgl_gpsis_generated"), u64_field(mserver, "gpsis_generated"));

    // ... and the slow-query log, timeline included (threshold 0 records
    // every query).
    assert_eq!(metrics.get("slow_query_threshold_ms").and_then(Json::as_u64), Some(0));
    let slow = metrics.get("slow_queries").and_then(Json::as_arr).expect("slow_queries array");
    assert!(!slow.is_empty(), "threshold 0 must record the triangle count");
    let timeline = slow[0].get("timeline").and_then(Json::as_arr).expect("timeline");
    assert!(!timeline.is_empty(), "timeline has per-superstep entries");
    for key in ["superstep", "compute_ms", "barrier_ms", "spill_stall_ms", "exchange_ms"] {
        assert!(timeline[0].get(key).is_some(), "timeline entry missing {key}");
    }

    // Prometheus rendition on request.
    let prom = client
        .request(&Json::obj([
            ("verb", Json::from("metrics")),
            ("format", Json::from("prometheus")),
        ]))
        .unwrap();
    let body = prom.get("body").and_then(Json::as_str).expect("prometheus body");
    assert!(body.contains("# TYPE psgl_queries_ok counter"), "{body}");
    assert!(body.contains("psgl_requests"), "{body}");
    client.shutdown().unwrap();
    handle.wait();
}
