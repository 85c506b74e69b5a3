//! BENCH_service — throughput and latency of `psgl-service` over loopback.
//!
//! Not a paper artifact: this measures the service subsystem added on top
//! of the engine, in two phases:
//!
//! 1. **Uniform**: `N_CLIENTS` concurrent connections each fire a stream
//!    of `count` queries (cycling over a small pattern mix, so the result
//!    cache sees repeats after the first round) — queries/sec, p50/p99
//!    latency, and the server-side cache hit rate.
//! 2. **Heavy-tailed**: one giant scan ([`GIANT_PATTERN`]) plus 64 small
//!    queries share the same pool. The preemptive scheduler slices the
//!    giant at superstep boundaries, so the smalls' p50 and p99 must stay
//!    under absolute gates — the recorded latencies times
//!    [`HEAVY_TAIL_GATE_FACTOR`] — which CI enforces. A FIFO pool fails
//!    them by the giant's whole runtime (seconds), and so does a request
//!    path that stalls: the old `p99 / p50` ratio gate had an ≈ 88 ms
//!    delayed-ACK stall in its denominator and passed either way.
//!
//! Both phases land in `results/BENCH_service.json` via
//! [`psgl_bench::report::write_json_report`].
//!
//! `PSGL_SCALE` scales both the data graph and the per-client query count.

use psgl_bench::report;
use psgl_graph::{generators, io};
use psgl_service::{serve, Client, Json, QueryDefaults, ServiceConfig};
use std::time::Instant;

const PATTERNS: [&str; 3] = ["triangle", "tailed-triangle", "square"];

/// The scale the nightly job runs the heavy-tailed phase at, and so the
/// one its latencies were recorded at.
const HEAVY_TAIL_GATE_SCALE: f64 = 0.5;

/// Small-query p50 / p99 of the heavy-tailed phase at that scale: medians
/// of five runs on 2 cores. `results/BENCH_service.json` keeps one such
/// run beside the gates.
const HEAVY_TAIL_RECORDED_P50_MS: f64 = 17.7;
const HEAVY_TAIL_RECORDED_P99_MS: f64 = 152.6;

/// The heavy-tailed phase's CI gates are the recorded latencies times
/// this: room for a slower runner, far below what either regression
/// costs (the request-path stall alone adds ≈ 88 ms, five times the
/// recorded p50; FIFO scheduling adds the giant's runtime to the p99).
const HEAVY_TAIL_GATE_FACTOR: f64 = 3.0;

/// The heavy-tailed phase's giant. Clique scans prune to almost nothing on
/// the power-law bench graph (a 4-clique count finishes in tens of
/// milliseconds), so the giant is the heaviest catalog scan instead — the
/// 5-vertex house, whose intermediate Gpsi volume dwarfs a triangle
/// count's by orders of magnitude.
const GIANT_PATTERN: &str = "house";

fn count_request(pattern: &str, tenant: &str) -> Json {
    Json::obj([
        ("verb", Json::from("count")),
        ("graph", Json::from("bench")),
        ("pattern", Json::from(pattern)),
        ("no_cache", Json::from(true)), // every query does real engine work
        ("tenant", Json::from(tenant)),
    ])
}

fn main() {
    let scale: f64 = std::env::var("PSGL_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(1.0);
    report::banner(
        "BENCH_service",
        "service throughput: concurrent count queries over loopback TCP",
        scale,
    );

    let n_clients: usize = 8;
    let queries_per_client = ((30.0 * scale).round() as usize).max(3);
    let vertices = ((20_000.0 * scale) as usize).max(500);

    // A power-law stand-in dataset, served from a real file like production.
    let graph = generators::chung_lu(vertices, 8.0, 2.2, 7).expect("generate graph");
    let dir = std::env::temp_dir().join("psgl_bench_service");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("chung_lu.txt");
    io::save_edge_list(&graph, path.to_str().unwrap()).expect("save graph");

    let config = ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        pool: n_clients.min(8),
        queue_cap: 4 * n_clients,
        result_cache_cap: 256,
        plan_cache_cap: 256,
        defaults: QueryDefaults::default(),
        list_chunk: 256,
        slice_supersteps: 2,
    };
    let pool = config.pool;
    let handle = serve(config).expect("bind loopback");
    let addr = handle.addr();

    let mut admin = Client::connect(addr).expect("connect");
    let loaded = admin.load("bench", path.to_str().unwrap(), "edge-list").expect("load");
    // The served counts, not the generator's: the edge-list round trip
    // drops isolated vertices.
    let served_vertices = loaded.get("vertices").and_then(Json::as_u64).unwrap();
    let served_edges = loaded.get("edges").and_then(Json::as_u64).unwrap();
    println!(
        "graph: {served_vertices} vertices, {served_edges} edges (load {:.0} ms); \
         {n_clients} clients x {queries_per_client} queries, pool {pool}",
        loaded.get("load_ms").and_then(Json::as_f64).unwrap(),
    );

    // Fire the query mix from independent threads/connections.
    let wall = Instant::now();
    let threads: Vec<_> = (0..n_clients)
        .map(|c| {
            std::thread::spawn(move || -> (Vec<f64>, u64, u64) {
                let mut client = Client::connect(addr).expect("client connect");
                let mut latencies = Vec::with_capacity(queries_per_client);
                let (mut ok, mut rejected) = (0u64, 0u64);
                for q in 0..queries_per_client {
                    let pattern = PATTERNS[(c + q) % PATTERNS.len()];
                    let start = Instant::now();
                    match client.count("bench", pattern) {
                        Ok(_) => ok += 1,
                        Err(e) if e.code() == Some("overloaded") => rejected += 1,
                        Err(e) => panic!("query failed: {e}"),
                    }
                    latencies.push(start.elapsed().as_secs_f64() * 1e3);
                }
                (latencies, ok, rejected)
            })
        })
        .collect();
    let mut latencies = Vec::new();
    let (mut ok, mut rejected) = (0u64, 0u64);
    for t in threads {
        let (lat, o, r) = t.join().expect("client thread");
        latencies.extend(lat);
        ok += o;
        rejected += r;
    }
    let elapsed = wall.elapsed().as_secs_f64();

    // ---- Heavy-tailed phase: one giant scan + 64 small queries on the
    // same pool. The giant gets a head start so the burst of smalls
    // genuinely arrives behind it; with preemptive slicing they
    // interleave instead of queueing for the giant's full runtime.
    let (small_clients, small_per_client) = (8usize, 8usize);
    let ht_wall = Instant::now();
    let giant = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("giant connect");
        let start = Instant::now();
        client.request(&count_request(GIANT_PATTERN, "batch")).expect("giant query");
        start.elapsed().as_secs_f64() * 1e3
    });
    std::thread::sleep(std::time::Duration::from_millis(250));
    let small_threads: Vec<_> = (0..small_clients)
        .map(|_| {
            std::thread::spawn(move || -> Vec<f64> {
                let mut client = Client::connect(addr).expect("small connect");
                (0..small_per_client)
                    .map(|_| {
                        let start = Instant::now();
                        client
                            .request(&count_request("triangle", "interactive"))
                            .expect("small query");
                        start.elapsed().as_secs_f64() * 1e3
                    })
                    .collect()
            })
        })
        .collect();
    let mut small_latencies = Vec::new();
    for t in small_threads {
        small_latencies.extend(t.join().expect("small client thread"));
    }
    let giant_ms = giant.join().expect("giant thread");
    let ht_elapsed = ht_wall.elapsed().as_secs_f64();
    small_latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    // Percentiles over the *small* queries: the gate bounds how much of
    // the giant's runtime leaks into the interactive tail.
    let ht_p50 = report::percentile(&small_latencies, 0.50);
    let ht_p99 = report::percentile(&small_latencies, 0.99);
    let (gate_p50, gate_p99) = (
        (HEAVY_TAIL_RECORDED_P50_MS * HEAVY_TAIL_GATE_FACTOR).round(),
        (HEAVY_TAIL_RECORDED_P99_MS * HEAVY_TAIL_GATE_FACTOR).round(),
    );
    let ht_queries = (small_clients * small_per_client) as u64 + 1;

    let stats = admin.stats().expect("stats");
    let cache = stats.get("result_cache").unwrap();
    let hit_rate = cache.get("hit_rate").and_then(Json::as_f64).unwrap_or(0.0);
    let server = stats.get("server").unwrap();
    let messages_total = server.get("messages_total").and_then(Json::as_u64).unwrap_or(0);
    let local_delivery_ratio =
        server.get("local_delivery_ratio").and_then(Json::as_f64).unwrap_or(0.0);
    // Memory-pressure counters: how close the bench run came to the
    // chunk-pool ceiling (none is configured here, so pool_exhausted
    // stays 0 and the peak is the natural working set).
    let pool_exhausted = server.get("pool_exhausted").and_then(Json::as_u64).unwrap_or(0);
    let chunks_live_peak = server.get("chunks_live_peak").and_then(Json::as_u64).unwrap_or(0);
    let net = |field: &str| {
        stats.get("cluster").and_then(|c| c.get(field)).and_then(Json::as_u64).unwrap_or(0)
    };
    let frames_sent = net("frames_sent");
    let wire_bytes_sent = net("wire_bytes_sent");
    let barrier_wait_nanos = net("barrier_wait_nanos");
    admin.shutdown().expect("shutdown");
    handle.wait();

    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let qps = ok as f64 / elapsed;
    let p50 = report::percentile(&latencies, 0.50);
    let p99 = report::percentile(&latencies, 0.99);

    let table = report::Table::new(&[("metric", 22), ("value", 14)]);
    table.row(&["queries ok".into(), ok.to_string()]);
    table.row(&["rejected (overload)".into(), rejected.to_string()]);
    table.row(&["wall secs".into(), format!("{elapsed:.2}")]);
    table.row(&["qps".into(), format!("{qps:.1}")]);
    table.row(&["p50 ms".into(), format!("{p50:.2}")]);
    table.row(&["p99 ms".into(), format!("{p99:.2}")]);
    table.row(&["cache hit rate".into(), format!("{hit_rate:.3}")]);
    table.row(&["messages total".into(), messages_total.to_string()]);
    table.row(&["local delivery".into(), format!("{local_delivery_ratio:.3}")]);
    table.row(&["chunks live peak".into(), chunks_live_peak.to_string()]);
    table.row(&["pool exhausted".into(), pool_exhausted.to_string()]);
    println!("shape: cache hit rate near 1 after the first round per pattern;");
    println!("       p99 >> p50 only when the pool saturates");

    println!(
        "\nheavy-tailed phase: 1 giant {GIANT_PATTERN} scan + {ht} small triangle counts, \
         pool {pool}",
        ht = ht_queries - 1
    );
    let ht_table = report::Table::new(&[("metric", 22), ("value", 14)]);
    ht_table.row(&["giant ms".into(), format!("{giant_ms:.0}")]);
    ht_table.row(&["small p50 ms".into(), format!("{ht_p50:.2}")]);
    ht_table.row(&["small p99 ms".into(), format!("{ht_p99:.2}")]);
    ht_table.row(&["gate p50 ms".into(), format!("{gate_p50:.0}")]);
    ht_table.row(&["gate p99 ms".into(), format!("{gate_p99:.0}")]);
    ht_table.row(&["phase qps".into(), format!("{:.1}", ht_queries as f64 / ht_elapsed)]);
    // The gates are absolute latencies, so they only judge the scale they
    // were recorded at.
    let verdict = |value: f64, gate: f64| match (scale == HEAVY_TAIL_GATE_SCALE, value <= gate) {
        (false, _) => "not judged at this scale against its",
        (true, true) => "within",
        (true, false) => "OVER",
    };
    println!(
        "shape: the sliced giant must not starve the smalls — p50 {} gate, p99 {} gate",
        verdict(ht_p50, gate_p50),
        verdict(ht_p99, gate_p99)
    );

    let body = Json::obj([
        ("experiment", Json::from("service_throughput")),
        ("scale", Json::from(scale)),
        ("vertices", Json::from(served_vertices)),
        ("edges", Json::from(served_edges)),
        ("clients", Json::from(n_clients)),
        ("queries_per_client", Json::from(queries_per_client)),
        ("pool", Json::from(pool)),
        ("queries_ok", Json::from(ok)),
        ("rejected_overloaded", Json::from(rejected)),
        ("wall_secs", Json::from(elapsed)),
        ("qps", Json::from(qps)),
        ("p50_ms", Json::from(p50)),
        ("p99_ms", Json::from(p99)),
        ("cache_hit_rate", Json::from(hit_rate)),
        ("messages_total", Json::from(messages_total)),
        ("local_delivery_ratio", Json::from(local_delivery_ratio)),
        ("pool_exhausted", Json::from(pool_exhausted)),
        ("chunks_live_peak", Json::from(chunks_live_peak)),
        // Wire-plane counters: zero while the service executes queries
        // in-process, reported so the schema is stable if it ever runs
        // distributed exchanges.
        ("frames_sent", Json::from(frames_sent)),
        ("wire_bytes_sent", Json::from(wire_bytes_sent)),
        ("barrier_wait_nanos", Json::from(barrier_wait_nanos)),
        (
            "heavy_tail",
            Json::obj([
                ("giant_pattern", Json::from(GIANT_PATTERN)),
                ("small_queries", Json::from(ht_queries - 1)),
                ("giant_ms", Json::from(giant_ms)),
                ("p50_ms", Json::from(ht_p50)),
                ("p99_ms", Json::from(ht_p99)),
                ("gate_p50_ms", Json::from(gate_p50)),
                ("gate_p99_ms", Json::from(gate_p99)),
                ("wall_secs", Json::from(ht_elapsed)),
                ("qps", Json::from(ht_queries as f64 / ht_elapsed)),
            ]),
        ),
    ]);
    report::write_json_report("results/BENCH_service.json", &body).expect("write report");
}
