//! `service_mix`: the only workload where the service layer (JSON parse →
//! admit → schedule → serialise) is on the blocking path. A loopback
//! server with a pool of two, and two closed-loop clients: each sends its
//! next request only after the reply to the last, so the offered load
//! falls when the server slows.

use super::{Ctx, Outcome, Region};
use crate::inputs::{power_law_graph, scaled};
use crate::spans::{SpanId, Spans};
use crate::{micro, sys};
use psgl_core::{list_subgraphs, PsglConfig};
use psgl_graph::{fixtures, io, DataGraph};
use psgl_service::{
    parse_pattern_spec, serve, Client, Json, QueryDefaults, ServiceConfig, ServiceHandle,
};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

const VERTICES: usize = 20_000;
const AVG_DEGREE: f64 = 8.0;
const GAMMA: f64 = 2.2;
const GRAPH: &str = "bench";
const FIXTURE: &str = "karate";
const PATTERNS: [&str; 3] = ["triangle", "4-clique", "tailed-triangle"];
const FIXTURE_PATTERNS: [&str; 2] = ["triangle", "square"];

/// The four request classes of the mix and their shares.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Class {
    /// 40 %: a count the result cache answers — protocol and cache only.
    Cached,
    /// 40 %: a `no_cache` count — engine-bound.
    Engine,
    /// 15 %: a streamed triangle listing — serialisation-bound.
    List,
    /// 5 %: a `no_cache` count on the 34-vertex fixture — parse, admit
    /// and schedule only.
    Tiny,
}

impl Class {
    const ALL: [Class; 4] = [Class::Cached, Class::Engine, Class::List, Class::Tiny];

    /// Twenty requests in the mix's exact shares, the patterns of each
    /// class taken in turn, in seeded order. A client works through one
    /// deck after another, so every stretch of the schedule holds the same
    /// requests and only their order is random. `round` numbers the deck:
    /// its single tiny request alternates between the fixture's patterns.
    fn deck(rng: &mut SmallRng, round: usize) -> Vec<(Class, usize)> {
        let mut deck = Vec::with_capacity(20);
        for (class, share, patterns) in [
            (Class::Cached, 8, PATTERNS.len()),
            (Class::Engine, 8, PATTERNS.len()),
            (Class::List, 3, 1),
        ] {
            deck.extend((0..share).map(|i| (class, i % patterns)));
        }
        deck.push((Class::Tiny, round % FIXTURE_PATTERNS.len()));
        deck.shuffle(rng);
        deck
    }

    fn suffix(self) -> &'static str {
        match self {
            Class::Cached => "cached",
            Class::Engine => "engine",
            Class::List => "list",
            Class::Tiny => "tiny",
        }
    }

    /// The graph and pattern a request of this class names.
    fn target(self, pattern: usize) -> (&'static str, &'static str) {
        match self {
            Class::Tiny => (FIXTURE, FIXTURE_PATTERNS[pattern]),
            _ => (GRAPH, PATTERNS[pattern]),
        }
    }

    fn request(self, pattern: usize) -> Json {
        let (graph, pattern) = self.target(pattern);
        let mut fields = vec![
            ("verb", Json::from(if self == Class::List { "list" } else { "count" })),
            ("graph", Json::from(graph)),
            ("pattern", Json::from(pattern)),
        ];
        if self != Class::Cached {
            fields.push(("no_cache", Json::from(true)));
        }
        if self == Class::List {
            fields.push(("stream", Json::from(true)));
        }
        Json::obj(fields)
    }
}

/// Every distinct request of the mix, once.
const DISTINCT_REQUESTS: [(Class, usize); 9] = [
    (Class::Cached, 0),
    (Class::Cached, 1),
    (Class::Cached, 2),
    (Class::Engine, 0),
    (Class::Engine, 1),
    (Class::Engine, 2),
    (Class::List, 0),
    (Class::Tiny, 0),
    (Class::Tiny, 1),
];

/// One request as its client saw it.
struct Sample {
    class: Class,
    pattern: usize,
    start_ns: u64,
    end_ns: u64,
    /// The reply's `wall_ms`: admission to completion inside the server.
    server_ms: f64,
    /// The count the reply carried; `None` when the request failed or was
    /// refused.
    count: Option<u64>,
    /// Instances received in pages (`List` only).
    listed: u64,
}

impl Sample {
    fn latency_ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

fn send(client: &mut Client, spans: &Spans, class: Class, pattern: usize) -> Sample {
    let request = class.request(pattern);
    let mut listed = 0u64;
    let start_ns = spans.now_ns();
    let reply = if class == Class::List {
        client.list_stream(&request, |page| {
            listed += page.get("instances").and_then(Json::as_arr).map_or(0, |a| a.len() as u64);
        })
    } else {
        client.request(&request)
    };
    let end_ns = spans.now_ns();
    let field = |key: &str| reply.as_ref().ok().and_then(|r| r.get(key));
    Sample {
        class,
        pattern,
        start_ns,
        end_ns,
        server_ms: field("wall_ms").and_then(Json::as_f64).unwrap_or(0.0),
        count: field("count").and_then(Json::as_u64),
        listed,
    }
}

/// A running server with both graphs loaded; dropping it stops the server
/// (a no-op once the `shutdown` verb has).
struct Running {
    handle: ServiceHandle,
    graph: DataGraph,
}

impl Drop for Running {
    fn drop(&mut self) {
        self.handle.shutdown();
    }
}

fn start(vertices: usize, ctx: &mut Ctx, parent: SpanId) -> Running {
    let seed = ctx.seed;
    let graph =
        ctx.setup_step("graph.gen", parent, || power_law_graph(vertices, AVG_DEGREE, GAMMA, seed));
    let path = ctx.tmp.join("graph.txt");
    ctx.setup_step("graph.save", parent, || io::save_edge_list(&graph, &path))
        .expect("write the graph inside the checkout");
    let workers = sys::workers();
    let config = ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        pool: workers,
        defaults: QueryDefaults {
            workers: 1,
            seed,
            // The traced run keeps every query's superstep timeline.
            slow_query_ms: if ctx.trace { 0 } else { QueryDefaults::default().slow_query_ms },
            ..QueryDefaults::default()
        },
        ..ServiceConfig::default()
    };
    let handle = ctx.setup_step("service.start", parent, || serve(config)).expect("bind loopback");
    let addr = handle.addr();
    ctx.setup_step("graph.load", parent, || {
        let mut admin = Client::connect(addr).expect("connect");
        admin.load(GRAPH, path.to_str().expect("utf-8 path"), "edge-list").expect("load verb");
        admin.load(FIXTURE, FIXTURE, "fixture").expect("load fixture");
    });
    Running { handle, graph }
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    let clients = sys::workers();
    let vertices = scaled(VERTICES, ctx.scale, 400);
    let (running, setup_s) = ctx.repeat_setup(|ctx, span| start(vertices, ctx, span));
    let addr = running.handle.addr();

    // Warm-up: every cacheable answer enters the result cache and every
    // plan the plan cache, so the timed region sees the steady state.
    let mut admin = Client::connect(addr).expect("connect");
    for (class, pattern) in DISTINCT_REQUESTS {
        send(&mut admin, &ctx.spans, class, pattern);
    }
    let stats_before = admin.stats().expect("stats verb");

    let region = Region::open(ctx.seconds);
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    let seed = ctx.seed;
    let spans = &ctx.spans;
    let mut samples: Vec<Sample> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|id| {
                scope.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(seed ^ ((id as u64 + 1) << 32));
                    let mut client = Client::connect(addr).expect("connect");
                    let mut samples = Vec::new();
                    'region: for round in 0.. {
                        for (class, pattern) in Class::deck(&mut rng, round) {
                            if Instant::now() >= deadline {
                                break 'region;
                            }
                            samples.push(send(&mut client, spans, class, pattern));
                        }
                    }
                    samples
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect()
    });
    let region = region.close();
    samples.sort_by_key(|s| s.start_ns);

    let stats_after = admin.stats().expect("stats verb");
    let metrics = if ctx.trace {
        admin.request(&Json::obj([("verb", Json::from("metrics"))])).ok()
    } else {
        None
    };
    admin.shutdown().expect("shutdown verb");
    running.handle.wait();

    // What the server must have answered, computed in this process.
    let config = PsglConfig::with_workers(clients).seed(ctx.seed);
    let karate = fixtures::karate_club();
    let expected = |class: Class, pattern: usize| {
        let (graph, spec) = match class {
            Class::Tiny => (&karate, FIXTURE_PATTERNS[pattern]),
            _ => (&running.graph, PATTERNS[pattern]),
        };
        let pattern = parse_pattern_spec(spec).expect("catalog pattern");
        list_subgraphs(graph, &pattern, &config).expect("in-process run").instance_count
    };
    let mut answers: BTreeMap<(bool, usize), u64> = BTreeMap::new();
    let mut failed = 0u64;
    for s in &samples {
        let want = *answers
            .entry((s.class == Class::Tiny, s.pattern))
            .or_insert_with(|| expected(s.class, s.pattern));
        let listed_ok = s.class != Class::List || s.listed == want;
        failed += u64::from(s.count != Some(want) || !listed_ok);
    }

    // The server's tracer is process-wide and always on, and a span here
    // is made from a sample the client keeps anyway, so no request runs
    // "with tracing off": all are plain operations, and every one gets a
    // span on the traced run.
    for (i, s) in samples.iter().enumerate() {
        let op_id = i as u64 + 1;
        let span = ctx.spans.record("service.request", s.start_ns, s.end_ns, None, op_id);
        // The server's own wall, placed so that it ends with the reply.
        let engine_ns = ((s.server_ms * 1e6) as u64).min(s.end_ns - s.start_ns);
        ctx.spans.record("service.engine", s.end_ns - engine_ns, s.end_ns, Some(span), op_id);
    }
    let op_ms: Vec<f64> = samples.iter().map(Sample::latency_ms).collect();

    publish(ctx, &samples, &stats_before, &stats_after, metrics.as_ref(), &answers);
    ctx.set_input_metrics(&running.graph, PATTERNS.len());
    if ctx.trace {
        let lines: Vec<String> =
            DISTINCT_REQUESTS.iter().map(|&(c, p)| c.request(p).to_string()).collect();
        micro::parse_line(&lines, ctx);
    }

    let by_class = |class: Class| samples.iter().filter(|s| s.class == class).count();
    Outcome {
        setup_s,
        op_ms,
        traced_op_ms: Vec::new(),
        work_per_s: samples.len() as f64 / region.wall_s,
        work_unit: "requests",
        cpu_ms_per_op: region.cpu_s * 1e3 / samples.len().max(1) as f64,
        region,
        attempted: samples.len() as u64,
        failed,
        notes: vec![
            ("vertices", Json::from(vertices)),
            ("edges", Json::from(running.graph.num_edges())),
            ("clients", Json::from(clients)),
            ("requests_cached", Json::from(by_class(Class::Cached))),
            ("requests_engine", Json::from(by_class(Class::Engine))),
            ("requests_list", Json::from(by_class(Class::List))),
            ("requests_tiny", Json::from(by_class(Class::Tiny))),
        ],
    }
}

/// The `service.*` metrics: client-side latencies per class, and the
/// difference of the server's own counters across the timed region.
fn publish(
    ctx: &mut Ctx,
    samples: &[Sample],
    before: &Json,
    after: &Json,
    metrics: Option<&Json>,
    answers: &BTreeMap<(bool, usize), u64>,
) {
    let class_values = |class: Class, f: &dyn Fn(&Sample) -> f64| -> Vec<f64> {
        samples.iter().filter(|s| s.class == class && s.count.is_some()).map(f).collect()
    };
    let mut overheads = Vec::new();
    for class in Class::ALL {
        let latency = sys::median(&class_values(class, &Sample::latency_ms));
        ctx.set(&format!("service.p50_ms.{}", class.suffix()), latency);
        overheads.extend(class_values(class, &|s| s.latency_ms() - s.server_ms));
    }
    // Client latency minus the server's wall: socket, parse, admission
    // and reply serialisation.
    ctx.set("service.overhead_ms", sys::median(&overheads));

    // What a listed instance costs to serialise and ship: the streamed
    // listing's latency over that of the same query counted.
    let list_ms = sys::median(&class_values(Class::List, &Sample::latency_ms));
    let count_ms = sys::median(
        &samples
            .iter()
            .filter(|s| s.class == Class::Engine && s.pattern == 0)
            .map(Sample::latency_ms)
            .collect::<Vec<_>>(),
    );
    if let Some(&triangles) = answers.get(&(false, 0)) {
        if list_ms > 0.0 && count_ms > 0.0 && triangles > 0 {
            ctx.set(
                "service.serialize_us_per_instance",
                (list_ms - count_ms) * 1e3 / triangles as f64,
            );
        }
    }

    let counter = |doc: &Json, section: &str, key: &str| {
        doc.get(section).and_then(|s| s.get(key)).and_then(Json::as_f64).unwrap_or(0.0)
    };
    let grown =
        |section: &str, key: &str| counter(after, section, key) - counter(before, section, key);
    let hit_ratio = |section: &str| {
        let (hits, misses) = (grown(section, "hits"), grown(section, "misses"));
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        }
    };
    ctx.set("service.result_cache_hit_ratio", hit_ratio("result_cache"));
    ctx.set("service.plan_cache_hit_ratio", hit_ratio("plan_cache"));
    ctx.set("service.slices", grown("server", "slices"));
    ctx.set("service.preemptions", grown("server", "preemptions"));
    ctx.set("service.pages_streamed", grown("server", "pages_streamed"));
    ctx.set("service.rejected_overloaded", grown("server", "rejected_overloaded"));

    // Where the slow-query log kept a query's superstep timeline: the
    // server's wall for it minus the engine time the timeline accounts
    // for, i.e. queueing and scheduling.
    let workers = sys::workers() as f64;
    let queue_ms: Vec<f64> = metrics
        .and_then(|m| m.get("slow_queries"))
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|entry| {
            let total = entry.get("total_ms")?.as_f64()?;
            let engine: f64 = entry
                .get("timeline")?
                .as_arr()?
                .iter()
                .map(|step| {
                    let ms = |key: &str| step.get(key).and_then(Json::as_f64).unwrap_or(0.0);
                    ms("compute_ms") / workers
                        + ms("barrier_ms")
                        + ms("spill_stall_ms")
                        + ms("exchange_ms")
                })
                .sum();
            Some((total - engine).max(0.0))
        })
        .collect();
    ctx.set("service.queue_ms", sys::median(&queue_ms));
}
