//! `psgl_core::run` is the one way into the engine; a sliced, resumed or
//! seeded run is the same superstep loop entered from a different frontier
//! and stopped at a different barrier. This test drives every start × stop
//! combination that has a caller and requires the answer of the whole run.

use psgl::baselines::centralized;
use psgl::bsp::SpillConfig;
use psgl::core::{
    list_subgraphs, list_subgraphs_prepared, list_subgraphs_prepared_with, run, CancelReason,
    CancelToken, Checkpoint, EdgeIndex, Gpsi, Harvest, ListingEnd, ListingResult, PsglConfig,
    PsglShared, QueryPlan, RunRequest, RunnerHooks, Start, Stop, Strategy,
};
use psgl::graph::generators::{chung_lu, erdos_renyi_gnm};
use psgl::graph::{DataGraph, DegreeStats, OrderedGraph, VertexId};
use psgl::pattern::labeled::automorphisms_labeled;
use psgl::pattern::{catalog, Pattern};
use psgl::sim::fingerprint::fingerprint_run;
use std::collections::BTreeSet;
use std::sync::Arc;

fn one_superstep_from(start: Start) -> RunRequest<'static> {
    one_superstep_under(RunnerHooks::default(), start)
}

fn one_superstep_under(hooks: RunnerHooks<'static>, start: Start) -> RunRequest<'static> {
    let stop = Stop { slice: Some(1), ..Default::default() };
    RunRequest { start, hooks, stop, ..Default::default() }
}

/// Start::Init, empty Stop — what the scheduler's `execute_query`, the CLI
/// and the benchmark's wrappers run.
fn whole(shared: &PsglShared<'_>, config: &PsglConfig) -> ListingResult {
    run(shared, config, RunRequest::default()).unwrap().completed()
}

/// Start::Init then Start::Checkpoint under Stop::slice — the scheduler's
/// worker loop, every checkpoint through its bytes as the chaos harness
/// does.
fn sliced(shared: &PsglShared<'_>, config: &PsglConfig) -> ListingResult {
    sliced_under(&RunnerHooks::default(), shared, config)
}

/// The same loop under a live-chunk cap with the spill tier — the
/// scheduler's degraded mode. Every barrier is then a preemption of a
/// frontier that is partly on disk: capture reads it back, and the next
/// slice (with a spill directory of its own) evicts it again.
fn sliced_and_spilled(shared: &PsglShared<'_>, config: &PsglConfig) -> ListingResult {
    let hooks = RunnerHooks {
        chunk_capacity: Some(16),
        max_live_chunks: Some(8),
        spill: Some(SpillConfig::in_temp()),
        ..Default::default()
    };
    let result = sliced_under(&hooks, shared, config);
    assert!(result.stats.spill_chunks > 0, "the cap never bit");
    assert_eq!(result.stats.readmitted_chunks, result.stats.spill_chunks);
    result
}

fn sliced_under(
    hooks: &RunnerHooks<'static>,
    shared: &PsglShared<'_>,
    config: &PsglConfig,
) -> ListingResult {
    let mut start = Start::Init;
    for slices in 1.. {
        match run(shared, config, one_superstep_under(hooks.clone(), start)).unwrap() {
            ListingEnd::Complete(result) => {
                assert!(slices > 2, "one-superstep slices must preempt repeatedly");
                return result;
            }
            ListingEnd::Preempted { superstep, checkpoint, .. } => {
                assert_eq!(superstep, slices, "a slice is exactly one superstep long");
                start = Start::Checkpoint(Checkpoint::from_bytes(&checkpoint.to_bytes()).unwrap());
            }
            ListingEnd::Cancelled(c) => panic!("unexpected cancel: {:?}", c.reason),
        }
    }
    unreachable!()
}

/// Stop::cancel + Stop::checkpoint, then Start::Checkpoint — a query with
/// a deadline and `checkpoint: true`, and the resume token it leaves.
fn resumed(shared: &PsglShared<'_>, config: &PsglConfig) -> ListingResult {
    let token = CancelToken::with_superstep_deadline(2);
    let stop = Stop { cancel: Some(&token), checkpoint: true, slice: None };
    let ListingEnd::Cancelled(cancelled) =
        run(shared, config, RunRequest { stop, ..Default::default() }).unwrap()
    else {
        panic!("the run outlives a two-superstep deadline")
    };
    assert_eq!((cancelled.reason, cancelled.superstep), (CancelReason::Deadline, 2));
    let bytes = cancelled.checkpoint.expect("a soft cancel captures its frontier").to_bytes();
    let start = Start::Checkpoint(Checkpoint::from_bytes(&bytes).unwrap());
    run(shared, config, RunRequest { start, ..Default::default() }).unwrap().completed()
}

/// The checkpoint a one-superstep slice leaves: fresh worker states and
/// the initialization phase's Gpsis, undelivered.
fn after_initialization(shared: &PsglShared<'_>, config: &PsglConfig) -> Checkpoint {
    match run(shared, config, one_superstep_from(Start::Init)).unwrap() {
        ListingEnd::Preempted { superstep: 1, checkpoint, .. } => *checkpoint,
        _ => panic!("the initialization superstep leaves a frontier"),
    }
}

/// Start::Seeds — `psgl-delta`'s incremental runs. The seeds here are the
/// whole superstep-1 frontier, so their completions are every instance.
fn seeded(shared: &PsglShared<'_>, config: &PsglConfig) -> ListingResult {
    let parts = after_initialization(shared, config).parts;
    let seeds = parts.into_iter().flat_map(|part| part.frontier).map(|(_, gpsi)| gpsi).collect();
    let request = RunRequest { start: Start::Seeds(seeds), ..Default::default() };
    run(shared, config, request).unwrap().completed()
}

/// Start::Checkpoint from joined one-part checkpoints, each through its
/// bytes — how a cluster worker restarts after a peer failure. With no
/// `ClusterMember` every partition is local.
fn sharded(shared: &PsglShared<'_>, config: &PsglConfig) -> ListingResult {
    let cp = after_initialization(shared, config);
    let shards = cp.parts.iter().rev().map(|part| {
        let shard = Checkpoint {
            carried: Default::default(),
            prior_supersteps: Vec::new(),
            parts: vec![part.clone()],
            ..cp.clone()
        };
        Checkpoint::from_bytes(&shard.to_bytes()).unwrap()
    });
    let start = Start::Checkpoint(Checkpoint::join(shards).unwrap());
    run(shared, config, RunRequest { start, ..Default::default() }).unwrap().completed()
}

type Cell = (&'static str, fn(&PsglShared<'_>, &PsglConfig) -> ListingResult);

const CELLS: [Cell; 5] = [
    ("sliced", sliced),
    ("sliced and spilled", sliced_and_spilled),
    ("resumed", resumed),
    ("seeded", seeded),
    ("sharded", sharded),
];

#[test]
fn every_start_and_stop_gives_the_whole_runs_answer() {
    let graph = erdos_renyi_gnm(120, 700, 21).unwrap();
    for pattern in [catalog::triangle(), catalog::square()] {
        // Level-by-level expansion keeps both patterns running past the
        // barriers the sliced and resumed cells stop at.
        let config = PsglConfig::with_workers(3).collect(true).kernels(false);
        let shared = PsglShared::prepare(&graph, &pattern, &config).unwrap();
        let reference = whole(&shared, &config);
        assert!(reference.instance_count > 0, "{}: nothing to compare", pattern.name());
        for (name, cell) in CELLS {
            let context = format!("{} {name}", pattern.name());
            let got = cell(&shared, &config);
            assert_eq!(got.instance_count, reference.instance_count, "{context}");
            assert_eq!(got.instances, reference.instances, "{context}");
            assert_eq!(got.stats.chunks_outstanding, 0, "{context}");
            // Seeded too: the initialization superstep it skips touches
            // no expansion counter.
            assert_eq!(got.stats.expand, reference.stats.expand, "{context}");
        }

        // Harvest::PerVertex (`psgl count --per-vertex`): no tuples, the
        // same count and counters, and one tally per instance position.
        let request = RunRequest { harvest: Harvest::PerVertex, ..Default::default() };
        let tallied = run(&shared, &config, request).unwrap().completed();
        assert_eq!(tallied.instance_count, reference.instance_count);
        assert_eq!(tallied.stats.expand, reference.stats.expand);
        assert!(tallied.instances.is_none());
        let mut want = vec![0u64; graph.num_vertices()];
        for v in reference.instances.iter().flatten().flatten() {
            want[*v as usize] += 1;
        }
        assert_eq!(
            want.iter().sum::<u64>(),
            reference.instance_count * pattern.num_vertices() as u64
        );
        assert_eq!(tallied.per_vertex, Some(want));

        // The three wrappers the benchmark names are `run` with a default
        // request (plus hooks), unwrapped.
        let want = fingerprint_run(&reference);
        assert_eq!(fingerprint_run(&list_subgraphs(&graph, &pattern, &config).unwrap()), want);
        assert_eq!(fingerprint_run(&list_subgraphs_prepared(&shared, &config).unwrap()), want);
        let hooks = RunnerHooks { chunk_capacity: Some(32), ..Default::default() };
        let request = RunRequest { hooks: hooks.clone(), ..Default::default() };
        assert_eq!(
            fingerprint_run(&list_subgraphs_prepared_with(&shared, &config, &hooks).unwrap()),
            fingerprint_run(&run(&shared, &config, request).unwrap().completed()),
        );
    }
}

/// A run's messages carry each Gpsi at its pattern's width: 4 slots up to
/// four vertices, 8 up to eight, 12 beyond. Patterns on both sides of the
/// two boundaries run with kernels off, so that every Gpsi crosses the
/// message plane: resident, spilled under a live-chunk cap,
/// checkpoint-resumed and sliced. Each mode lists the oracle's instances
/// with the same counters, and the exchange moves each remote message as
/// one tuple of the width's size.
#[test]
fn every_message_width_lists_the_oracles_instances_in_every_mode() {
    let graph = erdos_renyi_gnm(40, 70, 5).unwrap();
    let tuple_bytes = [
        std::mem::size_of::<(VertexId, Gpsi<4>)>(),
        std::mem::size_of::<(VertexId, Gpsi<8>)>(),
        std::mem::size_of::<(VertexId, Gpsi<8>)>(),
        std::mem::size_of::<(VertexId, Gpsi)>(),
    ];
    assert_eq!(tuple_bytes, [28, 44, 44, 60]);
    let patterns = [catalog::square(), catalog::cycle(5), catalog::cycle(8), catalog::path(9)];
    for (pattern, tuple) in patterns.iter().zip(tuple_bytes) {
        let config = PsglConfig::with_workers(3).collect(true).kernels(false);
        let shared = PsglShared::prepare(&graph, pattern, &config).unwrap();
        let resident = whole(&shared, &config);
        let name = pattern.name();
        assert!(resident.instance_count > 0, "{name}: nothing to compare");
        assert_eq!(resident.instance_count, centralized::count(&graph, pattern), "{name}");
        let stats = &resident.stats;
        let remote = stats.messages - stats.messages_local;
        assert!(remote > 0, "{name}: no message crossed the exchange");
        assert_eq!(stats.bytes_exchanged, remote * tuple as u64, "{name}");
        let spilled = {
            let hooks = RunnerHooks {
                chunk_capacity: Some(16),
                max_live_chunks: Some(8),
                spill: Some(SpillConfig::in_temp()),
                ..Default::default()
            };
            list_subgraphs_prepared_with(&shared, &config, &hooks).unwrap()
        };
        assert!(spilled.stats.spill_chunks > 0, "{name}: the cap never bit");
        for (mode, got) in [
            ("spilled", spilled),
            ("resumed", resumed(&shared, &config)),
            ("sliced", sliced(&shared, &config)),
        ] {
            let context = format!("{name} {mode}");
            assert_eq!(got.instances, resident.instances, "{context}");
            assert_eq!(got.stats.expand, stats.expand, "{context}");
            assert_eq!(got.stats.messages, stats.messages, "{context}");
            assert_eq!(got.stats.messages_local, stats.messages_local, "{context}");
            assert_eq!(got.stats.bytes_exchanged, stats.bytes_exchanged, "{context}");
            assert_eq!(got.stats.supersteps, stats.supersteps, "{context}");
            assert_eq!(got.stats.chunks_outstanding, 0, "{context}");
        }
    }
}

/// Counting is not listing: a count-only run skips building the closed
/// instances and nothing else. On a hub-heavy graph these patterns reach
/// every place an instance is finished — the Close pair join (marked,
/// unmarked and hub-galloped), its unjoined final slot, the TwoHop wedge
/// join with one target and with two (squares and the 5- and 6-cycles,
/// whose count-only join counts an intersection) and, with kernels off,
/// the generic odometer — and each harvest mode must agree with the others
/// on every counter. A 5-clique binds through word masks with rows, a
/// 4-star through masks without any. The star and the cycles run on a
/// lighter graph, so that their instances number thousands to hundreds of
/// thousands, not millions; there a cycle's mapped vertices fall inside
/// the wedge window, so the join must not count them.
#[test]
fn every_harvest_mode_counts_the_same_instances() {
    let hubs = chung_lu(600, 6.0, 1.8, 1).unwrap();
    let light = chung_lu(300, 4.0, 2.2, 1).unwrap();
    let cases = [
        (catalog::triangle(), &hubs),
        (catalog::path(3), &hubs),
        (catalog::four_clique(), &hubs),
        (catalog::tailed_triangle(), &hubs),
        (catalog::square(), &hubs),
        (catalog::path(4), &hubs),
        (catalog::house(), &hubs),
        (catalog::clique(5), &hubs),
        (catalog::star(4), &light),
        (catalog::cycle(5), &light),
        (catalog::cycle(6), &light),
    ];
    for (pattern, graph) in cases {
        let np = pattern.num_vertices() as u64;
        for kernels in [true, false] {
            let context = format!("{} kernels={kernels}", pattern.name());
            let config = PsglConfig::with_workers(2).kernels(kernels);
            let shared = PsglShared::prepare(graph, &pattern, &config).unwrap();
            let counted = whole(&shared, &config);
            assert!(counted.instance_count > 0, "{context}: nothing to compare");
            assert!(counted.instances.is_none() && counted.per_vertex.is_none(), "{context}");

            let listed = whole(&shared, &config.clone().collect(true));
            let request = RunRequest { harvest: Harvest::PerVertex, ..Default::default() };
            let tallied = run(&shared, &config, request).unwrap().completed();
            for (mode, got) in [("collect", &listed), ("per-vertex", &tallied)] {
                assert_eq!(got.instance_count, counted.instance_count, "{context} {mode}");
                assert_eq!(got.stats.expand, counted.stats.expand, "{context} {mode}");
            }
            let instances = listed.instances.expect("collect(true) keeps the tuples");
            assert_eq!(instances.len() as u64, counted.instance_count, "{context}");
            let tallies = tallied.per_vertex.expect("Harvest::PerVertex keeps the tallies");
            assert_eq!(tallies.iter().sum::<u64>(), counted.instance_count * np, "{context}");
            let mut want = vec![0u64; graph.num_vertices()];
            for v in instances.iter().flatten() {
                want[*v as usize] += 1;
            }
            assert_eq!(tallies, want, "{context}");
        }
    }
}

/// Runs `shared` count-only, with `collect(true)` and with
/// `Harvest::PerVertex`, and requires one count (`want`), one set of
/// expansion counters, and a closing kernel that actually ran.
fn harvest_modes_agree(shared: &PsglShared<'_>, config: &PsglConfig, want: u64, context: &str) {
    let counted = whole(shared, config);
    assert_eq!(counted.instance_count, want, "{context}: the oracle disagrees");
    let expand = &counted.stats.expand;
    assert!(expand.kernel_close + expand.kernel_twohop > 0, "{context}: no kernel ran");
    let listed = whole(shared, &config.clone().collect(true));
    let request = RunRequest { harvest: Harvest::PerVertex, ..Default::default() };
    let tallied = run(shared, config, request).unwrap().completed();
    for (mode, got) in [("collect", &listed), ("per-vertex", &tallied)] {
        assert_eq!(got.instance_count, want, "{context} {mode}");
        assert_eq!(&got.stats.expand, expand, "{context} {mode}");
    }
    assert_eq!(listed.instances.map(|i| i.len() as u64), Some(want), "{context}");
}

/// Instances of `pattern` whose vertices carry the pattern's labels: the
/// oracle's label-respecting embeddings over the label-preserving
/// automorphisms.
fn labelled_oracle(graph: &DataGraph, pattern: &Pattern, labels: &[u16], plabels: &[u16]) -> u64 {
    let (mut steps, mut embeddings) = (0u64, 0u64);
    centralized::for_each_embedding(graph, pattern, &mut steps, &mut |m| {
        if m.iter().zip(plabels).all(|(&vd, &l)| labels[vd as usize] == l) {
            embeddings += 1;
        }
    });
    embeddings / automorphisms_labeled(pattern, plabels).len() as u64
}

/// The closing kernels work in rank space and cut a rank window out of a
/// sorted list. Two setups break the assumptions that would make a
/// shortcut there look safe. Ranks pinned on another graph (a
/// `DeltaGraph` epoch: the other graph's order patched with the edge
/// difference of the two graphs) make degree non-monotone in rank, so
/// the degree prefix a `partition_point` finds would be arbitrary and
/// could cut survivors: a square's, a 5-cycle's or a 6-cycle's two-target
/// wedge join must walk instead (`degree_sorted()` is false), neither
/// counting an intersection nor probing marks of its static target, which
/// also keeps its degree and order counters the walk's. Labels make the
/// wedge join check each candidate, so it may not count a slice.
/// In both, every harvest mode must agree on every counter, and the count
/// must be the oracle's.
#[test]
fn kernels_agree_when_ranks_do_not_follow_degree_and_with_labels() {
    let graph = chung_lu(300, 6.0, 1.8, 3).unwrap();
    let other = chung_lu(300, 6.0, 1.8, 4).unwrap();
    let now: BTreeSet<(u32, u32)> = graph.edges().collect();
    let then: BTreeSet<(u32, u32)> = other.edges().collect();
    let inserted: Vec<_> = now.difference(&then).copied().collect();
    let deleted: Vec<_> = then.difference(&now).copied().collect();
    let ordered = Arc::new(OrderedGraph::new(&other).with_batch(&inserted, &deleted).unwrap());
    assert_eq!(ordered.rank_graph().num_edges(), graph.num_edges());
    assert!(
        graph.edges().any(|(u, v)| graph.degree(u) < graph.degree(v) && ordered.less(v, u)),
        "the pinned ranks still follow degree"
    );
    assert!(!ordered.degree_sorted());
    let labels: Vec<u16> = graph.vertices().map(|v| (v % 2) as u16).collect();
    let histogram = DegreeStats::of_graph(&graph).histogram;
    let config = PsglConfig::with_workers(2);
    let patterns = [
        catalog::path(4),
        catalog::tailed_triangle(),
        catalog::square(),
        catalog::four_clique(),
        catalog::cycle(5),
        catalog::cycle(6),
    ];
    for pattern in patterns {
        let plan = QueryPlan::prepare(&pattern, &config, &histogram).unwrap();
        let index = Arc::new(EdgeIndex::build(&graph, config.index_bits_per_edge));
        let pinned = PsglShared::from_parts(&graph, Arc::clone(&ordered), Some(index), &plan);
        let want = centralized::count(&graph, &pattern);
        harvest_modes_agree(&pinned, &config, want, &format!("{} pinned ranks", pattern.name()));

        let plabels: Vec<u16> = (0..pattern.num_vertices()).map(|v| (v % 2) as u16).collect();
        let labelled =
            PsglShared::prepare_labeled(&graph, &pattern, &config, labels.clone(), plabels.clone())
                .unwrap();
        let want = labelled_oracle(&graph, &pattern, &labels, &plabels);
        harvest_modes_agree(&labelled, &config, want, &format!("{} labelled", pattern.name()));
    }
}

/// Golden pin on the order of `compute` calls. The random and roulette
/// distributors draw from a seeded RNG at every distribution choice, so
/// which worker each Gpsi lands on — and with it every per-worker cost,
/// message curve and the collected instance order — depends on the order
/// in which a worker's inbox reaches `compute`: ascending vertex, delivery
/// order within a vertex. A regroup that changes that order moves these.
/// `bytes_exchanged` is remote messages times the in-memory tuple size, so
/// it is hashed as the remote message count: a layout change is not an
/// order change.
#[test]
fn compute_call_order_is_pinned() {
    let graph = erdos_renyi_gnm(120, 700, 21).unwrap();
    let pattern = catalog::square();
    for (strategy, want) in [
        (Strategy::Random, 0x1445_28F4_2357_4032u64),
        (Strategy::RouletteWheel, 0x8E1D_A059_E7E5_B777),
    ] {
        let config = PsglConfig::with_workers(2).strategy(strategy).collect(true).kernels(false);
        let shared = PsglShared::prepare(&graph, &pattern, &config).unwrap();
        let mut result = whole(&shared, &config);
        result.stats.bytes_exchanged = result.stats.messages - result.stats.messages_local;
        let got = fingerprint_run(&result);
        assert_eq!(got, want, "{strategy:?}: {got:#018X}");
    }
}
