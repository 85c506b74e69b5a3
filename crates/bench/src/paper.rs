//! The paper's evaluation (Section 7), each figure, table and ablation
//! defined once.
//!
//! Every experiment is a function of a dataset scale and an optional case
//! subset that returns a [`Report`]: the rows it measured and the
//! [`Verdict`]s it checked against the paper's claims. The `exp` binary
//! prints the reports; `tests/paper_shapes.rs` runs the same functions at a
//! small scale on a case subset, so a tier-1 shape is a figure's verdict.
//!
//! Paper rows run the paper's Algorithm 1 (`kernels(false)`). Each case
//! also runs one [`EXTENSION`] row with the closing kernels (DESIGN.md
//! §12), an extension beyond the paper that no placement or pruning
//! verdict reads.
//!
//! A verdict that fails on purpose is a recorded deviation: its id is in
//! [`DEVIATIONS`], and EXPERIMENTS.md's inventory explains it. [`check`]
//! holds the list exact: an unlisted failure, a listed pass and a listed
//! id that names no verdict are each a problem. The verdicts of Fig. 7 and
//! Table 3 that compare speed read wall-clock times; every other verdict
//! reads deterministic counts and cost units.

use crate::datasets::{self, Dataset};
use crate::report::{banner_text, cells_text, header_text, sci, timed};
use psgl_baselines::{afrati, centralized, onehop, sgia};
use psgl_core::init_vertex::{CostModel, SelectionRule};
use psgl_core::{list_subgraphs, list_subgraphs_prepared, EdgeIndex, ListingResult};
use psgl_core::{PsglConfig, PsglError, PsglShared, Strategy};
use psgl_graph::{DataGraph, DegreeStats};
use psgl_mapreduce::MrError;
use psgl_pattern::automorphism::automorphisms;
use psgl_pattern::{catalog, Pattern, PatternVertex};
use std::fmt::Write;

/// The verdicts that fail at `PSGL_SCALE=1`: the deviations from the paper
/// that EXPERIMENTS.md's inventory records.
pub const DEVIATIONS: &[&str] = &[
    "fig3.wa05_best(WikiTalk~)",
    "fig8.efficiency_at_least_0_9_at_20_workers",
    "table2.noindex_clique_ooms",
    "table3.onehop_wins_triangles",
    "table4.onehop_ooms(LiveJournal~ PG4/4-clique)",
    "table4.onehop_completes_the_good_order",
    "table4.psgl_completes_every_row",
];

/// Row label of the one run per case with the closing kernels on, from the
/// automatic initial vertex with the default strategy (WA,0.5).
pub const EXTENSION: &str = "+kernels";

/// The cases to run: `None` runs every case with its [`EXTENSION`] row,
/// `Some(labels)` the paper rows of the cases whose label is listed. Each
/// experiment documents its labels.
pub type Cases<'a> = Option<&'a [&'a str]>;

/// A paper experiment: the dataset scale (`PSGL_SCALE`) and the cases.
pub type Experiment = fn(f64, Cases) -> Report;

/// Every experiment by id, in the order `exp all` runs them.
pub const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("fig3", fig3),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("table2", table2),
    ("table3", table3),
    ("table4", table4),
    ("bloom", bloom),
    ("automorphism", automorphism),
    ("initvertex", initvertex),
];

/// One printed line of a report.
pub enum Row {
    /// A free line: a case heading, a note or a blank line.
    Text(String),
    /// A table's header; the cell rows after it take its column widths.
    Header(Vec<(&'static str, usize)>),
    /// One table row.
    Cells(Vec<String>),
}

/// A paper claim checked against the rows.
#[derive(Debug)]
pub struct Verdict {
    /// `<experiment>.<claim>`, with the case in parentheses when the claim
    /// is checked per case.
    pub id: String,
    /// Whether the rows bear the claim out.
    pub pass: bool,
    /// The numbers the check read.
    pub read: String,
}

/// What one experiment measured and checked.
pub struct Report {
    /// The experiment's id: the prefix of its verdict ids.
    pub id: &'static str,
    banner: String,
    /// The measured rows, in print order.
    pub rows: Vec<Row>,
    /// The checked claims.
    pub verdicts: Vec<Verdict>,
}

impl Report {
    /// An empty report whose banner names `artifact` and its stand-ins.
    pub fn new<'a>(
        id: &'static str,
        artifact: &str,
        description: &str,
        scale: f64,
        stand_ins: impl IntoIterator<Item = &'a Dataset>,
    ) -> Report {
        let banner = banner_text(artifact, description, scale, stand_ins);
        Report { id, banner, rows: Vec::new(), verdicts: Vec::new() }
    }

    fn text(&mut self, line: impl Into<String>) {
        self.rows.push(Row::Text(line.into()));
    }

    fn header(&mut self, columns: &[(&'static str, usize)]) {
        self.rows.push(Row::Header(columns.to_vec()));
    }

    fn cells(&mut self, cells: impl IntoIterator<Item = String>) {
        self.rows.push(Row::Cells(cells.into_iter().collect()));
    }

    /// Records the claim `<id>.<claim>`, its outcome and what it read.
    pub fn verdict(&mut self, claim: &str, pass: bool, read: String) {
        self.verdicts.push(Verdict { id: format!("{}.{claim}", self.id), pass, read });
    }

    /// The banner, the rows, the extension note and one line per verdict.
    pub fn render(&self) -> String {
        let mut out = self.banner.clone();
        let mut columns: &[(&str, usize)] = &[];
        for row in &self.rows {
            let line = match row {
                Row::Text(line) => line.clone(),
                Row::Header(header) => {
                    columns = header;
                    header_text(columns)
                }
                Row::Cells(cells) => cells_text(columns, cells),
            };
            let _ = writeln!(out, "{line}");
        }
        let _ = writeln!(
            out,
            "\n({EXTENSION}: the closing kernels, an extension beyond the paper, with the default \
             strategy (WA,0.5); the other rows run the paper's Algorithm 1 with kernels off)"
        );
        for v in &self.verdicts {
            let outcome = if v.pass { "pass" } else { "FAIL" };
            let listed =
                if DEVIATIONS.contains(&v.id.as_str()) { " [listed deviation]" } else { "" };
            let _ = writeln!(out, "verdict {}: {outcome} ({}){listed}", v.id, v.read);
        }
        out
    }
}

/// The ways `reports` break the deviation rule against `listed`: a verdict
/// that fails without being listed, a listed verdict that passes, and a
/// listed id of an experiment among `reports` that names none of its
/// verdicts. Listed ids of experiments that did not run are not read.
pub fn check(reports: &[&Report], listed: &[&str]) -> Vec<String> {
    let verdicts = || reports.iter().flat_map(|r| &r.verdicts);
    let mut problems = Vec::new();
    for v in verdicts() {
        match (listed.contains(&v.id.as_str()), v.pass) {
            (false, false) => {
                problems.push(format!("{} fails and is not a listed deviation", v.id))
            }
            (true, true) => problems.push(format!("{} is a listed deviation but passes", v.id)),
            _ => {}
        }
    }
    for id in listed {
        let ran = reports.iter().any(|r| id.split('.').next() == Some(r.id));
        if ran && !verdicts().any(|v| v.id == *id) {
            problems.push(format!("listed deviation {id} names no verdict"));
        }
    }
    problems
}

fn wanted(cases: Cases, label: &str) -> bool {
    cases.is_none_or(|labels| labels.contains(&label))
}

fn size(ds: &Dataset) -> String {
    format!("{} vertices, {} edges", ds.graph.num_vertices(), ds.graph.num_edges())
}

/// The paper's Algorithm 1: the closing kernels off.
fn paper(workers: usize) -> PsglConfig {
    PsglConfig::with_workers(workers).kernels(false)
}

fn prepare<'g>(graph: &'g DataGraph, pattern: &Pattern, config: &PsglConfig) -> PsglShared<'g> {
    PsglShared::prepare(graph, pattern, config).expect("prepare")
}

fn listing(shared: &PsglShared<'_>, config: &PsglConfig) -> ListingResult {
    list_subgraphs_prepared(shared, config).expect("listing")
}

/// `None` where the run exceeded its Gpsi budget: the simulated OOM.
fn completed(run: Result<ListingResult, PsglError>) -> Option<ListingResult> {
    match run {
        Ok(result) => Some(result),
        Err(PsglError::OutOfMemory { .. }) => None,
        Err(e) => panic!("unexpected error: {e}"),
    }
}

fn run(graph: &DataGraph, pattern: &Pattern, config: &PsglConfig) -> Option<ListingResult> {
    completed(list_subgraphs_prepared(&prepare(graph, pattern, config), config))
}

/// The [`EXTENSION`] run of a case, with its wall time in milliseconds.
/// A case subset runs none: the subsets check the paper's verdicts, and no
/// verdict reads the extension.
fn extension<'g>(
    cases: Cases,
    graph: &'g DataGraph,
    pattern: &Pattern,
    workers: usize,
) -> Option<(PsglShared<'g>, ListingResult, f64)> {
    cases.is_none().then(|| {
        let config = PsglConfig::with_workers(workers);
        let shared = prepare(graph, pattern, &config);
        let (result, ms) = timed(|| listing(&shared, &config));
        (shared, result, ms)
    })
}

/// The kernels-off simulated makespan from each initial vertex, `None`
/// where the run exceeds 4 M Gpsis per worker (the paper cuts such bars
/// off at 100×).
fn every_init_vertex(graph: &DataGraph, pattern: &Pattern, workers: usize) -> Vec<Option<u64>> {
    let budget = |v| PsglConfig { gpsi_budget: Some(4_000_000), ..paper(workers).init_vertex(v) };
    let makespan = |v| run(graph, pattern, &budget(v)).map(|r| r.stats.simulated_makespan);
    pattern.vertices().map(makespan).collect()
}

/// Figure 3: the simulated makespan of the five distribution strategies,
/// PG2 on WebGoogle~, WikiTalk~ and UsPatent~ and PG4 on LiveJournal~
/// (cases: the graph names).
///
/// Paper: (WA,0.5) is best on the skewed graphs (≈77 % over Random on
/// WikiTalk, 11–23 % over the others), less so on the mildly skewed
/// UsPatent; on PG4 the strategies are close, since its later iterations
/// only verify.
pub fn fig3(scale: f64, cases: Cases) -> Report {
    let workers = 8;
    let all = [
        (datasets::webgoogle(scale), catalog::square()),
        (datasets::wikitalk(scale), catalog::square()),
        (datasets::uspatent(scale), catalog::square()),
        (datasets::livejournal(scale), catalog::four_clique()),
    ];
    let all: Vec<_> = all.into_iter().filter(|(ds, _)| wanted(cases, ds.name)).collect();
    let description = "runtime of distribution strategies (PG2 on WebGoogle/WikiTalk/UsPatent, \
                       PG4 on LiveJournal)";
    let mut report = Report::new("fig3", "Figure 3", description, scale, all.iter().map(|c| &c.0));
    for (ds, pattern) in &all {
        report.text(format!(
            "\n--- {pattern} on {} ({}, {workers} workers) ---",
            ds.name,
            size(ds)
        ));
        report.header(&[
            ("strategy", 10),
            ("makespan(cost)", 14),
            ("imbalance", 10),
            ("wall ms", 10),
            ("instances", 12),
        ]);
        let mut row = |name: &str, r: &ListingResult, ms: f64| {
            let (makespan, imbalance) = (r.stats.simulated_makespan, r.stats.cost_imbalance);
            let count = r.instance_count.to_string();
            let cells =
                [makespan.to_string(), format!("{imbalance:.3}"), format!("{ms:.0}"), count];
            report.cells([name.to_string()].into_iter().chain(cells));
            (name.to_string(), makespan, imbalance)
        };
        let config = paper(workers);
        let shared = prepare(&ds.graph, pattern, &config);
        let runs: Vec<_> = Strategy::paper_variants()
            .into_iter()
            .map(|(name, s)| {
                let (r, ms) = timed(|| listing(&shared, &config.clone().strategy(s)));
                row(name, &r, ms)
            })
            .collect();
        if let Some((_, r, ms)) = extension(cases, &ds.graph, pattern, workers) {
            row(EXTENSION, &r, ms);
        }
        let [random, roulette, wa1, wa0, wa] = &runs[..] else { unreachable!("five strategies") };
        // PG4's later iterations only verify: the placement claims are
        // about the PG2 cases.
        if pattern.is_clique() {
            continue;
        }
        report.verdict(
            &format!("wa05_beats_random_roulette({})", ds.name),
            [random, roulette].iter().all(|o| wa.1 < o.1 && wa.2 < o.2),
            format!(
                "makespan {} vs Random {}, Roulette {}; imbalance {:.3} vs {:.3}, {:.3}",
                wa.1, random.1, roulette.1, wa.2, random.2, roulette.2
            ),
        );
        let best = [random, roulette, wa1, wa0].into_iter().min_by_key(|o| o.1).unwrap();
        let read = format!("(WA,0.5) {} vs the best other, {} {}", wa.1, best.0, best.1);
        report.verdict(&format!("wa05_best({})", ds.name), wa.1 <= best.1, read);
    }
    report
}

/// Figure 5: each worker's Eq. 2 cost for PG2 on WikiTalk~ with 13 workers
/// (the paper's 52, scaled with the dataset), per strategy. One case: a
/// subset runs it without the extension row.
///
/// Paper: (WA,0.5) is balanced and minimizes the slowest worker; (WA,1)
/// balances into a worse optimum; (WA,0) leaves one straggler; Random and
/// Roulette have different stragglers.
pub fn fig5(scale: f64, cases: Cases) -> Report {
    let (ds, workers, pattern) = (datasets::wikitalk(scale), 13, catalog::square());
    let description = "per-worker cost for PG2 on WikiTalk, all strategies";
    let mut report = Report::new("fig5", "Figure 5", description, scale, [&ds]);
    report.text(format!("{} ({}), {workers} workers\n", ds.name, size(&ds)));
    let config = paper(workers);
    let shared = prepare(&ds.graph, &pattern, &config);
    let mut columns: Vec<(&str, Vec<u64>)> = Strategy::paper_variants()
        .into_iter()
        .map(|(name, s)| {
            (name, listing(&shared, &config.clone().strategy(s)).stats.per_worker_cost)
        })
        .collect();
    report.header(&[
        ("worker", 6),
        ("Random", 12),
        ("Roulette", 12),
        ("(WA,1)", 12),
        ("(WA,0)", 12),
        ("(WA,0.5)", 12),
    ]);
    for w in 0..workers {
        let costs = columns.iter().map(|(_, costs)| costs[w].to_string());
        report.cells([(w + 1).to_string()].into_iter().chain(costs));
    }
    report.text("");
    if let Some((_, r, _)) = extension(cases, &ds.graph, &pattern, workers) {
        columns.push((EXTENSION, r.stats.per_worker_cost));
    }
    report.header(&[("strategy", 10), ("max worker", 12), ("mean", 12), ("max/mean", 10)]);
    let mut spread = Vec::new();
    for (name, costs) in &columns {
        let max = *costs.iter().max().unwrap();
        let mean = costs.iter().sum::<u64>() as f64 / costs.len() as f64;
        spread.push(max as f64 / mean);
        let cells = [max.to_string(), format!("{mean:.0}"), format!("{:.3}", max as f64 / mean)];
        report.cells([name.to_string()].into_iter().chain(cells));
    }
    report.verdict(
        "wa05_max_over_mean_below_random_roulette",
        spread[4] < spread[0] && spread[4] < spread[1],
        format!("{:.3} vs Random {:.3}, Roulette {:.3}", spread[4], spread[0], spread[1]),
    );
    report
}

/// Figure 6: the makespan from each initial pattern vertex against the
/// best, PG1 and PG4 on LiveJournal~ and WebGoogle~, PG2 and PG4 on
/// WikiTalk~, PG1 and PG2 on RandGraph (cases: `"<graph> <pattern>"`).
///
/// Paper: large gaps on power-law graphs (8.5× for PG1 on LiveJournal, over
/// 100× on WikiTalk), v1 best for cycles and cliques (Theorem 5), and at
/// most ≈1.6× on the random graph.
pub fn fig6(scale: f64, cases: Cases) -> Report {
    let workers = 8;
    let [lj, wiki, web, rand] =
        [datasets::livejournal, datasets::wikitalk, datasets::webgoogle, datasets::randgraph]
            .map(|dataset| dataset(scale));
    let (triangle, square, clique) =
        (catalog::triangle(), catalog::square(), catalog::four_clique());
    let all = [
        (&lj, &triangle),
        (&lj, &clique),
        (&wiki, &square),
        (&wiki, &clique),
        (&web, &triangle),
        (&web, &clique),
        (&rand, &triangle),
        (&rand, &square),
    ];
    let label = |ds: &Dataset, pattern: &Pattern| format!("{} {pattern}", ds.name);
    let all: Vec<_> = all.into_iter().filter(|(ds, p)| wanted(cases, &label(ds, p))).collect();
    let description = "runtime ratio of each initial pattern vertex vs the best";
    let mut report = Report::new("fig6", "Figure 6", description, scale, all.iter().map(|c| c.0));
    for (ds, pattern) in all {
        report.text(format!("\n--- {pattern} on {} ({}) ---", ds.name, size(ds)));
        report.header(&[("init vertex", 16), ("makespan(cost)", 14), ("ratio to best", 14)]);
        let makespans = every_init_vertex(&ds.graph, pattern, workers);
        let best = makespans.iter().flatten().copied().min().unwrap_or(u64::MAX);
        let ratio = |m: u64| m as f64 / best as f64;
        for (v, makespan) in makespans.iter().enumerate() {
            report.cells(match makespan {
                Some(m) => [format!("v{}", v + 1), m.to_string(), format!("{:.2}", ratio(*m))],
                None => [format!("v{}", v + 1), "OOM".into(), ">100".into()],
            });
        }
        if let Some((shared, r, _)) = extension(cases, &ds.graph, pattern, workers) {
            let (v, m) = (shared.init_vertex + 1, r.stats.simulated_makespan);
            report.cells([format!("v{v}{EXTENSION}"), m.to_string(), format!("{:.2}", ratio(m))]);
        }
        let worst = makespans.iter().map(|m| m.unwrap_or(u64::MAX)).max().unwrap();
        let v1 = makespans[0].unwrap_or(u64::MAX);
        let (claim, pass, read) = if ds.name == "RandGraph" {
            ("gap_within_3_5x", ratio(worst) <= 3.5, format!("worst/best {:.2}", ratio(worst)))
        } else {
            let read = format!("v1 {v1}, best {best}: {:.3}", ratio(v1));
            ("v1_within_15pct_of_best", ratio(v1) <= 1.15, read)
        };
        report.verdict(&format!("{claim}({})", label(ds, pattern)), pass, read);
    }
    report
}

/// Shuffle cap for the MapReduce systems (records); ≈1 GB of join state.
const SHUFFLE_BUDGET: u64 = 25_000_000;

/// SGIA per-reducer work cutoff. Charged cost bounds each reducer's join
/// *output* (emitted records never exceed charged cost), so this doubles
/// as the per-reducer memory cap that keeps parallel hub joins from
/// exhausting real memory before any check fires.
const SGIA_COST_BUDGET: u64 = 15_000_000;

/// Afrati per-reducer work cutoff — a pure time bound (its reducers emit
/// only counts), the deterministic analog of the paper's four-hour limit.
const AFRATI_COST_BUDGET: u64 = 150_000_000;

/// Afrati reducer-grid target: 64 gives shares b=4 for triangles and b=2
/// for 4-vertex patterns (b=1 would collapse the hypercube to a single
/// reducer and make per-reducer budgets meaningless).
const AFRATI_REDUCERS: usize = 64;

/// A MapReduce baseline's outcome: its instance count and wall time, or
/// the cell of the budget that cut it off (`OOM` for the shuffle, `DNF`
/// for the work cutoff).
type Baseline = Result<(u64, f64), &'static str>;

/// A MapReduce run as a [`Baseline`] and its shuffle-volume cell.
fn baseline(run: Result<(u64, u64), MrError>, ms: f64) -> (Baseline, String) {
    match run {
        Ok((count, shuffle)) => (Ok((count, ms)), sci(shuffle)),
        Err(MrError::ShuffleBudgetExceeded { records, .. }) => {
            (Err("OOM"), format!(">{}", sci(records)))
        }
        Err(MrError::CostBudgetExceeded { .. }) => (Err("DNF"), "-".into()),
    }
}

/// Figure 7: wall time of Afrati and SGIA-MR against PSgL, PG1–PG4 on
/// LiveJournal~, WikiTalk~, WebGoogle~ and UsPatent~ at 0.25× the scale
/// (cases: `"<graph> <pattern>"`). The join baselines' intermediates
/// outgrow one machine beyond it, which is the paper's criticism.
///
/// Paper: PSgL gains ≈90 % on average; the two MapReduce systems trade
/// places across datasets; some baseline runs do not finish in four hours
/// (here: a per-reducer work cutoff, DNF, or a shuffle budget, OOM).
pub fn fig7(scale: f64, cases: Cases) -> Report {
    let (scale, workers) = (scale * 0.25, 8);
    let graphs =
        [datasets::livejournal, datasets::wikitalk, datasets::webgoogle, datasets::uspatent]
            .map(|dataset| dataset(scale));
    let patterns = [
        catalog::triangle(),
        catalog::square(),
        catalog::tailed_triangle(),
        catalog::four_clique(),
    ];
    let all: Vec<_> = patterns
        .iter()
        .flat_map(|p| graphs.iter().map(move |g| (format!("{} {p}", g.name), g, p)))
        .filter(|(label, ..)| wanted(cases, label))
        .collect();
    let description = "runtime ratio among PSgL, Afrati and SGIA-MR (PG1-PG4)";
    let mut report = Report::new("fig7", "Figure 7", description, scale, all.iter().map(|c| c.1));
    report.header(&[
        ("case", 38),
        ("instances", 11),
        ("PSgL ms", 9),
        ("Afrati/PSgL", 12),
        ("SGIA/PSgL", 10),
        ("Afrati shfl", 12),
        ("SGIA shfl", 10),
    ]);
    let (mut mismatched, mut unfinished, mut sgia_ahead) = (vec![], 0, vec![]);
    let mut slowest_win = (f64::INFINITY, String::new());
    for (label, ds, pattern) in &all {
        let config = paper(workers);
        let shared = prepare(&ds.graph, pattern, &config);
        let (psgl, psgl_ms) = timed(|| listing(&shared, &config));
        let ext = extension(cases, &ds.graph, pattern, workers);
        let (af, af_ms) = timed(|| {
            let budgets = (Some(SHUFFLE_BUDGET), Some(AFRATI_COST_BUDGET));
            afrati::run_with_budgets(&ds.graph, pattern, AFRATI_REDUCERS, budgets.0, budgets.1)
                .map(|r| (r.instance_count, r.metrics.shuffle_records))
        });
        let (sg, sg_ms) = timed(|| {
            let budgets = (Some(SHUFFLE_BUDGET), Some(SGIA_COST_BUDGET));
            sgia::run_with_budgets(&ds.graph, pattern, workers, budgets.0, budgets.1)
                .map(|r| (r.instance_count, r.rounds.iter().map(|m| m.shuffle_records).sum()))
        });
        let ((af, af_shfl), (sg, sg_shfl)) = (baseline(af, af_ms), baseline(sg, sg_ms));
        let finished: Vec<_> = [af, sg].into_iter().flatten().collect();
        unfinished += 2 - finished.len();
        let ext_count = ext.as_ref().map(|(_, r, _)| r.instance_count);
        let mut counts = finished.iter().map(|&(count, _)| count).chain(ext_count);
        if counts.any(|count| count != psgl.instance_count) {
            mismatched.push(label.clone());
        }
        for &(_, ms) in &finished {
            if ms / psgl_ms < slowest_win.0 {
                slowest_win = (ms / psgl_ms, label.clone());
            }
        }
        if let (Ok((_, af_ms)), Ok((_, sg_ms))) = (af, sg) {
            sgia_ahead.push(sg_ms < af_ms);
        }
        let mut row = |name: String, count: u64, ms: f64, shuffles: [String; 2]| {
            let ratio =
                |wall: Baseline| wall.map_or_else(str::to_string, |w| format!("{:.2}", w.1 / ms));
            let cells = [sci(count), format!("{ms:.0}"), ratio(af), ratio(sg)];
            report.cells([name].into_iter().chain(cells).chain(shuffles));
        };
        row(label.clone(), psgl.instance_count, psgl_ms, [af_shfl, sg_shfl]);
        if let Some((_, ext, ms)) = ext {
            row(format!("{label}{EXTENSION}"), ext.instance_count, ms, ["-".into(), "-".into()]);
        }
    }
    let runs = 2 * all.len();
    let read = format!("{} cases; counts differ on {mismatched:?}", all.len());
    report.verdict("same_counts", mismatched.is_empty(), read);
    let read = format!("{unfinished} of {runs} baseline runs cut off");
    report.verdict("some_baseline_runs_do_not_finish", unfinished > 0, read);
    let read =
        format!("smallest baseline/PSgL wall ratio {:.2} on {}", slowest_win.0, slowest_win.1);
    report.verdict("psgl_faster_than_every_finished_baseline", slowest_win.0 > 1.0, read);
    let sgia = sgia_ahead.iter().filter(|&&ahead| ahead).count();
    let read = format!("SGIA-MR faster on {sgia} of the {} cases both finish", sgia_ahead.len());
    report.verdict("baselines_trade_places", sgia > 0 && sgia < sgia_ahead.len(), read);
    report
}

/// Figure 8: the makespan of PG2 on WikiTalk~ from 10 to 80 workers
/// against ideal linear scaling from the smallest count that runs (cases:
/// the worker counts, `"10"` to `"80"`).
///
/// Paper: 1691 s at 10 workers and 845 s at 20, close to the ideal curve,
/// with slightly diminishing returns at 80.
pub fn fig8(scale: f64, cases: Cases) -> Report {
    let (ds, pattern) = (datasets::wikitalk(scale), catalog::square());
    let description = "PG2 on WikiTalk, workers 10..80 vs ideal linear scaling";
    let mut report = Report::new("fig8", "Figure 8", description, scale, [&ds]);
    report.text(format!("{} ({})\n", ds.name, size(&ds)));
    report.header(&[
        ("workers", 8),
        ("makespan(cost)", 14),
        ("ideal", 14),
        ("efficiency", 11),
        ("total cost", 14),
    ]);
    let mut rows: Vec<(usize, u64, f64)> = Vec::new();
    for workers in (10..=80).step_by(10).filter(|w: &usize| wanted(cases, &w.to_string())) {
        let r = listing(&prepare(&ds.graph, &pattern, &paper(workers)), &paper(workers));
        let makespan = r.stats.simulated_makespan;
        let ideal = rows.first().map_or(makespan, |&(w0, m0, _)| m0 * w0 as u64 / workers as u64);
        let efficiency = ideal as f64 / makespan as f64;
        let cost = r.stats.expand.cost.to_string();
        let cells = [makespan.to_string(), ideal.to_string(), format!("{efficiency:.2}"), cost];
        report.cells([workers.to_string()].into_iter().chain(cells));
        rows.push((workers, makespan, efficiency));
    }
    let w0 = rows.first().map_or(10, |row| row.0);
    if let Some((_, r, _)) = extension(cases, &ds.graph, &pattern, w0) {
        let (makespan, cost) = (r.stats.simulated_makespan, r.stats.expand.cost);
        let cells = [makespan.to_string(), "-".into(), "-".into(), cost.to_string()];
        report.cells([format!("{w0}{EXTENSION}")].into_iter().chain(cells));
    }
    // One verdict per doubling: at scale 0.1 the makespan rises from 40 to
    // 80 workers (70 024 to 70 183) while every other doubling falls.
    for &(w, m, _) in &rows {
        if let Some(&(w2, m2, _)) = rows.iter().find(|r| r.0 == 2 * w) {
            let claim = format!("makespan_falls_when_workers_double({w} to {w2})");
            report.verdict(&claim, m2 < m, format!("{m} to {m2}"));
        }
    }
    if let Some(&(_, _, efficiency)) = rows.iter().find(|r| r.0 == 20) {
        let claim = "efficiency_at_least_0_9_at_20_workers";
        report.verdict(claim, efficiency >= 0.9, format!("{efficiency:.2}"));
    }
    report
}

/// Table 2: the Gpsis generated with and without the light-weight edge
/// index, PG1(v1) and PG4(v1) on LiveJournal~, PG5(v1) and PG5(v3) on
/// UsPatent~ (cases: `"<graph> <pattern>(v<n>)"`).
///
/// Paper: 58–93 % pruning; PG4 without the index runs out of memory.
pub fn table2(scale: f64, cases: Cases) -> Report {
    let workers = 8;
    let [lj, us] = [datasets::livejournal(scale), datasets::uspatent(scale)];
    // The paper's OOM row: the 4-clique without the index on LiveJournal,
    // under a per-worker budget that the indexed run stays within.
    let all: [(&Dataset, Pattern, PatternVertex, Option<u64>); 4] = [
        (&lj, catalog::triangle(), 0, None),
        (&lj, catalog::four_clique(), 0, Some(4_000_000)),
        (&us, catalog::house(), 0, None),
        (&us, catalog::house(), 2, None),
    ];
    let label = |ds: &Dataset, p: &Pattern, init: u8| format!("{} {p}(v{})", ds.name, init + 1);
    let all: Vec<_> = all.into_iter().filter(|c| wanted(cases, &label(c.0, &c.1, c.2))).collect();
    let description = "pruning ratio of the light-weight edge index";
    let mut report = Report::new("table2", "Table 2", description, scale, all.iter().map(|c| c.0));
    report.header(&[
        ("graph", 13),
        ("pattern", 26),
        ("Gpsi# w/ index", 15),
        ("Gpsi# w/o index", 16),
        ("pruning ratio", 14),
    ]);
    for (ds, pattern, init, budget) in all {
        for kernels in [false, true].into_iter().filter(|&on| !on || cases.is_none()) {
            let generated = |index: bool, gpsi_budget: Option<u64>| {
                let config = paper(workers).init_vertex(init).edge_index(index).kernels(kernels);
                let config = PsglConfig { gpsi_budget, ..config };
                run(&ds.graph, &pattern, &config).map(|r| r.stats.expand.generated)
            };
            let with = generated(true, None).expect("indexed run fits in memory");
            let without = generated(false, budget);
            let pruned = without.map(|wo| 100.0 * (wo.saturating_sub(with)) as f64 / wo as f64);
            let half = without.is_some_and(|wo| 2 * wo.saturating_sub(with) >= wo);
            let pruned = pruned.map_or("unknown".into(), |p| format!("{p:.2}%"));
            let (with, without) = (sci(with), without.map_or("OOM".into(), sci));
            let name = format!("{pattern}(v{}){}", init + 1, if kernels { EXTENSION } else { "" });
            report.cells([ds.name.into(), name, with.clone(), without.clone(), pruned.clone()]);
            if kernels {
                continue;
            }
            let read = format!("{pruned} of {without} Gpsis pruned");
            report.verdict(
                &format!("index_prunes_half({})", label(ds, &pattern, init)),
                half,
                read,
            );
            if let Some(budget) = budget {
                let read =
                    format!("{without} Gpsis w/o index, {with} w/, budget {budget} per worker");
                report.verdict("noindex_clique_ooms", without == "OOM", read);
            }
        }
    }
    report
}

/// Table 3: triangle listing on Twitter~ and Wikipedia~ by Afrati, the
/// one-hop engine (~ PowerGraph), the centralized counter (~ GraphChi) and
/// PSgL, in wall-clock ms (cases: the graph names).
///
/// Paper: PSgL beats the MapReduce join and the centralized system, while
/// the one-hop engine, whose index is a triangle oracle, wins this special
/// case by 4–6×.
pub fn table3(scale: f64, cases: Cases) -> Report {
    let (workers, pattern) = (8, catalog::triangle());
    let stand_ins = [datasets::twitter(scale), datasets::wikipedia(scale)];
    let stand_ins: Vec<_> = stand_ins.into_iter().filter(|ds| wanted(cases, ds.name)).collect();
    let description = "triangle listing on the large graphs (Twitter~, Wikipedia~)";
    let mut report = Report::new("table3", "Table 3", description, scale, &stand_ins);
    report.header(&[
        ("graph", 20),
        ("triangles", 11),
        ("Afrati ms", 10),
        ("OneHop ms", 10),
        ("Centrl ms", 10),
        ("PSgL ms", 9),
    ]);
    let (mut same, mut afrati_slower, mut onehop_faster, mut walls) = (true, true, true, vec![]);
    let ms = |ms: f64| format!("{ms:.0}");
    for ds in &stand_ins {
        let g = &ds.graph;
        let (psgl, psgl_ms) = timed(|| list_subgraphs(g, &pattern, &paper(workers)).expect("psgl"));
        let (af, af_ms) = timed(|| afrati::run(g, &pattern, workers, None).expect("afrati"));
        let order = onehop::natural_order(&pattern);
        let oh_config = onehop::OneHopConfig { order, intermediate_budget: None };
        let (oh, oh_ms) = timed(|| onehop::run(g, &pattern, &oh_config).expect("onehop"));
        let (cn, cn_ms) = timed(|| centralized::count_triangles(g));
        let count = psgl.instance_count;
        same &= [af.instance_count, oh.instance_count, cn] == [count; 3];
        afrati_slower &= af_ms > psgl_ms;
        onehop_faster &= oh_ms < psgl_ms;
        walls.push(format!("{}: PSgL {psgl_ms:.0}, Afrati {af_ms:.0}, OneHop {oh_ms:.0}", ds.name));
        let cells = [count.to_string(), ms(af_ms), ms(oh_ms), ms(cn_ms), ms(psgl_ms)];
        report.cells([ds.name.to_string()].into_iter().chain(cells));
        if cases.is_none() {
            let config = PsglConfig::with_workers(workers);
            let (ext, ext_ms) = timed(|| list_subgraphs(g, &pattern, &config).expect("psgl"));
            same &= ext.instance_count == count;
            let cells = [ext.instance_count.to_string(), "-".into(), "-".into(), "-".into()];
            report.cells(
                [format!("{}{EXTENSION}", ds.name)].into_iter().chain(cells).chain([ms(ext_ms)]),
            );
        }
    }
    report.text("\n(column mapping: OneHop ~ PowerGraph, Centrl ~ GraphChi)");
    let walls = format!("ms {}", walls.join("; "));
    report.verdict("same_counts", same, "every system on every graph".into());
    report.verdict("psgl_faster_than_afrati", afrati_slower, walls.clone());
    report.verdict("onehop_wins_triangles", onehop_faster, walls);
    report
}

/// Table 4: general patterns on the one-hop engine with fixed traversal
/// orders, against Afrati and PSgL (cases: `"<graph> <pattern> <order>"`).
///
/// Paper: the one-hop engine handles simple patterns but runs out of
/// memory on PG4 on LiveJournal and PG5 on WebGoogle, where no global
/// edge index stops invalid intermediates; PG3's traversal order decides
/// whether it finishes (`2->3->1->4` does, `4->2->1->3` does not); PSgL
/// completes every row with one configuration. The one-hop engine here
/// models the intermediate volume (the OOM mechanism), not PowerGraph's
/// engine constant.
pub fn table4(scale: f64, cases: Cases) -> Report {
    let workers = 8;
    // Budgets model real node memory, not tuned thresholds: the one-hop
    // engine may hold 50M intermediate embeddings (~2 GB), PSgL 3M Gpsis
    // per worker, Afrati 150M join steps per reducer (the time cutoff; its
    // reducers emit only counts). The PG5 case runs at 0.1x because its
    // result set alone outgrows a single host.
    let budget = 50_000_000;
    let [wiki, lj] = [datasets::wikitalk(scale), datasets::livejournal(scale)];
    let web = datasets::webgoogle(scale * 0.1);
    let (paw, clique) = (catalog::tailed_triangle(), catalog::four_clique());
    let all: [(&Dataset, Pattern, &[PatternVertex], &str); 6] = [
        (&wiki, catalog::square(), &[0, 1, 2, 3], "1->2->3->4"),
        (&wiki, paw.clone(), &[1, 2, 0, 3], "2->3->1->4 (good)"),
        (&wiki, paw, &[3, 1, 0, 2], "4->2->1->3 (bad)"),
        (&wiki, clique.clone(), &[0, 1, 2, 3], "1->2->3->4"),
        (&lj, clique, &[0, 1, 2, 3], "1->2->3->4"),
        (&web, catalog::house(), &[0, 2, 3, 1, 4], "1->3->4->2->5"),
    ];
    let label = |c: &(&Dataset, Pattern, _, &str)| format!("{} {} {}", c.0.name, c.1, c.3);
    let all: Vec<_> = all.into_iter().filter(|c| wanted(cases, &label(c))).collect();
    let description = "general pattern listing comparison (fixed orders, OOM rows)";
    let mut report = Report::new("table4", "Table 4", description, scale, all.iter().map(|c| c.0));
    report.header(&[
        ("case", 42),
        ("order", 18),
        ("Afrati ms", 10),
        ("OneHop ms", 12),
        ("OneHop peak", 12),
        ("PSgL ms", 9),
    ]);
    let (mut mismatched, mut psgl_oom, mut onehop) = (vec![], vec![], vec![]);
    for case in &all {
        let (ds, pattern, order, order_name) = case;
        let g = &ds.graph;
        let psgl = |kernels: bool| {
            let config =
                PsglConfig { gpsi_budget: Some(3_000_000), ..paper(workers).kernels(kernels) };
            let (psgl, ms) = timed(|| completed(list_subgraphs(g, pattern, &config)));
            psgl.map(|r| (r.instance_count, ms))
        };
        let (paper_run, ext) = (psgl(false), cases.is_none().then(|| psgl(true)));
        let (af, af_ms) = timed(|| {
            let budgets = (Some(budget), Some(AFRATI_COST_BUDGET));
            afrati::run_with_budgets(g, pattern, AFRATI_REDUCERS, budgets.0, budgets.1)
        });
        let af = baseline(af.map(|r| (r.instance_count, 0)), af_ms).0;
        let oh_config =
            onehop::OneHopConfig { order: order.to_vec(), intermediate_budget: Some(budget) };
        let (oh, oh_ms) = timed(|| onehop::run(g, pattern, &oh_config));
        let (oh, peak) = match oh {
            Ok(r) => (Some((r.instance_count, oh_ms)), r.peak_intermediate),
            Err(onehop::OneHopError::OutOfMemory { intermediates, .. }) => (None, intermediates),
            Err(e) => panic!("unexpected: {e}"),
        };
        let counts = [paper_run, ext.flatten(), af.ok(), oh].into_iter().flatten().map(|r| r.0);
        if counts.collect::<std::collections::BTreeSet<_>>().len() > 1 {
            mismatched.push(label(case));
        }
        if paper_run.is_none() {
            psgl_oom.push(label(case));
        }
        onehop.push((label(case), oh.is_some(), peak));
        // A run cut off reports the intermediates alive when it tripped.
        let peak = if oh.is_some() { sci(peak) } else { format!(">{}", sci(peak)) };
        let wall = |run: Option<(u64, f64)>| run.map_or("OOM".into(), |r| format!("{:.0}", r.1));
        let af_cell = af.map_or_else(str::to_string, |r| format!("{:.0}", r.1));
        let name = format!("{} {pattern}", ds.name);
        let cells = [order_name.to_string(), af_cell, wall(oh), peak, wall(paper_run)];
        report.cells([name.clone()].into_iter().chain(cells));
        if let Some(ext) = ext {
            let cells = [order_name.to_string(), "-".into(), "-".into(), "-".into(), wall(ext)];
            report.cells([format!("{name}{EXTENSION}")].into_iter().chain(cells));
        }
    }
    report.verdict("same_counts", mismatched.is_empty(), format!("differ on {mismatched:?}"));
    let read = format!("kernels off OOM on {psgl_oom:?}");
    report.verdict("psgl_completes_every_row", psgl_oom.is_empty(), read);
    let onehop = |case: &str| onehop.iter().find(|o| o.0 == case).map(|o| (o.1, o.2));
    for case in ["LiveJournal~ PG4/4-clique 1->2->3->4", "WebGoogle~ PG5/house 1->3->4->2->5"] {
        if let Some((finished, peak)) = onehop(case) {
            let claim = format!("onehop_ooms({})", case.rsplit_once(' ').unwrap().0);
            report.verdict(&claim, !finished, format!("finished {finished}, peak {}", sci(peak)));
        }
    }
    let good = onehop("WikiTalk~ PG3/tailed-triangle 2->3->1->4 (good)");
    let bad = onehop("WikiTalk~ PG3/tailed-triangle 4->2->1->3 (bad)");
    if let Some((finished, peak)) = good {
        let read = format!("finished {finished}, peak {}", sci(peak));
        report.verdict("onehop_completes_the_good_order", finished, read);
    }
    if let (Some((_, good)), Some((bad_finished, bad))) = (good, bad) {
        let read =
            format!("bad order finished {bad_finished}, peak {} vs good {}", sci(bad), sci(good));
        report.verdict("bad_order_ooms_with_a_higher_peak", !bad_finished && bad > good, read);
    }
    report
}

/// Ablation, Section 5.2.3's "adjustable precision": the bloom index at 2
/// to 24 bits per edge against no index, PG2 on LiveJournal~ (cases: the
/// bit counts; the no-index row always runs).
///
/// Expected: even a coarse index collapses the invalid-Gpsi volume, and
/// past ~10 bits per edge the returns diminish while memory grows.
pub fn bloom(scale: f64, cases: Cases) -> Report {
    let (ds, pattern, workers) = (datasets::livejournal(scale), catalog::square(), 8);
    let description = "edge-index precision sweep (bits per edge)";
    let mut report = Report::new("bloom", "Ablation", description, scale, [&ds]);
    report.text(format!("{} ({} edges), {pattern}\n", ds.name, ds.graph.num_edges()));
    report.header(&[
        ("bits/edge", 10),
        ("measured fpr", 13),
        ("index KiB", 10),
        ("Gpsi generated", 15),
        ("total cost", 12),
        ("wall ms", 9),
    ]);
    let mut row = |bits: String, fpr: String, shared: &PsglShared<'_>, r: &ListingResult, ms| {
        let kib = shared.index.as_ref().map_or(0, |index| index.memory_bytes() / 1024);
        let (generated, cost) = (r.stats.expand.generated, r.stats.expand.cost);
        let cells = [kib.to_string(), sci(generated), sci(cost), format!("{ms:.0}")];
        report.cells([bits, fpr].into_iter().chain(cells));
        generated
    };
    let config = paper(workers).edge_index(false);
    let shared = prepare(&ds.graph, &pattern, &config);
    let (r, ms) = timed(|| listing(&shared, &config));
    let (reference, none) = (r.instance_count, row("none".into(), "-".into(), &shared, &r, ms));
    let mut eight = None;
    for bits in [2usize, 4, 8, 12, 16, 24].into_iter().filter(|b| wanted(cases, &b.to_string())) {
        let config = PsglConfig { index_bits_per_edge: bits, ..paper(workers) };
        let shared = prepare(&ds.graph, &pattern, &config);
        let fpr = EdgeIndex::build(&ds.graph, bits).measured_fpr(&ds.graph, 50_000, 1);
        let (r, ms) = timed(|| listing(&shared, &config));
        assert_eq!(r.instance_count, reference, "precision must not change results");
        let generated = row(bits.to_string(), format!("{fpr:.4}"), &shared, &r, ms);
        eight = eight.or((bits == 8).then_some(generated));
    }
    if let Some((shared, r, ms)) = extension(cases, &ds.graph, &pattern, workers) {
        assert_eq!(r.instance_count, reference, "the kernels must not change results");
        let bits = PsglConfig::with_workers(workers).index_bits_per_edge;
        row(format!("{bits}{EXTENSION}"), "-".into(), &shared, &r, ms);
    }
    if let Some(eight) = eight {
        let read = format!("{eight} Gpsis at 8 bits, {none} with no index");
        report.verdict("eight_bits_generate_fewer_gpsis_than_none", eight < none, read);
    }
    report
}

/// Ablation, Section 5.2.1: automorphism breaking on and off for PG1–PG3
/// on UsPatent~ (cases: the pattern names).
///
/// Expected: without the partial orders every instance is found once per
/// automorphism, and the cost inflates by roughly |Aut(Gp)|.
pub fn automorphism(scale: f64, cases: Cases) -> Report {
    let (ds, workers) = (datasets::uspatent(scale), 8);
    let description = "automorphism breaking on/off";
    let mut report = Report::new("automorphism", "Ablation", description, scale, [&ds]);
    report.text(format!("{} ({})\n", ds.name, size(&ds)));
    report.header(&[
        ("pattern", 28),
        ("|Aut|", 6),
        ("instances", 11),
        ("dup found", 11),
        ("cost x", 7),
        ("Gpsi x", 7),
        ("wall x", 7),
    ]);
    let patterns = [catalog::triangle(), catalog::square(), catalog::tailed_triangle()];
    let mut factors = Vec::new();
    for pattern in patterns.into_iter().filter(|p| wanted(cases, &p.to_string())) {
        let aut = automorphisms(&pattern).len() as u64;
        for kernels in [false, true].into_iter().filter(|&on| !on || cases.is_none()) {
            let on = PsglConfig::with_workers(workers).kernels(kernels);
            let off = PsglConfig { break_automorphisms: false, ..on.clone() };
            let shared = [prepare(&ds.graph, &pattern, &on), prepare(&ds.graph, &pattern, &off)];
            let (r_on, ms_on) = timed(|| listing(&shared[0], &on));
            let (r_off, ms_off) = timed(|| listing(&shared[1], &off));
            let (e_on, e_off) = (r_on.stats.expand, r_off.stats.expand);
            report.cells([
                format!("{pattern}{}", if kernels { EXTENSION } else { "" }),
                aut.to_string(),
                sci(r_on.instance_count),
                sci(r_off.instance_count),
                format!("{:.1}", e_off.cost as f64 / e_on.cost as f64),
                format!("{:.1}", e_off.generated as f64 / e_on.generated as f64),
                format!("{:.1}", ms_off / ms_on),
            ]);
            factors.push((r_off.instance_count, aut, r_on.instance_count));
        }
    }
    let read: Vec<_> = factors.iter().map(|(d, a, i)| format!("{d} = {a}x{i}")).collect();
    let exact = factors.iter().all(|&(dup, aut, instances)| dup == aut * instances);
    report.verdict("duplicates_are_aut_times_instances", exact, read.join(", "));
    report
}

/// Ablation, Algorithm 4: the automatic initial vertex (Theorem 5's rule
/// for cycles and cliques, the cost model otherwise) and the cost model's
/// own pick against the best vertex found by trying every one, PG1–PG5 on
/// WebGoogle~ and RandGraph at 0.35× the scale (cases:
/// `"<graph> <pattern>"`).
pub fn initvertex(scale: f64, cases: Cases) -> Report {
    let (scale, workers) = (scale * 0.35, 8);
    let stand_ins = [datasets::webgoogle(scale), datasets::randgraph(scale)];
    let description = "cost-model initial-vertex choice vs measured optimum";
    let mut report = Report::new("initvertex", "Ablation", description, scale, &stand_ins);
    report.header(&[
        ("case", 40),
        ("auto pick", 10),
        ("model pick", 11),
        ("true best", 10),
        ("auto/best", 10),
    ]);
    let mut rule = Vec::new();
    for ds in &stand_ins {
        let stats = DegreeStats::of_graph(&ds.graph);
        for pattern in catalog::paper_patterns() {
            let label = format!("{} {pattern}", ds.name);
            if !wanted(cases, &label) {
                continue;
            }
            let auto = prepare(&ds.graph, &pattern, &paper(workers));
            if pattern.is_cycle() || pattern.is_clique() {
                rule.push((label.clone(), auto.selection_rule));
            }
            let measured = every_init_vertex(&ds.graph, &pattern, workers);
            let finished = measured.iter().enumerate().filter_map(|(v, m)| m.map(|m| (v, m)));
            let Some((best_v, best)) = finished.min_by_key(|&(_, m)| m) else {
                let oom = || "OOM".to_string();
                report.cells([label, oom(), oom(), oom(), "-".into()]);
                continue;
            };
            let model = CostModel::new(&pattern, &stats.histogram);
            let estimate = |&v: &u8| model.estimate(v);
            let model_v = pattern.vertices().min_by(|a, b| estimate(a).total_cmp(&estimate(b)));
            let (auto_v, auto_cost) = (auto.init_vertex, measured[auto.init_vertex as usize]);
            let ratio = |m: u64| format!("{:.2}", m as f64 / best as f64);
            let pick = |v: usize| format!("v{}", v + 1);
            let (auto_pick, model_pick) = (pick(auto_v.into()), pick(model_v.unwrap().into()));
            let auto_ratio = auto_cost.map_or("OOM".into(), ratio);
            report.cells([label.clone(), auto_pick, model_pick, pick(best_v), auto_ratio.clone()]);
            if let Some((ext, r, _)) = extension(cases, &ds.graph, &pattern, workers) {
                let (v, ext_ratio) =
                    (pick(ext.init_vertex.into()), ratio(r.stats.simulated_makespan));
                report.cells([format!("{label}{EXTENSION}"), v, "-".into(), "-".into(), ext_ratio]);
            }
            let within = auto_cost.is_some_and(|m| m as f64 <= 2.0 * best as f64);
            let read = format!("auto/best {auto_ratio}, best v{} {best}", best_v + 1);
            report.verdict(&format!("auto_within_2x_of_best({label})"), within, read);
        }
    }
    if !rule.is_empty() {
        let fires = rule.iter().all(|r| r.1 == SelectionRule::DeterministicLowestRank);
        let read: Vec<_> = rule.iter().map(|(label, r)| format!("{label}: {r:?}")).collect();
        report.verdict("theorem5_rule_fires_for_cycles_and_cliques", fires, read.join(", "));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(id: &'static str, verdicts: &[(&str, bool)]) -> Report {
        let mut report = Report::new(id, "Test", "hand-built", 1.0, []);
        for &(claim, pass) in verdicts {
            report.verdict(claim, pass, String::new());
        }
        report
    }

    #[test]
    fn the_deviation_list_must_name_exactly_the_failing_verdicts() {
        let fig = report("fig", &[("passes", true), ("fails", false)]);
        let other = report("other", &[("passes", true)]);
        let problems = |listed: &[&str]| check(&[&fig, &other], listed);
        // A listed failure and an unlisted pass are the rule.
        assert!(problems(&["fig.fails"]).is_empty());
        // An unlisted failure.
        assert_eq!(problems(&[]), ["fig.fails fails and is not a listed deviation"]);
        // A listed pass.
        assert_eq!(
            problems(&["fig.fails", "other.passes"]),
            ["other.passes is a listed deviation but passes"]
        );
        // A listed id that names no verdict of an experiment that ran.
        assert_eq!(
            problems(&["fig.fails", "fig.gone"]),
            ["listed deviation fig.gone names no verdict"]
        );
        // Ids of experiments that did not run are not read.
        assert!(problems(&["fig.fails", "absent.claim"]).is_empty());
    }

    #[test]
    fn render_ends_in_one_line_per_verdict() {
        let mut fig = report("fig", &[]);
        fig.header(&[("a", 3), ("b", 4)]);
        fig.cells(["x".to_string(), "y".to_string()]);
        fig.verdict("claim(case)", false, "1 vs 2".into());
        let text = fig.render();
        assert!(text.contains("a      b\n--------\nx      y\n"), "{text}");
        assert!(text.ends_with("\nverdict fig.claim(case): FAIL (1 vs 2)\n"), "{text}");
    }

    #[test]
    fn the_inventory_of_experiments_md_lists_exactly_the_deviations() {
        let doc = include_str!("../../../EXPERIMENTS.md");
        let inventory = doc.split("## Inventory of deviations").nth(1).expect("an inventory");
        // Each entry is a numbered item that opens with its verdict id.
        let mut ids: Vec<&str> = inventory
            .lines()
            .filter_map(|line| line.split_once(". `"))
            .filter(|(number, _)| number.parse::<u32>().is_ok())
            .map(|(_, rest)| rest.split('`').next().unwrap())
            .collect();
        let mut listed = DEVIATIONS.to_vec();
        ids.sort_unstable();
        listed.sort_unstable();
        assert_eq!(ids, listed);
    }

    #[test]
    fn every_listed_deviation_belongs_to_an_experiment() {
        for id in DEVIATIONS {
            let experiment = id.split('.').next().unwrap();
            assert!(EXPERIMENTS.iter().any(|(name, _)| *name == experiment), "{id}");
        }
    }
}
