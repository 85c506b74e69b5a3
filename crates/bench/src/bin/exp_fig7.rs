//! Figure 7 — runtime ratio among PSgL, Afrati, and SGIA-MR.
//!
//! The paper normalizes each system's runtime to PSgL's on PG1–PG4 ×
//! {LiveJournal, WikiTalk, WebGoogle, UsPatent}. Expected shape:
//!
//! - PSgL wins across the board (average gain ≈ 90% = ratios well above 1
//!   for both MapReduce systems on the skewed graphs);
//! - the two MapReduce systems surpass *each other* interleaved across
//!   datasets (their fixed distribution schemes interact differently with
//!   each graph's skew);
//! - all three systems agree on the instance counts;
//! - some baseline runs simply do not finish within the memory budget
//!   (the paper cut MapReduce runs off at four hours; we cap their shuffle
//!   volume instead and report OOM).
//!
//! Runtimes are wall-clock on the same machine and process. The datasets
//! run at 0.4× the suite scale: the join baselines materialize walk sets
//! that grow super-linearly, which is precisely the paper's criticism —
//! at full scale they exhaust single-machine memory outright.

use psgl_baselines::{afrati, sgia};
use psgl_bench::datasets::{self, Dataset};
use psgl_bench::report::{banner, sci, timed, Table};
use psgl_core::{list_subgraphs_prepared, PsglConfig, PsglShared};
use psgl_mapreduce::MrError;
use psgl_pattern::{catalog, Pattern};

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

fn run_case(ds: &Dataset, pattern: &Pattern, workers: usize, table: &Table) {
    let base = PsglConfig::with_workers(workers);
    let shared = PsglShared::prepare(&ds.graph, pattern, &base).expect("prepare");
    let (psgl, psgl_ms) = timed(|| list_subgraphs_prepared(&shared, &base).expect("psgl"));
    let (af, af_ms) = timed(|| {
        afrati::run_with_budgets(
            &ds.graph,
            pattern,
            AFRATI_REDUCERS,
            Some(SHUFFLE_BUDGET),
            Some(AFRATI_COST_BUDGET),
        )
    });
    let (sg, sg_ms) = timed(|| {
        sgia::run_with_budgets(
            &ds.graph,
            pattern,
            workers,
            Some(SHUFFLE_BUDGET),
            Some(SGIA_COST_BUDGET),
        )
    });
    let (af_ratio, af_shfl) = match af {
        Ok(r) => {
            assert_eq!(psgl.instance_count, r.instance_count, "count mismatch vs Afrati");
            (format!("{:.2}", af_ms / psgl_ms), sci(r.metrics.shuffle_records))
        }
        Err(MrError::ShuffleBudgetExceeded { records, .. }) => {
            ("OOM".into(), format!(">{}", sci(records)))
        }
        Err(MrError::CostBudgetExceeded { .. }) => ("DNF".into(), "-".into()),
    };
    let (sg_ratio, sg_shfl) = match sg {
        Ok(r) => {
            assert_eq!(psgl.instance_count, r.instance_count, "count mismatch vs SGIA-MR");
            (
                format!("{:.2}", sg_ms / psgl_ms),
                sci(r.rounds.iter().map(|m| m.shuffle_records).sum()),
            )
        }
        Err(MrError::ShuffleBudgetExceeded { records, .. }) => {
            ("OOM".into(), format!(">{}", sci(records)))
        }
        Err(MrError::CostBudgetExceeded { .. }) => ("DNF".into(), "-".into()),
    };
    table.row(&[
        format!("{} {}", ds.name, pattern),
        sci(psgl.instance_count),
        format!("{psgl_ms:.0}"),
        af_ratio,
        sg_ratio,
        af_shfl,
        sg_shfl,
    ]);
}

fn main() {
    let scale = datasets::scale_from_env() * 0.25;
    let workers = 8;
    let graphs = [
        datasets::livejournal(scale),
        datasets::wikitalk(scale),
        datasets::webgoogle(scale),
        datasets::uspatent(scale),
    ];
    banner("Figure 7", "runtime ratio among PSgL, Afrati and SGIA-MR (PG1-PG4)", scale, &graphs);
    let patterns = [
        catalog::triangle(),
        catalog::square(),
        catalog::tailed_triangle(),
        catalog::four_clique(),
    ];
    let table = Table::new(&[
        ("case", 30),
        ("instances", 11),
        ("PSgL ms", 9),
        ("Afrati/PSgL", 12),
        ("SGIA/PSgL", 10),
        ("Afrati shfl", 12),
        ("SGIA shfl", 10),
    ]);
    for p in &patterns {
        for g in &graphs {
            run_case(g, p, workers, &table);
        }
    }
    println!(
        "\nshape: ratios > 1 mean PSgL wins; paper reports ~90% average gain (ratio ≥ ~2) with \
         the MapReduce systems trading places across datasets and some baseline runs not \
         finishing at all."
    );
}
