//! `exp <id>|all`: runs the paper's experiments ([`psgl_bench::paper`]) at
//! `PSGL_SCALE`, prints each report, and exits non-zero when a verdict
//! breaks the deviation rule: an unlisted failure, a listed pass, or a
//! listed id of an experiment that ran that names no verdict.

use psgl_bench::datasets;
use psgl_bench::paper::{self, EXPERIMENTS};

fn main() {
    let id = std::env::args().nth(1).unwrap_or_default();
    let chosen: Vec<_> =
        EXPERIMENTS.iter().filter(|(name, _)| id == "all" || id == *name).collect();
    if chosen.is_empty() {
        let ids: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        eprintln!("usage: exp <{}|all>", ids.join("|"));
        std::process::exit(2);
    }
    let scale = datasets::scale_from_env();
    let mut reports = Vec::new();
    for (_, experiment) in chosen {
        let report = experiment(scale, None);
        print!("{}", report.render());
        reports.push(report);
    }
    let problems = paper::check(&reports.iter().collect::<Vec<_>>(), paper::DEVIATIONS);
    for problem in &problems {
        eprintln!("deviation rule: {problem}");
    }
    std::process::exit(i32::from(!problems.is_empty()));
}
