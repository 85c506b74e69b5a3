//! The PSgL-rs benchmark: seven named workloads measured end to end and
//! layer by layer through the crates' public functions. See `README.md`
//! next to this package and `BENCHMARK.json` at the repo root.

mod compare;
mod inputs;
mod micro;
mod run;
mod spans;
mod spec;
mod sys;
mod workloads;

use std::process::ExitCode;

const USAGE: &str = "usage:
  psgl-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--scale F] [--out FILE]
  psgl-benchmark compare A.json[,A2.json...] B.json[,B2.json...]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => run::main(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
