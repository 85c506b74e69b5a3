//! Uniform table rendering for the experiment binaries.
//!
//! Every experiment prints (a) a header identifying the paper artifact it
//! regenerates, (b) a fixed-width table whose rows mirror the paper's, and
//! (c) a `shape:` line summarizing what to compare against the paper
//! (`EXPERIMENTS.md` records both sides).

use std::time::Instant;

/// Row label of the one run per case that an experiment makes with the
/// closing kernels on (DESIGN.md §12). The kernels are this
/// reproduction's extension, not the paper's Algorithm 1: every paper row
/// runs with `kernels(false)`, and no `shape:` line reads this row.
pub const EXTENSION: &str = "+kernels";

/// Prints the standard experiment banner, with the machine's core count.
pub fn banner(artifact: &str, description: &str, scale: f64) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("================================================================");
    println!("{artifact}: {description}");
    println!("(synthetic stand-in datasets, PSGL_SCALE={scale}; see DESIGN.md §3)");
    println!("(machine: {cores} cores)");
    println!("================================================================");
}

/// The line that explains an experiment's [`EXTENSION`] row.
pub fn extension_note() {
    println!(
        "({EXTENSION}: the closing kernels, an extension beyond the paper, with the default \
         strategy (WA,0.5); the other rows run the paper's Algorithm 1 with kernels off)"
    );
}

/// A fixed-width table printer.
pub struct Table {
    widths: Vec<usize>,
}

impl Table {
    /// Creates a table and prints its header row.
    pub fn new(columns: &[(&str, usize)]) -> Table {
        let widths: Vec<usize> = columns.iter().map(|&(_, w)| w).collect();
        let mut header = String::new();
        for (i, &(name, w)) in columns.iter().enumerate() {
            if i == 0 {
                header.push_str(&format!("{name:<w$}"));
            } else {
                header.push_str(&format!(" {name:>w$}"));
            }
        }
        println!("{header}");
        println!("{}", "-".repeat(header.len()));
        Table { widths }
    }

    /// Prints one row; cells beyond the declared column count are ignored.
    pub fn row(&self, cells: &[String]) {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate().take(self.widths.len()) {
            let w = self.widths[i];
            if i == 0 {
                line.push_str(&format!("{cell:<w$}"));
            } else {
                line.push_str(&format!(" {cell:>w$}"));
            }
        }
        println!("{line}");
    }
}

/// Runs `f` and returns `(result, milliseconds)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// Writes a machine-readable experiment result (one JSON document) to
/// `path`, creating parent directories as needed. Experiment binaries
/// use this for `results/BENCH_*.json` files that trend dashboards and
/// CI can diff without scraping tables.
pub fn write_json_report(path: &str, body: &psgl_service::Json) -> std::io::Result<()> {
    if let Some(parent) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(parent)?;
    }
    psgl_service::wire::write_json(&mut std::fs::File::create(path)?, body)?;
    println!("wrote {path}");
    Ok(())
}

/// Percentile of a sorted sample (nearest-rank; `q` in [0, 1]).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Human formatting for large counts (`1234567 -> "1.23e6"` style keeps
/// table columns narrow, mirroring the paper's scientific notation in
/// Table 2).
pub fn sci(x: u64) -> String {
    if x < 100_000 {
        x.to_string()
    } else {
        format!("{:.2e}", x as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sci_formats() {
        assert_eq!(sci(999), "999");
        assert_eq!(sci(99_999), "99999");
        assert_eq!(sci(2_860_000), "2.86e6");
    }

    #[test]
    fn timed_measures() {
        let (v, ms) = timed(|| 7);
        assert_eq!(v, 7);
        assert!(ms >= 0.0);
    }

    #[test]
    fn percentile_nearest_rank() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.5), 2.0);
        assert_eq!(percentile(&xs, 0.99), 4.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert!(percentile(&[], 0.5).is_nan());
    }
}
