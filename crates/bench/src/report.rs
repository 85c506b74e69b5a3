//! Uniform table rendering for the experiment binaries.
//!
//! Every experiment prints a banner identifying the paper artifact it
//! regenerates, then fixed-width tables whose rows mirror the paper's. The
//! paper experiments ([`crate::paper`]) render into a string that ends in
//! checked verdict lines; the `BENCH_*` binaries print as they go.

use crate::datasets::Dataset;
use std::fmt::Write;
use std::time::Instant;

/// Prints the standard experiment banner ([`banner_text`]).
pub fn banner<'a>(
    artifact: &str,
    description: &str,
    scale: f64,
    stand_ins: impl IntoIterator<Item = &'a Dataset>,
) {
    print!("{}", banner_text(artifact, description, scale, stand_ins));
}

/// The standard experiment banner, with the machine's core count and one
/// line per distinct stand-in dataset giving its size and
/// [`content_hash`](psgl_graph::DataGraph::content_hash), so a generator
/// change shows as a diff in the recorded output rather than as drift.
pub fn banner_text<'a>(
    artifact: &str,
    description: &str,
    scale: f64,
    stand_ins: impl IntoIterator<Item = &'a Dataset>,
) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rule = "=".repeat(64);
    let mut out = format!("{rule}\n{artifact}: {description}\n");
    let _ = writeln!(out, "(synthetic stand-in datasets, PSGL_SCALE={scale}; see DESIGN.md §3)");
    let mut seen = Vec::new();
    for ds in stand_ins {
        let hash = ds.graph.content_hash();
        if !seen.contains(&(ds.name, hash)) {
            seen.push((ds.name, hash));
            let (n, m) = (ds.graph.num_vertices(), ds.graph.num_edges());
            let _ = writeln!(
                out,
                "(stand-in {}: {n} vertices, {m} edges, content hash {hash:016x})",
                ds.name
            );
        }
    }
    let _ = writeln!(out, "(machine: {cores} cores)\n{rule}");
    out
}

/// A table's header line and the rule under it, for `(name, width)`
/// columns.
pub fn header_text(columns: &[(&str, usize)]) -> String {
    let names: Vec<String> = columns.iter().map(|&(name, _)| name.to_string()).collect();
    let header = cells_text(columns, &names);
    format!("{header}\n{}", "-".repeat(header.len()))
}

/// One table line: the first cell left-aligned and the rest right-aligned,
/// each padded to its column's width. Cells beyond the columns are
/// ignored.
pub fn cells_text(columns: &[(&str, usize)], cells: &[String]) -> String {
    let mut line = String::new();
    for (i, (cell, &(_, w))) in cells.iter().zip(columns).enumerate() {
        let _ = if i == 0 { write!(line, "{cell:<w$}") } else { write!(line, " {cell:>w$}") };
    }
    line
}

/// A fixed-width table printer.
pub struct Table {
    columns: Vec<(&'static str, usize)>,
}

impl Table {
    /// Creates a table and prints its header row.
    pub fn new(columns: &[(&'static str, usize)]) -> Table {
        println!("{}", header_text(columns));
        Table { columns: columns.to_vec() }
    }

    /// Prints one row; cells beyond the declared column count are ignored.
    pub fn row(&self, cells: &[String]) {
        println!("{}", cells_text(&self.columns, cells));
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

    #[test]
    fn cells_pad_first_left_and_the_rest_right() {
        let columns = [("a", 3), ("b", 4)];
        assert_eq!(header_text(&columns), "a      b\n--------");
        assert_eq!(cells_text(&columns, &["x".into(), "y".into(), "z".into()]), "x      y");
    }
}
