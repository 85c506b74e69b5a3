//! Inputs generated from the run's seed.

use psgl_graph::generators::chung_lu_from_weights;
use psgl_graph::DataGraph;

/// A Chung–Lu power-law graph with the same expected-degree law as
/// `generators::chung_lu(n, avg_degree, gamma, _)` (Pareto weights on
/// `[1, n-1]`, rescaled to the average, capped at `√Σw`), but with the
/// weights taken at the `n` evenly spaced quantiles of that law instead of
/// drawn from it.
///
/// Why: with `gamma` near 2 the few largest sampled weights decide how
/// many cliques and paths the graph holds, so `chung_lu` itself gives
/// instance counts that differ by ±25 % between seeds, and a pass's wall
/// time with them. Fixing the degree law and leaving only the edges (and
/// the vertex relabelling) to the seed keeps every seed a different graph
/// of the same family while the work per pass stays within a few percent.
pub fn power_law_graph(n: usize, avg_degree: f64, gamma: f64, seed: u64) -> DataGraph {
    let dmax = n.saturating_sub(1).max(1) as f64;
    let exponent = -1.0 / (gamma - 1.0);
    let tail = dmax.powf(1.0 - gamma);
    let mut weights: Vec<f64> = (0..n)
        .map(|i| {
            let u = (i as f64 + 0.5) / n as f64;
            (1.0 - u * (1.0 - tail)).powf(exponent).min(dmax)
        })
        .collect();
    let mean = weights.iter().sum::<f64>() / n.max(1) as f64;
    for w in &mut weights {
        *w *= avg_degree / mean;
    }
    let cap = weights.iter().sum::<f64>().sqrt();
    for w in &mut weights {
        *w = w.min(cap);
    }
    chung_lu_from_weights(&weights, seed).expect("finite non-negative weights")
}

/// `n` vertices at `--scale`, never fewer than `floor`.
pub fn scaled(n: usize, scale: f64, floor: usize) -> usize {
    ((n as f64 * scale) as usize).max(floor)
}
