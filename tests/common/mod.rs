//! Test graphs shared by more than one integration test.

use psgl::graph::DataGraph;

/// A hub (vertex 0) joined to `spokes` spokes (a multiple of 4). The spokes
/// form `spokes / 4` disjoint 4-cliques of spread-out ids, over sparse
/// pseudo-random spoke edges (about 4 % of the pairs) that spread the
/// spokes' ranks. With more than 64 spokes, an expansion of the hub whose
/// candidates must rank below it binds over a universe of several words.
pub fn planted_hub(spokes: u32) -> DataGraph {
    let mix = |mut x: u64| {
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    };
    let quarter = spokes / 4;
    let planted = |a: u32, b: u32| (a - 1) % quarter == (b - 1) % quarter;
    let mut edges: Vec<(u32, u32)> = (1..=spokes).map(|v| (0, v)).collect();
    for a in 1..=spokes {
        for b in a + 1..=spokes {
            if planted(a, b) || mix(u64::from(a) << 32 | u64::from(b)) % 100 < 4 {
                edges.push((a, b));
            }
        }
    }
    DataGraph::from_edges(spokes as usize + 1, &edges).unwrap()
}
