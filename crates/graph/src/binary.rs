//! Compact binary graph format.
//!
//! Text edge lists parse at tens of MB/s; the paper's graphs reach
//! billions of edges. This module stores the CSR arrays directly:
//!
//! ```text
//! magic "PSGLGRF1" | n: u64 | m2: u64 (= 2|E|) | offsets: (n+1) x u64 LE
//! | adjacency: m2 x u32 LE | checksum: u64 (FxHash of the payload)
//! ```
//!
//! Loading is a bounds-checked bulk read straight into the [`DataGraph`]
//! invariant checker — a corrupted file fails loudly, never silently.

use crate::csr::DataGraph;
use crate::error::GraphError;
use crate::hash::FxHasher;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::hash::Hasher;
use std::io::{Read, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"PSGLGRF1";

/// Serializes `g` into the binary format.
pub fn to_bytes(g: &DataGraph) -> Bytes {
    let n = g.num_vertices();
    let m2 = g.degree_sum();
    let mut buf = BytesMut::with_capacity(8 + 16 + (n + 1) * 8 + m2 as usize * 4 + 8);
    buf.put_slice(MAGIC);
    buf.put_u64_le(n as u64);
    buf.put_u64_le(m2);
    let mut hasher = FxHasher::default();
    let mut offset = 0u64;
    buf.put_u64_le(0);
    hasher.write_u64(0);
    for v in g.vertices() {
        offset += u64::from(g.degree(v));
        buf.put_u64_le(offset);
        hasher.write_u64(offset);
    }
    for v in g.vertices() {
        for &u in g.neighbors(v) {
            buf.put_u32_le(u);
            hasher.write_u32(u);
        }
    }
    buf.put_u64_le(hasher.finish());
    buf.freeze()
}

/// Deserializes the binary format back into a [`DataGraph`].
pub fn from_bytes(mut data: &[u8]) -> Result<DataGraph, GraphError> {
    let fail = |msg: &str| GraphError::Parse { line: 0, message: msg.to_string() };
    if data.len() < 8 + 16 || &data[..8] != MAGIC {
        return Err(fail("not a PSGLGRF1 file"));
    }
    data.advance(8);
    let n = data.get_u64_le();
    let m2 = data.get_u64_le();
    // The header is untrusted: size the payload it claims in checked
    // 64-bit arithmetic and hold it against the bytes actually present
    // before anything is allocated or read. Past this check `n + 1` and
    // `m2` are bounded by `data.len()`, so they fit a `usize`.
    let need = n
        .checked_add(1)
        .and_then(|offsets| offsets.checked_mul(8))
        .and_then(|offsets| m2.checked_mul(4)?.checked_add(8)?.checked_add(offsets))
        .ok_or_else(|| fail("size overflow"))?;
    if data.remaining() as u64 != need {
        return Err(fail("truncated or oversized payload"));
    }
    let mut hasher = FxHasher::default();
    let mut offsets = Vec::with_capacity(n as usize + 1);
    for _ in 0..=n {
        let o = data.get_u64_le();
        hasher.write_u64(o);
        offsets.push(o);
    }
    let mut adjacency = Vec::with_capacity(m2 as usize);
    for _ in 0..m2 {
        let v = data.get_u32_le();
        hasher.write_u32(v);
        adjacency.push(v);
    }
    let checksum = data.get_u64_le();
    if checksum != hasher.finish() {
        return Err(fail("checksum mismatch"));
    }
    DataGraph::from_csr(offsets, adjacency)
}

/// Writes `g` to `writer` in the binary format.
pub fn write_binary<W: Write>(g: &DataGraph, mut writer: W) -> Result<(), GraphError> {
    writer.write_all(&to_bytes(g))?;
    Ok(())
}

/// Reads a binary-format graph from `reader`.
pub fn read_binary<R: Read>(mut reader: R) -> Result<DataGraph, GraphError> {
    let mut data = Vec::new();
    reader.read_to_end(&mut data)?;
    from_bytes(&data)
}

/// Saves `g` to a file in the binary format.
pub fn save_binary<P: AsRef<Path>>(g: &DataGraph, path: P) -> Result<(), GraphError> {
    write_binary(g, std::io::BufWriter::new(std::fs::File::create(path)?))
}

/// Loads a binary-format graph file.
pub fn load_binary<P: AsRef<Path>>(path: P) -> Result<DataGraph, GraphError> {
    read_binary(std::fs::File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{chung_lu, erdos_renyi_gnm};

    #[test]
    fn roundtrip_preserves_everything() {
        for g in [
            erdos_renyi_gnm(200, 800, 1).unwrap(),
            chung_lu(500, 6.0, 2.0, 2).unwrap(),
            DataGraph::from_edges(0, &[]).unwrap(),
            DataGraph::from_edges(3, &[]).unwrap(), // isolated vertices
        ] {
            let bytes = to_bytes(&g);
            let back = from_bytes(&bytes).unwrap();
            assert_eq!(back.num_vertices(), g.num_vertices());
            assert_eq!(back.num_edges(), g.num_edges());
            assert_eq!(back.edges().collect::<Vec<_>>(), g.edges().collect::<Vec<_>>());
        }
    }

    #[test]
    fn corruption_is_detected() {
        let g = erdos_renyi_gnm(50, 150, 3).unwrap();
        let bytes = to_bytes(&g).to_vec();
        // Flip a payload byte: checksum must catch it.
        let mut bad = bytes.clone();
        let mid = bytes.len() / 2;
        bad[mid] ^= 0xFF;
        assert!(from_bytes(&bad).is_err());
        // Truncation.
        assert!(from_bytes(&bytes[..bytes.len() - 4]).is_err());
        // Wrong magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(from_bytes(&bad).is_err());
        // Empty input.
        assert!(from_bytes(&[]).is_err());
        // Hostile headers: sizes that overflow, or that no file this small
        // could hold, are errors — not panics, not allocations.
        let header = |n: u64, m2: u64, payload: usize| {
            let mut h = MAGIC.to_vec();
            h.extend_from_slice(&n.to_le_bytes());
            h.extend_from_slice(&m2.to_le_bytes());
            h.resize(h.len() + payload, 0);
            h
        };
        assert!(from_bytes(&header(u64::MAX, 0, 8)).is_err());
        assert!(from_bytes(&header(0, 1 << 62, 16)).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("psgl_binary_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.psgl");
        let g = chung_lu(300, 5.0, 2.2, 7).unwrap();
        save_binary(&g, &path).unwrap();
        let back = load_binary(&path).unwrap();
        assert_eq!(back.edges().collect::<Vec<_>>(), g.edges().collect::<Vec<_>>());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn size_is_exactly_predictable() {
        // magic + header + offsets + adjacency + checksum; no per-record
        // framing, so loads are a single bulk pass.
        let g = erdos_renyi_gnm(1000, 10_000, 9).unwrap();
        let expected = 8 + 16 + (g.num_vertices() + 1) * 8 + g.degree_sum() as usize * 4 + 8;
        assert_eq!(to_bytes(&g).len(), expected);
    }
}
