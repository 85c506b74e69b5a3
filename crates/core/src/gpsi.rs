//! Partial subgraph instances (`Gpsi`, Section 3).
//!
//! A `Gpsi` records the current mapping between pattern vertices and data
//! vertices, the expansion progress (which pattern vertices are BLACK /
//! GRAY / WHITE — Section 4.3) and which pattern edges have been verified
//! *exactly* against the data graph. It is the unit of work and the unit of
//! communication of the whole framework, so it is a fixed-size `Copy` type:
//! millions of Gpsis flow through the engine per run and per-message heap
//! allocations would dominate the runtime (see the perf-book guidance on
//! allocation-free hot paths).

use psgl_graph::VertexId;
use psgl_pattern::{Pattern, PatternVertex};

/// Maximum pattern size the PSgL engine supports. Patterns beyond this are
/// rejected at configuration time (listing even 6-vertex patterns on a
/// large graph produces astronomically many instances, so 12 is generous).
pub const MAX_GPSI_VERTICES: usize = 12;

/// Sentinel for "pattern vertex not mapped yet" (WHITE).
pub const UNMAPPED: VertexId = VertexId::MAX;

/// A partial subgraph instance.
///
/// Colors are derived state: a pattern vertex is BLACK if its bit is set in
/// `black`, GRAY if mapped but not BLACK, WHITE if unmapped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Gpsi {
    /// `mapping[vp]` = data vertex mapped to pattern vertex `vp`, or
    /// [`UNMAPPED`].
    mapping: [VertexId; MAX_GPSI_VERTICES],
    /// Bit `vp` set iff `vp` has been expanded (BLACK).
    black: u16,
    /// Bit `vp` set iff `vp` is mapped (BLACK or GRAY).
    mapped: u16,
    /// Bit `e` set iff pattern edge id `e` has been verified exactly
    /// against the data graph (up to 66 edges for 12 vertices).
    verified: u128,
    /// The GRAY vertex chosen by the distribution strategy as the next one
    /// to expand.
    expanding: PatternVertex,
}

impl Gpsi {
    /// The initial Gpsi of the initialization phase: `init_vertex ↦ vd`,
    /// everything else WHITE, nothing verified.
    pub fn initial(init_vertex: PatternVertex, vd: VertexId) -> Gpsi {
        debug_assert!((init_vertex as usize) < MAX_GPSI_VERTICES);
        let mut mapping = [UNMAPPED; MAX_GPSI_VERTICES];
        mapping[init_vertex as usize] = vd;
        Gpsi { mapping, black: 0, mapped: 1 << init_vertex, verified: 0, expanding: init_vertex }
    }

    /// Data vertex mapped to `vp`, or `None` if `vp` is WHITE.
    #[inline]
    pub fn map(&self, vp: PatternVertex) -> Option<VertexId> {
        let vd = self.mapping[vp as usize];
        (vd != UNMAPPED).then_some(vd)
    }

    /// Raw mapping slice for the first `n` pattern vertices.
    #[inline]
    pub fn mapping(&self, n: usize) -> &[VertexId] {
        &self.mapping[..n]
    }

    /// Whether `vp` is mapped (GRAY or BLACK).
    #[inline]
    pub fn is_mapped(&self, vp: PatternVertex) -> bool {
        (self.mapped >> vp) & 1 == 1
    }

    /// Whether `vp` has been expanded.
    #[inline]
    pub fn is_black(&self, vp: PatternVertex) -> bool {
        (self.black >> vp) & 1 == 1
    }

    /// Whether `vp` is mapped but not yet expanded.
    #[inline]
    pub fn is_gray(&self, vp: PatternVertex) -> bool {
        self.is_mapped(vp) && !self.is_black(vp)
    }

    /// Bitmask of mapped pattern vertices.
    #[inline]
    pub fn mapped_mask(&self) -> u16 {
        self.mapped
    }

    /// Bitmask of GRAY pattern vertices.
    #[inline]
    pub fn gray_mask(&self) -> u16 {
        self.mapped & !self.black
    }

    /// The next pattern vertex to expand (chosen by the distribution
    /// strategy of the previous step).
    #[inline]
    pub fn expanding(&self) -> PatternVertex {
        self.expanding
    }

    /// Sets the next expanding vertex; must be GRAY.
    #[inline]
    pub fn set_expanding(&mut self, vp: PatternVertex) {
        debug_assert!(self.is_gray(vp), "expanding vertex must be GRAY");
        self.expanding = vp;
    }

    /// Marks `vp` BLACK (expanded).
    #[inline]
    pub fn set_black(&mut self, vp: PatternVertex) {
        debug_assert!(self.is_mapped(vp));
        self.black |= 1 << vp;
    }

    /// Maps WHITE vertex `vp` to `vd` (making it GRAY).
    #[inline]
    pub fn assign(&mut self, vp: PatternVertex, vd: VertexId) {
        debug_assert!(!self.is_mapped(vp), "assign target must be WHITE");
        debug_assert!(vd != UNMAPPED);
        self.mapping[vp as usize] = vd;
        self.mapped |= 1 << vp;
    }

    /// Whether `vd` already appears in the mapping (injectivity test).
    #[inline]
    pub fn uses_data_vertex(&self, vd: VertexId, n: usize) -> bool {
        self.mapping[..n].contains(&vd)
    }

    /// Marks pattern edge `edge_id` as exactly verified.
    #[inline]
    pub fn set_verified(&mut self, edge_id: u8) {
        self.verified |= 1u128 << edge_id;
    }

    /// Marks every pattern edge in `mask` as exactly verified at once —
    /// compiled kernels verify all remaining edges against real adjacency
    /// before emitting, so the whole mask flips in one store.
    #[inline]
    pub fn set_all_verified(&mut self, mask: u128) {
        self.verified |= mask;
    }

    /// Whether pattern edge `edge_id` is verified.
    #[inline]
    pub fn is_verified(&self, edge_id: u8) -> bool {
        (self.verified >> edge_id) & 1 == 1
    }

    /// A Gpsi is a *subgraph instance* (complete) when every pattern vertex
    /// is mapped and every pattern edge verified.
    #[inline]
    pub fn is_complete(&self, p: &Pattern, all_edges_mask: u128) -> bool {
        let all_vertices = (1u16 << p.num_vertices()) - 1;
        self.mapped == all_vertices && self.verified & all_edges_mask == all_edges_mask
    }

    /// The mapped instance as `(pattern vertex order) -> data vertex`,
    /// for a complete Gpsi.
    pub fn instance(&self, n: usize) -> Vec<VertexId> {
        self.mapping[..n].to_vec()
    }

    /// Size of the one byte layout a Gpsi has outside memory — checkpoint
    /// and shard frontiers, spill blobs, `PSGW` data frames: mapping
    /// (12 × u32) + black u16 + mapped u16 + verified u128 + expanding u8,
    /// little-endian.
    pub const ENCODED_LEN: usize = MAX_GPSI_VERTICES * 4 + 2 + 2 + 16 + 1;

    /// Appends exactly [`Gpsi::ENCODED_LEN`] bytes.
    pub fn encode(&self, out: &mut Vec<u8>) {
        for m in self.mapping {
            out.extend_from_slice(&m.to_le_bytes());
        }
        out.extend_from_slice(&self.black.to_le_bytes());
        out.extend_from_slice(&self.mapped.to_le_bytes());
        out.extend_from_slice(&self.verified.to_le_bytes());
        out.push(self.expanding);
    }

    /// Parses [`Gpsi::encode`]'s output. The bytes come from a file or a
    /// socket, so the two field conditions the engine indexes by are
    /// checked here, for every format: `expanding` is a pattern-vertex
    /// slot and every BLACK vertex is mapped.
    pub fn decode(bytes: &[u8]) -> Result<Gpsi, GpsiDecodeError> {
        if bytes.len() != Gpsi::ENCODED_LEN {
            return Err(GpsiDecodeError::Length);
        }
        let word = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("sized"));
        let mapping = std::array::from_fn(|i| word(i * 4));
        let at = MAX_GPSI_VERTICES * 4;
        let black = u16::from_le_bytes(bytes[at..at + 2].try_into().expect("sized"));
        let mapped = u16::from_le_bytes(bytes[at + 2..at + 4].try_into().expect("sized"));
        let verified = u128::from_le_bytes(bytes[at + 4..at + 20].try_into().expect("sized"));
        let expanding = bytes[at + 20];
        if expanding as usize >= MAX_GPSI_VERTICES {
            return Err(GpsiDecodeError::ExpandingOutOfRange);
        }
        if black & !mapped != 0 {
            return Err(GpsiDecodeError::BlackNotMapped);
        }
        Ok(Gpsi { mapping, black, mapped, verified, expanding })
    }

    /// Builds a Gpsi from its raw fields, taken as-is (tests build
    /// arbitrary — including invalid — tuples with it).
    pub fn from_raw_parts(
        mapping: [VertexId; MAX_GPSI_VERTICES],
        black: u16,
        mapped: u16,
        verified: u128,
        expanding: PatternVertex,
    ) -> Gpsi {
        Gpsi { mapping, black, mapped, verified, expanding }
    }
}

/// Why [`Gpsi::decode`] rejected its input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GpsiDecodeError {
    /// The slice is not [`Gpsi::ENCODED_LEN`] bytes long.
    Length,
    /// `expanding` is not below [`MAX_GPSI_VERTICES`].
    ExpandingOutOfRange,
    /// A BLACK bit is set for an unmapped pattern vertex.
    BlackNotMapped,
}

impl GpsiDecodeError {
    /// The reason as a static string (what `FrameError::BadPayload` and
    /// `SpillError::Malformed` carry).
    pub fn as_str(&self) -> &'static str {
        match self {
            GpsiDecodeError::Length => "gpsi tuple has the wrong length",
            GpsiDecodeError::ExpandingOutOfRange => "gpsi expanding vertex out of range",
            GpsiDecodeError::BlackNotMapped => "gpsi black set exceeds mapped set",
        }
    }
}

impl std::fmt::Display for GpsiDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::error::Error for GpsiDecodeError {}

/// Precomputed pattern-edge numbering: `edge_id(u, v)` for constant-time
/// verified-mask updates.
#[derive(Clone, Debug)]
pub struct EdgeIds {
    /// `table[u][v]` = edge id, or `u8::MAX` when `{u,v}` is not an edge.
    table: [[u8; MAX_GPSI_VERTICES]; MAX_GPSI_VERTICES],
    /// Number of pattern edges.
    count: u8,
}

impl EdgeIds {
    /// Numbers the edges of `p` in `edges()` order.
    pub fn new(p: &Pattern) -> EdgeIds {
        assert!(p.num_vertices() <= MAX_GPSI_VERTICES);
        let mut table = [[u8::MAX; MAX_GPSI_VERTICES]; MAX_GPSI_VERTICES];
        let mut count = 0u8;
        for (u, v) in p.edges() {
            table[u as usize][v as usize] = count;
            table[v as usize][u as usize] = count;
            count += 1;
        }
        EdgeIds { table, count }
    }

    /// Edge id of `{u, v}`, if it is a pattern edge.
    #[inline]
    pub fn get(&self, u: PatternVertex, v: PatternVertex) -> Option<u8> {
        let id = self.table[u as usize][v as usize];
        (id != u8::MAX).then_some(id)
    }

    /// Number of pattern edges.
    #[inline]
    pub fn count(&self) -> u8 {
        self.count
    }

    /// Mask with one bit per pattern edge.
    #[inline]
    pub fn all_mask(&self) -> u128 {
        if self.count == 0 {
            0
        } else {
            (1u128 << self.count) - 1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psgl_pattern::catalog;

    #[test]
    fn initial_state() {
        let g = Gpsi::initial(2, 77);
        assert_eq!(g.map(2), Some(77));
        assert_eq!(g.map(0), None);
        assert!(g.is_gray(2));
        assert!(!g.is_black(2));
        assert!(!g.is_mapped(0));
        assert_eq!(g.expanding(), 2);
        assert_eq!(g.gray_mask(), 0b100);
    }

    #[test]
    fn assign_and_expand_lifecycle() {
        let p = catalog::triangle();
        let ids = EdgeIds::new(&p);
        let mut g = Gpsi::initial(0, 5);
        g.set_black(0);
        g.assign(1, 9);
        g.assign(2, 3);
        g.set_verified(ids.get(0, 1).unwrap());
        g.set_verified(ids.get(0, 2).unwrap());
        assert!(!g.is_complete(&p, ids.all_mask()), "edge 1-2 unverified");
        g.set_verified(ids.get(1, 2).unwrap());
        assert!(g.is_complete(&p, ids.all_mask()));
        assert_eq!(g.instance(3), vec![5, 9, 3]);
        assert_eq!(g.gray_mask(), 0b110);
    }

    #[test]
    fn injectivity_check() {
        let mut g = Gpsi::initial(0, 5);
        g.assign(1, 9);
        assert!(g.uses_data_vertex(5, 3));
        assert!(g.uses_data_vertex(9, 3));
        assert!(!g.uses_data_vertex(7, 3));
    }

    #[test]
    fn edge_ids_cover_all_edges_once() {
        let p = catalog::house();
        let ids = EdgeIds::new(&p);
        assert_eq!(ids.count(), 6);
        assert_eq!(ids.all_mask(), 0b11_1111);
        let mut seen = std::collections::HashSet::new();
        for (u, v) in p.edges() {
            let id = ids.get(u, v).unwrap();
            assert_eq!(ids.get(v, u), Some(id), "symmetric lookup");
            assert!(seen.insert(id), "distinct ids");
        }
        assert_eq!(ids.get(0, 1), None, "non-edge has no id");
    }

    #[test]
    fn gpsi_is_small_enough_to_copy() {
        // 12 mappings (48B) + masks + bookkeeping; must stay within two
        // cache lines to keep message exchange cheap.
        assert!(std::mem::size_of::<Gpsi>() <= 96, "{}", std::mem::size_of::<Gpsi>());
    }

    #[test]
    fn decode_inverts_encode_and_checks_the_length() {
        let mut g = Gpsi::initial(1, 5);
        g.set_black(1);
        g.assign(0, 9);
        g.set_verified(3);
        let mut bytes = Vec::new();
        g.encode(&mut bytes);
        assert_eq!(bytes.len(), Gpsi::ENCODED_LEN);
        assert_eq!(Gpsi::decode(&bytes), Ok(g));
        assert_eq!(Gpsi::decode(&bytes[1..]), Err(GpsiDecodeError::Length));
        *bytes.last_mut().unwrap() = MAX_GPSI_VERTICES as u8;
        assert_eq!(Gpsi::decode(&bytes), Err(GpsiDecodeError::ExpandingOutOfRange));
    }

    #[test]
    fn set_expanding_moves_cursor() {
        let mut g = Gpsi::initial(0, 5);
        g.assign(1, 6);
        g.set_expanding(1);
        assert_eq!(g.expanding(), 1);
    }
}
