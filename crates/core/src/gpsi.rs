//! Partial subgraph instances (`Gpsi`, Section 3).
//!
//! A `Gpsi` records the current mapping between pattern vertices and data
//! vertices and the expansion progress (which pattern vertices are BLACK /
//! GRAY / WHITE — Section 4.3). It is the unit of work and the unit of
//! communication of the whole framework, so it is a fixed-size `Copy` type:
//! millions of Gpsis flow through the engine per run and per-message heap
//! allocations would dominate the runtime (see the perf-book guidance on
//! allocation-free hot paths).
//!
//! Which pattern edges have been verified *exactly* against the data graph
//! is derived, not stored: **an edge is verified iff one of its endpoints
//! is BLACK.** Expanding a vertex checks every pattern edge incident to it
//! against its adjacency list (Algorithms 2 and 5) or kills the Gpsi, and
//! an edge checked only through the bloom index joins two GRAY vertices.
//! A Gpsi is therefore complete when every vertex is mapped and no pattern
//! edge joins two non-BLACK vertices. The compiled kernels check every
//! remaining edge exactly before they emit, so an instance they emit is
//! complete by construction; harvest reads only its mapping.

use psgl_bsp::Encode;
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
        Gpsi { mapping, black: 0, mapped: 1 << init_vertex, expanding: init_vertex }
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

    /// Whether the pattern edge `{a, b}` has been verified exactly: one of
    /// its endpoints is BLACK (see the module doc).
    #[inline]
    pub fn is_edge_verified(&self, a: PatternVertex, b: PatternVertex) -> bool {
        ((self.black >> a) | (self.black >> b)) & 1 == 1
    }

    /// A Gpsi is a *subgraph instance* (complete) when every pattern vertex
    /// is mapped and every pattern edge verified, i.e. no pattern edge
    /// joins two non-BLACK vertices.
    #[inline]
    pub fn is_complete(&self, p: &Pattern) -> bool {
        let all_vertices = (1u16 << p.num_vertices()) - 1;
        if self.mapped != all_vertices {
            return false;
        }
        let open = u32::from(all_vertices & !self.black);
        let mut rest = open;
        while rest != 0 {
            if p.neighbor_mask(rest.trailing_zeros() as PatternVertex) & open != 0 {
                return false;
            }
            rest &= rest - 1;
        }
        true
    }

    /// The mapped instance as `(pattern vertex order) -> data vertex`,
    /// for a complete Gpsi.
    pub fn instance(&self, n: usize) -> Vec<VertexId> {
        self.mapping[..n].to_vec()
    }

    /// Builds a Gpsi from its raw fields, taken as-is (tests build
    /// arbitrary — including invalid — tuples with it).
    pub fn from_raw_parts(
        mapping: [VertexId; MAX_GPSI_VERTICES],
        black: u16,
        mapped: u16,
        expanding: PatternVertex,
    ) -> Gpsi {
        Gpsi { mapping, black, mapped, expanding }
    }
}

/// The one byte layout a Gpsi has outside memory — checkpoint frontiers,
/// spill blobs, `PSGW` data frames: mapping (12 × u32) + black u16 +
/// mapped u16 + expanding u8, little-endian.
impl Encode for Gpsi {
    const ENCODED_LEN: usize = MAX_GPSI_VERTICES * 4 + 2 + 2 + 1;

    fn encode(&self, out: &mut Vec<u8>) {
        for m in self.mapping {
            out.extend_from_slice(&m.to_le_bytes());
        }
        out.extend_from_slice(&self.black.to_le_bytes());
        out.extend_from_slice(&self.mapped.to_le_bytes());
        out.push(self.expanding);
    }

    /// Checks the two field conditions the engine indexes by, for every
    /// format: `expanding` is a pattern-vertex slot and every BLACK vertex
    /// is mapped.
    fn decode(bytes: &[u8]) -> Result<Gpsi, &'static str> {
        if bytes.len() != Gpsi::ENCODED_LEN {
            return Err("gpsi tuple has the wrong length");
        }
        let word = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("sized"));
        let mapping = std::array::from_fn(|i| word(i * 4));
        let at = MAX_GPSI_VERTICES * 4;
        let black = u16::from_le_bytes(bytes[at..at + 2].try_into().expect("sized"));
        let mapped = u16::from_le_bytes(bytes[at + 2..at + 4].try_into().expect("sized"));
        let expanding = bytes[at + 4];
        if expanding as usize >= MAX_GPSI_VERTICES {
            return Err("gpsi expanding vertex out of range");
        }
        if black & !mapped != 0 {
            return Err("gpsi black set exceeds mapped set");
        }
        Ok(Gpsi { mapping, black, mapped, expanding })
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
        let mut g = Gpsi::initial(0, 5);
        g.set_black(0);
        g.assign(1, 9);
        g.assign(2, 3);
        assert!(g.is_edge_verified(0, 1) && g.is_edge_verified(2, 0));
        assert!(!g.is_edge_verified(1, 2), "edge 1-2 joins two GRAY vertices");
        assert!(!g.is_complete(&p));
        g.set_black(1);
        assert!(g.is_complete(&p));
        assert_eq!(g.instance(3), vec![5, 9, 3]);
        assert_eq!(g.gray_mask(), 0b100);
    }

    #[test]
    fn injectivity_check() {
        let mut g = Gpsi::initial(0, 5);
        g.assign(1, 9);
        assert!(g.uses_data_vertex(5, 3));
        assert!(g.uses_data_vertex(9, 3));
        assert!(!g.uses_data_vertex(7, 3));
    }

    /// The in-memory layout every inbox slot, outbox chunk and spill
    /// segment is sized by, and the byte layout of every derived format.
    #[test]
    fn gpsi_layout_is_pinned() {
        assert_eq!(std::mem::size_of::<Gpsi>(), 56);
        assert_eq!(std::mem::align_of::<Gpsi>(), 4);
        assert_eq!(std::mem::size_of::<(VertexId, Gpsi)>(), 60);
        assert_eq!(Gpsi::ENCODED_LEN, 53);
    }

    /// `is_complete` and `is_edge_verified` against the literal rule, for
    /// every `black ⊆ mapped` state of each catalog pattern: complete iff
    /// every vertex is mapped and every edge has a BLACK end.
    #[test]
    fn derived_predicates_follow_the_black_set() {
        let mut patterns = catalog::paper_patterns();
        patterns.extend([
            catalog::path(2),
            catalog::star(4),
            catalog::clique(5),
            catalog::cycle(6),
        ]);
        for p in &patterns {
            let n = p.num_vertices();
            let all = (1u16 << n) - 1;
            for mapped in 0..=all {
                let mapping = std::array::from_fn(|v| {
                    if (mapped >> v) & 1 == 1 {
                        10 + v as VertexId
                    } else {
                        UNMAPPED
                    }
                });
                // Every subset of `mapped`, by the usual submask walk.
                let mut black = mapped;
                loop {
                    let g = Gpsi::from_raw_parts(mapping, black, mapped, 0);
                    let is_black = |v: PatternVertex| (black >> v) & 1 == 1;
                    for (a, b) in p.edges() {
                        let want = is_black(a) || is_black(b);
                        assert_eq!(g.is_edge_verified(a, b), want, "{} {a}-{b}", p.name());
                        assert_eq!(g.is_edge_verified(b, a), want, "{} {b}-{a}", p.name());
                    }
                    let want = mapped == all && p.edges().all(|(a, b)| is_black(a) || is_black(b));
                    assert_eq!(
                        g.is_complete(p),
                        want,
                        "{} black {black:#b} mapped {mapped:#b}",
                        p.name()
                    );
                    if black == 0 {
                        break;
                    }
                    black = (black - 1) & mapped;
                }
            }
        }
    }

    #[test]
    fn decode_inverts_encode_and_checks_the_length() {
        let mut g = Gpsi::initial(1, 5);
        g.set_black(1);
        g.assign(0, 9);
        let mut bytes = Vec::new();
        g.encode(&mut bytes);
        assert_eq!(bytes.len(), Gpsi::ENCODED_LEN);
        assert_eq!(Gpsi::decode(&bytes), Ok(g));
        assert_eq!(Gpsi::decode(&bytes[1..]), Err("gpsi tuple has the wrong length"));
        *bytes.last_mut().unwrap() = MAX_GPSI_VERTICES as u8;
        assert_eq!(Gpsi::decode(&bytes), Err("gpsi expanding vertex out of range"));
    }

    #[test]
    fn set_expanding_moves_cursor() {
        let mut g = Gpsi::initial(0, 5);
        g.assign(1, 6);
        g.set_expanding(1);
        assert_eq!(g.expanding(), 1);
    }
}
