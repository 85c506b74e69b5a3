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
//! A Gpsi has a *width*: its number of mapping slots. The expansion code
//! works on the 12-slot [`Gpsi`], the width of the largest pattern the
//! engine takes. The message plane carries each Gpsi at its pattern's
//! width instead ([`message_width`]: 4, 8 or 12 slots), so a square's
//! frontier moves 28-byte `(VertexId, Gpsi<4>)` tuples, not 60-byte ones.
//! [`Gpsi::with_width`] widens a received message for expansion and
//! narrows a generated one for sending. Every width has one byte layout,
//! `4W + 5` bytes (the [`Encode`] impl): spill segments hold a run's
//! messages at its width, while checkpoints and `PSGW` frames carry the
//! 12-slot form.
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

/// The width a run's messages carry a Gpsi at: the fewest of 4, 8 or 12
/// slots that hold a `pattern_vertices`-vertex pattern.
pub fn message_width(pattern_vertices: usize) -> usize {
    match pattern_vertices {
        0..=4 => 4,
        5..=8 => 8,
        _ => MAX_GPSI_VERTICES,
    }
}

/// A partial subgraph instance with `W` mapping slots (see the module doc
/// on widths); `Gpsi` alone is the 12-slot one expansion works on.
///
/// Colors are derived state: a pattern vertex is BLACK if its bit is set in
/// `black`, GRAY if mapped but not BLACK, WHITE if unmapped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Gpsi<const W: usize = MAX_GPSI_VERTICES> {
    /// `mapping[vp]` = data vertex mapped to pattern vertex `vp`, or
    /// [`UNMAPPED`].
    mapping: [VertexId; W],
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
}

impl<const W: usize> Gpsi<W> {
    /// The same Gpsi at width `V`: the first slots copied, any further
    /// ones WHITE.
    ///
    /// # Panics
    ///
    /// If narrowing would drop a mapped slot.
    #[inline]
    pub fn with_width<const V: usize>(&self) -> Gpsi<V> {
        assert!(u32::from(self.mapped) >> V == 0, "narrowed past a mapped slot: {self:?}");
        let mut mapping = [UNMAPPED; V];
        let kept = W.min(V);
        mapping[..kept].copy_from_slice(&self.mapping[..kept]);
        Gpsi { mapping, black: self.black, mapped: self.mapped, expanding: self.expanding }
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
        mapping: [VertexId; W],
        black: u16,
        mapped: u16,
        expanding: PatternVertex,
    ) -> Gpsi<W> {
        Gpsi { mapping, black, mapped, expanding }
    }
}

/// The one byte layout a Gpsi has outside memory, for every width `W`:
/// mapping (W × u32) + black u16 + mapped u16 + expanding u8,
/// little-endian — 4W + 5 bytes. Checkpoint frontiers and `PSGW` data
/// frames carry 12-slot Gpsis (53 bytes); spill segments carry a run's
/// messages at its width.
impl<const W: usize> Encode for Gpsi<W> {
    const ENCODED_LEN: usize = W * 4 + 2 + 2 + 1;

    fn encode(&self, out: &mut Vec<u8>) {
        for m in self.mapping {
            out.extend_from_slice(&m.to_le_bytes());
        }
        out.extend_from_slice(&self.black.to_le_bytes());
        out.extend_from_slice(&self.mapped.to_le_bytes());
        out.push(self.expanding);
    }

    /// Accepts only a tuple the engine could have sent, in every format:
    /// no bit at or past slot `W`, every BLACK vertex mapped, a slot
    /// holding a vertex exactly when its `mapped` bit is set, and a GRAY
    /// `expanding` vertex — so expansion finds the vertex it expands.
    fn decode(bytes: &[u8]) -> Result<Gpsi<W>, &'static str> {
        if bytes.len() != Self::ENCODED_LEN {
            return Err("gpsi tuple has the wrong length");
        }
        let word = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("sized"));
        let mapping: [VertexId; W] = std::array::from_fn(|i| word(i * 4));
        let at = W * 4;
        let black = u16::from_le_bytes(bytes[at..at + 2].try_into().expect("sized"));
        let mapped = u16::from_le_bytes(bytes[at + 2..at + 4].try_into().expect("sized"));
        let expanding = bytes[at + 4];
        if expanding as usize >= W {
            return Err("gpsi expanding vertex out of range");
        }
        if u32::from(mapped) >> W != 0 {
            return Err("gpsi mapped set exceeds the width");
        }
        if black & !mapped != 0 {
            return Err("gpsi black set exceeds mapped set");
        }
        let held = (0..W).fold(0u16, |held, i| held | u16::from(mapping[i] != UNMAPPED) << i);
        if held != mapped {
            return Err("gpsi mapping disagrees with the mapped set");
        }
        let g = Gpsi { mapping, black, mapped, expanding };
        if !g.is_gray(expanding) {
            return Err("gpsi expanding vertex is not gray");
        }
        Ok(g)
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
    /// segment is sized by, at each message width, and the byte layout of
    /// every derived format.
    #[test]
    fn gpsi_layout_is_pinned() {
        assert_eq!(std::mem::size_of::<Gpsi>(), 56);
        assert_eq!(std::mem::align_of::<Gpsi>(), 4);
        assert_eq!(std::mem::size_of::<(VertexId, Gpsi)>(), 60);
        assert_eq!(<Gpsi>::ENCODED_LEN, 53);
        assert_eq!(std::mem::size_of::<(VertexId, Gpsi<4>)>(), 28);
        assert_eq!(std::mem::size_of::<(VertexId, Gpsi<8>)>(), 44);
        assert_eq!(std::mem::size_of::<(VertexId, Gpsi<12>)>(), 60);
        assert_eq!(
            [Gpsi::<4>::ENCODED_LEN, Gpsi::<8>::ENCODED_LEN, Gpsi::<12>::ENCODED_LEN],
            [21, 37, 53]
        );
    }

    #[test]
    fn message_width_is_the_fewest_slots_that_hold_the_pattern() {
        let widths: Vec<usize> = (1..=MAX_GPSI_VERTICES).map(message_width).collect();
        assert_eq!(widths, [4, 4, 4, 4, 8, 8, 8, 8, 12, 12, 12, 12]);
    }

    /// A Gpsi of an `n`-vertex pattern midway through expansion: slot 0
    /// BLACK, the last slot GRAY and expanding, the slots between WHITE.
    fn midway<const W: usize>(n: usize) -> Gpsi<W> {
        let last = (n - 1) as PatternVertex;
        let mut g = Gpsi::initial(0, 40);
        g.set_black(0);
        g.assign(last, 41);
        g.set_expanding(last);
        g.with_width()
    }

    fn encoded<const W: usize>(g: &Gpsi<W>) -> Vec<u8> {
        let mut bytes = Vec::new();
        g.encode(&mut bytes);
        assert_eq!(bytes.len(), Gpsi::<W>::ENCODED_LEN);
        bytes
    }

    fn narrowing_round_trips_at<const W: usize>(n: usize) {
        let wide = midway::<MAX_GPSI_VERTICES>(n);
        let narrow: Gpsi<W> = wide.with_width();
        assert_eq!(narrow.map(0), Some(40));
        assert_eq!(narrow.map((n - 1) as PatternVertex), Some(41));
        assert_eq!(narrow.expanding(), (n - 1) as PatternVertex);
        assert_eq!(narrow.with_width::<MAX_GPSI_VERTICES>(), wide, "width {W}, {n} vertices");
        assert_eq!(Gpsi::<W>::decode(&encoded(&narrow)), Ok(narrow));
    }

    #[test]
    fn narrowing_then_widening_round_trips_at_every_width() {
        for n in 2..=4 {
            narrowing_round_trips_at::<4>(n);
        }
        for n in 2..=8 {
            narrowing_round_trips_at::<8>(n);
        }
        for n in 2..=12 {
            narrowing_round_trips_at::<12>(n);
        }
    }

    #[test]
    #[should_panic(expected = "narrowed past a mapped slot")]
    fn narrowing_never_drops_a_mapped_slot() {
        let mut g = Gpsi::initial(0, 40);
        g.assign(4, 41);
        let _: Gpsi<4> = g.with_width();
    }

    /// Overwrites `bytes`' `black`, `mapped` or `expanding` field.
    fn set_field(bytes: &mut [u8], width: usize, field: &str, value: u16) {
        let at = width * 4;
        match field {
            "black" => bytes[at..at + 2].copy_from_slice(&value.to_le_bytes()),
            "mapped" => bytes[at + 2..at + 4].copy_from_slice(&value.to_le_bytes()),
            _ => bytes[at + 4] = value as u8,
        }
    }

    /// Each tuple the engine never sends is rejected at decode, at each
    /// width: expansion would otherwise find no vertex to expand.
    fn decode_rejects_unsent_tuples_at<const W: usize>() {
        let g = midway::<W>(W);
        let good = encoded(&g);
        let decode = |mutate: &dyn Fn(&mut Vec<u8>)| {
            let mut bytes = good.clone();
            mutate(&mut bytes);
            Gpsi::<W>::decode(&bytes)
        };
        assert_eq!(decode(&|_| ()), Ok(g));
        // An expanding slot that is not mapped: slot 1 is WHITE.
        assert_eq!(
            decode(&|b| set_field(b, W, "expanding", 1)),
            Err("gpsi expanding vertex is not gray")
        );
        // An expanding slot that is BLACK.
        assert_eq!(
            decode(&|b| set_field(b, W, "expanding", 0)),
            Err("gpsi expanding vertex is not gray")
        );
        assert_eq!(
            decode(&|b| set_field(b, W, "expanding", W as u16)),
            Err("gpsi expanding vertex out of range")
        );
        // A mapped bit whose slot holds UNMAPPED.
        let with_slot_1 = u16::from_le_bytes([good[W * 4 + 2], good[W * 4 + 3]]) | 0b10;
        assert_eq!(
            decode(&|b| set_field(b, W, "mapped", with_slot_1)),
            Err("gpsi mapping disagrees with the mapped set")
        );
        // A slot that holds a vertex without its mapped bit.
        assert_eq!(
            decode(&|b| b[4..8].copy_from_slice(&7u32.to_le_bytes())),
            Err("gpsi mapping disagrees with the mapped set")
        );
        // Mapped and black bits at the width and past the last slot of
        // the 12-slot layout.
        for bit in [W, 13, 15] {
            let past = g.mapped_mask() | 1 << bit;
            assert_eq!(
                decode(&|b| set_field(b, W, "mapped", past)),
                Err("gpsi mapped set exceeds the width"),
                "mapped bit {bit} at width {W}"
            );
            assert_eq!(
                decode(&|b| set_field(b, W, "black", 1 << bit)),
                Err("gpsi black set exceeds mapped set"),
                "black bit {bit} at width {W}"
            );
        }
        assert_eq!(Gpsi::<W>::decode(&good[1..]), Err("gpsi tuple has the wrong length"));
    }

    #[test]
    fn decode_rejects_tuples_the_engine_never_sends_at_every_width() {
        decode_rejects_unsent_tuples_at::<4>();
        decode_rejects_unsent_tuples_at::<8>();
        decode_rejects_unsent_tuples_at::<12>();
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
                let mapping: [VertexId; MAX_GPSI_VERTICES] = std::array::from_fn(|v| {
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
        g.set_expanding(0);
        let mut bytes = encoded(&g);
        assert_eq!(<Gpsi>::decode(&bytes), Ok(g));
        assert_eq!(<Gpsi>::decode(&bytes[1..]), Err("gpsi tuple has the wrong length"));
        *bytes.last_mut().unwrap() = MAX_GPSI_VERTICES as u8;
        assert_eq!(<Gpsi>::decode(&bytes), Err("gpsi expanding vertex out of range"));
    }

    #[test]
    fn set_expanding_moves_cursor() {
        let mut g = Gpsi::initial(0, 5);
        g.assign(1, 6);
        g.set_expanding(1);
        assert_eq!(g.expanding(), 1);
    }
}
