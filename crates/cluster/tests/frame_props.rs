//! Property tests for the binary frame codec: arbitrary frames survive
//! an encode/decode round trip (including zero-length and
//! chunk-capacity payloads), and any corruption or truncation is
//! rejected with a typed error — never a wrong frame, never a panic.

use proptest::collection::vec;
use proptest::{prop_assert, prop_assert_eq, proptest, ProptestConfig, Strategy as _};
use psgl_bsp::DEFAULT_CHUNK_CAPACITY;
use psgl_cluster::frame::{decode, encode, read_frame, Frame, FrameError, FrameKind};
use psgl_core::gpsi::{Gpsi, MAX_GPSI_VERTICES, UNMAPPED};
use psgl_graph::VertexId;

/// Arbitrary valid Gpsi raw parts, with the invariants the decoder
/// enforces: `mapped` within the 12 slots, black ⊆ mapped, a slot holding
/// a vertex exactly when it is mapped, and a GRAY `expanding` vertex.
fn gpsi_strategy() -> impl proptest::Strategy<Value = Gpsi> {
    (
        vec(proptest::any::<u32>(), MAX_GPSI_VERTICES),
        proptest::any::<u16>(),
        proptest::any::<u16>(),
        0u8..MAX_GPSI_VERTICES as u8,
    )
        .prop_map(|(mapping, black, mapped, expanding)| {
            // Force the invariants instead of filtering.
            let gray = 1u16 << expanding;
            let mapped = (mapped & ((1 << MAX_GPSI_VERTICES) - 1)) | gray;
            let black = black & mapped & !gray;
            let arr: [VertexId; MAX_GPSI_VERTICES] = std::array::from_fn(|i| {
                if (mapped >> i) & 1 == 1 {
                    mapping[i].min(UNMAPPED - 1)
                } else {
                    UNMAPPED
                }
            });
            Gpsi::from_raw_parts(arr, black, mapped, expanding)
        })
}

/// A frame whose checksum holds but whose tuple the engine never sends is
/// a typed `BadPayload`, for each field rule the Gpsi decoder enforces: a
/// member that accepted it would expand a vertex it cannot find.
#[test]
fn a_tuple_the_engine_never_sends_is_a_bad_payload() {
    let mut mapping = [UNMAPPED; MAX_GPSI_VERTICES];
    mapping[0] = 7;
    let mut slot_1 = mapping;
    slot_1[1] = 8;
    for (bad, why) in [
        // Expanding slot 1, which is not mapped.
        (Gpsi::from_raw_parts(mapping, 0, 0b1, 1), "gpsi expanding vertex is not gray"),
        // A mapped bit at slot 1, which holds UNMAPPED.
        (Gpsi::from_raw_parts(mapping, 0, 0b11, 0), "gpsi mapping disagrees with the mapped set"),
        // A mapped bit at 13, past the twelve slots.
        (Gpsi::from_raw_parts(mapping, 0, 0b1 | 1 << 13, 0), "gpsi mapped set exceeds the width"),
        // Slot 1 holds a vertex without its mapped bit.
        (Gpsi::from_raw_parts(slot_1, 0, 0b1, 0), "gpsi mapping disagrees with the mapped set"),
    ] {
        let good = Gpsi::from_raw_parts(mapping, 0, 0b1, 0);
        let tuples = vec![(7, good), (7, bad)];
        let frame = Frame { kind: FrameKind::Data, superstep: 2, src: 0, dst: 1, tuples };
        let bytes = encode(&frame);
        assert_eq!(decode::<Gpsi>(&bytes).unwrap_err(), FrameError::BadPayload(why));
        let mut cursor = std::io::Cursor::new(bytes.as_slice());
        assert_eq!(read_frame::<Gpsi>(&mut cursor).unwrap_err(), FrameError::BadPayload(why));
    }
}

fn frame_strategy() -> impl proptest::Strategy<Value = Frame<Gpsi>> {
    (
        proptest::any::<u32>(),
        proptest::any::<u32>(),
        proptest::any::<u32>(),
        // Zero-length through a full engine chunk (the largest payload
        // the exchange ever encodes into one frame).
        vec((proptest::any::<u32>(), gpsi_strategy()), 0..DEFAULT_CHUNK_CAPACITY + 1),
    )
        .prop_map(|(superstep, src, dst, tuples)| Frame {
            kind: FrameKind::Data,
            superstep,
            src,
            dst,
            tuples,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// encode → decode is the identity, the reported wire size is exact,
    /// and the streaming reader agrees with the slice decoder.
    #[test]
    fn roundtrip_is_identity(frame in frame_strategy()) {
        let bytes = encode(&frame);
        let (back, consumed) = decode::<Gpsi>(&bytes).unwrap();
        prop_assert_eq!(consumed, bytes.len());
        prop_assert_eq!(back.kind, frame.kind);
        prop_assert_eq!(back.superstep, frame.superstep);
        prop_assert_eq!(back.src, frame.src);
        prop_assert_eq!(back.dst, frame.dst);
        prop_assert_eq!(&back.tuples, &frame.tuples);

        let mut cursor = std::io::Cursor::new(bytes.as_slice());
        let (streamed, size) = read_frame::<Gpsi>(&mut cursor).unwrap().unwrap();
        prop_assert_eq!(size as usize, bytes.len());
        prop_assert_eq!(&streamed.tuples, &frame.tuples);
    }

    /// Flipping any single byte of the body is caught — almost always by
    /// the checksum, never by a successful decode of different content.
    #[test]
    fn corruption_never_decodes_to_a_different_frame(
        frame in frame_strategy(),
        flip_seed in proptest::any::<u64>(),
        bit in 0u8..8,
    ) {
        let mut bytes = encode(&frame);
        // Corrupt a body byte (past the 4-byte length prefix, which has
        // its own dedicated failure modes tested below).
        let body_len = bytes.len() - 4;
        let pos = 4 + (flip_seed as usize % body_len);
        bytes[pos] ^= 1 << bit;
        match decode::<Gpsi>(&bytes) {
            Err(FrameError::ChecksumMismatch)
            | Err(FrameError::BadMagic)
            | Err(FrameError::BadKind(_))
            | Err(FrameError::BadPayload(_))
            | Err(FrameError::Truncated)
            | Err(FrameError::Oversized { .. }) => {}
            Ok((back, _)) => {
                // A flipped bit in the checksum trailer of an otherwise
                // intact frame cannot happen (the checksum would then
                // mismatch), so any Ok must be impossible.
                prop_assert!(false, "corrupt frame decoded: {:?}", back.tuples.len());
            }
            Err(other) => prop_assert!(false, "unexpected error class: {other}"),
        }
    }

    /// Every strict prefix of an encoded frame is `Truncated` for the
    /// slice decoder, and the streaming reader reports a typed error
    /// (truncation mid-frame) rather than a phantom frame.
    #[test]
    fn every_truncation_is_rejected(frame in frame_strategy(), cut_seed in proptest::any::<u64>()) {
        let bytes = encode(&frame);
        let cut = cut_seed as usize % bytes.len(); // strict prefix
        match decode::<Gpsi>(&bytes[..cut]) {
            Err(FrameError::Truncated) => {}
            other => prop_assert!(false, "prefix of {cut} bytes gave {other:?}"),
        }
        if cut > 0 {
            let mut cursor = std::io::Cursor::new(&bytes[..cut]);
            match read_frame::<Gpsi>(&mut cursor) {
                Err(FrameError::Truncated) | Err(FrameError::Io(_)) => {}
                Ok(None) if cut < 4 => {
                    // The streaming reader treats a clean EOF at a frame
                    // boundary as end-of-stream, but only with 0 bytes
                    // available; any partial prefix must error.
                    prop_assert!(false, "partial length prefix read as EOF");
                }
                other => prop_assert!(false, "streamed prefix of {cut} bytes gave {other:?}"),
            }
        }
    }
}
