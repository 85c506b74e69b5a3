//! The binary data-plane frame codec.
//!
//! Worker-to-worker Gpsi traffic travels as length-prefixed binary
//! frames; the JSON control channel (see [`crate::control`]) never
//! carries message tuples. Layout:
//!
//! ```text
//! length: u32 LE          bytes that follow (not counting this field)
//! magic:  u32 LE          "PSGW"
//! kind:   u8              1 = Data, 2 = EndOfStep, 3 = Hello
//! superstep: u32 LE       Data/EndOfStep: superstep; Hello: attempt
//! src:    u32 LE          Data: source partition; EndOfStep/Hello: proc
//! dst:    u32 LE          Data: destination partition; else 0
//! count:  u32 LE          number of tuples (Data only)
//! payload                 count × (VertexId u32 LE + message)
//! checksum: u64 LE        FxHash of everything from magic to payload
//! ```
//!
//! The checksum is verified *before* any field is interpreted, so a
//! corrupt frame is rejected as [`FrameError::ChecksumMismatch`] rather
//! than producing garbage tuples. All multi-byte fields are
//! little-endian; a message travels as its [`Encode`] impl writes it,
//! exactly as in the checkpoint and spill formats.

use bytes::BufMut;
use psgl_bsp::Encode;
use psgl_graph::hash::FxHasher;
use psgl_graph::VertexId;
use std::hash::Hasher;
use std::io::Read;

/// Frame magic, `"PSGW"` as a little-endian u32.
pub const FRAME_MAGIC: u32 = u32::from_le_bytes(*b"PSGW");

/// Upper bound on a single frame's body, rejecting absurd length
/// prefixes before allocating.
pub const MAX_FRAME_BYTES: u32 = 16 << 20;

/// Fixed header bytes inside the body: magic + kind + superstep + src +
/// dst + count.
pub const HEADER_BYTES: usize = 4 + 1 + 4 + 4 + 4 + 4;

/// Trailing checksum bytes.
pub const CHECKSUM_BYTES: usize = 8;

/// What a frame carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameKind {
    /// Message tuples for one (source partition, destination partition)
    /// route of one superstep.
    Data,
    /// Sender has shipped everything for this superstep on this
    /// connection; TCP ordering makes it a valid completion marker.
    EndOfStep,
    /// First frame on a data connection: identifies the sending proc and
    /// the attempt the connection belongs to.
    Hello,
}

impl FrameKind {
    fn to_u8(self) -> u8 {
        match self {
            FrameKind::Data => 1,
            FrameKind::EndOfStep => 2,
            FrameKind::Hello => 3,
        }
    }

    fn from_u8(v: u8) -> Result<FrameKind, FrameError> {
        match v {
            1 => Ok(FrameKind::Data),
            2 => Ok(FrameKind::EndOfStep),
            3 => Ok(FrameKind::Hello),
            other => Err(FrameError::BadKind(other)),
        }
    }
}

/// A decoded frame.
#[derive(Clone, Debug, PartialEq)]
pub struct Frame<M> {
    /// What the frame carries.
    pub kind: FrameKind,
    /// Superstep (Data/EndOfStep) or attempt (Hello).
    pub superstep: u32,
    /// Source partition (Data) or sending proc (EndOfStep/Hello).
    pub src: u32,
    /// Destination partition (Data only).
    pub dst: u32,
    /// The message tuples (Data only; empty otherwise).
    pub tuples: Vec<(VertexId, M)>,
}

impl<M> Frame<M> {
    /// A control-ish frame with no payload.
    pub fn signal(kind: FrameKind, superstep: u32, src: u32) -> Frame<M> {
        Frame { kind, superstep, src, dst: 0, tuples: Vec::new() }
    }
}

/// Typed decode failures. Every corrupt or truncated input maps to one
/// of these — the codec never panics on wire bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// Input ended before the length prefix or the promised body.
    Truncated,
    /// Magic bytes do not spell `PSGW`.
    BadMagic,
    /// Unknown frame kind byte.
    BadKind(u8),
    /// Checksum over the body does not match the trailer.
    ChecksumMismatch,
    /// Length prefix exceeds [`MAX_FRAME_BYTES`].
    Oversized {
        /// The advertised body length.
        len: u32,
        /// The enforced cap.
        limit: u32,
    },
    /// Payload size disagrees with `count`, or a tuple fails validation.
    BadPayload(&'static str),
    /// The underlying reader failed (streaming [`read_frame`] only).
    Io(std::io::ErrorKind),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame truncated"),
            FrameError::BadMagic => write!(f, "bad frame magic"),
            FrameError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            FrameError::ChecksumMismatch => write!(f, "frame checksum mismatch"),
            FrameError::Oversized { len, limit } => {
                write!(f, "frame body of {len} bytes exceeds the {limit}-byte cap")
            }
            FrameError::BadPayload(why) => write!(f, "bad frame payload: {why}"),
            FrameError::Io(kind) => write!(f, "frame read failed: {kind}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Encodes a frame to its full wire form (length prefix included).
pub fn encode<M: Encode>(frame: &Frame<M>) -> Vec<u8> {
    let tuple_bytes = 4 + M::ENCODED_LEN;
    let body_len = HEADER_BYTES + frame.tuples.len() * tuple_bytes + CHECKSUM_BYTES;
    debug_assert!(body_len <= MAX_FRAME_BYTES as usize, "frame body exceeds the wire cap");
    let mut buf = Vec::with_capacity(4 + body_len);
    buf.put_u32_le(body_len as u32);
    buf.put_u32_le(FRAME_MAGIC);
    buf.put_u8(frame.kind.to_u8());
    buf.put_u32_le(frame.superstep);
    buf.put_u32_le(frame.src);
    buf.put_u32_le(frame.dst);
    buf.put_u32_le(frame.tuples.len() as u32);
    for (v, m) in &frame.tuples {
        buf.put_u32_le(*v);
        m.encode(&mut buf);
    }
    let mut hasher = FxHasher::default();
    hasher.write(&buf[4..]);
    let checksum = hasher.finish();
    buf.put_u64_le(checksum);
    buf
}

/// Decodes one frame from the front of `buf`, returning it and the
/// number of bytes consumed.
pub fn decode<M: Encode>(buf: &[u8]) -> Result<(Frame<M>, usize), FrameError> {
    if buf.len() < 4 {
        return Err(FrameError::Truncated);
    }
    let len = u32::from_le_bytes(buf[..4].try_into().expect("sized"));
    if len > MAX_FRAME_BYTES {
        return Err(FrameError::Oversized { len, limit: MAX_FRAME_BYTES });
    }
    let len = len as usize;
    if buf.len() < 4 + len {
        return Err(FrameError::Truncated);
    }
    let frame = decode_body(&buf[4..4 + len])?;
    Ok((frame, 4 + len))
}

/// Decodes a frame body (everything after the length prefix). The
/// checksum is verified before any field is parsed.
pub fn decode_body<M: Encode>(body: &[u8]) -> Result<Frame<M>, FrameError> {
    if body.len() < HEADER_BYTES + CHECKSUM_BYTES {
        return Err(FrameError::Truncated);
    }
    let (covered, trailer) = body.split_at(body.len() - CHECKSUM_BYTES);
    let mut hasher = FxHasher::default();
    hasher.write(covered);
    if hasher.finish() != u64::from_le_bytes(trailer.try_into().expect("sized")) {
        return Err(FrameError::ChecksumMismatch);
    }
    if u32::from_le_bytes(covered[..4].try_into().expect("sized")) != FRAME_MAGIC {
        return Err(FrameError::BadMagic);
    }
    let kind = FrameKind::from_u8(covered[4])?;
    let superstep = u32::from_le_bytes(covered[5..9].try_into().expect("sized"));
    let src = u32::from_le_bytes(covered[9..13].try_into().expect("sized"));
    let dst = u32::from_le_bytes(covered[13..17].try_into().expect("sized"));
    let count = u32::from_le_bytes(covered[17..21].try_into().expect("sized")) as usize;
    let payload = &covered[HEADER_BYTES..];
    let tuple_bytes = 4 + M::ENCODED_LEN;
    if payload.len() != count * tuple_bytes {
        return Err(FrameError::BadPayload("payload size disagrees with tuple count"));
    }
    let mut tuples = Vec::with_capacity(count);
    for i in 0..count {
        let at = i * tuple_bytes;
        let v = u32::from_le_bytes(payload[at..at + 4].try_into().expect("sized"));
        let m = M::decode(&payload[at + 4..at + tuple_bytes]).map_err(FrameError::BadPayload)?;
        tuples.push((v, m));
    }
    Ok(Frame { kind, superstep, src, dst, tuples })
}

/// Reads one frame from a stream, returning it with its full wire size
/// (length prefix included) for receive-side byte accounting.
/// `Ok(None)` means clean EOF at a frame boundary; EOF mid-frame is
/// [`FrameError::Truncated`].
pub fn read_frame<M: Encode>(
    reader: &mut impl Read,
) -> Result<Option<(Frame<M>, u64)>, FrameError> {
    let mut prefix = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match reader.read(&mut prefix[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e.kind())),
        }
    }
    let len = u32::from_le_bytes(prefix);
    if len > MAX_FRAME_BYTES {
        return Err(FrameError::Oversized { len, limit: MAX_FRAME_BYTES });
    }
    let mut body = vec![0u8; len as usize];
    reader.read_exact(&mut body).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            FrameError::Truncated
        } else {
            FrameError::Io(e.kind())
        }
    })?;
    decode_body(&body).map(|frame| Some((frame, 4 + len as u64)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use psgl_core::gpsi::{MAX_GPSI_VERTICES, UNMAPPED};
    use psgl_core::Gpsi;

    /// A plain test message.
    #[derive(Clone, Copy, Debug, PartialEq)]
    struct Word(u64);

    impl Encode for Word {
        const ENCODED_LEN: usize = 8;
        fn encode(&self, out: &mut Vec<u8>) {
            out.put_u64_le(self.0);
        }
        fn decode(bytes: &[u8]) -> Result<Word, &'static str> {
            Ok(Word(u64::from_le_bytes(bytes.try_into().map_err(|_| "word length")?)))
        }
    }

    fn sample_gpsi(seed: u32) -> Gpsi {
        let mut mapping = [UNMAPPED; MAX_GPSI_VERTICES];
        mapping[0] = seed;
        mapping[1] = seed.wrapping_mul(7) ^ 3;
        mapping[2] = seed.wrapping_add(100);
        Gpsi::from_raw_parts(mapping, 0b011, 0b111, 2)
    }

    #[test]
    fn roundtrip_data_frame() {
        let frame = Frame {
            kind: FrameKind::Data,
            superstep: 3,
            src: 1,
            dst: 4,
            tuples: (0..10u32).map(|i| (i * 11, sample_gpsi(i))).collect(),
        };
        let bytes = encode(&frame);
        let (back, used) = decode::<Gpsi>(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(back, frame);
    }

    #[test]
    fn roundtrip_signal_frames() {
        for kind in [FrameKind::EndOfStep, FrameKind::Hello] {
            let frame: Frame<Gpsi> = Frame::signal(kind, 9, 2);
            let (back, _) = decode::<Gpsi>(&encode(&frame)).unwrap();
            assert_eq!(back, frame);
        }
    }

    #[test]
    fn corrupt_byte_is_checksum_mismatch() {
        let frame = Frame {
            kind: FrameKind::Data,
            superstep: 0,
            src: 0,
            dst: 1,
            tuples: vec![(5, sample_gpsi(5))],
        };
        let mut bytes = encode(&frame);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        assert_eq!(decode::<Gpsi>(&bytes).unwrap_err(), FrameError::ChecksumMismatch);
    }

    #[test]
    fn truncation_is_detected() {
        let frame: Frame<Gpsi> = Frame::signal(FrameKind::EndOfStep, 1, 0);
        let bytes = encode(&frame);
        for cut in 0..bytes.len() {
            assert!(decode::<Gpsi>(&bytes[..cut]).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn oversized_prefix_is_rejected_before_allocation() {
        let mut bytes = vec![0u8; 32];
        bytes[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode::<Gpsi>(&bytes), Err(FrameError::Oversized { .. })));
    }

    #[test]
    fn streaming_read_matches_decode() {
        let frames: Vec<Frame<Word>> = vec![
            Frame {
                kind: FrameKind::Data,
                superstep: 0,
                src: 0,
                dst: 1,
                tuples: vec![(1, Word(2))],
            },
            Frame::signal(FrameKind::EndOfStep, 0, 0),
        ];
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&encode(f));
        }
        let mut cursor = &stream[..];
        for f in &frames {
            let (got, size) = read_frame::<Word>(&mut cursor).unwrap().unwrap();
            assert_eq!(&got, f);
            assert_eq!(size as usize, encode(f).len());
        }
        assert!(read_frame::<Word>(&mut cursor).unwrap().is_none());
    }
}
