//! Sealed blobs: the one envelope every persisted byte format of the
//! engine shares.
//!
//! ```text
//! magic: [u8; 8] | payload | checksum: u64 LE (FxHash of the payload)
//! ```
//!
//! [`seal`] frames a payload ([`seal_in_place`] one already laid out
//! between a magic's and a checksum's room), [`unseal`] checks the frame
//! and hands the payload back, and [`Reader`] walks it as bounds-checked
//! little-endian fields. A format that checks parts of a file one at a
//! time records each part's [`checksum`] inside a sealed header. Corruption and truncation are typed errors, never a panic and
//! never a silently short result; each format maps them into its own error
//! type.

use crate::hash::FxHasher;
use std::hash::Hasher;

const MAGIC_BYTES: usize = 8;
const CHECKSUM_BYTES: usize = 8;

/// The FxHash checksum a sealed frame ends with, over `payload`.
pub fn checksum(payload: &[u8]) -> u64 {
    let mut hasher = FxHasher::default();
    hasher.write(payload);
    hasher.finish()
}

/// Frames `payload` as `magic | payload | FxHash(payload)`.
pub fn seal(magic: &[u8; MAGIC_BYTES], payload: &[u8]) -> Vec<u8> {
    let mut out = vec![0; MAGIC_BYTES + payload.len() + CHECKSUM_BYTES];
    out[MAGIC_BYTES..MAGIC_BYTES + payload.len()].copy_from_slice(payload);
    seal_in_place(magic, &mut out);
    out
}

/// Seals a frame whose payload is already in place: writes `magic` over
/// its first eight bytes and the payload's checksum over its last eight.
/// The result is what [`seal`] returns for that payload.
///
/// # Panics
///
/// If `frame` is shorter than a magic plus a checksum.
pub fn seal_in_place(magic: &[u8; MAGIC_BYTES], frame: &mut [u8]) {
    let end = frame.len() - CHECKSUM_BYTES;
    frame[..MAGIC_BYTES].copy_from_slice(magic);
    let sum = checksum(&frame[MAGIC_BYTES..end]);
    frame[end..].copy_from_slice(&sum.to_le_bytes());
}

/// Why [`unseal`] rejected a frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnsealError {
    /// Shorter than a magic plus a checksum.
    TooShort,
    /// The frame does not start with the expected magic.
    BadMagic,
    /// The trailing checksum does not match the payload.
    Checksum {
        /// Checksum recorded in the frame.
        expected: u64,
        /// Checksum recomputed over the payload.
        got: u64,
    },
}

/// Checks `data`'s magic and trailing checksum and returns the payload.
pub fn unseal<'a>(magic: &[u8; MAGIC_BYTES], data: &'a [u8]) -> Result<&'a [u8], UnsealError> {
    if data.len() < MAGIC_BYTES + CHECKSUM_BYTES {
        return Err(UnsealError::TooShort);
    }
    let (head, rest) = data.split_at(MAGIC_BYTES);
    if head != magic {
        return Err(UnsealError::BadMagic);
    }
    let (payload, tail) = rest.split_at(rest.len() - CHECKSUM_BYTES);
    let expected = u64::from_le_bytes(tail.try_into().expect("checksum-sized tail"));
    let got = checksum(payload);
    if got != expected {
        return Err(UnsealError::Checksum { expected, got });
    }
    Ok(payload)
}

/// A [`Reader`] ran out of bytes while decoding the named field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Truncated {
    /// The field being decoded.
    pub what: &'static str,
}

/// Bounds-checked little-endian cursor over a payload. Every read past the
/// end is a [`Truncated`] naming the field.
pub struct Reader<'a> {
    data: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Wraps `data` with the cursor at the start.
    pub fn new(data: &'a [u8]) -> Self {
        Reader { data }
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Takes the next `n` raw bytes.
    #[inline]
    pub fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], Truncated> {
        if self.data.len() < n {
            return Err(Truncated { what });
        }
        let (head, rest) = self.data.split_at(n);
        self.data = rest;
        Ok(head)
    }

    /// Reads one byte.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, Truncated> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self, what: &'static str) -> Result<u32, Truncated> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, what: &'static str) -> Result<u64, Truncated> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().expect("8 bytes")))
    }

    /// Reads a little-endian IEEE-754 `f64`.
    pub fn f64(&mut self, what: &'static str) -> Result<f64, Truncated> {
        Ok(f64::from_bits(self.u64(what)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: &[u8; 8] = b"TESTBLB1";

    #[test]
    fn unseal_inverts_seal_and_types_every_failure() {
        let frame = seal(MAGIC, b"payload");
        assert_eq!(frame.len(), 8 + 7 + 8);
        assert_eq!(unseal(MAGIC, &frame), Ok(&b"payload"[..]));
        assert_eq!(unseal(b"OTHERBLB", &frame), Err(UnsealError::BadMagic));
        for len in 0..MAGIC_BYTES + CHECKSUM_BYTES {
            assert_eq!(unseal(MAGIC, &frame[..len]), Err(UnsealError::TooShort), "{len}");
        }
        for i in MAGIC_BYTES..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x10;
            let err = unseal(MAGIC, &bad).unwrap_err();
            assert!(matches!(err, UnsealError::Checksum { .. }), "flip at {i}: {err:?}");
        }
        // An empty payload is a legal blob.
        assert_eq!(unseal(MAGIC, &seal(MAGIC, &[])), Ok(&[][..]));
        // Sealing in place gives the same frame.
        let mut in_place = vec![0xAA; frame.len()];
        in_place[8..15].copy_from_slice(b"payload");
        seal_in_place(MAGIC, &mut in_place);
        assert_eq!(in_place, frame);
    }

    #[test]
    fn reader_reads_little_endian_fields_and_names_the_truncated_one() {
        let mut bytes = vec![7u8];
        bytes.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        bytes.extend_from_slice(&42u64.to_le_bytes());
        bytes.extend_from_slice(&1.5f64.to_le_bytes());
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8("a"), Ok(7));
        assert_eq!(r.u32("b"), Ok(0xDEAD_BEEF));
        assert_eq!(r.u64("c"), Ok(42));
        assert_eq!(r.f64("d"), Ok(1.5));
        assert!(r.is_empty());
        assert_eq!(r.u8("e"), Err(Truncated { what: "e" }));
        let mut short = Reader::new(&bytes[..3]);
        assert_eq!(short.u8("a"), Ok(7));
        assert_eq!(short.u32("b"), Err(Truncated { what: "b" }));
    }
}
