//! The byte rules both encoded formats of these types share, and the one
//! error their decoders return.
//!
//! `talus-serve`'s wire protocol and `talus-store`'s journal append
//! fields through the `put_*` functions and read them back through one
//! [`Reader`], so the rule their decoders' safety rests on — a count is
//! checked against its cap *and* the bytes left before anything is
//! reserved — is written once. A cache's spec, the one body both
//! formats register a cache with, is read, written and checked through
//! these by `talus_partition::spec`. Integers are little-endian and an
//! `f64` is its IEEE-754 bit pattern, so every value round-trips bit
//! for bit.
//!
//! Both formats frame a payload alike — a `u32` length prefix, then
//! `[version][opcode or tag][body]` — so [`check_len`] (the prefix) and
//! [`payload_parts`] (the version) are here too, and every decoder of
//! either fails with a [`DecodeError`] carrying its own format's `max`
//! and `want`. Layouts, caps, tags and the journal's checksum stay with
//! each format; a curve's bytes are [`MissCurve`](crate::MissCurve)'s.

use crate::CurveError;

/// Why a frame or a record failed to decode, or a value failed a
/// decoder's check. Decoders return these; they never panic on any
/// input.
#[derive(Debug, Clone, PartialEq)]
pub enum DecodeError {
    /// The bytes (or the stream) ended before the field or the declared
    /// length did.
    Truncated,
    /// The length prefix exceeds the format's cap; refused before any
    /// allocation.
    Oversized {
        /// The declared payload length.
        len: u32,
        /// The format's cap.
        max: u32,
    },
    /// The payload's version byte is not the format's.
    BadVersion {
        /// The version byte read.
        got: u8,
        /// The format's version.
        want: u8,
    },
    /// The opcode (wire) or record tag (journal) is not one the decoder
    /// knows.
    BadTag {
        /// The byte read.
        got: u8,
    },
    /// A count exceeds its cap.
    BadCount {
        /// The declared count.
        count: u32,
        /// The cap it violated.
        max: u32,
    },
    /// A curve body violates [`MissCurve`](crate::MissCurve)'s invariants.
    Curve(CurveError),
    /// A structurally invalid body: a bad tag, a zero field that must be
    /// positive, or trailing bytes.
    Malformed(&'static str),
    /// The underlying stream or file failed.
    Io(std::io::ErrorKind),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "input truncated"),
            DecodeError::Oversized { len, max } => write!(f, "length {len} exceeds {max}"),
            DecodeError::BadVersion { got, want } => {
                write!(f, "unsupported format version {got} (expected {want})")
            }
            DecodeError::BadTag { got } => write!(f, "unknown opcode or tag {got:#04x}"),
            DecodeError::BadCount { count, max } => {
                write!(f, "element count {count} exceeds bound {max}")
            }
            DecodeError::Curve(e) => write!(f, "invalid curve payload: {e}"),
            DecodeError::Malformed(what) => write!(f, "malformed payload: {what}"),
            DecodeError::Io(kind) => write!(f, "io error: {kind}"),
        }
    }
}

impl std::error::Error for DecodeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DecodeError::Curve(e) => Some(e),
            _ => None,
        }
    }
}

/// An unexpected end of input is a truncation.
impl From<std::io::Error> for DecodeError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            DecodeError::Truncated
        } else {
            DecodeError::Io(e.kind())
        }
    }
}

/// Checks a payload length prefix, before anything is sized for it:
/// refused over the format's cap `max`, or under the two header bytes
/// (version, then opcode or tag) every payload starts with. Writers check
/// what they frame with it too. Returns the length.
#[inline]
pub fn check_len(len: u32, max: u32) -> Result<usize, DecodeError> {
    if len > max {
        return Err(DecodeError::Oversized { len, max });
    }
    if len < 2 {
        return Err(DecodeError::Malformed("frame shorter than its header"));
    }
    Ok(len as usize)
}

/// Splits a payload into its opcode or tag and its body, refusing a
/// version byte other than `version` — a payload too short to hold both
/// header bytes is [`DecodeError::Truncated`].
#[inline]
pub fn payload_parts(payload: &[u8], version: u8) -> Result<(u8, &[u8]), DecodeError> {
    let [got, tag, body @ ..] = payload else {
        return Err(DecodeError::Truncated);
    };
    if *got != version {
        return Err(DecodeError::BadVersion {
            got: *got,
            want: version,
        });
    }
    Ok((*tag, body))
}

/// Appends one byte.
#[inline]
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Appends a little-endian `u32`.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64`'s bit pattern as a little-endian `u64`.
#[inline]
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Refuses a count over `max` as a decoder refuses it (a count past
/// `u32::MAX` is reported as `u32::MAX`), so a writer or a client can
/// refuse it before a byte is sent. Returns the count as the `u32` a
/// format writes.
#[inline]
pub fn check_count(count: usize, max: u32) -> Result<u32, DecodeError> {
    let count = u32::try_from(count).unwrap_or(u32::MAX);
    if count > max {
        return Err(DecodeError::BadCount { count, max });
    }
    Ok(count)
}

/// A bounds-checked cursor over one body. Every read fails with
/// [`DecodeError::Truncated`] instead of slicing out of range.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not read yet.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4"))) // audited: take(4) is 4 bytes
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8"))) // audited: take(8) is 8 bytes
    }

    /// Reads an `f64` from its little-endian bit pattern.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `u32` element count, refused if it exceeds `cap` or if the
    /// bytes left cannot hold `count` elements of at least
    /// `min_elem_bytes` each — checked *before* the caller reserves
    /// anything, so a hostile count never costs memory.
    #[inline]
    pub fn count(&mut self, cap: u32, min_elem_bytes: usize) -> Result<usize, DecodeError> {
        let count = self.u32()? as usize;
        check_count(count, cap)?;
        if count.saturating_mul(min_elem_bytes) > self.remaining() {
            return Err(DecodeError::Truncated);
        }
        Ok(count)
    }

    /// Reads an id list: a [`count`](Reader::count) of at most `cap`,
    /// then that many `u64`s.
    #[inline]
    pub fn u64s(&mut self, cap: u32) -> Result<Vec<u64>, DecodeError> {
        let count = self.count(cap, 8)?;
        let bytes = self.take(8 * count)?;
        let id = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8")); // audited: chunks_exact(8)
        Ok(bytes.chunks_exact(8).map(id).collect())
    }

    /// Ends the body, refusing trailing bytes: an accepted body accounts
    /// for every byte.
    #[inline]
    pub fn end(self) -> Result<(), DecodeError> {
        if self.remaining() != 0 {
            return Err(DecodeError::Malformed("trailing bytes after the body"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_field_reads_back_bit_for_bit() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_f64(&mut buf, -0.0);
        put_u32(&mut buf, 2);
        put_u64(&mut buf, u64::MAX);
        put_u64(&mut buf, 5);
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(r.f64().map(f64::to_bits), Ok((-0.0f64).to_bits()));
        assert_eq!(r.u64s(2), Ok(vec![u64::MAX, 5]));
        assert_eq!(r.u8(), Err(DecodeError::Truncated));
        assert_eq!(r.end(), Ok(()));
    }

    #[test]
    fn counts_are_refused_before_anything_is_reserved_and_trailing_bytes_at_the_end() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 3);
        put_u64(&mut buf, 1);
        let bad = DecodeError::BadCount { count: 3, max: 2 };
        assert_eq!(Reader::new(&buf).count(2, 1), Err(bad.clone()));
        assert_eq!(Reader::new(&buf).u64s(2), Err(bad));
        // Within the cap, but three ids cannot fit in the 8 bytes left.
        assert_eq!(Reader::new(&buf).u64s(3), Err(DecodeError::Truncated));
        let mut r = Reader::new(&buf);
        assert_eq!(r.count(3, 2), Ok(3));
        assert!(matches!(r.end(), Err(DecodeError::Malformed(_))));
        // A writer's count past `u32::MAX` is reported at `u32::MAX`.
        let over = DecodeError::BadCount {
            count: u32::MAX,
            max: 4,
        };
        assert_eq!(check_count(usize::MAX, 4), Err(over));
        assert_eq!(check_count(4, 4), Ok(4));
    }

    #[test]
    fn a_frame_header_is_checked_against_the_formats_own_bounds() {
        assert_eq!(check_len(9, 9), Ok(9));
        assert_eq!(
            check_len(10, 9),
            Err(DecodeError::Oversized { len: 10, max: 9 })
        );
        assert!(matches!(check_len(1, 9), Err(DecodeError::Malformed(_))));
        assert_eq!(payload_parts(&[4, 7, 1, 2], 4), Ok((7, &[1u8, 2][..])));
        assert_eq!(payload_parts(&[4, 7], 4), Ok((7, &[][..])));
        assert_eq!(
            payload_parts(&[3, 7], 4),
            Err(DecodeError::BadVersion { got: 3, want: 4 })
        );
        // Too short for both header bytes, whatever the first one says.
        assert_eq!(payload_parts(&[3], 4), Err(DecodeError::Truncated));
        assert_eq!(payload_parts(&[], 4), Err(DecodeError::Truncated));
    }

    #[test]
    fn decode_errors_display_and_source() {
        use std::error::Error;
        let e = DecodeError::Curve(CurveError::Empty);
        assert!(e.source().is_some());
        for e in [
            e,
            DecodeError::Truncated,
            DecodeError::Oversized {
                len: 1 << 30,
                max: 1 << 20,
            },
            DecodeError::BadVersion { got: 9, want: 4 },
            DecodeError::BadTag { got: 0x7F },
            DecodeError::BadCount { count: 5, max: 4 },
            DecodeError::Malformed("x"),
            DecodeError::Io(std::io::ErrorKind::ConnectionReset),
        ] {
            let msg = e.to_string();
            assert!(msg.starts_with(char::is_lowercase), "{msg}");
        }
        let eof = std::io::Error::from(std::io::ErrorKind::UnexpectedEof);
        assert_eq!(DecodeError::from(eof), DecodeError::Truncated);
        let reset = std::io::Error::from(std::io::ErrorKind::ConnectionReset);
        assert_eq!(
            DecodeError::from(reset),
            DecodeError::Io(std::io::ErrorKind::ConnectionReset)
        );
    }
}
