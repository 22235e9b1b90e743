//! The field-level byte rules both encoded formats of these types share.
//!
//! `talus-serve`'s wire protocol and `talus-store`'s journal append
//! fields through the `put_*` functions and read them back through one
//! [`Reader`], so the rule their decoders' safety rests on — a count is
//! checked against its cap *and* the bytes left before anything is
//! reserved — is written once, as are the bounds on a cache's shape
//! ([`check_shape`]). Integers are little-endian and an `f64` is its
//! IEEE-754 bit pattern, so every value round-trips bit for bit.
//!
//! Framing (length prefixes, versions, opcodes and tags, checksums)
//! belongs to each format and a curve's bytes to
//! [`MissCurve`](crate::MissCurve)'s values codec. Each format converts a
//! [`DecodeError`] into its own error type, variant for variant.

use crate::limits::WIRE_MAX_TENANTS;
use crate::CurveError;

/// Why a body failed to decode, or a value failed a decoder's check.
#[derive(Debug, Clone, PartialEq)]
pub enum DecodeError {
    /// The bytes ended before the field did.
    Truncated,
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

/// The bounds on a cache's shape — a positive capacity and
/// `1..=`[`WIRE_MAX_TENANTS`] tenants — that every register decoder
/// checks, and every writer and client checks before sending one.
pub fn check_shape(capacity: u64, tenants: u32) -> Result<(), DecodeError> {
    if capacity == 0 {
        return Err(DecodeError::Malformed("zero capacity"));
    }
    if tenants == 0 {
        return Err(DecodeError::Malformed("zero tenants"));
    }
    check_count(tenants as usize, WIRE_MAX_TENANTS).map(drop)
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
}
