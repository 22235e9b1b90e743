//! Addressing: cache lines and capacity arithmetic.
//!
//! The simulator operates at cache-line granularity, as last-level caches
//! do: workload generators emit [`LineAddr`]s, and everything downstream
//! works in lines.

use std::fmt;

/// Size of a cache line in bytes (Table I: 64 B lines).
pub const LINE_BYTES: u64 = 64;

/// A cache-line address: a byte address with the line-offset bits removed.
///
/// Newtype so that line addresses, set indices, and raw byte addresses can
/// never be mixed up.
///
/// # Examples
///
/// ```
/// use talus_sim::LineAddr;
/// let a = LineAddr::from(0x41);
/// assert_eq!(a, LineAddr(0x41)); // a line number, not a byte address
/// assert_eq!(a.value(), 0x41);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct LineAddr(pub u64);

impl LineAddr {
    /// The raw line number.
    pub fn value(self) -> u64 {
        self.0
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {:#x}", self.0)
    }
}

impl From<u64> for LineAddr {
    /// Interprets the value as a line number (not a byte address).
    fn from(line: u64) -> Self {
        LineAddr(line)
    }
}

/// Converts a capacity in cache lines to megabytes (floating point), the
/// unit the paper's figures use on their x-axes.
pub fn lines_to_mb(lines: u64) -> f64 {
    (lines * LINE_BYTES) as f64 / (1024.0 * 1024.0)
}

/// Converts megabytes to cache lines (rounding to nearest line).
pub fn mb_to_lines(mb: f64) -> u64 {
    (mb * 1024.0 * 1024.0 / LINE_BYTES as f64).round() as u64
}

/// A partition identifier within a partitioned cache.
///
/// Partitions are dense indices assigned by the cache's constructor;
/// logical (software-visible) partitions and Talus's hidden shadow
/// partitions both use this type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct PartitionId(pub u32);

impl PartitionId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PartitionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "partition {}", self.0)
    }
}

impl From<u32> for PartitionId {
    fn from(v: u32) -> Self {
        PartitionId(v)
    }
}

/// A hardware thread (core) identifier, used by thread-aware policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ThreadId(pub u16);

impl ThreadId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "thread {}", self.0)
    }
}

impl From<u16> for ThreadId {
    fn from(v: u16) -> Self {
        ThreadId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_round_trips() {
        assert_eq!(mb_to_lines(1.0), 16384);
        assert!((lines_to_mb(16384) - 1.0).abs() < 1e-12);
        assert_eq!(mb_to_lines(lines_to_mb(524288)), 524288); // 32 MB
    }

    #[test]
    fn ids_display_and_index() {
        assert_eq!(PartitionId(3).index(), 3);
        assert_eq!(ThreadId(7).index(), 7);
        assert_eq!(PartitionId(3).to_string(), "partition 3");
        assert_eq!(ThreadId(7).to_string(), "thread 7");
        assert_eq!(LineAddr(16).to_string(), "line 0x10");
    }

    #[test]
    fn conversions_from_raw() {
        assert_eq!(LineAddr::from(9u64), LineAddr(9));
        assert_eq!(PartitionId::from(2u32), PartitionId(2));
        assert_eq!(ThreadId::from(1u16), ThreadId(1));
    }
}
