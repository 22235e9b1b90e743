//! Belady's MIN: the offline optimal replacement policy.
//!
//! MIN evicts the line whose next use lies furthest in the future. It needs
//! an oracle, so it only runs on pre-recorded traces whose next-use indices
//! have been computed by [`annotate_next_uses`]. The Talus paper proves
//! (Corollary 7) that optimal replacement is convex — a property the
//! integration tests verify empirically against this implementation.

use super::{AccessCtx, ReplacementPolicy};
use crate::addr::LineAddr;
use std::collections::HashMap;
use std::ops::Range;

/// Sentinel next-use index for lines never referenced again.
pub const NEVER_USED: u64 = u64::MAX;

/// Belady's MIN replacement. Feed every access's next-use index via
/// [`AccessCtx::with_next_use`]; victims are the candidates with the most
/// distant next use.
#[derive(Debug, Clone, Default)]
pub struct Belady {
    next_use: Vec<u64>,
    ways: usize,
}

impl Belady {
    /// Creates a MIN policy (offline oracle information required).
    pub fn new() -> Self {
        Belady::default()
    }
}

impl ReplacementPolicy for Belady {
    fn attach(&mut self, sets: usize, ways: usize) {
        self.next_use = vec![NEVER_USED; sets * ways];
        self.ways = ways;
    }

    fn on_hit(&mut self, set: usize, way: usize, ctx: &AccessCtx) {
        self.next_use[set * self.ways + way] = ctx.next_use;
    }

    fn choose_victim(&mut self, set: usize, candidates: Range<usize>) -> usize {
        assert!(!candidates.is_empty(), "no victim candidates");
        candidates
            .max_by_key(|&w| self.next_use[set * self.ways + w])
            .expect("candidates is non-empty")
    }

    fn on_insert(&mut self, set: usize, way: usize, ctx: &AccessCtx) {
        self.next_use[set * self.ways + way] = ctx.next_use;
    }

    fn name(&self) -> &'static str {
        "MIN"
    }
}

/// Computes, for each access in `trace`, the index of the *next* access to
/// the same line (or [`NEVER_USED`]). One backward pass, O(n) time and
/// O(distinct lines) space.
///
/// # Examples
///
/// ```
/// use talus_sim::policy::{annotate_next_uses, NEVER_USED};
/// use talus_sim::LineAddr;
/// let trace = [LineAddr(1), LineAddr(2), LineAddr(1)];
/// let next = annotate_next_uses(&trace);
/// assert_eq!(next, vec![2, NEVER_USED, NEVER_USED]);
/// ```
pub fn annotate_next_uses(trace: &[LineAddr]) -> Vec<u64> {
    let mut next = vec![NEVER_USED; trace.len()];
    let mut last_seen: HashMap<LineAddr, u64> = HashMap::new();
    for (i, &line) in trace.iter().enumerate().rev() {
        if let Some(&later) = last_seen.get(&line) {
            next[i] = later;
        }
        last_seen.insert(line, i as u64);
    }
    next
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn annotate_simple_trace() {
        let t = [
            LineAddr(5),
            LineAddr(6),
            LineAddr(5),
            LineAddr(6),
            LineAddr(7),
        ];
        assert_eq!(
            annotate_next_uses(&t),
            vec![2, 3, NEVER_USED, NEVER_USED, NEVER_USED]
        );
    }

    #[test]
    fn annotate_empty_trace() {
        assert!(annotate_next_uses(&[]).is_empty());
    }

    #[test]
    fn belady_evicts_furthest_future_use() {
        let mut p = Belady::new();
        p.attach(1, 3);
        p.on_insert(0, 0, &AccessCtx::new().with_next_use(10));
        p.on_insert(0, 1, &AccessCtx::new().with_next_use(50));
        p.on_insert(0, 2, &AccessCtx::new().with_next_use(20));
        assert_eq!(p.choose_victim(0, 0..3), 1);
    }

    #[test]
    fn belady_prefers_dead_lines() {
        let mut p = Belady::new();
        p.attach(1, 2);
        p.on_insert(0, 0, &AccessCtx::new().with_next_use(NEVER_USED));
        p.on_insert(0, 1, &AccessCtx::new().with_next_use(3));
        assert_eq!(p.choose_victim(0, 0..2), 0);
    }

    #[test]
    fn belady_updates_on_hit() {
        let mut p = Belady::new();
        p.attach(1, 2);
        p.on_insert(0, 0, &AccessCtx::new().with_next_use(5));
        p.on_insert(0, 1, &AccessCtx::new().with_next_use(9));
        // Line 0 gets hit; its next use is now far away.
        p.on_hit(0, 0, &AccessCtx::new().with_next_use(100));
        assert_eq!(p.choose_victim(0, 0..2), 0);
    }
}
