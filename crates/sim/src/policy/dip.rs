//! DIP: dynamic insertion policy (Qureshi et al., ISCA 2007).
//!
//! DIP duels LRU against BIP (bimodal insertion: new lines land in the LRU
//! position except for a 1/32 fraction inserted at MRU), protecting the
//! cache against thrashing while retaining LRU behaviour on friendly
//! workloads.

use super::insertion::{Bimodal, Duel};
use super::lru::Stamps;

/// Bimodal insertion policy: LRU eviction, but insertions default to the
/// LRU position. Thrash-resistant on its own; used as one side of DIP.
/// Built by `Bip::new(seed)`, the seed offsetting the bimodal phase.
pub type Bip = Stamps<Bimodal>;

/// DIP: set dueling between LRU and BIP insertion with a 10-bit PSEL.
/// Built by `Dip::new(seed)`.
pub type Dip = Stamps<Duel<1>>;

#[cfg(test)]
mod tests {
    use super::super::insertion::{DUEL_CONSTITUENCY, PSEL_INIT, PSEL_MAX};
    use super::*;
    use crate::policy::{AccessCtx, ReplacementPolicy};

    fn ctx() -> AccessCtx {
        AccessCtx::new()
    }

    #[test]
    fn bip_inserted_line_is_next_victim() {
        let mut p = Bip::new(0);
        p.attach(1, 4);
        for w in 0..4 {
            p.on_insert(0, w, &ctx());
        }
        p.on_hit(0, 0, &ctx());
        p.on_hit(0, 1, &ctx());
        p.on_hit(0, 2, &ctx());
        // Way 3 was inserted at LRU and never promoted.
        assert_eq!(p.choose_victim(0, 0..4), 3);
    }

    #[test]
    fn bip_occasionally_inserts_at_mru() {
        let mut p = Bip::new(0);
        p.attach(1, 2);
        // 31 inserts at LRU, the 32nd at MRU.
        for i in 0..32 {
            p.on_insert(0, i % 2, &ctx());
        }
        // The 32nd insert (way 1) was MRU, so way 0 is the victim.
        assert_eq!(p.choose_victim(0, 0..2), 0);
    }

    #[test]
    fn bip_promotes_on_hit() {
        let mut p = Bip::new(0);
        p.attach(1, 2);
        p.on_insert(0, 0, &ctx());
        p.on_insert(0, 1, &ctx());
        p.on_hit(0, 0, &ctx()); // way 0 now MRU
        assert_eq!(p.choose_victim(0, 0..2), 1);
    }

    #[test]
    fn dip_thrashing_in_lru_leader_raises_psel() {
        let mut p = Dip::new(0);
        p.attach(DUEL_CONSTITUENCY * 2, 2);
        for _ in 0..200 {
            p.on_insert(0, 0, &ctx());
        }
        assert!(p.rule.psel[0] > PSEL_INIT);
        // Misses in the BIP leader pull it back down.
        for _ in 0..400 {
            p.on_insert(1, 0, &ctx());
        }
        assert!(p.rule.psel[0] < PSEL_INIT);
    }

    #[test]
    fn dip_follower_uses_lru_when_psel_low() {
        let mut p = Dip::new(0);
        p.attach(DUEL_CONSTITUENCY, 2);
        // PSEL at init: followers behave as LRU (insert at MRU).
        p.on_insert(2, 0, &ctx());
        p.on_insert(2, 1, &ctx());
        // Way 0 inserted first → LRU → victim.
        assert_eq!(p.choose_victim(2, 0..2), 0);
    }

    #[test]
    fn dip_psel_saturates() {
        let mut p = Dip::new(0);
        p.attach(DUEL_CONSTITUENCY, 1);
        for _ in 0..5000 {
            p.on_insert(0, 0, &ctx());
        }
        assert_eq!(p.rule.psel[0], PSEL_MAX);
    }
}
