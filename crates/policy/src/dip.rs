//! DIP — Dynamic Insertion Policy (Qureshi et al., ISCA 2007): set-duels
//! traditional LRU insertion against Bimodal Insertion (LIP with an
//! occasional MRU insert). One of the recency-based translation-oblivious
//! baselines the paper's related-work section classifies (its reference 67).

use crate::meta::CacheMeta;
use crate::recency::RecencyStack;
use crate::rrip::SetDuel;
use crate::traits::Policy;
use itpx_types::Rng64;

/// Probability denominator for BIP's occasional MRU insertion (1/32).
const BIP_EPSILON: u64 = 32;

/// Dynamic Insertion Policy over a true recency stack.
#[derive(Debug, Clone)]
pub struct Dip {
    stack: RecencyStack,
    duel: SetDuel,
    rng: Rng64,
}

impl Dip {
    /// Creates a DIP policy with a deterministic seed.
    pub fn new(sets: usize, ways: usize, seed: u64) -> Self {
        Self {
            stack: RecencyStack::new(sets, ways),
            duel: SetDuel::new(sets),
            rng: Rng64::new(seed),
        }
    }
}

impl Policy<CacheMeta> for Dip {
    fn on_fill(&mut self, set: usize, way: usize, _meta: &CacheMeta) {
        self.duel.on_fill(set);
        if self.duel.use_primary(set) {
            // Traditional LRU insertion at MRU.
            self.stack.touch(set, way);
        } else if self.rng.below(BIP_EPSILON) == 0 {
            // BIP: occasionally admit to MRU so a new working set can
            // establish itself.
            self.stack.touch(set, way);
        } else {
            // LIP: insert at LRU — thrash-resistant.
            self.stack.place_at_height(set, way, 0);
        }
    }

    // itpx-allow: hot-inline engine-dispatched only in unbenchmarked configurations, so it stays out of line rather than grow every dispatch site; the flagged PSC edge is a name collision (the PSCs run LRU)
    fn on_hit(&mut self, set: usize, way: usize, _meta: &CacheMeta) {
        self.stack.touch(set, way);
    }

    fn victim(&mut self, set: usize, _incoming: &CacheMeta) -> usize {
        self.stack.lru(set)
    }

    fn name(&self) -> &'static str {
        "dip"
    }

    fn meta_bits(&self, sets: usize, ways: usize) -> u64 {
        sets as u64 * ways as u64 * crate::traits::rank_bits(ways)
            + crate::traits::PSEL_BITS
            + crate::traits::RNG_STATE_BITS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itpx_types::FillClass;

    fn m(b: u64) -> CacheMeta {
        CacheMeta::demand(b, FillClass::DataPayload)
    }

    #[test]
    fn leader_sets_use_their_pinned_flavor() {
        // Set 0 is an LRU leader (primary), set 1 a BIP leader.
        let mut p = Dip::new(64, 4, 1);
        p.on_fill(0, 2, &m(1));
        assert_eq!(p.stack.mru(0), 2, "LRU leader inserts at MRU");
        // BIP leader inserts at LRU (except the 1/32 epsilon).
        let mut lru_inserts = 0;
        for i in 0..32 {
            p.on_fill(1, (i % 4) as usize, &m(i));
            if p.stack.lru(1) == (i % 4) as usize {
                lru_inserts += 1;
            }
        }
        assert!(
            lru_inserts >= 28,
            "BIP mostly inserts at LRU: {lru_inserts}"
        );
    }

    #[test]
    fn hits_always_promote_to_mru() {
        let mut p = Dip::new(64, 4, 2);
        p.on_fill(1, 3, &m(7)); // BIP leader, likely LRU insert
        p.on_hit(1, 3, &m(7));
        assert_eq!(p.stack.mru(1), 3);
    }

    #[test]
    fn victim_is_lru() {
        let mut p = Dip::new(64, 4, 3);
        for w in 0..4 {
            p.on_fill(2, w, &m(w as u64));
            p.on_hit(2, w, &m(w as u64));
        }
        assert_eq!(p.victim(2, &m(9)), 0);
    }

    #[test]
    fn thrash_pattern_flips_followers_toward_bip() {
        // 128 sets → duel stride 4: sets ≡ 0 are LRU leaders, ≡ 1 are BIP
        // leaders, the rest follow the PSEL winner.
        let mut p = Dip::new(128, 4, 4);
        // Miss storm on the LRU leader sets only: PSEL moves toward BIP.
        for i in 0..600u64 {
            let set = ((i % 16) * 8) as usize; // multiples of 4 ⊂ leaders
            p.on_fill(set, (i % 4) as usize, &m(i));
        }
        // A follower set now inserts at LRU most of the time.
        let follower = 2usize;
        let mut lru_inserts = 0;
        for i in 0..32u64 {
            p.on_fill(follower, (i % 4) as usize, &m(1000 + i));
            if p.stack.lru(follower) == (i % 4) as usize {
                lru_inserts += 1;
            }
        }
        assert!(
            lru_inserts >= 24,
            "followers should use BIP after LRU-leader thrash: {lru_inserts}"
        );
    }
}
