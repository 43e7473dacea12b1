//! The Figure-3 motivation policy: LRU modified to victimize a *data*
//! translation with probability `P` (and an *instruction* translation with
//! probability `1 - P`), falling back to plain LRU when the chosen kind is
//! absent from the set.
//!
//! The paper uses this family (P ∈ {0.2, 0.4, 0.6, 0.8}) to demonstrate
//! that trading data for instruction STLB entries helps big-code workloads
//! (Finding 2) — the observation iTP turns into a real policy.

use crate::meta::TlbMeta;
use crate::recency::RecencyStack;
use crate::traits::Policy;
use itpx_types::{Rng64, SetGrid, TranslationKind};

/// Probabilistic instruction-keeping LRU for the STLB.
#[derive(Debug, Clone)]
pub struct ProbKeepInstrLru {
    stack: RecencyStack,
    kind: SetGrid<TranslationKind>,
    p_evict_data: f64,
    rng: Rng64,
}

impl ProbKeepInstrLru {
    /// Creates the policy; `p_evict_data` is the paper's `P`, the
    /// probability that an eviction victimizes a data translation.
    ///
    /// # Panics
    ///
    /// Panics if `p_evict_data` is not in `[0, 1]`.
    pub fn new(sets: usize, ways: usize, p_evict_data: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p_evict_data),
            "P must be a probability"
        );
        Self {
            stack: RecencyStack::new(sets, ways),
            kind: SetGrid::new(sets, ways, TranslationKind::Data),
            p_evict_data,
            rng: Rng64::new(seed),
        }
    }

    /// The configured probability of victimizing a data translation.
    pub fn p_evict_data(&self) -> f64 {
        self.p_evict_data
    }

    /// Least-recently-used way of the given kind, if any resident.
    fn lru_of_kind(&self, set: usize, kind: TranslationKind) -> Option<usize> {
        self.stack
            .iter_lru_to_mru(set)
            .find(|&w| self.kind.row(set)[w] == kind)
    }
}

impl Policy<TlbMeta> for ProbKeepInstrLru {
    fn on_fill(&mut self, set: usize, way: usize, meta: &TlbMeta) {
        self.kind.row_mut(set)[way] = meta.kind;
        self.stack.touch(set, way);
    }

    // itpx-allow: hot-inline engine-dispatched only in unbenchmarked configurations, so it stays out of line rather than grow every dispatch site; the flagged PSC edge is a name collision (the PSCs run LRU)
    fn on_hit(&mut self, set: usize, way: usize, _meta: &TlbMeta) {
        self.stack.touch(set, way);
    }

    fn victim(&mut self, set: usize, _incoming: &TlbMeta) -> usize {
        let prefer = if self.rng.chance(self.p_evict_data) {
            TranslationKind::Data
        } else {
            TranslationKind::Instruction
        };
        self.lru_of_kind(set, prefer)
            .unwrap_or_else(|| self.stack.lru(set))
    }

    fn name(&self) -> &'static str {
        "prob-keep-instr-lru"
    }

    fn meta_bits(&self, sets: usize, ways: usize) -> u64 {
        // LRU ranks + the per-entry Type bit + the shared generator.
        sets as u64 * ways as u64 * (crate::traits::rank_bits(ways) + 1)
            + crate::traits::RNG_STATE_BITS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(vpn: u64, kind: TranslationKind) -> TlbMeta {
        TlbMeta::demand(vpn, kind)
    }

    #[test]
    fn p1_always_evicts_data_when_present() {
        let mut p = ProbKeepInstrLru::new(1, 4, 1.0, 5);
        p.on_fill(0, 0, &meta(0, TranslationKind::Data));
        p.on_fill(0, 1, &meta(1, TranslationKind::Instruction));
        p.on_fill(0, 2, &meta(2, TranslationKind::Instruction));
        p.on_fill(0, 3, &meta(3, TranslationKind::Data));
        for _ in 0..20 {
            let v = p.victim(0, &meta(9, TranslationKind::Data));
            assert!(v == 0 || v == 3);
        }
    }

    #[test]
    fn p0_always_evicts_instruction_when_present() {
        let mut p = ProbKeepInstrLru::new(1, 4, 0.0, 5);
        p.on_fill(0, 0, &meta(0, TranslationKind::Data));
        p.on_fill(0, 1, &meta(1, TranslationKind::Instruction));
        for _ in 0..20 {
            assert_eq!(p.victim(0, &meta(9, TranslationKind::Data)), 1);
        }
    }

    #[test]
    fn falls_back_to_plain_lru_when_kind_absent() {
        let mut p = ProbKeepInstrLru::new(1, 2, 1.0, 5);
        // Only instruction entries resident, but P = 1 wants a data victim.
        p.on_fill(0, 0, &meta(0, TranslationKind::Instruction));
        p.on_fill(0, 1, &meta(1, TranslationKind::Instruction));
        assert_eq!(p.victim(0, &meta(9, TranslationKind::Data)), 0);
    }

    #[test]
    fn evicts_lru_of_the_chosen_kind_not_global_lru() {
        let mut p = ProbKeepInstrLru::new(1, 3, 1.0, 5);
        p.on_fill(0, 0, &meta(0, TranslationKind::Instruction)); // global LRU
        p.on_fill(0, 1, &meta(1, TranslationKind::Data)); // LRU data
        p.on_fill(0, 2, &meta(2, TranslationKind::Data));
        assert_eq!(p.victim(0, &meta(9, TranslationKind::Data)), 1);
    }

    #[test]
    fn p_is_roughly_respected_statistically() {
        let mut p = ProbKeepInstrLru::new(1, 2, 0.8, 11);
        p.on_fill(0, 0, &meta(0, TranslationKind::Data));
        p.on_fill(0, 1, &meta(1, TranslationKind::Instruction));
        let data_victims = (0..10_000)
            .filter(|_| p.victim(0, &meta(9, TranslationKind::Data)) == 0)
            .count();
        assert!(
            (7500..8500).contains(&data_victims),
            "data victims: {data_victims}"
        );
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_p_panics() {
        let _ = ProbKeepInstrLru::new(1, 2, 1.5, 0);
    }
}
