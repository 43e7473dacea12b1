//! SHiP-PC (Wu et al., MICRO 2011): signature-based hit prediction on top
//! of RRIP. Used by the paper as an LLC replacement baseline (Section 6.3).
//!
//! [`Ship::translation_aware`] builds T-SHiP, the translation-aware SHiP
//! companion of T-DRRIP (Vasudha & Panda, ISPASS 2022). The original
//! proposal pairs T-DRRIP at the L2C with T-SHiP at the LLC; the paper
//! under reproduction applies only the L2C half (its experiments found
//! that configuration stronger), so T-SHiP is an optional extension.

use crate::meta::CacheMeta;
use crate::rrip::{translation_override, RripState, RRPV_LONG, RRPV_MAX};
use crate::traits::Policy;
use itpx_types::SetGrid;

const SHCT_BITS: u32 = 14;
const SHCT_MAX: u8 = 7; // 3-bit saturating counters

/// Signature-based Hit Predictor.
///
/// Each block remembers the PC signature that filled it and whether it was
/// re-referenced. Evictions without reuse train the signature's counter
/// down; hits train it up. Fills from signatures with a zero counter are
/// predicted dead and inserted at the distant RRPV.
#[derive(Debug, Clone)]
pub struct Ship {
    state: RripState,
    shct: Vec<u8>,
    // Per-block training state.
    signature: SetGrid<u16>,
    outcome: SetGrid<bool>,
    translation_aware: bool,
}

impl Ship {
    /// Creates a SHiP policy.
    pub fn new(sets: usize, ways: usize) -> Self {
        Self {
            state: RripState::new(sets, ways),
            shct: vec![1; 1 << SHCT_BITS],
            signature: SetGrid::new(sets, ways, 0),
            outcome: SetGrid::new(sets, ways, false),
            translation_aware: false,
        }
    }

    /// Creates T-SHiP: SHiP whose fills take the translation-aware
    /// insertion override first — PTE blocks are predicted live and
    /// STLB-missing demand blocks dead, regardless of their signature's
    /// counter. Training is unchanged.
    pub fn translation_aware(sets: usize, ways: usize) -> Self {
        Self {
            translation_aware: true,
            ..Self::new(sets, ways)
        }
    }

    fn sig(pc: u64) -> u16 {
        // Fold the PC into SHCT_BITS bits.
        let x = pc ^ (pc >> SHCT_BITS) ^ (pc >> (2 * SHCT_BITS));
        (x as u16) & ((1 << SHCT_BITS) - 1) as u16
    }

    /// Current counter value for a PC's signature (for tests/inspection).
    pub fn counter_for_pc(&self, pc: u64) -> u8 {
        // sig() masks to SHCT_BITS, within shct's 2^SHCT_BITS entries
        self.shct[Self::sig(pc) as usize]
    }
}

impl Policy<CacheMeta> for Ship {
    fn on_fill(&mut self, set: usize, way: usize, meta: &CacheMeta) {
        let sig = Self::sig(meta.pc);
        self.signature.row_mut(set)[way] = sig;
        self.outcome.row_mut(set)[way] = false;
        let overridden = translation_override(self.translation_aware, meta);
        let predicted_dead = self.shct[sig as usize] == 0;
        let v = overridden.unwrap_or(if predicted_dead { RRPV_MAX } else { RRPV_LONG });
        self.state.set_rrpv(set, way, v);
    }

    // itpx-allow: hot-inline engine-dispatched only in unbenchmarked configurations, so it stays out of line rather than grow every dispatch site; the flagged PSC edge is a name collision (the PSCs run LRU)
    fn on_hit(&mut self, set: usize, way: usize, _meta: &CacheMeta) {
        self.state.set_rrpv(set, way, 0);
        if !self.outcome.row(set)[way] {
            self.outcome.row_mut(set)[way] = true;
            let sig = self.signature.row(set)[way] as usize;
            self.shct[sig] = (self.shct[sig] + 1).min(SHCT_MAX);
        }
    }

    fn victim(&mut self, set: usize, _incoming: &CacheMeta) -> usize {
        self.state.victim(set)
    }

    fn on_evict(&mut self, set: usize, way: usize) {
        if !self.outcome.row(set)[way] {
            let sig = self.signature.row(set)[way] as usize;
            self.shct[sig] = self.shct[sig].saturating_sub(1);
        }
    }

    fn name(&self) -> &'static str {
        if self.translation_aware {
            "tship"
        } else {
            "ship"
        }
    }

    fn meta_bits(&self, sets: usize, ways: usize) -> u64 {
        // Per entry: 2-bit RRPV + SHCT_BITS signature + 1 outcome bit;
        // global: the 3-bit SHCT table. T-SHiP's overrides reuse the
        // fill-class wires, costing no extra bits.
        sets as u64 * ways as u64 * (2 + SHCT_BITS as u64 + 1) + 3 * (1u64 << SHCT_BITS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itpx_types::FillClass;

    fn m(block: u64, pc: u64) -> CacheMeta {
        CacheMeta {
            pc,
            ..CacheMeta::demand(block, FillClass::DataPayload)
        }
    }

    #[test]
    fn dead_signature_trains_down_and_inserts_distant() {
        let mut p = Ship::new(1, 2);
        let pc = 0x400;
        // Fill and evict without reuse repeatedly: counter goes to 0.
        for i in 0..4 {
            p.on_fill(0, 0, &m(i, pc));
            p.on_evict(0, 0);
        }
        assert_eq!(p.counter_for_pc(pc), 0);
        // Next fill from this PC is predicted dead -> distant RRPV, so it
        // becomes the victim even against a fresh long-interval block.
        p.on_fill(0, 0, &m(50, pc));
        p.on_fill(0, 1, &m(51, 0x999));
        assert_eq!(p.victim(0, &m(52, 0x999)), 0);
    }

    #[test]
    fn reused_signature_trains_up() {
        let mut p = Ship::new(1, 2);
        let pc = 0x400;
        let before = p.counter_for_pc(pc);
        p.on_fill(0, 0, &m(1, pc));
        p.on_hit(0, 0, &m(1, pc));
        assert_eq!(p.counter_for_pc(pc), before + 1);
        // A second hit on the same generation does not double-train.
        p.on_hit(0, 0, &m(1, pc));
        assert_eq!(p.counter_for_pc(pc), before + 1);
    }

    #[test]
    fn eviction_after_reuse_does_not_train_down() {
        let mut p = Ship::new(1, 1);
        let pc = 0x8;
        p.on_fill(0, 0, &m(1, pc));
        p.on_hit(0, 0, &m(1, pc));
        let c = p.counter_for_pc(pc);
        p.on_evict(0, 0);
        assert_eq!(p.counter_for_pc(pc), c);
    }

    #[test]
    fn tship_pte_blocks_insert_protected() {
        let mut p = Ship::translation_aware(1, 4);
        p.on_fill(0, 0, &CacheMeta::demand(0, FillClass::DataPte));
        p.on_fill(0, 1, &CacheMeta::demand(1, FillClass::InstrPte));
        p.on_fill(0, 2, &CacheMeta::demand(2, FillClass::DataPayload));
        p.on_fill(0, 3, &CacheMeta::demand(3, FillClass::DataPayload));
        let v = p.victim(0, &CacheMeta::demand(9, FillClass::DataPayload));
        assert!(v == 2 || v == 3, "PTE ways must not be first victims");
    }

    #[test]
    fn tship_stlb_missing_blocks_are_first_victims() {
        let mut p = Ship::translation_aware(1, 2);
        p.on_fill(
            0,
            0,
            &CacheMeta::demand_stlb_miss(0, FillClass::DataPayload),
        );
        p.on_fill(0, 1, &CacheMeta::demand(1, FillClass::DataPayload));
        assert_eq!(
            p.victim(0, &CacheMeta::demand(9, FillClass::DataPayload)),
            0
        );
    }

    #[test]
    fn tship_training_still_applies_to_plain_payload() {
        let mut p = Ship::translation_aware(1, 2);
        let pc = 0x500;
        for i in 0..4 {
            p.on_fill(0, 0, &m(i, pc));
            p.on_evict(0, 0);
        }
        assert_eq!(p.counter_for_pc(pc), 0, "dead signature trained down");
        p.on_fill(0, 0, &m(50, pc));
        p.on_fill(0, 1, &CacheMeta::demand(51, FillClass::DataPayload));
        assert_eq!(
            p.victim(0, &CacheMeta::demand(52, FillClass::DataPayload)),
            0,
            "dead-signature block evicted first"
        );
    }
}
