//! xPTP — extended Page Table Prioritization (paper Section 4.2).
//!
//! xPTP is an L2-cache replacement policy that amplifies iTP: because iTP
//! trades data STLB hits for instruction STLB hits, the number of *data*
//! page walks rises (Finding 3), and each walk references PTE blocks in the
//! L2C. xPTP keeps exactly LRU's insertion and promotion but changes victim
//! selection (Figure 6):
//!
//! 1. identify the `LRUpos` block (the LRU victim), and in parallel
//! 2. identify the *alternative* victim — the block closest to `LRUpos`
//!    that does **not** hold a data PTE;
//! 3. if the alternative sits at or above `LRUpos + K` in the stack (i.e.
//!    it is too recently used to sacrifice), evict the LRU block anyway;
//! 4. otherwise evict the alternative, preserving the data PTE.
//!
//! Unlike PTP and T-DRRIP, xPTP protects only **data** PTEs — instruction
//! PTEs are covered by iTP keeping their translations in the STLB, so
//! caching them would waste L2C space.
//!
//! One [`Xptp`] covers three configurations, differing only in victim
//! selection and in the state they add:
//!
//! * [`Xptp::new`] — the static policy above (`"xptp"`).
//! * [`Xptp::adaptive`] — the Section 4.3.1 form (`"xptp/lru"`): a shared
//!   1-bit status register ([`XptpSwitch`], driven by the
//!   [`crate::StlbPressureMonitor`]) switches steps a–d off, at which point
//!   the victim is the plain LRU block. Insertion, promotion and the
//!   `Type` bits are kept in both states, so no state is lost across phase
//!   changes.
//! * [`Xptp::with_emissary`] — the Section 7 conjecture (`"xptp+emissary"`):
//!   *"A scheme that leverages iTP as STLB replacement policy and combines
//!   xPTP with Emissary at L2C has the potential to provide larger
//!   performance gains than iTP+xPTP since it would preserve critical code
//!   blocks in the L2C."* Emissary (Nagendra et al., ISCA 2023) preserves
//!   L2C blocks whose instruction fetches stalled the front end; this
//!   reproduction uses big-code criticality as the proxy and also skips
//!   the most recently used *instruction payload* blocks, up to a quarter
//!   of the ways, in step b.

use crate::adaptive::XptpSwitch;
use crate::{CacheMeta, Policy, RecencyStack};
use itpx_types::{FillClass, SetGrid};

/// Tunable parameters of [`Xptp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XptpParams {
    /// Recency-stack height threshold `K`: an alternative victim at height
    /// `>= K` is considered too recently used, and the LRU block (a data
    /// PTE) is evicted instead. With `K` equal to the associativity the
    /// protection is strict. Paper default (Table 1): 8 for the 8-way L2C.
    pub k: usize,
}

impl Default for XptpParams {
    fn default() -> Self {
        Self { k: 8 }
    }
}

/// What an [`Xptp`] adds to the static policy.
#[derive(Debug, Clone)]
enum Mode {
    /// Steps a–d on every eviction.
    Static,
    /// Steps a–d while the status register is set, LRU otherwise.
    Adaptive(XptpSwitch),
    /// Step b also skips the `quota` most recently used code blocks.
    Emissary {
        /// Per-block criticality bit: the block holds instruction payload.
        is_code: SetGrid<bool>,
        quota: usize,
    },
}

/// The xPTP L2-cache replacement policy, optionally adaptive or with
/// Emissary-style code preservation (see the module docs).
#[derive(Debug, Clone)]
pub struct Xptp {
    params: XptpParams,
    stack: RecencyStack,
    /// The per-block `Type` bit: true when the block holds a data PTE.
    is_data_pte: SetGrid<bool>,
    mode: Mode,
}

impl Xptp {
    /// Creates a static xPTP policy for `sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `params.k == 0` or `params.k > ways`.
    pub fn new(sets: usize, ways: usize, params: XptpParams) -> Self {
        Self::with_mode(sets, ways, params, Mode::Static)
    }

    /// Creates adaptive xPTP: Figure 6 victim selection while `switch` is
    /// on, LRU while it is off.
    ///
    /// # Panics
    ///
    /// Panics if `params.k == 0` or `params.k > ways`.
    pub fn adaptive(sets: usize, ways: usize, params: XptpParams, switch: XptpSwitch) -> Self {
        Self::with_mode(sets, ways, params, Mode::Adaptive(switch))
    }

    /// Creates xPTP with Emissary-style code preservation; code
    /// protection is bounded to a quarter of the ways.
    ///
    /// # Panics
    ///
    /// Panics if `params.k == 0` or `params.k > ways`.
    pub fn with_emissary(sets: usize, ways: usize, params: XptpParams) -> Self {
        let mode = Mode::Emissary {
            is_code: SetGrid::new(sets, ways, false),
            quota: (ways / 4).max(1),
        };
        Self::with_mode(sets, ways, params, mode)
    }

    fn with_mode(sets: usize, ways: usize, params: XptpParams, mode: Mode) -> Self {
        assert!(
            params.k >= 1 && params.k <= ways,
            "xPTP requires 1 <= K <= ways (K={}, ways={ways})",
            params.k
        );
        Self {
            params,
            stack: RecencyStack::new(sets, ways),
            is_data_pte: SetGrid::new(sets, ways, false),
            mode,
        }
    }

    /// The configured parameters.
    pub fn params(&self) -> &XptpParams {
        &self.params
    }

    /// Whether `(set, way)` currently holds a data PTE (the stored `Type`
    /// bit).
    pub fn type_bit(&self, set: usize, way: usize) -> bool {
        self.is_data_pte.row(set)[way]
    }
}

impl Policy<CacheMeta> for Xptp {
    #[inline]
    fn on_fill(&mut self, set: usize, way: usize, meta: &CacheMeta) {
        // LRU insertion; the only addition is recording the Type bit
        // (Figure 7 step 3.1: written back when the fill completes).
        self.is_data_pte.row_mut(set)[way] = meta.fill.is_data_pte();
        if let Mode::Emissary { is_code, .. } = &mut self.mode {
            is_code.row_mut(set)[way] = meta.fill == FillClass::InstrPayload;
        }
        self.stack.touch(set, way);
    }

    #[inline]
    fn on_hit(&mut self, set: usize, way: usize, meta: &CacheMeta) {
        // A hit by a data page walk marks the block as holding a data PTE;
        // payload hits leave the bit unchanged (a PTE block is still a PTE
        // block when the walker re-reads it).
        if meta.fill.is_data_pte() {
            self.is_data_pte.row_mut(set)[way] = true;
        }
        if let Mode::Emissary { is_code, .. } = &mut self.mode {
            if meta.fill == FillClass::InstrPayload {
                is_code.row_mut(set)[way] = true;
            }
        }
        self.stack.touch(set, way);
    }

    #[inline]
    fn victim(&mut self, set: usize, _incoming: &CacheMeta) -> usize {
        let protected = match &self.mode {
            Mode::Static => 0,
            Mode::Adaptive(switch) if switch.is_enabled() => 0,
            // Steps a–d skipped: xPTP is LRU.
            Mode::Adaptive(_) => return self.stack.lru(set),
            Mode::Emissary { is_code, quota } => {
                let is_code = is_code.row(set);
                self.stack.recent_mask(set, *quota, |w| is_code[w])
            }
        };
        let is_data_pte = self.is_data_pte.row(set);
        // Step b: the block closest to LRUpos neither holding a data PTE
        // nor protected by Emissary.
        let alt = self
            .stack
            .iter_lru_to_mru(set)
            .find(|&w| !is_data_pte[w] && (protected >> w) & 1 == 0);
        match alt {
            // Step c/d: if the alternative is K or more positions above
            // LRUpos it is too hot to evict — fall back to the LRU block.
            Some(alt) if self.stack.height_of(set, alt) < self.params.k => alt,
            _ => self.stack.lru(set),
        }
    }

    fn name(&self) -> &'static str {
        match self.mode {
            Mode::Static => "xptp",
            Mode::Adaptive(_) => "xptp/lru",
            Mode::Emissary { .. } => "xptp+emissary",
        }
    }

    fn meta_bits(&self, sets: usize, ways: usize) -> u64 {
        // LRU ranks + the per-block Type bit (Figure 6's only addition).
        let entries = sets as u64 * ways as u64;
        let xptp = entries * (crate::traits::rank_bits(ways) + 1);
        match self.mode {
            Mode::Static => xptp,
            // The shared 1-bit status register (the monitor's counters
            // belong to the core, not the replacement policy).
            Mode::Adaptive(_) => xptp + 1,
            // The Emissary-style code bit per entry.
            Mode::Emissary { .. } => xptp + entries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(b: u64, fill: FillClass) -> CacheMeta {
        CacheMeta::demand(b, fill)
    }

    #[test]
    fn protects_data_pte_at_lru_pos() {
        let mut p = Xptp::new(1, 8, XptpParams::default());
        p.on_fill(0, 0, &m(0, FillClass::DataPte)); // becomes LRU
        for w in 1..8 {
            p.on_fill(0, w, &m(w as u64, FillClass::DataPayload));
        }
        // LRU is the data PTE; the alternative is way 1 (height 1 < K=8).
        assert_eq!(p.victim(0, &m(9, FillClass::DataPayload)), 1);
    }

    #[test]
    fn does_not_protect_instruction_ptes() {
        let mut p = Xptp::new(1, 4, XptpParams { k: 4 });
        p.on_fill(0, 0, &m(0, FillClass::InstrPte));
        for w in 1..4 {
            p.on_fill(0, w, &m(w as u64, FillClass::DataPayload));
        }
        assert_eq!(p.victim(0, &m(9, FillClass::DataPayload)), 0);
    }

    #[test]
    fn k_threshold_falls_back_to_lru_when_alt_is_hot() {
        let mut p = Xptp::new(1, 4, XptpParams { k: 2 });
        // Fill: ways 0..2 hold data PTEs at the bottom, way 3 is payload
        // and most recently used (height 3 >= K=2).
        p.on_fill(0, 0, &m(0, FillClass::DataPte));
        p.on_fill(0, 1, &m(1, FillClass::DataPte));
        p.on_fill(0, 2, &m(2, FillClass::DataPte));
        p.on_fill(0, 3, &m(3, FillClass::DataPayload));
        assert_eq!(p.victim(0, &m(9, FillClass::DataPayload)), 0);
    }

    #[test]
    fn all_data_pte_set_degenerates_to_lru() {
        let mut p = Xptp::new(1, 3, XptpParams { k: 3 });
        for w in 0..3 {
            p.on_fill(0, w, &m(w as u64, FillClass::DataPte));
        }
        assert_eq!(p.victim(0, &m(9, FillClass::DataPte)), 0);
    }

    #[test]
    fn walker_hit_sets_type_bit() {
        let mut p = Xptp::new(1, 2, XptpParams { k: 2 });
        p.on_fill(0, 0, &m(0, FillClass::DataPayload));
        assert!(!p.type_bit(0, 0));
        p.on_hit(0, 0, &m(0, FillClass::DataPte));
        assert!(p.type_bit(0, 0));
        // A later payload hit does not clear it.
        p.on_hit(0, 0, &m(0, FillClass::DataPayload));
        assert!(p.type_bit(0, 0));
    }

    #[test]
    fn insertion_and_promotion_are_plain_lru() {
        let mut p = Xptp::new(1, 3, XptpParams { k: 3 });
        p.on_fill(0, 0, &m(0, FillClass::DataPayload));
        p.on_fill(0, 1, &m(1, FillClass::DataPayload));
        p.on_fill(0, 2, &m(2, FillClass::DataPayload));
        p.on_hit(0, 0, &m(0, FillClass::DataPayload));
        // LRU order now: 1 (oldest), 2, 0.
        assert_eq!(p.victim(0, &m(9, FillClass::DataPayload)), 1);
    }

    #[test]
    fn adaptive_off_behaves_as_lru_on_as_xptp() {
        let s = XptpSwitch::new();
        let mut p = Xptp::adaptive(1, 4, XptpParams { k: 4 }, s.clone());
        p.on_fill(0, 0, &m(0, FillClass::DataPte)); // LRU block, data PTE
        for w in 1..4 {
            p.on_fill(0, w, &m(w as u64, FillClass::DataPayload));
        }
        // Off: LRU victim, even though it is a data PTE.
        assert_eq!(p.victim(0, &m(9, FillClass::DataPayload)), 0);
        // On: the data PTE is protected.
        s.set(true);
        assert_eq!(p.victim(0, &m(9, FillClass::DataPayload)), 1);
    }

    #[test]
    fn type_bits_survive_phase_changes() {
        let s = XptpSwitch::new();
        let mut p = Xptp::adaptive(1, 2, XptpParams { k: 2 }, s.clone());
        p.on_fill(0, 0, &m(0, FillClass::DataPte));
        p.on_fill(0, 1, &m(1, FillClass::DataPayload));
        s.set(false);
        let _ = p.victim(0, &m(2, FillClass::DataPayload));
        s.set(true);
        // The Type bit recorded while "off" still protects the block.
        assert_eq!(p.victim(0, &m(3, FillClass::DataPayload)), 1);
    }

    #[test]
    fn emissary_protects_both_data_ptes_and_recent_code() {
        let mut p = Xptp::with_emissary(1, 8, XptpParams::default());
        p.on_fill(0, 0, &m(0, FillClass::DataPte));
        p.on_fill(0, 1, &m(1, FillClass::InstrPayload));
        for w in 2..8 {
            p.on_fill(0, w, &m(w as u64, FillClass::DataPayload));
        }
        // LRU order: 0 (pte), 1 (code), 2.. (payload). Both are spared.
        assert_eq!(p.victim(0, &m(9, FillClass::DataPayload)), 2);
    }

    #[test]
    fn emissary_code_protection_is_quota_bounded() {
        let mut p = Xptp::with_emissary(1, 8, XptpParams::default());
        for w in 0..4 {
            p.on_fill(0, w, &m(w as u64, FillClass::InstrPayload));
        }
        for w in 4..8 {
            p.on_fill(0, w, &m(w as u64, FillClass::DataPayload));
        }
        // Four code blocks, quota two: the two least recent code blocks
        // are evictable; way 0 is LRU.
        assert_eq!(p.victim(0, &m(9, FillClass::DataPayload)), 0);
    }

    #[test]
    fn emissary_all_protected_falls_back_to_lru() {
        let mut p = Xptp::with_emissary(1, 2, XptpParams { k: 2 });
        p.on_fill(0, 0, &m(0, FillClass::DataPte));
        p.on_fill(0, 1, &m(1, FillClass::DataPte));
        assert_eq!(p.victim(0, &m(9, FillClass::DataPte)), 0);
    }

    #[test]
    fn emissary_payload_hit_does_not_mark_code() {
        let mut p = Xptp::with_emissary(1, 2, XptpParams { k: 2 });
        p.on_fill(0, 0, &m(0, FillClass::DataPayload));
        p.on_hit(0, 0, &m(0, FillClass::DataPayload));
        p.on_fill(0, 1, &m(1, FillClass::DataPayload));
        assert_eq!(p.victim(0, &m(9, FillClass::DataPayload)), 0);
    }

    #[test]
    #[should_panic(expected = "1 <= K <= ways")]
    fn k_zero_panics() {
        let _ = Xptp::new(1, 8, XptpParams { k: 0 });
    }

    #[test]
    #[should_panic(expected = "1 <= K <= ways")]
    fn k_above_ways_panics() {
        let _ = Xptp::new(1, 8, XptpParams { k: 9 });
    }
}
