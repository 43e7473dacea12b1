//! iTP — Instruction Translation Prioritization (paper Section 4.1).
//!
//! iTP is an STLB replacement policy that *maximizes instruction hits at
//! the expense of data page walks*. It keeps LRU's eviction rule (victimize
//! `LRUpos`) but changes insertion and promotion based on a per-entry
//! `Type` bit and a saturating `Freq` counter (Figure 5):
//!
//! * **Insertion** — data translations insert at `LRUpos` (next to leave);
//!   instruction translations insert at `MRUpos − N` with `Freq = 0`.
//! * **Promotion** — an instruction hit promotes to `MRUpos` only once its
//!   `Freq` counter has saturated, otherwise back to `MRUpos − N`
//!   (incrementing `Freq`); a data hit promotes only to `LRUpos + M`.
//!
//! `MRUpos` is therefore reserved for instruction translations with proven
//! reuse, the region between depths `N` and `ways − 1 − M` holds the bulk
//! of the protected instruction working set, and data translations churn
//! through the bottom `M` positions.

use crate::{Policy, RecencyStack, TlbMeta};
use itpx_types::{SetGrid, TranslationKind};

/// Tunable parameters of [`Itp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ItpParams {
    /// Insertion/promotion depth for unproven instruction translations:
    /// they are placed `n` positions below `MRUpos`. Paper default: 4.
    pub n: usize,
    /// Promotion height for data translations: a data hit moves the entry
    /// `m` positions above `LRUpos`. Must satisfy `n < m < ways`.
    /// Paper default: 8.
    pub m: usize,
    /// Width of the per-entry frequency counter in bits (saturates at
    /// `2^freq_bits − 1`). Paper default: 3.
    pub freq_bits: u32,
}

impl Default for ItpParams {
    fn default() -> Self {
        // Table 1: "iTP: 3-bit Freq counter, 1-bit Type, N=4, M=8".
        Self {
            n: 4,
            m: 8,
            freq_bits: 3,
        }
    }
}

impl ItpParams {
    /// Saturation value of the frequency counter.
    pub fn freq_max(&self) -> u8 {
        // itpx-allow: arith-width freq_bits <= 8 (validated below), so the mask fits u8
        ((1u32 << self.freq_bits) - 1) as u8
    }

    /// Validates the parameters against an STLB associativity, per the
    /// paper's constraint "`M` is an integer smaller than the STLB
    /// associativity and larger than `N`".
    ///
    /// # Panics
    ///
    /// Panics if the constraint is violated or `freq_bits` is 0 or > 8.
    pub fn validate(&self, ways: usize) {
        assert!(
            self.n < self.m && self.m < ways,
            "iTP requires N < M < ways (N={}, M={}, ways={ways})",
            self.n,
            self.m
        );
        assert!(
            (1..=8).contains(&self.freq_bits),
            "freq_bits must be in 1..=8"
        );
    }
}

/// The iTP STLB replacement policy.
#[derive(Debug, Clone)]
pub struct Itp {
    params: ItpParams,
    stack: RecencyStack,
    /// Per-entry `Type` bit (true = data translation), as in Figure 7.
    is_data: SetGrid<bool>,
    /// Per-entry saturating `Freq` counter.
    freq: SetGrid<u8>,
}

impl Itp {
    /// Creates an iTP policy for `sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `params` violate `N < M < ways` (see
    /// [`ItpParams::validate`]).
    pub fn new(sets: usize, ways: usize, params: ItpParams) -> Self {
        params.validate(ways);
        Self {
            params,
            stack: RecencyStack::new(sets, ways),
            is_data: SetGrid::new(sets, ways, true),
            freq: SetGrid::new(sets, ways, 0),
        }
    }

    /// The configured parameters.
    pub fn params(&self) -> &ItpParams {
        &self.params
    }

    /// Additional metadata storage iTP needs, in bytes, for an STLB with
    /// `entries` entries: 1 `Type` bit + `freq_bits` per entry.
    ///
    /// For the paper's 1536-entry STLB with 3-bit counters this is 768
    /// bytes (Section 4.1.3).
    pub fn storage_overhead_bytes(entries: usize, params: &ItpParams) -> usize {
        entries * (1 + params.freq_bits as usize) / 8
    }

    /// Depth (0 = MRU) of `way` in `set` — exposed so tests and the figure
    /// harness can assert stack positions.
    pub fn depth_of(&self, set: usize, way: usize) -> usize {
        self.stack.depth_of(set, way)
    }

    /// Current `Freq` value of `(set, way)`.
    pub fn freq_of(&self, set: usize, way: usize) -> u8 {
        self.freq.row(set)[way]
    }
}

impl Policy<TlbMeta> for Itp {
    #[inline]
    fn on_fill(&mut self, set: usize, way: usize, meta: &TlbMeta) {
        match meta.kind {
            TranslationKind::Data => {
                // Figure 5, step 1: data translations insert at LRUpos.
                self.is_data.row_mut(set)[way] = true;
                self.freq.row_mut(set)[way] = 0;
                self.stack.place_at_height(set, way, 0);
            }
            TranslationKind::Instruction => {
                // Steps 2–3: instruction translations insert at MRUpos − N
                // with Freq = 0; MRUpos itself is reserved for entries with
                // saturated Freq.
                self.is_data.row_mut(set)[way] = false;
                self.freq.row_mut(set)[way] = 0;
                self.stack.place_at_depth(set, way, self.params.n);
            }
        }
    }

    #[inline]
    fn on_hit(&mut self, set: usize, way: usize, meta: &TlbMeta) {
        match meta.kind {
            TranslationKind::Instruction => {
                let max = self.params.freq_max();
                if self.freq.row(set)[way] >= max {
                    // Figure 5, promotion (ii): saturated Freq earns MRUpos.
                    self.stack.place_at_depth(set, way, 0);
                } else {
                    // Promotion (i) + (iii): back to MRUpos − N, bump Freq.
                    self.stack.place_at_depth(set, way, self.params.n);
                    self.freq.row_mut(set)[way] += 1;
                }
            }
            TranslationKind::Data => {
                // Promotion (iv): data hits only reach LRUpos + M.
                self.freq.row_mut(set)[way] = 0;
                self.stack.place_at_height(set, way, self.params.m);
            }
        }
    }

    #[inline]
    fn victim(&mut self, set: usize, _incoming: &TlbMeta) -> usize {
        // iTP keeps LRU's eviction rule: the entry at LRUpos leaves.
        self.stack.lru(set)
    }

    fn name(&self) -> &'static str {
        "itp"
    }

    fn meta_bits(&self, sets: usize, ways: usize) -> u64 {
        // LRU ranks plus the paper's additions: 1 Type bit + freq_bits per
        // entry (Section 4.1.3: 4 bits/entry over the LRU baseline).
        sets as u64
            * ways as u64
            * (crate::traits::rank_bits(ways) + 1 + self.params.freq_bits as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WAYS: usize = 12;

    fn itp() -> Itp {
        Itp::new(1, WAYS, ItpParams::default())
    }

    fn instr(vpn: u64) -> TlbMeta {
        TlbMeta::demand(vpn, TranslationKind::Instruction)
    }

    fn data(vpn: u64) -> TlbMeta {
        TlbMeta::demand(vpn, TranslationKind::Data)
    }

    #[test]
    fn data_inserts_at_lru_pos() {
        let mut p = itp();
        p.on_fill(0, 5, &data(1));
        assert_eq!(p.depth_of(0, 5), WAYS - 1);
        assert_eq!(p.victim(0, &data(2)), 5);
    }

    #[test]
    fn instruction_inserts_at_mru_minus_n_with_zero_freq() {
        let mut p = itp();
        p.on_fill(0, 5, &instr(1));
        assert_eq!(p.depth_of(0, 5), 4); // N = 4
        assert_eq!(p.freq_of(0, 5), 0);
    }

    #[test]
    fn instruction_hits_climb_to_mru_only_after_freq_saturates() {
        let mut p = itp();
        p.on_fill(0, 5, &instr(1));
        // 7 hits saturate the 3-bit counter; each stays at depth N.
        for expect_freq in 1..=7u8 {
            p.on_hit(0, 5, &instr(1));
            assert_eq!(p.freq_of(0, 5), expect_freq);
            assert_eq!(p.depth_of(0, 5), 4);
        }
        // The next hit finds Freq saturated and promotes to MRUpos.
        p.on_hit(0, 5, &instr(1));
        assert_eq!(p.depth_of(0, 5), 0);
        assert_eq!(p.freq_of(0, 5), 7, "saturated counter does not wrap");
    }

    #[test]
    fn data_hits_promote_only_to_lru_plus_m() {
        let mut p = itp();
        p.on_fill(0, 3, &data(1));
        p.on_hit(0, 3, &data(1));
        // Height M = 8 of 12 ways → depth 3.
        assert_eq!(p.depth_of(0, 3), WAYS - 1 - 8);
    }

    #[test]
    fn data_hit_resets_freq() {
        let mut p = itp();
        p.on_fill(0, 3, &instr(1));
        p.on_hit(0, 3, &instr(1));
        assert_eq!(p.freq_of(0, 3), 1);
        // The way is re-filled with a data translation after eviction.
        p.on_fill(0, 3, &data(2));
        p.on_hit(0, 3, &data(2));
        assert_eq!(p.freq_of(0, 3), 0);
    }

    #[test]
    fn eviction_is_always_lru_pos() {
        let mut p = itp();
        for w in 0..WAYS {
            p.on_fill(0, w, &instr(w as u64));
        }
        // Insertions at depth N push earlier entries down; the victim is
        // whatever sits at LRUpos, regardless of type.
        let v = p.victim(0, &data(99));
        assert_eq!(p.depth_of(0, v), WAYS - 1);
    }

    #[test]
    fn unreferenced_instructions_drift_to_lru_and_leave() {
        let mut p = itp();
        p.on_fill(0, 0, &instr(1));
        let start = p.depth_of(0, 0);
        assert_eq!(start, 4);
        // Each subsequent fill through the real eviction flow (victim at
        // LRUpos, insert at MRUpos - N) pushes way 0 down one position.
        for i in 0..(WAYS - 1 - start) {
            let v = p.victim(0, &instr(100 + i as u64));
            assert_ne!(v, 0, "way 0 must not be evicted before reaching LRU");
            p.on_fill(0, v, &instr(100 + i as u64));
        }
        assert_eq!(p.depth_of(0, 0), WAYS - 1);
        assert_eq!(p.victim(0, &instr(99)), 0);
    }

    #[test]
    fn instruction_inserted_above_fresh_data() {
        let mut p = itp();
        p.on_fill(0, 0, &data(1));
        p.on_fill(0, 1, &instr(2));
        assert!(p.depth_of(0, 1) < p.depth_of(0, 0));
    }

    #[test]
    fn storage_overhead_matches_paper() {
        // Section 4.1.3: 4 bits × 1536 entries = 768 bytes.
        assert_eq!(
            Itp::storage_overhead_bytes(1536, &ItpParams::default()),
            768
        );
    }

    #[test]
    fn freq_max_from_bits() {
        assert_eq!(ItpParams::default().freq_max(), 7);
        let p2 = ItpParams {
            freq_bits: 2,
            ..ItpParams::default()
        };
        assert_eq!(p2.freq_max(), 3);
    }

    #[test]
    #[should_panic(expected = "N < M < ways")]
    fn m_must_be_below_associativity() {
        let _ = Itp::new(
            1,
            8,
            ItpParams {
                n: 4,
                m: 8,
                freq_bits: 3,
            },
        );
    }

    #[test]
    #[should_panic(expected = "N < M < ways")]
    fn m_must_exceed_n() {
        let _ = Itp::new(
            1,
            12,
            ItpParams {
                n: 8,
                m: 4,
                freq_bits: 3,
            },
        );
    }
}
