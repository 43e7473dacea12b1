//! Simplified CHiRP (Mirbagher-Ajorpaz et al., MICRO 2020): control-flow
//! history reuse prediction for the STLB — the state-of-the-art STLB
//! replacement baseline in the paper's comparison.
//!
//! The published design hashes several control-flow features into multiple
//! tables; this reproduction keeps the core loop — a signature derived from
//! recent control-flow history, a confidence table trained by observed
//! reuse, and insertion depth chosen by predicted reuse — which is
//! sufficient for the comparative role CHiRP plays here (the paper reports
//! it performs close to LRU on these workloads because it is oblivious to
//! the instruction/data distinction).

use crate::meta::TlbMeta;
use crate::recency::RecencyStack;
use crate::traits::Policy;
use itpx_types::SetGrid;

const TABLE_BITS: u32 = 12;
const CONF_MAX: u8 = 7;
const CONF_THRESHOLD: u8 = 4;

/// Simplified control-flow-history reuse predictor for STLBs.
#[derive(Debug, Clone)]
pub struct Chirp {
    stack: RecencyStack,
    conf: Vec<u8>,
    // Per-entry training state.
    signature: SetGrid<u16>,
    reused: SetGrid<bool>,
    // Folded history of recent instruction-translation PCs.
    history: u64,
}

impl Chirp {
    /// Creates a CHiRP policy.
    pub fn new(sets: usize, ways: usize) -> Self {
        Self {
            stack: RecencyStack::new(sets, ways),
            conf: vec![CONF_THRESHOLD; 1 << TABLE_BITS],
            signature: SetGrid::new(sets, ways, 0),
            reused: SetGrid::new(sets, ways, false),
            history: 0,
        }
    }

    fn update_history(&mut self, meta: &TlbMeta) {
        if meta.kind.is_instruction() {
            self.history = (self.history << 5) ^ (meta.pc >> 2);
        }
    }

    fn sig(&self, meta: &TlbMeta) -> u16 {
        let x = self.history ^ meta.vpn ^ (meta.pc >> 4);
        let folded = x ^ (x >> TABLE_BITS) ^ (x >> (2 * TABLE_BITS)) ^ (x >> (3 * TABLE_BITS));
        (folded as u16) & ((1 << TABLE_BITS) - 1) as u16
    }

    /// Confidence currently associated with the signature this access would
    /// produce (exposed for tests).
    pub fn confidence_for(&self, meta: &TlbMeta) -> u8 {
        // sig() masks to TABLE_BITS, within conf's 2^TABLE_BITS entries
        self.conf[self.sig(meta) as usize]
    }
}

impl Policy<TlbMeta> for Chirp {
    fn on_fill(&mut self, set: usize, way: usize, meta: &TlbMeta) {
        self.update_history(meta);
        let sig = self.sig(meta);
        self.signature.row_mut(set)[way] = sig;
        self.reused.row_mut(set)[way] = false;
        if self.conf[sig as usize] >= CONF_THRESHOLD {
            // Predicted to be reused soon: insert at MRU.
            self.stack.touch(set, way);
        } else {
            // Predicted dead: insert next to LRU so it leaves quickly.
            self.stack.place_at_height(set, way, 1);
        }
    }

    // itpx-allow: hot-inline engine-dispatched only in unbenchmarked configurations, so it stays out of line rather than grow every dispatch site; the flagged PSC edge is a name collision (the PSCs run LRU)
    fn on_hit(&mut self, set: usize, way: usize, meta: &TlbMeta) {
        self.update_history(meta);
        self.stack.touch(set, way);
        if !self.reused.row(set)[way] {
            self.reused.row_mut(set)[way] = true;
            let s = self.signature.row(set)[way] as usize;
            self.conf[s] = (self.conf[s] + 1).min(CONF_MAX);
        }
    }

    fn victim(&mut self, set: usize, _incoming: &TlbMeta) -> usize {
        self.stack.lru(set)
    }

    fn on_evict(&mut self, set: usize, way: usize) {
        if !self.reused.row(set)[way] {
            let s = self.signature.row(set)[way] as usize;
            self.conf[s] = self.conf[s].saturating_sub(1);
        }
    }

    fn name(&self) -> &'static str {
        "chirp"
    }

    fn meta_bits(&self, sets: usize, ways: usize) -> u64 {
        // LRU ranks + per-entry signature and reuse bit; global confidence
        // table (3-bit counters) and the 64-bit folded history register.
        sets as u64 * ways as u64 * (crate::traits::rank_bits(ways) + TABLE_BITS as u64 + 1)
            + 3 * (1u64 << TABLE_BITS)
            + 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itpx_types::TranslationKind;

    fn meta(vpn: u64, pc: u64) -> TlbMeta {
        TlbMeta {
            vpn,
            pc,
            kind: TranslationKind::Instruction,
            thread: itpx_types::ThreadId(0),
        }
    }

    fn data_meta(vpn: u64, pc: u64) -> TlbMeta {
        TlbMeta {
            kind: TranslationKind::Data,
            ..meta(vpn, pc)
        }
    }

    #[test]
    fn unreused_entries_train_confidence_down_and_insert_low() {
        let mut p = Chirp::new(1, 4);
        // Data translations do not perturb the control-flow history, so the
        // signature is stable across these fills.
        let m = data_meta(100, 0x4000);
        // Evict without reuse until confidence is low.
        for _ in 0..CONF_THRESHOLD + 1 {
            p.on_fill(0, 0, &m);
            p.on_evict(0, 0);
        }
        assert!(p.confidence_for(&m) < CONF_THRESHOLD);
        p.on_fill(0, 0, &m);
        // Predicted dead: near the LRU position.
        assert!(p.stack.height_of(0, 0) <= 1);
    }

    #[test]
    fn confident_entries_insert_at_mru() {
        let mut p = Chirp::new(1, 4);
        let m = meta(7, 0x1000);
        p.on_fill(0, 2, &m); // default confidence == threshold
        assert_eq!(p.stack.mru(0), 2);
    }

    #[test]
    fn reuse_trains_up_once_per_generation() {
        let mut p = Chirp::new(1, 2);
        let m = meta(3, 0x2000);
        p.on_fill(0, 0, &m);
        let sig = p.signature.row(0)[0] as usize;
        let before = p.conf[sig];
        p.on_hit(0, 0, &m);
        p.on_hit(0, 0, &m);
        assert_eq!(p.conf[sig], (before + 1).min(CONF_MAX));
    }

    #[test]
    fn victim_is_lru() {
        let mut p = Chirp::new(1, 3);
        for w in 0..3 {
            p.on_fill(0, w, &meta(w as u64, 0x3000 + w as u64));
        }
        let v = p.victim(0, &meta(9, 0x9000));
        assert_eq!(v, p.stack.lru(0));
    }
}
