//! Hardware prefetchers of the baseline configuration (Table 1): a
//! next-line prefetcher at the L1D and a PC-indexed stride prefetcher at
//! the L2C. (The L1I's FDIP-style fetch-directed prefetching lives in the
//! front end, `itpx-cpu`, because it follows the fetch target queue.)
//!
//! Prefetchers only *nominate* block addresses; the hierarchy issues the
//! fills, so all bandwidth and MSHR effects are shared with demand traffic.

/// Degree-1 next-line prefetcher.
#[derive(Debug, Clone, Default)]
pub struct NextLinePrefetcher {
    issued: u64,
}

impl NextLinePrefetcher {
    /// Creates the prefetcher.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the block to prefetch for a demand access to `block`.
    pub fn observe(&mut self, block: u64) -> Option<u64> {
        self.issued += 1;
        Some(block + 1)
    }

    /// Number of candidates nominated.
    pub fn nominated(&self) -> u64 {
        self.issued
    }

    /// Zeroes the nomination counter (used at the warmup/measurement
    /// boundary).
    pub fn reset_stats(&mut self) {
        self.issued = 0;
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct StrideEntry {
    tag: u64,
    last_block: u64,
    stride: i64,
    confidence: u8,
}

/// Prefetch candidates nominated by one [`StridePrefetcher::observe`] call,
/// stored inline so the per-access path never touches the heap.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StrideCandidates {
    blocks: [u64; StridePrefetcher::MAX_DEGREE],
    len: usize,
}

impl StrideCandidates {
    /// Candidate block addresses, in nomination order.
    pub fn as_slice(&self) -> &[u64] {
        &self.blocks[..self.len]
    }

    /// `true` when no candidates were nominated.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl IntoIterator for StrideCandidates {
    type Item = u64;
    type IntoIter = core::iter::Take<core::array::IntoIter<u64, { StridePrefetcher::MAX_DEGREE }>>;

    fn into_iter(self) -> Self::IntoIter {
        self.blocks.into_iter().take(self.len)
    }
}

/// PC-indexed stride prefetcher (degree 2, confidence-gated).
#[derive(Debug, Clone)]
pub struct StridePrefetcher {
    table: Vec<StrideEntry>,
    degree: usize,
}

impl StridePrefetcher {
    /// Confidence needed before prefetches are issued.
    const THRESHOLD: u8 = 2;

    /// Largest supported prefetch degree (the baseline uses 2; the inline
    /// candidate buffer is sized for this).
    pub const MAX_DEGREE: usize = 4;

    /// Creates a stride prefetcher with `entries` table entries (rounded up
    /// to a power of two) and the given prefetch degree (clamped to
    /// `1..=MAX_DEGREE`).
    pub fn new(entries: usize, degree: usize) -> Self {
        Self {
            table: vec![StrideEntry::default(); entries.next_power_of_two().max(16)],
            degree: degree.clamp(1, Self::MAX_DEGREE),
        }
    }

    /// Observes a demand access from instruction `pc` to `block`; returns
    /// blocks to prefetch (empty until a stable stride is seen).
    #[inline]
    pub fn observe(&mut self, pc: u64, block: u64) -> StrideCandidates {
        let mut out = StrideCandidates::default();
        let idx = ((pc >> 2) as usize) & (self.table.len() - 1);
        let e = &mut self.table[idx];
        let tag = pc;
        if e.tag != tag {
            *e = StrideEntry {
                tag,
                last_block: block,
                stride: 0,
                confidence: 0,
            };
            return out;
        }
        let stride = block as i64 - e.last_block as i64;
        if stride == e.stride && stride != 0 {
            e.confidence = e.confidence.saturating_add(1).min(3);
        } else {
            e.stride = stride;
            e.confidence = 0;
        }
        e.last_block = block;
        if e.confidence >= Self::THRESHOLD {
            for i in 1..=self.degree as i64 {
                if let Some(cand) = block.checked_add_signed(e.stride * i) {
                    out.blocks[out.len] = cand;
                    out.len += 1;
                }
            }
        }
        out
    }
}

impl Default for StridePrefetcher {
    fn default() -> Self {
        Self::new(256, 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_line_nominates_successor() {
        let mut p = NextLinePrefetcher::new();
        assert_eq!(p.observe(100), Some(101));
        assert_eq!(p.nominated(), 1);
    }

    #[test]
    fn stride_detects_after_confidence_builds() {
        let mut p = StridePrefetcher::new(64, 2);
        let pc = 0x400;
        assert!(p.observe(pc, 10).is_empty()); // allocate
        assert!(p.observe(pc, 14).is_empty()); // stride 4, conf 0
        assert!(p.observe(pc, 18).is_empty()); // conf 1
        let out = p.observe(pc, 22); // conf 2 → fire
        assert_eq!(out.as_slice(), &[26, 30]);
    }

    #[test]
    fn stride_change_resets_confidence() {
        let mut p = StridePrefetcher::new(64, 1);
        let pc = 0x8;
        p.observe(pc, 0);
        p.observe(pc, 4);
        p.observe(pc, 8);
        assert!(!p.observe(pc, 12).is_empty());
        assert!(p.observe(pc, 100).is_empty(), "stride broke");
        assert!(p.observe(pc, 104).is_empty(), "confidence rebuilding");
    }

    #[test]
    fn zero_stride_never_fires() {
        let mut p = StridePrefetcher::new(64, 2);
        for _ in 0..10 {
            assert!(p.observe(0x10, 5).is_empty());
        }
    }

    #[test]
    fn different_pcs_use_different_entries() {
        let mut p = StridePrefetcher::new(64, 1);
        p.observe(0x100, 0);
        p.observe(0x100, 8);
        p.observe(0x104, 1000); // different pc, same table? different idx
        p.observe(0x100, 16);
        let out = p.observe(0x100, 24);
        assert!(!out.is_empty(), "interleaved PC did not destroy the stride");
    }
}
