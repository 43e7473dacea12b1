//! Split page-structure caches (MMU caches).
//!
//! A PSC at level *L* caches the physical location of the page-table node
//! entered at level *L*, letting a walk skip every level above it. The
//! simulated configuration is the paper's Table 1: a split design with
//! PSCL5 (2 entries, fully associative), PSCL4 (4, fully), PSCL3 (8-entry
//! 2-way), PSCL2 (32-entry 4-way), 2-cycle access.
//!
//! Functionally the simulator only needs *which level the walk may start
//! at*: the node addresses themselves are recomputed from the page table.

use itpx_policy::{Lru, Policy, SetAssoc, TlbMeta};
use itpx_types::{Asid, TranslationKind};

/// Index bits per page-table level.
const LEVEL_BITS: u32 = 9;

/// Bit position the ASID folds into a namespaced VPN at. 4 KiB VPNs of
/// the simulated 57-bit address space use at most 45 bits, so bits 48..64
/// are free for the 16-bit tag.
const ASID_SHIFT: u32 = 48;

/// Folds an address-space tag into a 4 KiB VPN, namespacing PSC tags per
/// address space: two tenants walking the same virtual page must not share
/// page-table nodes. [`Asid::KERNEL`] (the single-tenant default) maps to
/// the identity, so single-ASID simulations see byte-identical tags.
#[inline]
pub fn namespaced_vpn(vpn4k: u64, asid: Asid) -> u64 {
    debug_assert!(vpn4k < 1 << ASID_SHIFT, "VPN collides with the ASID fold");
    vpn4k | ((asid.0 as u64) << ASID_SHIFT)
}

/// Recovers the address-space tag from a level-`level` PSC tag derived
/// from a namespaced VPN (the fold sits above the VPN bits at every
/// level, so the shift is exact).
#[inline]
pub fn tag_asid(tag: u64, level: u8) -> Asid {
    // itpx-allow: arith-width the shift drops the fold back to bit 0 and no VPN bits sit above it, so the tag fits u16 exactly
    Asid((tag >> (ASID_SHIFT - LEVEL_BITS * (level as u32 - 1))) as u16)
}

/// One set-associative MMU cache covering a single page-table level.
#[derive(Debug)]
pub struct PageStructureCache {
    level: u8,
    tags: SetAssoc<u64>,
    policy: Lru,
}

impl PageStructureCache {
    /// Creates a PSC for `level` with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if `level` is not in `2..=5`, `sets` is not a power of two,
    /// or `ways` is zero or exceeds 16 (the LRU recency stack's limit).
    pub fn new(level: u8, sets: usize, ways: usize) -> Self {
        assert!((2..=5).contains(&level), "PSC levels are 2..=5");
        Self {
            level,
            tags: SetAssoc::new(sets, ways, 0),
            policy: Lru::new(sets, ways),
        }
    }

    /// The page-table level this PSC covers.
    pub fn level(&self) -> u8 {
        self.level
    }

    /// Tag for a 4 KiB VPN at this PSC's level: the VPN bits above the
    /// level's index.
    fn tag(&self, vpn4k: u64) -> u64 {
        vpn4k >> (LEVEL_BITS * (self.level as u32 - 1))
    }

    fn meta(tag: u64) -> TlbMeta {
        TlbMeta::demand(tag, TranslationKind::Data)
    }

    /// The `(set, way)` holding `tag`, if resident.
    fn find(&self, tag: u64) -> Option<(usize, usize)> {
        let set = self.tags.set_of(tag);
        self.tags
            .find(set, |&t| t == tag)
            .map(|(way, _)| (set, way))
    }

    /// Looks up the node for `vpn4k`, updating recency on hit.
    // itpx-allow: hot-inline the hot edge is a name collision with the functional reference machine's own PSCs
    pub fn lookup(&mut self, vpn4k: u64) -> bool {
        let tag = self.tag(vpn4k);
        let hit = self.find(tag);
        if let Some((set, way)) = hit {
            self.policy.on_hit(set, way, &Self::meta(tag));
        }
        hit.is_some()
    }

    /// Installs the node for `vpn4k` after a walk resolves it.
    // itpx-allow: hot-inline the hot edge is a name collision with the functional reference machine's own PSCs
    pub fn fill(&mut self, vpn4k: u64) {
        let tag = self.tag(vpn4k);
        if self.find(tag).is_none() {
            let set = self.tags.set_of(tag);
            let _ = self
                .tags
                .install(&mut self.policy, set, tag, &Self::meta(tag));
        }
    }

    /// Whether the node tag for `vpn4k` is resident, without touching
    /// recency.
    pub fn contains_vpn(&self, vpn4k: u64) -> bool {
        self.find(self.tag(vpn4k)).is_some()
    }

    /// Invalidates every node cached under `asid`'s namespace (a flushing
    /// context switch). A level tag keeps the ASID fold above its VPN
    /// bits, so [`tag_asid`] recovers the tag's address space exactly,
    /// global entries included.
    // itpx-allow: hot-inline per context switch, not per access
    pub fn flush_asid(&mut self, asid: Asid) {
        let level = self.level;
        self.tags.retain(|&tag| tag_asid(tag, level) != asid);
    }
}

/// The split PSC hierarchy of Table 1.
#[derive(Debug)]
pub struct SplitPscs {
    pscl5: PageStructureCache,
    pscl4: PageStructureCache,
    pscl3: PageStructureCache,
    pscl2: PageStructureCache,
    /// Access latency charged per walk for consulting the PSCs, in cycles.
    pub latency: u64,
}

impl Default for SplitPscs {
    fn default() -> Self {
        Self::asplos25()
    }
}

impl SplitPscs {
    /// The paper's Table 1 configuration.
    pub fn asplos25() -> Self {
        Self {
            pscl5: PageStructureCache::new(5, 1, 2),
            pscl4: PageStructureCache::new(4, 1, 4),
            pscl3: PageStructureCache::new(3, 4, 2),
            pscl2: PageStructureCache::new(2, 8, 4),
            latency: 2,
        }
    }

    /// The deepest level a walk for `vpn4k` can *start at*: checking
    /// PSCL2 first (skipping levels 5–3), then PSCL3, PSCL4, PSCL5. With
    /// no PSC hit the walk starts at the root (level 5).
    ///
    /// `leaf_level` bounds the answer for huge pages: a 2 MiB walk ends at
    /// level 2, so a PSCL2 hit resolves it without memory accesses only in
    /// the sense that just the leaf remains.
    // itpx-allow: hot-inline the hot edge is a name collision with the functional reference machine's own PSCs
    pub fn start_level(&mut self, vpn4k: u64) -> u8 {
        if self.pscl2.lookup(vpn4k) {
            2
        } else if self.pscl3.lookup(vpn4k) {
            3
        } else if self.pscl4.lookup(vpn4k) {
            4
        } else {
            // PSCL5 hit or full miss: either way the walk starts at the
            // root (PSCL5 caches the root node, which is architectural).
            let _ = self.pscl5.lookup(vpn4k);
            5
        }
    }

    /// Fills all PSC levels after a walk that reached `leaf_level`.
    ///
    /// The PSC at level `L` caches the node *entered at* level `L`, learned
    /// by reading the level-`L+1` entry. Walks for both 4 KiB (leaf 1) and
    /// 2 MiB (leaf 2) pages read every entry from the root down to at least
    /// level 2, so every PSC level can be filled in either case.
    // itpx-allow: hot-inline the hot edge is a name collision with the functional reference machine's own PSCs
    pub fn fill(&mut self, vpn4k: u64, leaf_level: u8) {
        debug_assert!(leaf_level <= 2, "leaves live at level 1 or 2");
        self.pscl2.fill(vpn4k);
        self.pscl3.fill(vpn4k);
        self.pscl4.fill(vpn4k);
        self.pscl5.fill(vpn4k);
    }

    /// Whether any level holds a node for `vpn4k` without touching
    /// recency.
    pub fn contains_vpn(&self, vpn4k: u64) -> bool {
        self.pscl2.contains_vpn(vpn4k)
            || self.pscl3.contains_vpn(vpn4k)
            || self.pscl4.contains_vpn(vpn4k)
            || self.pscl5.contains_vpn(vpn4k)
    }

    /// Invalidates every level's nodes cached under `asid`'s namespace
    /// (the PSC half of a flushing context switch).
    // itpx-allow: hot-inline per context switch, not per access
    pub fn flush_asid(&mut self, asid: Asid) {
        self.pscl2.flush_asid(asid);
        self.pscl3.flush_asid(asid);
        self.pscl4.flush_asid(asid);
        self.pscl5.flush_asid(asid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_walk_starts_at_root() {
        let mut p = SplitPscs::asplos25();
        assert_eq!(p.start_level(0x1234), 5);
    }

    #[test]
    fn filled_walk_starts_at_level_2() {
        let mut p = SplitPscs::asplos25();
        p.fill(0x1234, 1);
        assert_eq!(p.start_level(0x1234), 2);
    }

    #[test]
    fn huge_page_walks_fill_all_levels() {
        let mut p = SplitPscs::asplos25();
        p.fill(0x1234, 2); // 2 MiB walk: leaf at level 2
                           // The walk read the level-3 entry, so PSCL2 knows the level-2 node:
                           // the next walk starts at level 2 (where the huge leaf lives).
        assert_eq!(p.start_level(0x1234), 2);
    }

    #[test]
    fn neighbouring_pages_in_same_level2_node_share_pscl2_entry() {
        let mut p = SplitPscs::asplos25();
        p.fill(0x1000, 1);
        // Same level-2 node: vpn4k differing only in the low 9 bits.
        assert_eq!(p.start_level(0x1000 + 5), 2);
        // Different level-2 node.
        assert_eq!(p.start_level(0x1000 + (1 << 9)), 3);
    }

    #[test]
    fn pscl2_capacity_evicts_lru() {
        let mut c = PageStructureCache::new(2, 1, 2);
        c.fill(0);
        c.fill(1 << 9);
        assert!(c.lookup(0));
        c.fill(2 << 9); // evicts 1<<9 (LRU after lookup(0))
        assert!(!c.lookup(1 << 9));
        assert!(c.lookup(0));
        assert!(c.lookup(2 << 9));
    }

    #[test]
    fn duplicate_fill_is_idempotent() {
        let mut c = PageStructureCache::new(3, 2, 2);
        c.fill(7);
        c.fill(7);
        assert!(c.lookup(7));
    }

    #[test]
    fn kernel_namespace_is_the_identity() {
        assert_eq!(namespaced_vpn(0x1234, Asid::KERNEL), 0x1234);
        assert_ne!(namespaced_vpn(0x1234, Asid(1)), 0x1234);
        assert_ne!(
            namespaced_vpn(0x1234, Asid(1)),
            namespaced_vpn(0x1234, Asid(2))
        );
    }

    #[test]
    fn namespaced_tenants_do_not_share_nodes() {
        let mut p = SplitPscs::asplos25();
        p.fill(namespaced_vpn(0x1234, Asid(1)), 1);
        assert_eq!(p.start_level(namespaced_vpn(0x1234, Asid(1))), 2);
        assert_eq!(p.start_level(namespaced_vpn(0x1234, Asid(2))), 5);
    }

    #[test]
    fn flush_asid_clears_only_that_namespace() {
        let mut p = SplitPscs::asplos25();
        p.fill(namespaced_vpn(0x1234, Asid(1)), 1);
        p.fill(namespaced_vpn(0x5678, Asid(2)), 1);
        p.fill(namespaced_vpn(0x9abc, Asid::GLOBAL), 1);
        p.flush_asid(Asid(1));
        assert!(!p.contains_vpn(namespaced_vpn(0x1234, Asid(1))));
        assert!(p.contains_vpn(namespaced_vpn(0x5678, Asid(2))));
        assert!(p.contains_vpn(namespaced_vpn(0x9abc, Asid::GLOBAL)));
        // KERNEL (0) flush of an empty namespace is a no-op for others.
        p.flush_asid(Asid::KERNEL);
        assert!(p.contains_vpn(namespaced_vpn(0x5678, Asid(2))));
    }
}
