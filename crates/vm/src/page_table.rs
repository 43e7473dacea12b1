//! A 5-level radix page table with on-demand mapping.
//!
//! The simulator does not store page contents, but it models the piece of
//! the page table the caches care about: *where in physical memory each
//! page-table entry lives*. A walk for a 4 KiB page touches five PTEs (one
//! per level); a walk for a 2 MiB page stops at level 2. Adjacent virtual
//! pages share PTE cache blocks (eight 8-byte PTEs per 64-byte block),
//! which is exactly the locality the paper's xPTP policy exploits.
//!
//! Mappings are created on demand at first touch (the evaluation assumes
//! warmed-up, fully resident workloads — page faults are not modeled), and
//! physical frames are scattered deterministically so PTE and payload
//! blocks spread over cache sets as they would on a long-lived server.

use itpx_types::fingerprint::{Fingerprint, Fnv1a};
use itpx_types::{Asid, BuildWordHasher, PageSize, PhysAddr, Rng64, TranslationKind, VirtAddr};
use std::collections::HashMap;

/// Number of tree levels (x86-64 5-level paging: PML5 → PT).
pub const LEVELS: u8 = 5;
/// Index bits per level.
const LEVEL_BITS: u32 = 9;
/// Bytes per page-table entry.
const PTE_BYTES: u64 = 8;

/// Physical-address region bases; keeping frames, huge frames, and
/// page-table nodes disjoint by construction.
const FRAME_REGION: u64 = 0x0000_0000_0000;
const HUGE_REGION: u64 = 0x0200_0000_0000;
const NODE_REGION: u64 = 0x0400_0000_0000;

/// Deterministic scattered allocator for 4 KiB physical frames.
///
/// Frame numbers are produced by a bijective multiply over a power-of-two
/// space, so allocations never collide yet land in pseudo-random cache
/// sets — mimicking the fragmented physical memory of a long-uptime server
/// (the reason the paper's 4 KiB-only scenario is the primary one).
#[derive(Debug, Clone)]
pub struct FrameAllocator {
    counter: u64,
    huge_counter: u64,
    node_counter: u64,
    frame_bits: u32,
    salt: u64,
    region_offset: u64,
}

impl FrameAllocator {
    /// Creates an allocator over `2^frame_bits` base frames (default used
    /// by [`PageTable::new`] is 24 bits = 64 GiB of 4 KiB frames).
    pub fn new(frame_bits: u32, seed: u64) -> Self {
        Self::with_region_offset(frame_bits, seed, 0)
    }

    /// Like [`FrameAllocator::new`], with every produced address offset by
    /// `region_offset` — used to give each SMT hardware thread a disjoint
    /// physical address space (separate processes).
    pub fn with_region_offset(frame_bits: u32, seed: u64, region_offset: u64) -> Self {
        assert!((16..=36).contains(&frame_bits), "frame_bits out of range");
        Self {
            counter: 0,
            huge_counter: 0,
            node_counter: 0,
            frame_bits,
            salt: Rng64::new(seed).next_u64() | 1,
            region_offset,
        }
    }

    /// Allocates a 4 KiB payload frame.
    pub fn alloc_frame(&mut self) -> PhysAddr {
        let n = self.counter;
        self.counter += 1;
        let scrambled = n.wrapping_mul(self.salt) & ((1 << self.frame_bits) - 1);
        // itpx-allow: arith-width scrambled is masked to frame_bits (< 40), so the page shift cannot overflow u64
        PhysAddr::new(self.region_offset + FRAME_REGION + (scrambled << PageSize::Base4K.shift()))
    }

    /// Allocates a 2 MiB huge frame (naturally aligned).
    pub fn alloc_huge_frame(&mut self) -> PhysAddr {
        let n = self.huge_counter;
        self.huge_counter += 1;
        let scrambled = n.wrapping_mul(self.salt) & ((1 << (self.frame_bits - 9)) - 1);
        // itpx-allow: arith-width scrambled is masked to frame_bits - 9 bits, so the huge-page shift cannot overflow u64
        PhysAddr::new(self.region_offset + HUGE_REGION + (scrambled << PageSize::Huge2M.shift()))
    }

    /// Allocates a 4 KiB frame holding a page-table node.
    pub fn alloc_node(&mut self) -> PhysAddr {
        let n = self.node_counter;
        self.node_counter += 1;
        let scrambled = n.wrapping_mul(self.salt) & ((1 << self.frame_bits) - 1);
        // itpx-allow: arith-width scrambled is masked to frame_bits (< 40), so the page shift cannot overflow u64
        PhysAddr::new(self.region_offset + NODE_REGION + (scrambled << PageSize::Base4K.shift()))
    }
}

/// Decides which 2 MiB virtual regions are backed by huge pages
/// (Section 6.5: "portion of code and data footprint allocated by 2 MB
/// pages").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HugePagePolicy {
    /// Fraction of the *code* footprint backed by 2 MiB pages, in `[0, 1]`.
    pub code_fraction: f64,
    /// Fraction of the *data* footprint backed by 2 MiB pages, in `[0, 1]`.
    pub data_fraction: f64,
    /// Seed for the per-region decision hash.
    pub seed: u64,
}

impl Fingerprint for HugePagePolicy {
    fn fingerprint(&self, h: &mut Fnv1a) {
        h.write_f64(self.code_fraction);
        h.write_f64(self.data_fraction);
        h.write_u64(self.seed);
    }
}

impl HugePagePolicy {
    /// 4 KiB pages only — the paper's primary scenario.
    pub fn none() -> Self {
        Self {
            code_fraction: 0.0,
            data_fraction: 0.0,
            seed: 0,
        }
    }

    /// The same fraction for code and data, as in Figure 13's sweep.
    pub fn uniform(fraction: f64, seed: u64) -> Self {
        Self {
            code_fraction: fraction,
            data_fraction: fraction,
            seed,
        }
    }

    // itpx-allow: hot-float per-region fraction compare with a seeded hash; decided once per region and cached by region_is_huge
    fn is_huge(&self, region_vpn2m: u64, kind: TranslationKind) -> bool {
        let fraction = match kind {
            TranslationKind::Instruction => self.code_fraction,
            TranslationKind::Data => self.data_fraction,
        };
        if fraction <= 0.0 {
            return false;
        }
        if fraction >= 1.0 {
            return true;
        }
        // Stable per-region hash decision.
        let mut h = Rng64::new(self.seed ^ region_vpn2m.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        h.f64() < fraction
    }
}

/// One PTE reference a page walk performs: the tree level (5 = root) and
/// the physical address of the entry.
pub type WalkStep = (u8, PhysAddr);

/// The ordered PTE references of a full (un-cached) walk, root first.
///
/// A walk references at most [`LEVELS`] PTEs, so the steps live inline and
/// building a translation on the per-access path never allocates.
#[derive(Debug, Clone)]
pub struct WalkPath {
    steps: [WalkStep; LEVELS as usize],
    len: usize,
}

impl PartialEq for WalkPath {
    fn eq(&self, other: &Self) -> bool {
        self.steps() == other.steps()
    }
}

impl Eq for WalkPath {}

impl WalkPath {
    fn empty() -> Self {
        Self {
            steps: [(0, PhysAddr::new(0)); LEVELS as usize],
            len: 0,
        }
    }

    fn record(&mut self, step: WalkStep) {
        self.steps[self.len] = step;
        self.len += 1;
    }

    /// All steps, root (level 5) first, leaf last.
    pub fn steps(&self) -> &[WalkStep] {
        &self.steps[..self.len]
    }

    /// The steps remaining when the walk can start at `start_level`
    /// (because a page-structure cache supplied the node at
    /// `start_level + 1`).
    #[inline]
    pub fn from_level(&self, start_level: u8) -> &[WalkStep] {
        let all = self.steps();
        let i = all
            .iter()
            .position(|&(l, _)| l <= start_level)
            .unwrap_or(all.len());
        &all[i..]
    }

    /// Level of the leaf PTE (1 for 4 KiB pages, 2 for 2 MiB pages).
    pub fn leaf_level(&self) -> u8 {
        // walks always record at least the leaf step
        self.steps().last().expect("non-empty walk").0
    }
}

/// A completed translation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Translation {
    /// Physical address corresponding to the queried virtual address.
    pub pa: PhysAddr,
    /// Page size of the mapping.
    pub size: PageSize,
    /// Virtual page number at that page size.
    pub vpn: u64,
    /// Physical base of the page (frame address).
    pub frame: PhysAddr,
    /// Address-space tag the mapping belongs to. A bare [`PageTable`]
    /// always answers [`Asid::KERNEL`] (the single-tenant default);
    /// [`crate::AddressSpace`] retags translations per tenant and marks
    /// shared mappings [`Asid::GLOBAL`].
    pub asid: Asid,
    /// PTE references a full walk would perform.
    pub path: WalkPath,
}

/// The 5-level radix page table.
#[derive(Debug, Clone)]
pub struct PageTable {
    allocator: FrameAllocator,
    huge: HugePagePolicy,
    /// (level, vpn_prefix) → node frame base.
    nodes: HashMap<(u8, u64), PhysAddr, BuildWordHasher>,
    /// 4 KiB leaf mappings: vpn4k → frame.
    map4k: HashMap<u64, PhysAddr, BuildWordHasher>,
    /// 2 MiB leaf mappings: vpn2m → frame.
    map2m: HashMap<u64, PhysAddr, BuildWordHasher>,
    /// Huge/base decision per 2 MiB region, fixed at first touch.
    region_huge: HashMap<u64, bool, BuildWordHasher>,
}

impl PageTable {
    /// Creates an empty page table with the given huge-page policy.
    pub fn new(huge: HugePagePolicy, seed: u64) -> Self {
        Self::with_region_offset(huge, seed, 0)
    }

    /// Like [`PageTable::new`], with all physical addresses offset by
    /// `region_offset` (disjoint address spaces for SMT threads).
    pub fn with_region_offset(huge: HugePagePolicy, seed: u64, region_offset: u64) -> Self {
        Self {
            allocator: FrameAllocator::with_region_offset(24, seed, region_offset),
            huge,
            nodes: HashMap::default(),
            map4k: HashMap::default(),
            map2m: HashMap::default(),
            region_huge: HashMap::default(),
        }
    }

    /// Physical address of the page-table node containing the entry for
    /// `vpn4k` at `level`, allocating the node on first touch.
    fn node_base(&mut self, level: u8, vpn4k: u64) -> PhysAddr {
        let prefix = vpn4k >> (LEVEL_BITS * level as u32);
        if let Some(&pa) = self.nodes.get(&(level, prefix)) {
            return pa;
        }
        let pa = self.allocator.alloc_node();
        // itpx-allow: hot-alloc first touch of a page-table node; bounded by the mapped footprint, not the access count
        self.nodes.insert((level, prefix), pa);
        pa
    }

    /// Physical address of the PTE for `vpn4k` at `level`.
    fn pte_pa(&mut self, level: u8, vpn4k: u64) -> PhysAddr {
        let idx = (vpn4k >> (LEVEL_BITS * (level as u32 - 1))) & ((1 << LEVEL_BITS) - 1);
        self.node_base(level, vpn4k).offset(idx * PTE_BYTES)
    }

    /// Whether the 2 MiB region containing `vpn4k` is huge-mapped,
    /// deciding (and fixing) it at first touch.
    fn region_is_huge(&mut self, vpn4k: u64, kind: TranslationKind) -> bool {
        let region = vpn4k >> LEVEL_BITS;
        if let Some(&h) = self.region_huge.get(&region) {
            return h;
        }
        let h = self.huge.is_huge(region, kind);
        // itpx-allow: hot-alloc first touch of a 2 MiB region; bounded by the mapped footprint, not the access count
        self.region_huge.insert(region, h);
        h
    }

    /// Translates a virtual address, creating the mapping on first touch.
    ///
    /// `kind` is used only for the huge-page decision of a region's first
    /// touch (code and data live in disjoint regions in the synthetic
    /// workloads, so this matches an OS mapping code and data segments with
    /// different page sizes).
    // itpx-allow: hot-inline the walk behind `AddressSpace::translate`, too large to copy into each caller; the flagged edge from `Engine::step` is a name collision with `System::translate`
    pub fn translate(&mut self, va: VirtAddr, kind: TranslationKind) -> Translation {
        let vpn4k = va.vpn(PageSize::Base4K).0;
        let huge = self.region_is_huge(vpn4k, kind);
        let mut path = WalkPath::empty();
        let leaf = if huge {
            PageSize::Huge2M.leaf_level()
        } else {
            PageSize::Base4K.leaf_level()
        };
        for level in (leaf..=LEVELS).rev() {
            path.record((level, self.pte_pa(level, vpn4k)));
        }
        if huge {
            let vpn2m = va.vpn(PageSize::Huge2M).0;
            let frame = match self.map2m.get(&vpn2m) {
                Some(&f) => f,
                None => {
                    let f = self.allocator.alloc_huge_frame();
                    // itpx-allow: hot-alloc first touch of a huge page; bounded by the mapped footprint, not the access count
                    self.map2m.insert(vpn2m, f);
                    f
                }
            };
            Translation {
                pa: frame.offset(va.page_offset(PageSize::Huge2M)),
                size: PageSize::Huge2M,
                vpn: vpn2m,
                frame,
                asid: Asid::KERNEL,
                path,
            }
        } else {
            let frame = match self.map4k.get(&vpn4k) {
                Some(&f) => f,
                None => {
                    let f = self.allocator.alloc_frame();
                    // itpx-allow: hot-alloc first touch of a 4 KiB page; bounded by the mapped footprint, not the access count
                    self.map4k.insert(vpn4k, f);
                    f
                }
            };
            Translation {
                pa: frame.offset(va.page_offset(PageSize::Base4K)),
                size: PageSize::Base4K,
                vpn: vpn4k,
                frame,
                asid: Asid::KERNEL,
                path,
            }
        }
    }

    /// Flips the huge/base decision of the 2 MiB region `region_vpn2m` —
    /// a huge-page promotion (or demotion) — and drops the region's leaf
    /// mappings so the next touch re-maps it at the new granularity with
    /// fresh frames, the way a real promotion migrates data. Upper-level
    /// page-table nodes are untouched. Returns the region's new state.
    ///
    /// Callers owning TLBs must pair this with a region invalidation:
    /// stale leaf entries would otherwise translate to the old frames.
    pub fn toggle_region_huge(&mut self, region_vpn2m: u64) -> bool {
        let now_huge = !self
            .region_huge
            .get(&region_vpn2m)
            .copied()
            .unwrap_or(false);
        // itpx-allow: hot-alloc churn is cadence-driven (thousands of instructions apart), not per-access, and the map is bounded by the touched-region footprint
        self.region_huge.insert(region_vpn2m, now_huge);
        self.map2m.remove(&region_vpn2m);
        self.map4k
            // itpx-allow: map-iter retain only drops the region's leaves; no per-entry side effects, so hash order cannot leak into simulated state
            .retain(|&vpn4k, _| vpn4k >> LEVEL_BITS != region_vpn2m);
        now_huge
    }

    /// Number of distinct 4 KiB pages mapped so far.
    pub fn mapped_4k_pages(&self) -> usize {
        self.map4k.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt() -> PageTable {
        PageTable::new(HugePagePolicy::none(), 42)
    }

    #[test]
    fn translation_is_stable() {
        let mut t = pt();
        let va = VirtAddr::new(0x1234_5000 + 0x77);
        let a = t.translate(va, TranslationKind::Data);
        let b = t.translate(va, TranslationKind::Data);
        assert_eq!(a, b);
        assert_eq!(a.pa.0 & 0xfff, 0x77, "page offset preserved");
    }

    #[test]
    fn distinct_pages_get_distinct_frames() {
        let mut t = pt();
        let a = t.translate(VirtAddr::new(0x1000), TranslationKind::Data);
        let b = t.translate(VirtAddr::new(0x2000), TranslationKind::Data);
        assert_ne!(a.frame, b.frame);
    }

    #[test]
    fn walk_path_has_five_levels_for_4k() {
        let mut t = pt();
        let tr = t.translate(VirtAddr::new(0xdead_b000), TranslationKind::Data);
        let levels: Vec<u8> = tr.path.steps().iter().map(|&(l, _)| l).collect();
        assert_eq!(levels, vec![5, 4, 3, 2, 1]);
        assert_eq!(tr.path.leaf_level(), 1);
    }

    #[test]
    fn adjacent_pages_share_leaf_pte_block() {
        let mut t = pt();
        let a = t.translate(VirtAddr::new(0x40_0000), TranslationKind::Data);
        let b = t.translate(VirtAddr::new(0x40_1000), TranslationKind::Data);
        let leaf_a = a.path.steps().last().unwrap().1;
        let leaf_b = b.path.steps().last().unwrap().1;
        assert_eq!(leaf_a.block(), leaf_b.block());
        assert_ne!(leaf_a, leaf_b);
    }

    #[test]
    fn huge_mapping_stops_at_level_2() {
        let mut t = PageTable::new(HugePagePolicy::uniform(1.0, 7), 42);
        let tr = t.translate(VirtAddr::new(0x1234_5678), TranslationKind::Data);
        assert_eq!(tr.size, PageSize::Huge2M);
        assert_eq!(tr.path.leaf_level(), 2);
        assert_eq!(tr.path.steps().len(), 4);
        // The whole 2 MiB region shares one frame.
        let tr2 = t.translate(VirtAddr::new(0x1230_0000), TranslationKind::Data);
        assert_eq!(tr.frame, tr2.frame);
    }

    #[test]
    fn huge_decision_is_stable_per_region() {
        let mut t = PageTable::new(HugePagePolicy::uniform(0.5, 9), 1);
        let mut sizes = std::collections::HashMap::new();
        for rep in 0..2 {
            for r in 0..64u64 {
                let va = VirtAddr::new(r << 21);
                let s = t.translate(va, TranslationKind::Data).size;
                if rep == 0 {
                    sizes.insert(r, s);
                } else {
                    assert_eq!(sizes[&r], s);
                }
            }
        }
        let huge = sizes.values().filter(|&&s| s == PageSize::Huge2M).count();
        assert!((16..=48).contains(&huge), "roughly half huge, got {huge}");
    }

    #[test]
    fn walk_path_from_level_skips_upper_steps() {
        let mut t = pt();
        let tr = t.translate(VirtAddr::new(0x5000), TranslationKind::Data);
        let rest = tr.path.from_level(2);
        let levels: Vec<u8> = rest.iter().map(|&(l, _)| l).collect();
        assert_eq!(levels, vec![2, 1]);
        assert!(tr.path.from_level(0).is_empty());
        assert_eq!(tr.path.from_level(5).len(), 5);
    }

    #[test]
    fn physical_regions_do_not_collide() {
        let mut alloc = FrameAllocator::new(20, 3);
        let f = alloc.alloc_frame();
        let h = alloc.alloc_huge_frame();
        let n = alloc.alloc_node();
        assert!(f.0 < HUGE_REGION);
        assert!((HUGE_REGION..NODE_REGION).contains(&h.0));
        assert!(n.0 >= NODE_REGION);
    }

    #[test]
    fn allocator_never_hands_out_duplicate_frames() {
        let mut alloc = FrameAllocator::new(16, 9);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..4096 {
            assert!(seen.insert(alloc.alloc_frame().0));
        }
    }

    #[test]
    fn toggle_region_huge_flips_size_and_remaps() {
        let mut t = pt();
        let va = VirtAddr::new(0x40_0000);
        let before = t.translate(va, TranslationKind::Data);
        assert_eq!(before.size, PageSize::Base4K);
        let region = va.vpn(PageSize::Huge2M).0;
        assert!(t.toggle_region_huge(region), "promoted to huge");
        let after = t.translate(va, TranslationKind::Data);
        assert_eq!(after.size, PageSize::Huge2M);
        assert_ne!(before.frame, after.frame, "promotion migrates the data");
        assert!(!t.toggle_region_huge(region), "demoted back to base");
        let again = t.translate(va, TranslationKind::Data);
        assert_eq!(again.size, PageSize::Base4K);
        assert_ne!(again.frame, before.frame, "demotion re-allocates too");
    }

    #[test]
    fn toggle_region_huge_leaves_other_regions_alone() {
        let mut t = pt();
        let other = VirtAddr::new(0x80_0000);
        let kept = t.translate(other, TranslationKind::Data);
        t.toggle_region_huge(VirtAddr::new(0x40_0000).vpn(PageSize::Huge2M).0);
        assert_eq!(t.translate(other, TranslationKind::Data), kept);
    }

    #[test]
    fn instruction_vs_data_fraction_respected() {
        let policy = HugePagePolicy {
            code_fraction: 1.0,
            data_fraction: 0.0,
            seed: 5,
        };
        let mut t = PageTable::new(policy, 11);
        let code = t.translate(VirtAddr::new(0x10_0000_0000), TranslationKind::Instruction);
        let data = t.translate(VirtAddr::new(0x20_0000_0000), TranslationKind::Data);
        assert_eq!(code.size, PageSize::Huge2M);
        assert_eq!(data.size, PageSize::Base4K);
    }
}
