//! The functional reference machine: the difftest oracle for the cycle
//! model's structures.
//!
//! A timing-free model of the TLBs, PSCs and cache chain: per-set
//! MRU-first recency lists instead of policy objects and validity
//! bitmasks, straight-line lookups instead of MSHR merging, and no
//! timing at all. It shares **no** structure code with
//! `itpx-vm`/`itpx-mem` — only the page table (the deterministic address
//! mapping both machines must agree on) and the type vocabulary — which
//! is what makes it a differential reference. `itpx-difftest` wraps
//! [`FunctionalMachine`] and checks two things against it under LRU:
//! the quiescent cycle model's counters, bit for bit, and the residency
//! a fast-forward's warm path leaves in the cycle structures (see
//! DESIGN.md, "Tiered execution"). The engine itself never runs it.

use crate::config::SystemConfig;
use itpx_types::{
    Asid, FillClass, LevelCounts, LevelId, PageSize, PhysAddr, SetGrid, SetMask, StructCounts,
    TranslationKind, VirtAddr,
};
use itpx_vm::address_space::AddressSpace;
use itpx_vm::psc::{namespaced_vpn, tag_asid};
use itpx_vm::tlb::TlbConfig;

/// One resident translation: `(vpn, size, frame, asid)`, where `asid` is
/// the tag the entry was installed under ([`Asid::GLOBAL`] for mappings
/// that hit in every address space).
type TlbEntry = (u64, PageSize, PhysAddr, Asid);

/// Set-associative storage of the functional structures: one flat
/// `sets × ways` slab plus a fill count per set. Each set's live entries
/// are the prefix of its row, most recently used first; a touch or an
/// insert rotates that prefix in place, so recency updates never move an
/// entry across sets and nothing allocates after construction.
#[derive(Debug)]
struct MruSets<T> {
    mask: SetMask,
    slots: SetGrid<T>,
    lens: Vec<usize>,
}

impl<T: Copy> MruSets<T> {
    /// `sets` empty sets of `ways` slots; `blank` fills unused slots.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two (the production structures
    /// reject such geometries too).
    fn new(sets: usize, ways: usize, blank: T) -> Self {
        Self {
            mask: SetMask::new(sets),
            slots: SetGrid::new(sets, ways, blank),
            lens: vec![0; sets],
        }
    }

    fn sets(&self) -> usize {
        self.lens.len()
    }

    /// The set a key maps to: its low bits, like the production
    /// structures.
    fn set_of(&self, key: u64) -> usize {
        self.mask.set_of(key)
    }

    /// The live entries of `set`, MRU first.
    fn set(&self, set: usize) -> &[T] {
        // lens[set] <= ways, the row length, by the insert discipline
        &self.slots.row(set)[..self.lens[set]]
    }

    /// Every set's live entries, in set order.
    fn iter(&self) -> impl Iterator<Item = &[T]> + '_ {
        (0..self.sets()).map(|set| self.set(set))
    }

    /// Position of the first live entry of `set` matching `hit`.
    fn find(&self, set: usize, hit: impl Fn(&T) -> bool) -> Option<usize> {
        self.set(set).iter().position(hit)
    }

    /// Moves the entry at `pos` of `set` to the front; returns it.
    fn touch(&mut self, set: usize, pos: usize) -> T {
        let row = self.slots.row_mut(set);
        // pos came from find(), so it is below lens[set] <= ways
        row[..=pos].rotate_right(1);
        row[0]
    }

    /// Inserts `entry` as the MRU of `set`, dropping the LRU entry of a
    /// full set and returning it.
    fn push_front(&mut self, set: usize, entry: T) -> Option<T> {
        let len = self.lens[set];
        let row = self.slots.row_mut(set);
        let full = len == row.len();
        let victim = if full { row.last().copied() } else { None };
        // the rotated span ends at the last live slot of a full set, or
        // at the first free one, both inside the row
        row[..len + usize::from(!full)].rotate_right(1);
        row[0] = entry;
        if !full {
            self.lens[set] = len + 1;
        }
        victim
    }

    /// The first live entry of `set` matching `hit`, mutably.
    fn find_mut(&mut self, set: usize, hit: impl Fn(&T) -> bool) -> Option<&mut T> {
        let len = self.lens[set];
        // lens[set] <= ways, the row length, by the insert discipline
        self.slots.row_mut(set)[..len].iter_mut().find(|e| hit(e))
    }

    /// Drops the entries of `set` failing `keep`, preserving the order
    /// of survivors.
    fn retain_set(&mut self, set: usize, keep: impl Fn(&T) -> bool) {
        let len = self.lens[set];
        let row = self.slots.row_mut(set);
        let mut kept = 0;
        for i in 0..len {
            // i < lens[set] <= ways and kept <= i
            if keep(&row[i]) {
                row[kept] = row[i];
                kept += 1;
            }
        }
        self.lens[set] = kept;
    }

    /// [`Self::retain_set`] over every set.
    fn retain(&mut self, keep: impl Fn(&T) -> bool) {
        for set in 0..self.sets() {
            self.retain_set(set, &keep);
        }
    }
}

/// A TLB modeled as per-set MRU-first lists of `(vpn, size, frame, asid)`
/// tuples.
///
/// Equivalent to the production structure under LRU: a hit or a refill
/// of a resident entry moves it to the front, a fill pushes to the
/// front and drops the back of a full set. The production first-free-way
/// fill plus recency-stack victim selection preserves exactly this
/// membership and eviction order.
#[derive(Debug)]
pub struct FunctionalTlb {
    /// Entries, each set most recently used first.
    sets: MruSets<TlbEntry>,
    /// The address space lookups currently run under (mirrors the
    /// production TLB's current-ASID register).
    current: Asid,
    /// Access/miss counters in the difftest vocabulary.
    pub stats: StructCounts,
}

impl FunctionalTlb {
    /// Builds an empty TLB with `cfg`'s geometry.
    pub fn new(cfg: &TlbConfig) -> Self {
        let blank = (0, PageSize::Base4K, PhysAddr::new(0), Asid::KERNEL);
        Self {
            sets: MruSets::new(cfg.sets, cfg.ways, blank),
            current: Asid::KERNEL,
            stats: StructCounts::default(),
        }
    }

    fn stat_class(kind: TranslationKind) -> FillClass {
        match kind {
            TranslationKind::Instruction => FillClass::InstrPayload,
            TranslationKind::Data => FillClass::DataPayload,
        }
    }

    /// Probes both page-size granularities in the production order
    /// (4 KiB first), touching recency and recording stats.
    pub fn lookup(&mut self, va: VirtAddr, kind: TranslationKind) -> Option<(PhysAddr, PageSize)> {
        for size in [PageSize::Base4K, PageSize::Huge2M] {
            let vpn = va.vpn(size).0;
            let set = self.sets.set_of(vpn);
            let current = self.current;
            if let Some(pos) = self.sets.find(set, |&(v, s, _, a)| {
                v == vpn && s == size && a.matches(current)
            }) {
                let entry = self.sets.touch(set, pos);
                self.stats.record(Self::stat_class(kind), false);
                return Some((entry.2, size));
            }
        }
        self.stats.record(Self::stat_class(kind), true);
        None
    }

    /// Installs a translation tagged `asid`; a resident entry is
    /// refreshed in place.
    pub fn fill(&mut self, vpn: u64, size: PageSize, frame: PhysAddr, asid: Asid) {
        let set = self.sets.set_of(vpn);
        match self.sets.find(set, |&(v, s, _, a)| {
            v == vpn && s == size && a.matches(asid)
        }) {
            Some(pos) => {
                self.sets.touch(set, pos);
            }
            None => {
                self.sets.push_front(set, (vpn, size, frame, asid));
            }
        }
    }

    /// Retargets lookups to `asid` (mirrors `Tlb::set_current_asid`).
    pub fn set_current_asid(&mut self, asid: Asid) {
        self.current = asid;
    }

    /// Drops every entry tagged exactly `asid`, preserving the recency
    /// order of survivors (mirrors `Tlb::flush_asid`).
    pub fn flush_asid(&mut self, asid: Asid) {
        self.sets.retain(|&(_, _, _, a)| a != asid);
    }

    /// Targeted shootdown of `va` under exactly `asid`, both page sizes
    /// (mirrors `Tlb::invalidate_page`).
    pub fn invalidate_page(&mut self, va: VirtAddr, asid: Asid) {
        for size in [PageSize::Base4K, PageSize::Huge2M] {
            let vpn = va.vpn(size).0;
            let set = self.sets.set_of(vpn);
            self.sets
                .retain_set(set, |&(v, s, _, a)| !(v == vpn && s == size && a == asid));
        }
    }

    /// Occupancy of the fullest set (used by capacity-invariant tests).
    pub fn max_set_occupancy(&self) -> usize {
        self.sets.iter().map(<[TlbEntry]>::len).max().unwrap_or(0)
    }

    /// Whether a `(vpn, size)` translation visible under `asid` is
    /// resident, without touching recency or stats (the functional
    /// counterpart of `Tlb::contains_tagged`).
    pub fn contains(&self, vpn: u64, size: PageSize, asid: Asid) -> bool {
        let set = self.sets.set_of(vpn);
        self.sets
            .find(set, |&(v, s, _, a)| {
                v == vpn && s == size && a.matches(asid)
            })
            .is_some()
    }
}

/// One page-structure cache as per-set MRU-first tag lists.
#[derive(Debug)]
pub struct FunctionalPsc {
    level: u8,
    tags: MruSets<u64>,
}

impl FunctionalPsc {
    fn new(level: u8, sets: usize, ways: usize) -> Self {
        Self {
            level,
            tags: MruSets::new(sets, ways, 0),
        }
    }

    fn tag(&self, vpn4k: u64) -> u64 {
        vpn4k >> (9 * (self.level as u32 - 1))
    }

    /// Probe, touching recency on a hit (the production lookup does).
    pub fn lookup(&mut self, vpn4k: u64) -> bool {
        let tag = self.tag(vpn4k);
        let set = self.tags.set_of(tag);
        match self.tags.find(set, |&t| t == tag) {
            Some(pos) => {
                self.tags.touch(set, pos);
                true
            }
            None => false,
        }
    }

    /// Install after a walk. A resident tag is left untouched — the
    /// production fill early-returns without a recency update.
    pub fn fill(&mut self, vpn4k: u64) {
        let tag = self.tag(vpn4k);
        let set = self.tags.set_of(tag);
        if self.tags.find(set, |&t| t == tag).is_none() {
            self.tags.push_front(set, tag);
        }
    }

    /// Whether the node tag for `vpn4k` is resident, without touching
    /// recency.
    pub fn contains_vpn(&self, vpn4k: u64) -> bool {
        let tag = self.tag(vpn4k);
        self.tags
            .find(self.tags.set_of(tag), |&t| t == tag)
            .is_some()
    }

    /// Drops tags cached under `asid`'s namespace (mirrors
    /// `PageStructureCache::flush_asid`).
    pub fn flush_asid(&mut self, asid: Asid) {
        let level = self.level;
        self.tags.retain(|&t| tag_asid(t, level) != asid);
    }
}

/// The split PSC hierarchy with the Table 1 geometry, replicating the
/// production probe order (PSCL2 → PSCL3 → PSCL4 → PSCL5) and fill
/// order (2, 3, 4, 5).
#[derive(Debug)]
pub struct FunctionalPscs {
    pscl5: FunctionalPsc,
    pscl4: FunctionalPsc,
    pscl3: FunctionalPsc,
    pscl2: FunctionalPsc,
}

impl FunctionalPscs {
    /// The paper's Table 1 geometry.
    pub fn asplos25() -> Self {
        Self {
            pscl5: FunctionalPsc::new(5, 1, 2),
            pscl4: FunctionalPsc::new(4, 1, 4),
            pscl3: FunctionalPsc::new(3, 4, 2),
            pscl2: FunctionalPsc::new(2, 8, 4),
        }
    }

    /// Deepest level a walk for `vpn4k` may start at.
    pub fn start_level(&mut self, vpn4k: u64) -> u8 {
        if self.pscl2.lookup(vpn4k) {
            2
        } else if self.pscl3.lookup(vpn4k) {
            3
        } else if self.pscl4.lookup(vpn4k) {
            4
        } else {
            // Production consults PSCL5 even though the answer is the
            // root either way; replicate for identical recency state.
            let _ = self.pscl5.lookup(vpn4k);
            5
        }
    }

    /// Fills all levels after a resolved walk.
    pub fn fill(&mut self, vpn4k: u64) {
        self.pscl2.fill(vpn4k);
        self.pscl3.fill(vpn4k);
        self.pscl4.fill(vpn4k);
        self.pscl5.fill(vpn4k);
    }

    /// Whether any level holds a node for `vpn4k`, without touching
    /// recency (mirrors `SplitPscs::contains_vpn`).
    pub fn contains_vpn(&self, vpn4k: u64) -> bool {
        [&self.pscl2, &self.pscl3, &self.pscl4, &self.pscl5]
            .iter()
            .any(|p| p.contains_vpn(vpn4k))
    }

    /// Drops every level's tags under `asid`'s namespace (mirrors
    /// `SplitPscs::flush_asid`).
    pub fn flush_asid(&mut self, asid: Asid) {
        self.pscl2.flush_asid(asid);
        self.pscl3.flush_asid(asid);
        self.pscl4.flush_asid(asid);
        self.pscl5.flush_asid(asid);
    }
}

/// One cached block of the functional chain.
#[derive(Debug, Clone, Copy)]
struct FunctionalLine {
    block: u64,
    dirty: bool,
}

/// One level of the functional chain.
#[derive(Debug)]
pub struct FunctionalLevel {
    id: LevelId,
    /// Lines, each set most recently used first.
    lines: MruSets<FunctionalLine>,
    /// Index of the next-lower level; `None` misses to DRAM.
    next: Option<usize>,
    counts: StructCounts,
    writebacks: u64,
    evictions: u64,
}

impl FunctionalLevel {
    fn new(id: LevelId, sets: usize, ways: usize, next: Option<usize>) -> Self {
        let blank = FunctionalLine {
            block: 0,
            dirty: false,
        };
        Self {
            id,
            lines: MruSets::new(sets, ways, blank),
            next,
            counts: StructCounts::default(),
            writebacks: 0,
            evictions: 0,
        }
    }

    /// Non-touching residency check (writeback routing uses this).
    pub fn contains(&self, block: u64) -> bool {
        let set = self.lines.set_of(block);
        self.lines.find(set, |l| l.block == block).is_some()
    }

    /// Whether `block` is resident and dirty, without touching recency.
    pub fn is_dirty(&self, block: u64) -> bool {
        let set = self.lines.set_of(block);
        self.lines
            .find(set, |l| l.block == block)
            .is_some_and(|pos| self.lines.set(set)[pos].dirty)
    }

    fn mark_dirty(&mut self, block: u64) {
        let set = self.lines.set_of(block);
        if let Some(line) = self.lines.find_mut(set, |l| l.block == block) {
            line.dirty = true;
        }
    }
}

/// The functional cache chain: `[L1I, L1D, shared…]` with DRAM at the
/// bottom, mirroring the production level-chain topology.
#[derive(Debug)]
pub struct FunctionalChain {
    levels: Vec<FunctionalLevel>,
    dram_reads: u64,
    dram_writes: u64,
    wb_absorbed: u64,
}

/// Index of the L1I entry level.
const L1I: usize = 0;
/// Index of the L1D entry level.
const L1D: usize = 1;
/// Index of the first shared level (the page-walk entry point).
const SHARED: usize = 2;

impl FunctionalChain {
    /// Builds the chain for `cfg`'s topology.
    pub fn new(cfg: &itpx_mem::HierarchyConfig) -> Self {
        let shared = cfg.shared_levels();
        let last = shared.len() - 1;
        let mut levels = Vec::with_capacity(2 + shared.len());
        let mk = FunctionalLevel::new;
        levels.push(mk(LevelId::L1I, cfg.l1i.sets, cfg.l1i.ways, Some(SHARED)));
        levels.push(mk(LevelId::L1D, cfg.l1d.sets, cfg.l1d.ways, Some(SHARED)));
        for (i, level) in shared.iter().enumerate() {
            let next = (i != last).then_some(SHARED + i + 1);
            levels.push(mk(level.id, level.cache.sets, level.cache.ways, next));
        }
        Self {
            levels,
            dram_reads: 0,
            dram_writes: 0,
            wb_absorbed: 0,
        }
    }

    /// The probe → miss-below → fill recursion, in the production order:
    /// on a miss the lower levels fill (and route their writebacks)
    /// before this level does.
    pub fn access(&mut self, idx: usize, block: u64, class: FillClass) {
        let level = &mut self.levels[idx];
        let set = level.lines.set_of(block);
        if let Some(pos) = level.lines.find(set, |l| l.block == block) {
            level.counts.record(class, false);
            level.lines.touch(set, pos);
            return;
        }
        level.counts.record(class, true);
        match level.next {
            Some(next) => self.access(next, block, class),
            None => self.dram_reads += 1,
        }
        if let Some(victim) = self.fill(idx, block) {
            self.route_writeback(idx, victim);
        }
    }

    /// Installs the absent `block` clean as its set's MRU; returns a
    /// displaced dirty block.
    fn fill(&mut self, idx: usize, block: u64) -> Option<u64> {
        let level = &mut self.levels[idx];
        let set = level.lines.set_of(block);
        let line = FunctionalLine {
            block,
            dirty: false,
        };
        let victim = level.lines.push_front(set, line)?;
        level.evictions += 1;
        if victim.dirty {
            level.writebacks += 1;
            Some(victim.block)
        } else {
            None
        }
    }

    /// First strictly-lower level holding the block absorbs the
    /// writeback as a dirty mark; otherwise it is a DRAM write.
    fn route_writeback(&mut self, from: usize, block: u64) {
        let mut next = self.levels[from].next;
        while let Some(idx) = next {
            if self.levels[idx].contains(block) {
                self.levels[idx].mark_dirty(block);
                self.wb_absorbed += 1;
                return;
            }
            next = self.levels[idx].next;
        }
        self.dram_writes += 1;
    }

    /// The chain's levels in order (L1I, L1D, then shared
    /// outermost-first).
    pub fn levels(&self) -> &[FunctionalLevel] {
        &self.levels
    }

    /// Per-level counters in the difftest report vocabulary.
    pub fn level_counts(&self) -> Vec<LevelCounts> {
        self.levels
            .iter()
            .map(|l| LevelCounts {
                id: l.id,
                counts: l.counts,
                writebacks: l.writebacks,
                evictions: l.evictions,
            })
            .collect()
    }

    /// DRAM reads observed.
    pub fn dram_reads(&self) -> u64 {
        self.dram_reads
    }

    /// DRAM writes observed.
    pub fn dram_writes(&self) -> u64 {
        self.dram_writes
    }

    /// Writebacks absorbed by a lower level instead of DRAM.
    pub fn writebacks_absorbed(&self) -> u64 {
        self.wb_absorbed
    }

    /// Marks `block` dirty at the L1D (store semantics).
    pub fn mark_dirty_l1d(&mut self, block: u64) {
        self.levels[L1D].mark_dirty(block);
    }
}

/// The functional machine: TLBs, PSCs, page-walk bookkeeping, and the
/// cache chain. The page table is **not** owned — callers pass the one
/// the cycle model uses so first-touch frame allocation stays shared
/// across tiers (the difftest wrapper owns its own).
#[derive(Debug)]
pub struct FunctionalMachine {
    /// First-level instruction TLB.
    pub itlb: FunctionalTlb,
    /// First-level data TLB.
    pub dtlb: FunctionalTlb,
    /// Unified second-level TLB.
    pub stlb: FunctionalTlb,
    /// Split page-structure caches.
    pub pscs: FunctionalPscs,
    /// The cache chain.
    pub chain: FunctionalChain,
    /// Page walks performed.
    pub walks: u64,
    /// Walks triggered by instruction translations.
    pub instr_walks: u64,
    /// Memory references issued by walks.
    pub walk_refs: u64,
}

impl FunctionalMachine {
    /// Builds an empty (cold) machine for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` requests a split STLB — the reference models the
    /// unified organization the paper optimizes.
    pub fn new(cfg: &SystemConfig) -> Self {
        assert!(
            !cfg.split_stlb,
            "the functional reference models the unified STLB only"
        );
        Self {
            itlb: FunctionalTlb::new(&cfg.itlb),
            dtlb: FunctionalTlb::new(&cfg.dtlb),
            stlb: FunctionalTlb::new(&cfg.stlb),
            pscs: FunctionalPscs::asplos25(),
            chain: FunctionalChain::new(&cfg.hierarchy),
            walks: 0,
            instr_walks: 0,
            walk_refs: 0,
        }
    }

    /// The full ITLB/DTLB → STLB → page-walk path, minus all timing.
    /// Returns the physical address.
    pub fn translate(
        &mut self,
        space: &mut AddressSpace,
        va: VirtAddr,
        kind: TranslationKind,
    ) -> PhysAddr {
        let l1 = if kind.is_instruction() {
            &mut self.itlb
        } else {
            &mut self.dtlb
        };
        if let Some((frame, size)) = l1.lookup(va, kind) {
            return frame.offset(va.page_offset(size));
        }
        // Production translates on every L1-TLB miss (page-table node
        // and frame allocation are first-touch, so call order matters).
        let tr = space.translate(va, kind);
        if self.stlb.lookup(va, kind).is_none() {
            // Page walk: PSC start level, then one chain access per
            // remaining page-table level, entering at the first shared
            // level with the translation kind's PTE class. Tags are
            // namespaced per address space exactly like the production
            // walker.
            let vpn4k = namespaced_vpn(
                match tr.size {
                    PageSize::Base4K => tr.vpn,
                    PageSize::Huge2M => tr.vpn << 9,
                },
                tr.asid,
            );
            let start_level = self.pscs.start_level(vpn4k);
            let steps = tr.path.from_level(start_level);
            for &(_level, pa) in steps {
                self.chain
                    .access(SHARED, pa.block().index(), FillClass::pte_for(kind));
            }
            self.pscs.fill(vpn4k);
            self.walks += 1;
            if kind.is_instruction() {
                self.instr_walks += 1;
            }
            self.walk_refs += steps.len() as u64;
            self.stlb.fill(tr.vpn, tr.size, tr.frame, tr.asid);
        }
        let l1 = if kind.is_instruction() {
            &mut self.itlb
        } else {
            &mut self.dtlb
        };
        l1.fill(tr.vpn, tr.size, tr.frame, tr.asid);
        tr.pa
    }

    /// Instruction fetch of the block containing `va`.
    pub fn fetch(&mut self, space: &mut AddressSpace, va: VirtAddr) {
        let pa = self.translate(space, va, TranslationKind::Instruction);
        self.chain
            .access(L1I, pa.block().index(), FillClass::InstrPayload);
    }

    /// Data load from `va`.
    pub fn load(&mut self, space: &mut AddressSpace, va: VirtAddr) {
        let pa = self.translate(space, va, TranslationKind::Data);
        self.chain
            .access(L1D, pa.block().index(), FillClass::DataPayload);
    }

    /// Data store to `va` (dirties the L1D block after the chain access,
    /// matching the production order).
    pub fn store(&mut self, space: &mut AddressSpace, va: VirtAddr) {
        let pa = self.translate(space, va, TranslationKind::Data);
        let block = pa.block().index();
        self.chain.access(L1D, block, FillClass::DataPayload);
        self.chain.mark_dirty_l1d(block);
    }

    /// Mirrors [`crate::System::context_switch`]: optionally flushes the
    /// incoming tenant's TLB entries and PSC namespace, then retargets
    /// every TLB level. The caller retargets the [`AddressSpace`]
    /// separately (it is not owned by the machine).
    pub fn context_switch(&mut self, asid: Asid, flush: bool) {
        if flush {
            self.itlb.flush_asid(asid);
            self.dtlb.flush_asid(asid);
            self.stlb.flush_asid(asid);
            self.pscs.flush_asid(asid);
        }
        self.itlb.set_current_asid(asid);
        self.dtlb.set_current_asid(asid);
        self.stlb.set_current_asid(asid);
    }

    /// Mirrors [`crate::System::shootdown`]: a targeted invalidation of `va`
    /// under `asid` across every TLB level (PSC interiors survive, like
    /// production).
    pub fn shootdown(&mut self, va: VirtAddr, asid: Asid) {
        self.itlb.invalidate_page(va, asid);
        self.dtlb.invalidate_page(va, asid);
        self.stlb.invalidate_page(va, asid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SystemConfig {
        SystemConfig::asplos25()
    }

    fn table(c: &SystemConfig) -> AddressSpace {
        AddressSpace::single(c.huge_pages, c.seed, 0)
    }

    #[test]
    fn cold_fetch_walks_and_warms_everything() {
        let c = cfg();
        let mut pt = table(&c);
        let mut m = FunctionalMachine::new(&c);
        m.fetch(&mut pt, VirtAddr::new(0x51_0000_0000));
        assert_eq!(m.itlb.stats.accesses, [0, 1, 0, 0]);
        assert_eq!(m.itlb.stats.misses, [0, 1, 0, 0]);
        assert_eq!(m.walks, 1);
        assert_eq!(m.instr_walks, 1);
        assert_eq!(m.walk_refs, 5, "cold 4 KiB walk reads all five levels");
        m.fetch(&mut pt, VirtAddr::new(0x51_0000_0000));
        assert_eq!(m.walks, 1);
        assert_eq!(m.itlb.stats.misses, [0, 1, 0, 0]);
    }
}
