//! The composable level-chain cache hierarchy of Table 1, with
//! prefetchers and DRAM.
//!
//! The hierarchy is an ordered chain of [`Cache`] levels over DRAM:
//! `L1I, L1D, L2C, [L3,] [LLC]`. Both L1s front the first shared level,
//! and the shared tail is depth-configurable — the paper's Table 1
//! machine is the 3-level `L1 → L2C → LLC` preset, but 2-level (no LLC)
//! and 4-level (extra L3) chains build from the same code. Three access
//! paths exist, matching the paper's system diagram (Figure 7); each is
//! a declarative *entry point* into the chain:
//!
//! * [`Hierarchy::instr_fetch`] — front-end fetches enter at the L1I,
//! * [`Hierarchy::data_access`] — loads/stores enter at the L1D,
//! * [`Hierarchy::pte_access`] — page-walk references enter **at the
//!   L2C** carrying their translation kind as a [`FillClass`]; this is
//!   where xPTP's `Type` bit is produced and consumed.
//!
//! From its entry level an access descends through one generic
//! recursion ([`access_chain`](Hierarchy)) — probe, recurse below on a
//! miss, fill — and every displaced dirty block rides one
//! `route_writeback` walk of the strictly-lower levels: the first lower
//! level holding the block absorbs it as a dirty mark, otherwise it is
//! a DRAM write. Prefetchers are not baked into the chain; they attach
//! to individual levels via [`LevelHooks`] and are run for demand
//! traffic at their level.
//!
//! A fast-forward's warm path ([`Hierarchy::warm_fetch`],
//! [`Hierarchy::warm_data`], [`Hierarchy::warm_pte`]) descends the same
//! chain through the same policy hooks, untimed and uncounted, without
//! DRAM or prefetchers; [`Hierarchy::settle`] ends it.

use crate::cache::{Cache, CacheConfig, Probe, Writeback};
use crate::dram::{Dram, DramConfig};
use crate::prefetch::{NextLinePrefetcher, StridePrefetcher};
use itpx_policy::{CacheMeta, CachePolicyEngine, Lru};
use itpx_types::fingerprint::{Fingerprint, Fnv1a};
use itpx_types::{Cycle, FillClass, LevelId, PhysAddr, StructStats, ThreadId, TranslationKind};

/// Maximum number of shared levels (L2C and below) a chain can have.
pub const MAX_SHARED_LEVELS: usize = 3;

/// One shared level of the chain: its identity plus its geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheLevelConfig {
    /// Which level this is ([`LevelId::L2C`], [`LevelId::L3`], or
    /// [`LevelId::Llc`]).
    pub id: LevelId,
    /// Geometry and timing of the level.
    pub cache: CacheConfig,
}

/// Placeholder for unused shared-level slots. Only constructors write
/// slots at or beyond `depth`, so equal-depth configs always carry
/// identical padding and derived `PartialEq` stays meaningful.
const UNUSED_SLOT: CacheLevelConfig = CacheLevelConfig {
    id: LevelId::Llc,
    cache: CacheConfig {
        sets: 0,
        ways: 0,
        latency: 0,
        mshr_entries: 0,
    },
};

/// Geometry of every level plus DRAM timing.
///
/// The shared tail (L2C and below) is depth-configurable: one to
/// [`MAX_SHARED_LEVELS`] levels. Shared-level storage is a fixed-size
/// array so the config stays `Copy` (the campaign engine embeds it in
/// by-value simulation requests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Shared levels, outermost first; only `..depth` are active.
    shared: [CacheLevelConfig; MAX_SHARED_LEVELS],
    /// Number of active shared levels.
    depth: usize,
    /// DRAM timing.
    pub dram: DramConfig,
}

impl HierarchyConfig {
    /// Builds a chain with the given L1s and one to
    /// [`MAX_SHARED_LEVELS`] shared levels, outermost (L2C) first.
    ///
    /// Level identities are assigned by depth: 1 → `[L2C]`,
    /// 2 → `[L2C, LLC]`, 3 → `[L2C, L3, LLC]`.
    ///
    /// # Panics
    ///
    /// Panics if `shared` is empty or longer than [`MAX_SHARED_LEVELS`],
    /// or if any level fails [`CacheConfig::validate`].
    pub fn new(
        l1i: CacheConfig,
        l1d: CacheConfig,
        shared: &[CacheConfig],
        dram: DramConfig,
    ) -> Self {
        assert!(
            !shared.is_empty() && shared.len() <= MAX_SHARED_LEVELS,
            "a hierarchy needs 1..={MAX_SHARED_LEVELS} shared levels, got {}",
            shared.len()
        );
        for level in [&l1i, &l1d].into_iter().chain(shared) {
            level.validate();
        }
        let ids: &[LevelId] = match shared.len() {
            1 => &[LevelId::L2C],
            2 => &[LevelId::L2C, LevelId::Llc],
            _ => &[LevelId::L2C, LevelId::L3, LevelId::Llc],
        };
        let mut slots = [UNUSED_SLOT; MAX_SHARED_LEVELS];
        for (slot, (&id, &cache)) in slots.iter_mut().zip(ids.iter().zip(shared)) {
            *slot = CacheLevelConfig { id, cache };
        }
        Self {
            l1i,
            l1d,
            shared: slots,
            depth: shared.len(),
            dram,
        }
    }

    /// The paper's Table 1 configuration (32 KiB L1s, 512 KiB 8-way L2C,
    /// 2 MiB 16-way LLC per core, 64 B blocks).
    pub fn asplos25() -> Self {
        Self::new(
            CacheConfig {
                sets: 64,
                ways: 8,
                latency: 4,
                mshr_entries: 8,
            },
            // 32 KiB 8-way L1D. (An earlier revision used 42×12, which
            // matches the byte budget but is unindexable hardware — set
            // counts must be powers of two; see `CacheConfig::validate`.)
            CacheConfig {
                sets: 64,
                ways: 8,
                latency: 5,
                mshr_entries: 8,
            },
            &[
                CacheConfig {
                    sets: 1024,
                    ways: 8,
                    latency: 5,
                    mshr_entries: 32,
                },
                CacheConfig {
                    sets: 2048,
                    ways: 16,
                    latency: 10,
                    mshr_entries: 64,
                },
            ],
            DramConfig::default(),
        )
    }

    /// A 2-level variant of [`HierarchyConfig::asplos25`]: the LLC is
    /// removed and the L2C misses straight to DRAM.
    pub fn asplos25_no_llc() -> Self {
        let base = Self::asplos25();
        Self::new(base.l1i, base.l1d, &[*base.l2c()], base.dram)
    }

    /// A 4-level variant of [`HierarchyConfig::asplos25`]: a 1 MiB 8-way
    /// L3 (2048 sets, 8-cycle access, 48 MSHRs) sits between the L2C and
    /// the LLC.
    pub fn asplos25_deep() -> Self {
        let base = Self::asplos25();
        let l3 = CacheConfig {
            sets: 2048,
            ways: 8,
            latency: 8,
            mshr_entries: 48,
        };
        Self::new(
            base.l1i,
            base.l1d,
            &[*base.l2c(), l3, *base.last_level()],
            base.dram,
        )
    }

    /// The active shared levels, outermost (L2C) first.
    pub fn shared_levels(&self) -> &[CacheLevelConfig] {
        &self.shared[..self.depth]
    }

    /// Number of active shared levels (1 = no LLC, 2 = the paper's
    /// 3-level machine, 3 = 4-level chain).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The first shared level (the L2C, where xPTP operates).
    pub fn l2c(&self) -> &CacheConfig {
        &self.shared[0].cache
    }

    /// Mutable access to the L2C geometry.
    pub fn l2c_mut(&mut self) -> &mut CacheConfig {
        &mut self.shared[0].cache
    }

    /// The LLC geometry, if this chain has one (depth ≥ 2).
    pub fn llc(&self) -> Option<&CacheConfig> {
        // depth ≤ MAX_SHARED_LEVELS is a constructor invariant.
        (self.depth >= 2).then(|| &self.shared[self.depth - 1].cache)
    }

    /// Mutable access to the LLC geometry, if this chain has one.
    pub fn llc_mut(&mut self) -> Option<&mut CacheConfig> {
        // depth ≤ MAX_SHARED_LEVELS is a constructor invariant.
        (self.depth >= 2).then(|| &mut self.shared[self.depth - 1].cache)
    }

    /// The innermost shared level (the LLC, or the L2C of no-LLC chains).
    pub fn last_level(&self) -> &CacheConfig {
        // 1 ≤ depth ≤ MAX_SHARED_LEVELS is a constructor invariant.
        &self.shared[self.depth - 1].cache
    }
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        Self::asplos25()
    }
}

impl Fingerprint for HierarchyConfig {
    fn fingerprint(&self, h: &mut Fnv1a) {
        // Shared levels hash without a length prefix: the depth-2 stream
        // is byte-identical to the pre-chain four-field layout, keeping
        // existing simcache keys stable. Identities are implied by
        // position, and depth changes the stream length, so different
        // depths cannot collide with each other.
        self.l1i.fingerprint(h);
        self.l1d.fingerprint(h);
        for level in self.shared_levels() {
            level.cache.fingerprint(h);
        }
        self.dram.fingerprint(h);
    }
}

/// The replacement policy at each named level.
///
/// Interior levels of 4-level chains (the L3) are not part of the
/// paper's policy space and always run LRU; `llc` is unused by no-LLC
/// chains.
#[derive(Debug)]
pub struct HierarchyPolicies {
    /// L1I policy (LRU in every configuration the paper evaluates).
    pub l1i: CachePolicyEngine,
    /// L1D policy (LRU in every configuration the paper evaluates).
    pub l1d: CachePolicyEngine,
    /// L2C policy — LRU, PTP, T-DRRIP, or (adaptive) xPTP.
    pub l2: CachePolicyEngine,
    /// LLC policy — LRU, SHiP, or Mockingjay.
    pub llc: CachePolicyEngine,
}

/// Prefetchers attached to one level of the chain.
///
/// Hooks run for demand traffic at their level, after the access
/// completes (probe + fill): first the next-line prefetcher, then the
/// stride prefetcher. Default placement mirrors the paper's machine —
/// next-line at the L1D, stride at the L2C — but any level can carry
/// any hook via [`Hierarchy::set_hooks`].
#[derive(Debug, Default)]
pub struct LevelHooks {
    /// Next-line prefetcher (observes every demand access at the level).
    pub next_line: Option<NextLinePrefetcher>,
    /// PC-indexed stride prefetcher (observes demand data-payload
    /// accesses with a real PC).
    pub stride: Option<StridePrefetcher>,
}

impl LevelHooks {
    /// No prefetchers.
    pub fn none() -> Self {
        Self::default()
    }

    /// The paper's default hook placement for `id`: next-line at the
    /// L1D, stride at the L2C, nothing elsewhere.
    pub fn defaults_for(id: LevelId) -> Self {
        match id {
            LevelId::L1D => Self {
                next_line: Some(NextLinePrefetcher::new()),
                stride: None,
            },
            LevelId::L2C => Self {
                next_line: None,
                stride: Some(StridePrefetcher::default()),
            },
            _ => Self::none(),
        }
    }

    /// Total candidate blocks the next-line prefetcher has nominated.
    pub fn nominations(&self) -> u64 {
        self.next_line.as_ref().map_or(0, |p| p.nominated())
    }

    /// Zeroes hook counters (prefetcher training state is preserved).
    pub fn reset_stats(&mut self) {
        if let Some(p) = &mut self.next_line {
            p.reset_stats();
        }
    }
}

/// One level of the chain: identity, storage, link to the next-lower
/// level, and attached prefetchers.
#[derive(Debug)]
struct Level {
    id: LevelId,
    cache: Cache,
    /// Index of the next-lower level in `Hierarchy::levels`; `None`
    /// means this level misses to DRAM.
    next: Option<usize>,
    hooks: LevelHooks,
}

/// Index of the L1I entry level in `Hierarchy::levels`.
const L1I_INDEX: usize = 0;
/// Index of the L1D entry level.
const L1D_INDEX: usize = 1;
/// Index of the first shared level (the PTE entry point).
const SHARED_INDEX: usize = 2;

/// The full cache hierarchy plus DRAM.
#[derive(Debug)]
pub struct Hierarchy {
    /// Chain levels: `[L1I, L1D, shared...]`. Both L1s link to the
    /// first shared level; shared levels link downward in order.
    levels: Vec<Level>,
    dram: Dram,
    /// Writebacks absorbed by a lower level (dirty mark instead of a
    /// DRAM write). Together with `dram.writes()` this accounts for
    /// every writeback any level emitted.
    wb_absorbed: u64,
}

impl Hierarchy {
    /// Builds the hierarchy: both L1s in front of `cfg`'s shared chain.
    pub fn new(cfg: &HierarchyConfig, policies: HierarchyPolicies) -> Self {
        let HierarchyPolicies { l1i, l1d, l2, llc } = policies;
        let shared = cfg.shared_levels();
        let last = shared.len() - 1;
        let mut levels = Vec::with_capacity(2 + shared.len());
        levels.push(Level {
            id: LevelId::L1I,
            cache: Cache::new(cfg.l1i, l1i),
            next: Some(SHARED_INDEX),
            hooks: LevelHooks::defaults_for(LevelId::L1I),
        });
        levels.push(Level {
            id: LevelId::L1D,
            cache: Cache::new(cfg.l1d, l1d),
            next: Some(SHARED_INDEX),
            hooks: LevelHooks::defaults_for(LevelId::L1D),
        });
        // The named policies bind to the chain ends: `l2` to the first
        // shared level, `llc` to the last. The L3 of 4-level chains is
        // interior and runs LRU; no-LLC chains drop the LLC policy.
        let mut l2 = Some(l2);
        let mut llc = Some(llc);
        for (i, level) in shared.iter().enumerate() {
            let policy = if i == 0 {
                l2.take()
                    .unwrap_or_else(|| Lru::new(level.cache.sets, level.cache.ways).into())
            } else if i == last {
                llc.take()
                    .unwrap_or_else(|| Lru::new(level.cache.sets, level.cache.ways).into())
            } else {
                Lru::new(level.cache.sets, level.cache.ways).into()
            };
            levels.push(Level {
                id: level.id,
                cache: Cache::new(level.cache, policy),
                next: (i != last).then_some(SHARED_INDEX + i + 1),
                hooks: LevelHooks::defaults_for(level.id),
            });
        }
        Self {
            levels,
            dram: Dram::new(cfg.dram),
            wb_absorbed: 0,
        }
    }

    fn meta(
        pa: PhysAddr,
        pc: u64,
        fill: FillClass,
        stlb_miss: bool,
        thread: ThreadId,
    ) -> CacheMeta {
        CacheMeta {
            block: pa.block().index(),
            pc,
            fill,
            stlb_miss,
            thread,
            level: LevelId::entry_for(fill),
        }
    }

    /// Front-end instruction fetch of the block at `pa`.
    pub fn instr_fetch(&mut self, pa: PhysAddr, pc: u64, thread: ThreadId, now: Cycle) -> Cycle {
        let meta = Self::meta(pa, pc, FillClass::InstrPayload, false, thread);
        self.access_chain(L1I_INDEX, &meta, now, true)
    }

    /// FDIP-style instruction prefetch issued by the front end along the
    /// fetch target queue.
    pub fn prefetch_instr(&mut self, pa: PhysAddr, thread: ThreadId, now: Cycle) {
        let meta = Self::meta(pa, 0, FillClass::InstrPayload, false, thread);
        self.prefetch_into(L1I_INDEX, meta.block, &meta, now);
    }

    /// Data load/store to `pa`. `stlb_miss` flags an access whose
    /// translation missed the STLB (consumed by T-DRRIP).
    #[allow(clippy::too_many_arguments)]
    pub fn data_access(
        &mut self,
        pa: PhysAddr,
        pc: u64,
        thread: ThreadId,
        store: bool,
        stlb_miss: bool,
        now: Cycle,
    ) -> Cycle {
        let meta = Self::meta(pa, pc, FillClass::DataPayload, stlb_miss, thread);
        let done = self.access_chain(L1D_INDEX, &meta, now, true);
        if store {
            self.levels[L1D_INDEX].cache.mark_dirty(meta.block);
        }
        done
    }

    /// Page-walk reference to the PTE at `pa`, entering at the L2C.
    pub fn pte_access(
        &mut self,
        pa: PhysAddr,
        kind: TranslationKind,
        thread: ThreadId,
        now: Cycle,
    ) -> Cycle {
        let meta = Self::meta(pa, 0, FillClass::pte_for(kind), false, thread);
        self.access_chain(SHARED_INDEX, &meta, now, true)
    }

    /// [`Hierarchy::instr_fetch`] on a fast-forward's warm path.
    pub fn warm_fetch(&mut self, pa: PhysAddr, pc: u64, thread: ThreadId) {
        let meta = Self::meta(pa, pc, FillClass::InstrPayload, false, thread);
        self.warm_chain(L1I_INDEX, &meta);
    }

    /// [`Hierarchy::data_access`] on a fast-forward's warm path.
    pub fn warm_data(
        &mut self,
        pa: PhysAddr,
        pc: u64,
        thread: ThreadId,
        store: bool,
        stlb_miss: bool,
    ) {
        let meta = Self::meta(pa, pc, FillClass::DataPayload, stlb_miss, thread);
        self.warm_chain(L1D_INDEX, &meta);
        if store {
            self.levels[L1D_INDEX].cache.mark_dirty(meta.block);
        }
    }

    /// [`Hierarchy::pte_access`] on a fast-forward's warm path.
    pub fn warm_pte(&mut self, pa: PhysAddr, kind: TranslationKind, thread: ThreadId) {
        let meta = Self::meta(pa, 0, FillClass::pte_for(kind), false, thread);
        self.warm_chain(SHARED_INDEX, &meta);
    }

    /// The warm path's probe → miss-below → fill recursion: each level
    /// runs its policy's hooks as [`Hierarchy::access_chain`] does, and a
    /// displaced dirty block lands as a dirty mark in the first lower
    /// level holding it. Nothing is timed or counted, and no MSHR,
    /// in-flight fill, DRAM or prefetcher state changes.
    fn warm_chain(&mut self, idx: usize, meta: &CacheMeta) {
        let mut meta = *meta;
        meta.level = self.levels[idx].id;
        if self.levels[idx].cache.warm_probe(&meta) {
            return;
        }
        if let Some(next) = self.levels[idx].next {
            self.warm_chain(next, &meta);
        }
        if let Some(wb) = self.levels[idx].cache.warm_fill(&meta) {
            self.absorb_below(idx, wb.block);
        }
    }

    /// The settle step at the end of a fast-forward: every level forgets
    /// its in-flight fills and makes its lines readable at once.
    pub fn settle(&mut self) {
        self.levels.iter_mut().for_each(|l| l.cache.settle());
    }

    /// The one probe → miss-below → fill recursion every access class
    /// descends through. `now` is the cycle the access reaches this
    /// level; the level's demand hooks run against that same cycle.
    fn access_chain(&mut self, idx: usize, meta: &CacheMeta, now: Cycle, demand: bool) -> Cycle {
        let mut meta = *meta;
        meta.level = self.levels[idx].id;
        let done = match self.levels[idx].cache.probe(&meta, now, demand) {
            Probe::Hit(t) => t,
            Probe::Miss(start) => {
                let lower_start = start + self.levels[idx].cache.latency();
                let below = match self.levels[idx].next {
                    Some(next) => self.access_chain(next, &meta, lower_start, demand),
                    None => self.dram.read(lower_start),
                };
                // Only strictly-lower levels ran since the probe missed.
                let wb = self.levels[idx]
                    .cache
                    .fill_miss(&meta, start, below, demand);
                self.route_writeback(idx, wb, below);
                below
            }
        };
        if demand {
            self.run_hooks(idx, &meta, now);
        }
        done
    }

    /// Routes a displaced dirty block from level `idx`: the first
    /// strictly-lower level holding the block absorbs it as a dirty
    /// mark; otherwise it becomes a DRAM write at cycle `at`.
    fn route_writeback(&mut self, from: usize, wb: Option<Writeback>, at: Cycle) {
        let Some(wb) = wb else { return };
        if self.absorb_below(from, wb.block) {
            self.wb_absorbed += 1;
        } else {
            self.dram.write(at);
        }
    }

    /// Marks `block` dirty in the first strictly-lower level than `from`
    /// holding it; returns whether one did.
    fn absorb_below(&mut self, from: usize, block: u64) -> bool {
        let mut next = self.levels[from].next;
        while let Some(idx) = next {
            if self.levels[idx].cache.mark_dirty(block) {
                return true;
            }
            next = self.levels[idx].next;
        }
        false
    }

    /// Prefetches `block` into level `idx` (no-op when already
    /// resident), reusing the demand access's PC and thread so
    /// PC-trained policies below see the triggering instruction.
    fn prefetch_into(&mut self, idx: usize, block: u64, demand: &CacheMeta, now: Cycle) {
        if self.levels[idx].cache.contains(block) {
            return;
        }
        let fill = if self.levels[idx].id == LevelId::L1I {
            FillClass::InstrPayload
        } else {
            FillClass::DataPayload
        };
        let meta = CacheMeta {
            block,
            pc: demand.pc,
            fill,
            stlb_miss: false,
            thread: demand.thread,
            level: self.levels[idx].id,
        };
        let below = match self.levels[idx].next {
            Some(next) => self.access_chain(next, &meta, now, false),
            None => self.dram.read(now),
        };
        // Absent at the check above, and only strictly-lower levels ran
        // since.
        let wb = self.levels[idx].cache.fill_miss(&meta, now, below, false);
        // Private-level prefetch writebacks route at the issue cycle;
        // shared-level ones route when the line arrives.
        let at = if self.levels[idx].id.is_private() {
            now
        } else {
            below
        };
        self.route_writeback(idx, wb, at);
    }

    /// Runs level `idx`'s prefetch hooks against a demand access.
    /// Reentrancy-safe: prefetches descend with `demand == false`, so a
    /// hook can never re-trigger hooks (its own or a lower level's).
    fn run_hooks(&mut self, idx: usize, meta: &CacheMeta, now: Cycle) {
        let mut hooks = std::mem::take(&mut self.levels[idx].hooks);
        if let Some(next_line) = &mut hooks.next_line {
            if let Some(cand) = next_line.observe(meta.block) {
                self.prefetch_into(idx, cand, meta, now);
            }
        }
        if let Some(stride) = &mut hooks.stride {
            if meta.fill == FillClass::DataPayload && meta.pc != 0 {
                for cand in stride.observe(meta.pc, meta.block) {
                    self.prefetch_into(idx, cand, meta, now);
                }
            }
        }
        self.levels[idx].hooks = hooks;
    }

    /// The cache at level `id`, if this chain has one.
    pub fn cache(&self, id: LevelId) -> Option<&Cache> {
        self.levels.iter().find(|l| l.id == id).map(|l| &l.cache)
    }

    /// Iterates the chain's levels in order (L1I, L1D, then shared
    /// levels outermost-first).
    pub fn levels(&self) -> impl Iterator<Item = (LevelId, &Cache)> + '_ {
        self.levels.iter().map(|l| (l.id, &l.cache))
    }

    /// Statistics of level `id`; empty stats when the chain has no such
    /// level (e.g. the LLC of a no-LLC chain).
    pub fn stats_of(&self, id: LevelId) -> StructStats {
        self.cache(id)
            .map(|c| c.stats().clone())
            .unwrap_or_default()
    }

    /// The prefetch hooks attached to level `id`.
    pub fn hooks(&self, id: LevelId) -> Option<&LevelHooks> {
        self.levels.iter().find(|l| l.id == id).map(|l| &l.hooks)
    }

    /// Replaces the prefetch hooks of level `id`; returns `false` (and
    /// drops `hooks`) when the chain has no such level.
    pub fn set_hooks(&mut self, id: LevelId, hooks: LevelHooks) -> bool {
        match self.levels.iter_mut().find(|l| l.id == id) {
            Some(level) => {
                level.hooks = hooks;
                true
            }
            None => false,
        }
    }

    /// Total candidate blocks nominated by next-line prefetch hooks
    /// across the chain.
    pub fn prefetch_nominations(&self) -> u64 {
        self.levels.iter().map(|l| l.hooks.nominations()).sum()
    }

    /// Writebacks absorbed by a lower chain level instead of DRAM.
    pub fn writebacks_absorbed(&self) -> u64 {
        self.wb_absorbed
    }

    /// The DRAM device.
    pub fn dram(&self) -> &Dram {
        &self.dram
    }

    /// Zeroes every counter in the chain — per-level cache stats
    /// (including prefetch issued/useful), hook nomination counts, the
    /// writeback-absorption counter, and DRAM counters. Cache contents,
    /// policy state, and prefetcher training state are preserved.
    pub fn reset_stats(&mut self) {
        for level in &mut self.levels {
            level.cache.reset_stats();
            level.hooks.reset_stats();
        }
        self.dram.reset_stats();
        self.wb_absorbed = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itpx_policy::Lru;

    fn small() -> HierarchyConfig {
        HierarchyConfig::new(
            CacheConfig {
                sets: 8,
                ways: 2,
                latency: 4,
                mshr_entries: 8,
            },
            CacheConfig {
                sets: 8,
                ways: 2,
                latency: 5,
                mshr_entries: 8,
            },
            &[
                CacheConfig {
                    sets: 32,
                    ways: 4,
                    latency: 5,
                    mshr_entries: 16,
                },
                CacheConfig {
                    sets: 64,
                    ways: 8,
                    latency: 10,
                    mshr_entries: 32,
                },
            ],
            DramConfig::default(),
        )
    }

    fn hierarchy(cfg: &HierarchyConfig) -> Hierarchy {
        Hierarchy::new(
            cfg,
            HierarchyPolicies {
                l1i: Lru::new(cfg.l1i.sets, cfg.l1i.ways).into(),
                l1d: Lru::new(cfg.l1d.sets, cfg.l1d.ways).into(),
                l2: Lru::new(cfg.l2c().sets, cfg.l2c().ways).into(),
                llc: Lru::new(cfg.last_level().sets, cfg.last_level().ways).into(),
            },
        )
    }

    fn cache(h: &Hierarchy, id: LevelId) -> &Cache {
        h.cache(id).expect("chain has this level")
    }

    #[test]
    fn cold_fetch_goes_to_dram_and_warms_all_levels() {
        let cfg = small();
        let mut h = hierarchy(&cfg);
        let pa = PhysAddr::new(0x4000);
        let t = h.instr_fetch(pa, 0x400, ThreadId(0), 0);
        // L1I lat 4 + L2 lat 5 + LLC lat 10 + DRAM 90 = 109.
        assert_eq!(t, 109);
        // Warm everywhere now.
        let t2 = h.instr_fetch(pa, 0x400, ThreadId(0), 200);
        assert_eq!(t2, 204);
        assert_eq!(cache(&h, LevelId::L1I).stats().misses(), 1);
        assert_eq!(cache(&h, LevelId::L2C).stats().misses(), 1);
        assert_eq!(cache(&h, LevelId::Llc).stats().misses(), 1);
        assert_eq!(h.dram().reads(), 1);
    }

    #[test]
    fn l2_hit_short_circuits() {
        let cfg = small();
        let mut h = hierarchy(&cfg);
        let pa = PhysAddr::new(0x8000);
        h.pte_access(pa, TranslationKind::Data, ThreadId(0), 0);
        // Same block via the data path: L1D miss, L2 hit.
        let t = h.data_access(pa, 0x99, ThreadId(0), false, false, 1000);
        assert_eq!(t, 1000 + 5 + 5);
        // The only *demand* L2 miss is the cold PTE access (the data access
        // also spawned a next-line prefetch, which does not count).
        assert_eq!(cache(&h, LevelId::L2C).stats().misses(), 1);
    }

    #[test]
    fn pte_accesses_carry_their_class_into_l2_stats() {
        let cfg = small();
        let mut h = hierarchy(&cfg);
        h.pte_access(PhysAddr::new(0x100), TranslationKind::Data, ThreadId(0), 0);
        h.pte_access(
            PhysAddr::new(0x10000),
            TranslationKind::Instruction,
            ThreadId(0),
            0,
        );
        let b = cache(&h, LevelId::L2C).stats().mpki_breakdown(1000);
        assert!(b.data_pte > 0.0);
        assert!(b.instr_pte > 0.0);
        assert_eq!(b.data, 0.0);
    }

    #[test]
    fn next_line_prefetch_warms_l1d() {
        let cfg = small();
        let mut h = hierarchy(&cfg);
        let pa = PhysAddr::new(0);
        h.data_access(pa, 0x10, ThreadId(0), false, false, 0);
        // Block 1 was prefetched; a demand access to it hits in L1D.
        let t = h.data_access(PhysAddr::new(64), 0x10, ThreadId(0), false, false, 500);
        assert_eq!(t, 505);
        assert!(cache(&h, LevelId::L1D).prefetches_issued() >= 1);
        assert_eq!(cache(&h, LevelId::L1D).prefetches_useful(), 1);
    }

    #[test]
    fn stores_mark_dirty_and_eventually_write_back() {
        let cfg = small();
        let mut h = hierarchy(&cfg);
        // Store to a block, then displace it with 2 more blocks in its set.
        let set_stride = 64 * cfg.l1d.sets as u64;
        h.data_access(PhysAddr::new(0), 0x30, ThreadId(0), true, false, 0);
        let wb_before = cache(&h, LevelId::L1D).writebacks();
        for i in 1..=2 {
            h.data_access(
                PhysAddr::new(i * set_stride),
                0x30 + i,
                ThreadId(0),
                false,
                false,
                1000 * i,
            );
        }
        assert!(
            cache(&h, LevelId::L1D).writebacks() > wb_before,
            "dirty block displaced"
        );
    }

    #[test]
    fn fdip_prefetch_is_idempotent_for_resident_blocks() {
        let cfg = small();
        let mut h = hierarchy(&cfg);
        let pa = PhysAddr::new(0x2000);
        h.prefetch_instr(pa, ThreadId(0), 0);
        let issued = cache(&h, LevelId::L1I).prefetches_issued();
        h.prefetch_instr(pa, ThreadId(0), 10);
        assert_eq!(cache(&h, LevelId::L1I).prefetches_issued(), issued);
        // Demand fetch hits the prefetched block.
        let t = h.instr_fetch(pa, 0x1, ThreadId(0), 500);
        assert_eq!(t, 504);
    }

    #[test]
    fn smt_threads_share_capacity() {
        let cfg = small();
        let mut h = hierarchy(&cfg);
        let pa = PhysAddr::new(0x7000);
        h.data_access(pa, 0x1, ThreadId(0), false, false, 0);
        // The other thread hits the block thread 0 brought in.
        let t = h.data_access(pa, 0x2, ThreadId(1), false, false, 500);
        assert_eq!(t, 505);
    }

    fn small_shared(depth: usize) -> HierarchyConfig {
        let base = small();
        let l3 = CacheConfig {
            sets: 64,
            ways: 4,
            latency: 8,
            mshr_entries: 16,
        };
        let shared: &[CacheConfig] = match depth {
            1 => &[*base.l2c()],
            2 => &[*base.l2c(), *base.last_level()],
            _ => &[*base.l2c(), l3, *base.last_level()],
        };
        HierarchyConfig::new(base.l1i, base.l1d, shared, base.dram)
    }

    #[test]
    fn no_llc_chain_misses_straight_to_dram() {
        let cfg = small_shared(1);
        assert!(cfg.llc().is_none());
        let mut h = hierarchy(&cfg);
        assert!(h.cache(LevelId::Llc).is_none());
        let t = h.instr_fetch(PhysAddr::new(0x4000), 0x400, ThreadId(0), 0);
        // L1I lat 4 + L2 lat 5 + DRAM 90 = 99: no LLC latency in the path.
        assert_eq!(t, 99);
        assert_eq!(h.dram().reads(), 1);
    }

    #[test]
    fn four_level_chain_adds_one_hop() {
        let cfg = small_shared(3);
        let mut h = hierarchy(&cfg);
        let t = h.instr_fetch(PhysAddr::new(0x4000), 0x400, ThreadId(0), 0);
        // L1I 4 + L2 5 + L3 8 + LLC 10 + DRAM 90 = 117.
        assert_eq!(t, 117);
        assert_eq!(cache(&h, LevelId::L3).stats().misses(), 1);
        // Warm fetch never leaves the L1I.
        assert_eq!(
            h.instr_fetch(PhysAddr::new(0x4000), 0x400, ThreadId(0), 500),
            504
        );
    }

    #[test]
    fn depth_changes_the_fingerprint() {
        let three = small_shared(2).fingerprint_u64();
        assert_ne!(small_shared(1).fingerprint_u64(), three);
        assert_ne!(small_shared(3).fingerprint_u64(), three);
        assert_eq!(small().fingerprint_u64(), three);
    }

    #[test]
    fn writeback_absorption_is_counted() {
        let cfg = small();
        let mut h = hierarchy(&cfg);
        let set_stride = 64 * cfg.l1d.sets as u64;
        // Dirty a block, displace it from the L1D while it is still
        // resident in the L2/LLC: the writeback must be absorbed below.
        h.data_access(PhysAddr::new(0), 0x30, ThreadId(0), true, false, 0);
        for i in 1..=2 {
            h.data_access(
                PhysAddr::new(i * set_stride),
                0x30 + i,
                ThreadId(0),
                false,
                false,
                1000 * i,
            );
        }
        assert!(cache(&h, LevelId::L1D).writebacks() >= 1);
        assert!(h.writebacks_absorbed() >= 1);
        assert_eq!(h.dram().writes(), 0);
    }
}
