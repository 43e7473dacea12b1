//! The structural model: TLBs, page tables, walker, caches, and the
//! iTP+xPTP cooperative plumbing of the paper's Figure 7.

use crate::config::SystemConfig;
use itpx_core::presets::PolicyBundle;
use itpx_core::StlbPressureMonitor;
use itpx_mem::{Hierarchy, HierarchyPolicies};
use itpx_policy::Lru;
use itpx_types::{Asid, Cycle, PhysAddr, ThreadId, TranslationKind, VirtAddr};
use itpx_vm::address_space::AddressSpace;
use itpx_vm::path::TranslationPath;
use itpx_vm::psc::SplitPscs;
use itpx_vm::tlb::{LastLevelTlb, Tlb, TlbConfig};
use itpx_vm::walker::{PageWalker, PteMemory};

/// Result of a full translation: physical address, availability cycle, and
/// whether the STLB missed (the flag T-DRRIP consumes, Figure 7 step 2).
pub type Translated = itpx_vm::path::PathResult;

/// Adapter giving the walker its L2C window (Figure 7 step 3).
#[derive(Debug)]
struct WalkMemory<'a> {
    hierarchy: &'a mut Hierarchy,
    thread: ThreadId,
}

impl PteMemory for WalkMemory<'_> {
    fn pte_access(&mut self, pa: PhysAddr, kind: TranslationKind, now: Cycle) -> Cycle {
        self.hierarchy.pte_access(pa, kind, self.thread, now)
    }
}

/// The simulated machine: every structure of Table 1, wired per Figure 7.
#[derive(Debug)]
pub struct System {
    /// Configuration the system was built with.
    pub config: SystemConfig,
    /// The translation half (crate-visible: a fast-forward borrows it
    /// apart from the hierarchy to run the two on different threads).
    pub(crate) mmu: Mmu,
    /// The cache hierarchy (public: the engine issues fetches/accesses).
    pub hierarchy: Hierarchy,
    monitor: Option<StlbPressureMonitor>,
}

/// The machine's translation half: the TLB → STLB → walk pipeline and
/// the per-thread address spaces it walks. On the warm path it reads
/// nothing the cache hierarchy holds: a warm walk's PTE references go
/// out as [`WarmRef`]s and nothing comes back.
#[derive(Debug)]
pub(crate) struct Mmu {
    path: TranslationPath,
    spaces: Vec<AddressSpace>,
}

/// A cache-hierarchy reference of the warm path, in the order the
/// translation half issues it; [`WarmRef::apply`] is the hierarchy half.
#[derive(Debug, Clone, Copy)]
pub(crate) enum WarmRef {
    /// A page-walk reference to the PTE at `pa`.
    Pte { pa: PhysAddr, kind: TranslationKind },
    /// An instruction fetch of the block at `pa`.
    Fetch { pa: PhysAddr, pc: u64 },
    /// A load or store to `pa` by the instruction at `pc`.
    Data {
        pa: PhysAddr,
        pc: u64,
        store: bool,
        stlb_miss: bool,
    },
}

impl WarmRef {
    /// Runs the reference through `hierarchy`'s warm chain for `thread`.
    pub(crate) fn apply(self, hierarchy: &mut Hierarchy, thread: ThreadId) {
        match self {
            WarmRef::Pte { pa, kind } => hierarchy.warm_pte(pa, kind, thread),
            WarmRef::Fetch { pa, pc } => hierarchy.warm_fetch(pa, pc, thread),
            WarmRef::Data {
                pa,
                pc,
                store,
                stlb_miss,
            } => hierarchy.warm_data(pa, pc, thread, store, stlb_miss),
        }
    }
}

impl Mmu {
    /// See [`System::context_switch`].
    pub(crate) fn context_switch(&mut self, asid: Asid, flush: bool) {
        if flush {
            self.path.flush_asid(asid);
        }
        self.path.set_current_asid(asid);
        self.spaces[0].switch_to(asid);
    }

    /// See [`System::shootdown`].
    pub(crate) fn shootdown(&mut self, va: VirtAddr, asid: Asid) {
        self.path.invalidate_page(va, asid);
    }

    /// See [`System::churn_region`].
    pub(crate) fn churn_region(&mut self, thread: ThreadId, region_vpn2m: u64) -> Option<bool> {
        let flipped = self.spaces[thread.0 as usize].churn_region(region_vpn2m);
        if flipped.is_some() {
            self.path.invalidate_region(region_vpn2m);
        }
        flipped
    }

    /// The translation half of [`System::warm_fetch`]: emits the walk's
    /// PTE references, then the fetch.
    pub(crate) fn warm_fetch(
        &mut self,
        va: VirtAddr,
        thread: ThreadId,
        mut emit: impl FnMut(WarmRef),
    ) {
        let pc = va.0;
        let (pa, _) = self.warm_translate(va, TranslationKind::Instruction, pc, thread, &mut emit);
        emit(WarmRef::Fetch { pa, pc });
    }

    /// The translation half of [`System::warm_data`]: emits the walk's
    /// PTE references, then the access.
    pub(crate) fn warm_data(
        &mut self,
        va: VirtAddr,
        pc: u64,
        thread: ThreadId,
        store: bool,
        mut emit: impl FnMut(WarmRef),
    ) {
        let (pa, stlb_miss) = self.warm_translate(va, TranslationKind::Data, pc, thread, &mut emit);
        emit(WarmRef::Data {
            pa,
            pc,
            store,
            stlb_miss,
        });
    }

    fn warm_translate(
        &mut self,
        va: VirtAddr,
        kind: TranslationKind,
        pc: u64,
        thread: ThreadId,
        emit: &mut impl FnMut(WarmRef),
    ) -> (PhysAddr, bool) {
        self.path.warm_translate(
            &mut self.spaces[thread.0 as usize],
            |pa| emit(WarmRef::Pte { pa, kind }),
            va,
            kind,
            pc,
            thread,
        )
    }
}

impl System {
    /// Builds the machine for `threads` hardware threads using the policy
    /// objects of `bundle`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or `threads` is not 1 or 2.
    pub fn new(config: SystemConfig, bundle: PolicyBundle, threads: usize) -> Self {
        config.validate();
        assert!((1..=2).contains(&threads), "1 or 2 hardware threads");
        let PolicyBundle {
            stlb: stlb_policy,
            l2c,
            llc,
            monitor,
        } = bundle;
        let stlb = if config.split_stlb {
            // Section 6.6: split designs use LRU on each half (the paper
            // pairs iTP+xPTP only with unified STLBs).
            let half = TlbConfig {
                sets: config.stlb.sets / 2,
                ..config.stlb
            };
            LastLevelTlb::Split {
                instr: Tlb::new(half, Lru::new(half.sets, half.ways)),
                data: Tlb::new(half, Lru::new(half.sets, half.ways)),
            }
        } else {
            LastLevelTlb::Unified(Tlb::new(config.stlb, stlb_policy))
        };
        let hierarchy = Hierarchy::new(
            &config.hierarchy,
            HierarchyPolicies {
                l1i: Lru::new(config.hierarchy.l1i.sets, config.hierarchy.l1i.ways).into(),
                l1d: Lru::new(config.hierarchy.l1d.sets, config.hierarchy.l1d.ways).into(),
                l2: l2c,
                llc,
            },
        );
        let spaces = (0..threads)
            .map(|t| {
                AddressSpace::single(
                    config.huge_pages,
                    config.seed ^ (t as u64).wrapping_mul(0x1234_5677),
                    (t as u64) << 44,
                )
            })
            .collect();
        let path = TranslationPath::new(
            Tlb::new(config.itlb, Lru::new(config.itlb.sets, config.itlb.ways)),
            Tlb::new(config.dtlb, Lru::new(config.dtlb.sets, config.dtlb.ways)),
            stlb,
            SplitPscs::asplos25(),
            PageWalker::new(config.walker_concurrency),
        );
        Self {
            mmu: Mmu { path, spaces },
            hierarchy,
            monitor,
            config,
        }
    }

    /// Reconfigures thread 0's address space for a multi-tenant run:
    /// `tenants` per-ASID page tables (tenant 0 keeps the exact tables a
    /// single-tenant build would get) plus an optional shared global
    /// table. Call once after construction, before any traffic.
    ///
    /// # Panics
    ///
    /// Panics on SMT configurations — consolidation scenarios schedule
    /// tenants over one hardware thread — or after traffic has touched
    /// the address space.
    pub fn configure_address_spaces(
        &mut self,
        tenants: usize,
        global_fraction: f64,
        global_seed: u64,
    ) {
        let spaces = &mut self.mmu.spaces;
        assert_eq!(
            spaces.len(),
            1,
            "multi-tenant scheduling requires a single hardware thread"
        );
        assert_eq!(
            spaces[0].table().mapped_4k_pages(),
            0,
            "configure address spaces before any traffic"
        );
        spaces[0] = AddressSpace::multi(
            tenants,
            self.config.huge_pages,
            self.config.seed,
            0,
            global_fraction,
            global_seed,
        );
    }

    /// Switches thread 0 to tenant `asid`: retargets every TLB level's
    /// current-ASID register and the address space. With `flush`, the
    /// incoming tenant's stale entries (TLBs and PSC namespaces) are
    /// invalidated first, so it restarts translation cold — the
    /// `SwitchPolicy::FlushAsid` behavior; without it, tagged entries
    /// survive across quanta.
    pub fn context_switch(&mut self, asid: Asid, flush: bool) {
        self.mmu.context_switch(asid, flush);
    }

    /// Targeted TLB shootdown: invalidates `va`'s translation under
    /// `asid` in every TLB level (PSC interior nodes survive — see
    /// `TranslationPath::invalidate_page`).
    pub fn shootdown(&mut self, va: VirtAddr, asid: Asid) {
        self.mmu.shootdown(va, asid);
    }

    /// Huge-page promotion/demotion churn: flips the current tenant's
    /// mapping granularity for a 2 MiB region and invalidates the
    /// region's TLB entries. Returns the new huge state, or `None` if the
    /// region is globally mapped (globals stay stable).
    pub fn churn_region(&mut self, thread: ThreadId, region_vpn2m: u64) -> Option<bool> {
        self.mmu.churn_region(thread, region_vpn2m)
    }

    /// Translates `va` for `thread`, modeling the full ITLB/DTLB → STLB →
    /// page-walk path with all timing side effects.
    pub fn translate(
        &mut self,
        va: VirtAddr,
        kind: TranslationKind,
        pc: u64,
        thread: ThreadId,
        now: Cycle,
    ) -> Translated {
        let Mmu { path, spaces } = &mut self.mmu;
        let result = path.translate(
            &mut spaces[thread.0 as usize],
            WalkMemory {
                hierarchy: &mut self.hierarchy,
                thread,
            },
            va,
            kind,
            pc,
            thread,
            now,
        );
        // Figure 7 step 5: STLB misses feed the adaptive monitor.
        if result.stlb_miss {
            if let Some(m) = self.monitor.as_mut() {
                m.on_stlb_miss();
            }
        }
        result
    }

    /// FDIP translation for an instruction prefetch: resolves the physical
    /// block functionally (the FTQ caches physical fetch addresses) without
    /// touching TLB state, so demand fetches still expose every ITLB/STLB
    /// miss — the bottleneck the paper targets.
    pub fn fdip_target(&mut self, va: VirtAddr, thread: ThreadId) -> PhysAddr {
        self.mmu.spaces[thread.0 as usize]
            .translate(va, TranslationKind::Instruction)
            .pa
    }

    /// Reports `n` retired instructions to the adaptive monitor
    /// (Figure 7 step 5).
    pub fn on_retire(&mut self, n: u64) {
        if let Some(m) = self.monitor.as_mut() {
            m.on_retire(n);
        }
    }

    /// Fraction of epochs with xPTP enabled, if the adaptive monitor runs.
    pub fn xptp_enabled_fraction(&self) -> Option<f64> {
        self.monitor.as_ref().map(|m| m.enabled_fraction())
    }

    /// The first-level instruction TLB.
    pub fn itlb(&self) -> &Tlb {
        self.mmu.path.itlb()
    }

    /// The first-level data TLB.
    pub fn dtlb(&self) -> &Tlb {
        self.mmu.path.dtlb()
    }

    /// The last-level TLB organization.
    pub fn stlb(&self) -> &LastLevelTlb {
        self.mmu.path.stlb()
    }

    /// The page-table walker.
    pub fn walker(&self) -> &PageWalker {
        self.mmu.path.walker()
    }

    /// The split page-structure caches.
    pub fn pscs(&self) -> &SplitPscs {
        self.mmu.path.pscs()
    }

    /// A fast-forward's warm fetch of the code block at `va`: the
    /// translation and the L1I access go through every structure and
    /// policy hook a real fetch does, with the real PC and thread, but
    /// no time passes and no statistic, MSHR, in-flight fill, DRAM,
    /// walk-register, prefetcher or adaptive-monitor state changes.
    /// Entries it installs are usable at once.
    ///
    /// The two halves run back to back here; the engine's fast-forward
    /// runs the same halves on two threads.
    pub fn warm_fetch(&mut self, va: VirtAddr, thread: ThreadId) {
        let Self { mmu, hierarchy, .. } = self;
        mmu.warm_fetch(va, thread, |r| r.apply(hierarchy, thread));
    }

    /// A fast-forward's warm load or store to `va` by the instruction at
    /// `pc`; see [`System::warm_fetch`]. A store dirties its L1D block.
    pub fn warm_data(&mut self, va: VirtAddr, pc: u64, thread: ThreadId, store: bool) {
        let Self { mmu, hierarchy, .. } = self;
        mmu.warm_data(va, pc, thread, store, |r| r.apply(hierarchy, thread));
    }

    /// The settle step at the edge of a fast-forward: drops every
    /// in-flight TLB miss and cache fill and makes every resident entry
    /// usable at once, so the next window starts with no work left from
    /// the previous one.
    pub fn settle(&mut self) {
        self.mmu.path.settle();
        self.hierarchy.settle();
    }

    /// Clears every statistic (warmup/measurement boundary); structure
    /// contents and replacement state are preserved. Both halves iterate
    /// their own structures — the translation path its pipeline, the
    /// hierarchy its level chain — so new levels are covered for free.
    pub fn reset_stats(&mut self) {
        self.mmu.path.reset_stats();
        self.hierarchy.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itpx_core::presets::BuildConfig;
    use itpx_core::Preset;
    use itpx_types::LevelId;

    fn system(preset: Preset) -> System {
        let cfg = SystemConfig::asplos25();
        let bundle = preset.build(&cfg.dims(), &BuildConfig::default());
        System::new(cfg, bundle, 1)
    }

    #[test]
    fn cold_translation_walks_and_fills_tlbs() {
        let mut s = system(Preset::Lru);
        let va = VirtAddr::new(0x10_0000_1000);
        let t0 = s.translate(va, TranslationKind::Instruction, va.0, ThreadId(0), 0);
        assert!(t0.stlb_miss);
        assert!(t0.done > 50, "cold walk takes real time: {}", t0.done);
        assert_eq!(s.walker().walks(), 1);
        assert_eq!(s.walker().instruction_walks(), 1);
        // Second access: ITLB hit, 1 cycle.
        let t1 = s.translate(va, TranslationKind::Instruction, va.0, ThreadId(0), 1000);
        assert!(!t1.stlb_miss);
        assert_eq!(t1.done, 1001);
        assert_eq!(t1.pa, t0.pa);
    }

    #[test]
    fn stlb_catches_itlb_capacity_misses() {
        let mut s = system(Preset::Lru);
        // Touch 65 instruction pages in the same ITLB set region to push
        // the first one out of the 64-entry ITLB but keep it in the STLB.
        let base = 0x10_0000_0000u64;
        for i in 0..80u64 {
            let va = VirtAddr::new(base + i * 4096);
            s.translate(
                va,
                TranslationKind::Instruction,
                va.0,
                ThreadId(0),
                i * 10_000,
            );
        }
        let walks_before = s.walker().walks();
        let t = s.translate(
            VirtAddr::new(base),
            TranslationKind::Instruction,
            base,
            ThreadId(0),
            10_000_000,
        );
        assert!(!t.stlb_miss, "STLB should hold the entry");
        assert_eq!(s.walker().walks(), walks_before, "no extra walk");
    }

    #[test]
    fn page_walk_traffic_reaches_l2() {
        let mut s = system(Preset::Lru);
        let va = VirtAddr::new(0x20_0000_0000);
        s.translate(va, TranslationKind::Data, 0x99, ThreadId(0), 0);
        let b = s.hierarchy.stats_of(LevelId::L2C).mpki_breakdown(1000);
        assert!(
            b.data_pte > 0.0,
            "walk refs must appear as L2 data-PTE traffic"
        );
    }

    #[test]
    fn smt_threads_have_disjoint_address_spaces() {
        let cfg = SystemConfig::asplos25();
        let bundle = Preset::Lru.build(&cfg.dims(), &BuildConfig::default());
        let mut s = System::new(cfg, bundle, 2);
        let va = VirtAddr::new(0x10_0000_0000);
        let a = s.translate(va, TranslationKind::Data, 0, ThreadId(0), 0);
        let b = s.translate(
            VirtAddr::new(va.0 | 1 << 44),
            TranslationKind::Data,
            0,
            ThreadId(1),
            0,
        );
        assert_ne!(a.pa, b.pa, "threads must not share frames");
    }

    #[test]
    fn monitor_is_fed_by_stlb_misses() {
        let mut s = system(Preset::ItpXptp);
        assert_eq!(s.xptp_enabled_fraction(), Some(0.0));
        for i in 0..64u64 {
            let va = VirtAddr::new(0x20_0000_0000 + i * (1 << 21));
            s.translate(va, TranslationKind::Data, 0, ThreadId(0), i * 1000);
        }
        s.on_retire(1000);
        assert!(s.xptp_enabled_fraction().unwrap() > 0.0);
    }

    #[test]
    fn warm_entries_are_usable_at_once_and_count_nothing() {
        let mut s = system(Preset::Lru);
        let va = VirtAddr::new(0x20_0000_1000);
        s.warm_data(va, 0x40, ThreadId(0), false);
        s.settle();
        assert_eq!(s.walker().walks(), 0, "the warm walk is not counted");
        assert_eq!(s.dtlb().stats().accesses(), 0);
        let t = s.translate(va, TranslationKind::Data, 0x40, ThreadId(0), 0);
        assert!(!t.stlb_miss);
        assert_eq!(t.done, 1, "a DTLB hit at its lookup latency, at cycle 0");
        let done = s
            .hierarchy
            .data_access(t.pa, 0x40, ThreadId(0), false, false, 0);
        assert_eq!(done, 5, "an L1D hit at its lookup latency");
    }

    #[test]
    fn split_stlb_builds_and_routes() {
        let cfg = SystemConfig::asplos25().with_split_stlb(true);
        let bundle = Preset::Lru.build(&cfg.dims(), &BuildConfig::default());
        let mut s = System::new(cfg, bundle, 1);
        let va = VirtAddr::new(0x10_0000_2000);
        s.translate(va, TranslationKind::Instruction, va.0, ThreadId(0), 0);
        match s.stlb() {
            LastLevelTlb::Split { instr, data } => {
                assert_eq!(instr.stats().accesses(), 1);
                assert_eq!(data.stats().accesses(), 0);
            }
            _ => panic!("expected split"),
        }
    }

    #[test]
    fn merged_misses_share_the_walk() {
        let mut s = system(Preset::Lru);
        let va = VirtAddr::new(0x30_0000_0000);
        let first = s.translate(va, TranslationKind::Data, 0, ThreadId(0), 0);
        // Different VA on the same page while the walk is in flight: the
        // DTLB MSHR merge returns the same completion.
        let second = s.translate(
            VirtAddr::new(va.0 + 8),
            TranslationKind::Data,
            0,
            ThreadId(0),
            2,
        );
        assert_eq!(second.done, first.done);
        assert_eq!(s.walker().walks(), 1, "no duplicate walk");
    }

    #[test]
    fn flushing_context_switch_restarts_the_tenant_cold() {
        let mut s = system(Preset::Lru);
        s.configure_address_spaces(2, 0.0, 0);
        let va = VirtAddr::new(0x10_0000_1000);
        s.translate(va, TranslationKind::Data, 0, ThreadId(0), 0);
        assert_eq!(s.walker().walks(), 1);
        // Preserving switch away and back: tenant 0's entry survives.
        s.context_switch(Asid(1), false);
        s.context_switch(Asid(0), false);
        s.translate(va, TranslationKind::Data, 0, ThreadId(0), 1_000_000);
        assert_eq!(s.walker().walks(), 1, "tagged entry survived the switch");
        // Flushing switch back in: the entry is gone, the walk repeats.
        s.context_switch(Asid(1), true);
        s.context_switch(Asid(0), true);
        s.translate(va, TranslationKind::Data, 0, ThreadId(0), 2_000_000);
        assert_eq!(s.walker().walks(), 2, "flush restarted translation cold");
    }

    #[test]
    fn tenants_translate_the_same_va_to_different_frames() {
        let mut s = system(Preset::Lru);
        s.configure_address_spaces(2, 0.0, 0);
        let va = VirtAddr::new(0x10_0000_1000);
        let a = s.translate(va, TranslationKind::Data, 0, ThreadId(0), 0);
        s.context_switch(Asid(1), false);
        let b = s.translate(va, TranslationKind::Data, 0, ThreadId(0), 1_000_000);
        assert_ne!(a.pa, b.pa, "tenants must not share frames");
        assert_eq!(s.walker().walks(), 2, "tenant 1 cannot hit tenant 0's tag");
    }

    #[test]
    fn shootdown_forces_a_rewalk_of_exactly_that_page() {
        let mut s = system(Preset::Lru);
        s.configure_address_spaces(2, 0.0, 0);
        let hit = VirtAddr::new(0x10_0000_1000);
        let shot = VirtAddr::new(0x10_0040_2000);
        s.translate(hit, TranslationKind::Data, 0, ThreadId(0), 0);
        s.translate(shot, TranslationKind::Data, 0, ThreadId(0), 1_000_000);
        assert_eq!(s.walker().walks(), 2);
        s.shootdown(shot, Asid(0));
        s.translate(hit, TranslationKind::Data, 0, ThreadId(0), 2_000_000);
        assert_eq!(s.walker().walks(), 2, "untargeted page still hits");
        s.translate(shot, TranslationKind::Data, 0, ThreadId(0), 3_000_000);
        assert_eq!(s.walker().walks(), 3, "shot page re-walks");
    }

    #[test]
    fn churn_flips_the_mapping_granularity_and_rewalks() {
        let mut s = system(Preset::Lru);
        s.configure_address_spaces(2, 0.0, 0);
        let va = VirtAddr::new(0x10_0000_1000);
        let before = s.translate(va, TranslationKind::Data, 0, ThreadId(0), 0);
        let region = va.vpn(itpx_types::PageSize::Huge2M).0;
        let flipped = s.churn_region(ThreadId(0), region);
        assert!(flipped.is_some(), "private region must churn");
        let after = s.translate(va, TranslationKind::Data, 0, ThreadId(0), 1_000_000);
        assert!(after.stlb_miss, "churned region re-walks");
        assert_ne!(before.pa, after.pa, "promotion remapped the page");
    }
}
