//! The unified first-level-TLB → STLB → page-walk pipeline.
//!
//! [`TranslationPath`] owns every translation structure of the paper's
//! Figure 7 — ITLB, DTLB, the last-level TLB organization, the split
//! page-structure caches, and the walker — and drives one address
//! through them with all timing side effects: MSHR allocation and
//! merging at both TLB levels, the per-MSHR `Type` bit, and the walk's
//! PTE references issued into the cache hierarchy through a
//! [`PteMemory`] window. Every way a miss can resolve (STLB hit, merge
//! under an in-flight walk, fresh walk) funnels through one
//! [`Tlb::fill_and_complete`] call.
//!
//! The path is deliberately ignorant of the machine around it: the
//! caller supplies the page table (per-thread in SMT configurations)
//! and the cache-hierarchy window per call, and observes STLB misses
//! through [`PathResult::stlb_miss`] (the adaptive monitor's feed).

use crate::address_space::AddressSpace;
use crate::psc::SplitPscs;
use crate::tlb::{Entry, LastLevelTlb, Tlb, TlbLookup};
use crate::walker::{psc_walk, PageWalker, PteMemory};
use itpx_types::{Asid, Cycle, PhysAddr, ThreadId, TranslationKind, VirtAddr};

/// Result of a full translation: physical address, availability cycle,
/// and whether the STLB missed (the flag T-DRRIP consumes, Figure 7
/// step 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathResult {
    /// Physical address of the access.
    pub pa: PhysAddr,
    /// Cycle at which the translation is available.
    pub done: Cycle,
    /// Whether the request missed in the STLB.
    pub stlb_miss: bool,
}

/// The translation pipeline: first-level TLBs, last-level TLB, page
/// structure caches, and the page-table walker.
#[derive(Debug)]
pub struct TranslationPath {
    itlb: Tlb,
    dtlb: Tlb,
    stlb: LastLevelTlb,
    pscs: SplitPscs,
    walker: PageWalker,
}

impl TranslationPath {
    /// Assembles the pipeline from its structures.
    pub fn new(
        itlb: Tlb,
        dtlb: Tlb,
        stlb: LastLevelTlb,
        pscs: SplitPscs,
        walker: PageWalker,
    ) -> Self {
        Self {
            itlb,
            dtlb,
            stlb,
            pscs,
            walker,
        }
    }

    /// Translates `va`, modeling the full ITLB/DTLB → STLB → page-walk
    /// path with all timing side effects. `space` supplies the
    /// deterministic mapping (the current tenant's in multi-tenant runs);
    /// `mem` is the cache-hierarchy window the walker's PTE references go
    /// through.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn translate(
        &mut self,
        space: &mut AddressSpace,
        mem: impl PteMemory,
        va: VirtAddr,
        kind: TranslationKind,
        pc: u64,
        thread: ThreadId,
        now: Cycle,
    ) -> PathResult {
        let Self {
            itlb,
            dtlb,
            stlb,
            pscs,
            walker,
        } = self;
        let l1 = if kind.is_instruction() { itlb } else { dtlb };

        match l1.lookup(va, kind, pc, thread, now) {
            TlbLookup::Hit { done, frame, size } => PathResult {
                pa: frame.offset(va.page_offset(size)),
                done,
                stlb_miss: false,
            },
            TlbLookup::Miss => {
                // The physical mapping itself is deterministic; timing
                // comes from the structures below.
                let tr = space.translate(va, kind);
                let pa = tr.pa;
                // Merge under an in-flight L1-TLB miss.
                if let Some(ready) = l1.merge(va, now) {
                    return PathResult {
                        pa,
                        done: ready,
                        stlb_miss: false,
                    };
                }
                let t_miss = now + l1.config().latency;
                let t_alloc = l1.mshr_alloc(va, kind, t_miss);
                let s = stlb.for_kind(kind);
                match s.lookup(va, kind, pc, thread, t_alloc) {
                    TlbLookup::Hit { done, frame, size } => {
                        l1.fill_and_complete(&tr, kind, pc, thread, va, now, done);
                        PathResult {
                            pa: frame.offset(va.page_offset(size)),
                            done,
                            stlb_miss: false,
                        }
                    }
                    TlbLookup::Miss => {
                        // Merge under an in-flight STLB miss (walk).
                        if let Some(ready) = s.merge(va, t_alloc) {
                            l1.fill_and_complete(&tr, kind, pc, thread, va, now, ready);
                            return PathResult {
                                pa,
                                done: ready,
                                stlb_miss: true,
                            };
                        }
                        let t_stlb = t_alloc + s.config().latency;
                        // Figure 7 step 2: the STLB MSHR records the Type.
                        let walk_start = s.mshr_alloc(va, kind, t_stlb);
                        let outcome = walker.walk(&tr, kind, pscs, mem, walk_start);
                        // Figure 7 step 4: insertion consumes the MSHR's
                        // Type bit (iTP keys on `kind` here).
                        s.fill_and_complete(&tr, kind, pc, thread, va, now, outcome.done);
                        l1.fill_and_complete(&tr, kind, pc, thread, va, now, outcome.done);
                        PathResult {
                            pa,
                            done: outcome.done,
                            stlb_miss: true,
                        }
                    }
                }
            }
        }
    }

    /// [`TranslationPath::translate`] on a fast-forward's warm path: the
    /// same lookups, walk and fills through every structure's policy
    /// hooks, with no time, no statistics, no MSHR and no walk register.
    /// Each page-walk reference goes to `pte`. Returns the physical
    /// address and whether the STLB missed.
    ///
    /// Only a walk reads `space`: an STLB hit fills the first level from
    /// the STLB's entry. That equals the page table's translation, and
    /// skipping it allocates nothing, because an STLB entry visible under
    /// the current ASID was filled from `space` (threads translate
    /// disjoint virtual pages), a mapped page keeps its translation until
    /// churn flips its region, churn invalidates the region in every TLB
    /// level, and whether a region is global depends on its address only.
    #[inline]
    pub fn warm_translate(
        &mut self,
        space: &mut AddressSpace,
        mut pte: impl FnMut(PhysAddr),
        va: VirtAddr,
        kind: TranslationKind,
        pc: u64,
        thread: ThreadId,
    ) -> (PhysAddr, bool) {
        let l1 = if kind.is_instruction() {
            &mut self.itlb
        } else {
            &mut self.dtlb
        };
        if let Some(e) = l1.warm_lookup(va, kind, pc, thread) {
            return (e.pa(va), false);
        }
        let s = self.stlb.for_kind(kind);
        let (e, stlb_miss) = match s.warm_lookup(va, kind, pc, thread) {
            Some(e) => (e, false),
            None => {
                let tr = space.translate(va, kind);
                let (_, steps) = psc_walk(&tr, &mut self.pscs);
                steps.iter().for_each(|&(_, pa)| pte(pa));
                let e = Entry::warm(&tr);
                s.warm_fill(e, kind, pc, thread);
                (e, true)
            }
        };
        l1.warm_fill(e, kind, pc, thread);
        (e.pa(va), stlb_miss)
    }

    /// The settle step at the end of a fast-forward: every TLB level
    /// drops its in-flight misses and makes its entries usable at once.
    /// Walk registers keep their busy times: they are timing state the
    /// warm path never touched.
    pub fn settle(&mut self) {
        self.itlb.settle();
        self.dtlb.settle();
        self.stlb.settle();
    }

    /// The first-level instruction TLB.
    pub fn itlb(&self) -> &Tlb {
        &self.itlb
    }

    /// The first-level data TLB.
    pub fn dtlb(&self) -> &Tlb {
        &self.dtlb
    }

    /// The last-level TLB organization.
    pub fn stlb(&self) -> &LastLevelTlb {
        &self.stlb
    }

    /// The page-table walker.
    pub fn walker(&self) -> &PageWalker {
        &self.walker
    }

    /// The page-structure caches.
    pub fn pscs(&self) -> &SplitPscs {
        &self.pscs
    }

    /// Retargets every TLB level to `asid` — the tag-preserving half of
    /// a context switch. Pair with [`TranslationPath::flush_asid`] for
    /// flushing switches.
    // itpx-allow: hot-inline per context switch, not per access
    pub fn set_current_asid(&mut self, asid: Asid) {
        self.itlb.set_current_asid(asid);
        self.dtlb.set_current_asid(asid);
        self.stlb.set_current_asid(asid);
    }

    /// Flushes `asid`-tagged state everywhere it lives: all TLB levels
    /// and the PSC namespaces. Global entries survive by construction.
    // itpx-allow: hot-inline per context switch, not per access
    pub fn flush_asid(&mut self, asid: Asid) {
        self.itlb.flush_asid(asid);
        self.dtlb.flush_asid(asid);
        self.stlb.flush_asid(asid);
        self.pscs.flush_asid(asid);
    }

    /// Targeted TLB shootdown of `va` under `asid`, across every TLB
    /// level. PSC nodes are deliberately kept — a shootdown invalidates a
    /// leaf mapping, not the page-table interior (documented limit: real
    /// invlpg flushes paging-structure caches too).
    // itpx-allow: hot-inline per TLB shootdown, not per access
    pub fn invalidate_page(&mut self, va: VirtAddr, asid: Asid) {
        self.itlb.invalidate_page(va, asid);
        self.dtlb.invalidate_page(va, asid);
        self.stlb.invalidate_page(va, asid);
    }

    /// Invalidates a 2 MiB region in every TLB level after huge-page
    /// promotion/demotion churn. PSC nodes survive: a level-2 start is
    /// valid for both leaf sizes.
    // itpx-allow: hot-inline per region churn event, not per access
    pub fn invalidate_region(&mut self, region_vpn2m: u64) {
        self.itlb.invalidate_region(region_vpn2m);
        self.dtlb.invalidate_region(region_vpn2m);
        self.stlb.invalidate_region(region_vpn2m);
    }

    /// Clears statistics on every structure in the pipeline; contents
    /// and replacement state are preserved.
    pub fn reset_stats(&mut self) {
        self.itlb.reset_stats();
        self.dtlb.reset_stats();
        self.stlb.reset_stats();
        self.walker.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page_table::HugePagePolicy;
    use crate::tlb::TlbConfig;
    use itpx_policy::Lru;

    /// Fixed-latency PTE memory: every walk reference costs 10 cycles.
    struct FlatMemory;

    impl PteMemory for FlatMemory {
        fn pte_access(&mut self, _pa: PhysAddr, _kind: TranslationKind, now: Cycle) -> Cycle {
            now + 10
        }
    }

    fn path() -> TranslationPath {
        let small = TlbConfig {
            sets: 4,
            ways: 4,
            latency: 1,
            mshr_entries: 8,
        };
        let stlb_cfg = TlbConfig {
            sets: 16,
            ways: 4,
            latency: 8,
            mshr_entries: 16,
        };
        let tlb = |cfg: TlbConfig| Tlb::new(cfg, Lru::new(cfg.sets, cfg.ways));
        TranslationPath::new(
            tlb(small),
            tlb(small),
            LastLevelTlb::Unified(tlb(stlb_cfg)),
            SplitPscs::asplos25(),
            PageWalker::new(4),
        )
    }

    fn table() -> AddressSpace {
        AddressSpace::single(HugePagePolicy::none(), 7, 0)
    }

    #[test]
    fn cold_walk_then_warm_hit() {
        let mut p = path();
        let mut pt = table();
        let va = VirtAddr::new(0x10_0000_1000);
        let cold = p.translate(
            &mut pt,
            FlatMemory,
            va,
            TranslationKind::Data,
            0x4,
            ThreadId(0),
            0,
        );
        assert!(cold.stlb_miss);
        assert_eq!(p.walker().walks(), 1);
        let warm = p.translate(
            &mut pt,
            FlatMemory,
            va,
            TranslationKind::Data,
            0x4,
            ThreadId(0),
            1_000,
        );
        assert!(!warm.stlb_miss);
        assert_eq!(warm.done, 1_001, "DTLB hit costs its lookup latency");
        assert_eq!(warm.pa, cold.pa);
        assert_eq!(p.walker().walks(), 1, "no second walk");
    }

    #[test]
    fn instruction_and_data_use_their_own_l1() {
        let mut p = path();
        let mut pt = table();
        let va = VirtAddr::new(0x20_0000_0000);
        p.translate(
            &mut pt,
            FlatMemory,
            va,
            TranslationKind::Instruction,
            va.0,
            ThreadId(0),
            0,
        );
        assert_eq!(p.itlb().stats().accesses(), 1);
        assert_eq!(p.dtlb().stats().accesses(), 0);
    }

    #[test]
    fn reset_stats_clears_the_pipeline() {
        let mut p = path();
        let mut pt = table();
        let va = VirtAddr::new(0x30_0000_0000);
        p.translate(
            &mut pt,
            FlatMemory,
            va,
            TranslationKind::Data,
            0,
            ThreadId(0),
            0,
        );
        p.reset_stats();
        assert_eq!(p.dtlb().stats().accesses(), 0);
        assert_eq!(p.stlb().stats().accesses(), 0);
        assert_eq!(p.walker().walks(), 0);
    }
}
