//! The hardware page-table walker.
//!
//! On an STLB miss the walker consults the page-structure caches to pick a
//! start level, then performs one dependent memory reference per remaining
//! page-table level. Each reference is issued to the cache hierarchy
//! starting at the L2C, tagged with the fill class
//! [`itpx_types::FillClass::pte_for`] of the translation kind — the `Type`
//! bit that xPTP stores in L2C MSHRs and blocks (Figure 7, step 3).
//!
//! The walker supports a bounded number of concurrent walks (Table 1: up
//! to four); an arriving walk waits for a free walk register.

use crate::page_table::{Translation, WalkStep};
use crate::psc::SplitPscs;
use itpx_types::{Cycle, OnlineMean, PhysAddr, TranslationKind};

/// The walker's view of the memory hierarchy: one page-walk reference,
/// returning its completion cycle.
///
/// Implemented by the full system in `itpx-cpu` (routing to the L2C); tests
/// use fixed-latency stubs. A `&mut` reference can be passed where an
/// implementation is expected.
pub trait PteMemory {
    /// Performs a page-walk read of the PTE at `pa` for a `kind`
    /// translation, starting no earlier than `now`; returns the cycle the
    /// data is available to the walker.
    fn pte_access(&mut self, pa: PhysAddr, kind: TranslationKind, now: Cycle) -> Cycle;
}

impl<T: PteMemory + ?Sized> PteMemory for &mut T {
    fn pte_access(&mut self, pa: PhysAddr, kind: TranslationKind, now: Cycle) -> Cycle {
        (**self).pte_access(pa, kind, now)
    }
}

/// Result of one page walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkOutcome {
    /// Cycle at which the translation is available.
    pub done: Cycle,
    /// Page-table level the walk started at after PSC lookups.
    pub start_level: u8,
    /// Number of memory references the walk performed.
    pub memory_refs: usize,
}

/// The structure half of a walk for `translation`, shared by timed walks
/// and a fast-forward's warm walks: picks the start level from `pscs`,
/// refills every PSC level, and returns the start level with the
/// page-table references left to read from there.
///
/// PSC tags are namespaced by the translation's address space so tenants
/// walking the same virtual page never share page-table nodes
/// ([`crate::psc::namespaced_vpn`] is the identity for the single-tenant
/// KERNEL tag).
pub(crate) fn psc_walk<'t>(
    translation: &'t Translation,
    pscs: &mut SplitPscs,
) -> (u8, &'t [WalkStep]) {
    let vpn4k = crate::psc::namespaced_vpn(
        match translation.size {
            itpx_types::PageSize::Base4K => translation.vpn,
            itpx_types::PageSize::Huge2M => translation.vpn << 9,
        },
        translation.asid,
    );
    let start_level = pscs.start_level(vpn4k);
    pscs.fill(vpn4k, translation.path.leaf_level());
    (start_level, translation.path.from_level(start_level))
}

/// The hardware page-table walker.
#[derive(Debug)]
pub struct PageWalker {
    /// Busy-until time of each concurrent walk register.
    slots: Vec<Cycle>,
    walks: u64,
    instr_walks: u64,
    refs: u64,
    latency: OnlineMean,
}

impl PageWalker {
    /// Creates a walker supporting `concurrency` simultaneous walks.
    ///
    /// # Panics
    ///
    /// Panics if `concurrency == 0`.
    pub fn new(concurrency: usize) -> Self {
        assert!(concurrency > 0, "walker needs at least one walk register");
        Self {
            slots: vec![0; concurrency],
            walks: 0,
            instr_walks: 0,
            refs: 0,
            latency: OnlineMean::new(),
        }
    }

    /// Performs a walk for `translation`, consulting and refilling `pscs`
    /// and issuing PTE references through `mem`.
    pub fn walk(
        &mut self,
        translation: &Translation,
        kind: TranslationKind,
        pscs: &mut SplitPscs,
        mut mem: impl PteMemory,
        now: Cycle,
    ) -> WalkOutcome {
        // Acquire the earliest-free walk register.
        let slot = self
            .slots
            .iter()
            .enumerate()
            .min_by_key(|&(_, &busy)| busy)
            .map(|(i, _)| i)
            // cfg validation guarantees at least one walker slot
            .expect("non-empty slots");
        let start = now.max(self.slots[slot]);

        let mut t = start + pscs.latency;
        // The memory references below touch no PSC, so refilling the
        // PSCs before them changes nothing.
        let (start_level, steps) = psc_walk(translation, pscs);
        for &(_level, pa) in steps {
            t = mem.pte_access(pa, kind, t);
        }

        self.slots[slot] = t;
        self.walks += 1;
        if kind.is_instruction() {
            self.instr_walks += 1;
        }
        self.refs += steps.len() as u64;
        // itpx-allow: hot-float statistics sink only; the float mean never feeds back into simulated state
        self.latency.add((t - now) as f64);
        WalkOutcome {
            done: t,
            start_level,
            memory_refs: steps.len(),
        }
    }

    /// Clears statistics (walk-register state is preserved).
    pub fn reset_stats(&mut self) {
        self.walks = 0;
        self.instr_walks = 0;
        self.refs = 0;
        self.latency = OnlineMean::new();
    }

    /// Total walks performed.
    pub fn walks(&self) -> u64 {
        self.walks
    }

    /// Walks serving instruction translations.
    pub fn instruction_walks(&self) -> u64 {
        self.instr_walks
    }

    /// Walks serving data translations.
    pub fn data_walks(&self) -> u64 {
        self.walks - self.instr_walks
    }

    /// Total page-table memory references issued across all walks.
    pub fn memory_refs(&self) -> u64 {
        self.refs
    }

    /// Mean end-to-end walk latency in cycles (including waiting for a
    /// free walk register).
    pub fn avg_latency(&self) -> f64 {
        self.latency.mean()
    }

    /// Mean memory references per walk.
    pub fn avg_memory_refs(&self) -> f64 {
        if self.walks == 0 {
            0.0
        } else {
            self.refs as f64 / self.walks as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page_table::{HugePagePolicy, PageTable};
    use itpx_types::VirtAddr;

    /// Fixed-latency memory stub counting accesses.
    #[derive(Debug, Default)]
    struct StubMem {
        latency: u64,
        accesses: Vec<(PhysAddr, TranslationKind, Cycle)>,
    }

    impl PteMemory for StubMem {
        fn pte_access(&mut self, pa: PhysAddr, kind: TranslationKind, now: Cycle) -> Cycle {
            self.accesses.push((pa, kind, now));
            now + self.latency
        }
    }

    fn setup() -> (PageTable, SplitPscs, PageWalker, StubMem) {
        (
            PageTable::new(HugePagePolicy::none(), 1),
            SplitPscs::asplos25(),
            PageWalker::new(4),
            StubMem {
                latency: 10,
                accesses: Vec::new(),
            },
        )
    }

    #[test]
    fn cold_walk_touches_five_levels() {
        let (mut pt, mut pscs, mut w, mut mem) = setup();
        let tr = pt.translate(VirtAddr::new(0x1234_5000), TranslationKind::Data);
        let out = w.walk(&tr, TranslationKind::Data, &mut pscs, &mut mem, 0);
        assert_eq!(out.memory_refs, 5);
        assert_eq!(out.start_level, 5);
        // PSC latency (2) + 5 dependent refs × 10.
        assert_eq!(out.done, 2 + 50);
        assert_eq!(mem.accesses.len(), 5);
    }

    #[test]
    fn warm_walk_skips_to_level_2() {
        let (mut pt, mut pscs, mut w, mut mem) = setup();
        let tr = pt.translate(VirtAddr::new(0x1234_5000), TranslationKind::Data);
        w.walk(&tr, TranslationKind::Data, &mut pscs, &mut mem, 0);
        let tr2 = pt.translate(VirtAddr::new(0x1234_5000 + 4096), TranslationKind::Data);
        let out = w.walk(&tr2, TranslationKind::Data, &mut pscs, &mut mem, 100);
        assert_eq!(out.start_level, 2);
        assert_eq!(out.memory_refs, 2);
    }

    #[test]
    fn references_are_sequential_and_dependent() {
        let (mut pt, mut pscs, mut w, mut mem) = setup();
        let tr = pt.translate(VirtAddr::new(0x9999_9000), TranslationKind::Instruction);
        w.walk(&tr, TranslationKind::Instruction, &mut pscs, &mut mem, 0);
        for pair in mem.accesses.windows(2) {
            assert_eq!(pair[1].2, pair[0].2 + 10, "each ref waits for the previous");
        }
        assert!(mem.accesses.iter().all(|&(_, k, _)| k.is_instruction()));
    }

    #[test]
    fn concurrency_limits_parallel_walks() {
        let (mut pt, mut pscs, mut w, mut mem) = setup();
        let mut w1 = PageWalker::new(1);
        let a = pt.translate(VirtAddr::new(0x1_0000), TranslationKind::Data);
        let b = pt.translate(VirtAddr::new(0x8_0000_0000), TranslationKind::Data);
        let d1 = w1.walk(&a, TranslationKind::Data, &mut pscs, &mut mem, 0);
        let d2 = w1.walk(&b, TranslationKind::Data, &mut pscs, &mut mem, 0);
        assert!(d2.done > d1.done, "single-register walker serializes walks");
        // A 4-register walker overlaps them: the second walk is not pushed
        // past the first (it may even finish earlier thanks to PSC reuse).
        let mut pscs2 = SplitPscs::asplos25();
        let d3 = w.walk(&a, TranslationKind::Data, &mut pscs2, &mut mem, 0);
        let d4 = w.walk(&b, TranslationKind::Data, &mut pscs2, &mut mem, 0);
        assert!(d4.done <= d3.done, "concurrent walks overlap");
    }

    #[test]
    fn huge_walk_has_four_refs_cold() {
        let mut pt = PageTable::new(HugePagePolicy::uniform(1.0, 3), 1);
        let mut pscs = SplitPscs::asplos25();
        let mut w = PageWalker::new(4);
        let mut mem = StubMem {
            latency: 10,
            accesses: Vec::new(),
        };
        let tr = pt.translate(VirtAddr::new(0x4000_0000), TranslationKind::Data);
        let out = w.walk(&tr, TranslationKind::Data, &mut pscs, &mut mem, 0);
        assert_eq!(out.memory_refs, 4);
    }

    #[test]
    fn stats_accumulate() {
        let (mut pt, mut pscs, mut w, mut mem) = setup();
        let a = pt.translate(VirtAddr::new(0x1000), TranslationKind::Instruction);
        let b = pt.translate(VirtAddr::new(0x2000), TranslationKind::Data);
        w.walk(&a, TranslationKind::Instruction, &mut pscs, &mut mem, 0);
        w.walk(&b, TranslationKind::Data, &mut pscs, &mut mem, 0);
        assert_eq!(w.walks(), 2);
        assert_eq!(w.instruction_walks(), 1);
        assert_eq!(w.data_walks(), 1);
        assert!(w.avg_latency() > 0.0);
        assert!(w.avg_memory_refs() > 0.0);
    }
}
