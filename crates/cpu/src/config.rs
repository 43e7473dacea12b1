//! System configuration mirroring the paper's Table 1.

use itpx_core::presets::StructureDims;
use itpx_mem::HierarchyConfig;
use itpx_policy::RecencyStack;
use itpx_types::fingerprint::{Fingerprint, Fnv1a};
use itpx_vm::page_table::HugePagePolicy;
use itpx_vm::tlb::TlbConfig;

/// Largest FDIP depth: the engine nominates at most this many blocks per
/// new fetch block.
pub const FDIP_MAX_DEPTH: usize = 16;

/// Full machine configuration.
///
/// [`SystemConfig::asplos25`] reproduces Table 1; the `with_*` helpers
/// express the sensitivity sweeps of Sections 6.4–6.6.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    /// Instructions fetched per cycle (decoupled front end, Table 1: 6).
    pub fetch_width: usize,
    /// Reorder-buffer entries (Table 1: 352; halved per thread under SMT).
    pub rob_entries: usize,
    /// Fetch-target-queue entries (Table 1: 128).
    pub ftq_entries: usize,
    /// Instructions retired per cycle.
    pub retire_width: usize,
    /// Cycles lost on a branch misprediction redirect.
    pub mispredict_penalty: u64,
    /// First-level instruction TLB (Table 1: 64-entry, 4-way, 1-cycle).
    pub itlb: TlbConfig,
    /// First-level data TLB (Table 1: 64-entry, 4-way, 1-cycle).
    pub dtlb: TlbConfig,
    /// Last-level TLB (Table 1: 1536-entry, 12-way, 8-cycle).
    pub stlb: TlbConfig,
    /// Use a split instruction/data STLB instead of a unified one
    /// (Section 6.6); each half gets `stlb.sets / 2` sets.
    pub split_stlb: bool,
    /// Cache hierarchy geometry.
    pub hierarchy: HierarchyConfig,
    /// Concurrent page walks supported by the walker (Table 1: 4... "1
    /// page walk / cycle" issue with 4 in flight).
    pub walker_concurrency: usize,
    /// Distinct upcoming fetch blocks the FDIP prefetcher runs ahead
    /// (0 disables it; at most [`FDIP_MAX_DEPTH`]).
    pub fdip_depth: usize,
    /// Huge-page allocation policy (Section 6.5 sweeps this).
    pub huge_pages: HugePagePolicy,
    /// Seed for machine-side randomness (frame scattering).
    pub seed: u64,
}

impl SystemConfig {
    /// The paper's Table 1 configuration.
    pub fn asplos25() -> Self {
        Self {
            fetch_width: 6,
            rob_entries: 352,
            ftq_entries: 128,
            retire_width: 6,
            mispredict_penalty: 12,
            itlb: TlbConfig {
                sets: 16,
                ways: 4,
                latency: 1,
                mshr_entries: 8,
            },
            dtlb: TlbConfig {
                sets: 16,
                ways: 4,
                latency: 1,
                mshr_entries: 8,
            },
            stlb: TlbConfig {
                sets: 128,
                ways: 12,
                latency: 8,
                mshr_entries: 16,
            },
            split_stlb: false,
            hierarchy: HierarchyConfig::asplos25(),
            walker_concurrency: 4,
            fdip_depth: 8,
            huge_pages: HugePagePolicy::none(),
            seed: 0xa5f0_5c25,
        }
    }

    /// Returns a copy with an ITLB of `entries` entries (4-way), for the
    /// Section 6.4 / Figure 1 sweeps.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a positive multiple of 4.
    #[must_use]
    pub fn with_itlb_entries(mut self, entries: usize) -> Self {
        assert!(
            entries >= 4 && entries.is_multiple_of(4),
            "ITLB entries must be a multiple of 4"
        );
        self.itlb.sets = entries / 4;
        self
    }

    /// Returns a copy with a unified STLB of `entries` entries (12-way),
    /// for the Section 6.6 sweep.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a positive multiple of 12.
    #[must_use]
    pub fn with_stlb_entries(mut self, entries: usize) -> Self {
        assert!(
            entries >= 12 && entries.is_multiple_of(12),
            "STLB entries must be a multiple of 12"
        );
        self.stlb.sets = entries / 12;
        self
    }

    /// Returns a copy using a split STLB (Section 6.6): each half keeps
    /// the unified associativity with half the sets.
    #[must_use]
    pub fn with_split_stlb(mut self, split: bool) -> Self {
        self.split_stlb = split;
        self
    }

    /// Returns a copy with the given huge-page policy (Section 6.5).
    #[must_use]
    pub fn with_huge_pages(mut self, huge: HugePagePolicy) -> Self {
        self.huge_pages = huge;
        self
    }

    /// Structure dimensions handed to [`itpx_core::Preset::build`]. The
    /// L2C is the chain's first shared level; `llc` reports the innermost
    /// shared level, so no-LLC chains still hand the LLC policy sane
    /// dimensions (it is unused there).
    pub fn dims(&self) -> StructureDims {
        let l2c = self.hierarchy.l2c();
        let last = self.hierarchy.last_level();
        StructureDims {
            stlb: (self.stlb.sets, self.stlb.ways),
            l2c: (l2c.sets, l2c.ways),
            llc: (last.sets, last.ways),
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on degenerate widths or sizes, and if the ITLB, DTLB, L1I or
    /// L1D, which always run LRU, has more ways than a
    /// [`RecencyStack`] holds ([`RecencyStack::MAX_WAYS`]).
    pub fn validate(&self) {
        assert!(self.fetch_width > 0 && self.retire_width > 0, "zero width");
        assert!(self.rob_entries >= 16, "ROB too small");
        assert!(self.ftq_entries >= 8, "FTQ too small");
        assert!(self.walker_concurrency > 0, "walker needs a slot");
        assert!(
            self.fdip_depth <= FDIP_MAX_DEPTH,
            "FDIP depth above {FDIP_MAX_DEPTH}"
        );
        if self.split_stlb {
            assert!(
                self.stlb.sets.is_multiple_of(2),
                "split STLB needs even sets"
            );
        }
        for (level, ways) in [
            ("ITLB", self.itlb.ways),
            ("DTLB", self.dtlb.ways),
            ("L1I", self.hierarchy.l1i.ways),
            ("L1D", self.hierarchy.l1d.ways),
        ] {
            assert!(
                ways <= RecencyStack::MAX_WAYS,
                "{level} has {ways} ways; its LRU recency stack holds at most {}",
                RecencyStack::MAX_WAYS
            );
        }
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::asplos25()
    }
}

impl Fingerprint for SystemConfig {
    fn fingerprint(&self, h: &mut Fnv1a) {
        // Every field can change simulated results, so every field is
        // hashed, in declaration order.
        h.write_usize(self.fetch_width);
        h.write_usize(self.rob_entries);
        h.write_usize(self.ftq_entries);
        h.write_usize(self.retire_width);
        h.write_u64(self.mispredict_penalty);
        self.itlb.fingerprint(h);
        self.dtlb.fingerprint(h);
        self.stlb.fingerprint(h);
        h.write_bool(self.split_stlb);
        self.hierarchy.fingerprint(h);
        h.write_usize(self.walker_concurrency);
        h.write_usize(self.fdip_depth);
        self.huge_pages.fingerprint(h);
        h.write_u64(self.seed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values() {
        let c = SystemConfig::asplos25();
        c.validate();
        assert_eq!(c.rob_entries, 352);
        assert_eq!(c.ftq_entries, 128);
        assert_eq!(c.fetch_width, 6);
        assert_eq!(c.itlb.entries(), 64);
        assert_eq!(c.dtlb.entries(), 64);
        assert_eq!(c.stlb.entries(), 1536);
        assert_eq!(c.stlb.latency, 8);
        assert_eq!(c.hierarchy.l2c().bytes(), 512 * 1024);
        assert_eq!(
            c.hierarchy.llc().expect("asplos25 has an LLC").bytes(),
            2 * 1024 * 1024
        );
        assert_eq!(c.walker_concurrency, 4);
    }

    #[test]
    fn itlb_sweep_helper() {
        for entries in [8, 64, 128, 512, 1024] {
            let c = SystemConfig::asplos25().with_itlb_entries(entries);
            assert_eq!(c.itlb.entries(), entries);
            c.validate();
        }
    }

    #[test]
    fn stlb_sweep_helper() {
        let c = SystemConfig::asplos25().with_stlb_entries(3072);
        assert_eq!(c.stlb.entries(), 3072);
        assert_eq!(c.stlb.ways, 12);
    }

    #[test]
    #[should_panic(expected = "multiple of 4")]
    fn bad_itlb_entries_panics() {
        let _ = SystemConfig::asplos25().with_itlb_entries(10);
    }

    #[test]
    #[should_panic(expected = "FDIP depth above 16")]
    fn fdip_depth_beyond_the_nomination_slots_panics() {
        let mut c = SystemConfig::asplos25();
        c.fdip_depth = FDIP_MAX_DEPTH + 1;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "DTLB has 17 ways; its LRU recency stack holds at most 16")]
    fn a_dtlb_wider_than_the_recency_stack_is_rejected() {
        let mut c = SystemConfig::asplos25();
        c.dtlb.ways = 17;
        c.validate();
    }

    #[test]
    fn dims_match_structures() {
        let c = SystemConfig::asplos25();
        let d = c.dims();
        assert_eq!(d.stlb, (128, 12));
        assert_eq!(d.l2c, (1024, 8));
        assert_eq!(d.llc, (2048, 16));
    }
}
