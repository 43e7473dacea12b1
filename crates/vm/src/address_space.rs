//! Multi-tenant address spaces: per-ASID page tables plus a shared
//! global table.
//!
//! A consolidation scenario runs several tenant processes on one core.
//! Each tenant owns a full [`PageTable`] (its own seed and disjoint
//! physical region, like the existing per-SMT-thread split), and an
//! optional *shared* table backs global mappings — kernel-style pages
//! visible in every address space. Whether a virtual 2 MiB region is
//! global is a pure function of the region and the global seed, so the
//! same virtual address can never be both global and per-tenant: the
//! "never-both" invariant the tagged TLB lookup relies on.
//!
//! The degenerate single-tenant construction ([`AddressSpace::single`])
//! delegates straight to one [`PageTable`] and tags everything
//! [`Asid::KERNEL`] — byte-identical to pre-multi-tenant behavior.

use crate::page_table::{HugePagePolicy, PageTable, Translation};
use itpx_types::{Asid, BuildWordHasher, PageSize, Rng64, TranslationKind, VirtAddr};
use std::collections::HashMap;

/// Physical-region stride separating tenant address spaces: each tenant's
/// frames, huge frames, and page-table nodes land in a disjoint window.
const TENANT_REGION_STRIDE: u64 = 1 << 48;

/// Physical-region base of the shared global table, above every tenant
/// window.
const GLOBAL_REGION_BASE: u64 = 1 << 56;

/// Seed salt deriving each tenant's frame-scatter seed from the base seed
/// (tenant 0 keeps the base seed itself, preserving the degenerate case).
const TENANT_SEED_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// A set of tenant page tables plus an optional shared global table,
/// fronted by a current-ASID register.
#[derive(Debug)]
pub struct AddressSpace {
    /// One page table per tenant, indexed by ASID.
    tables: Vec<PageTable>,
    /// The shared table backing global mappings (absent when
    /// `global_fraction` is zero).
    shared: Option<PageTable>,
    /// Fraction of virtual 2 MiB regions backed by global mappings.
    global_fraction: f64,
    /// Seed of the per-region global decision hash.
    global_seed: u64,
    /// Global/private decision per 2 MiB region, cached at first touch
    /// (the decision itself is a pure function of region and seed).
    region_global: HashMap<u64, bool, BuildWordHasher>,
    /// The tenant lookups currently translate under.
    current: Asid,
}

impl AddressSpace {
    /// The single-tenant degenerate construction: one table, no global
    /// region, everything tagged [`Asid::KERNEL`]. Translations are
    /// byte-identical to a bare `PageTable::with_region_offset` with the
    /// same arguments.
    pub fn single(huge: HugePagePolicy, seed: u64, region_offset: u64) -> Self {
        Self {
            tables: vec![PageTable::with_region_offset(huge, seed, region_offset)],
            shared: None,
            global_fraction: 0.0,
            global_seed: 0,
            region_global: HashMap::default(),
            current: Asid::KERNEL,
        }
    }

    /// A multi-tenant address-space set. Tenant `t` gets its own seed
    /// (`seed` for tenant 0) and a disjoint physical window; a
    /// `global_fraction > 0.0` adds a shared table whose mappings are
    /// tagged [`Asid::GLOBAL`].
    ///
    /// # Panics
    ///
    /// Panics if `tenants` is zero, exceeds the tenant stride budget, or
    /// `global_fraction` is outside `[0, 1]`.
    pub fn multi(
        tenants: usize,
        huge: HugePagePolicy,
        seed: u64,
        region_offset: u64,
        global_fraction: f64,
        global_seed: u64,
    ) -> Self {
        assert!(tenants >= 1, "at least one tenant");
        assert!(tenants <= 256, "tenant count exceeds the region budget");
        assert!(
            (0.0..=1.0).contains(&global_fraction),
            "global_fraction in [0, 1]"
        );
        let tables = (0..tenants as u64)
            .map(|t| {
                PageTable::with_region_offset(
                    huge,
                    seed ^ t.wrapping_mul(TENANT_SEED_SALT),
                    region_offset + t * TENANT_REGION_STRIDE,
                )
            })
            .collect();
        let shared = (global_fraction > 0.0).then(|| {
            PageTable::with_region_offset(huge, global_seed, region_offset + GLOBAL_REGION_BASE)
        });
        Self {
            tables,
            shared,
            global_fraction,
            global_seed,
            region_global: HashMap::default(),
            current: Asid::KERNEL,
        }
    }

    /// Number of tenant address spaces.
    pub fn tenants(&self) -> usize {
        self.tables.len()
    }

    /// The tenant translations currently run under.
    pub fn current(&self) -> Asid {
        self.current
    }

    /// Retargets translation to tenant `asid` (a context switch).
    ///
    /// # Panics
    ///
    /// Panics if `asid` does not name a tenant.
    // itpx-allow: hot-inline per context switch, not per access
    pub fn switch_to(&mut self, asid: Asid) {
        assert!(
            (asid.0 as usize) < self.tables.len(),
            "ASID {asid} beyond the {} configured tenants",
            self.tables.len()
        );
        self.current = asid;
    }

    // itpx-allow: hot-float per-region fraction compare with a seeded hash; decided once per region and cached by region_is_global
    fn is_global(&self, region_vpn2m: u64) -> bool {
        if self.global_fraction <= 0.0 {
            return false;
        }
        if self.global_fraction >= 1.0 {
            return true;
        }
        let mut h = Rng64::new(self.global_seed ^ region_vpn2m.wrapping_mul(TENANT_SEED_SALT));
        h.f64() < self.global_fraction
    }

    /// Whether the 2 MiB region containing `va` is globally mapped,
    /// caching the (pure) decision at first touch.
    pub fn region_is_global(&mut self, region_vpn2m: u64) -> bool {
        if self.shared.is_none() {
            return false;
        }
        if let Some(&g) = self.region_global.get(&region_vpn2m) {
            return g;
        }
        let g = self.is_global(region_vpn2m);
        // itpx-allow: hot-alloc first touch of a 2 MiB region; bounded by the mapped footprint, not the access count
        self.region_global.insert(region_vpn2m, g);
        g
    }

    /// Translates `va` in the current address space: global regions route
    /// to the shared table (tag [`Asid::GLOBAL`]), everything else to the
    /// current tenant's table (tagged with its ASID).
    #[inline]
    pub fn translate(&mut self, va: VirtAddr, kind: TranslationKind) -> Translation {
        let region = va.vpn(PageSize::Huge2M).0;
        if self.region_is_global(region) {
            // region_is_global is false whenever `shared` is absent
            let shared = self.shared.as_mut().expect("global region has a table");
            let mut tr = shared.translate(va, kind);
            tr.asid = Asid::GLOBAL;
            tr
        } else {
            let mut tr = self.tables[self.current.0 as usize].translate(va, kind);
            tr.asid = self.current;
            tr
        }
    }

    /// Flips the current tenant's huge/base mapping of a 2 MiB region —
    /// promotion/demotion churn. Global regions are left untouched (their
    /// mappings must stay stable across every tenant). Returns the new
    /// state, or `None` if the region is global.
    // itpx-allow: hot-inline per region churn event, not per access
    pub fn churn_region(&mut self, region_vpn2m: u64) -> Option<bool> {
        if self.region_is_global(region_vpn2m) {
            return None;
        }
        Some(self.tables[self.current.0 as usize].toggle_region_huge(region_vpn2m))
    }

    /// The current tenant's page table (read access for diagnostics).
    pub fn table(&self) -> &PageTable {
        &self.tables[self.current.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itpx_types::{PhysAddr, VirtAddr};

    #[test]
    fn single_is_byte_identical_to_a_bare_page_table() {
        let mut space = AddressSpace::single(HugePagePolicy::none(), 42, 0);
        let mut table = PageTable::with_region_offset(HugePagePolicy::none(), 42, 0);
        for i in 0..64u64 {
            let va = VirtAddr::new(0x10_0000_0000 + i * 4096);
            assert_eq!(
                space.translate(va, TranslationKind::Data),
                table.translate(va, TranslationKind::Data)
            );
        }
    }

    #[test]
    fn tenants_map_the_same_va_to_disjoint_frames() {
        let mut space = AddressSpace::multi(4, HugePagePolicy::none(), 42, 0, 0.0, 0);
        let va = VirtAddr::new(0x10_0000_0000);
        let mut frames: Vec<PhysAddr> = Vec::new();
        for t in 0..4 {
            space.switch_to(Asid(t));
            let tr = space.translate(va, TranslationKind::Data);
            assert_eq!(tr.asid, Asid(t));
            frames.push(tr.frame);
        }
        frames.sort();
        frames.dedup();
        assert_eq!(frames.len(), 4, "each tenant owns its own frame");
    }

    #[test]
    fn tenant_zero_matches_the_degenerate_single_construction() {
        let mut multi = AddressSpace::multi(4, HugePagePolicy::none(), 42, 0, 0.0, 0);
        let mut single = AddressSpace::single(HugePagePolicy::none(), 42, 0);
        let va = VirtAddr::new(0x20_0000_0000);
        assert_eq!(
            multi.translate(va, TranslationKind::Data),
            single.translate(va, TranslationKind::Data)
        );
    }

    #[test]
    fn global_regions_share_one_mapping_across_tenants() {
        let mut space = AddressSpace::multi(4, HugePagePolicy::none(), 42, 0, 1.0, 7);
        let va = VirtAddr::new(0x30_0000_0000);
        space.switch_to(Asid(1));
        let a = space.translate(va, TranslationKind::Data);
        space.switch_to(Asid(2));
        let b = space.translate(va, TranslationKind::Data);
        assert_eq!(a, b, "global mapping is tenant-independent");
        assert_eq!(a.asid, Asid::GLOBAL);
    }

    #[test]
    fn global_decision_is_a_pure_function_of_region_and_seed() {
        let mut a = AddressSpace::multi(2, HugePagePolicy::none(), 1, 0, 0.5, 9);
        let mut b = AddressSpace::multi(2, HugePagePolicy::none(), 1, 0, 0.5, 9);
        let mut globals = 0;
        for r in 0..256u64 {
            let g = a.region_is_global(r);
            assert_eq!(g, b.region_is_global(r), "instances agree on region {r}");
            globals += g as usize;
        }
        assert!(
            (64..=192).contains(&globals),
            "roughly half global, got {globals}"
        );
    }

    #[test]
    fn churn_skips_global_regions() {
        let mut space = AddressSpace::multi(2, HugePagePolicy::none(), 42, 0, 1.0, 7);
        assert_eq!(space.churn_region(0x100), None);
        let mut private = AddressSpace::multi(2, HugePagePolicy::none(), 42, 0, 0.0, 0);
        assert_eq!(private.churn_region(0x100), Some(true));
    }

    #[test]
    #[should_panic(expected = "beyond")]
    fn switching_past_the_tenant_count_panics() {
        let mut space = AddressSpace::multi(2, HugePagePolicy::none(), 42, 0, 0.0, 0);
        space.switch_to(Asid(2));
    }
}
