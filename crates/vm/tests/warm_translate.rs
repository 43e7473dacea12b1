//! The warm path's first-level fills after an STLB hit equal the page
//! table's translations.
//!
//! `TranslationPath::warm_translate` reads the address space only on a
//! walk: after an STLB hit it fills the first-level TLB from the STLB's
//! entry. A reference address space built alike translates every access
//! instead, so any fill that differs from the page table, and any frame
//! or page-table node the skipped translations would have allocated in
//! a different order, shows up as a different physical address or walk.

use itpx_policy::Lru;
use itpx_types::{Asid, PageSize, PhysAddr, Rng64, ThreadId, TranslationKind, VirtAddr};
use itpx_vm::{
    AddressSpace, HugePagePolicy, LastLevelTlb, PageWalker, SplitPscs, Tlb, TlbConfig,
    TranslationPath,
};
use std::collections::HashSet;

const TENANTS: u16 = 4;

fn path() -> TranslationPath {
    let tlb = |sets: usize, ways: usize| {
        Tlb::new(
            TlbConfig {
                sets,
                ways,
                latency: 1,
                mshr_entries: 4,
            },
            Lru::new(sets, ways),
        )
    };
    TranslationPath::new(
        tlb(4, 4),
        tlb(4, 4),
        LastLevelTlb::Unified(tlb(64, 8)),
        SplitPscs::asplos25(),
        PageWalker::new(2),
    )
}

/// Four tenants over half-huge regions, a third of them global.
fn tenants() -> AddressSpace {
    AddressSpace::multi(
        usize::from(TENANTS),
        HugePagePolicy::uniform(0.5, 3),
        11,
        0,
        0.3,
        5,
    )
}

/// The first-level TLB `kind` translations go through.
fn l1(p: &TranslationPath, kind: TranslationKind) -> &Tlb {
    match kind {
        TranslationKind::Instruction => p.itlb(),
        TranslationKind::Data => p.dtlb(),
    }
}

/// A page from 32 2 MiB regions of 64 pages each: enough reuse for STLB
/// hits behind first-level misses, enough spread for walks.
fn va_of(rng: &mut Rng64) -> VirtAddr {
    let region = 0x100 + rng.below(32);
    VirtAddr::new((region << 21) + (rng.below(64) << 12) + rng.below(512) * 8)
}

#[test]
fn fills_after_stlb_hits_equal_page_table_translations() {
    let mut p = path();
    let mut space = tenants();
    let mut reference = tenants();
    let mut rng = Rng64::new(7);
    let mut churned: HashSet<u64> = HashSet::new();
    let (mut hit_fills, mut global, mut churned_huge) = (0, 0, 0);
    let mut tags: HashSet<Asid> = HashSet::new();
    for _ in 0..200_000 {
        let va = va_of(&mut rng);
        let region = va.vpn(PageSize::Huge2M).0;
        if rng.chance(0.002) {
            let asid = Asid(rng.below(u64::from(TENANTS)) as u16);
            if rng.chance(0.5) {
                p.flush_asid(asid);
            }
            p.set_current_asid(asid);
            space.switch_to(asid);
            reference.switch_to(asid);
            continue;
        }
        if rng.chance(0.002) {
            let flipped = space.churn_region(region);
            assert_eq!(flipped, reference.churn_region(region));
            if flipped.is_some() {
                p.invalidate_region(region);
                churned.insert(region);
            }
            continue;
        }
        if rng.chance(0.002) {
            p.invalidate_page(va, space.current());
            continue;
        }
        let kind = if rng.chance(0.3) {
            TranslationKind::Instruction
        } else {
            TranslationKind::Data
        };
        let l1_had = [PageSize::Base4K, PageSize::Huge2M]
            .into_iter()
            .any(|size| l1(&p, kind).contains(va, size));
        let want = reference.translate(va, kind);
        let mut refs: Vec<PhysAddr> = Vec::new();
        let (pa, stlb_miss) =
            p.warm_translate(&mut space, |r| refs.push(r), va, kind, va.0, ThreadId(0));
        assert_eq!(pa, want.pa, "{va:?} {kind:?}");
        assert!(
            l1(&p, kind).contains_tagged(va, want.size, want.asid),
            "{va:?}: first level not filled with the page table's entry"
        );
        if stlb_miss {
            // The walk's references are the tail of the reference walk.
            let steps: Vec<PhysAddr> = want.path.steps().iter().map(|&(_, pa)| pa).collect();
            assert!(steps.ends_with(&refs) && !refs.is_empty(), "{va:?} walk");
        } else {
            assert!(refs.is_empty(), "{va:?}: walked on a TLB hit");
        }
        if !l1_had && !stlb_miss {
            hit_fills += 1;
            tags.insert(want.asid);
            global += usize::from(want.asid == Asid::GLOBAL);
            churned_huge += usize::from(want.size == PageSize::Huge2M && churned.contains(&region));
        }
    }
    // Every case the fill rule has to get right was exercised.
    assert!(hit_fills > 10_000, "{hit_fills} fills after STLB hits");
    assert!(global > 100, "{global} of them global");
    assert!(
        churned_huge > 100,
        "{churned_huge} of them in churned huge regions"
    );
    assert_eq!(
        tags.len(),
        usize::from(TENANTS) + 1,
        "every tenant and the global table"
    );
    // Nothing the skipped translations would have mapped is missing.
    for t in 0..TENANTS {
        space.switch_to(Asid(t));
        reference.switch_to(Asid(t));
        assert_eq!(
            space.table().mapped_4k_pages(),
            reference.table().mapped_4k_pages(),
            "tenant {t}"
        );
    }
}
