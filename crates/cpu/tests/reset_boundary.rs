//! The warmup/measurement boundary must zero *every* counter the
//! simulator reports — one missed counter silently pollutes measured
//! statistics with warmup traffic.
//!
//! `System::reset_stats` derives its coverage by iterating structures
//! (the translation path walks its pipeline, the hierarchy walks its
//! level chain), so these assertions also guard new levels: a 4-level
//! chain is reset through the same iteration as the paper's 3-level
//! machine.

use itpx_core::presets::BuildConfig;
use itpx_core::Preset;
use itpx_cpu::{Simulation, System, SystemConfig};
use itpx_mem::HierarchyConfig;
use itpx_trace::{TierSchedule, WorkloadSpec};
use itpx_types::{ThreadId, TranslationKind, VirtAddr};

/// Drives enough varied traffic through the machine that every counter
/// class is nonzero: TLB accesses and misses, walks, cache accesses and
/// misses at each level, prefetch nominations, and DRAM reads.
fn warm_up(s: &mut System) {
    for i in 0..200u64 {
        let code = VirtAddr::new(0x10_0000_0000 + i * 4096);
        let t = s.translate(
            code,
            TranslationKind::Instruction,
            code.0,
            ThreadId(0),
            i * 50,
        );
        s.hierarchy.instr_fetch(t.pa, code.0, ThreadId(0), t.done);
        let data = VirtAddr::new(0x20_0000_0000 + i * 4096);
        let t = s.translate(
            data,
            TranslationKind::Data,
            code.0,
            ThreadId(0),
            i * 50 + 10,
        );
        s.hierarchy
            .data_access(t.pa, code.0, ThreadId(0), i % 3 == 0, t.stlb_miss, t.done);
    }
}

fn assert_all_counters_zero(s: &System) {
    assert_eq!(s.itlb().stats().accesses(), 0, "ITLB accesses");
    assert_eq!(s.itlb().stats().misses(), 0, "ITLB misses");
    assert_eq!(s.dtlb().stats().accesses(), 0, "DTLB accesses");
    assert_eq!(s.dtlb().stats().misses(), 0, "DTLB misses");
    assert_eq!(s.stlb().stats().accesses(), 0, "STLB accesses");
    assert_eq!(s.stlb().stats().misses(), 0, "STLB misses");
    assert_eq!(s.walker().walks(), 0, "walks");
    assert_eq!(s.walker().instruction_walks(), 0, "instruction walks");
    assert_eq!(s.walker().data_walks(), 0, "data walks");
    for (id, cache) in s.hierarchy.levels() {
        assert_eq!(cache.stats().accesses(), 0, "{id} accesses");
        assert_eq!(cache.stats().misses(), 0, "{id} misses");
        assert_eq!(cache.writebacks(), 0, "{id} writebacks");
        assert_eq!(cache.prefetches_issued(), 0, "{id} prefetches issued");
        assert_eq!(cache.prefetches_useful(), 0, "{id} prefetches useful");
    }
    assert_eq!(s.hierarchy.prefetch_nominations(), 0, "hook nominations");
    assert_eq!(s.hierarchy.writebacks_absorbed(), 0, "absorbed writebacks");
    assert_eq!(s.hierarchy.dram().reads(), 0, "DRAM reads");
    assert_eq!(s.hierarchy.dram().writes(), 0, "DRAM writes");
}

fn system_with(hierarchy: HierarchyConfig) -> System {
    let cfg = SystemConfig {
        hierarchy,
        ..SystemConfig::asplos25()
    };
    let bundle = Preset::Lru.build(&cfg.dims(), &BuildConfig::default());
    System::new(cfg, bundle, 1)
}

#[test]
fn reset_zeroes_every_counter_in_the_chain() {
    let mut s = system_with(HierarchyConfig::asplos25());
    warm_up(&mut s);
    // The warmup actually exercised the counters being tested.
    assert!(s.itlb().stats().misses() > 0);
    assert!(s.walker().walks() > 0);
    assert!(s.hierarchy.prefetch_nominations() > 0);
    assert!(s.hierarchy.dram().reads() > 0);
    s.reset_stats();
    assert_all_counters_zero(&s);
}

#[test]
fn reset_covers_shallow_and_deep_chains() {
    for hierarchy in [
        HierarchyConfig::asplos25_no_llc(),
        HierarchyConfig::asplos25_deep(),
    ] {
        let mut s = system_with(hierarchy);
        warm_up(&mut s);
        s.reset_stats();
        assert_all_counters_zero(&s);
    }
}

/// The boundary contract extends to the tiered path: fast-forward
/// segments drive the *functional* machine, so none of their traffic may
/// appear in the measured cycle-model counters. A leak of even one 30k
/// fast-forward segment would multiply the access counts several-fold.
#[test]
fn tiered_measurement_excludes_fast_forward_traffic() {
    let cfg = SystemConfig::asplos25();
    let w = WorkloadSpec::server_like(9)
        .warmup(4_000)
        .tiers(TierSchedule::tiered(4_000, 30_000, 3));
    let out = Simulation::single_thread(&cfg, Preset::Lru, &w).run();
    let measured = out.instructions();
    assert_eq!(measured, 12_000);
    // Fetches happen once per block group and data accesses on ~1/3 of
    // instructions: both are well below one per measured instruction.
    assert!(
        out.l1i.accesses() < measured,
        "L1I accesses {} exceed measured instructions — fast-forward leaked",
        out.l1i.accesses()
    );
    assert!(
        out.dtlb.accesses() < measured,
        "DTLB accesses {} exceed measured instructions — fast-forward leaked",
        out.dtlb.accesses()
    );
}

#[test]
fn reset_preserves_structure_contents() {
    let mut s = system_with(HierarchyConfig::asplos25());
    let va = VirtAddr::new(0x10_0000_1000);
    let t = s.translate(va, TranslationKind::Instruction, va.0, ThreadId(0), 0);
    s.hierarchy.instr_fetch(t.pa, va.0, ThreadId(0), t.done);
    s.reset_stats();
    // Warm state survives the boundary: the same access is now all hits.
    let t2 = s.translate(va, TranslationKind::Instruction, va.0, ThreadId(0), 100_000);
    assert!(!t2.stlb_miss, "TLB contents survive reset");
    assert_eq!(s.walker().walks(), 0, "no new walk after reset");
    let done = s.hierarchy.instr_fetch(t2.pa, va.0, ThreadId(0), 200_000);
    assert_eq!(done, 200_004, "L1I contents survive reset");
}

/// A run whose warmup plus measured length overflows is refused, not
/// wrapped into a target below the boundary.
#[test]
#[should_panic(expected = "overflows u64")]
fn run_lengths_that_overflow_are_refused() {
    let w = WorkloadSpec::server_like(1)
        .instructions(u64::MAX)
        .warmup(1);
    Simulation::single_thread(&SystemConfig::asplos25(), Preset::Lru, &w).run();
}
