//! Property tests for the full-system simulator: structural invariants
//! that must hold for any workload seed and preset.

use itpx_core::Preset;
use itpx_cpu::{Simulation, SystemConfig};
use itpx_trace::WorkloadSpec;
use proptest::prelude::*;

fn small(seed: u64) -> WorkloadSpec {
    WorkloadSpec::server_like(seed)
        .instructions(12_000)
        .warmup(3_000)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn outputs_are_internally_consistent(seed in 0u64..64, preset_idx in 0usize..10) {
        let cfg = SystemConfig::asplos25();
        let preset = Preset::EVALUATED[preset_idx];
        let out = Simulation::single_thread(&cfg, preset, &small(seed)).run();

        // Counts.
        prop_assert_eq!(out.instructions(), 12_000);
        prop_assert!(out.threads[0].cycles > 0);

        // IPC cannot exceed the fetch/retire width.
        prop_assert!(out.ipc() <= cfg.fetch_width as f64);

        // Hit/miss accounting.
        prop_assert!(out.stlb.misses() <= out.stlb.accesses());
        prop_assert!(out.l2c.misses() <= out.l2c.accesses());
        prop_assert!(out.llc.misses() <= out.llc.accesses());
        prop_assert!(out.itlb.accesses() > 0, "fetch must consult the ITLB");
        prop_assert!(out.dtlb.accesses() > 0, "loads must consult the DTLB");

        // The STLB only sees L1-TLB misses.
        prop_assert!(
            out.stlb.accesses() <= out.itlb.misses() + out.dtlb.misses(),
            "STLB accesses ({}) exceed L1 TLB misses ({})",
            out.stlb.accesses(),
            out.itlb.misses() + out.dtlb.misses()
        );

        // Walker activity matches STLB misses (merges allow fewer walks).
        prop_assert!(out.walker.walks <= out.stlb.misses() + 16);

        // Stall fraction is a fraction.
        let f = out.itrans_stall_fraction();
        prop_assert!((0.0..=1.0).contains(&f), "stall fraction {f}");
    }

    #[test]
    fn deterministic_across_presets(seed in 0u64..32) {
        let cfg = SystemConfig::asplos25();
        let a = Simulation::single_thread(&cfg, Preset::ItpXptp, &small(seed)).run();
        let b = Simulation::single_thread(&cfg, Preset::ItpXptp, &small(seed)).run();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn bigger_stlb_never_increases_misses_much(seed in 0u64..16) {
        let small_cfg = SystemConfig::asplos25();
        let big_cfg = small_cfg.with_stlb_entries(3072);
        let w = small(seed);
        let s = Simulation::single_thread(&small_cfg, Preset::Lru, &w).run();
        let b = Simulation::single_thread(&big_cfg, Preset::Lru, &w).run();
        prop_assert!(
            b.stlb.misses() <= s.stlb.misses() + s.stlb.misses() / 10 + 8,
            "doubling the STLB should not increase misses: {} -> {}",
            s.stlb.misses(),
            b.stlb.misses()
        );
    }
}

/// `fdip_depth = 0` turns FDIP off: no block is nominated, so the run
/// differs from depth 1 and the L1I serves fewer demand hits.
#[test]
fn fdip_depth_zero_disables_the_prefetcher() {
    let spec = WorkloadSpec::server_like(5)
        .instructions(80_000)
        .warmup(20_000);
    let run = |depth: usize| {
        let mut cfg = SystemConfig::asplos25();
        cfg.fdip_depth = depth;
        Simulation::single_thread(&cfg, Preset::Lru, &spec).run()
    };
    let (off, one) = (run(0), run(1));
    assert_ne!(off, one, "depth 0 must not behave as depth 1");
    let hits = |o: &itpx_cpu::SimulationOutput| o.l1i.accesses() - o.l1i.misses();
    assert!(
        hits(&off) < hits(&one),
        "without FDIP the L1I must serve fewer hits: {} vs {}",
        hits(&off),
        hits(&one)
    );
}
