//! Integration tests for the Section 3 motivation findings.

use itpx::prelude::*;

const INSTR: u64 = 120_000;
const WARMUP: u64 = 30_000;

fn run(cfg: &SystemConfig, preset: Preset, w: &WorkloadSpec) -> itpx_cpu::SimulationOutput {
    Simulation::single_thread(cfg, preset, w).run()
}

#[test]
fn finding1_big_code_amplifies_translation_overheads() {
    // Figure 1/2: server workloads pay real instruction-translation cost;
    // SPEC-like workloads pay none.
    let cfg = SystemConfig::asplos25();
    let server = WorkloadSpec::server_like(1)
        .instructions(INSTR)
        .warmup(WARMUP);
    let spec = WorkloadSpec::spec_like(1)
        .instructions(INSTR)
        .warmup(WARMUP);
    let s = run(&cfg, Preset::Lru, &server);
    let p = run(&cfg, Preset::Lru, &spec);
    assert!(
        s.itrans_stall_fraction() > 0.04,
        "server itrans too low: {:.3}",
        s.itrans_stall_fraction()
    );
    assert!(
        p.itrans_stall_fraction() < 0.005,
        "spec itrans too high: {:.4}",
        p.itrans_stall_fraction()
    );
    assert!(s.stlb_breakdown().instr > 1.0);
    assert!(p.stlb_breakdown().instr < 0.05);
}

#[test]
fn bigger_itlbs_reduce_instruction_translation_cost() {
    let base = SystemConfig::asplos25();
    let w = WorkloadSpec::server_like(3)
        .instructions(INSTR)
        .warmup(WARMUP);
    let small = run(&base.with_itlb_entries(64), Preset::Lru, &w);
    let large = run(&base.with_itlb_entries(1024), Preset::Lru, &w);
    assert!(
        large.itrans_stall_fraction() < small.itrans_stall_fraction(),
        "1024-entry ITLB should reduce stalls: {:.3} vs {:.3}",
        large.itrans_stall_fraction(),
        small.itrans_stall_fraction()
    );
}

#[test]
fn finding3_keeping_instructions_raises_data_walk_cache_pressure() {
    // Figure 4: an instruction-prioritizing STLB raises dtMPKI at the L2C.
    use itpx_core::presets::BuildConfig;
    let cfg = SystemConfig::asplos25();
    let w = WorkloadSpec::server_like(4)
        .instructions(INSTR)
        .warmup(WARMUP);
    let base = run(&cfg, Preset::Lru, &w);
    let keep = Simulation::single_thread(&cfg, Preset::KeepInstr(8), &w)
        .build_config(BuildConfig {
            seed: 9,
            ..BuildConfig::default()
        })
        .run();
    // Data STLB misses (and hence data page walks) must not decrease.
    assert!(
        keep.stlb_breakdown().data >= base.stlb_breakdown().data * 0.98,
        "keep-instructions should not reduce data walks: {} vs {}",
        keep.stlb_breakdown().data,
        base.stlb_breakdown().data
    );
}

#[test]
fn huge_pages_remove_the_bottleneck() {
    // Figure 13 boundary case: with 100% 2 MiB pages, walks almost vanish
    // and the policies converge.
    let cfg = SystemConfig::asplos25().with_huge_pages(itpx_vm::HugePagePolicy::uniform(1.0, 3));
    let w = WorkloadSpec::server_like(6)
        .instructions(INSTR)
        .warmup(WARMUP);
    let base = run(&cfg, Preset::Lru, &w);
    let coop = run(&cfg, Preset::ItpXptp, &w);
    assert!(
        base.stlb_mpki() < 0.5,
        "2MB-only STLB MPKI should be tiny: {}",
        base.stlb_mpki()
    );
    assert!(
        coop.speedup_pct_over(&base).abs() < 1.5,
        "policies should converge at 100% huge pages: {:+.2}%",
        coop.speedup_pct_over(&base)
    );
}

#[test]
fn split_stlb_changes_the_sharing_story() {
    // Figure 14: a same-capacity split STLB is a different design point;
    // both halves must actually serve their kind.
    let cfg = SystemConfig::asplos25().with_split_stlb(true);
    let w = WorkloadSpec::server_like(8)
        .instructions(INSTR)
        .warmup(WARMUP);
    let out = run(&cfg, Preset::Lru, &w);
    // Aggregated stats must include both instruction and data traffic.
    let b = out.stlb_breakdown();
    assert!(b.instr > 0.0 && b.data > 0.0);
}
