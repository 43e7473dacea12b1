//! Tiered-execution contracts: the degenerate schedule is byte-identical
//! to the classic run, fast-forwards keep windows warm, and tiered runs
//! are deterministic.

use itpx_core::Preset;
use itpx_cpu::{Simulation, SystemConfig, Tier};
use itpx_trace::{SmtCategory, SmtPairSpec, TierSchedule, WorkloadSpec};

fn base(seed: u64) -> WorkloadSpec {
    WorkloadSpec::server_like(seed)
        .instructions(30_000)
        .warmup(8_000)
}

/// A zero-fast-forward schedule whose windows sum to the flat run's
/// instruction count must reproduce the flat run *exactly* — every
/// counter, every cycle, every `f64` bit. The schedule metadata is the
/// only permitted difference.
#[test]
fn degenerate_schedule_is_byte_identical_to_flat() {
    let cfg = SystemConfig::asplos25();
    for preset in [Preset::Lru, Preset::ItpXptp] {
        let flat = Simulation::single_thread(&cfg, preset, &base(7)).run();
        let w = base(7).tiers(TierSchedule::tiered(10_000, 0, 3));
        let mut tiered = Simulation::single_thread(&cfg, preset, &w).run();
        assert!(!tiered.tiers.is_flat());
        assert_eq!(flat.tiers, TierSchedule::flat());
        tiered.tiers = flat.tiers;
        assert_eq!(flat, tiered, "{preset:?}: degenerate schedule diverged");
    }
}

/// A real tiered run: 4 windows of 5k instructions with 50k fast-forward
/// gaps covers an 11× longer horizon than it measures, stays warm across
/// every fast-forward, and reports plausible results.
#[test]
fn tiered_run_measures_windows_over_a_long_horizon() {
    let cfg = SystemConfig::asplos25();
    let schedule = TierSchedule::tiered(5_000, 50_000, 4);
    let w = WorkloadSpec::server_like(3).warmup(5_000).tiers(schedule);
    let out = Simulation::single_thread(&cfg, Preset::Lru, &w).run();
    assert_eq!(out.instructions(), 20_000, "4 × 5k measured");
    assert_eq!(out.tiers, schedule);
    assert_eq!(out.tiers.horizon(), 220_000, "11× the measured span");
    let ipc = out.ipc();
    assert!(ipc > 0.01 && ipc < 6.0, "implausible IPC {ipc}");
    assert!(out.stlb.accesses() > 0, "STLB never consulted");
    assert!(out.walker.walks > 0, "no walks on a huge footprint");
    // Post-fast-forward windows must not be cold. A cold 8-way 64-set
    // L1I would miss on nearly every distinct block; warm fast-forwards
    // keep the hit rate high.
    let l1i_miss_rate = out.l1i.misses() as f64 / out.l1i.accesses().max(1) as f64;
    assert!(
        l1i_miss_rate < 0.5,
        "L1I miss rate {l1i_miss_rate:.2} suggests windows started cold"
    );
}

/// Same spec, same schedule, two runs: identical output (the phase fork
/// is deterministic per segment).
#[test]
fn tiered_runs_are_deterministic() {
    let cfg = SystemConfig::asplos25();
    let w = WorkloadSpec::server_like(5)
        .warmup(4_000)
        .tiers(TierSchedule::tiered(4_000, 30_000, 3));
    let a = Simulation::single_thread(&cfg, Preset::ItpXptp, &w).run();
    let b = Simulation::single_thread(&cfg, Preset::ItpXptp, &w).run();
    assert_eq!(a, b);
}

/// Fast-forwards warm whichever STLB organization the machine has, so a
/// split STLB runs tiered as well, deterministically.
#[test]
fn split_stlb_tiered_runs_complete_deterministically() {
    let cfg = SystemConfig::asplos25().with_split_stlb(true);
    let w = WorkloadSpec::server_like(5)
        .warmup(4_000)
        .tiers(TierSchedule::tiered(4_000, 30_000, 3));
    let a = Simulation::single_thread(&cfg, Preset::Lru, &w).run();
    let b = Simulation::single_thread(&cfg, Preset::Lru, &w).run();
    assert_eq!(a, b);
    assert_eq!(a.instructions(), 12_000, "3 × 4k measured");
    assert!(a.stlb.accesses() > 0, "STLB never consulted");
}

/// Runs `a` and `b` as an SMT pair.
fn smt(a: WorkloadSpec, b: WorkloadSpec) {
    let pair = SmtPairSpec {
        a,
        b,
        category: SmtCategory::Intense,
    };
    Simulation::smt(&SystemConfig::asplos25(), Preset::Lru, &pair).run();
}

/// Tiered SMT is not defined yet, so a tiered thread 0 is rejected
/// rather than run.
#[test]
#[should_panic(expected = "single hardware thread")]
fn smt_rejects_a_tiered_thread_0() {
    let tiered = base(7).tiers(TierSchedule::tiered(5_000, 50_000, 2));
    smt(tiered, base(8));
}

/// Thread 1's schedule is checked too: a tiered thread 1 must not run
/// as a flat one under a simcache key that fingerprints its schedule.
#[test]
#[should_panic(expected = "single hardware thread")]
fn smt_rejects_a_tiered_thread_1() {
    let tiered = base(8).tiers(TierSchedule::tiered(5_000, 50_000, 2));
    smt(base(7), tiered);
}

/// The schedule lowers into the segment sequence the engine executes.
#[test]
fn schedule_lowers_to_alternating_segments() {
    let s = TierSchedule::tiered(1_000, 9_000, 2);
    assert_eq!(
        Tier::segments(&s),
        vec![
            Tier::FastForward {
                instructions: 9_000
            },
            Tier::Window {
                instructions: 1_000
            },
            Tier::FastForward {
                instructions: 9_000
            },
            Tier::Window {
                instructions: 1_000
            },
        ]
    );
    // Back-to-back windows: no fast-forward segments.
    let s = TierSchedule::tiered(1_000, 0, 2);
    assert_eq!(
        Tier::segments(&s),
        vec![
            Tier::Window {
                instructions: 1_000
            },
            Tier::Window {
                instructions: 1_000
            },
        ]
    );
    assert!(Tier::segments(&TierSchedule::flat()).is_empty());
}
