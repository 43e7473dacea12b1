//! Multi-tenant execution contracts: the flat context schedule is
//! byte-identical to a classic run, consolidation runs are deterministic
//! in both execution tiers, and the switch-policy/shootdown/churn knobs
//! move the translation counters the way the hardware story says they
//! should.

use itpx_core::Preset;
use itpx_cpu::{Simulation, SystemConfig};
use itpx_trace::{
    ContextSchedule, SmtCategory, SmtPairSpec, SwitchPolicy, TierSchedule, WorkloadSpec,
};

fn base(seed: u64) -> WorkloadSpec {
    WorkloadSpec::server_like(seed)
        .instructions(30_000)
        .warmup(8_000)
}

fn consolidated(tenants: u16, policy: SwitchPolicy) -> WorkloadSpec {
    base(7).contexts(ContextSchedule::round_robin(tenants, 3_000, policy))
}

/// The explicit flat schedule must reproduce the untouched spec's run
/// *exactly* — every counter, every cycle, every `f64` bit. This is the
/// degenerate-case gate: single-tenant behavior (and goldens) cannot move.
#[test]
fn flat_contexts_are_byte_identical_to_the_classic_run() {
    let cfg = SystemConfig::asplos25();
    for preset in [Preset::Lru, Preset::ItpXptp] {
        let classic = Simulation::single_thread(&cfg, preset, &base(7)).run();
        let w = base(7).contexts(ContextSchedule::flat());
        let flat = Simulation::single_thread(&cfg, preset, &w).run();
        assert_eq!(classic, flat, "{preset:?}: flat contexts diverged");
    }
}

/// A 2-tenant round-robin run completes, reports plausible results, and
/// is bit-for-bit reproducible.
#[test]
fn consolidation_run_is_deterministic_and_sane() {
    let cfg = SystemConfig::asplos25();
    let w = consolidated(2, SwitchPolicy::FlushAsid);
    let a = Simulation::single_thread(&cfg, Preset::Lru, &w).run();
    let b = Simulation::single_thread(&cfg, Preset::Lru, &w).run();
    assert_eq!(a, b, "consolidation run not deterministic");
    let ipc = a.ipc();
    assert!(ipc > 0.01 && ipc < 6.0, "implausible IPC {ipc}");
    assert!(a.walker.walks > 0, "tenants never walked");
    assert!(a.stlb.misses() > 0, "tenants never missed the STLB");
}

/// Tag-preserving switches keep each tenant's translations live across
/// quanta; flushing switches restart every quantum cold. The flush run
/// must therefore walk strictly more.
#[test]
fn flush_policy_walks_more_than_preserve() {
    let cfg = SystemConfig::asplos25();
    let flush =
        Simulation::single_thread(&cfg, Preset::Lru, &consolidated(2, SwitchPolicy::FlushAsid))
            .run();
    let preserve =
        Simulation::single_thread(&cfg, Preset::Lru, &consolidated(2, SwitchPolicy::Preserve))
            .run();
    assert!(
        flush.walker.walks > preserve.walker.walks,
        "flushing switches must force more walks ({} vs {})",
        flush.walker.walks,
        preserve.walker.walks
    );
}

/// More tenants sharing one STLB means more capacity pressure: walks grow
/// monotonically from 1 to 4 tenants under the preserving policy.
#[test]
fn tenant_pressure_grows_with_consolidation() {
    let cfg = SystemConfig::asplos25();
    let single = Simulation::single_thread(&cfg, Preset::Lru, &base(7)).run();
    let quad =
        Simulation::single_thread(&cfg, Preset::Lru, &consolidated(4, SwitchPolicy::Preserve))
            .run();
    assert!(
        quad.walker.walks > single.walker.walks,
        "4 tenants must out-walk 1 ({} vs {})",
        quad.walker.walks,
        single.walker.walks
    );
}

/// Shootdown and churn cadences inject invalidations both tiers must
/// absorb: the run stays deterministic and walks strictly more than the
/// cadence-free schedule (every fired event destroys live translations).
#[test]
fn shootdowns_and_churn_force_extra_walks() {
    let cfg = SystemConfig::asplos25();
    let calm = consolidated(2, SwitchPolicy::Preserve);
    let stormy = base(7).contexts(
        ContextSchedule::round_robin(2, 3_000, SwitchPolicy::Preserve)
            .shootdowns(500)
            .churn(2_000),
    );
    let calm_out = Simulation::single_thread(&cfg, Preset::Lru, &calm).run();
    let a = Simulation::single_thread(&cfg, Preset::Lru, &stormy).run();
    let b = Simulation::single_thread(&cfg, Preset::Lru, &stormy).run();
    assert_eq!(a, b, "storm run not deterministic");
    assert!(
        a.walker.walks > calm_out.walker.walks,
        "cadence events must force extra walks ({} vs {})",
        a.walker.walks,
        calm_out.walker.walks
    );
}

/// Global pages are exempt from tag matching and survive flushing
/// switches, so a run with a shared global fraction walks less than the
/// same run with fully private address spaces.
#[test]
fn global_pages_survive_flushing_switches() {
    let cfg = SystemConfig::asplos25();
    let private = consolidated(2, SwitchPolicy::FlushAsid);
    let shared = base(7)
        .contexts(ContextSchedule::round_robin(2, 3_000, SwitchPolicy::FlushAsid).globals(0.5, 11));
    let p = Simulation::single_thread(&cfg, Preset::Lru, &private).run();
    let s = Simulation::single_thread(&cfg, Preset::Lru, &shared).run();
    assert!(
        s.walker.walks < p.walker.walks,
        "shared globals must reduce re-walks ({} vs {})",
        s.walker.walks,
        p.walker.walks
    );
}

/// The multi-tenant schedule composes with tiered execution: the
/// schedule clock spans fast-forwards and windows, both tiers fire the
/// same switches, and the run stays deterministic.
#[test]
fn tiered_and_multi_tenant_schedules_compose() {
    let cfg = SystemConfig::asplos25();
    let w = WorkloadSpec::server_like(3)
        .warmup(5_000)
        .tiers(TierSchedule::tiered(5_000, 20_000, 3))
        .contexts(
            ContextSchedule::round_robin(2, 3_000, SwitchPolicy::FlushAsid)
                .shootdowns(700)
                .churn(2_500),
        );
    let a = Simulation::single_thread(&cfg, Preset::Lru, &w).run();
    let b = Simulation::single_thread(&cfg, Preset::Lru, &w).run();
    assert_eq!(a, b, "tiered multi-tenant run not deterministic");
    assert_eq!(a.instructions(), 15_000, "3 × 5k measured");
    let ipc = a.ipc();
    assert!(ipc > 0.01 && ipc < 6.0, "implausible IPC {ipc}");
}

/// Tenants are scheduled over one hardware thread, so a multi-tenant
/// thread 1 is rejected rather than run with only tenant 0.
#[test]
#[should_panic(expected = "single hardware thread")]
fn smt_rejects_a_multi_tenant_thread_1() {
    let pair = SmtPairSpec {
        a: base(8),
        b: consolidated(4, SwitchPolicy::FlushAsid),
        category: SmtCategory::Intense,
    };
    Simulation::smt(&SystemConfig::asplos25(), Preset::Lru, &pair).run();
}
