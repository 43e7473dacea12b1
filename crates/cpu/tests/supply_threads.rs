//! How many threads a run starts: one instruction-supply thread per
//! hardware thread, which a tenant switch keeps (it swaps the stream's
//! source), plus one warm-stage producer thread per fast-forward segment
//! (which draws its phase forks itself, not from the supply). All of them
//! are joined before `run` returns. Only fast-forwards wait on warm-stage
//! chunks.
//!
//! The thread counters are process-wide, so this binary holds one test.

use itpx_core::Preset;
use itpx_cpu::{Engine, Simulation, SystemConfig};
use itpx_trace::{
    ContextSchedule, SmtCategory, SmtPairSpec, SupplyStream, SwitchPolicy, TierSchedule,
    WorkloadSpec,
};

#[test]
fn a_run_starts_one_supply_thread_per_hardware_thread_and_joins_them() {
    let cfg = SystemConfig::asplos25();
    let tiered_tenants = WorkloadSpec::server_like(4)
        .warmup(2_000)
        .tiers(TierSchedule::tiered(1_000, 8_000, 12))
        .contexts(ContextSchedule::round_robin(4, 2_500, SwitchPolicy::FlushAsid).shootdowns(500));
    let flat = WorkloadSpec::spec_like(2).warmup(1_000).instructions(3_000);
    let pair = SmtPairSpec {
        a: flat.clone(),
        b: WorkloadSpec::server_like(3)
            .warmup(1_000)
            .instructions(3_000),
        category: SmtCategory::Relaxed,
    };
    for (what, sim, supply, segments) in [
        (
            "tiered four-tenant",
            Simulation::single_thread(&cfg, Preset::ItpXptp, &tiered_tenants),
            1,
            12,
        ),
        (
            "flat",
            Simulation::single_thread(&cfg, Preset::Lru, &flat),
            1,
            0,
        ),
        ("SMT", Simulation::smt(&cfg, Preset::Lru, &pair), 2, 0),
    ] {
        let started = SupplyStream::threads_started();
        let warm_started = Engine::warm_threads_started();
        let stalls = Engine::warm_stalls();
        sim.run();
        assert_eq!(
            SupplyStream::threads_started() - started,
            supply,
            "{what}: supply threads started"
        );
        assert_eq!(
            SupplyStream::threads_running(),
            0,
            "{what}: a supply thread outlived its run"
        );
        assert_eq!(
            Engine::warm_threads_started() - warm_started,
            segments,
            "{what}: warm-stage threads started"
        );
        assert_eq!(
            Engine::warm_threads_running(),
            0,
            "{what}: a warm-stage thread outlived its run"
        );
        if segments == 0 {
            assert_eq!(Engine::warm_stalls(), stalls, "{what}: warm-stage waits");
        }
    }
}
