//! How many threads a run starts: one instruction-supply thread, shared
//! by the pipe's stream, the parked tenant streams and every
//! fast-forward fork, and joined before `run` returns.
//!
//! The thread counters are process-wide, so this binary holds one test.

use itpx_core::Preset;
use itpx_cpu::{Simulation, SystemConfig};
use itpx_trace::{
    ContextSchedule, SmtCategory, SmtPairSpec, Supply, SwitchPolicy, TierSchedule, WorkloadSpec,
};

#[test]
fn a_run_starts_one_supply_thread_and_joins_it() {
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
    for (what, sim) in [
        (
            "tiered four-tenant",
            Simulation::single_thread(&cfg, Preset::ItpXptp, &tiered_tenants),
        ),
        ("flat", Simulation::single_thread(&cfg, Preset::Lru, &flat)),
        ("SMT", Simulation::smt(&cfg, Preset::Lru, &pair)),
    ] {
        let started = Supply::threads_started();
        sim.run();
        assert_eq!(
            Supply::threads_started() - started,
            1,
            "{what}: threads started"
        );
        assert_eq!(
            Supply::threads_running(),
            0,
            "{what}: a supply thread outlived its run"
        );
    }
}
