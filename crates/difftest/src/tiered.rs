//! Tier-boundary properties for the tiered execution engine.
//!
//! The tiered engine alternates untimed fast-forward, which warms the
//! cycle machine's own TLBs, caches and predictor, with cycle-accurate
//! measurement windows. Two properties pin the boundary between them:
//!
//! 1. **Degenerate exactness** — a schedule with zero fast-forward is
//!    the flat run chopped into windows: same instructions, same cycle
//!    stream, and (because a measurement boundary also precedes the flat
//!    run's single window) *bit-identical* measured counters. Any
//!    divergence means a boundary reset touched state it must not.
//! 2. **Window tolerance** — with real fast-forward gaps the windows
//!    measure the same real instruction stream as a flat run of equal
//!    measured length, but the warm state entering each window was built
//!    by the fast-forward over a phase-forked stream. Headline rates
//!    must therefore stay *close* to flat — broken warming (cold
//!    structures, wrong recency order, lost dirty bits) shows up as a
//!    gross rate shift long before it would fail a statistical test.
//!
//! Both properties run inside the standard difftest harness
//! ([`crate::run_with_threads`]) so every full and smoke run exercises
//! the tier boundary path alongside the quiescent-mode comparison.

use itpx_core::Preset;
use itpx_cpu::{Simulation, SimulationOutput, SystemConfig};
use itpx_trace::{TierSchedule, WorkloadSpec};
use itpx_types::StructStats;

/// Absolute tolerance on per-structure miss rates between a tiered run
/// and the flat run measuring the same instructions. A warming
/// fast-forward keeps the rates within a few points; a cold or corrupted
/// warm path shifts L1I/DTLB rates by tens of points.
const RATE_TOLERANCE: f64 = 0.15;

/// The workload both properties compare on: long enough that every
/// structure sees real pressure, short enough for CI.
fn spec() -> WorkloadSpec {
    WorkloadSpec::server_like(11).warmup(2_000)
}

fn run(spec: &WorkloadSpec) -> SimulationOutput {
    Simulation::single_thread(&SystemConfig::asplos25(), Preset::ItpXptp, spec).run()
}

/// Miss rate of one structure, 0 when it saw no traffic.
fn miss_rate(s: &StructStats) -> f64 {
    let accesses = s.accesses();
    if accesses == 0 {
        return 0.0;
    }
    s.misses() as f64 / accesses as f64
}

/// Property 1: a zero-fast-forward schedule reproduces the flat run
/// bit for bit (the `tiers` metadata field aside, which records how the
/// counters were gathered).
fn check_degenerate_exact(failures: &mut Vec<String>) {
    let flat = run(&spec().instructions(30_000));
    let mut tiered = run(&spec().tiers(TierSchedule::tiered(10_000, 0, 3)));
    if tiered.tiers == flat.tiers {
        failures.push("tiered/degenerate: schedule metadata was not recorded".into());
        return;
    }
    tiered.tiers = flat.tiers;
    if tiered != flat {
        failures.push(format!(
            "tiered/degenerate: zero-fast-forward schedule diverged from the \
             flat run (flat {} insts / {} cycles, tiered {} insts / {} cycles)",
            flat.instructions(),
            flat.threads[0].cycles,
            tiered.instructions(),
            tiered.threads[0].cycles,
        ));
    }
}

/// Property 2: with real fast-forward gaps, measured rates stay within
/// [`RATE_TOLERANCE`] of the flat run over the same measured stream.
fn check_window_tolerance(failures: &mut Vec<String>) {
    let flat = run(&spec().instructions(20_000));
    let tiered = run(&spec().tiers(TierSchedule::tiered(5_000, 25_000, 4)));
    if tiered.instructions() != flat.instructions() {
        failures.push(format!(
            "tiered/tolerance: windows measured {} instructions, flat {}",
            tiered.instructions(),
            flat.instructions(),
        ));
        return;
    }
    let rates = [
        ("l1i", &flat.l1i, &tiered.l1i),
        ("l1d", &flat.l1d, &tiered.l1d),
        ("itlb", &flat.itlb, &tiered.itlb),
        ("dtlb", &flat.dtlb, &tiered.dtlb),
    ];
    for (name, f, t) in rates {
        let (fr, tr) = (miss_rate(f), miss_rate(t));
        if (fr - tr).abs() > RATE_TOLERANCE {
            failures.push(format!(
                "tiered/tolerance: {name} miss rate {tr:.3} is more than \
                 {RATE_TOLERANCE} from the flat run's {fr:.3} — the \
                 fast-forward is not warming the cycle model"
            ));
        }
    }
    // A warming fast-forward keeps throughput in the same regime: a cold start
    // every window craters IPC (ratio well below 1), while a broken
    // cycle-accounting boundary inflates it wildly. The band is wide
    // because the fast-forward warming legitimately lifts window IPC
    // above the flat run's cold-start-diluted figure.
    let ratio = tiered.ipc() / flat.ipc();
    if !(0.4..=5.0).contains(&ratio) {
        failures.push(format!(
            "tiered/tolerance: tiered IPC {:.3} vs flat {:.3} (ratio {ratio:.2})",
            tiered.ipc(),
            flat.ipc(),
        ));
    }
}

/// Runs every tier-boundary property; returns one line per failure.
pub fn run_all() -> Vec<String> {
    let mut failures = Vec::new();
    check_degenerate_exact(&mut failures);
    check_window_tolerance(&mut failures);
    failures
}

/// Number of property families [`run_all`] evaluates.
pub const PROPERTY_COUNT: usize = 2;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degenerate_exactness_holds() {
        let mut f = Vec::new();
        check_degenerate_exact(&mut f);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn window_tolerance_holds() {
        let mut f = Vec::new();
        check_window_tolerance(&mut f);
        assert!(f.is_empty(), "{f:?}");
    }
}
