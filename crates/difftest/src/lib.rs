//! Differential and metamorphic test harness for the itpx simulator.
//!
//! The optimized simulator earns its performance with machinery — MSHR
//! merging, walker-register contention, flat tag arrays, policy
//! objects — that is exactly where count-keeping bugs hide. This crate
//! checks it against a small, obviously-correct functional reference
//! model ([`refmodel::RefMachine`]): straight-line maps and per-set
//! recency lists, no timing, no sharing of structure code. Driven in
//! quiescent mode (events spaced far apart; see [`driver`]), the
//! optimized pipeline's counts must match the reference **bit for bit**
//! on every fuzzed trace and every hierarchy depth.
//!
//! Inputs come from the deterministic adversarial fuzzer in
//! [`itpx_trace::fuzz`]; failing event lists are shrunk to near-minimal
//! reproducers by [`shrink`]. Multi-tenant patterns interleave context
//! switches and targeted shootdowns into the event lists (see
//! [`events::events_from_spec`]), so ASID tagging is oracle-checked end
//! to end. [`metamorphic`] adds invariance properties (VPN and ASID
//! relabeling, warm/cold simcache, host-thread count, chain depth) that
//! catch bug classes a same-input comparison cannot, [`warm`] checks the
//! untimed warm path a fast-forward drives the cycle structures through
//! against the same reference, and [`tiered`] pins the tiered execution
//! engine end to end (degenerate schedules exactly reproduce flat runs;
//! fast-forwarded windows stay within tolerance of them).
//!
//! Entry point: [`run`] with a [`Scale`] — wired to
//! `cargo xtask difftest [--smoke|--full]`.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod driver;
pub mod events;
pub mod metamorphic;
pub mod refmodel;
pub mod report;
pub mod shrink;
pub mod tiered;
pub mod warm;

pub use driver::{check_events, check_spec, run_reference, run_system, EVENT_SPACING};
pub use events::{events_from_spec, events_from_trace, tenants_in, Event, EventKind};
pub use refmodel::RefMachine;
pub use report::{DiffReport, LevelCounts, StructCounts};

use itpx_bench::Sweep;
use itpx_mem::HierarchyConfig;
use itpx_trace::fuzz;

/// How much fuzzing a difftest run performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Number of fuzzed traces (each runs against every hierarchy preset).
    pub traces: usize,
    /// Instructions per fuzzed trace.
    pub instructions: usize,
    /// Master seed the trace corpus is derived from.
    pub master_seed: u64,
}

impl Scale {
    /// CI-sized run: a couple of dozen traces, ~1 s of work.
    pub fn smoke() -> Self {
        Self {
            traces: 24,
            instructions: 1_200,
            master_seed: 0x17bc_0de5,
        }
    }

    /// The acceptance-bar run: 256 traces per hierarchy preset.
    pub fn full() -> Self {
        Self {
            traces: 256,
            instructions: 1_500,
            master_seed: 0x17bc_0de5,
        }
    }
}

/// Result of a difftest run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Differential checks executed (trace × hierarchy combinations).
    pub differential_checks: usize,
    /// Warm-path checks executed (the same combinations).
    pub warm_checks: usize,
    /// Metamorphic property families evaluated.
    pub metamorphic_checks: usize,
    /// Tier-boundary handoff property families evaluated.
    pub tier_checks: usize,
    /// One line per failed check; empty means everything agreed.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Whether every check passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The hierarchy presets every trace is compared on.
fn hierarchy_presets() -> [(&'static str, HierarchyConfig); 3] {
    [
        ("asplos25", HierarchyConfig::asplos25()),
        ("asplos25_no_llc", HierarchyConfig::asplos25_no_llc()),
        ("asplos25_deep", HierarchyConfig::asplos25_deep()),
    ]
}

/// Runs the full harness at `scale` using `host_threads` worker threads:
/// every fuzzed trace differentially checked and warm-path checked on
/// every hierarchy preset, then the metamorphic and tier properties.
pub fn run_with_threads(scale: &Scale, host_threads: usize) -> Outcome {
    let specs = fuzz::corpus(scale.master_seed, scale.traces, scale.instructions);
    let presets = hierarchy_presets();
    let jobs: Vec<(fuzz::FuzzSpec, usize)> = specs
        .iter()
        .flat_map(|&spec| (0..presets.len()).map(move |p| (spec, p)))
        .collect();
    let differential_checks = jobs.len();
    let results = Sweep::new(host_threads).run_generic(jobs, |&(spec, p)| {
        let (name, hierarchy) = &presets[p];
        let differential = check_spec(&spec, name, hierarchy).err();
        differential
            .into_iter()
            .chain(warm::check_spec(&spec, name, hierarchy).err())
    });
    let mut failures: Vec<String> = results.into_iter().flatten().collect();
    failures.extend(metamorphic::run_all());
    failures.extend(tiered::run_all());
    Outcome {
        differential_checks,
        warm_checks: differential_checks,
        metamorphic_checks: metamorphic::PROPERTY_COUNT,
        tier_checks: tiered::PROPERTY_COUNT,
        failures,
    }
}

/// [`run_with_threads`] with the thread count taken from the
/// environment-configured run scale (`ITPX_THREADS`).
pub fn run(scale: &Scale) -> Outcome {
    run_with_threads(scale, itpx_bench::RunScale::from_env().host_threads)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mini_run_passes_end_to_end() {
        let scale = Scale {
            traces: 3,
            instructions: 400,
            master_seed: 0xe2e,
        };
        let outcome = run_with_threads(&scale, 2);
        assert_eq!(outcome.differential_checks, 9, "3 traces x 3 presets");
        assert_eq!(outcome.warm_checks, 9);
        assert_eq!(outcome.metamorphic_checks, 5);
        assert_eq!(outcome.tier_checks, 2);
        assert!(outcome.passed(), "failures: {:#?}", outcome.failures);
    }
}
