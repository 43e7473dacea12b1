//! The [`Simulation`] facade: configure, run, get results.

use crate::config::SystemConfig;
use crate::engine::Engine;
use crate::output::SimulationOutput;
use crate::system::System;
use itpx_core::presets::{BuildConfig, PolicyBundle};
use itpx_core::Preset;
use itpx_trace::{SmtPairSpec, TraceLoop, WorkloadSource, WorkloadSpec};

/// One configured simulation run.
///
/// # Examples
///
/// ```
/// use itpx_cpu::{Simulation, SystemConfig};
/// use itpx_core::Preset;
/// use itpx_trace::WorkloadSpec;
///
/// let cfg = SystemConfig::asplos25();
/// let w = WorkloadSpec::server_like(3).instructions(5_000).warmup(1_000);
/// let lru = Simulation::single_thread(&cfg, Preset::Lru, &w).run();
/// let itp = Simulation::single_thread(&cfg, Preset::Itp, &w).run();
/// let _uplift = itp.speedup_pct_over(&lru);
/// ```
#[derive(Debug)]
pub struct Simulation {
    config: SystemConfig,
    build: BuildConfig,
    source: Source,
    workloads: Vec<WorkloadSource>,
}

#[derive(Debug)]
enum Source {
    Preset(Preset),
    // Boxed: a bundle of inline policy engines is hundreds of bytes, and
    // this setup-only enum is consumed once when the run starts.
    Custom {
        bundle: Box<PolicyBundle>,
        label: String,
    },
}

impl Simulation {
    /// A single-thread run of `preset` on workload `w`.
    pub fn single_thread(config: &SystemConfig, preset: Preset, w: &WorkloadSpec) -> Self {
        Self {
            config: *config,
            build: BuildConfig::default(),
            source: Source::Preset(preset),
            workloads: vec![w.clone().into()],
        }
    }

    /// A single-thread run of `preset` replaying a recorded trace in a
    /// loop (see [`itpx_trace::TraceLoop`]); `name` labels the run.
    pub fn replay(
        config: &SystemConfig,
        preset: Preset,
        name: impl Into<String>,
        insts: Vec<itpx_trace::TraceInst>,
        instructions: u64,
        warmup: u64,
    ) -> Self {
        Self {
            config: *config,
            build: BuildConfig::default(),
            source: Source::Preset(preset),
            workloads: vec![WorkloadSource::Replay {
                name: name.into(),
                stream: TraceLoop::new(insts),
                instructions,
                warmup,
            }],
        }
    }

    /// A two-hardware-thread (SMT) run replaying two recorded traces.
    #[allow(clippy::too_many_arguments)]
    pub fn replay_pair(
        config: &SystemConfig,
        preset: Preset,
        a: (String, Vec<itpx_trace::TraceInst>),
        b: (String, Vec<itpx_trace::TraceInst>),
        instructions: u64,
        warmup: u64,
    ) -> Self {
        let replay = |(name, insts): (String, Vec<itpx_trace::TraceInst>)| WorkloadSource::Replay {
            name,
            stream: TraceLoop::new(insts),
            instructions,
            warmup,
        };
        Self {
            config: *config,
            build: BuildConfig::default(),
            source: Source::Preset(preset),
            workloads: vec![replay(a), replay(b)],
        }
    }

    /// A two-hardware-thread (SMT) run of `preset` on a workload pair.
    pub fn smt(config: &SystemConfig, preset: Preset, pair: &SmtPairSpec) -> Self {
        Self {
            config: *config,
            build: BuildConfig::default(),
            source: Source::Preset(preset),
            workloads: vec![pair.a.clone().into(), pair.b.clone().into()],
        }
    }

    /// A run with hand-built policies (see `examples/custom_policy.rs`);
    /// `label` names the configuration in the output. Its results are not
    /// keyed, so campaigns never cache them.
    pub fn custom(
        config: &SystemConfig,
        bundle: PolicyBundle,
        label: impl Into<String>,
        workloads: &[WorkloadSpec],
    ) -> Self {
        Self {
            config: *config,
            build: BuildConfig::default(),
            source: Source::Custom {
                bundle: Box::new(bundle),
                label: label.into(),
            },
            workloads: workloads.iter().cloned().map(Into::into).collect(),
        }
    }

    /// Overrides the policy build knobs (LLC choice, iTP/xPTP parameters,
    /// adaptive threshold). Ignored for [`Simulation::custom`] runs.
    #[must_use]
    pub fn build_config(mut self, build: BuildConfig) -> Self {
        self.build = build;
        self
    }

    /// Runs the simulation to completion.
    pub fn run(self) -> SimulationOutput {
        let threads = self.workloads.len();
        let (bundle, label) = match self.source {
            Source::Preset(p) => (
                p.build(&self.config.dims(), &self.build),
                p.name().to_string(),
            ),
            Source::Custom { bundle, label } => (*bundle, label),
        };
        let llc_name = self.build.llc.name().to_string();
        let system = System::new(self.config, bundle, threads);
        Engine::from_sources(system, self.workloads).run(&label, &llc_name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itpx_core::presets::LlcChoice;
    use itpx_trace::suites;

    fn tiny(seed: u64) -> WorkloadSpec {
        WorkloadSpec::server_like(seed)
            .instructions(20_000)
            .warmup(5_000)
    }

    #[test]
    fn single_thread_run_produces_sane_output() {
        let cfg = SystemConfig::asplos25();
        let out = Simulation::single_thread(&cfg, Preset::Lru, &tiny(1)).run();
        assert_eq!(out.threads.len(), 1);
        assert_eq!(out.instructions(), 20_000);
        let ipc = out.ipc();
        // Short cold runs over a multi-megabyte footprint are
        // DRAM-bound, so the floor is low.
        assert!(ipc > 0.01 && ipc < 6.0, "implausible IPC {ipc}");
        assert!(out.stlb.accesses() > 0, "STLB never consulted");
        assert!(out.walker.walks > 0, "no page walks on a huge footprint");
        assert!(out.l2c.accesses() > 0);
    }

    #[test]
    fn server_workloads_pressure_the_stlb() {
        let cfg = SystemConfig::asplos25();
        let out = Simulation::single_thread(&cfg, Preset::Lru, &tiny(2)).run();
        assert!(
            out.stlb_mpki() > 1.0,
            "server workload should exceed the paper's MPKI >= 1 selection bar, got {}",
            out.stlb_mpki()
        );
        let b = out.stlb_breakdown();
        assert!(b.instr > 0.0, "instruction STLB misses expected");
    }

    #[test]
    fn spec_workloads_barely_miss_on_instructions() {
        let cfg = SystemConfig::asplos25();
        let w = WorkloadSpec::spec_like(1)
            .instructions(20_000)
            .warmup(5_000);
        let out = Simulation::single_thread(&cfg, Preset::Lru, &w).run();
        let b = out.stlb_breakdown();
        assert!(
            b.instr < 0.05,
            "SPEC-like code fits the ITLB, got iMPKI {}",
            b.instr
        );
        assert!(out.itrans_stall_fraction() < 0.02);
    }

    #[test]
    fn smt_run_reports_two_threads() {
        let cfg = SystemConfig::asplos25();
        let pair = &suites::smt_suite(1)[0];
        let mut pair = pair.clone();
        pair.a = pair.a.instructions(15_000).warmup(3_000);
        pair.b = pair.b.instructions(15_000).warmup(3_000);
        let out = Simulation::smt(&cfg, Preset::Lru, &pair).run();
        assert_eq!(out.threads.len(), 2);
        assert!(out.ipc() > 0.01);
        assert!(out.threads[0].cycles > 0 && out.threads[1].cycles > 0);
    }

    #[test]
    fn runs_are_deterministic() {
        let cfg = SystemConfig::asplos25();
        let a = Simulation::single_thread(&cfg, Preset::ItpXptp, &tiny(5)).run();
        let b = Simulation::single_thread(&cfg, Preset::ItpXptp, &tiny(5)).run();
        assert_eq!(a, b);
    }

    #[test]
    fn llc_choice_is_plumbed_through() {
        let cfg = SystemConfig::asplos25();
        let out = Simulation::single_thread(&cfg, Preset::Itp, &tiny(1))
            .build_config(BuildConfig {
                llc: LlcChoice::Ship,
                ..BuildConfig::default()
            })
            .run();
        assert_eq!(out.llc_policy, "SHiP");
    }

    #[test]
    fn itp_xptp_reports_monitor_activity() {
        let cfg = SystemConfig::asplos25();
        let out = Simulation::single_thread(&cfg, Preset::ItpXptp, &tiny(3)).run();
        let f = out.xptp_enabled_fraction.expect("monitor present");
        assert!(
            f > 0.5,
            "high-pressure workload should keep xPTP mostly on, got {f}"
        );
        let lru = Simulation::single_thread(&cfg, Preset::Lru, &tiny(3)).run();
        assert_eq!(lru.xptp_enabled_fraction, None);
    }
}
