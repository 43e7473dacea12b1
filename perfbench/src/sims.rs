//! Direct simulator runs (`server-flat`, `tiered-tenants`): the benchmark
//! times `Preset::build`, `System::new` and `Engine::run` itself.

use crate::calib::{at_reference, Calibrator, RoundTiming};
use crate::checks::Checks;
use crate::inputs::{self, PRESETS};
use crate::spans::Tracer;
use itpx_core::presets::BuildConfig;
use itpx_core::Preset;
use itpx_cpu::{Engine, SimulationOutput, System, SystemConfig};
use itpx_trace::WorkloadSpec;
use std::time::Instant;

/// Machine set-ups timed back to back in each round.
const SETUPS: usize = 5;

/// Builds the machine for `preset` and runs `spec` on it, returning the
/// output and the seconds spent in `Engine::run`.
pub fn run_direct(
    spec: &WorkloadSpec,
    preset: Preset,
    tracer: &mut Tracer,
) -> (SimulationOutput, f64) {
    let cfg = SystemConfig::asplos25();
    let build = BuildConfig::default();
    tracer.open("sim");
    let bundle = tracer.span("core.preset.build", || preset.build(&cfg.dims(), &build));
    let system = tracer.span("cpu.system.new", || System::new(cfg, bundle, 1));
    let t = Instant::now();
    let out = tracer.span("cpu.engine.run", || {
        Engine::new(system, std::slice::from_ref(spec)).run(preset.name(), build.llc.name())
    });
    let run_s = t.elapsed().as_secs_f64();
    tracer.close();
    (out, run_s)
}

/// Times `Preset::build` + `System::new` [`SETUPS`] times back to back,
/// alternating the presets. Returns the raw seconds and the same at
/// reference host speed. Back to back, every set-up after the first
/// reuses memory the previous one freed, so the figure tracks the work
/// set-up does rather than how the allocator happened to trim the heap.
pub fn machine_setups(cal: &mut Calibrator, tracer: &mut Tracer) -> (Vec<f64>, Vec<f64>) {
    let cfg = SystemConfig::asplos25();
    let before = cal.speed();
    let raw: Vec<f64> = (0..SETUPS)
        .map(|i| {
            let preset = PRESETS[i % PRESETS.len()];
            let t = Instant::now();
            tracer.open("setup");
            let bundle = tracer.span("core.preset.build", || {
                preset.build(&cfg.dims(), &BuildConfig::default())
            });
            drop(tracer.span("cpu.system.new", || System::new(cfg, bundle, 1)));
            tracer.close();
            t.elapsed().as_secs_f64()
        })
        .collect();
    let speed = (before + cal.speed()) / 2.0;
    let at_ref = raw.iter().map(|&s| at_reference(s, speed)).collect();
    (raw, at_ref)
}

/// One round over a workload's specs: every spec under every preset.
#[derive(Debug, Default)]
pub struct SimRound {
    /// Summed `Engine::run` time, back-to-back machine set-ups, and the
    /// host speed around each simulation.
    pub timing: RoundTiming,
    /// Outputs in (spec, preset) order.
    pub outs: Vec<SimulationOutput>,
}

/// Runs one round. Each simulation counts as one operation, failed
/// unless it measured the instructions it asked for and, after the
/// first round, reproduced the first round's output exactly. Host speed
/// is calibrated between consecutive simulations; each simulation is
/// charged the mean of the speeds measured right before and after it.
pub fn round(
    specs: &[WorkloadSpec],
    first: Option<&SimRound>,
    cal: &mut Calibrator,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> SimRound {
    tracer.next_request();
    tracer.open("round");
    let mut r = SimRound::default();
    (r.timing.setup_s, r.timing.setup_ref_s) = machine_setups(cal, tracer);
    let mut before = cal.speed();
    for spec in specs {
        for preset in PRESETS {
            let (out, run_s) = run_direct(spec, preset, tracer);
            let after = cal.speed();
            let speed = (before + after) / 2.0;
            before = after;
            let repeat = first.map(|f| &f.outs[r.outs.len()]);
            checks.expect(
                out.instructions() == inputs::requested(spec) && repeat.is_none_or(|f| *f == out),
                || {
                    format!(
                        "{} under {}: wrong or unrepeatable output",
                        spec.name,
                        preset.name()
                    )
                },
            );
            r.timing.work_s += run_s;
            r.timing.work_ref_s += at_reference(run_s, speed);
            r.timing.speeds.push(speed);
            r.outs.push(out);
        }
    }
    tracer.close();
    r
}

/// Instructions the engine executes and the horizon it covers in one
/// round over `specs`.
pub fn round_work(specs: &[WorkloadSpec]) -> (u64, u64) {
    let n = PRESETS.len() as u64;
    let executed = specs.iter().map(inputs::executed).sum::<u64>() * n;
    let horizon = specs.iter().map(inputs::horizon).sum::<u64>() * n;
    (executed, horizon)
}
