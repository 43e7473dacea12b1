//! A cold campaign batch builds each generator layout once, whether a
//! prefetch helper builds the next workload's layout on an idle core or,
//! on a host with no core to spare, no helper starts; either way the
//! batch returns what each request returns run alone, and no helper
//! outlives it.
//!
//! The layout and helper counters are process-wide, so this binary holds
//! one test.

use itpx_bench::{Campaign, RunScale, SimCache, SimRequest, SimUnit};
use itpx_core::Preset;
use itpx_cpu::SystemConfig;
use itpx_trace::{TraceGenerator, WorkloadSpec};
use itpx_types::fingerprint::Fingerprint;
use std::panic::{catch_unwind, AssertUnwindSafe};

const PRESETS: [Preset; 2] = [Preset::Lru, Preset::ItpXptp];

/// A one-worker campaign: on a host with two or more cores it leaves one
/// idle for the helper.
fn campaign() -> Campaign {
    let scale = RunScale {
        workloads: 1,
        smt_pairs: 1,
        instructions: 1,
        warmup: 1,
        host_threads: 1,
    };
    Campaign::new(scale, SimCache::new(None))
}

/// Every preset of every workload, preset-major as figures submit them.
fn requests(workloads: &[WorkloadSpec]) -> Vec<SimRequest> {
    let cfg = SystemConfig::asplos25();
    PRESETS
        .iter()
        .flat_map(|&p| {
            workloads
                .iter()
                .map(move |w| SimRequest::single(&cfg, p, w))
        })
        .collect()
}

fn short(w: WorkloadSpec) -> WorkloadSpec {
    w.warmup(1_000).instructions(3_000)
}

fn message(panic: &(dyn std::any::Any + Send)) -> String {
    match panic.downcast_ref::<&str>() {
        Some(s) => (*s).to_string(),
        None => panic.downcast_ref::<String>().cloned().unwrap_or_default(),
    }
}

#[test]
fn a_cold_batch_builds_each_layout_once_and_joins_its_helper() {
    let workloads: Vec<WorkloadSpec> = (0..3)
        .flat_map(|s| {
            [
                WorkloadSpec::server_like(40 + s),
                WorkloadSpec::spec_like(50 + s),
            ]
        })
        .map(short)
        .collect();
    let batch = requests(&workloads);
    let spare_core = std::thread::available_parallelism().is_ok_and(|c| c.get() > 1);

    let builds = TraceGenerator::layouts_built();
    let hits = TraceGenerator::layout_prefetch_hits();
    let started = Campaign::prefetch_helpers_started();
    let outs = campaign().run_batch(batch.clone());
    assert_eq!(
        TraceGenerator::layouts_built() - builds,
        workloads.len() as u64,
        "layout builds"
    );
    assert_eq!(
        Campaign::prefetch_helpers_started() - started,
        u64::from(spare_core),
        "helpers started (spare core: {spare_core})"
    );
    assert_eq!(
        Campaign::prefetch_helpers_running(),
        0,
        "a helper outlived its batch"
    );
    let prefetch_hits = TraceGenerator::layout_prefetch_hits() - hits;
    assert!(
        prefetch_hits < workloads.len() as u64 && (spare_core || prefetch_hits == 0),
        "prefetch hits: {prefetch_hits}"
    );
    let alone: Vec<_> = batch.iter().map(SimRequest::execute).collect();
    assert_eq!(outs, alone);

    // A workload whose layout build panics fails from its own job, with
    // its own message, even when the helper reached it first.
    let mut bad = short(WorkloadSpec::server_like(60));
    bad.profile.fn_len_min = 2;
    let unit = |w: &WorkloadSpec| SimUnit::Single(Box::new(w.clone())).fingerprint_u64();
    assert!(
        workloads.iter().any(|w| unit(w) < unit(&bad)),
        "the bad workload runs first, so no helper would build it"
    );
    let mut with_bad = workloads.clone();
    with_bad.push(bad);
    let failed = catch_unwind(AssertUnwindSafe(|| {
        campaign().run_batch(requests(&with_bad))
    }));
    let panic = failed.expect_err("a batch with an invalid profile ran");
    assert_eq!(message(panic.as_ref()), "bad function length range");
    assert_eq!(
        Campaign::prefetch_helpers_running(),
        0,
        "a helper outlived its batch"
    );
}
