//! Non-default chain depths through the campaign engine: 2-level and
//! 4-level hierarchies must build, simulate, report, and memoize — the
//! level-chain refactor's acceptance path.

use itpx_bench::{figures, Campaign, RunScale, SimCache, SimRequest};
use itpx_core::Preset;
use itpx_cpu::SystemConfig;
use itpx_mem::HierarchyConfig;
use itpx_trace::WorkloadSpec;
use itpx_types::LevelId;
use std::path::PathBuf;

fn tiny_scale() -> RunScale {
    RunScale {
        workloads: 2,
        smt_pairs: 1,
        instructions: 6_000,
        warmup: 1_500,
        host_threads: 2,
    }
}

fn config_with(hierarchy: HierarchyConfig) -> SystemConfig {
    SystemConfig {
        hierarchy,
        ..SystemConfig::asplos25()
    }
}

fn workload(seed: u64) -> WorkloadSpec {
    WorkloadSpec::server_like(seed)
        .instructions(6_000)
        .warmup(1_500)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("itpx-depth-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn shallow_and_deep_chains_simulate_and_report() {
    let campaign = Campaign::new(tiny_scale(), SimCache::new(None));
    for (hierarchy, has_llc, has_l3) in [
        (HierarchyConfig::asplos25_no_llc(), false, false),
        (HierarchyConfig::asplos25_deep(), true, true),
    ] {
        let config = config_with(hierarchy);
        let out = campaign.run_one(SimRequest::single(&config, Preset::ItpXptp, &workload(3)));
        assert!(out.ipc() > 0.0, "chain simulates");
        assert!(out.l2c.accesses() > 0, "L2C reports through the chain");
        let llc_report = out.cache_levels.iter().any(|l| l.id == LevelId::Llc);
        let l3_report = out.cache_levels.iter().any(|l| l.id == LevelId::L3);
        assert_eq!(llc_report, has_llc, "LLC presence matches the chain");
        assert_eq!(l3_report, has_l3, "L3 presence matches the chain");
        if !has_llc {
            assert_eq!(
                out.llc.accesses(),
                0,
                "a no-LLC chain reports empty LLC stats"
            );
        }
    }
}

#[test]
fn depth_variants_key_distinctly_and_hit_on_warm_rerun() {
    let dir = temp_dir("warm");
    let scale = tiny_scale();
    let requests = || {
        [
            HierarchyConfig::asplos25_no_llc(),
            HierarchyConfig::asplos25(),
            HierarchyConfig::asplos25_deep(),
        ]
        .into_iter()
        .map(|h| SimRequest::single(&config_with(h), Preset::Lru, &workload(5)))
        .collect::<Vec<_>>()
    };

    let cold = Campaign::new(scale, SimCache::new(Some(dir.clone())));
    let first = cold.run_batch(requests());
    // Three chain depths, one workload: three distinct keys, all misses.
    assert_eq!((cold.cache().hits(), cold.cache().misses()), (0, 3));
    assert_ne!(first[0], first[1], "depth changes the simulated result");

    // A fresh campaign (fresh process, conceptually) over the same disk
    // cache serves every request warm.
    let warm = Campaign::new(tiny_scale(), SimCache::new(Some(dir.clone())));
    let second = warm.run_batch(requests());
    assert_eq!((warm.cache().hits(), warm.cache().misses()), (3, 0));
    assert_eq!(first, second, "cached results are bit-identical");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn depth_sweep_experiment_covers_the_grid() {
    let scale = RunScale {
        workloads: 1,
        instructions: 4_000,
        warmup: 1_000,
        ..tiny_scale()
    };
    let campaign = Campaign::new(scale, SimCache::new(None));
    let figure = figures::by_name("depth_sweep").expect("depth_sweep is a figure");
    let report = (figure.build)(&campaign);
    // One table row per (chain, L2C size) point: chain label, set count,
    // uplift, and the baseline's L2C MPKI and DRAM reads.
    let rows: Vec<Vec<&str>> = report
        .text()
        .lines()
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .filter(|cols| cols.len() == 5 && figures::CHAINS.iter().any(|c| c.0 == cols[0]))
        .collect();
    let points: Vec<(&str, usize)> = figures::CHAINS
        .iter()
        .flat_map(|&(chain, _)| figures::L2C_SETS.iter().map(move |&sets| (chain, sets)))
        .collect();
    assert_eq!(
        rows.len(),
        points.len(),
        "one row per point:\n{}",
        report.text()
    );
    for (cols, (chain, sets)) in rows.iter().zip(points) {
        assert_eq!((cols[0], cols[1]), (chain, sets.to_string().as_str()));
        let uplift: f64 = cols[2].trim_end_matches('%').parse().expect("uplift");
        let mpki: f64 = cols[3].parse().expect("L2C MPKI");
        assert!(
            uplift.is_finite() && mpki.is_finite(),
            "row {cols:?} must report finite numbers"
        );
    }
}
