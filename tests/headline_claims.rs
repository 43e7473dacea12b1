//! Integration tests asserting the paper's headline claims hold on the
//! reduced-scale suites (directional, not absolute — see EXPERIMENTS.md).

use itpx::prelude::*;
use itpx_trace::suites::{qualcomm_like_suite, smt_suite};
use itpx_trace::TierSchedule;
use itpx_types::stats::geomean_speedup;

// The cooperative effects need room to develop: the code ring cycles its
// footprint every ~150k instructions and xPTP's protection pays off across
// PTE reuse intervals of similar scale, so headline assertions run longer
// than the other integration tests.
const INSTR: u64 = 500_000;
const WARMUP: u64 = 150_000;

fn suite(n: usize) -> Vec<WorkloadSpec> {
    qualcomm_like_suite(n)
        .into_iter()
        .map(|w| w.instructions(INSTR).warmup(WARMUP))
        .collect()
}

fn geomean_uplift(outs: &[(f64, f64)]) -> f64 {
    geomean_speedup(&outs.iter().map(|(p, b)| p / b - 1.0).collect::<Vec<_>>()) * 100.0
}

#[test]
fn itp_xptp_beats_lru_on_every_server_workload() {
    let cfg = SystemConfig::asplos25();
    for w in suite(4) {
        let base = Simulation::single_thread(&cfg, Preset::Lru, &w).run();
        let coop = Simulation::single_thread(&cfg, Preset::ItpXptp, &w).run();
        assert!(
            coop.ipc() > base.ipc(),
            "{}: coop {:.4} <= lru {:.4}",
            w.name,
            coop.ipc(),
            base.ipc()
        );
    }
}

#[test]
fn headline_ordering_holds() {
    // Paper Figure 8a: iTP+xPTP > TDRRIP > iTP > CHiRP ~ LRU (geomean).
    let cfg = SystemConfig::asplos25();
    let ws = suite(3);
    let run = |preset: Preset| -> Vec<f64> {
        ws.iter()
            .map(|w| Simulation::single_thread(&cfg, preset, w).run().ipc())
            .collect()
    };
    let base = run(Preset::Lru);
    let up = |preset: Preset| -> f64 {
        let outs = run(preset);
        geomean_uplift(
            &outs
                .into_iter()
                .zip(base.iter().copied())
                .collect::<Vec<_>>(),
        )
    };
    let coop = up(Preset::ItpXptp);
    let tdrrip = up(Preset::Tdrrip);
    let itp = up(Preset::Itp);
    let chirp = up(Preset::Chirp);
    assert!(coop > tdrrip, "coop {coop:.2} <= tdrrip {tdrrip:.2}");
    assert!(coop > itp, "coop {coop:.2} <= itp {itp:.2}");
    assert!(itp > -0.5, "iTP should not lose materially: {itp:.2}");
    assert!(chirp.abs() < 3.0, "CHiRP should track LRU: {chirp:.2}");
}

#[test]
fn cooperative_mechanism_signatures() {
    // Figure 10: iTP cuts instruction MPKI and raises data MPKI.
    // Section 6.2: +xPTP slashes L2C data-PTE misses and STLB miss latency.
    let cfg = SystemConfig::asplos25();
    let w = WorkloadSpec::server_like(2)
        .instructions(INSTR)
        .warmup(WARMUP);
    let base = Simulation::single_thread(&cfg, Preset::Lru, &w).run();
    let itp = Simulation::single_thread(&cfg, Preset::Itp, &w).run();
    let coop = Simulation::single_thread(&cfg, Preset::ItpXptp, &w).run();

    let b0 = base.stlb_breakdown();
    let b1 = itp.stlb_breakdown();
    assert!(
        b1.instr < b0.instr * 0.7,
        "iTP must cut instruction STLB MPKI: {} -> {}",
        b0.instr,
        b1.instr
    );
    // "Data translation MPKI suffers an increase" — on average; a single
    // workload may be near-flat, so allow slight noise downward.
    assert!(
        b1.data >= b0.data * 0.97,
        "iTP must not reduce data misses: {} -> {}",
        b0.data,
        b1.data
    );
    assert!(
        coop.l2c_breakdown().data_pte < base.l2c_breakdown().data_pte * 0.6,
        "xPTP must cut L2C data-PTE misses: {} -> {}",
        base.l2c_breakdown().data_pte,
        coop.l2c_breakdown().data_pte
    );
    assert!(
        coop.stlb.avg_miss_latency() < itp.stlb.avg_miss_latency(),
        "xPTP must cut STLB miss latency vs iTP alone"
    );
}

#[test]
fn tiered_runs_keep_the_cooperative_signature() {
    // A fast-forward warms the machine's own TLBs, PSCs and caches, so
    // iTP's recency state and xPTP's PTE protection carry across every
    // gap. Each window then shows the mechanism: iTP+xPTP ahead of LRU,
    // with fewer L2C data-PTE misses. Warming a policy-free copy of the
    // structures instead would leave every window LRU-warmed.
    let cfg = SystemConfig::asplos25();
    for seed in [3, 7, 11, 19] {
        let w = WorkloadSpec::server_like(seed)
            .warmup(20_000)
            .tiers(TierSchedule::tiered(5_000, 50_000, 4));
        let base = Simulation::single_thread(&cfg, Preset::Lru, &w).run();
        let coop = Simulation::single_thread(&cfg, Preset::ItpXptp, &w).run();
        assert!(
            coop.ipc() > base.ipc(),
            "seed {seed}: tiered coop IPC {:.4} <= lru {:.4}",
            coop.ipc(),
            base.ipc()
        );
        let (b, c) = (base.l2c_breakdown(), coop.l2c_breakdown());
        assert!(
            c.data_pte < b.data_pte,
            "seed {seed}: tiered L2C data-PTE MPKI {:.2} (coop) >= {:.2} (lru)",
            c.data_pte,
            b.data_pte
        );
    }
}

#[test]
fn smt_colocation_gains() {
    // Paper Figure 8b: iTP+xPTP delivers gains under SMT too.
    let cfg = SystemConfig::asplos25();
    let mut pair = smt_suite(1).remove(0);
    pair.a = pair.a.instructions(INSTR).warmup(WARMUP);
    pair.b = pair.b.instructions(INSTR).warmup(WARMUP);
    let base = Simulation::smt(&cfg, Preset::Lru, &pair).run();
    let coop = Simulation::smt(&cfg, Preset::ItpXptp, &pair).run();
    assert!(
        coop.speedup_pct_over(&base) > 1.0,
        "SMT uplift too small: {:.2}%",
        coop.speedup_pct_over(&base)
    );
}

#[test]
fn adaptive_monitor_stays_engaged_under_pressure() {
    let cfg = SystemConfig::asplos25();
    let w = WorkloadSpec::server_like(5)
        .instructions(INSTR)
        .warmup(WARMUP);
    let coop = Simulation::single_thread(&cfg, Preset::ItpXptp, &w).run();
    let f = coop.xptp_enabled_fraction.expect("monitor present");
    assert!(f > 0.8, "server pressure should keep xPTP on: {f:.2}");
}

#[test]
fn spec_like_workloads_are_not_harmed() {
    // The adaptive switch exists so low-pressure phases are not hurt.
    let cfg = SystemConfig::asplos25();
    let w = WorkloadSpec::spec_like(1)
        .instructions(INSTR)
        .warmup(WARMUP);
    let base = Simulation::single_thread(&cfg, Preset::Lru, &w).run();
    let coop = Simulation::single_thread(&cfg, Preset::ItpXptp, &w).run();
    assert!(
        coop.speedup_pct_over(&base) > -2.0,
        "SPEC-like regression too large: {:.2}%",
        coop.speedup_pct_over(&base)
    );
}
