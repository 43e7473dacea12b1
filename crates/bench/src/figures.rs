//! One report builder per reproduced figure, all driven by a shared
//! [`Campaign`].
//!
//! `run_all` iterates [`ALL`] in-process (or picks one by name with
//! `--figure`), so every figure draws from the same scheduler and
//! simulation cache.

use crate::campaign::Campaign;
use crate::experiments::{
    calibrate, consolidation, depth_sweep, fig08, fig09, motivation, sensitivity,
};
use crate::report::{Distribution, Report};
use itpx_core::presets::{BuildConfig, LlcChoice};
use itpx_core::Preset;
use itpx_cpu::SystemConfig;
use itpx_trace::{qualcomm_like_suite, spec_like_suite};
use itpx_types::stats::geomean_speedup;

/// A named figure: what `run_all` iterates and `bench_gates campaign` times.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// Report name (`fig08`, `calibrate`, ...), as `run_all --figure` takes it.
    pub name: &'static str,
    /// Builds the figure's report through the campaign.
    pub build: fn(&Campaign) -> Report,
}

/// Every reproduced figure, in `run_all` order.
pub const ALL: &[Figure] = &[
    Figure {
        name: "calibrate",
        build: calibrate_report,
    },
    Figure {
        name: "fig01",
        build: fig01,
    },
    Figure {
        name: "fig02",
        build: fig02,
    },
    Figure {
        name: "fig03",
        build: fig03,
    },
    Figure {
        name: "fig04",
        build: fig04,
    },
    Figure {
        name: "fig08",
        build: fig08,
    },
    Figure {
        name: "fig09",
        build: fig09,
    },
    Figure {
        name: "fig11",
        build: fig11,
    },
    Figure {
        name: "fig12",
        build: fig12,
    },
    Figure {
        name: "fig13",
        build: fig13,
    },
    Figure {
        name: "fig14",
        build: fig14,
    },
    Figure {
        name: "ablations",
        build: ablations,
    },
    Figure {
        name: "ext_emissary",
        build: ext_emissary,
    },
    Figure {
        name: "ext_tship",
        build: ext_tship,
    },
    Figure {
        name: "depth_sweep",
        build: depth_sweep_report,
    },
    Figure {
        name: "consolidation",
        build: consolidation_report,
    },
];

/// Looks a figure up by its name.
pub fn by_name(name: &str) -> Option<&'static Figure> {
    ALL.iter().find(|f| f.name == name)
}

/// The calibration table (LRU baseline characteristics per workload).
pub fn calibrate_report(campaign: &Campaign) -> Report {
    let scale = campaign.scale();
    let config = SystemConfig::asplos25();
    let mut report = Report::new("Workload calibration (LRU baseline)");
    report.line(format!(
        "scale: {} workloads x {} instructions (+{} warmup), {} host threads",
        scale.workloads, scale.instructions, scale.warmup, scale.host_threads
    ));
    report.line("");
    report.line("targets (paper): server STLB MPKI >= 1, iMPKI up to ~0.9 (Fig 2),");
    report.line("itrans ~12.5% at 64-entry ITLB (Fig 1); SPEC: iMPKI ~0, itrans ~0%.");
    report.line("");

    report.line("-- Qualcomm-Server-like suite --");
    let rows =
        calibrate::calibration_table(campaign, &config, &qualcomm_like_suite(scale.workloads));
    report.line(calibrate::format_rows(&rows));

    report.line("-- SPEC-CPU-like suite --");
    let rows = calibrate::calibration_table(
        campaign,
        &config,
        &spec_like_suite((scale.workloads / 2).max(2)),
    );
    report.line(calibrate::format_rows(&rows));
    report
}

/// Figure 1: instruction-address-translation cycles vs ITLB size.
pub fn fig01(campaign: &Campaign) -> Report {
    let config = SystemConfig::asplos25();
    let mut report = Report::new("Figure 1 - instruction address translation cycles vs ITLB size");
    report
        .line("paper: server ~12.5% at 64-128 entries, needs >1024 entries to vanish; SPEC ~0.03%");
    report.line("");
    report.line(format!("{:<8} {:>6} {:>10}", "suite", "ITLB", "itrans%"));
    for cell in motivation::fig01(campaign, &config) {
        report.line(format!(
            "{:<8} {:>6} {:>9.2}%",
            cell.suite,
            cell.itlb_entries,
            cell.mean * 100.0
        ));
    }
    report
}

/// Figure 2: STLB instruction MPKI per suite.
pub fn fig02(campaign: &Campaign) -> Report {
    let config = SystemConfig::asplos25();
    let mut report = Report::new("Figure 2 - STLB instruction MPKI per suite");
    report.line("paper: server up to ~0.9 iMPKI (scaled runs sit higher); SPEC ~0");
    report.line("");
    for row in motivation::fig02(campaign, &config) {
        report.row(
            format!("{} mean iMPKI", row.suite),
            format!("{:.3}", row.mean),
        );
        report.row(
            format!("{} distribution", row.suite),
            Distribution::of(&row.impki),
        );
    }
    report
}

/// Figure 3: probabilistic keep-instructions LRU vs LRU.
pub fn fig03(campaign: &Campaign) -> Report {
    let config = SystemConfig::asplos25();
    let mut report = Report::new("Figure 3 - probabilistic keep-instructions LRU vs LRU");
    report
        .line("paper: higher P (keep instructions) helps, lower P hurts; range roughly -2.5..+5%");
    report.line("");
    for col in motivation::fig03(campaign, &config) {
        report.row(
            format!("P = {:.1}", col.p),
            format!("geomean {:+.2}%", col.geomean),
        );
    }
    report
}

/// Figure 4: cache MPKI breakdown under an instruction-keeping STLB.
pub fn fig04(campaign: &Campaign) -> Report {
    let config = SystemConfig::asplos25();
    let mut report = Report::new("Figure 4 - cache MPKI breakdown under instruction-keeping STLB");
    report.line("paper: keeping instructions raises dtMPKI (data page-walk misses) at L2C/LLC");
    report.line("");
    for bar in motivation::fig04(campaign, &config) {
        report.row(
            format!("{} / {}", bar.level, bar.stlb_policy),
            bar.breakdown,
        );
    }
    report
}

/// Figure 8: IPC improvement over LRU, single-thread and SMT.
pub fn fig08(campaign: &Campaign) -> Report {
    let scale = campaign.scale();
    let config = SystemConfig::asplos25();
    let mut report = Report::new("Figure 8 - IPC improvement over LRU (violin summaries, %)");
    report.line(format!(
        "scale: {} workloads / {} SMT pairs x {} instructions",
        scale.workloads, scale.smt_pairs, scale.instructions
    ));
    report.line("paper geomeans (1T): TDRRIP +9.3, PTP +7.1, CHiRP ~0, iTP +2.2, iTP+xPTP +18.9");
    report.line("");
    report.line("(a) single hardware thread");
    report.line(fig08::format_columns(&fig08::single_thread(
        campaign, &config,
    )));
    report.line("paper geomeans (2T): TDRRIP +8.5, PTP ~0, iTP +0.3, iTP+xPTP +11.4");
    report.line("");
    report.line("(b) two hardware threads");
    report.line(fig08::format_columns(&fig08::two_threads(
        campaign, &config,
    )));
    report
}

/// Figures 9 and 10: structure MPKI and miss latency per policy.
pub fn fig09(campaign: &Campaign) -> Report {
    let config = SystemConfig::asplos25();
    let mut report = Report::new("Figure 9+10 - structure MPKI and miss latency per policy");
    report.line("paper (1T): iTP+xPTP cuts STLB miss latency ~46%, L2C dPTE MPKI 1.0->0.4,");
    report.line("raises L2C MPKI, lowers LLC MPKI; iTP trades iMPKI down for dMPKI up (Fig 10)");
    report.line("");
    report.line("(a) single hardware thread");
    report.line(fig09::format_rows(&fig09::run(campaign, &config, false)));
    report.line("(b) two hardware threads");
    report.line(fig09::format_rows(&fig09::run(campaign, &config, true)));
    report
}

/// Figure 11: sensitivity to the LLC replacement policy.
pub fn fig11(campaign: &Campaign) -> Report {
    let config = SystemConfig::asplos25();
    let mut report = Report::new("Figure 11 - sensitivity to LLC replacement policy");
    report.line("paper (1T): iTP consistent +1.4..2.3; iTP+xPTP +18.9 (LRU), +15.8 (SHiP), +1.6 (Mockingjay)");
    report.line("");
    for smt in [false, true] {
        report.line(if smt {
            "(b) two hardware threads"
        } else {
            "(a) single hardware thread"
        });
        for cell in sensitivity::fig11(campaign, &config, smt) {
            report.row(
                format!("LLC={:<11} {}", cell.llc.name(), cell.preset),
                format!("{:+.2}%", cell.geomean_pct),
            );
        }
        report.line("");
    }
    report
}

/// Figure 12: sensitivity to ITLB size.
pub fn fig12(campaign: &Campaign) -> Report {
    let config = SystemConfig::asplos25();
    let mut report = Report::new("Figure 12 - sensitivity to ITLB size");
    report.line("paper: gains consistent for <=512-entry ITLBs, shrink at 1024 (1T)");
    report.line("");
    for smt in [false, true] {
        report.line(if smt {
            "(b) two hardware threads"
        } else {
            "(a) single hardware thread"
        });
        for cell in sensitivity::fig12(campaign, &config, smt) {
            report.row(
                format!("ITLB={:<5} {}", cell.itlb_entries, cell.preset),
                format!("{:+.2}%", cell.geomean_pct),
            );
        }
        report.line("");
    }
    report
}

/// Figure 13: allocating code and data on 2 MiB pages.
pub fn fig13(campaign: &Campaign) -> Report {
    let config = SystemConfig::asplos25();
    let mut report = Report::new("Figure 13 - allocating code and data on 2MB pages");
    report.line("paper: all gains shrink as the 2MB fraction grows; iTP+xPTP stays on top");
    report.line("");
    for smt in [false, true] {
        report.line(if smt {
            "(b) two hardware threads"
        } else {
            "(a) single hardware thread"
        });
        for cell in sensitivity::fig13(campaign, &config, smt) {
            report.row(
                format!("2MB={:>3.0}% {}", cell.fraction * 100.0, cell.preset),
                format!("{:+.2}%", cell.geomean_pct),
            );
        }
        report.line("");
    }
    report
}

/// Figure 14: unified vs split STLB.
pub fn fig14(campaign: &Campaign) -> Report {
    let config = SystemConfig::asplos25();
    let mut report = Report::new("Figure 14 - unified vs split STLB");
    report.line("paper: same-size split slightly behind unified+iTP+xPTP; 3072 unified+iTP+xPTP");
    report.line("beats 3072 split; improvements over 1536-entry unified LRU baseline");
    report.line("");
    for smt in [false, true] {
        report.line(if smt {
            "(b) two hardware threads"
        } else {
            "(a) single hardware thread"
        });
        for bar in sensitivity::fig14(campaign, &config, smt) {
            report.row(bar.label.clone(), format!("{:+.2}%", bar.geomean_pct));
        }
        report.line("");
    }
    report
}

/// Parameter ablations: iTP's N/M, xPTP's K, the adaptive threshold T1.
pub fn ablations(campaign: &Campaign) -> Report {
    let config = SystemConfig::asplos25();
    let mut report = Report::new("Ablations - iTP N/M, xPTP K, adaptive T1");
    report.line(
        "paper: N/M have little effect; K matters most (mid-stack best); iTP+xPTP geomean shown",
    );
    report.line("");
    report.line("-- iTP insertion/promotion depths --");
    for c in sensitivity::ablation_nm(campaign, &config) {
        report.row(c.setting.clone(), format!("{:+.2}%", c.geomean_pct));
    }
    report.line("");
    report.line("-- xPTP protection threshold K --");
    for c in sensitivity::ablation_k(campaign, &config) {
        report.row(c.setting.clone(), format!("{:+.2}%", c.geomean_pct));
    }
    report.line("");
    report.line("-- adaptive threshold T1 (misses per 1000-instruction epoch) --");
    for c in sensitivity::ablation_t1(campaign, &config) {
        report.row(c.setting.clone(), format!("{:+.2}%", c.geomean_pct));
    }
    report
}

/// Extension: hierarchy depth × L2C size sweep through the level chain.
pub fn depth_sweep_report(campaign: &Campaign) -> Report {
    let scale = campaign.scale();
    let mut report =
        Report::new("Extension - hierarchy depth x L2C size sweep (iTP+xPTP over LRU)");
    report.line("chains: 2-level (no LLC), 3-level (Table 1), 4-level (extra 1 MiB L3);");
    report.line("uplift is iTP+xPTP's geomean IPC gain; MPKI/rpki are the LRU baseline's");
    report.line("");
    report.line(depth_sweep::format_cells(&depth_sweep::run(
        campaign, scale,
    )));
    report
}

/// Extension: multi-tenant consolidation sweep (iTP+xPTP vs LRU at
/// 1/2/4/8 tenants under flushing round-robin switches).
pub fn consolidation_report(campaign: &Campaign) -> Report {
    let scale = campaign.scale();
    let mut report = Report::new("Extension - multi-tenant consolidation (iTP+xPTP over LRU)");
    report.line("tenants share one hardware thread via round-robin quanta with flushing");
    report.line("switches; uplift is iTP+xPTP's geomean IPC gain, walks/MPKI are the LRU");
    report.line("baseline's (how fast consolidation inflates translation pressure)");
    report.line("");
    report.line(consolidation::format_cells(&consolidation::run(
        campaign, scale,
    )));
    report
}

/// Extension: iTP+xPTP with Emissary-style code preservation at the L2C.
pub fn ext_emissary(campaign: &Campaign) -> Report {
    let scale = campaign.scale();
    let config = SystemConfig::asplos25();
    let suite: Vec<_> = qualcomm_like_suite(scale.workloads)
        .into_iter()
        .map(|w| scale.apply(w))
        .collect();
    let mut requests: Vec<crate::campaign::SimRequest> = Vec::new();
    for preset in [Preset::Lru, Preset::ItpXptp, Preset::ItpXptpEmissary] {
        requests.extend(
            suite
                .iter()
                .map(|w| crate::campaign::SimRequest::single(&config, preset, w)),
        );
    }
    let outputs = campaign.run_batch(requests);
    let base = &outputs[..suite.len()];

    let mut report = Report::new("Extension - iTP plus xPTP with Emissary-style code preservation");
    report.line("paper section 7: preserving critical code blocks at L2C on top of xPTP");
    report.line("\"has the potential to provide larger performance gains than iTP+xPTP\"");
    report.line("");
    for (i, preset) in [Preset::ItpXptp, Preset::ItpXptpEmissary]
        .iter()
        .enumerate()
    {
        let outs = &outputs[(i + 1) * suite.len()..(i + 2) * suite.len()];
        let ups: Vec<f64> = outs
            .iter()
            .zip(base)
            .map(|(o, b)| o.speedup_pct_over(b) / 100.0)
            .collect();
        let l1i_mpki: f64 = outs
            .iter()
            .map(|o| o.l1i.mpki(o.instructions()))
            .sum::<f64>()
            / outs.len() as f64;
        report.row(
            preset.name(),
            format!(
                "geomean {:+.2}%   L1I MPKI {:.2}",
                geomean_speedup(&ups) * 100.0,
                l1i_mpki
            ),
        );
    }
    report
}

/// Extension: the full T-DRRIP + T-SHiP configuration vs the paper's.
pub fn ext_tship(campaign: &Campaign) -> Report {
    let scale = campaign.scale();
    let config = SystemConfig::asplos25();
    let suite: Vec<_> = qualcomm_like_suite(scale.workloads)
        .into_iter()
        .map(|w| scale.apply(w))
        .collect();
    let cases = [
        (Preset::Tdrrip, LlcChoice::Lru, "TDRRIP (paper config)"),
        (Preset::Lru, LlcChoice::Ship, "SHiP LLC only (control)"),
        (Preset::Tdrrip, LlcChoice::TShip, "TDRRIP + T-SHiP LLC"),
        (Preset::ItpXptp, LlcChoice::Ship, "iTP+xPTP + SHiP LLC"),
        (Preset::ItpXptp, LlcChoice::TShip, "iTP+xPTP + T-SHiP LLC"),
        (Preset::ItpXptp, LlcChoice::Lru, "iTP+xPTP"),
    ];
    let mut requests: Vec<crate::campaign::SimRequest> = suite
        .iter()
        .map(|w| crate::campaign::SimRequest::single(&config, Preset::Lru, w))
        .collect();
    for (preset, llc, _) in &cases {
        let build = BuildConfig {
            llc: *llc,
            ..BuildConfig::default()
        };
        requests.extend(
            suite.iter().map(|w| {
                crate::campaign::SimRequest::single(&config, *preset, w).with_build(build)
            }),
        );
    }
    let outputs = campaign.run_batch(requests);
    let base = &outputs[..suite.len()];

    let mut report = Report::new("Extension - full TDRRIP plus T-SHiP at the LLC");
    report.line("the original ISPASS'22 proposal pairs T-DRRIP (L2C) with T-SHiP (LLC);");
    report.line("the reproduced paper uses only the L2C half. Geomean over LRU:");
    report.line("");
    for (i, (_, _, label)) in cases.iter().enumerate() {
        let outs = &outputs[(i + 1) * suite.len()..(i + 2) * suite.len()];
        let ups: Vec<f64> = outs
            .iter()
            .zip(base)
            .map(|(o, b)| o.speedup_pct_over(b) / 100.0)
            .collect();
        report.row(label, format!("{:+.2}%", geomean_speedup(&ups) * 100.0));
    }
    report
}
