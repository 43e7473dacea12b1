//! One report builder per reproduced figure, all driven by a shared
//! [`Campaign`].
//!
//! `run_all` iterates [`ALL`] in-process (or picks one by name with
//! `--figure`), so every figure draws from the same scheduler and
//! simulation cache.
//!
//! Every figure is a grid of blocks — one preset under one configuration
//! and build over one scaled suite — that `batch` submits as a single
//! campaign batch. Rows are formatted straight from each block's outputs,
//! most of them through `uplift`, the geomean IPC gain of a block over
//! its LRU baseline.

use crate::campaign::{Campaign, SimRequest, SimUnit};
use crate::csv::CsvSink;
use crate::harness::RunScale;
use crate::plot::violin_panel;
use crate::report::{Distribution, Report};
use itpx_core::presets::{BuildConfig, LlcChoice, PolicyBundle};
use itpx_core::{ItpParams, Preset, XptpParams};
use itpx_cpu::{Simulation, SimulationOutput, SystemConfig};
use itpx_mem::HierarchyConfig;
use itpx_policy::{Lru, ProbKeepInstrLru};
use itpx_trace::{
    qualcomm_like_suite, smt_suite, spec_like_suite, ContextSchedule, SwitchPolicy, WorkloadSpec,
};
use itpx_types::stats::geomean_speedup;
use itpx_types::MpkiBreakdown;

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

/// The ITLB sizes swept by Figure 1.
pub const FIG1_ITLB_SIZES: [usize; 5] = [8, 64, 128, 512, 1024];

/// The keep-instruction probabilities of Figure 3.
pub const FIG3_PROBABILITIES: [f64; 4] = [0.2, 0.4, 0.6, 0.8];

/// The ITLB sizes of Figure 12.
pub const FIG12_ITLB_SIZES: [usize; 4] = [1024, 512, 128, 64];

/// The 2 MiB-page footprint fractions of Figure 13.
pub const FIG13_FRACTIONS: [f64; 4] = [0.0, 0.1, 0.5, 1.0];

/// A labeled hierarchy preset: depth-sweep table name plus constructor.
pub type ChainVariant = (&'static str, fn() -> HierarchyConfig);

/// The chain variants the depth sweep covers, shallow to deep.
pub const CHAINS: &[ChainVariant] = &[
    ("2-level", HierarchyConfig::asplos25_no_llc),
    ("3-level", HierarchyConfig::asplos25),
    ("4-level", HierarchyConfig::asplos25_deep),
];

/// L2C set counts the depth sweep crosses with each chain (8 ways; 1024
/// is Table 1's 512 KiB).
pub const L2C_SETS: &[usize] = &[512, 1024, 2048];

/// Tenant counts the consolidation sweep covers (1 = the classic
/// single-tenant run); `ITPX_TENANTS` caps it.
pub const TENANTS: &[u16] = &[1, 2, 4, 8];

/// Consolidation scheduler quantum in instructions: small enough that
/// every measurement window spans many switches, large enough that a
/// tenant re-warms its TLB footprint inside one quantum.
pub const QUANTUM: u64 = 2_500;

type Outputs = Vec<SimulationOutput>;

/// One block of a figure's batch: `preset` under `config` and `build`
/// over every unit of `suite`.
#[derive(Debug, Clone, Copy)]
struct Block<'s> {
    suite: &'s [SimUnit],
    config: SystemConfig,
    build: BuildConfig,
    preset: Preset,
}

impl<'s> Block<'s> {
    fn new(suite: &'s [SimUnit], config: SystemConfig, preset: Preset) -> Self {
        Self {
            suite,
            config,
            build: BuildConfig::default(),
            preset,
        }
    }

    fn build(self, build: BuildConfig) -> Self {
        Self { build, ..self }
    }
}

/// Submits every labeled block as one campaign batch, in block order,
/// and returns each label with its block's outputs.
fn batch<L>(campaign: &Campaign, blocks: Vec<(L, Block)>) -> Vec<(L, Outputs)> {
    let requests = blocks
        .iter()
        .flat_map(|(_, b)| {
            b.suite.iter().map(move |unit| SimRequest {
                config: b.config,
                preset: b.preset,
                build: b.build,
                unit: unit.clone(),
            })
        })
        .collect();
    let mut outputs = campaign.run_batch(requests).into_iter();
    blocks
        .into_iter()
        .map(|(label, b)| (label, outputs.by_ref().take(b.suite.len()).collect()))
        .collect()
}

/// The LRU baseline over `suite` under Table 1's configuration, as a
/// batch of its own.
fn lru_batch(campaign: &Campaign, suite: &[SimUnit]) -> Outputs {
    let block = Block::new(suite, SystemConfig::asplos25(), Preset::Lru);
    batch(campaign, vec![((), block)]).remove(0).1
}

/// [`batch`] of uplift cells: each labeled block runs right after an LRU
/// block under the same configuration, build and suite. Returns each
/// label with its baseline and proposal outputs.
fn uplift_batch<L: Clone>(
    campaign: &Campaign,
    cells: Vec<(L, Block)>,
) -> Vec<(L, Outputs, Outputs)> {
    let blocks = cells
        .into_iter()
        .flat_map(|(label, b)| {
            let base = Block {
                preset: Preset::Lru,
                ..b
            };
            [(label.clone(), base), (label, b)]
        })
        .collect();
    let mut outputs = batch(campaign, blocks).into_iter();
    std::iter::from_fn(|| Some((outputs.next()?, outputs.next()?)))
        .map(|((label, base), (_, prop))| (label, base, prop))
        .collect()
}

/// Geomean IPC uplift of `prop` over `base`, paired run by run, in
/// percent.
fn uplift(base: &[SimulationOutput], prop: &[SimulationOutput]) -> f64 {
    let ups: Vec<f64> = prop
        .iter()
        .zip(base)
        .map(|(o, b)| o.speedup_pct_over(b) / 100.0)
        .collect();
    geomean_speedup(&ups) * 100.0
}

/// Mean of `f` over `outs`.
fn mean(outs: &[SimulationOutput], f: impl Fn(&SimulationOutput) -> f64) -> f64 {
    outs.iter().map(f).sum::<f64>() / outs.len() as f64
}

/// Mean of `f` over `outs`, summed as `f / n` terms: it rounds apart from
/// [`mean`], and Figures 4 and 9 have always averaged this way.
fn mean_by_parts(outs: &[SimulationOutput], f: impl Fn(&SimulationOutput) -> f64) -> f64 {
    let n = outs.len() as f64;
    outs.iter().map(|o| f(o) / n).sum()
}

fn pct(x: f64) -> String {
    format!("{x:+.2}%")
}

fn singles(scale: &RunScale, suite: Vec<WorkloadSpec>) -> Vec<SimUnit> {
    suite
        .into_iter()
        .map(|w| SimUnit::Single(Box::new(scale.apply(w))))
        .collect()
}

/// The scaled Qualcomm-server-like suite, one workload per hardware thread.
fn server(scale: &RunScale) -> Vec<SimUnit> {
    singles(scale, qualcomm_like_suite(scale.workloads))
}

/// The scaled SPEC-CPU-like suite.
fn spec(scale: &RunScale) -> Vec<SimUnit> {
    singles(scale, spec_like_suite((scale.workloads / 2).max(2)))
}

/// The scaled SMT pairs.
fn pairs(scale: &RunScale) -> Vec<SimUnit> {
    smt_suite(scale.smt_pairs)
        .into_iter()
        .map(|p| SimUnit::Pair(Box::new(scale.apply_pair(p))))
        .collect()
}

/// Writes a figure's single-thread half, then its SMT half: each a
/// heading, the rows `body` writes over the half's suite, and a blank
/// line.
fn halves(campaign: &Campaign, report: &mut Report, mut body: impl FnMut(&mut Report, &[SimUnit])) {
    let scale = campaign.scale();
    for (heading, suite) in [
        ("(a) single hardware thread", server(scale)),
        ("(b) two hardware threads", pairs(scale)),
    ] {
        report.line(heading);
        body(report, &suite);
        report.line("");
    }
}

/// One `label  +x.xx%` row per uplift cell, all cells as one batch.
fn uplift_rows(campaign: &Campaign, report: &mut Report, cells: Vec<(String, Block)>) {
    for (label, base, prop) in uplift_batch(campaign, cells) {
        report.row(label, pct(uplift(&base, &prop)));
    }
}

/// One `label  +x.xx%` row per block after the first, each over the
/// first block's outputs, all blocks as one batch.
fn baseline_rows(campaign: &Campaign, report: &mut Report, blocks: Vec<(&str, Block)>) {
    let outputs = batch(campaign, blocks);
    for (label, prop) in &outputs[1..] {
        report.row(label, pct(uplift(&outputs[0].1, prop)));
    }
}

/// The calibration table (LRU baseline characteristics per workload).
///
/// Not a paper figure, but the tool that keeps the synthetic suites
/// honest: per workload, the metrics the paper's Section 3/5
/// characterization fixes (STLB MPKI and its instruction/data split,
/// L2C/LLC MPKI, instruction-translation stall share, IPC).
pub fn calibrate_report(campaign: &Campaign) -> Report {
    let scale = campaign.scale();
    let mut report = Report::new("Workload calibration (LRU baseline)");
    report.line(format!(
        "scale: {} workloads x {} instructions (+{} warmup), {} host threads",
        scale.workloads, scale.instructions, scale.warmup, scale.host_threads
    ));
    report.line("");
    report.line("targets (paper): server STLB MPKI >= 1, iMPKI up to ~0.9 (Fig 2),");
    report.line("itrans ~12.5% at 64-entry ITLB (Fig 1); SPEC: iMPKI ~0, itrans ~0%.");
    report.line("");
    for (heading, suite) in [
        ("-- Qualcomm-Server-like suite --", server(scale)),
        ("-- SPEC-CPU-like suite --", spec(scale)),
    ] {
        report.line(heading);
        report.line("workload     IPC     STLB    iMPKI   dMPKI   L2C      LLC      itrans%");
        for o in lru_batch(campaign, &suite) {
            let b = o.stlb_breakdown();
            report.line(format!(
                "{:<12} {:<7.3} {:<7.2} {:<7.3} {:<7.2} {:<8.2} {:<8.2} {:<6.2}",
                o.threads[0].workload,
                o.ipc(),
                o.stlb_mpki(),
                b.instr,
                b.data,
                o.l2c_mpki(),
                o.llc_mpki(),
                o.itrans_stall_fraction() * 100.0
            ));
        }
        report.line("");
    }
    report
}

/// Figure 1: instruction-address-translation cycles vs ITLB size.
pub fn fig01(campaign: &Campaign) -> Report {
    let scale = campaign.scale();
    let config = SystemConfig::asplos25();
    let mut report = Report::new("Figure 1 - instruction address translation cycles vs ITLB size");
    report
        .line("paper: server ~12.5% at 64-128 entries, needs >1024 entries to vanish; SPEC ~0.03%");
    report.line("");
    report.line(format!("{:<8} {:>6} {:>10}", "suite", "ITLB", "itrans%"));
    let suites = [("server", server(scale)), ("spec", spec(scale))];
    let blocks = suites
        .iter()
        .flat_map(|(name, suite)| {
            FIG1_ITLB_SIZES.map(|entries| {
                let cfg = config.with_itlb_entries(entries);
                ((name, entries), Block::new(suite, cfg, Preset::Lru))
            })
        })
        .collect();
    for ((name, entries), outs) in batch(campaign, blocks) {
        let itrans = mean(&outs, SimulationOutput::itrans_stall_fraction);
        report.line(format!("{name:<8} {entries:>6} {:>9.2}%", itrans * 100.0));
    }
    report
}

/// Figure 2: STLB instruction MPKI per suite.
pub fn fig02(campaign: &Campaign) -> Report {
    let scale = campaign.scale();
    let config = SystemConfig::asplos25();
    let mut report = Report::new("Figure 2 - STLB instruction MPKI per suite");
    report.line("paper: server up to ~0.9 iMPKI (scaled runs sit higher); SPEC ~0");
    report.line("");
    let (server, spec) = (server(scale), spec(scale));
    let blocks = vec![
        ("server", Block::new(&server, config, Preset::Lru)),
        ("spec", Block::new(&spec, config, Preset::Lru)),
    ];
    for (name, outs) in batch(campaign, blocks) {
        let impki: Vec<f64> = outs.iter().map(|o| o.stlb_breakdown().instr).collect();
        let mean = mean(&outs, |o| o.stlb_breakdown().instr);
        report.row(format!("{name} mean iMPKI"), format!("{mean:.3}"));
        report.row(format!("{name} distribution"), Distribution::of(&impki));
    }
    report
}

/// The STLB keeps instructions over data with probability `p`; the
/// caches stay LRU.
fn prob_bundle(config: &SystemConfig, p: f64, seed: u64) -> PolicyBundle {
    let d = config.dims();
    PolicyBundle {
        stlb: ProbKeepInstrLru::new(d.stlb.0, d.stlb.1, p, seed).into(),
        l2c: Lru::new(d.l2c.0, d.l2c.1).into(),
        llc: Lru::new(d.llc.0, d.llc.1).into(),
        monitor: None,
    }
}

/// Runs `prob_bundle(p)` over the single-thread `suite` on the
/// campaign's sweep, outside the cache: hand-built bundles have no
/// stable cache identity.
fn keep_instr_runs(
    campaign: &Campaign,
    suite: &[SimUnit],
    p: f64,
    salt: u64,
    label: &str,
) -> Outputs {
    let config = SystemConfig::asplos25();
    campaign.sweep().run(suite.to_vec(), |unit| {
        let SimUnit::Single(w) = unit else {
            unreachable!("the server suite is single-thread")
        };
        let bundle = prob_bundle(&config, p, w.seed ^ salt);
        Simulation::custom(&config, bundle, label, std::slice::from_ref(w)).run()
    })
}

/// Figure 3: probabilistic keep-instructions LRU vs LRU.
pub fn fig03(campaign: &Campaign) -> Report {
    let mut report = Report::new("Figure 3 - probabilistic keep-instructions LRU vs LRU");
    report
        .line("paper: higher P (keep instructions) helps, lower P hurts; range roughly -2.5..+5%");
    report.line("");
    let suite = server(campaign.scale());
    let base = lru_batch(campaign, &suite);
    for p in FIG3_PROBABILITIES {
        let outs = keep_instr_runs(campaign, &suite, p, 0x9, &format!("P={p}"));
        report.row(
            format!("P = {p:.1}"),
            format!("geomean {}", pct(uplift(&base, &outs))),
        );
    }
    report
}

/// Figure 4: cache MPKI breakdown under an instruction-keeping STLB.
pub fn fig04(campaign: &Campaign) -> Report {
    let mut report = Report::new("Figure 4 - cache MPKI breakdown under instruction-keeping STLB");
    report.line("paper: keeping instructions raises dtMPKI (data page-walk misses) at L2C/LLC");
    report.line("");
    let suite = server(campaign.scale());
    let lru = lru_batch(campaign, &suite);
    let keep = keep_instr_runs(campaign, &suite, 0.8, 0x4, "KeepInstr(P=0.8)");
    let l2c = SimulationOutput::l2c_breakdown as fn(&SimulationOutput) -> MpkiBreakdown;
    for (level, breakdown) in [("L2C", l2c), ("LLC", SimulationOutput::llc_breakdown)] {
        for (policy, outs) in [("LRU", &lru), ("KeepInstr(P=0.8)", &keep)] {
            let part = |f: fn(MpkiBreakdown) -> f64| mean_by_parts(outs, |o| f(breakdown(o)));
            let mean = MpkiBreakdown {
                data: part(|b| b.data),
                instr: part(|b| b.instr),
                data_pte: part(|b| b.data_pte),
                instr_pte: part(|b| b.instr_pte),
            };
            report.row(format!("{level} / {policy}"), mean);
        }
    }
    report
}

/// Figure 8: IPC improvement over LRU, single-thread and SMT, with the
/// per-run rows attached as `fig08a.csv`/`fig08b.csv` (the artifact's
/// `parse_data` equivalent).
pub fn fig08(campaign: &Campaign) -> Report {
    let scale = campaign.scale();
    let config = SystemConfig::asplos25();
    let mut report = Report::new("Figure 8 - IPC improvement over LRU (violin summaries, %)");
    report.line(format!(
        "scale: {} workloads / {} SMT pairs x {} instructions",
        scale.workloads, scale.smt_pairs, scale.instructions
    ));
    for (paper, heading, csv_name, suite) in [
        (
            "paper geomeans (1T): TDRRIP +9.3, PTP +7.1, CHiRP ~0, iTP +2.2, iTP+xPTP +18.9",
            "(a) single hardware thread",
            "fig08a",
            server(scale),
        ),
        (
            "paper geomeans (2T): TDRRIP +8.5, PTP ~0, iTP +0.3, iTP+xPTP +11.4",
            "(b) two hardware threads",
            "fig08b",
            pairs(scale),
        ),
    ] {
        report.line(paper);
        report.line("");
        report.line(heading);
        // EVALUATED[0] is the LRU baseline block.
        let blocks = Preset::EVALUATED
            .iter()
            .map(|&p| (p.name(), Block::new(&suite, config, p)))
            .collect();
        let outputs = batch(campaign, blocks);
        let base = &outputs[0].1;
        let mut csv = CsvSink::new(csv_name);
        for out in base {
            csv.push(out, None);
        }
        let mut violins = Vec::new();
        for (policy, outs) in &outputs[1..] {
            let improvements: Vec<f64> = outs
                .iter()
                .zip(base)
                .map(|(o, b)| {
                    csv.push(o, Some(b));
                    o.speedup_pct_over(b)
                })
                .collect();
            let summary = Distribution::of(&improvements);
            report.line(format!("{policy:<14} {summary}"));
            violins.push((*policy, summary));
        }
        report.line(format!("\n{}", violin_panel(&violins, 56)));
        report.attach_csv(csv);
    }
    report
}

/// Figures 9 and 10: MPKI and average miss latency at the STLB/L2C/LLC
/// per policy (9a/9b), and the STLB instruction/data MPKI split (10).
pub fn fig09(campaign: &Campaign) -> Report {
    let config = SystemConfig::asplos25();
    let mut report = Report::new("Figure 9+10 - structure MPKI and miss latency per policy");
    report.line("paper (1T): iTP+xPTP cuts STLB miss latency ~46%, L2C dPTE MPKI 1.0->0.4,");
    report.line("raises L2C MPKI, lowers LLC MPKI; iTP trades iMPKI down for dMPKI up (Fig 10)");
    report.line("");
    halves(campaign, &mut report, |report, suite| {
        report.line(
            "policy          STLB_MPKI  lat     i/d-MPKI        L2C_MPKI  lat     dPTE   LLC_MPKI  lat",
        );
        let blocks = Preset::EVALUATED
            .iter()
            .map(|&p| (p.name(), Block::new(suite, config, p)))
            .collect();
        for (policy, outs) in batch(campaign, blocks) {
            let avg = |f: fn(&SimulationOutput) -> f64| mean_by_parts(&outs, f);
            report.line(format!(
                "{:<15} {:<10.2} {:<7.1} {:<6.2}/{:<8.2} {:<9.2} {:<7.1} {:<6.2} {:<9.2} {:<7.1}",
                policy,
                avg(SimulationOutput::stlb_mpki),
                avg(|o| o.stlb.avg_miss_latency()),
                avg(|o| o.stlb_breakdown().instr),
                avg(|o| o.stlb_breakdown().data),
                avg(SimulationOutput::l2c_mpki),
                avg(|o| o.l2c.avg_miss_latency()),
                avg(|o| o.l2c_breakdown().data_pte),
                avg(SimulationOutput::llc_mpki),
                avg(|o| o.llc.avg_miss_latency()),
            ));
        }
    });
    report
}

/// Figure 11: sensitivity to the LLC replacement policy.
pub fn fig11(campaign: &Campaign) -> Report {
    let config = SystemConfig::asplos25();
    let mut report = Report::new("Figure 11 - sensitivity to LLC replacement policy");
    report.line("paper (1T): iTP consistent +1.4..2.3; iTP+xPTP +18.9 (LRU), +15.8 (SHiP), +1.6 (Mockingjay)");
    report.line("");
    halves(campaign, &mut report, |report, suite| {
        let cells = LlcChoice::ALL
            .into_iter()
            .flat_map(|llc| {
                let build = BuildConfig {
                    llc,
                    ..BuildConfig::default()
                };
                [Preset::Itp, Preset::ItpXptp].map(|preset| {
                    let block = Block::new(suite, config, preset).build(build);
                    (format!("LLC={:<11} {preset}", llc.name()), block)
                })
            })
            .collect();
        uplift_rows(campaign, report, cells);
    });
    report
}

/// Figure 12: sensitivity to ITLB size.
pub fn fig12(campaign: &Campaign) -> Report {
    let config = SystemConfig::asplos25();
    let mut report = Report::new("Figure 12 - sensitivity to ITLB size");
    report.line("paper: gains consistent for <=512-entry ITLBs, shrink at 1024 (1T)");
    report.line("");
    halves(campaign, &mut report, |report, suite| {
        let cells = FIG12_ITLB_SIZES
            .into_iter()
            .flat_map(|entries| {
                let cfg = config.with_itlb_entries(entries);
                [Preset::Itp, Preset::ItpXptp].map(|preset| {
                    let label = format!("ITLB={entries:<5} {preset}");
                    (label, Block::new(suite, cfg, preset))
                })
            })
            .collect();
        uplift_rows(campaign, report, cells);
    });
    report
}

/// Figure 13: allocating code and data on 2 MiB pages.
pub fn fig13(campaign: &Campaign) -> Report {
    let config = SystemConfig::asplos25();
    let mut report = Report::new("Figure 13 - allocating code and data on 2MB pages");
    report.line("paper: all gains shrink as the 2MB fraction grows; iTP+xPTP stays on top");
    report.line("");
    halves(campaign, &mut report, |report, suite| {
        let cells = FIG13_FRACTIONS
            .into_iter()
            .flat_map(|fraction| {
                let cfg = config.with_huge_pages(itpx_vm::HugePagePolicy::uniform(
                    fraction,
                    0x2025 ^ (fraction * 1000.0) as u64,
                ));
                [Preset::Tdrrip, Preset::Ptp, Preset::Chirp, Preset::ItpXptp].map(|preset| {
                    let label = format!("2MB={:>3.0}% {preset}", fraction * 100.0);
                    (label, Block::new(suite, cfg, preset))
                })
            })
            .collect();
        uplift_rows(campaign, report, cells);
    });
    report
}

/// Figure 14: unified vs split STLB, each over the 1536-entry unified
/// STLB with LRU everywhere.
pub fn fig14(campaign: &Campaign) -> Report {
    let config = SystemConfig::asplos25();
    let mut report = Report::new("Figure 14 - unified vs split STLB");
    report.line("paper: same-size split slightly behind unified+iTP+xPTP; 3072 unified+iTP+xPTP");
    report.line("beats 3072 split; improvements over 1536-entry unified LRU baseline");
    report.line("");
    let (split, big) = (config.with_split_stlb(true), config.with_stlb_entries(3072));
    halves(campaign, &mut report, |report, suite| {
        let blocks = vec![
            ("baseline", Block::new(suite, config, Preset::Lru)),
            (
                "Unified 1536 iTP+xPTP",
                Block::new(suite, config, Preset::ItpXptp),
            ),
            (
                "Split 1536 (768i+768d) LRU",
                Block::new(suite, split, Preset::Lru),
            ),
            (
                "Unified 3072 iTP+xPTP",
                Block::new(suite, big, Preset::ItpXptp),
            ),
            (
                "Split 3072 (1536i+1536d) LRU",
                Block::new(suite, big.with_split_stlb(true), Preset::Lru),
            ),
        ];
        baseline_rows(campaign, report, blocks);
    });
    report
}

/// Parameter ablations: iTP's N/M, xPTP's K, the adaptive threshold T1.
pub fn ablations(campaign: &Campaign) -> Report {
    let config = SystemConfig::asplos25();
    let mut report = Report::new("Ablations - iTP N/M, xPTP K, adaptive T1");
    report.line(
        "paper: N/M have little effect; K matters most (mid-stack best); iTP+xPTP geomean shown",
    );
    let suite = server(campaign.scale());
    let cell = |label: String, build: BuildConfig, preset: Preset| {
        (label, Block::new(&suite, config, preset).build(build))
    };
    let default = BuildConfig::default();
    let nm = [(2usize, 6usize), (4, 8), (6, 10), (2, 10), (4, 6)].map(|(n, m)| {
        let itp = ItpParams {
            n,
            m,
            ..ItpParams::default()
        };
        cell(
            format!("N={n} M={m}"),
            BuildConfig { itp, ..default },
            Preset::ItpXptp,
        )
    });
    let k = [2usize, 4, 6, 8].map(|k| {
        let xptp = XptpParams { k };
        cell(
            format!("K={k}"),
            BuildConfig { xptp, ..default },
            Preset::ItpXptp,
        )
    });
    let mut t1: Vec<_> = [0u64, 1, 2, 4, 16]
        .into_iter()
        .map(|t1| {
            cell(
                format!("T1={t1}"),
                BuildConfig { t1, ..default },
                Preset::ItpXptp,
            )
        })
        .collect();
    t1.push(cell(
        "static (always on)".to_string(),
        default,
        Preset::ItpXptpStatic,
    ));
    for (heading, cells) in [
        ("-- iTP insertion/promotion depths --", nm.to_vec()),
        ("-- xPTP protection threshold K --", k.to_vec()),
        (
            "-- adaptive threshold T1 (misses per 1000-instruction epoch) --",
            t1,
        ),
    ] {
        report.line("");
        report.line(heading);
        uplift_rows(campaign, &mut report, cells);
    }
    report
}

/// Extension: hierarchy depth × L2C size sweep through the level chain.
///
/// The paper evaluates one fixed 3-level machine; the chain makes depth a
/// configuration axis. Does iTP+xPTP's uplift survive the depth change,
/// and how much of it does a bigger (or removed, or added) downstream
/// level absorb?
pub fn depth_sweep_report(campaign: &Campaign) -> Report {
    let mut report =
        Report::new("Extension - hierarchy depth x L2C size sweep (iTP+xPTP over LRU)");
    report.line("chains: 2-level (no LLC), 3-level (Table 1), 4-level (extra 1 MiB L3);");
    report.line("uplift is iTP+xPTP's geomean IPC gain; MPKI/rpki are the LRU baseline's");
    report.line("");
    report.line(format!(
        "{:<8} {:>9} {:>10} {:>9} {:>9}",
        "chain", "L2C sets", "uplift", "L2C MPKI", "DRAM rpki"
    ));
    let suite = server(campaign.scale());
    let cells = CHAINS
        .iter()
        .flat_map(|&chain| L2C_SETS.iter().map(move |&sets| (chain, sets)))
        .map(|((chain, hierarchy), sets)| {
            let mut config = SystemConfig::asplos25();
            config.hierarchy = hierarchy();
            config.hierarchy.l2c_mut().sets = sets;
            ((chain, sets), Block::new(&suite, config, Preset::ItpXptp))
        })
        .collect();
    for ((chain, sets), base, prop) in uplift_batch(campaign, cells) {
        report.line(format!(
            "{chain:<8} {sets:>9} {:>+9.2}% {:>9.2} {:>9.2}",
            uplift(&base, &prop),
            mean(&base, SimulationOutput::l2c_mpki),
            mean(&base, |o| o.dram_reads as f64 * 1000.0
                / o.instructions() as f64),
        ));
    }
    report.line("");
    report
}

/// Tenant counts after the `ITPX_TENANTS` cap (unset: the full sweep;
/// junk warns and keeps it; 0 warns and clamps to 1).
fn tenant_counts() -> Vec<u16> {
    let cap = crate::env::count_from_env("ITPX_TENANTS", u64::from(u16::MAX), 1);
    TENANTS
        .iter()
        .copied()
        .filter(|&t| u64::from(t) <= cap)
        .collect()
}

/// Extension: multi-tenant consolidation sweep (iTP+xPTP vs LRU at
/// 1/2/4/8 tenants under flushing round-robin switches).
///
/// The paper evaluates single-tenant machines; the ASID-tagged
/// translation path makes tenant count a workload axis. Does iTP+xPTP's
/// uplift survive consolidation, and how quickly does tenant pressure
/// inflate the baseline's walk traffic? Each tenant count keys distinctly
/// in the simcache (non-flat schedules extend the workload fingerprint).
pub fn consolidation_report(campaign: &Campaign) -> Report {
    let scale = campaign.scale();
    let mut report = Report::new("Extension - multi-tenant consolidation (iTP+xPTP over LRU)");
    report.line("tenants share one hardware thread via round-robin quanta with flushing");
    report.line("switches; uplift is iTP+xPTP's geomean IPC gain, walks/MPKI are the LRU");
    report.line("baseline's (how fast consolidation inflates translation pressure)");
    report.line("");
    report.line(format!(
        "{:<8} {:>10} {:>10} {:>10}",
        "tenants", "uplift", "walks/ki", "STLB MPKI"
    ));
    let tenants = tenant_counts();
    let suites: Vec<Vec<SimUnit>> = tenants
        .iter()
        .map(|&t| {
            let consolidate = |w: WorkloadSpec| {
                if t <= 1 {
                    w
                } else {
                    w.contexts(ContextSchedule::round_robin(
                        t,
                        QUANTUM,
                        SwitchPolicy::FlushAsid,
                    ))
                }
            };
            let suite = qualcomm_like_suite(scale.workloads);
            singles(scale, suite.into_iter().map(consolidate).collect())
        })
        .collect();
    let cells = tenants
        .iter()
        .zip(&suites)
        .map(|(&t, suite)| {
            let block = Block::new(suite, SystemConfig::asplos25(), Preset::ItpXptp);
            (t, block)
        })
        .collect();
    for (t, base, prop) in uplift_batch(campaign, cells) {
        report.line(format!(
            "{t:<8} {:>+9.2}% {:>10.2} {:>10.2}",
            uplift(&base, &prop),
            mean(&base, |o| o.walker.walks as f64 * 1000.0
                / o.instructions() as f64),
            mean(&base, SimulationOutput::stlb_mpki),
        ));
    }
    report.line("");
    report
}

/// Extension: iTP+xPTP with Emissary-style code preservation at the L2C.
pub fn ext_emissary(campaign: &Campaign) -> Report {
    let config = SystemConfig::asplos25();
    let mut report = Report::new("Extension - iTP plus xPTP with Emissary-style code preservation");
    report.line("paper section 7: preserving critical code blocks at L2C on top of xPTP");
    report.line("\"has the potential to provide larger performance gains than iTP+xPTP\"");
    report.line("");
    let suite = server(campaign.scale());
    let blocks = [Preset::Lru, Preset::ItpXptp, Preset::ItpXptpEmissary]
        .map(|p| (p.name(), Block::new(&suite, config, p)))
        .to_vec();
    let outputs = batch(campaign, blocks);
    for (preset, outs) in &outputs[1..] {
        report.row(
            preset,
            format!(
                "geomean {}   L1I MPKI {:.2}",
                pct(uplift(&outputs[0].1, outs)),
                mean(outs, |o| o.l1i.mpki(o.instructions()))
            ),
        );
    }
    report
}

/// Extension: the full T-DRRIP + T-SHiP configuration vs the paper's.
pub fn ext_tship(campaign: &Campaign) -> Report {
    let config = SystemConfig::asplos25();
    let mut report = Report::new("Extension - full TDRRIP plus T-SHiP at the LLC");
    report.line("the original ISPASS'22 proposal pairs T-DRRIP (L2C) with T-SHiP (LLC);");
    report.line("the reproduced paper uses only the L2C half. Geomean over LRU:");
    report.line("");
    let suite = server(campaign.scale());
    let block = |preset, llc| {
        let build = BuildConfig {
            llc,
            ..BuildConfig::default()
        };
        Block::new(&suite, config, preset).build(build)
    };
    let blocks = vec![
        ("baseline", Block::new(&suite, config, Preset::Lru)),
        (
            "TDRRIP (paper config)",
            block(Preset::Tdrrip, LlcChoice::Lru),
        ),
        (
            "SHiP LLC only (control)",
            block(Preset::Lru, LlcChoice::Ship),
        ),
        (
            "TDRRIP + T-SHiP LLC",
            block(Preset::Tdrrip, LlcChoice::TShip),
        ),
        (
            "iTP+xPTP + SHiP LLC",
            block(Preset::ItpXptp, LlcChoice::Ship),
        ),
        (
            "iTP+xPTP + T-SHiP LLC",
            block(Preset::ItpXptp, LlcChoice::TShip),
        ),
        ("iTP+xPTP", block(Preset::ItpXptp, LlcChoice::Lru)),
    ];
    baseline_rows(campaign, &mut report, blocks);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simcache::SimCache;

    #[test]
    fn consolidation_covers_every_tenant_count_and_pressure_grows() {
        let scale = RunScale {
            workloads: 2,
            instructions: 12_000,
            warmup: 3_000,
            ..RunScale::smoke()
        };
        let campaign = Campaign::new(scale, SimCache::new(None));
        let report = consolidation_report(&campaign);
        // Table rows: tenants, uplift, baseline walks/ki, baseline STLB MPKI.
        let rows: Vec<(u16, f64, f64)> = report
            .text()
            .lines()
            .filter_map(
                |line| match line.split_whitespace().collect::<Vec<_>>()[..] {
                    [t, up, walks, _] => Some((
                        t.parse().ok()?,
                        up.trim_end_matches('%').parse().ok()?,
                        walks.parse().ok()?,
                    )),
                    _ => None,
                },
            )
            .collect();
        let tenants: Vec<u16> = rows.iter().map(|r| r.0).collect();
        assert_eq!(tenants, TENANTS, "one row per tenant count");
        let (single, eight) = (rows[0].2, rows[rows.len() - 1].2);
        assert!(
            eight > single,
            "8 flushing tenants must out-walk 1 ({eight} vs {single})"
        );
        for (t, up, _) in &rows {
            assert!(up.is_finite(), "tenants={t}");
        }
    }
}
