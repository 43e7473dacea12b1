//! `itpx` — command-line front end for the simulator.
//!
//! ```text
//! itpx run   [--preset NAME] [--seed N] [--instructions N] [--warmup N]
//!            [--spec-like] [--trace FILE] [--itlb N] [--stlb N]
//!            [--split-stlb] [--llc lru|ship|mockingjay]
//!            [--huge-pages FRACTION]
//! itpx smt   [--preset NAME] [--pair N] [--instructions N] [--warmup N]
//! itpx presets
//! ```
//!
//! Examples:
//!
//! ```sh
//! itpx run --preset iTP+xPTP --seed 7 --instructions 500000
//! itpx smt --preset TDRRIP --pair 2
//! ```

use itpx::prelude::*;
use itpx_core::presets::{BuildConfig, LlcChoice};
use itpx_trace::suites::smt_suite;
use itpx_vm::HugePagePolicy;
use std::process::ExitCode;

#[derive(Debug)]
struct Args {
    preset: Preset,
    seed: u64,
    pair: usize,
    instructions: u64,
    warmup: u64,
    spec_like: bool,
    trace: Option<String>,
    itlb: Option<usize>,
    stlb: Option<usize>,
    split_stlb: bool,
    llc: LlcChoice,
    huge_pages: f64,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            preset: Preset::ItpXptp,
            seed: 0,
            pair: 0,
            instructions: 400_000,
            warmup: 100_000,
            spec_like: false,
            trace: None,
            itlb: None,
            stlb: None,
            split_stlb: false,
            llc: LlcChoice::Lru,
            huge_pages: 0.0,
        }
    }
}

fn parse(mut argv: std::env::Args) -> Result<(String, Args), String> {
    let _ = argv.next();
    let cmd = argv
        .next()
        .ok_or("missing subcommand (run | smt | presets)")?;
    let mut args = Args::default();
    let mut it = argv.peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next().ok_or(format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--preset" => {
                let v = value("--preset")?;
                args.preset = Preset::from_name(&v)
                    .ok_or(format!("unknown preset {v}; see `itpx presets`"))?;
            }
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--pair" => args.pair = value("--pair")?.parse().map_err(|e| format!("{e}"))?,
            "--instructions" => {
                args.instructions = value("--instructions")?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            "--warmup" => args.warmup = value("--warmup")?.parse().map_err(|e| format!("{e}"))?,
            "--spec-like" => args.spec_like = true,
            "--trace" => args.trace = Some(value("--trace")?),
            "--itlb" => args.itlb = Some(value("--itlb")?.parse().map_err(|e| format!("{e}"))?),
            "--stlb" => args.stlb = Some(value("--stlb")?.parse().map_err(|e| format!("{e}"))?),
            "--split-stlb" => args.split_stlb = true,
            "--llc" => {
                args.llc = match value("--llc")?.to_ascii_lowercase().as_str() {
                    "lru" => LlcChoice::Lru,
                    "ship" => LlcChoice::Ship,
                    "mockingjay" => LlcChoice::Mockingjay,
                    other => return Err(format!("unknown LLC policy {other}")),
                }
            }
            "--huge-pages" => {
                args.huge_pages = value("--huge-pages")?.parse().map_err(|e| format!("{e}"))?;
                if !(0.0..=1.0).contains(&args.huge_pages) {
                    return Err("--huge-pages wants a fraction in [0,1]".into());
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok((cmd, args))
}

fn config_for(args: &Args) -> SystemConfig {
    let mut cfg = SystemConfig::asplos25();
    if let Some(n) = args.itlb {
        cfg = cfg.with_itlb_entries(n);
    }
    if let Some(n) = args.stlb {
        cfg = cfg.with_stlb_entries(n);
    }
    cfg = cfg.with_split_stlb(args.split_stlb);
    cfg.with_huge_pages(HugePagePolicy::uniform(args.huge_pages, 0x99))
}

fn print_output(out: &itpx_cpu::SimulationOutput) {
    println!("preset        {}", out.preset);
    println!("llc policy    {}", out.llc_policy);
    for t in &out.threads {
        println!(
            "thread {:<12} {:>9} instructions  IPC {:.4}  itrans {:.1}%  mispred/1k {:.1}",
            t.workload,
            t.instructions,
            t.ipc(),
            t.itrans_stall_fraction() * 100.0,
            t.mispredictions as f64 * 1000.0 / t.instructions as f64,
        );
    }
    let b = out.stlb_breakdown();
    println!(
        "STLB          MPKI {:.2} (instr {:.2} / data {:.2}), avg miss {:.1} cy",
        out.stlb_mpki(),
        b.instr,
        b.data,
        out.stlb.avg_miss_latency()
    );
    let l2 = out.l2c_breakdown();
    println!(
        "L2C           MPKI {:.2} (data-PTE {:.2}, instr-PTE {:.2}), avg miss {:.1} cy",
        out.l2c_mpki(),
        l2.data_pte,
        l2.instr_pte,
        out.l2c.avg_miss_latency()
    );
    println!(
        "LLC           MPKI {:.2}, avg miss {:.1} cy",
        out.llc_mpki(),
        out.llc.avg_miss_latency()
    );
    println!(
        "walks         {} total ({} instr / {} data), avg {:.1} cy, {:.2} refs",
        out.walker.walks,
        out.walker.instruction_walks,
        out.walker.data_walks,
        out.walker.avg_latency,
        out.walker.avg_memory_refs
    );
    println!(
        "DRAM          {} reads / {} writes",
        out.dram_reads, out.dram_writes
    );
    if let Some(f) = out.xptp_enabled_fraction {
        println!("xPTP active   {:.0}% of epochs", f * 100.0);
    }
    println!("aggregate IPC {:.4}", out.ipc());
}

fn main() -> ExitCode {
    let (cmd, args) = match parse(std::env::args()) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}\nusage: itpx <run|smt|presets> [flags] (see --help in the docs)");
            return ExitCode::FAILURE;
        }
    };
    let build = BuildConfig {
        llc: args.llc,
        ..BuildConfig::default()
    };
    match cmd.as_str() {
        "presets" => {
            for p in Preset::ALL {
                println!("{}", p.name());
            }
            ExitCode::SUCCESS
        }
        "run" => {
            let cfg = config_for(&args);
            let sim = if let Some(path) = &args.trace {
                let file = match std::fs::File::open(path) {
                    Ok(f) => f,
                    Err(e) => {
                        eprintln!("cannot open {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                let insts = match itpx_trace::read_trace(std::io::BufReader::new(file)) {
                    Ok(i) => i,
                    Err(e) => {
                        eprintln!("not a valid itpx trace: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                println!(
                    "workload      {path} (replayed, {} instructions/loop)",
                    insts.len()
                );
                Simulation::replay(
                    &cfg,
                    args.preset,
                    path.clone(),
                    insts,
                    args.instructions,
                    args.warmup,
                )
            } else {
                let w = if args.spec_like {
                    WorkloadSpec::spec_like(args.seed)
                } else {
                    WorkloadSpec::server_like(args.seed)
                }
                .instructions(args.instructions)
                .warmup(args.warmup);
                println!("workload      {} (seed {})", w.name, args.seed);
                Simulation::single_thread(&cfg, args.preset, &w)
            };
            let out = sim.build_config(build).run();
            print_output(&out);
            ExitCode::SUCCESS
        }
        "smt" => {
            let cfg = config_for(&args);
            let mut pair = smt_suite(args.pair + 1).remove(args.pair);
            pair.a = pair.a.instructions(args.instructions).warmup(args.warmup);
            pair.b = pair.b.instructions(args.instructions).warmup(args.warmup);
            println!("pair          {} ({})", pair.name(), pair.category.name());
            let out = Simulation::smt(&cfg, args.preset, &pair)
                .build_config(build)
                .run();
            print_output(&out);
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown subcommand {other}; expected run | smt | presets");
            ExitCode::FAILURE
        }
    }
}
