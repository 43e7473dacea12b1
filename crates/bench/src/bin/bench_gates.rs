//! The CI regression gates, one binary over one table ([`GATES`]).
//!
//! ```sh
//! cargo run -p itpx-bench --release --bin bench_gates -- <campaign|throughput|horizon|sharding>
//! cargo run -p itpx-bench --release --bin bench_gates -- throughput --bless
//! ```
//!
//! Each gate's measure function below says what it runs and checks.
//! A numeric gate takes the median of [`REPEATS`] runs and fails below
//! `max(floor, margin × blessed median)`, the blessed median read from the
//! gate's entry in `BENCH_baseline.json`; a missing or unparsable entry
//! fails. `--bless` runs the same repeats and stores their median and
//! quartiles as the entry first. Every gate replaces only its own section
//! of `BENCH_campaign.json`, kept in table order.

use itpx_bench::{figures, Campaign, Distribution, Executor, RunScale, SimCache};
use itpx_core::Preset;
use itpx_cpu::{Simulation, SystemConfig};
use itpx_trace::{TierSchedule, WorkloadSpec};
use std::path::PathBuf;
use std::time::Instant;

/// Runs per numeric gate; the gated value is their median.
const REPEATS: usize = 5;

const BASELINE_PATH: &str = "BENCH_baseline.json";
const CAMPAIGN_PATH: &str = "BENCH_campaign.json";

/// One gate: how to run it once and how its number is judged.
struct Gate {
    name: &'static str,
    measure: fn() -> Run,
    /// `Some(floor)` for a numeric gate with an entry in
    /// `BENCH_baseline.json`: the absolute floor its median must clear
    /// whatever the entry says. `None` for a gate of exact checks only.
    baseline: Option<f64>,
    /// Fraction of the blessed median the measured median must reach
    /// (numeric gates only).
    margin: f64,
}

/// Every gate, in the order of their sections in `BENCH_campaign.json`.
/// Floors are what each gate must show on any host. Margins sit below the
/// spread of blessed medians on one 2-vCPU host (lowest over highest of
/// seven blessings: 0.61 for throughput, 0.88 for horizon), with room left
/// for runner differences: more for throughput, an absolute speed, than
/// for the two ratios.
const GATES: &[Gate] = &[
    Gate {
        name: "campaign",
        measure: campaign,
        baseline: None,
        margin: 0.0,
    },
    Gate {
        name: "throughput",
        measure: throughput,
        baseline: Some(1.0e6),
        margin: 0.4,
    },
    Gate {
        name: "horizon",
        measure: horizon,
        baseline: Some(10.0),
        margin: 0.6,
    },
    Gate {
        name: "sharding",
        measure: sharding,
        baseline: Some(1.15),
        margin: 0.6,
    },
];

/// What one run of a gate measured.
struct Run {
    /// The gated number; `None` when not measured on this host or when the
    /// gate has none.
    value: Option<f64>,
    /// Exact checks that failed, one line each.
    failures: Vec<String>,
    /// The run's JSON fields, without the enclosing braces.
    fields: String,
}

/// The argument that turns this binary into one shard of the sharding
/// gate's fleet (followed by the shard index).
const SHARD_CHILD: &str = "--shard-child";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, index] = args.as_slice() {
        if flag == SHARD_CHILD {
            shard_child(index.parse().expect("shard index"));
            return;
        }
    }
    let bless = args.iter().any(|a| a == "--bless");
    let names: Vec<&String> = args.iter().filter(|a| *a != "--bless").collect();
    let gate = match names.as_slice() {
        [name] => GATES.iter().find(|g| g.name == name.as_str()),
        _ => None,
    };
    let Some(gate) = gate else {
        let known: Vec<&str> = GATES.iter().map(|g| g.name).collect();
        eprintln!("usage: bench_gates <{}> [--bless]", known.join("|"));
        std::process::exit(2);
    };
    if !run_gate(gate, bless) {
        std::process::exit(1);
    }
}

/// Runs `gate`, writes its section of `BENCH_campaign.json` (and with
/// `bless` its baseline entry first) and returns whether it passed.
fn run_gate(gate: &Gate, bless: bool) -> bool {
    let repeats = if gate.baseline.is_some() { REPEATS } else { 1 };
    let runs: Vec<Run> = (0..repeats).map(|_| (gate.measure)()).collect();
    let mut failures: Vec<String> = runs.iter().flat_map(|r| r.failures.clone()).collect();
    let cores = cores();
    let mut numeric = String::new();
    if let Some(floor) = gate.baseline {
        let values: Option<Vec<f64>> = runs.iter().map(|r| r.value).collect();
        let spread = values.as_deref().map(Distribution::of);
        if bless {
            match spread {
                Some(d) => {
                    let entry = format!(
                        "{{\"median\": {:.3}, \"q1\": {:.3}, \"q3\": {:.3}, \"repeats\": {repeats}, \"cores\": {cores}}}",
                        d.median, d.p25, d.p75
                    );
                    write_section(BASELINE_PATH, gate.name, &entry);
                    println!("blessed {} in {BASELINE_PATH}: {entry}", gate.name);
                }
                None => failures.push(format!(
                    "--bless refuses to store a value not measured on {cores} core(s)"
                )),
            }
        }
        let baseline_text = std::fs::read_to_string(BASELINE_PATH).unwrap_or_default();
        let entry = section(&baseline_text, gate.name);
        let median = spread.map(|d| d.median);
        let applied = applied_floor(entry.and_then(|e| number(e, "median")), floor, gate.margin);
        if let Err(why) = verdict(median, applied) {
            failures.push(why);
        }
        let values: Vec<String> = runs.iter().map(|r| num(r.value)).collect();
        let (values, median, applied) = (values.join(", "), num(median), num(applied));
        println!(
            "{}: runs [{values}], median {median}, floor {applied}",
            gate.name
        );
        numeric = format!(
            ", \"repeats\": {repeats}, \"values\": [{values}], \"median\": {median}, \
             \"baseline\": {}, \"margin\": {}, \"floor\": {applied}",
            entry.unwrap_or("null"),
            gate.margin,
        );
    }
    let pass = failures.is_empty();
    let fields = &runs.last().expect("at least one run").fields;
    let body = format!("{{{fields}, \"cores\": {cores}{numeric}, \"pass\": {pass}}}");
    write_section(CAMPAIGN_PATH, gate.name, &body);
    println!("wrote the {} section of {CAMPAIGN_PATH}", gate.name);
    for f in &failures {
        eprintln!("FAIL: {}: {f}", gate.name);
    }
    pass
}

/// The floor a numeric gate's median must clear, `max(floor, margin ×
/// blessed)`; `None` when the blessed median is missing or unusable.
fn applied_floor(blessed: Option<f64>, floor: f64, margin: f64) -> Option<f64> {
    blessed
        .filter(|b| b.is_finite() && *b > 0.0)
        .map(|b| floor.max(margin * b))
}

/// Whether a numeric gate's `median` clears `floor` (from
/// [`applied_floor`]); a missing floor fails. A `median` of `None` was not
/// measured on this host: the gate's exact checks still apply, its number
/// does not.
fn verdict(median: Option<f64>, floor: Option<f64>) -> Result<(), String> {
    let floor =
        floor.ok_or_else(|| format!("no usable entry in {BASELINE_PATH}; run with --bless"))?;
    match median {
        None => Ok(()),
        Some(m) if m >= floor => Ok(()),
        Some(m) => Err(format!("median {m:.3} is below the floor {floor:.3}")),
    }
}

/// Replaces the `name` section of the JSON file at `path`.
fn write_section(path: &str, name: &str, value: &str) {
    let existing = std::fs::read_to_string(path).unwrap_or_default();
    std::fs::write(path, merge_section(&existing, name, value))
        .unwrap_or_else(|e| panic!("write {path}: {e}"));
}

/// Sets top-level key `name` of a one-key-per-line JSON object to `value`.
/// The result holds the gate names that are set, in [`GATES`] order; any
/// other key is dropped.
fn merge_section(existing: &str, name: &str, value: &str) -> String {
    let entries: Vec<String> = GATES
        .iter()
        .filter_map(|g| {
            let v = if g.name == name {
                Some(value)
            } else {
                section(existing, g.name)
            };
            v.map(|v| format!("  \"{}\": {v}", g.name))
        })
        .collect();
    format!("{{\n{}\n}}\n", entries.join(",\n"))
}

/// The value of top-level key `key` in a one-key-per-line JSON object.
fn section<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let prefix = format!("\"{key}\": ");
    text.lines()
        .find_map(|l| l.trim_start().strip_prefix(prefix.as_str()))
        .map(|v| v.trim_end().trim_end_matches(','))
}

/// The number stored under `key` in a flat JSON object, if it parses.
fn number(json: &str, key: &str) -> Option<f64> {
    let rest = json.split(&format!("\"{key}\": ")).nth(1)?;
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// JSON for an optional number: `null` when absent.
fn num(v: Option<f64>) -> String {
    v.map_or("null".to_string(), |v| format!("{v:.3}"))
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One pass of the whole figure set through a campaign.
struct Pass {
    /// Totals, and time, cache counts and executions per figure.
    json: String,
    /// Simulations executed.
    executed: u64,
    /// Figures that executed no simulation.
    served: usize,
    texts: Vec<String>,
}

fn figure_pass(campaign: &Campaign) -> Pass {
    let cache = campaign.cache();
    let start = Instant::now();
    let (mut figs, mut texts, mut served) = (Vec::new(), Vec::new(), 0);
    for fig in figures::ALL {
        let (h0, m0, e0) = (cache.hits(), cache.misses(), campaign.executed());
        let t0 = Instant::now();
        texts.push((fig.build)(campaign).text().to_string());
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let (hits, misses) = (cache.hits() - h0, cache.misses() - m0);
        let executed = campaign.executed() - e0;
        served += usize::from(executed == 0);
        figs.push(format!(
            "{{\"name\": \"{}\", \"ms\": {ms:.3}, \"cache_hits\": {hits}, \"cache_misses\": {misses}, \"executed\": {executed}}}",
            fig.name
        ));
    }
    let json = format!(
        "{{\"total_ms\": {:.3}, \"cache_hits\": {}, \"cache_misses\": {}, \"executed\": {}, \"figures\": [{}]}}",
        start.elapsed().as_secs_f64() * 1e3,
        cache.hits(),
        cache.misses(),
        campaign.executed(),
        figs.join(", ")
    );
    Pass {
        json,
        executed: campaign.executed(),
        served,
        texts,
    }
}

/// Cold then warm figure passes through one wiped on-disk cache, at the
/// fixed smoke scale (only the host-thread count follows the environment):
/// the warm pass must execute zero simulations, reproduce every report byte
/// for byte, and serve at least one figure wholly from cache.
fn campaign() -> Run {
    let scale = RunScale {
        host_threads: RunScale::from_env().host_threads,
        ..RunScale::smoke()
    };
    let dir = PathBuf::from("target/simcache-bench");
    let _ = std::fs::remove_dir_all(&dir);
    let pass = || figure_pass(&Campaign::new(scale, SimCache::new(Some(dir.clone()))));
    let cold = pass();
    let warm = pass();
    for (label, p) in [("cold", &cold), ("warm", &warm)] {
        println!("{label} pass: {}", p.json);
    }

    let mut failures = Vec::new();
    if warm.executed != 0 {
        failures.push(format!(
            "warm pass executed {} simulations; expected 0",
            warm.executed
        ));
    }
    for ((fig, c), w) in figures::ALL.iter().zip(&cold.texts).zip(&warm.texts) {
        if c != w {
            failures.push(format!(
                "report bytes differ between passes for {}",
                fig.name
            ));
        }
    }
    if warm.served == 0 {
        failures.push("no figure was served entirely from cache on the warm pass".into());
    }
    let fields = format!(
        "\"host_threads\": {}, \"cold\": {}, \"warm\": {}, \"identical_reports\": {}, \
         \"cache_served_figures\": {}",
        scale.host_threads,
        cold.json,
        warm.json,
        cold.texts == warm.texts,
        warm.served,
    );
    Run {
        value: None,
        failures,
        fields,
    }
}

/// Measured instructions per throughput sim; fixed so results compare.
const INSTRUCTIONS: u64 = 120_000;
/// Warmup instructions per throughput sim (simulated work too, so counted).
const WARMUP: u64 = 30_000;

/// Simulated instructions per second (sim-IPS) of three presets × two
/// trace profiles through the full pipeline.
fn throughput() -> Run {
    let cfg = SystemConfig::asplos25();
    let workloads = [WorkloadSpec::server_like(11), WorkloadSpec::spec_like(12)];
    let presets = [Preset::Lru, Preset::Itp, Preset::ItpXptp];
    let start = Instant::now();
    let mut simulated = 0;
    for preset in presets {
        for w in &workloads {
            let w = w.clone().instructions(INSTRUCTIONS).warmup(WARMUP);
            simulated += Simulation::single_thread(&cfg, preset, &w)
                .run()
                .instructions()
                + WARMUP;
        }
    }
    let seconds = start.elapsed().as_secs_f64();
    let sim_ips = simulated as f64 / seconds;
    Run {
        value: Some(sim_ips),
        failures: Vec::new(),
        fields: format!(
            "\"simulated\": {simulated}, \"seconds\": {seconds:.3}, \"sim_ips\": {sim_ips:.0}"
        ),
    }
}

/// Measured instructions of the horizon gate's flat leg.
const FLAT_INSTRUCTIONS: u64 = 60_000;
/// Warmup instructions of both horizon legs (cycle-accurate, uncounted).
const HORIZON_WARMUP: u64 = 5_000;
/// The horizon gate's tiered leg: at ~7× functional speed plus the free
/// skip, 2M-instruction gaps buy well over 10× the flat horizon per
/// wall-second.
const SCHEDULE: TierSchedule = TierSchedule {
    window: 20_000,
    fast_forward: 2_000_000,
    windows: 5,
};

/// Horizon instructions per wall-second, tiered over flat.
fn horizon() -> Run {
    let cfg = SystemConfig::asplos25();
    let base = WorkloadSpec::server_like(11).warmup(HORIZON_WARMUP);
    let timed = |spec: &WorkloadSpec| {
        let t0 = Instant::now();
        let out = Simulation::single_thread(&cfg, Preset::ItpXptp, spec).run();
        (out.instructions(), t0.elapsed().as_secs_f64())
    };
    // Flat: the horizon covered is the measured instruction count.
    let (flat_horizon, flat_s) = timed(&base.clone().instructions(FLAT_INSTRUCTIONS));
    // Tiered: windows × (window + fast_forward).
    let (measured, tiered_s) = timed(&base.tiers(SCHEDULE));
    let ratio = (SCHEDULE.horizon() as f64 / tiered_s) / (flat_horizon as f64 / flat_s);
    Run {
        value: Some(ratio),
        failures: Vec::new(),
        fields: format!(
            "\"flat\": {{\"horizon\": {flat_horizon}, \"seconds\": {flat_s:.3}}}, \
             \"tiered\": {{\"horizon\": {}, \"measured\": {measured}, \"seconds\": {tiered_s:.3}}}",
            SCHEDULE.horizon(),
        ),
    }
}

/// Scale of both sharding legs: one host thread per process, so the
/// sharded leg's advantage is pure process-level parallelism.
const SHARD_SCALE: RunScale = RunScale {
    workloads: 2,
    smt_pairs: 2,
    instructions: 20_000,
    warmup: 5_000,
    host_threads: 1,
};
/// Processes in the sharded leg.
const SHARDS: u64 = 2;
/// The store both legs run cold against, wiped before each.
const SHARD_DIR: &str = "target/simcache-shard";

/// The concatenated figure reports of one cold campaign over `SHARD_DIR`.
fn shard_texts(executor: Executor) -> String {
    let cache = SimCache::new(Some(PathBuf::from(SHARD_DIR)));
    figure_pass(&Campaign::new(SHARD_SCALE, cache).with_executor(executor))
        .texts
        .join("\n")
}

/// One process of the sharded leg: runs shard `index` of the figure set
/// and prints its reports.
fn shard_child(index: u64) {
    print!(
        "{}",
        shard_texts(Executor::Sharded {
            shards: SHARDS,
            index,
        })
    );
}

/// Cold figure set in one process, then as a fleet of `SHARDS` processes:
/// the reports must be byte-identical, and on hosts with two or more cores
/// the wall-clock speedup is gated (one core cannot show process
/// parallelism, so there it is "not measured").
fn sharding() -> Run {
    let _ = std::fs::remove_dir_all(SHARD_DIR);
    let t0 = Instant::now();
    let flat = shard_texts(Executor::InProcess);
    let flat_s = t0.elapsed().as_secs_f64();

    let _ = std::fs::remove_dir_all(SHARD_DIR);
    let exe = std::env::current_exe().expect("current exe");
    let t0 = Instant::now();
    let children: Vec<_> = (0..SHARDS)
        .map(|index| {
            std::process::Command::new(&exe)
                .args([SHARD_CHILD, &index.to_string()])
                .stdout(std::process::Stdio::piped())
                .spawn()
                .expect("spawn shard child")
        })
        .collect();
    // A shard prints its reports only once it is done, so draining the
    // first one's pipe never stalls the second one's simulations.
    let mut failures = Vec::new();
    let mut identical = true;
    for (index, child) in children.into_iter().enumerate() {
        let out = child.wait_with_output().expect("wait for shard child");
        if !out.status.success() {
            failures.push(format!("shard {index} failed: {}", out.status));
        }
        identical &= out.stdout == flat.as_bytes();
    }
    let shard_s = t0.elapsed().as_secs_f64();

    if !identical {
        failures.push("shard reports diverge from the single-process reports".into());
    }
    let speedup = (cores() >= 2).then_some(flat_s / shard_s);
    Run {
        value: speedup,
        failures,
        fields: format!(
            "\"shards\": {SHARDS}, \"flat_seconds\": {flat_s:.3}, \"sharded_seconds\": {shard_s:.3}, \
             \"speedup\": {}, \"identical_reports\": {identical}",
            num(speedup)
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The verdict on `median` against a blessed entry of `blessed`.
    fn judge(median: Option<f64>, blessed: Option<f64>, floor: f64) -> Result<(), String> {
        verdict(median, applied_floor(blessed, floor, 0.5))
    }

    #[test]
    fn a_median_below_the_floor_fails() {
        // margin × blessed dominates the absolute floor...
        assert!(judge(Some(99.0), Some(200.0), 10.0).is_err());
        // ...and the absolute floor dominates a low blessed median.
        assert!(judge(Some(14.9), Some(20.0), 15.0).is_err());
        assert!(judge(Some(f64::NAN), Some(20.0), 15.0).is_err());
    }

    #[test]
    fn a_median_at_or_above_the_floor_passes() {
        assert_eq!(applied_floor(Some(200.0), 10.0, 0.5), Some(100.0));
        assert_eq!(applied_floor(Some(20.0), 15.0, 0.5), Some(15.0));
        assert_eq!(judge(Some(100.0), Some(200.0), 10.0), Ok(()));
        assert_eq!(judge(Some(300.0), Some(200.0), 10.0), Ok(()));
        assert_eq!(judge(Some(15.0), Some(20.0), 15.0), Ok(()));
    }

    #[test]
    fn a_missing_or_unparsable_baseline_fails() {
        for text in [
            "",
            "{\"sim_ips\": 1957974}\n",
            "{\n  \"throughput\": {\"median\": \"fast\"}\n}\n",
            "{\n  \"throughput\": {\"median\": NaN}\n}\n",
            "{\n  \"throughput\": {\"median\": 0.000}\n}\n",
            "{\n  \"horizon\": {\"median\": 20.0}\n}\n",
        ] {
            let blessed = section(text, "throughput").and_then(|e| number(e, "median"));
            assert!(
                judge(Some(1e12), blessed, 0.0).is_err(),
                "baseline {text:?} must fail the gate"
            );
        }
        let good = "{\n  \"throughput\": {\"median\": 3000000.000, \"q1\": 1.0}\n}\n";
        let blessed = section(good, "throughput").and_then(|e| number(e, "median"));
        assert_eq!(blessed, Some(3e6));
    }

    #[test]
    fn sharding_on_one_core_checks_identity_only() {
        // No measured speedup: the number is not judged, but the baseline
        // must still be there.
        assert_eq!(judge(None, Some(1.28), 1.15), Ok(()));
        assert!(judge(None, None, 1.15).is_err());
    }

    const SECTIONS: [(&str, &str); 4] = [
        ("campaign", "{\"identical_reports\": true, \"pass\": true}"),
        ("throughput", "{\"sim_ips\": 3000000, \"pass\": true}"),
        ("horizon", "{\"median\": 27.000, \"pass\": true}"),
        ("sharding", "{\"speedup\": null, \"pass\": true}"),
    ];

    fn write_all(start: &str, order: &[usize]) -> String {
        order.iter().fold(start.to_string(), |text, &i| {
            merge_section(&text, SECTIONS[i].0, SECTIONS[i].1)
        })
    }

    #[test]
    fn section_writes_are_order_free_idempotent_and_keep_other_sections() {
        // Two write orders give identical bytes, in table order; the
        // pre-section layout (campaign keys at the top level) migrates.
        let all = write_all("", &[0, 1, 2, 3]);
        assert_eq!(write_all("", &[3, 1, 0, 2]), all);
        let legacy = "{\n  \"scale\": {},\n  \"cold\": {},\n  \"horizon\": {\"ratio\": 1}\n}\n";
        assert_eq!(write_all(legacy, &[2, 0, 3, 1]), all);
        // Repeating writes changes nothing.
        assert_eq!(write_all(&all, &[1, 1, 3, 0]), all);
        // A write replaces only its own section.
        let updated = merge_section(&all, "campaign", "{\"pass\": false}");
        assert_eq!(section(&updated, "campaign"), Some("{\"pass\": false}"));
        for (name, value) in &SECTIONS[1..] {
            assert_eq!(section(&updated, name), Some(*value));
        }
    }
}
