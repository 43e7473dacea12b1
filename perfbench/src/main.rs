//! The repository's benchmark: one command per workload, timed in this
//! program around calls into the simulator's and the service's public
//! functions.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload server-flat --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics (spans around every layer call, a replay of the workload's
//! own stream through each layer, and the tracing overhead). The last
//! line of standard output is one JSON object; the lines before it list
//! the same metrics for reading. `README.md` records why each workload
//! exists and which end-to-end metric each layer metric should move.

mod calib;
mod checks;
mod inputs;
mod layers;
mod service;
mod sims;
mod spans;
mod stats;

use calib::{Calibrator, RoundTiming};
use checks::Checks;
use itpx_cpu::SimulationOutput;
use spans::{NameTotals, Tracer};
use stats::{geomean, median, percentile};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// End-to-end metrics, printed by every workload with `--trace 0`.
const END_TO_END: [(&str, &str); 7] = [
    ("sim_ips", "1/s"),
    ("horizon_ips", "1/s"),
    ("sim_ipc", "inst/cycle"),
    ("stlb_mpki", "1/kinst"),
    ("itp_xptp_speedup", "x"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, printed by every workload with `--trace 1` (zero
/// where the workload never calls the layer).
const PER_LAYER: [(&str, &str); 69] = [
    ("host.speed", "ratio"),
    ("host.sim_ips_raw", "1/s"),
    ("host.horizon_ips_raw", "1/s"),
    ("host.setup_s_raw", "s"),
    ("trace.gen_ns_per_inst", "ns"),
    ("trace.gen.insts", "count"),
    ("vm.tlb.lookup_ns", "ns"),
    ("vm.tlb.lookup.calls", "count"),
    ("vm.tlb.hit_ratio", "ratio"),
    ("vm.tlb.fill_ns", "ns"),
    ("vm.tlb.fill.calls", "count"),
    ("vm.tlb.flush_asid_us", "us"),
    ("vm.tlb.flush_asid.calls", "count"),
    ("vm.tlb.invalidate_ns", "ns"),
    ("vm.tlb.invalidate.calls", "count"),
    ("vm.walk_ns", "ns"),
    ("vm.walk.calls", "count"),
    ("vm.walk.psc_hit_ratio", "ratio"),
    ("mem.cache.probe_ns", "ns"),
    ("mem.cache.probe.calls", "count"),
    ("mem.cache.hit_ratio", "ratio"),
    ("mem.cache.fill_ns", "ns"),
    ("mem.cache.fill.calls", "count"),
    ("policy.lru.op_ns", "ns"),
    ("policy.lru.calls", "count"),
    ("policy.itp.op_ns", "ns"),
    ("policy.itp.calls", "count"),
    ("policy.xptp.op_ns", "ns"),
    ("policy.xptp.calls", "count"),
    ("cpu.functional.ns_per_inst", "ns"),
    ("cpu.functional.insts", "count"),
    ("cpu.system.new_ms", "ms"),
    ("cpu.system.new.calls", "count"),
    ("bench.store.get_us", "us"),
    ("bench.store.get.calls", "count"),
    ("bench.store.insert_us", "us"),
    ("bench.store.insert.calls", "count"),
    ("bench.simcache.decode_us", "us"),
    ("bench.simcache.get.calls", "count"),
    ("bench.campaign.hit_ratio", "ratio"),
    ("bench.campaign.cold_s", "s"),
    ("bench.campaign.warm_s", "s"),
    ("bench.serve.rps", "1/s"),
    ("bench.serve.p50_ms", "ms"),
    ("bench.serve.tail_ms", "ms"),
    ("bench.serve.tail_pct", "%"),
    ("bench.serve.samples", "count"),
    ("bench.serve.failed", "ratio"),
    ("trace.gen.self_share", "ratio"),
    ("vm.tlb.self_share", "ratio"),
    ("vm.walk.self_share", "ratio"),
    ("mem.cache.self_share", "ratio"),
    ("policy.self_share", "ratio"),
    ("cpu.functional.self_share", "ratio"),
    ("bench.store.self_share", "ratio"),
    ("bench.simcache.self_share", "ratio"),
    ("sim.stlb.impki", "1/kinst"),
    ("sim.stlb.dmpki", "1/kinst"),
    ("sim.l2c.dpte_mpki", "1/kinst"),
    ("sim.walks_pki", "1/kinst"),
    ("sim.walk_latency_cycles", "cycles"),
    ("sim.xptp_enabled_fraction", "ratio"),
    ("sim.itrans_stall_fraction", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.span_cost_ns", "ns"),
    ("trace.spans", "count"),
    ("trace.replay_s", "s"),
    ("trace.rounds_traced", "count"),
    ("trace.rounds_untraced", "count"),
];

/// Rounds measured at least, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;
/// Share of a traced run spent on timed rounds; the replay gets the rest.
const TRACED_ROUND_SHARE: f64 = 0.6;
/// Instructions of the workload's stream replayed through the layers.
const REPLAY_INSTS: usize = 400_000;
/// Scratch directory, relative to where the benchmark runs.
const SCRATCH: &str = ".perfbench";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ServerFlat,
    TieredTenants,
    CampaignServe,
}

impl Workload {
    const ALL: [(&'static str, Workload); 3] = [
        ("server-flat", Workload::ServerFlat),
        ("tiered-tenants", Workload::TieredTenants),
        ("campaign-serve", Workload::CampaignServe),
    ];

    fn name(self) -> &'static str {
        Self::ALL
            .iter()
            .find(|(_, w)| *w == self)
            .map_or("", |(n, _)| n)
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let w = Workload::ALL.iter().find(|(n, _)| *n == value);
                workload = Some(w.ok_or_else(|| format!("unknown workload {value:?}"))?.1);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be 1..=600".into());
                }
                seconds = Some(s as f64);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Metric values by name.
type Metrics = BTreeMap<&'static str, f64>;

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: itpx-perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                Workload::ALL.map(|(n, _)| n).join("|")
            );
            std::process::exit(2);
        }
    };
    let mut checks = Checks::default();
    let mut m = match args.workload {
        Workload::ServerFlat => {
            sims_workload(&inputs::server_flat(args.seed), false, &args, &mut checks)
        }
        Workload::TieredTenants => {
            sims_workload(&inputs::tiered_tenants(args.seed), true, &args, &mut checks)
        }
        Workload::CampaignServe => service_workload(&args, &mut checks),
    };
    m.insert("peak_rss_mb", peak_rss_mb());
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut json = Vec::new();
    for (name, unit) in table {
        let value = m
            .get(name)
            .copied()
            .unwrap_or_else(|| panic!("metric {name} was not measured"));
        let value = if value.is_finite() { value } else { 0.0 };
        println!("{name:<30} {value:>18.6} {unit}");
        json.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted.max(1),
        checks.failed,
        json.join(", ")
    );
}

/// Peak resident set of this process (VmHWM), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs rounds until `seconds` have passed (and at least
/// [`MIN_ROUNDS`]). In a traced run, every other round records spans;
/// the flag passed to `round` says which.
fn timed_rounds<R>(seconds: f64, traced: bool, mut round: impl FnMut(bool) -> R) -> Vec<(bool, R)> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        let trace_this = traced && out.len() % 2 == 1;
        out.push((trace_this, round(trace_this)));
    }
    out
}

/// The end-to-end host-time metrics (at reference speed) and their raw
/// per-layer counterparts, as medians over the untraced rounds.
fn host_metrics(rounds: &[&RoundTiming], executed: u64, horizon: u64, m: &mut Metrics) {
    let per_round =
        |f: &dyn Fn(&RoundTiming) -> f64| -> Vec<f64> { rounds.iter().map(|r| f(r)).collect() };
    let all = |f: &dyn Fn(&RoundTiming) -> &Vec<f64>| -> Vec<f64> {
        rounds.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    let ips = per_round(&|r| executed as f64 / r.work_ref_s);
    within_run_spread("sim_ips", &ips);
    m.insert("sim_ips", median(&ips));
    m.insert(
        "horizon_ips",
        median(&per_round(&|r| horizon as f64 / r.work_ref_s)),
    );
    m.insert(
        "host.sim_ips_raw",
        median(&per_round(&|r| executed as f64 / r.work_s)),
    );
    m.insert(
        "host.horizon_ips_raw",
        median(&per_round(&|r| horizon as f64 / r.work_s)),
    );
    m.insert("setup_s", median(&all(&|r| &r.setup_ref_s)));
    m.insert("host.setup_s_raw", median(&all(&|r| &r.setup_s)));
    m.insert("host.speed", median(&all(&|r| &r.speeds)));
}

/// Notes on stderr how far a metric spread over the run's rounds.
fn within_run_spread(what: &str, values: &[f64]) {
    if let Some(spread) = stats::relative_iqr(values) {
        eprintln!(
            "{what}: {} rounds, quartile spread {:.2}% of the median",
            values.len(),
            spread * 100.0
        );
    }
}

/// Percentage by which the traced rounds' median time exceeds the
/// untraced rounds'.
fn overhead_pct(rounds: &[(bool, f64)]) -> f64 {
    let pick = |t: bool| -> Vec<f64> { rounds.iter().filter(|r| r.0 == t).map(|r| r.1).collect() };
    let (on, off) = (median(&pick(true)), median(&pick(false)));
    if off > 0.0 {
        (on / off - 1.0) * 100.0
    } else {
        0.0
    }
}

/// Simulated metrics shared by every workload: outputs come in
/// (workload, preset) order with the presets of [`inputs::PRESETS`].
fn sim_metrics(outs: &[SimulationOutput], m: &mut Metrics) {
    let ipcs: Vec<f64> = outs.iter().map(SimulationOutput::ipc).collect();
    m.insert("sim_ipc", geomean(&ipcs));
    let mpki: Vec<f64> = outs.iter().map(SimulationOutput::stlb_mpki).collect();
    m.insert("stlb_mpki", mpki.iter().sum::<f64>() / mpki.len() as f64);
    let ratios: Vec<f64> = ipcs.chunks(2).map(|p| p[1] / p[0]).collect();
    m.insert("itp_xptp_speedup", geomean(&ratios));

    // Component counts of the iTP+xPTP runs: the mechanism's signals.
    let itpx: Vec<&SimulationOutput> = outs.iter().skip(1).step_by(2).collect();
    let mean = |f: &dyn Fn(&SimulationOutput) -> f64| {
        itpx.iter().map(|o| f(o)).sum::<f64>() / itpx.len() as f64
    };
    m.insert("sim.stlb.impki", mean(&|o| o.stlb_breakdown().instr));
    m.insert("sim.stlb.dmpki", mean(&|o| o.stlb_breakdown().data));
    m.insert("sim.l2c.dpte_mpki", mean(&|o| o.l2c_breakdown().data_pte));
    m.insert(
        "sim.walks_pki",
        mean(&|o| o.walker.walks as f64 * 1e3 / o.instructions() as f64),
    );
    m.insert("sim.walk_latency_cycles", mean(&|o| o.walker.avg_latency));
    m.insert(
        "sim.xptp_enabled_fraction",
        mean(&|o| o.xptp_enabled_fraction.unwrap_or(0.0)),
    );
    m.insert(
        "sim.itrans_stall_fraction",
        mean(&|o| o.itrans_stall_fraction()),
    );
}

/// `server-flat` and `tiered-tenants`: rounds of direct simulations of
/// every spec under both presets.
fn sims_workload(
    specs: &[itpx_trace::WorkloadSpec],
    functional: bool,
    args: &Args,
    checks: &mut Checks,
) -> Metrics {
    let mut m = Metrics::new();
    // The first round warms the host (allocator, page cache, CPU
    // frequency) and is not timed; its outputs are the reference the
    // measured rounds must reproduce.
    let mut cal = Calibrator::new();
    let first = sims::round(specs, None, &mut cal, &mut Tracer::new(false), checks);
    let budget = if args.trace {
        args.seconds * TRACED_ROUND_SHARE
    } else {
        args.seconds
    };
    let mut tracer = Tracer::new(args.trace);
    let rounds = timed_rounds(budget, args.trace, |traced| {
        let mut off = Tracer::new(false);
        let t = if traced { &mut tracer } else { &mut off };
        sims::round(specs, Some(&first), &mut cal, t, checks)
    });
    let (executed, horizon) = sims::round_work(specs);
    let timed: Vec<&RoundTiming> = rounds
        .iter()
        .filter(|r| !r.0)
        .map(|r| &r.1.timing)
        .collect();
    host_metrics(&timed, executed, horizon, &mut m);
    sim_metrics(&first.outs, &mut m);
    if args.trace {
        let times: Vec<(bool, f64)> = rounds.iter().map(|(t, r)| (*t, r.timing.work_s)).collect();
        m.insert("trace.overhead_pct", overhead_pct(&times));
        layer_metrics(&specs[0], functional, None, &mut tracer, &mut m, args);
        zero_service(&mut m);
        count_rounds(&times, &mut m);
    }
    m
}

fn count_rounds(times: &[(bool, f64)], m: &mut Metrics) {
    let traced = times.iter().filter(|t| t.0).count();
    m.insert("trace.rounds_traced", traced as f64);
    m.insert("trace.rounds_untraced", (times.len() - traced) as f64);
}

fn zero_service(m: &mut Metrics) {
    for name in [
        "bench.campaign.hit_ratio",
        "bench.campaign.cold_s",
        "bench.campaign.warm_s",
        "bench.serve.rps",
        "bench.serve.p50_ms",
        "bench.serve.tail_ms",
        "bench.serve.tail_pct",
        "bench.serve.samples",
        "bench.serve.failed",
    ] {
        m.insert(name, 0.0);
    }
}

/// `campaign-serve`: rounds of cold batch, warm replays and warm HTTP.
fn service_workload(args: &Args, checks: &mut Checks) -> Metrics {
    let items = inputs::campaign_items(args.seed);
    let dir = PathBuf::from(SCRATCH).join(format!("store-{}", std::process::id()));
    let mut bodies = service::Bodies::new();
    let mut m = Metrics::new();
    let mut cal = Calibrator::new();
    let first = service::round(
        &items,
        &dir,
        None,
        &mut bodies,
        &mut cal,
        &mut Tracer::new(false),
        checks,
    );
    let budget = if args.trace {
        args.seconds * TRACED_ROUND_SHARE
    } else {
        args.seconds
    };
    let mut tracer = Tracer::new(args.trace);
    let rounds = timed_rounds(budget, args.trace, |traced| {
        let mut off = Tracer::new(false);
        let t = if traced { &mut tracer } else { &mut off };
        service::round(&items, &dir, Some(&first), &mut bodies, &mut cal, t, checks)
    });
    let specs: Vec<&itpx_trace::WorkloadSpec> = items.iter().map(inputs::item_spec).collect();
    let executed: u64 = specs.iter().map(|s| inputs::executed(s)).sum();
    let horizon: u64 = specs.iter().map(|s| inputs::horizon(s)).sum();
    let timed: Vec<&RoundTiming> = rounds
        .iter()
        .filter(|r| !r.0)
        .map(|r| &r.1.timing)
        .collect();
    host_metrics(&timed, executed, horizon, &mut m);
    sim_metrics(&first.outs, &mut m);
    if args.trace {
        let total =
            |r: &service::ServiceRound| r.timing.work_s + r.warm_s.iter().sum::<f64>() + r.http_s;
        let times: Vec<(bool, f64)> = rounds.iter().map(|(t, r)| (*t, total(r))).collect();
        m.insert("trace.overhead_pct", overhead_pct(&times));
        let untraced: Vec<&service::ServiceRound> =
            rounds.iter().filter(|r| !r.0).map(|r| &r.1).collect();
        service_metrics(&untraced, &mut m);
        layer_metrics(
            specs[0],
            false,
            Some((&items, &first.outs, &dir)),
            &mut tracer,
            &mut m,
            args,
        );
        count_rounds(&times, &mut m);
    }
    let _ = std::fs::remove_dir_all(&dir);
    m
}

/// Service-side figures of the untraced rounds.
fn service_metrics(rounds: &[&service::ServiceRound], m: &mut Metrics) {
    let cold: Vec<f64> = rounds.iter().map(|r| r.timing.work_s).collect();
    let warm: Vec<f64> = rounds.iter().flat_map(|r| r.warm_s.clone()).collect();
    let rps: Vec<f64> = rounds
        .iter()
        .map(|r| r.http_attempted as f64 / r.http_s)
        .collect();
    let lat: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.http_latency_s.clone())
        .collect();
    let hits: u64 = rounds.iter().map(|r| r.warm_hits).sum();
    let lookups: u64 = rounds.iter().map(|r| r.warm_lookups).sum();
    let attempted: u64 = rounds.iter().map(|r| r.http_attempted).sum();
    let failed: u64 = rounds.iter().map(|r| r.http_failed).sum();
    m.insert("bench.campaign.cold_s", median(&cold));
    m.insert("bench.campaign.warm_s", median(&warm));
    m.insert(
        "bench.campaign.hit_ratio",
        hits as f64 / lookups.max(1) as f64,
    );
    m.insert("bench.serve.rps", median(&rps));
    m.insert("bench.serve.p50_ms", median(&lat) * 1e3);
    let tail = stats::tail_percentile(lat.len());
    m.insert("bench.serve.tail_pct", tail.unwrap_or(0.0));
    m.insert(
        "bench.serve.tail_ms",
        tail.map_or(0.0, |p| percentile(&lat, p) * 1e3),
    );
    m.insert("bench.serve.samples", lat.len() as f64);
    m.insert(
        "bench.serve.failed",
        failed as f64 / attempted.max(1) as f64,
    );
}

/// Replays the workload's stream through every layer (plus the store
/// for `campaign-serve`), then turns span totals into per-layer rows.
fn layer_metrics(
    spec: &itpx_trace::WorkloadSpec,
    functional: bool,
    store: Option<(&[inputs::ServiceItem], &[SimulationOutput], &PathBuf)>,
    tracer: &mut Tracer,
    m: &mut Metrics,
    args: &Args,
) {
    let overhead = spans::span_overhead_ns();
    let first_replay_span = tracer.spans().len();
    let started = Instant::now();
    tracer.next_request();
    tracer.open("replay");
    let counts = layers::replay(spec, REPLAY_INSTS, functional, tracer);
    if let Some((items, outs, dir)) = store {
        service::store_replay(items, outs, &dir.join("replay"), tracer);
    }
    tracer.close();
    m.insert("trace.replay_s", started.elapsed().as_secs_f64());

    // Per-call rows come from every span of the run (machine set-ups
    // are only timed in the traced rounds); self-time shares from the
    // replay alone, whose spans follow the rounds' in the buffer.
    let totals = spans::totals_by_name(tracer.spans(), overhead);
    let base = first_replay_span as u32;
    let replay: Vec<spans::Span> = tracer.spans()[first_replay_span..]
        .iter()
        .map(|s| spans::Span {
            parent: s.parent.saturating_sub(base),
            ..*s
        })
        .collect();
    let replay_totals = spans::totals_by_name(&replay, overhead);
    let t = |name: &str| totals.get(name).copied().unwrap_or_default();
    let per_call = |x: NameTotals, scale: f64| {
        if x.calls == 0 {
            0.0
        } else {
            x.self_ns / x.calls as f64 / scale
        }
    };
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };

    let gen = t("trace.gen");
    m.insert("trace.gen_ns_per_inst", gen.self_ns / counts.insts as f64);
    m.insert("trace.gen.insts", counts.insts as f64);
    for (name, value_row, calls_row, scale) in [
        (
            "vm.tlb.lookup",
            "vm.tlb.lookup_ns",
            "vm.tlb.lookup.calls",
            1.0,
        ),
        ("vm.tlb.fill", "vm.tlb.fill_ns", "vm.tlb.fill.calls", 1.0),
        (
            "vm.tlb.flush_asid",
            "vm.tlb.flush_asid_us",
            "vm.tlb.flush_asid.calls",
            1e3,
        ),
        (
            "vm.tlb.invalidate",
            "vm.tlb.invalidate_ns",
            "vm.tlb.invalidate.calls",
            1.0,
        ),
        ("vm.walk", "vm.walk_ns", "vm.walk.calls", 1.0),
        (
            "mem.cache.probe",
            "mem.cache.probe_ns",
            "mem.cache.probe.calls",
            1.0,
        ),
        (
            "mem.cache.fill",
            "mem.cache.fill_ns",
            "mem.cache.fill.calls",
            1.0,
        ),
        (
            "cpu.system.new",
            "cpu.system.new_ms",
            "cpu.system.new.calls",
            1e6,
        ),
        (
            "bench.store.get",
            "bench.store.get_us",
            "bench.store.get.calls",
            1e3,
        ),
        (
            "bench.store.insert",
            "bench.store.insert_us",
            "bench.store.insert.calls",
            1e3,
        ),
    ] {
        let x = t(name);
        m.insert(value_row, per_call(x, scale));
        m.insert(calls_row, x.calls as f64);
    }
    let lookups = t("vm.tlb.lookup").calls;
    m.insert("vm.tlb.hit_ratio", ratio(counts.stlb_hits, lookups));
    m.insert(
        "vm.walk.psc_hit_ratio",
        ratio(counts.psc_hits, t("vm.walk").calls),
    );
    m.insert(
        "mem.cache.hit_ratio",
        ratio(counts.l2c_hits, t("mem.cache.probe").calls),
    );
    for (i, (name, value_row, calls_row)) in [
        ("policy.lru", "policy.lru.op_ns", "policy.lru.calls"),
        ("policy.itp", "policy.itp.op_ns", "policy.itp.calls"),
        ("policy.xptp", "policy.xptp.op_ns", "policy.xptp.calls"),
    ]
    .into_iter()
    .enumerate()
    {
        let ops = counts.policy_ops[i];
        m.insert(
            value_row,
            if ops == 0 {
                0.0
            } else {
                t(name).self_ns / ops as f64
            },
        );
        m.insert(calls_row, ops as f64);
    }
    let fun = t("cpu.functional");
    let fun_insts = if functional { counts.insts } else { 0 };
    m.insert(
        "cpu.functional.ns_per_inst",
        if fun_insts == 0 {
            0.0
        } else {
            fun.self_ns / fun_insts as f64
        },
    );
    m.insert("cpu.functional.insts", fun_insts as f64);
    let sc = t("bench.simcache.get");
    let decode = per_call(sc, 1e3) - m["bench.store.get_us"];
    m.insert(
        "bench.simcache.decode_us",
        if sc.calls == 0 { 0.0 } else { decode.max(0.0) },
    );
    m.insert("bench.simcache.get.calls", sc.calls as f64);

    // Self-time shares of the replay, grouped by layer.
    let root = replay
        .iter()
        .find(|s| s.parent == 0)
        .map_or(1, |s| s.end - s.start)
        .max(1) as f64;
    let group = |prefixes: &[&str]| -> f64 {
        replay_totals
            .iter()
            .filter(|(n, _)| prefixes.iter().any(|p| n.starts_with(p)))
            .map(|(_, x)| x.self_ns)
            .sum::<f64>()
            / root
            + 0.0 // an empty sum is -0.0
    };
    m.insert("trace.gen.self_share", group(&["trace.gen"]));
    m.insert("vm.tlb.self_share", group(&["vm.tlb."]));
    m.insert("vm.walk.self_share", group(&["vm.walk"]));
    m.insert("mem.cache.self_share", group(&["mem.cache."]));
    m.insert("policy.self_share", group(&["policy."]));
    m.insert("cpu.functional.self_share", group(&["cpu.functional"]));
    m.insert("bench.store.self_share", group(&["bench.store."]));
    m.insert("bench.simcache.self_share", group(&["bench.simcache."]));
    m.insert("trace.span_cost_ns", overhead);
    m.insert("trace.spans", tracer.spans().len() as f64);

    // One file per workload, overwritten by each traced run.
    let path = PathBuf::from(SCRATCH).join(format!("spans-{}.csv", args.workload.name()));
    if let Err(e) = tracer.write_csv(&path) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}
