//! End-to-end benchmarks: the cost of regenerating each figure family at
//! a miniature scale (these gate performance regressions of the whole
//! simulator; the real reproductions run via `run_all`).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use itpx_core::Preset;
use itpx_cpu::{Simulation, SystemConfig};
use itpx_trace::{smt_suite, WorkloadSpec};
use std::hint::black_box;

const INSTR: u64 = 20_000;
const WARMUP: u64 = 5_000;

fn workload(seed: u64) -> WorkloadSpec {
    WorkloadSpec::server_like(seed)
        .instructions(INSTR)
        .warmup(WARMUP)
}

fn benches(c: &mut Criterion) {
    let cfg = SystemConfig::asplos25();
    let mut g = c.benchmark_group("figures");
    g.sample_size(10);
    g.throughput(Throughput::Elements(INSTR + WARMUP));

    // Figure 8a family: one single-thread policy run.
    for preset in [Preset::Lru, Preset::Itp, Preset::ItpXptp, Preset::Tdrrip] {
        g.bench_function(format!("fig08a/{preset}"), |b| {
            b.iter(|| black_box(Simulation::single_thread(&cfg, preset, &workload(1)).run()))
        });
    }

    // Figure 8b family: one SMT run.
    let mut pair = smt_suite(1).remove(0);
    pair.a = pair.a.instructions(INSTR).warmup(WARMUP);
    pair.b = pair.b.instructions(INSTR).warmup(WARMUP);
    g.bench_function("fig08b/iTP+xPTP", |b| {
        b.iter(|| black_box(Simulation::smt(&cfg, Preset::ItpXptp, &pair).run()))
    });

    // Figure 1 family: ITLB sweep point.
    let small = cfg.with_itlb_entries(8);
    g.bench_function("fig01/itlb8", |b| {
        b.iter(|| black_box(Simulation::single_thread(&small, Preset::Lru, &workload(2)).run()))
    });

    // Figure 13 family: huge-page run.
    let huge = cfg.with_huge_pages(itpx_vm::HugePagePolicy::uniform(0.5, 3));
    g.bench_function("fig13/huge50", |b| {
        b.iter(|| black_box(Simulation::single_thread(&huge, Preset::ItpXptp, &workload(3)).run()))
    });

    // Figure 14 family: split STLB run.
    let split = cfg.with_split_stlb(true);
    g.bench_function("fig14/split", |b| {
        b.iter(|| black_box(Simulation::single_thread(&split, Preset::Lru, &workload(4)).run()))
    });
    g.finish();
}

criterion_group!(figures, benches);
criterion_main!(figures);
