//! Microbenchmarks: per-access cost of every replacement policy.
//!
//! The paper argues iTP/xPTP are implementable with trivial hardware; the
//! software analogue is that their bookkeeping should cost no more than
//! the baselines'. One iteration = one fill + one hit + one victim choice.

use criterion::{criterion_group, criterion_main, Criterion};
use itpx_core::{Itp, ItpParams, Xptp, XptpParams, XptpSwitch};
use itpx_policy::*;
use itpx_types::{FillClass, TranslationKind};
use std::hint::black_box;

const SETS: usize = 128;
const WAYS: usize = 12;
/// Geometry of the benchmarked L2C-like cache policies (Table 1's L2C).
const CACHE_SETS: usize = 1024;
const CACHE_WAYS: usize = 8;

fn bench_cache_policy(c: &mut Criterion, name: &str, mut p: Box<dyn Policy<CacheMeta>>) {
    let mut i = 0u64;
    c.bench_function(&format!("cache/{name}"), |b| {
        b.iter(|| {
            i = i.wrapping_add(1);
            let set = (i as usize) % CACHE_SETS;
            let way = (i as usize) % CACHE_WAYS;
            let fill = if i.is_multiple_of(5) {
                FillClass::DataPte
            } else {
                FillClass::DataPayload
            };
            let m = CacheMeta::demand(i, fill);
            p.on_fill(set, way, &m);
            p.on_hit(set, (way + 1) % CACHE_WAYS, &m);
            black_box(p.victim(set, &m));
        })
    });
}

fn bench_tlb_policy(c: &mut Criterion, name: &str, mut p: Box<dyn Policy<TlbMeta>>) {
    let mut i = 0u64;
    c.bench_function(&format!("tlb/{name}"), |b| {
        b.iter(|| {
            i = i.wrapping_add(1);
            let set = (i as usize) % SETS;
            let way = (i as usize) % WAYS;
            let kind = if i.is_multiple_of(3) {
                TranslationKind::Instruction
            } else {
                TranslationKind::Data
            };
            let m = TlbMeta::demand(i, kind);
            p.on_fill(set, way, &m);
            p.on_hit(set, (way + 1) % WAYS, &m);
            black_box(p.victim(set, &m));
        })
    });
}

fn benches(c: &mut Criterion) {
    bench_tlb_policy(c, "lru", Box::new(Lru::new(SETS, WAYS)));
    bench_tlb_policy(
        c,
        "itp",
        Box::new(Itp::new(SETS, WAYS, ItpParams::default())),
    );
    bench_tlb_policy(c, "chirp", Box::new(Chirp::new(SETS, WAYS)));
    bench_tlb_policy(
        c,
        "prob-keep-instr",
        Box::new(ProbKeepInstrLru::new(SETS, WAYS, 0.8, 1)),
    );

    bench_cache_policy(c, "lru", Box::new(Lru::new(1024, 8)));
    bench_cache_policy(
        c,
        "xptp",
        Box::new(Xptp::new(1024, 8, XptpParams::default())),
    );
    bench_cache_policy(
        c,
        "adaptive-xptp",
        Box::new(Xptp::adaptive(
            1024,
            8,
            XptpParams::default(),
            XptpSwitch::new(),
        )),
    );
    bench_cache_policy(c, "ptp", Box::new(Ptp::new(1024, 8)));
    bench_cache_policy(c, "tdrrip", Box::new(Drrip::translation_aware(1024, 8, 7)));
    bench_cache_policy(c, "ship", Box::new(Ship::new(1024, 8)));
    bench_cache_policy(c, "mockingjay", Box::new(Mockingjay::new(1024, 8)));
    bench_cache_policy(c, "drrip", Box::new(Drrip::new(1024, 8, 9)));
}

criterion_group!(policy_ops, benches);
criterion_main!(policy_ops);
