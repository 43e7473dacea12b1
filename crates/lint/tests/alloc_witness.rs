//! The dynamic half of the hot-path gate (see DESIGN.md, "Static
//! analysis"): every registered replacement policy, driven through the
//! enum engines inside the real `Cache`/`Tlb` structures, must make **zero
//! heap allocations** once warm. The static analyzer proves "no allocation
//! is *reachable* from the per-access roots" on the source tree; this test
//! proves it on the machine code that actually ran — macros, std
//! internals, and all. If either side regresses, the two reports disagree
//! and point at each other.
//!
//! Everything runs in one `#[test]` because the counting allocator is
//! process-global: a second test thread allocating concurrently would
//! charge its allocations to whichever policy happens to be mid-drive.

use itpx_core::presets::BuildConfig;
use itpx_core::registry::{cache_policies, tlb_policies, REGISTRY_SEED};
use itpx_core::Preset;
use itpx_cpu::{HashedPerceptron, System, SystemConfig};
use itpx_lint::alloc_witness::CountingAllocator;
use itpx_mem::{Cache, CacheConfig, Probe};
use itpx_trace::{TraceGenerator, TraceInst, WorkloadSpec};
use itpx_types::{Asid, FillClass, PageSize, PhysAddr, Rng64, ThreadId, TranslationKind, VirtAddr};
use itpx_vm::{SplitPscs, Tlb, TlbConfig, TlbLookup};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator::new();

/// Accesses driven after warmup, per policy.
const MEASURED: u64 = 100_000;
/// Accesses driven before the counters are snapshotted. Long enough for
/// every set to fill, every grow-once pool (MSHRs, FTQ-style rings) to
/// reach its high-water mark, and first-touch state to populate.
const WARMUP: u64 = 20_000;

/// Geometry used for every policy: power-of-two ways so tree-PLRU's
/// `pow2_ways_only` constraint is satisfied by the same drive.
const SETS: usize = 64;
const WAYS: usize = 8;
/// Working set in blocks/pages: ~4x the structure capacity, so the drive
/// mixes hits, misses, and evictions in steady state.
const FOOTPRINT: u64 = (SETS * WAYS * 4) as u64;

fn fill_class(r: &mut Rng64) -> FillClass {
    match r.below(4) {
        0 => FillClass::InstrPayload,
        1 => FillClass::DataPayload,
        2 => FillClass::InstrPte,
        _ => FillClass::DataPte,
    }
}

/// One deterministic cache access: probe, and on a miss fill after a fixed
/// 20-cycle miss path. Returns the advanced clock.
fn cache_access(cache: &mut Cache, r: &mut Rng64, now: u64) -> u64 {
    let mut meta = itpx_policy::CacheMeta::demand(r.below(FOOTPRINT), fill_class(r));
    meta.pc = r.below(1 << 20) << 2;
    meta.stlb_miss = r.chance(0.1);
    meta.thread = ThreadId((now & 1) as u8);
    if let Probe::Miss(start) = cache.probe(&meta, now, true) {
        cache.fill(&meta, start, start + 20, true);
    }
    now + 1
}

/// One deterministic TLB access: lookup, and on a miss install the page's
/// identity translation after a fixed 30-cycle walk.
fn tlb_access(tlb: &mut Tlb, r: &mut Rng64, now: u64) -> u64 {
    let page = r.below(FOOTPRINT);
    let va = VirtAddr(page << 12 | r.below(4096));
    let kind = if r.chance(0.4) {
        TranslationKind::Instruction
    } else {
        TranslationKind::Data
    };
    let pc = r.below(1 << 20) << 2;
    let thread = ThreadId((now & 1) as u8);
    if let TlbLookup::Miss = tlb.lookup(va, kind, pc, thread, now) {
        let done = tlb.mshr_alloc(va, kind, now) + 30;
        tlb.fill(
            page,
            PageSize::Base4K,
            PhysAddr::new(page << 12),
            kind,
            Asid::GLOBAL,
            pc,
            thread,
            done - now,
            done,
        );
        tlb.mshr_complete(va, done);
    }
    now + 1
}

/// One fast-forward's warm tail the way the tiered engine runs it: a warm
/// fetch per new code block, the data access, the predictor's training,
/// then the settle step at the segment edge. Returns its allocation
/// events.
fn fast_forward(system: &mut System, bp: &mut HashedPerceptron, insts: &[TraceInst]) -> u64 {
    let start = ALLOCATOR.snapshot();
    let mut block = u64::MAX;
    for inst in insts {
        if inst.pc >> 6 != block {
            block = inst.pc >> 6;
            system.warm_fetch(VirtAddr(inst.pc), ThreadId(0));
        }
        if let Some(m) = inst.mem {
            system.warm_data(VirtAddr(m.addr), inst.pc, ThreadId(0), m.store);
        }
        if let Some(b) = inst.branch {
            bp.train(inst.pc, b.taken);
        }
    }
    system.settle();
    start.events_until(ALLOCATOR.snapshot())
}

#[test]
fn zero_steady_state_allocations_for_every_registered_policy() {
    let mut failures = Vec::new();

    for entry in cache_policies() {
        let cfg = CacheConfig {
            sets: SETS,
            ways: WAYS,
            latency: 1,
            mshr_entries: 8,
        };
        let mut cache = Cache::new(cfg, (entry.build)(SETS, WAYS));
        let mut r = Rng64::new(REGISTRY_SEED ^ 0xcac4e);
        let mut now = 0;
        for _ in 0..WARMUP {
            now = cache_access(&mut cache, &mut r, now);
        }
        let warm = ALLOCATOR.snapshot();
        for _ in 0..MEASURED {
            now = cache_access(&mut cache, &mut r, now);
        }
        let events = warm.events_until(ALLOCATOR.snapshot());
        if events != 0 {
            failures.push(format!(
                "cache policy `{}`: {events} allocation event(s) across {MEASURED} warm accesses",
                entry.name
            ));
        }
    }

    for entry in tlb_policies() {
        let cfg = TlbConfig {
            sets: SETS,
            ways: WAYS,
            latency: 1,
            mshr_entries: 8,
        };
        let mut tlb = Tlb::new(cfg, (entry.build)(SETS, WAYS));
        let mut r = Rng64::new(REGISTRY_SEED ^ 0x71b);
        let mut now = 0;
        for _ in 0..WARMUP {
            now = tlb_access(&mut tlb, &mut r, now);
        }
        let warm = ALLOCATOR.snapshot();
        for _ in 0..MEASURED {
            now = tlb_access(&mut tlb, &mut r, now);
        }
        let events = warm.events_until(ALLOCATOR.snapshot());
        if events != 0 {
            failures.push(format!(
                "TLB policy `{}`: {events} allocation event(s) across {MEASURED} warm accesses",
                entry.name
            ));
        }
    }

    // The flat-grid structures outside the policy engines: the split PSC
    // hierarchy (SetGrid tag arrays + LRU) and the hashed-perceptron
    // branch predictor (one SetGrid of weights). Both sit on the
    // per-access path and must be allocation-free after construction.
    {
        let mut pscs = SplitPscs::asplos25();
        let mut r = Rng64::new(REGISTRY_SEED ^ 0x95c);
        let drive = |pscs: &mut SplitPscs, r: &mut Rng64| {
            let vpn4k = r.below(FOOTPRINT << 9);
            let start = pscs.start_level(vpn4k);
            if start == 5 {
                pscs.fill(vpn4k, 1);
            }
        };
        for _ in 0..WARMUP {
            drive(&mut pscs, &mut r);
        }
        let warm = ALLOCATOR.snapshot();
        for _ in 0..MEASURED {
            drive(&mut pscs, &mut r);
        }
        let events = warm.events_until(ALLOCATOR.snapshot());
        if events != 0 {
            failures.push(format!(
                "split PSCs: {events} allocation event(s) across {MEASURED} warm walks"
            ));
        }
    }

    {
        let mut bp = HashedPerceptron::new();
        let mut r = Rng64::new(REGISTRY_SEED ^ 0xb9a);
        let drive = |bp: &mut HashedPerceptron, r: &mut Rng64| {
            let pc = r.below(1 << 16) << 2;
            let taken = r.chance(0.6);
            let _ = bp.predict(pc);
            bp.update(pc, taken);
        };
        for _ in 0..WARMUP {
            drive(&mut bp, &mut r);
        }
        let warm = ALLOCATOR.snapshot();
        for _ in 0..MEASURED {
            drive(&mut bp, &mut r);
        }
        let events = warm.events_until(ALLOCATOR.snapshot());
        if events != 0 {
            failures.push(format!(
                "hashed perceptron: {events} allocation event(s) across {MEASURED} warm predictions"
            ));
        }
    }

    // The fast-forward: its warm tail runs per instruction on the
    // machine's own structures and must not allocate once its pages are
    // mapped. The first segment maps every page and fills every
    // structure; the second, over the same stream, is measured.
    {
        let insts: Vec<TraceInst> = TraceGenerator::new(&WorkloadSpec::server_like(3))
            .take(50_000)
            .collect();
        let cfg = SystemConfig::asplos25();
        let bundle = Preset::ItpXptp.build(&cfg.dims(), &BuildConfig::default());
        let mut system = System::new(cfg, bundle, 1);
        let mut bp = HashedPerceptron::new();
        fast_forward(&mut system, &mut bp, &insts);
        let events = fast_forward(&mut system, &mut bp, &insts);
        if events != 0 {
            failures.push(format!(
                "fast-forward warm tail: {events} allocation event(s) across {} warm instructions",
                insts.len()
            ));
        }
    }

    assert!(
        failures.is_empty(),
        "steady-state allocations detected:\n  {}",
        failures.join("\n  ")
    );
}
