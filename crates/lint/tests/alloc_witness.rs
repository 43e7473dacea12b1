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
use itpx_cpu::{FunctionalMachine, HashedPerceptron, System, SystemConfig};
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

/// Allocation events of one functional fast-forward, by phase.
struct SegmentAllocs {
    /// `from_cycle` plus `seed_cycle`: the two handoffs.
    handoff: u64,
    /// The functionally executed warm tail between them.
    tail: u64,
}

/// One fast-forward segment the way the tiered engine runs it: snapshot
/// the cycle structures, execute `insts` functionally (a fetch per new
/// code block, then the data access), and seed the result back.
fn fast_forward(system: &mut System, insts: &[TraceInst]) -> SegmentAllocs {
    let start = ALLOCATOR.snapshot();
    let mut fun = FunctionalMachine::from_cycle(system);
    let in_handoff = start.events_until(ALLOCATOR.snapshot());
    let tail_start = ALLOCATOR.snapshot();
    let mut block = u64::MAX;
    for inst in insts {
        let space = system.address_space_mut(ThreadId(0));
        if inst.pc >> 6 != block {
            block = inst.pc >> 6;
            fun.fetch(space, VirtAddr(inst.pc));
        }
        match inst.mem {
            Some(m) if m.store => fun.store(space, VirtAddr(m.addr)),
            Some(m) => fun.load(space, VirtAddr(m.addr)),
            None => {}
        }
    }
    let tail = tail_start.events_until(ALLOCATOR.snapshot());
    let out_start = ALLOCATOR.snapshot();
    fun.seed_cycle(system);
    SegmentAllocs {
        handoff: in_handoff + out_start.events_until(ALLOCATOR.snapshot()),
        tail,
    }
}

/// Runs two fast-forward segments over the same stream on a fresh
/// system with `cfg`'s geometry and returns the second one's counts:
/// the first maps every page and fills every structure.
fn second_segment(cfg: SystemConfig, insts: &[TraceInst]) -> SegmentAllocs {
    let bundle = Preset::ItpXptp.build(&cfg.dims(), &BuildConfig::default());
    let mut system = System::new(cfg, bundle, 1);
    fast_forward(&mut system, insts);
    fast_forward(&mut system, insts)
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

    // The functional tier: a fast-forward segment's warm tail runs per
    // instruction and must not allocate once its pages are mapped, and
    // the handoffs around it allocate per structure, never per set.
    {
        let insts: Vec<TraceInst> = TraceGenerator::new(&WorkloadSpec::server_like(3))
            .take(50_000)
            .collect();
        let base = SystemConfig::asplos25();
        let mut big = base.with_stlb_entries(base.stlb.sets * base.stlb.ways * 2);
        big.hierarchy.llc_mut().expect("asplos25 has an LLC").sets *= 4;
        let small = second_segment(base, &insts);
        let large = second_segment(big, &insts);
        if small.tail != 0 {
            failures.push(format!(
                "functional warm tail: {} allocation event(s) across {} warm instructions",
                small.tail,
                insts.len()
            ));
        }
        if small.handoff != large.handoff {
            failures.push(format!(
                "tier handoff: {} allocation event(s) grew to {} with 2x STLB and 4x LLC sets",
                small.handoff, large.handoff
            ));
        }
    }

    assert!(
        failures.is_empty(),
        "steady-state allocations detected:\n  {}",
        failures.join("\n  ")
    );
}
