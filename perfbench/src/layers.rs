//! Per-layer replay for the traced run.
//!
//! The workload's own instruction stream is generated once from its
//! seed, then pushed through each layer's public functions with a span
//! around every call: the STLB (`Tlb`), the walk (`PageTable::translate`
//! through the address space, then `PageWalker::walk` with its
//! `SplitPscs`), the L2C (`Cache`), the replacement policies (`Policy`),
//! and for tiered workloads the functional tier (`FunctionalMachine`).
//! Calls that sit on the same simulated access are replayed interleaved,
//! in stream order, so each structure sees the state the stream gives
//! it; untimed first-level TLBs and caches filter the stream the way
//! the simulated machine does.

use crate::spans::Tracer;
use itpx_core::presets::BuildConfig;
use itpx_core::Preset;
use itpx_cpu::{FunctionalMachine, HashedPerceptron, SystemConfig};
use itpx_mem::{Cache, Probe};
use itpx_policy::{CacheMeta, Itp, ItpParams, Lru, Policy, TlbMeta, Xptp, XptpParams};
use itpx_trace::{TraceGenerator, TraceInst, WorkloadSpec};
use itpx_types::{Asid, FillClass, PhysAddr, ThreadId, TranslationKind, VirtAddr};
use itpx_vm::{AddressSpace, PageWalker, PteMemory, SplitPscs, Tlb, TlbLookup};

/// Instructions per span for layers replayed in bulk.
const CHUNK: usize = 1_024;

/// Counts the replay gathers next to the span times.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    /// Instructions replayed.
    pub insts: u64,
    /// STLB lookups that hit.
    pub stlb_hits: u64,
    /// Walks that started below the root thanks to a PSC hit.
    pub psc_hits: u64,
    /// L2C probes that hit.
    pub l2c_hits: u64,
    /// Policy operations per policy: LRU, iTP, xPTP.
    pub policy_ops: [u64; 3],
}

/// Constant-latency PTE memory: the walk is timed on its own, without
/// the cache hierarchy behind it.
struct FlatMemory;

impl PteMemory for FlatMemory {
    fn pte_access(&mut self, _pa: PhysAddr, _kind: TranslationKind, now: u64) -> u64 {
        now + 20
    }
}

/// One instruction of the replayed stream and the tenant running it.
struct Step {
    inst: TraceInst,
    tenant: u16,
}

/// Tenant `t`'s spec: the workload's shape over re-seeded pages.
fn tenant_spec(spec: &WorkloadSpec, t: u16) -> WorkloadSpec {
    let mut s = spec.clone();
    s.seed ^= u64::from(t).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    s
}

fn tenants(spec: &WorkloadSpec) -> u16 {
    spec.contexts.tenants.max(1)
}

/// Generates `n` instructions, time-sliced round-robin over the spec's
/// tenants every quantum.
fn generate(spec: &WorkloadSpec, n: usize, tracer: &mut Tracer) -> Vec<Step> {
    let quantum = spec.contexts.quantum.max(1) as usize;
    let mut gens: Vec<TraceGenerator> = (0..tenants(spec))
        .map(|t| TraceGenerator::new(&tenant_spec(spec, t)))
        .collect();
    // Written once before timing, so first-touch page faults of the
    // buffer are not charged to the generator.
    let mut steps: Vec<Step> = (0..n)
        .map(|_| Step {
            inst: TraceInst::alu(0),
            tenant: 0,
        })
        .collect();
    for (c, chunk) in steps.chunks_mut(CHUNK).enumerate() {
        tracer.open("trace.gen");
        for (j, step) in chunk.iter_mut().enumerate() {
            let tenant = (((c * CHUNK + j) / quantum) % gens.len()) as u16;
            // the generator is an endless stream
            let inst = gens[tenant as usize].next().expect("endless generator");
            *step = Step { inst, tenant };
        }
        tracer.close();
    }
    steps
}

/// A memory reference of the stream: what the translation path sees.
#[derive(Clone, Copy)]
struct Ref {
    va: VirtAddr,
    kind: TranslationKind,
    store: bool,
    pc: u64,
}

/// Stream events in order: context switches, shootdowns, references,
/// and resolved branches (which only the functional tier's predictor
/// warming consumes).
enum Event {
    Switch(Asid),
    Shootdown(VirtAddr),
    Access(Ref),
    Branch { pc: u64, taken: bool },
}

/// Lowers the stream into events: a fetch per new code block, one access
/// per memory operand, one event per branch, a switch at each quantum,
/// and a shootdown of the next data page at each shootdown cadence.
fn events(spec: &WorkloadSpec, steps: &[Step]) -> Vec<Event> {
    let every = spec.contexts.shootdown_every;
    let mut out = Vec::with_capacity(steps.len());
    let mut tenant = 0;
    let mut block = u64::MAX;
    let mut shootdown_due = false;
    for (i, s) in steps.iter().enumerate() {
        if s.tenant != tenant {
            tenant = s.tenant;
            block = u64::MAX;
            out.push(Event::Switch(Asid(tenant)));
        }
        if every > 0 && i > 0 && (i as u64).is_multiple_of(every) {
            shootdown_due = true;
        }
        if s.inst.pc >> 6 != block {
            block = s.inst.pc >> 6;
            out.push(Event::Access(Ref {
                va: VirtAddr::new(s.inst.pc),
                kind: TranslationKind::Instruction,
                store: false,
                pc: s.inst.pc,
            }));
        }
        if let Some(m) = s.inst.mem {
            let va = VirtAddr::new(m.addr);
            if shootdown_due {
                shootdown_due = false;
                out.push(Event::Shootdown(va));
            }
            out.push(Event::Access(Ref {
                va,
                kind: TranslationKind::Data,
                store: m.store,
                pc: s.inst.pc,
            }));
        }
        if let Some(b) = s.inst.branch {
            out.push(Event::Branch {
                pc: s.inst.pc,
                taken: b.taken,
            });
        }
    }
    out
}

fn address_space(cfg: &SystemConfig, spec: &WorkloadSpec) -> AddressSpace {
    if spec.contexts.is_flat() {
        AddressSpace::single(cfg.huge_pages, cfg.seed, 0)
    } else {
        AddressSpace::multi(
            usize::from(tenants(spec)),
            cfg.huge_pages,
            cfg.seed,
            0,
            spec.contexts.global_fraction,
            spec.contexts.global_seed,
        )
    }
}

/// An L2C-bound reference: block and fill class.
#[derive(Clone, Copy)]
struct L2Ref {
    block: u64,
    class: FillClass,
}

/// A physical reference in stream order: payload accesses enter at the
/// L1 caches, walk references at the L2C.
#[derive(Clone, Copy)]
enum PhysRef {
    Payload {
        block: u64,
        class: FillClass,
        store: bool,
    },
    Pte(L2Ref),
}

/// An STLB access for the policy replay.
#[derive(Clone, Copy)]
struct StlbAccess {
    vpn: u64,
    kind: TranslationKind,
    hit: bool,
}

/// STLB, walk and shootdown replay over the events. Returns the STLB
/// accesses and the physical references, in stream order.
fn translation_pass(
    cfg: &SystemConfig,
    spec: &WorkloadSpec,
    events: &[Event],
    tracer: &mut Tracer,
    counts: &mut Counts,
) -> (Vec<StlbAccess>, Vec<PhysRef>) {
    let bundle = Preset::ItpXptp.build(&cfg.dims(), &BuildConfig::default());
    let mut itlb = Tlb::new(cfg.itlb, Lru::new(cfg.itlb.sets, cfg.itlb.ways));
    let mut dtlb = Tlb::new(cfg.dtlb, Lru::new(cfg.dtlb.sets, cfg.dtlb.ways));
    let mut stlb = Tlb::new(cfg.stlb, bundle.stlb);
    let mut pscs = SplitPscs::asplos25();
    let mut walker = PageWalker::new(cfg.walker_concurrency);
    let mut space = address_space(cfg, spec);
    let tid = ThreadId(0);
    let mut accesses = Vec::new();
    let mut refs = Vec::new();
    let mut now = 0u64;
    for ev in events {
        now += 1;
        match *ev {
            Event::Switch(asid) => {
                tracer.span("vm.tlb.flush_asid", || stlb.flush_asid(asid));
                itlb.flush_asid(asid);
                dtlb.flush_asid(asid);
                pscs.flush_asid(asid);
                for t in [&mut itlb, &mut dtlb, &mut stlb] {
                    t.set_current_asid(asid);
                }
                space.switch_to(asid);
            }
            Event::Branch { .. } => {}
            Event::Shootdown(va) => {
                let asid = stlb.current_asid();
                tracer.span("vm.tlb.invalidate", || stlb.invalidate_page(va, asid));
                itlb.invalidate_page(va, asid);
                dtlb.invalidate_page(va, asid);
            }
            Event::Access(r) => {
                let l1 = if r.kind.is_instruction() {
                    &mut itlb
                } else {
                    &mut dtlb
                };
                let pa = match l1.lookup(r.va, r.kind, r.pc, tid, now) {
                    TlbLookup::Hit { frame, size, .. } => frame.offset(r.va.page_offset(size)),
                    TlbLookup::Miss => {
                        let lookup = tracer.span("vm.tlb.lookup", || {
                            stlb.lookup(r.va, r.kind, r.pc, tid, now)
                        });
                        let (vpn, size, frame, asid, pa) = match lookup {
                            TlbLookup::Hit { frame, size, .. } => {
                                counts.stlb_hits += 1;
                                let pa = frame.offset(r.va.page_offset(size));
                                (r.va.vpn(size).0, size, frame, stlb.current_asid(), pa)
                            }
                            TlbLookup::Miss => {
                                let (tr, walk) = tracer.span("vm.walk", || {
                                    let tr = space.translate(r.va, r.kind);
                                    let walk = walker.walk(&tr, r.kind, &mut pscs, FlatMemory, now);
                                    (tr, walk)
                                });
                                if walk.start_level < 5 {
                                    counts.psc_hits += 1;
                                }
                                for &(_, pte) in tr.path.from_level(walk.start_level) {
                                    refs.push(PhysRef::Pte(L2Ref {
                                        block: pte.block().index(),
                                        class: FillClass::pte_for(r.kind),
                                    }));
                                }
                                tracer.span("vm.tlb.fill", || {
                                    stlb.fill(
                                        tr.vpn, tr.size, tr.frame, r.kind, tr.asid, r.pc, tid, 20,
                                        now,
                                    )
                                });
                                (tr.vpn, tr.size, tr.frame, tr.asid, tr.pa)
                            }
                        };
                        accesses.push(StlbAccess {
                            vpn,
                            kind: r.kind,
                            hit: matches!(lookup, TlbLookup::Hit { .. }),
                        });
                        let l1 = if r.kind.is_instruction() {
                            &mut itlb
                        } else {
                            &mut dtlb
                        };
                        l1.fill(vpn, size, frame, r.kind, asid, r.pc, tid, 1, now);
                        pa
                    }
                };
                let class = if r.kind.is_instruction() {
                    FillClass::InstrPayload
                } else {
                    FillClass::DataPayload
                };
                refs.push(PhysRef::Payload {
                    block: pa.block().index(),
                    class,
                    store: r.store,
                });
            }
        }
    }
    (accesses, refs)
}

/// Untimed L1 filter plus timed L2C probe/fill over the physical
/// references. Returns every L2C access with whether it hit.
fn cache_pass(
    cfg: &SystemConfig,
    refs: &[PhysRef],
    tracer: &mut Tracer,
    counts: &mut Counts,
) -> Vec<(L2Ref, bool)> {
    let h = &cfg.hierarchy;
    let mut l1i = Cache::new(h.l1i, Lru::new(h.l1i.sets, h.l1i.ways));
    let mut l1d = Cache::new(h.l1d, Lru::new(h.l1d.sets, h.l1d.ways));
    let bundle = Preset::ItpXptp.build(&cfg.dims(), &BuildConfig::default());
    let mut l2c = Cache::new(*h.l2c(), bundle.l2c);
    let mut seen = Vec::new();
    for (now, r) in refs.iter().enumerate() {
        let now = now as u64;
        let l2 = match *r {
            PhysRef::Pte(l2) => l2,
            PhysRef::Payload {
                block,
                class,
                store,
            } => {
                let l1 = if class == FillClass::InstrPayload {
                    &mut l1i
                } else {
                    &mut l1d
                };
                let meta = CacheMeta::demand(block, class);
                let miss = match l1.probe(&meta, now, true) {
                    Probe::Hit(_) => None,
                    Probe::Miss(start) => {
                        let _ = l1.fill(&meta, start, start + 10, true);
                        Some(L2Ref { block, class })
                    }
                };
                if store {
                    l1d.mark_dirty(block);
                }
                match miss {
                    Some(l2) => l2,
                    None => continue,
                }
            }
        };
        let meta = CacheMeta::demand(l2.block, l2.class);
        let probe = tracer.span("mem.cache.probe", || l2c.probe(&meta, now, true));
        let hit = match probe {
            Probe::Hit(_) => true,
            Probe::Miss(start) => {
                tracer.span("mem.cache.fill", || {
                    l2c.fill(&meta, start, start + 30, true)
                });
                false
            }
        };
        counts.l2c_hits += u64::from(hit);
        seen.push((l2, hit));
    }
    seen
}

/// Drives a policy the way a structure would over `ops`: a hit touches
/// one way, a miss picks a victim, evicts and fills it.
fn drive<M>(
    policy: &mut dyn Policy<M>,
    sets: usize,
    ways: usize,
    ops: &[(u64, M, bool)],
    name: &'static str,
    tracer: &mut Tracer,
) -> u64 {
    for chunk in ops.chunks(CHUNK) {
        tracer.open(name);
        for (key, meta, hit) in chunk {
            let set = (*key as usize) & (sets - 1);
            if *hit {
                policy.on_hit(set, (*key as usize / sets) % ways, meta);
            } else {
                let way = policy.victim(set, meta);
                policy.on_evict(set, way);
                policy.on_fill(set, way, meta);
            }
        }
        tracer.close();
    }
    ops.len() as u64
}

/// LRU (the control) and iTP over the STLB access stream, and xPTP over
/// the L2C access stream, each at its structure's geometry.
fn policy_pass(
    cfg: &SystemConfig,
    stlb: &[StlbAccess],
    l2: &[(L2Ref, bool)],
    tracer: &mut Tracer,
    counts: &mut Counts,
) {
    let (ss, sw) = (cfg.stlb.sets, cfg.stlb.ways);
    let tlb_ops: Vec<(u64, TlbMeta, bool)> = stlb
        .iter()
        .map(|a| (a.vpn, TlbMeta::demand(a.vpn, a.kind), a.hit))
        .collect();
    let mut lru = Lru::new(ss, sw);
    counts.policy_ops[0] = drive(&mut lru, ss, sw, &tlb_ops, "policy.lru", tracer);
    let mut itp = Itp::new(ss, sw, ItpParams::default());
    counts.policy_ops[1] = drive(&mut itp, ss, sw, &tlb_ops, "policy.itp", tracer);
    let l2c = cfg.hierarchy.l2c();
    let cache_ops: Vec<(u64, CacheMeta, bool)> = l2
        .iter()
        .map(|(r, hit)| (r.block, CacheMeta::demand(r.block, r.class), *hit))
        .collect();
    let mut xptp = Xptp::new(l2c.sets, l2c.ways, XptpParams::default());
    counts.policy_ops[2] = drive(
        &mut xptp,
        l2c.sets,
        l2c.ways,
        &cache_ops,
        "policy.xptp",
        tracer,
    );
}

/// The functional tier over the same stream, doing what a fast-forward
/// does per instruction: switches and shootdowns, fetches, loads and
/// stores through the `FunctionalMachine`, and branch predictor warming.
fn functional_pass(cfg: &SystemConfig, spec: &WorkloadSpec, events: &[Event], tracer: &mut Tracer) {
    let mut fun = FunctionalMachine::new(cfg);
    let mut predictor = HashedPerceptron::new();
    let mut space = address_space(cfg, spec);
    let flush = spec.contexts.policy == itpx_trace::SwitchPolicy::FlushAsid;
    for chunk in events.chunks(CHUNK) {
        tracer.open("cpu.functional");
        for ev in chunk {
            match *ev {
                Event::Switch(asid) => {
                    fun.context_switch(asid, flush);
                    space.switch_to(asid);
                }
                Event::Shootdown(va) => fun.shootdown(va, space.current()),
                Event::Branch { pc, taken } => {
                    predictor.update(pc, taken);
                }
                Event::Access(r) if r.kind.is_instruction() => fun.fetch(&mut space, r.va),
                Event::Access(r) if r.store => fun.store(&mut space, r.va),
                Event::Access(r) => fun.load(&mut space, r.va),
            }
        }
        tracer.close();
    }
}

/// Replays `n` instructions of `spec`'s stream through every layer
/// (the functional tier only when `functional`).
pub fn replay(spec: &WorkloadSpec, n: usize, functional: bool, tracer: &mut Tracer) -> Counts {
    let cfg = SystemConfig::asplos25();
    let mut counts = Counts {
        insts: n as u64,
        ..Counts::default()
    };
    let steps = generate(spec, n, tracer);
    let events = events(spec, &steps);
    let (stlb, refs) = translation_pass(&cfg, spec, &events, tracer, &mut counts);
    let l2 = cache_pass(&cfg, &refs, tracer, &mut counts);
    policy_pass(&cfg, &stlb, &l2, tracer, &mut counts);
    if functional {
        functional_pass(&cfg, spec, &events, tracer);
    }
    counts
}
