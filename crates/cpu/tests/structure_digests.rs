//! Behavior digests for the set-associative structures and the tiered
//! multi-tenant run that exercises their handoff and invalidation paths.
//!
//! Each row drives one structure — a `Tlb`, a `Cache` or the `SplitPscs`
//! — through a seeded stream of lookups, absent and resident fills,
//! flushes, shootdowns, region invalidations, dirty marks and
//! export → import round trips, and folds every value the structure
//! returns (and its counters at the end) into an FNV-1a digest. The last
//! rows digest the whole output of one tiered four-tenant `FlushAsid`
//! run under LRU and iTP+xPTP, since no golden pins the tier handoff or
//! the invalidation paths of a full simulation.
//!
//! The table pins observable behavior, not layout: any rewrite of the
//! structures' storage must leave it unchanged. On a mismatch the test
//! prints the whole measured table in source form; a deliberate behavior
//! change pastes it over the constant below.

use itpx_core::Preset;
use itpx_cpu::{Simulation, SystemConfig};
use itpx_mem::{Cache, CacheConfig, Probe};
use itpx_policy::{
    CacheMeta, CachePolicyEngine, Itp, ItpParams, Lru, Ship, TlbPolicyEngine, Xptp, XptpParams,
};
use itpx_trace::{ContextSchedule, SwitchPolicy, TierSchedule, WorkloadSpec};
use itpx_types::{
    Asid, FillClass, Fnv1a, PageSize, PhysAddr, Rng64, ThreadId, TranslationKind, VirtAddr,
};
use itpx_vm::{namespaced_vpn, SplitPscs, Tlb, TlbConfig, TlbLookup};
use std::fmt::Debug;

/// Operations per structure drive.
const OPS: usize = 20_000;

/// `(row name, digest)`.
type Row = (&'static str, u64);

const EXPECTED: &[Row] = &[
    ("tlb 16x4 lru", 0x6ab318a34ef17d73),
    ("tlb 128x12 itp", 0x6e66e0c4ba8eff1b),
    ("cache l1d lru", 0x5a0d5694fdd95c9e),
    ("cache l2c xptp", 0x56943d4559514e03),
    ("cache llc ship", 0x2655376388dbc19c),
    ("pscs", 0x4b8ef9f643b5cddc),
    ("tiered tenants lru", 0xba38dc9ca7a9765c),
    ("tiered tenants itp+xptp", 0x6163d0848ca506ca),
];

/// Folds the `Debug` rendering of every observed value into one digest.
struct Digest(Fnv1a);

impl Digest {
    fn new() -> Self {
        Self(Fnv1a::new())
    }

    fn see(&mut self, v: impl Debug) {
        self.0.write_str(&format!("{v:?}"));
    }

    fn finish(&self) -> u64 {
        self.0.finish()
    }
}

const ASIDS: [Asid; 4] = [Asid(1), Asid(2), Asid(3), Asid::GLOBAL];

fn kind_of(rng: &mut Rng64) -> TranslationKind {
    if rng.chance(0.4) {
        TranslationKind::Instruction
    } else {
        TranslationKind::Data
    }
}

/// A virtual address from a pool that reuses pages and spans several
/// 2 MiB regions, so lookups hit, miss and conflict.
fn va_of(rng: &mut Rng64) -> VirtAddr {
    let page = rng.below(3_000);
    VirtAddr::new(0x4000_0000 + page * 4096 + rng.below(4096))
}

fn fill(t: &mut Tlb, rng: &mut Rng64, va: VirtAddr, kind: TranslationKind, now: u64) {
    let size = if rng.chance(0.1) {
        PageSize::Huge2M
    } else {
        PageSize::Base4K
    };
    let asid = if rng.chance(0.15) {
        Asid::GLOBAL
    } else {
        t.current_asid()
    };
    let vpn = va.vpn(size).0;
    t.fill(
        vpn,
        size,
        PhysAddr::new(vpn.wrapping_mul(0x9e37) << 12),
        kind,
        asid,
        rng.below(1 << 20),
        ThreadId(rng.below(2) as u8),
        rng.below(200),
        now + rng.below(50),
    );
}

fn drive_tlb(mut t: Tlb, seed: u64) -> u64 {
    let sets = t.config().sets;
    let mut rng = Rng64::new(seed);
    let mut d = Digest::new();
    for i in 0..OPS as u64 {
        let now = i * 3;
        match rng.below(100) {
            0..=59 => {
                let va = va_of(&mut rng);
                let kind = kind_of(&mut rng);
                let r = t.lookup(va, kind, rng.below(1 << 20), ThreadId(0), now);
                d.see(r);
                if r == TlbLookup::Miss {
                    fill(&mut t, &mut rng, va, kind, now);
                }
            }
            60..=69 => {
                // Resident or absent, whatever the pool gives.
                let va = va_of(&mut rng);
                let kind = kind_of(&mut rng);
                fill(&mut t, &mut rng, va, kind, now);
            }
            70..=79 => {
                let va = va_of(&mut rng);
                let kind = kind_of(&mut rng);
                d.see(t.merge(va, now));
                d.see(t.mshr_alloc(va, kind, now));
                d.see(t.mshr_kind(va));
                fill(&mut t, &mut rng, va, kind, now);
                t.mshr_complete(va, now + 40);
                d.see(t.merge(va, now + 1));
            }
            80..=84 => t.set_current_asid(ASIDS[rng.index(3)]),
            85..=86 => t.flush_asid(ASIDS[rng.index(4)]),
            87..=90 => {
                let va = va_of(&mut rng);
                t.invalidate_page(va, ASIDS[rng.index(4)]);
            }
            91 => {
                let va = va_of(&mut rng);
                t.invalidate_region(va.vpn(PageSize::Huge2M).0);
            }
            92..=96 => {
                let va = va_of(&mut rng);
                d.see(t.contains(va, PageSize::Base4K));
                d.see(t.contains_tagged(va, PageSize::Huge2M, ASIDS[rng.index(4)]));
            }
            _ => {
                if rng.chance(0.05) {
                    let exported = t.export_entries();
                    d.see(&exported);
                    let mut fresh = Tlb::new(*t.config(), policy_like(&t, sets));
                    fresh.set_current_asid(t.current_asid());
                    fresh.import_entries(exported);
                    t = fresh;
                }
                d.see(t.resident_count());
            }
        }
    }
    d.see(t.export_entries());
    d.see(t.stats());
    d.finish()
}

/// A fresh policy of the same kind as `t`'s, for the import side of a
/// round trip.
fn policy_like(t: &Tlb, sets: usize) -> TlbPolicyEngine {
    let ways = t.config().ways;
    if ways == 12 {
        Itp::new(sets, ways, ItpParams::default()).into()
    } else {
        Lru::new(sets, ways).into()
    }
}

fn class_of(rng: &mut Rng64) -> FillClass {
    [
        FillClass::InstrPayload,
        FillClass::DataPayload,
        FillClass::InstrPte,
        FillClass::DataPte,
    ][rng.index(4)]
}

fn drive_cache(mut c: Cache, fresh: impl Fn() -> Cache, seed: u64) -> u64 {
    // Blocks of at most 32 sets, three times as many as those sets hold,
    // so even the LLC's sets fill up and evict within the drive.
    let sets = c.config().sets as u64;
    let (hot_sets, tags) = (sets.min(32), 3 * c.config().ways as u64);
    let mut rng = Rng64::new(seed);
    let mut d = Digest::new();
    for i in 0..OPS as u64 {
        let now = i * 2;
        let meta = CacheMeta {
            pc: rng.below(1 << 16),
            stlb_miss: rng.chance(0.2),
            ..CacheMeta::demand(
                rng.below(hot_sets) + sets * rng.below(tags),
                class_of(&mut rng),
            )
        };
        match rng.below(100) {
            0..=64 => {
                let demand = rng.chance(0.9);
                let p = c.probe(&meta, now, demand);
                d.see(p);
                if let Probe::Miss(start) = p {
                    d.see(c.fill(&meta, start, start + 30, demand));
                }
            }
            65..=74 => {
                // Resident or absent, prefetch or demand.
                d.see(c.fill(&meta, now, now + 20, rng.chance(0.5)));
            }
            75..=89 => d.see(c.mark_dirty(meta.block)),
            90..=97 => d.see(c.contains(meta.block)),
            _ => {
                if rng.chance(0.05) {
                    let exported = c.export_lines();
                    d.see(&exported);
                    let mut next = fresh();
                    next.import_lines(exported);
                    c = next;
                }
                d.see(c.resident_count());
            }
        }
    }
    d.see(c.export_lines());
    d.see(c.stats());
    d.see((
        c.writebacks(),
        c.evictions(),
        c.prefetches_issued(),
        c.prefetches_useful(),
    ));
    d.finish()
}

fn drive_pscs(seed: u64) -> u64 {
    let mut p = SplitPscs::asplos25();
    let mut rng = Rng64::new(seed);
    let mut d = Digest::new();
    for _ in 0..OPS {
        let vpn = namespaced_vpn(rng.below(1 << 22), ASIDS[rng.index(4)]);
        match rng.below(100) {
            0..=59 => {
                let level = p.start_level(vpn);
                d.see(level);
                if level > 2 || rng.chance(0.3) {
                    p.fill(vpn, 1 + rng.below(2) as u8);
                }
            }
            60..=79 => d.see(p.contains_vpn(vpn)),
            80..=89 => p.flush_asid(ASIDS[rng.index(4)]),
            _ => {
                let tags = p.export_tags();
                d.see(&tags);
                let mut next = SplitPscs::asplos25();
                next.import_tags(tags);
                p = next;
            }
        }
    }
    d.see(p.export_tags());
    d.finish()
}

/// Four flushing tenants with shootdowns on a tiered schedule: every
/// window boundary exports and imports the whole translation and cache
/// state, and every quantum flushes an address space.
fn tiered_tenants(preset: Preset) -> u64 {
    let cfg = SystemConfig::asplos25();
    let w = WorkloadSpec::server_like(11)
        .warmup(5_000)
        .tiers(TierSchedule::tiered(5_000, 20_000, 4))
        .contexts(
            ContextSchedule::round_robin(4, 4_000, SwitchPolicy::FlushAsid).shootdowns(1_500),
        );
    let out = Simulation::single_thread(&cfg, preset, &w).run();
    let mut d = Digest::new();
    d.see(&out);
    d.finish()
}

fn measure() -> Vec<Row> {
    let cfg = SystemConfig::asplos25();
    let tlb = |c: TlbConfig, p: TlbPolicyEngine| Tlb::new(c, p);
    let small = TlbConfig {
        sets: 16,
        ways: 4,
        latency: 1,
        mshr_entries: 4,
    };
    let big = TlbConfig {
        sets: 128,
        ways: 12,
        latency: 8,
        mshr_entries: 8,
    };
    let h = cfg.hierarchy;
    let l1d = h.l1d;
    let l2c = *h.l2c();
    let llc = *h.llc().expect("the asplos25 hierarchy has an LLC");
    let cache =
        |c: CacheConfig, p: fn(&CacheConfig) -> CachePolicyEngine| move || Cache::new(c, p(&c));
    let lru = |c: &CacheConfig| Lru::new(c.sets, c.ways).into();
    let xptp = |c: &CacheConfig| Xptp::new(c.sets, c.ways, XptpParams::default()).into();
    let ship = |c: &CacheConfig| Ship::new(c.sets, c.ways).into();
    let (l1d_new, l2c_new, llc_new) = (cache(l1d, lru), cache(l2c, xptp), cache(llc, ship));
    vec![
        (
            "tlb 16x4 lru",
            drive_tlb(tlb(small, Lru::new(16, 4).into()), 1),
        ),
        (
            "tlb 128x12 itp",
            drive_tlb(tlb(big, Itp::new(128, 12, ItpParams::default()).into()), 2),
        ),
        ("cache l1d lru", drive_cache(l1d_new(), l1d_new, 3)),
        ("cache l2c xptp", drive_cache(l2c_new(), l2c_new, 4)),
        ("cache llc ship", drive_cache(llc_new(), llc_new, 5)),
        ("pscs", drive_pscs(6)),
        ("tiered tenants lru", tiered_tenants(Preset::Lru)),
        ("tiered tenants itp+xptp", tiered_tenants(Preset::ItpXptp)),
    ]
}

#[test]
fn structure_behavior_matches_the_pinned_digests() {
    let measured = measure();
    if measured != EXPECTED {
        let mut table = String::from("const EXPECTED: &[Row] = &[\n");
        for (name, digest) in &measured {
            table.push_str(&format!("    ({name:?}, {digest:#018x}),\n"));
        }
        table.push_str("];\n");
        panic!("structure digests changed; measured table:\n{table}");
    }
}
