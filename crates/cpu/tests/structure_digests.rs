//! Behavior digests for the set-associative structures and the tiered
//! multi-tenant run that exercises their warming and invalidation paths.
//!
//! Each row drives one structure — a `Tlb`, a `Cache` or the `SplitPscs`
//! — through a seeded stream of lookups, absent and resident fills,
//! flushes, shootdowns, region invalidations and dirty marks, and folds
//! every value the structure returns, then its final residency over the
//! whole key pool and its counters, into an FNV-1a digest. The last rows
//! digest the whole output of one tiered four-tenant `FlushAsid` run
//! under LRU and iTP+xPTP, without and with huge-page churn, since no
//! golden pins the fast-forward or the invalidation paths of a full
//! simulation.
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
    ("tlb 16x4 lru", 0x451456e856c6ff77),
    ("tlb 128x12 itp", 0xeb4b36b92b2c85f5),
    ("cache l1d lru", 0xbb445662a9af750d),
    ("cache l2c xptp", 0x6ede04b15f16abe2),
    ("cache llc ship", 0xddc8bd61bf74d907),
    ("pscs", 0x4bc335f8b51a5edd),
    ("tiered tenants lru", 0xa8213fa1a44f1df2),
    ("tiered tenants itp+xptp", 0x9eb133912c9248e8),
    ("tiered tenants churn lru", 0x18f7beefd5a470fe),
    ("tiered tenants churn itp+xptp", 0xd69ce56838e78b28),
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
    let page = rng.below(PAGES);
    VirtAddr::new(0x4000_0000 + page * 4096 + rng.below(4096))
}

/// Pages in the [`va_of`] pool.
const PAGES: u64 = 3_000;

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
            _ => d.see(t.resident_count()),
        }
    }
    // Final residency: every pool page, both sizes, every tag.
    for page in 0..PAGES {
        let va = VirtAddr::new(0x4000_0000 + page * 4096);
        for size in [PageSize::Base4K, PageSize::Huge2M] {
            d.see(ASIDS.map(|asid| t.contains_tagged(va, size, asid)));
        }
    }
    d.see(t.stats());
    d.finish()
}

fn class_of(rng: &mut Rng64) -> FillClass {
    [
        FillClass::InstrPayload,
        FillClass::DataPayload,
        FillClass::InstrPte,
        FillClass::DataPte,
    ][rng.index(4)]
}

fn drive_cache(mut c: Cache, seed: u64) -> u64 {
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
            _ => d.see(c.resident_count()),
        }
    }
    // Final residency: every block of the pool.
    for tag in 0..tags {
        for set in 0..hot_sets {
            d.see(c.contains(set + sets * tag));
        }
    }
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
    let mut seen = Vec::with_capacity(OPS);
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
            60..=89 => d.see(p.contains_vpn(vpn)),
            _ => p.flush_asid(ASIDS[rng.index(4)]),
        }
        seen.push(vpn);
    }
    // Final residency: the deepest cached node of every VPN the drive
    // touched. Lookups only move recency, so the probe order cannot
    // change the answers.
    for vpn in seen {
        d.see(p.start_level(vpn));
    }
    d.finish()
}

/// The tiered rows' schedule: four flushing tenants with shootdowns.
fn tenants() -> ContextSchedule {
    ContextSchedule::round_robin(4, 4_000, SwitchPolicy::FlushAsid).shootdowns(1_500)
}

/// Four tenants on a tiered schedule under `contexts`: every
/// fast-forward warms the whole translation and cache state, and every
/// quantum flushes an address space.
fn tiered_tenants(preset: Preset, contexts: ContextSchedule) -> u64 {
    let cfg = SystemConfig::asplos25();
    let w = WorkloadSpec::server_like(11)
        .warmup(5_000)
        .tiers(TierSchedule::tiered(5_000, 20_000, 4))
        .contexts(contexts);
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
    let cache = |c: CacheConfig, p: fn(&CacheConfig) -> CachePolicyEngine| Cache::new(c, p(&c));
    let lru = |c: &CacheConfig| Lru::new(c.sets, c.ways).into();
    let xptp = |c: &CacheConfig| Xptp::new(c.sets, c.ways, XptpParams::default()).into();
    let ship = |c: &CacheConfig| Ship::new(c.sets, c.ways).into();
    vec![
        (
            "tlb 16x4 lru",
            drive_tlb(tlb(small, Lru::new(16, 4).into()), 1),
        ),
        (
            "tlb 128x12 itp",
            drive_tlb(tlb(big, Itp::new(128, 12, ItpParams::default()).into()), 2),
        ),
        ("cache l1d lru", drive_cache(cache(l1d, lru), 3)),
        ("cache l2c xptp", drive_cache(cache(l2c, xptp), 4)),
        ("cache llc ship", drive_cache(cache(llc, ship), 5)),
        ("pscs", drive_pscs(6)),
        ("tiered tenants lru", tiered_tenants(Preset::Lru, tenants())),
        (
            "tiered tenants itp+xptp",
            tiered_tenants(Preset::ItpXptp, tenants()),
        ),
        // Huge-page churn on top: region invalidations inside the warm
        // tails as well as the windows.
        (
            "tiered tenants churn lru",
            tiered_tenants(Preset::Lru, tenants().churn(2_500)),
        ),
        (
            "tiered tenants churn itp+xptp",
            tiered_tenants(Preset::ItpXptp, tenants().churn(2_500)),
        ),
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
