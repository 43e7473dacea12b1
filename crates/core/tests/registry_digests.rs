//! Decision digests for every registered policy.
//!
//! Each registry entry is driven through 10k seeded accesses against a
//! tag array at two geometries (32×8, and 16×12 where the policy supports
//! 12 ways). The cache stream covers all four fill classes and both
//! `stlb_miss` values; the TLB stream mixes instruction and data
//! translations. An FNV-1a digest of the victim sequence and the final
//! `meta_bits` are compared against a committed table, so any change to
//! what a policy decides — or to what it claims to cost — fails here,
//! whatever its construction or dispatch path looks like.
//!
//! The registry builds `xptp/lru` with its switch off (plain LRU victims),
//! so one extra row drives the adaptive policy built by
//! [`Preset::ItpXptp`] with its switch toggled every 500 accesses.
//!
//! On a mismatch the test prints the whole measured table in source form;
//! a deliberate behavior change pastes it over the constants below.

use itpx_core::presets::{BuildConfig, Preset, StructureDims};
use itpx_core::registry::{cache_policies, tlb_policies};
use itpx_policy::{CacheMeta, Policy, TlbMeta};
use itpx_types::{FillClass, Fnv1a, Rng64, ThreadId, TranslationKind};

/// Geometries every entry is driven at, subject to `supports_ways`.
const GEOMETRIES: [(usize, usize); 2] = [(32, 8), (16, 12)];
/// Accesses per (policy, geometry) drive.
const ACCESSES: usize = 10_000;
/// The adaptive row flips its switch every this many accesses.
const TOGGLE_EVERY: usize = 500;

/// `(name, sets, ways, victim digest, final meta_bits)`.
type Row = (&'static str, usize, usize, u64, u64);

const CACHE: &[Row] = &[
    ("lru", 32, 8, 0x4530a0ff8c9e56c5, 768),
    ("tree-plru", 32, 8, 0x2faddc7d47c28ac0, 224),
    ("random", 32, 8, 0x544be931730e33e3, 256),
    ("srrip", 32, 8, 0x6e2b8eb845f72586, 512),
    ("brrip", 32, 8, 0x67dcc1d51a673d07, 768),
    ("drrip", 32, 8, 0xd15aba88309228e4, 778),
    ("dip", 32, 8, 0x6781ea116ea38846, 1034),
    ("ship", 32, 8, 0x730dc3cfa5203ee0, 53504),
    ("tship", 32, 8, 0x9da6e9a3a97deb84, 53504),
    ("mockingjay", 32, 8, 0x1006712816839bc7, 45568),
    ("ptp", 32, 8, 0x3205340634c79a25, 1024),
    ("tdrrip", 32, 8, 0x81c66735ec9b8cc7, 778),
    ("xptp", 32, 8, 0x1715756d8a8a0c45, 1024),
    ("xptp/lru", 32, 8, 0x4530a0ff8c9e56c5, 1025),
    ("xptp+emissary", 32, 8, 0x05e742495cf4af80, 1280),
    ("lru", 16, 12, 0xd6c63c8428d64a2a, 768),
    ("random", 16, 12, 0x68d7eeff0f71dec7, 256),
    ("srrip", 16, 12, 0x53d15c1ff8c923e1, 384),
    ("brrip", 16, 12, 0x1007bac6f89185aa, 640),
    ("drrip", 16, 12, 0xeb938c6af5c86b4b, 650),
    ("dip", 16, 12, 0x037c5696583e060a, 1034),
    ("ship", 16, 12, 0xb29017a557733465, 52416),
    ("tship", 16, 12, 0xd15dbd3711105f40, 52416),
    ("mockingjay", 16, 12, 0xa027132ae6618ac9, 41088),
    ("ptp", 16, 12, 0xc0361f7119deb12e, 960),
    ("tdrrip", 16, 12, 0x4bb1c6d7382b4043, 650),
    ("xptp", 16, 12, 0xac85f0bce7305ae8, 960),
    ("xptp/lru", 16, 12, 0xd6c63c8428d64a2a, 961),
    ("xptp+emissary", 16, 12, 0x5acec9cf05d820ed, 1152),
];

const TLB: &[Row] = &[
    ("lru", 32, 8, 0x717994d3a755e4c5, 768),
    ("tree-plru", 32, 8, 0x2a8cf0595b4eba66, 224),
    ("random", 32, 8, 0x621c52d13df63ca3, 256),
    ("chirp", 32, 8, 0xeabb486ed8883103, 16448),
    ("prob-keep-instr-lru", 32, 8, 0x131d4a9791eb5d83, 1280),
    ("itp", 32, 8, 0x9a409bd1c8583c00, 1792),
    ("lru", 16, 12, 0x01244318ebe316e4, 768),
    ("random", 16, 12, 0x80f0fdde05be4cac, 256),
    ("chirp", 16, 12, 0x6a60d4148fcfd9ac, 15616),
    ("prob-keep-instr-lru", 16, 12, 0x7df3f4913dc85725, 1216),
    ("itp", 16, 12, 0x5157f172d6baeec9, 1536),
];

const ADAPTIVE_TOGGLED: Row = ("xptp/lru", 32, 8, 0x0c3298156a725625, 1025);

/// Drives `policy` over `stream` against a tag array of `sets × ways`,
/// calling `each` before every access (with its index), and returns the
/// FNV-1a digest of the victim sequence and the final `meta_bits`.
fn drive<M, P: Policy<M>>(
    policy: &mut P,
    (sets, ways): (usize, usize),
    stream: &[M],
    key: fn(&M) -> u64,
    mut each: impl FnMut(usize),
) -> (u64, u64) {
    let mut h = Fnv1a::new();
    let mut contents: Vec<Vec<Option<u64>>> = vec![vec![None; ways]; sets];
    for (i, m) in stream.iter().enumerate() {
        each(i);
        let k = key(m);
        let set = (k as usize) % sets;
        if let Some(way) = contents[set].iter().position(|&c| c == Some(k)) {
            policy.on_hit(set, way, m);
            continue;
        }
        let way = match contents[set].iter().position(Option::is_none) {
            Some(free) => free,
            None => {
                let v = policy.victim(set, m);
                assert!(v < ways, "victim {v} out of range at access {i}");
                h.write_usize(v);
                policy.on_evict(set, v);
                v
            }
        };
        contents[set][way] = Some(k);
        policy.on_fill(set, way, m);
    }
    (h.finish(), policy.meta_bits(sets, ways))
}

/// A reusing cache access stream covering all four fill classes and both
/// `stlb_miss` values.
fn cache_stream((sets, ways): (usize, usize)) -> Vec<CacheMeta> {
    let mut rng = Rng64::new(0xd16e_57ca ^ (sets * 100 + ways) as u64);
    (0..ACCESSES)
        .map(|_| {
            let block = rng.below((sets * ways * 4) as u64);
            let fill = match rng.below(8) {
                0 => FillClass::InstrPte,
                1 => FillClass::DataPte,
                2 | 3 => FillClass::InstrPayload,
                _ => FillClass::DataPayload,
            };
            CacheMeta {
                pc: block * 13 + 7,
                stlb_miss: rng.chance(0.25),
                ..CacheMeta::demand(block, fill)
            }
        })
        .collect()
}

/// A reusing TLB access stream mixing instruction and data translations.
fn tlb_stream((sets, ways): (usize, usize)) -> Vec<TlbMeta> {
    let mut rng = Rng64::new(0xd16e_5771 ^ (sets * 100 + ways) as u64);
    (0..ACCESSES)
        .map(|_| {
            let vpn = rng.below((sets * ways * 4) as u64);
            let kind = if rng.chance(0.4) {
                TranslationKind::Instruction
            } else {
                TranslationKind::Data
            };
            TlbMeta {
                vpn,
                pc: vpn * 29 + 3,
                kind,
                thread: ThreadId(0),
            }
        })
        .collect()
}

fn render(label: &str, rows: &[Row]) -> String {
    let mut out = format!("const {label}: &[Row] = &[\n");
    for (name, sets, ways, digest, bits) in rows {
        out.push_str(&format!(
            "    (\"{name}\", {sets}, {ways}, {digest:#018x}, {bits}),\n"
        ));
    }
    out.push_str("];\n");
    out
}

fn assert_table(label: &str, want: &[Row], got: &[Row]) {
    assert!(
        want == got,
        "{label} digests moved; measured table:\n{}",
        render(label, got)
    );
}

#[test]
fn cache_policy_decisions_match_the_committed_digests() {
    let mut got = Vec::new();
    for dims in GEOMETRIES {
        let stream = cache_stream(dims);
        for e in cache_policies() {
            if e.supports_ways(dims.1) {
                let (digest, bits) = drive(
                    &mut (e.build)(dims.0, dims.1),
                    dims,
                    &stream,
                    |m| m.block,
                    |_| {},
                );
                got.push((e.name, dims.0, dims.1, digest, bits));
            }
        }
    }
    assert_table("CACHE", CACHE, &got);
}

#[test]
fn tlb_policy_decisions_match_the_committed_digests() {
    let mut got = Vec::new();
    for dims in GEOMETRIES {
        let stream = tlb_stream(dims);
        for e in tlb_policies() {
            if e.supports_ways(dims.1) {
                let (digest, bits) = drive(
                    &mut (e.build)(dims.0, dims.1),
                    dims,
                    &stream,
                    |m| m.vpn,
                    |_| {},
                );
                got.push((e.name, dims.0, dims.1, digest, bits));
            }
        }
    }
    assert_table("TLB", TLB, &got);
}

#[test]
fn adaptive_xptp_with_a_toggling_switch_matches_its_digest() {
    let (_, sets, ways, _, _) = ADAPTIVE_TOGGLED;
    let dims = StructureDims {
        stlb: (16, 12),
        l2c: (sets, ways),
        llc: (64, 16),
    };
    let bundle = Preset::ItpXptp.build(&dims, &BuildConfig::default());
    let switch = bundle
        .monitor
        .expect("ItpXptp builds a monitor")
        .switch()
        .clone();
    let mut l2c = bundle.l2c;
    let stream = cache_stream((sets, ways));
    let (digest, bits) = drive(
        &mut l2c,
        (sets, ways),
        &stream,
        |m| m.block,
        |i| {
            if i % TOGGLE_EVERY == 0 {
                switch.set((i / TOGGLE_EVERY) % 2 == 1);
            }
        },
    );
    let got = (l2c.name(), sets, ways, digest, bits);
    assert_table("ADAPTIVE_TOGGLED", &[ADAPTIVE_TOGGLED], &[got]);
}
