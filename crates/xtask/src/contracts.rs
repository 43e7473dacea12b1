//! The policy contract checker.
//!
//! Drives every registered policy through a protocol-correct randomized
//! access stream (fills, hits, evictions, invalidations;
//! [`itpx_policy::checked::drive`]) under [`itpx_policy::CheckedPolicy`],
//! which shadows the structure's valid
//! bits and records every contract violation: out-of-range victims,
//! victims pointing at invalid ways, fills into valid ways, unpaired
//! evictions. The stream is seeded from [`itpx_types::Rng64`], so a
//! failure reproduces bit-for-bit.
//!
//! This is the release-mode twin of the proptest harness in
//! `crates/core/tests/checked_policies.rs`: the harness shrinks fast in
//! debug CI runs, this pass hammers longer streams and reports *all*
//! violations instead of panicking on the first.

use itpx_core::registry;
use itpx_policy::checked::drive;
use itpx_policy::{CacheMeta, TlbMeta};
use itpx_types::{FillClass, Rng64, ThreadId, TranslationKind};

/// Geometries each policy is driven at: a small one to stress set
/// collisions and the paper's structure shapes.
const GEOMETRIES: &[(usize, usize)] = &[(4, 2), (16, 4), (64, 8), (32, 12)];

/// Accesses per (policy, geometry) drive.
const OPS: usize = 20_000;

/// Contract-checker outcome.
#[derive(Debug, Default)]
pub struct ContractReport {
    /// `(policy, sets, ways)` combinations driven.
    pub drives: usize,
    /// All recorded violations, prefixed with the geometry.
    pub violations: Vec<String>,
}

fn tlb_meta(rng: &mut Rng64) -> TlbMeta {
    TlbMeta {
        vpn: rng.below(1 << 16),
        pc: rng.below(1 << 20) << 2,
        kind: if rng.chance(0.5) {
            TranslationKind::Instruction
        } else {
            TranslationKind::Data
        },
        thread: ThreadId(0),
    }
}

fn cache_meta(rng: &mut Rng64) -> CacheMeta {
    let fill = match rng.below(4) {
        0 => FillClass::InstrPayload,
        1 => FillClass::DataPayload,
        2 => FillClass::InstrPte,
        _ => FillClass::DataPte,
    };
    CacheMeta {
        block: rng.below(1 << 24),
        pc: rng.below(1 << 20) << 2,
        stlb_miss: rng.chance(0.2),
        ..CacheMeta::demand(0, fill)
    }
}

/// Runs the contract drive over every registered policy and geometry.
pub fn run() -> ContractReport {
    let mut report = ContractReport::default();
    for &(sets, ways) in GEOMETRIES {
        for e in registry::tlb_policies() {
            if !e.supports_ways(ways) {
                continue;
            }
            report.drives += 1;
            let seed = 0x5eed_0000 + sets as u64 * 131 + ways as u64;
            for v in drive((e.build)(sets, ways), sets, ways, OPS, seed, tlb_meta) {
                report
                    .violations
                    .push(format!("tlb {sets}x{ways} (seed {seed:#x}): {v}"));
            }
        }
        for e in registry::cache_policies() {
            if !e.supports_ways(ways) {
                continue;
            }
            report.drives += 1;
            let seed = 0xcac4_0000 + sets as u64 * 131 + ways as u64;
            for v in drive((e.build)(sets, ways), sets, ways, OPS, seed, cache_meta) {
                report
                    .violations
                    .push(format!("cache {sets}x{ways} (seed {seed:#x}): {v}"));
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use itpx_policy::Policy;

    /// A policy that evicts way `ways` (one past the end).
    #[derive(Debug)]
    struct OffByOne {
        ways: usize,
    }
    impl Policy<TlbMeta> for OffByOne {
        fn on_fill(&mut self, _: usize, _: usize, _: &TlbMeta) {}
        fn on_hit(&mut self, _: usize, _: usize, _: &TlbMeta) {}
        fn victim(&mut self, _: usize, _: &TlbMeta) -> usize {
            self.ways
        }
        fn name(&self) -> &'static str {
            "off-by-one"
        }
        fn meta_bits(&self, _: usize, _: usize) -> u64 {
            0
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "policy contract violation"))]
    fn seeded_oob_victim_is_reported() {
        let v = drive(OffByOne { ways: 2 }, 2, 2, 1_000, 1, super::tlb_meta);
        // Release builds collect instead of panicking.
        assert!(v.iter().any(|m| m.contains(">= ways")), "{v:?}");
    }

    #[test]
    fn drive_is_deterministic() {
        let mk = || {
            drive(
                itpx_policy::Lru::new(4, 2),
                4,
                2,
                2_000,
                42,
                super::tlb_meta,
            )
        };
        assert_eq!(mk(), mk());
    }
}
