//! Property harness: every registered policy, driven through a
//! protocol-correct randomized access stream under
//! [`itpx_policy::CheckedPolicy`], never violates the replacement-policy
//! contract (victims in range and valid, fills into free ways, paired
//! evictions).
//!
//! This is the debug-build twin of `cargo xtask analyze`'s contract pass
//! (`crates/xtask/src/contracts.rs`), over the same
//! [`itpx_policy::checked::drive`]: proptest shrinks a failing stream to
//! a small seed here, while the xtask pass hammers longer streams in
//! release mode. Streams are generated from [`itpx_types::Rng64`] so a
//! failing case is reproducible from its printed seed alone.

use itpx_core::registry::{cache_policies, tlb_policies, PolicyEntry};
use itpx_policy::checked::drive;
use itpx_policy::{CacheMeta, TlbMeta};
use itpx_types::{FillClass, Rng64, ThreadId, TranslationKind};
use proptest::prelude::*;

/// Small geometries shrink-friendly enough for proptest while still
/// exercising set collisions and the paper's 12-way STLB associativity.
const GEOMETRIES: &[(usize, usize)] = &[(2, 2), (4, 4), (8, 8), (2, 12)];

const OPS: usize = 400;

fn tlb_meta(rng: &mut Rng64) -> TlbMeta {
    TlbMeta {
        vpn: rng.below(1 << 12),
        pc: rng.below(1 << 16) << 2,
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
        block: rng.below(1 << 16),
        pc: rng.below(1 << 16) << 2,
        stlb_miss: rng.chance(0.2),
        ..CacheMeta::demand(0, fill)
    }
}

fn check_all<M: Copy + itpx_policy::PolicyMeta>(
    entries: &[PolicyEntry<M>],
    seed: u64,
    gen_meta: fn(&mut Rng64) -> M,
) -> Result<(), TestCaseError> {
    for &(sets, ways) in GEOMETRIES {
        for e in entries {
            if !e.supports_ways(ways) {
                continue;
            }
            let v = drive((e.build)(sets, ways), sets, ways, OPS, seed, gen_meta);
            prop_assert!(
                v.is_empty(),
                "{} at {sets}x{ways}, seed {seed:#x}: {v:?}",
                e.name
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn tlb_policies_honor_the_contract(seed in any::<u64>()) {
        check_all(&tlb_policies(), seed, tlb_meta)?;
    }

    #[test]
    fn cache_policies_honor_the_contract(seed in any::<u64>()) {
        check_all(&cache_policies(), seed, cache_meta)?;
    }
}

/// Pinned-seed smoke run so the harness exercises every policy even if a
/// proptest shim ever degenerates to zero cases.
#[test]
fn pinned_seed_drive_is_clean() {
    check_all(&tlb_policies(), 0xA11CE, tlb_meta).expect("TLB drive clean");
    check_all(&cache_policies(), 0xB0B, cache_meta).expect("cache drive clean");
}
