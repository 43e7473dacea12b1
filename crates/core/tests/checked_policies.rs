//! Property harness: every registered policy, driven through a
//! protocol-correct randomized access stream under
//! [`itpx_policy::CheckedPolicy`], never violates the replacement-policy
//! contract (victims in range and valid, fills into free ways, paired
//! evictions).
//!
//! This is the debug-build twin of `cargo xtask analyze`'s contract pass
//! (`crates/xtask/src/contracts.rs`): proptest shrinks a failing stream to
//! a small seed here, while the xtask pass hammers longer streams in
//! release mode. Streams are generated from [`itpx_types::Rng64`] so a
//! failing case is reproducible from its printed seed alone.

use itpx_core::registry::{cache_policies, tlb_policies, PolicyEntry};
use itpx_policy::{CacheMeta, CheckedPolicy, Policy, TlbMeta};
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

/// Drives one policy under `CheckedPolicy`. In debug builds any contract
/// violation panics inside the wrapper (surfacing as a test failure with
/// the offending seed); the returned list covers release-mode runs.
fn drive<M: Copy, P: Policy<M>>(
    inner: P,
    sets: usize,
    ways: usize,
    seed: u64,
    mut gen_meta: impl FnMut(&mut Rng64) -> M,
) -> Vec<String> {
    let mut p = CheckedPolicy::new(inner, sets, ways);
    let mut rng = Rng64::new(seed);
    let mut resident: Vec<Vec<Option<M>>> = vec![vec![None; ways]; sets];
    for _ in 0..OPS {
        let set = rng.index(sets);
        let occupied: Vec<usize> = (0..ways).filter(|&w| resident[set][w].is_some()).collect();
        let roll = rng.below(100);
        if roll < 50 && !occupied.is_empty() {
            let way = occupied[rng.index(occupied.len())];
            let meta = resident[set][way].expect("way is occupied");
            p.on_hit(set, way, &meta);
        } else if roll < 95 {
            let meta = gen_meta(&mut rng);
            if occupied.len() < ways {
                let free: Vec<usize> = (0..ways).filter(|&w| resident[set][w].is_none()).collect();
                let way = free[rng.index(free.len())];
                p.on_fill(set, way, &meta);
                resident[set][way] = Some(meta);
            } else {
                let v = p.victim(set, &meta);
                if v >= ways {
                    break; // violation already recorded by the wrapper
                }
                Policy::<M>::on_evict(&mut p, set, v);
                p.on_fill(set, v, &meta);
                resident[set][v] = Some(meta);
            }
        } else if !occupied.is_empty() {
            let way = occupied[rng.index(occupied.len())];
            Policy::<M>::on_evict(&mut p, set, way);
            resident[set][way] = None;
        }
    }
    p.take_violations()
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
            let v = drive((e.build)(sets, ways), sets, ways, seed, gen_meta);
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
