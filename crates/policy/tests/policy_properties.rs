//! Property tests: every policy is safe to drive with arbitrary access
//! sequences, and the recency stack stays a permutation.

use itpx_policy::*;
use itpx_types::{FillClass, TranslationKind};
use proptest::prelude::*;

const SETS: usize = 4;
const WAYS: usize = 8;

#[derive(Debug, Clone)]
enum Op {
    Fill { set: usize, way: usize, kind: u8 },
    Hit { set: usize, way: usize, kind: u8 },
    Victim { set: usize },
    Evict { set: usize, way: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..SETS, 0..WAYS, 0u8..4).prop_map(|(set, way, kind)| Op::Fill { set, way, kind }),
        (0..SETS, 0..WAYS, 0u8..4).prop_map(|(set, way, kind)| Op::Hit { set, way, kind }),
        (0..SETS,).prop_map(|(set,)| Op::Victim { set }),
        (0..SETS, 0..WAYS).prop_map(|(set, way)| Op::Evict { set, way }),
    ]
}

fn cache_meta(kind: u8, i: u64) -> CacheMeta {
    let fill = match kind {
        0 => FillClass::DataPayload,
        1 => FillClass::InstrPayload,
        2 => FillClass::DataPte,
        _ => FillClass::InstrPte,
    };
    CacheMeta {
        block: i,
        pc: i * 13 + 7,
        stlb_miss: kind == 0 && i.is_multiple_of(3),
        ..CacheMeta::demand(0, fill)
    }
}

fn tlb_meta(kind: u8, i: u64) -> TlbMeta {
    TlbMeta {
        vpn: i,
        pc: i * 29 + 3,
        kind: if kind.is_multiple_of(2) {
            TranslationKind::Instruction
        } else {
            TranslationKind::Data
        },
        thread: itpx_types::ThreadId(0),
    }
}

fn drive_cache(policy: &mut dyn Policy<CacheMeta>, ops: &[Op]) -> Result<(), TestCaseError> {
    for (i, op) in ops.iter().enumerate() {
        let m = |k| cache_meta(k, i as u64);
        match *op {
            Op::Fill { set, way, kind } => policy.on_fill(set, way, &m(kind)),
            Op::Hit { set, way, kind } => policy.on_hit(set, way, &m(kind)),
            Op::Victim { set } => {
                let v = policy.victim(set, &m(0));
                prop_assert!(v < WAYS, "victim {v} out of range");
            }
            Op::Evict { set, way } => policy.on_evict(set, way),
        }
    }
    Ok(())
}

fn drive_tlb(policy: &mut dyn Policy<TlbMeta>, ops: &[Op]) -> Result<(), TestCaseError> {
    for (i, op) in ops.iter().enumerate() {
        let m = |k| tlb_meta(k, i as u64);
        match *op {
            Op::Fill { set, way, kind } => policy.on_fill(set, way, &m(kind)),
            Op::Hit { set, way, kind } => policy.on_hit(set, way, &m(kind)),
            Op::Victim { set } => {
                let v = policy.victim(set, &m(0));
                prop_assert!(v < WAYS, "victim {v} out of range");
            }
            Op::Evict { set, way } => policy.on_evict(set, way),
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cache_policies_never_misbehave(ops in prop::collection::vec(op_strategy(), 1..200)) {
        let mut policies: Vec<CachePolicy> = vec![
            Box::new(Lru::new(SETS, WAYS)),
            Box::new(TreePlru::new(SETS, WAYS)),
            Box::new(RandomEvict::new(WAYS, 1)),
            Box::new(Srrip::new(SETS, WAYS)),
            Box::new(Brrip::new(SETS, WAYS, 2)),
            Box::new(Drrip::new(SETS, WAYS, 3)),
            Box::new(Ship::new(SETS, WAYS)),
            Box::new(Mockingjay::new(SETS, WAYS)),
            Box::new(Ptp::new(SETS, WAYS)),
            Box::new(Drrip::translation_aware(SETS, WAYS, 4)),
            Box::new(Ship::translation_aware(SETS, WAYS)),
            Box::new(Xptp::new(SETS, WAYS, XptpParams::default())),
            Box::new(Xptp::with_emissary(SETS, WAYS, XptpParams::default())),
        ];
        for p in &mut policies {
            drive_cache(p.as_mut(), &ops)?;
        }
    }

    #[test]
    fn tlb_policies_never_misbehave(ops in prop::collection::vec(op_strategy(), 1..200)) {
        let mut policies: Vec<TlbPolicy> = vec![
            Box::new(Lru::new(SETS, WAYS)),
            Box::new(Chirp::new(SETS, WAYS)),
            Box::new(ProbKeepInstrLru::new(SETS, WAYS, 0.8, 5)),
        ];
        for p in &mut policies {
            drive_tlb(p.as_mut(), &ops)?;
        }
    }

    #[test]
    fn recency_stack_stays_a_permutation(
        ops in prop::collection::vec((0usize..WAYS, 0usize..WAYS), 1..100)
    ) {
        let mut rs = RecencyStack::new(1, WAYS);
        for &(way, depth) in &ops {
            if depth % 2 == 0 {
                rs.touch(0, way);
            } else {
                rs.place_at_depth(0, way, depth);
            }
            let mut seen: Vec<usize> = rs.iter_mru_to_lru(0).collect();
            seen.sort_unstable();
            prop_assert_eq!(seen, (0..WAYS).collect::<Vec<_>>());
        }
    }

    #[test]
    fn lru_victim_is_least_recently_touched(
        touches in prop::collection::vec(0usize..WAYS, WAYS..64)
    ) {
        let mut p = Lru::new(1, WAYS);
        let mut last_touch = [0usize; WAYS];
        for (t, &way) in touches.iter().enumerate() {
            p.on_hit(0, way, &cache_meta(0, way as u64));
            last_touch[way] = t + 1;
        }
        let v = Policy::<CacheMeta>::victim(&mut p, 0, &cache_meta(0, 0));
        let oldest = (0..WAYS).min_by_key(|&w| last_touch[w]).unwrap();
        // Untouched ways (time 0) tie in model order; only check timestamp.
        prop_assert!(last_touch[v] <= last_touch[oldest]);
    }
}
