//! Property tests for the paper's policies: the Figure 5/6 flowchart rules
//! hold under arbitrary access sequences.

use itpx_core::{Itp, ItpParams, Xptp, XptpParams, XptpSwitch};
use itpx_policy::{CacheMeta, Policy, TlbMeta};
use itpx_types::{FillClass, TranslationKind};
use proptest::prelude::*;

const SETS: usize = 2;
const WAYS: usize = 12;

fn tlb_meta(instr: bool, i: u64) -> TlbMeta {
    TlbMeta {
        vpn: i,
        pc: i * 5,
        kind: if instr {
            TranslationKind::Instruction
        } else {
            TranslationKind::Data
        },
        thread: itpx_types::ThreadId(0),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn itp_insertion_rules_always_hold(
        ops in prop::collection::vec((0usize..SETS, 0usize..WAYS, any::<bool>(), any::<bool>()), 1..150)
    ) {
        let params = ItpParams::default();
        let mut itp = Itp::new(SETS, WAYS, params);
        for (i, &(set, way, instr, hit)) in ops.iter().enumerate() {
            let m = tlb_meta(instr, i as u64);
            if hit {
                itp.on_hit(set, way, &m);
                if instr {
                    // Hits promote to MRUpos only with a saturated counter,
                    // otherwise exactly to depth N.
                    let d = itp.depth_of(set, way);
                    prop_assert!(d == 0 || d == params.n, "instr hit depth {d}");
                } else {
                    prop_assert_eq!(itp.depth_of(set, way), WAYS - 1 - params.m);
                    prop_assert_eq!(itp.freq_of(set, way), 0);
                }
            } else {
                itp.on_fill(set, way, &m);
                if instr {
                    prop_assert_eq!(itp.depth_of(set, way), params.n);
                    prop_assert_eq!(itp.freq_of(set, way), 0);
                } else {
                    prop_assert_eq!(itp.depth_of(set, way), WAYS - 1);
                }
            }
            prop_assert!(itp.freq_of(set, way) <= params.freq_max());
            // Eviction is always the LRU position.
            let v = itp.victim(set, &m);
            prop_assert_eq!(itp.depth_of(set, v), WAYS - 1);
        }
    }

    #[test]
    fn itp_mru_is_reserved_for_saturated_instructions(
        hits in 1usize..20
    ) {
        let params = ItpParams::default();
        let mut itp = Itp::new(1, WAYS, params);
        let m = tlb_meta(true, 1);
        itp.on_fill(0, 0, &m);
        for h in 0..hits {
            itp.on_hit(0, 0, &m);
            let expect_mru = h as u32 >= params.freq_max() as u32;
            prop_assert_eq!(
                itp.depth_of(0, 0) == 0,
                expect_mru,
                "hit {} depth {}",
                h,
                itp.depth_of(0, 0)
            );
        }
    }

    #[test]
    fn xptp_never_evicts_protected_data_pte(
        fills in prop::collection::vec((0usize..8, any::<bool>()), 8..80)
    ) {
        // 8-way cache with paper-default K=8: strict protection.
        let mut x = Xptp::new(1, 8, XptpParams::default());
        let mut is_pte = [false; 8];
        for (i, &(way, pte)) in fills.iter().enumerate() {
            let fill = if pte { FillClass::DataPte } else { FillClass::DataPayload };
            x.on_fill(0, way, &CacheMeta::demand(i as u64, fill));
            is_pte[way] = pte;
            let v = x.victim(0, &CacheMeta::demand(999, FillClass::DataPayload));
            if is_pte.iter().any(|&p| !p) {
                prop_assert!(!is_pte[v], "evicted data PTE while payload present");
            }
        }
    }

    #[test]
    fn adaptive_xptp_matches_lru_when_disabled(
        fills in prop::collection::vec(0usize..8, 8..60)
    ) {
        let switch = XptpSwitch::new(); // off
        let mut a = Xptp::adaptive(1, 8, XptpParams::default(), switch);
        let mut l = itpx_policy::Lru::new(1, 8);
        for (i, &way) in fills.iter().enumerate() {
            let m = CacheMeta::demand(i as u64, if i % 3 == 0 { FillClass::DataPte } else { FillClass::DataPayload });
            a.on_fill(0, way, &m);
            l.on_fill(0, way, &m);
            let va = a.victim(0, &m);
            let vl = Policy::<CacheMeta>::victim(&mut l, 0, &m);
            prop_assert_eq!(va, vl, "disabled adaptive xPTP must equal LRU");
        }
    }
}
