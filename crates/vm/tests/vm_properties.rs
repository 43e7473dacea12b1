//! Property tests for the virtual-memory substrate.

use itpx_types::{PageSize, TranslationKind, VirtAddr};
use itpx_vm::page_table::{HugePagePolicy, PageTable};
use itpx_vm::psc::SplitPscs;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn translation_preserves_offsets_and_is_stable(
        vas in prop::collection::vec(0u64..(1 << 47), 1..50),
        seed in any::<u64>(),
        frac in 0.0f64..1.0,
    ) {
        let mut pt = PageTable::new(HugePagePolicy::uniform(frac, seed), seed);
        for &raw in &vas {
            let va = VirtAddr::new(raw);
            let a = pt.translate(va, TranslationKind::Data);
            let b = pt.translate(va, TranslationKind::Data);
            prop_assert_eq!(&a, &b, "translation must be stable");
            prop_assert_eq!(a.pa.0 & (a.size.bytes() - 1), va.page_offset(a.size));
        }
    }

    #[test]
    fn distinct_pages_never_share_frames(seed in any::<u64>()) {
        let mut pt = PageTable::new(HugePagePolicy::none(), seed);
        let mut frames = std::collections::HashSet::new();
        for i in 0..200u64 {
            let t = pt.translate(VirtAddr::new(i << 12), TranslationKind::Data);
            prop_assert!(frames.insert(t.frame.0), "frame reuse at page {i}");
        }
    }

    #[test]
    fn walk_paths_descend_strictly(vas in prop::collection::vec(0u64..(1 << 47), 1..30)) {
        let mut pt = PageTable::new(HugePagePolicy::uniform(0.3, 5), 5);
        for &raw in &vas {
            let t = pt.translate(VirtAddr::new(raw), TranslationKind::Instruction);
            let levels: Vec<u8> = t.path.steps().iter().map(|&(l, _)| l).collect();
            prop_assert_eq!(levels[0], 5, "walks start at the root");
            for pair in levels.windows(2) {
                prop_assert_eq!(pair[0] - 1, pair[1], "levels must descend by one");
            }
            let expected_leaf = if t.size == PageSize::Huge2M { 2 } else { 1 };
            prop_assert_eq!(*levels.last().unwrap(), expected_leaf);
        }
    }

    #[test]
    fn psc_start_level_is_sound(vpns in prop::collection::vec(0u64..(1 << 30), 1..50)) {
        let mut pscs = SplitPscs::asplos25();
        for &vpn in &vpns {
            let level = pscs.start_level(vpn);
            prop_assert!((2..=5).contains(&level));
            pscs.fill(vpn, 1);
            // After a fill the same VPN starts at level 2.
            prop_assert_eq!(pscs.start_level(vpn), 2);
        }
    }
}
