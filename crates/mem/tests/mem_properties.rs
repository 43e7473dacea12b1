//! Property tests for the cache and DRAM models.

use itpx_mem::cache::{Cache, CacheConfig, Probe};
use itpx_mem::dram::{Dram, DramConfig};
use itpx_policy::{CacheMeta, Lru};
use itpx_types::FillClass;
use proptest::prelude::*;

fn cache(sets: usize, ways: usize) -> Cache {
    Cache::new(
        CacheConfig {
            sets,
            ways,
            latency: 4,
            mshr_entries: 8,
        },
        Lru::new(sets, ways),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn filled_blocks_are_resident_until_evicted(
        blocks in prop::collection::vec(0u64..64, 1..100)
    ) {
        let mut c = cache(4, 4);
        for (i, &b) in blocks.iter().enumerate() {
            let m = CacheMeta::demand(b, FillClass::DataPayload);
            if let Probe::Miss(start) = c.probe(&m, i as u64 * 10, true) {
                c.fill(&m, start, start + 50, true);
            }
            prop_assert!(c.contains(b), "block {b} lost right after fill");
        }
    }

    #[test]
    fn hits_never_complete_before_fill_ready(
        delay in 0u64..200, ready in 1u64..500
    ) {
        let mut c = cache(2, 2);
        let m = CacheMeta::demand(7, FillClass::DataPayload);
        prop_assert!(matches!(c.probe(&m, 0, true), Probe::Miss(_)));
        c.fill(&m, 0, ready, true);
        match c.probe(&m, delay, true) {
            Probe::Hit(t) => prop_assert!(t >= ready.min(delay + 4)),
            Probe::Miss(_) => prop_assert!(false, "must hit after fill"),
        }
    }

    #[test]
    fn dram_reads_are_monotonic_in_queue_order(gaps in prop::collection::vec(0u64..100, 2..40)) {
        let mut d = Dram::new(DramConfig::default());
        let mut now = 0;
        let mut last_done = 0;
        for &g in &gaps {
            now += g;
            let done = d.read(now);
            prop_assert!(done >= last_done, "DRAM completion went backwards");
            prop_assert!(done >= now + 90, "cannot beat the array latency");
            last_done = done;
        }
    }

    #[test]
    fn writebacks_only_from_dirty_blocks(ops in prop::collection::vec((0u64..16, any::<bool>()), 1..120)) {
        let mut c = cache(2, 2);
        let mut dirtied = std::collections::HashSet::new();
        let mut t = 0u64;
        for &(b, store) in &ops {
            t += 10;
            let m = CacheMeta::demand(b, FillClass::DataPayload);
            if let Probe::Miss(start) = c.probe(&m, t, true) {
                if let Some(wb) = c.fill(&m, start, start + 20, true) {
                    prop_assert!(dirtied.remove(&wb.block), "clean block written back");
                }
            }
            if store {
                c.mark_dirty(b);
                if c.contains(b) {
                    dirtied.insert(b);
                }
            }
        }
    }

    #[test]
    fn miss_delays_match_the_retain_min_mshr_model(
        ops in prop::collection::vec((0u64..48, 0u64..2_000, 0u64..600, 0u8..4), 1..300),
        mshrs in 1usize..5,
    ) {
        // `now` and `ready` jump back and forth, as dataflow timestamps
        // do: the heap must keep the same multiset, count and minimum
        // as a Vec cleaned with `retain` and scanned with `min`.
        let mut c = Cache::new(
            CacheConfig {
                sets: 4,
                ways: 2,
                latency: 3,
                mshr_entries: mshrs,
            },
            Lru::new(4, 2),
        );
        let mut inflight: Vec<u64> = Vec::new();
        for &(block, now, delay, kind) in &ops {
            let m = CacheMeta::demand(block, FillClass::DataPayload);
            // kind 0: a fill racing the probe (possibly of a resident
            // block), landing at an arbitrary cycle; else a demand probe.
            if kind == 0 {
                c.fill(&m, now, delay * 3, false);
                inflight.push(delay * 3);
                continue;
            }
            match c.probe(&m, now, true) {
                Probe::Hit(_) => {}
                Probe::Miss(start) => {
                    inflight.retain(|&r| r > now);
                    let expected = if inflight.len() >= mshrs {
                        inflight.iter().copied().min().unwrap_or(now).max(now)
                    } else {
                        now
                    };
                    prop_assert_eq!(start, expected, "miss delay at now={}", now);
                    let ready = start + delay;
                    c.fill(&m, start, ready, true);
                    inflight.push(ready);
                }
            }
        }
    }
}
