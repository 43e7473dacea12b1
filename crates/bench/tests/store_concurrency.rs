//! Concurrency and crash-safety properties of the segmented store.
//!
//! The store's contract is that any number of reader processes may share
//! `target/simcache` with concurrent writers, and that nothing a writer
//! can do — including dying mid-append — ever corrupts a served result:
//! damage degrades to a cache miss, and a later insert heals it.

use itpx_bench::{SimCache, StoreConfig};
use itpx_core::Preset;
use itpx_cpu::{Simulation, SimulationOutput, SystemConfig};
use itpx_trace::WorkloadSpec;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};

/// One small real output; the store treats keys as opaque, so every
/// test inserts this same payload under many synthetic keys.
fn sample_output() -> SimulationOutput {
    let w = WorkloadSpec::server_like(5).instructions(2_000).warmup(500);
    Simulation::single_thread(&SystemConfig::asplos25(), Preset::Lru, &w).run()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("itpx-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Readers racing a writer: every lookup observes either a miss or the
/// exact inserted output, never a torn or wrong result.
#[test]
fn parallel_readers_race_a_writer_without_torn_reads() {
    let dir = temp_dir("race");
    let out = sample_output();
    const KEYS: u64 = 64;

    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let writer = {
            let dir = dir.clone();
            let out = out.clone();
            let done = &done;
            scope.spawn(move || {
                let cache = SimCache::new(Some(dir));
                for key in 0..KEYS {
                    cache.insert(key, &out);
                }
                done.store(true, Ordering::SeqCst);
            })
        };
        for _ in 0..3 {
            let dir = dir.clone();
            let out = out.clone();
            let done = &done;
            scope.spawn(move || {
                // A fresh instance per reader models a separate process:
                // no shared in-memory map, disk is the only channel.
                let cache = SimCache::new(Some(dir));
                while !done.load(Ordering::SeqCst) {
                    for key in 0..KEYS {
                        if let Some(got) = cache.peek(key) {
                            assert_eq!(got, out, "torn or wrong read at key {key}");
                        }
                    }
                }
            });
        }
        writer.join().expect("writer");
    });

    // After the writer finishes, a brand-new instance sees every key.
    let fresh = SimCache::new(Some(dir.clone()));
    for key in 0..KEYS {
        assert_eq!(fresh.peek(key), Some(out.clone()), "key {key} lost");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A writer dying mid-append leaves a truncated segment tail: entries
/// before the tear still serve, the torn one misses, nothing panics,
/// and re-inserting heals the store for the next process.
#[test]
fn mid_write_crash_degrades_to_miss_and_heals() {
    let dir = temp_dir("crash");
    let out = sample_output();

    let writer = SimCache::new(Some(dir.clone()));
    for key in 0..4u64 {
        writer.insert(key, &out);
    }
    drop(writer);

    // Simulate the crash: chop bytes off the segment tail, leaving the
    // last record incomplete but earlier records intact.
    let seg_dir = dir.join("segments");
    let seg = std::fs::read_dir(&seg_dir)
        .expect("segments dir")
        .flatten()
        .map(|e| e.path())
        .next()
        .expect("one segment");
    let bytes = std::fs::read(&seg).expect("read segment");
    std::fs::write(&seg, &bytes[..bytes.len() - 7]).expect("truncate tail");

    let fresh = SimCache::new(Some(dir.clone()));
    for key in 0..3u64 {
        assert_eq!(fresh.get(key), Some(out.clone()), "pre-tear key {key}");
    }
    assert_eq!(fresh.get(3), None, "torn record must miss, not serve");

    // The campaign's reaction to a miss is to re-simulate and insert;
    // that must fully heal the store for the next process.
    fresh.insert(3, &out);
    let healed = SimCache::new(Some(dir.clone()));
    for key in 0..4u64 {
        assert_eq!(healed.get(key), Some(out.clone()), "healed key {key}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Garbage appended by a dying writer (not just a clean truncation) is
/// also contained: valid earlier records serve, the rest misses.
#[test]
fn garbage_segment_tail_never_corrupts_served_results() {
    let dir = temp_dir("garbage");
    let out = sample_output();

    let writer = SimCache::new(Some(dir.clone()));
    writer.insert(1, &out);
    drop(writer);

    let seg = std::fs::read_dir(dir.join("segments"))
        .expect("segments dir")
        .flatten()
        .map(|e| e.path())
        .next()
        .expect("one segment");
    let mut bytes = std::fs::read(&seg).expect("read segment");
    // A plausible-looking but bogus record: a length prefix promising
    // more bytes than follow, then noise.
    bytes.extend_from_slice(&1_000u32.to_le_bytes());
    bytes.extend_from_slice(&[0xAB; 37]);
    std::fs::write(&seg, &bytes).expect("append garbage");

    let fresh = SimCache::new(Some(dir.clone()));
    assert_eq!(fresh.get(1), Some(out), "valid record still serves");
    assert_eq!(fresh.get(2), None, "garbage never materializes a key");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `ITPX_SIMCACHE_MAX_MB` cap prunes oldest segments first; capped
/// stores keep working (recent keys hit, pruned keys miss, no errors).
#[test]
fn size_cap_prunes_oldest_segments_first() {
    let dir = temp_dir("prune");
    let out = sample_output();
    let entry_estimate = 512; // a smoke-scale entry is a few hundred bytes
    let cap = 8 * entry_estimate;
    let config = StoreConfig {
        max_bytes: Some(cap),
        // Tiny segments so pruning has fine-grained victims.
        segment_target: entry_estimate,
    };

    let cache = SimCache::with_config(Some(dir.clone()), config);
    const KEYS: u64 = 64;
    for key in 0..KEYS {
        cache.insert(key, &out);
    }
    // The cap holds (up to one segment of slack for the active writer).
    assert!(
        cache.disk_bytes() <= cap + 4 * entry_estimate,
        "store grew past its cap: {} > {}",
        cache.disk_bytes(),
        cap
    );

    // A fresh instance: the newest keys must still hit, the oldest must
    // have been pruned away — and pruning is a miss, never an error.
    let fresh = SimCache::with_config(Some(dir.clone()), config);
    assert_eq!(fresh.get(KEYS - 1), Some(out), "newest key pruned");
    assert_eq!(fresh.get(0), None, "oldest key should be pruned");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two instances over one directory (two processes, conceptually):
/// everything one writes, the other reads back.
#[test]
fn cross_instance_visibility_through_one_directory() {
    let dir = temp_dir("visibility");
    let out = sample_output();
    let a = SimCache::new(Some(dir.clone()));
    let b = SimCache::new(Some(dir.clone()));
    a.insert(100, &out);
    assert_eq!(b.get(100), Some(out.clone()), "b sees a's insert");
    b.insert(200, &out);
    assert_eq!(a.get(200), Some(out), "a sees b's insert");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A reader that has scanned every segment to its end still finds a
/// later append by another writer, both to a segment it already scanned
/// (refresh skips only segments whose length equals its cursor) and in
/// a segment that did not exist at its last refresh.
#[test]
fn appends_after_a_full_scan_are_still_found() {
    let dir = temp_dir("append-after-scan");
    let out = sample_output();
    let writer = SimCache::new(Some(dir.clone()));
    let reader = SimCache::new(Some(dir.clone()));
    writer.insert(1, &out);
    assert_eq!(reader.get(1), Some(out.clone()));
    // A miss refreshes again over the unchanged, fully scanned segment.
    assert_eq!(reader.get(2), None);
    writer.insert(2, &out);
    assert_eq!(
        reader.get(2),
        Some(out.clone()),
        "append to a scanned segment lost"
    );
    let second = SimCache::new(Some(dir.clone()));
    second.insert(3, &out);
    assert_eq!(
        reader.get(3),
        Some(out.clone()),
        "second writer's segment lost"
    );
    writer.insert(4, &out);
    second.insert(5, &out);
    assert_eq!(reader.get(4), Some(out.clone()));
    assert_eq!(reader.get(5), Some(out), "second writer's append lost");
    let _ = std::fs::remove_dir_all(&dir);
}
