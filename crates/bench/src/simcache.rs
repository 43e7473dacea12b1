//! Content-addressed memoization of simulation results.
//!
//! Simulations are deterministic functions of their configuration, so the
//! campaign engine caches each [`SimulationOutput`] under the 64-bit
//! fingerprint of everything that determined it (see
//! [`crate::campaign::SimRequest::key`]). Results live in an in-process
//! map and, for reuse across `run_all` invocations, in a segmented store
//! under `target/simcache/`.
//!
//! The on-disk format is versioned: entries start with a magic tag, a
//! schema version, the key they claim to hold, and an FNV-1a checksum of
//! the payload. An entry that is truncated, bit-flipped, carries a stale
//! version, or disagrees with the key it was looked up under is ignored
//! (the run falls back to simulating and rewrites it) — the structural
//! decoder alone cannot catch a flipped bit inside a fixed-width
//! counter, which is what the checksum is for.
//!
//! Persistence is layered on the [`crate::store::SegmentStore`]: entries
//! append to single-writer segment files that any number of concurrent
//! reader processes share lock-free.
//! The cache toggle comes from `ITPX_SIMCACHE` via [`crate::env`] (only
//! `0`/`false`/`off` disable it; junk values warn and keep the default),
//! and `ITPX_SIMCACHE_MAX_MB` caps the on-disk footprint (oldest
//! segments pruned first; pruning degrades to a miss, never an error).

use crate::store::{SegmentStore, StoreConfig};
use itpx_cpu::{LevelReport, SimulationOutput, ThreadOutput, WalkerSummary};
use itpx_trace::TierSchedule;
use itpx_types::{Fnv1a, LevelId, OnlineMean, StructStats};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// File magic: identifies simcache entries.
const MAGIC: &[u8; 8] = b"ITPXSIMC";
/// Schema version; bump on any change to the serialized layout.
/// v2 added the per-level `cache_levels` section; v3 added the payload
/// checksum after the key; v4 added the tiered execution schedule.
const VERSION: u32 = 4;

/// A process-wide simulation-result cache with disk persistence.
#[derive(Debug)]
pub struct SimCache {
    enabled: bool,
    store: Option<SegmentStore>,
    mem: Mutex<std::collections::BTreeMap<u64, SimulationOutput>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl SimCache {
    /// A cache persisting under `dir` (`None` keeps it memory-only),
    /// with an unbounded on-disk footprint.
    pub fn new(dir: Option<PathBuf>) -> Self {
        Self::with_config(dir, StoreConfig::default())
    }

    /// A cache persisting under `dir` with explicit store limits — the
    /// constructor behind `ITPX_SIMCACHE_MAX_MB` and the pruning tests.
    pub fn with_config(dir: Option<PathBuf>, config: StoreConfig) -> Self {
        Self {
            enabled: true,
            store: dir.map(|d| SegmentStore::new(d, config)),
            mem: Mutex::new(std::collections::BTreeMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The standard configuration: persistence under `target/simcache/`,
    /// disabled with `ITPX_SIMCACHE=0` (or `false`/`off`), capped by
    /// `ITPX_SIMCACHE_MAX_MB` (unset or `0` = unbounded). Unrecognized
    /// values keep the defaults and warn once, rather than being
    /// silently interpreted.
    pub fn from_env() -> Self {
        let enabled = crate::env::switch_from_env("ITPX_SIMCACHE", true);
        let config = match crate::env::simcache_max_bytes_from_env() {
            Some(cap) => StoreConfig::capped(cap),
            None => StoreConfig::default(),
        };
        Self {
            enabled,
            ..Self::with_config(Some(PathBuf::from("target/simcache")), config)
        }
    }

    /// A cache that never stores or serves anything (every lookup misses).
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::new(None)
        }
    }

    /// Whether lookups can ever hit.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Lookups served from memory or disk so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that required a fresh simulation so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Bytes the backing store currently occupies on disk (0 when
    /// memory-only) — what `ITPX_SIMCACHE_MAX_MB` caps.
    pub fn disk_bytes(&self) -> u64 {
        self.store.as_ref().map_or(0, SegmentStore::disk_bytes)
    }

    /// The cached output for `key`, consulting memory first, then the
    /// segmented store. Counts a hit or miss either way.
    pub fn get(&self, key: u64) -> Option<SimulationOutput> {
        let found = self.lookup(key);
        match found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// [`Self::get`] without touching the hit/miss counters — the
    /// sharded executor polls with this while waiting for peer shards,
    /// and polling must not distort the campaign's cache accounting.
    pub fn peek(&self, key: u64) -> Option<SimulationOutput> {
        self.lookup(key)
    }

    /// The in-memory map, recovered if a panicking holder poisoned the
    /// lock: its only writes are whole-entry inserts of validated
    /// outputs, so every entry it holds is still a real result.
    fn mem(&self) -> MutexGuard<'_, std::collections::BTreeMap<u64, SimulationOutput>> {
        self.mem.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lookup(&self, key: u64) -> Option<SimulationOutput> {
        if !self.enabled {
            return None;
        }
        if let Some(out) = self.mem().get(&key) {
            return Some(out.clone());
        }
        let bytes = self.store.as_ref()?.get(key)?;
        let (_, out) = decode_entry_bytes(&bytes).filter(|&(k, _)| k == key)?;
        self.mem().insert(key, out.clone());
        Some(out)
    }

    /// Stores `out` under `key` in memory and (best-effort) in the
    /// segmented store.
    pub fn insert(&self, key: u64, out: &SimulationOutput) {
        if !self.enabled {
            return;
        }
        self.mem().insert(key, out.clone());
        if let Some(store) = &self.store {
            // Persistence failures (read-only disk, races, pruning) only
            // cost a re-simulation later, so they are not errors.
            store.insert(key, &entry_bytes(key, out));
        }
    }
}

/// Encodes one fully self-validating v4 entry: magic, version, key,
/// payload checksum, payload — the body of one segment record.
pub(crate) fn entry_bytes(key: u64, out: &SimulationOutput) -> Vec<u8> {
    let mut payload = Vec::with_capacity(512);
    encode_output(&mut payload, out);
    let mut buf = Vec::with_capacity(payload.len() + 28);
    buf.extend_from_slice(MAGIC);
    put_u32(&mut buf, VERSION);
    put_u64(&mut buf, key);
    put_u64(&mut buf, payload_checksum(&payload));
    buf.extend_from_slice(&payload);
    buf
}

/// Decodes entry bytes produced by [`entry_bytes`] into the key the entry
/// claims to hold and its output. Anything that does not validate — bad
/// magic, stale version, checksum mismatch, unclean decode, trailing
/// garbage — is `None`; callers match the key against what they looked
/// up.
pub(crate) fn decode_entry_bytes(bytes: &[u8]) -> Option<(u64, SimulationOutput)> {
    let key = entry_key(bytes)?;
    let mut r = Reader {
        bytes: bytes.get(ENTRY_HEADER..)?,
    };
    let out = decode_output(&mut r)?;
    // Trailing garbage marks a corrupted entry.
    r.bytes.is_empty().then_some((key, out))
}

/// Bytes before an entry's payload: magic, version, key, checksum.
const ENTRY_HEADER: usize = MAGIC.len() + 4 + 8 + 8;

/// The key an entry claims to hold, if its magic, version and payload
/// checksum validate, without decoding the payload: the segment store
/// checks every record it reads or scans this way, so a warm disk hit
/// decodes once, in [`decode_entry_bytes`].
pub(crate) fn entry_key(bytes: &[u8]) -> Option<u64> {
    let mut r = Reader { bytes };
    if r.take(MAGIC.len())? != MAGIC.as_slice() || r.u32()? != VERSION {
        return None;
    }
    let key = r.u64()?;
    (r.u64()? == payload_checksum(r.bytes)).then_some(key)
}

/// FNV-1a over the serialized payload. Structural decoding alone accepts a
/// bit flip inside any fixed-width counter; this rejects it.
fn payload_checksum(payload: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write_bytes(payload);
    h.finish()
}

fn encode_output(buf: &mut Vec<u8>, out: &SimulationOutput) {
    put_str(buf, &out.preset);
    put_str(buf, &out.llc_policy);
    put_u32(buf, out.threads.len() as u32);
    for t in &out.threads {
        put_str(buf, &t.workload);
        put_u64(buf, t.instructions);
        put_u64(buf, t.cycles);
        put_u64(buf, t.itrans_stall_cycles);
        put_u64(buf, t.mispredictions);
    }
    put_u64(buf, out.tiers.window);
    put_u64(buf, out.tiers.fast_forward);
    put_u64(buf, out.tiers.windows);
    for s in [
        &out.itlb, &out.dtlb, &out.stlb, &out.l1i, &out.l1d, &out.l2c, &out.llc,
    ] {
        put_stats(buf, s);
    }
    put_u64(buf, out.walker.walks);
    put_u64(buf, out.walker.instruction_walks);
    put_u64(buf, out.walker.data_walks);
    put_f64(buf, out.walker.avg_latency);
    put_f64(buf, out.walker.avg_memory_refs);
    put_u64(buf, out.dram_reads);
    put_u64(buf, out.dram_writes);
    match out.xptp_enabled_fraction {
        Some(f) => {
            buf.push(1);
            put_f64(buf, f);
        }
        None => buf.push(0),
    }
    put_u32(buf, out.cache_levels.len() as u32);
    for level in &out.cache_levels {
        buf.push(level.id.code());
        put_stats(buf, &level.stats);
    }
}

fn decode_output(r: &mut Reader<'_>) -> Option<SimulationOutput> {
    let preset = r.string()?;
    let llc_policy = r.string()?;
    let n_threads = r.u32()? as usize;
    // An implausible thread count means corruption; cap before allocating.
    if n_threads > 16 {
        return None;
    }
    let mut threads = Vec::with_capacity(n_threads);
    for _ in 0..n_threads {
        threads.push(ThreadOutput {
            workload: r.string()?,
            instructions: r.u64()?,
            cycles: r.u64()?,
            itrans_stall_cycles: r.u64()?,
            mispredictions: r.u64()?,
        });
    }
    let tiers = TierSchedule {
        window: r.u64()?,
        fast_forward: r.u64()?,
        windows: r.u64()?,
    };
    let mut stats = Vec::with_capacity(7);
    for _ in 0..7 {
        stats.push(r.stats()?);
    }
    let mut stats = stats.into_iter();
    // 7 entries were just decoded, in field order.
    let (itlb, dtlb, stlb, l1i, l1d, l2c, llc) = (
        stats.next()?,
        stats.next()?,
        stats.next()?,
        stats.next()?,
        stats.next()?,
        stats.next()?,
        stats.next()?,
    );
    let walker = WalkerSummary {
        walks: r.u64()?,
        instruction_walks: r.u64()?,
        data_walks: r.u64()?,
        avg_latency: r.f64()?,
        avg_memory_refs: r.f64()?,
    };
    let dram_reads = r.u64()?;
    let dram_writes = r.u64()?;
    let xptp_enabled_fraction = match r.u8()? {
        0 => None,
        1 => Some(r.f64()?),
        _ => return None,
    };
    let n_levels = r.u32()? as usize;
    // The chain never exceeds 2 private + MAX_SHARED_LEVELS shared levels;
    // anything larger means corruption.
    if n_levels > 8 {
        return None;
    }
    let mut cache_levels = Vec::with_capacity(n_levels);
    for _ in 0..n_levels {
        let id = LevelId::from_code(r.u8()?)?;
        cache_levels.push(LevelReport {
            id,
            stats: r.stats()?,
        });
    }
    Some(SimulationOutput {
        preset,
        llc_policy,
        threads,
        tiers,
        itlb,
        dtlb,
        stlb,
        l1i,
        l1d,
        l2c,
        llc,
        cache_levels,
        walker,
        dram_reads,
        dram_writes,
        xptp_enabled_fraction,
    })
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    // Bit-exact round-trip: never format or round floats.
    put_u64(buf, v.to_bits());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_stats(buf: &mut Vec<u8>, s: &StructStats) {
    let (accesses, misses, latency) = s.raw_parts();
    for v in accesses.iter().chain(misses.iter()) {
        put_u64(buf, *v);
    }
    let (count, sum) = latency.raw_parts();
    put_u64(buf, count);
    put_f64(buf, sum);
}

/// A bounds-checked little-endian reader; every accessor returns `None`
/// past the end, so corrupted files degrade to a cache miss.
struct Reader<'a> {
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.bytes.len() < n {
            return None;
        }
        let (head, tail) = self.bytes.split_at(n);
        self.bytes = tail;
        Some(head)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.u64()?))
    }

    fn string(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }

    fn stats(&mut self) -> Option<StructStats> {
        let mut accesses = [0u64; 4];
        let mut misses = [0u64; 4];
        for a in &mut accesses {
            *a = self.u64()?;
        }
        for m in &mut misses {
            *m = self.u64()?;
        }
        let count = self.u64()?;
        let sum = self.f64()?;
        Some(StructStats::from_raw_parts(
            accesses,
            misses,
            OnlineMean::from_raw_parts(count, sum),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itpx_core::Preset;
    use itpx_cpu::{Simulation, SystemConfig};
    use itpx_trace::WorkloadSpec;
    use std::path::Path;

    fn sample_output() -> SimulationOutput {
        let w = WorkloadSpec::server_like(3)
            .instructions(5_000)
            .warmup(1_000);
        Simulation::single_thread(&SystemConfig::asplos25(), Preset::ItpXptp, &w).run()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("itpx-simcache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The decoded output when `bytes` validate as an entry for `key`.
    fn decode_for(bytes: &[u8], key: u64) -> Option<SimulationOutput> {
        decode_entry_bytes(bytes).and_then(|(k, out)| (k == key).then_some(out))
    }

    #[test]
    fn a_poisoned_memory_lock_still_reads_and_inserts() {
        let dir = temp_dir("poison");
        let out = sample_output();
        SimCache::new(Some(dir.clone())).insert(1, &out);
        let cache = SimCache::new(Some(dir.clone()));
        let poisoner = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = cache.mem.lock();
                panic!("poison the simcache lock");
            })
            .join()
        });
        assert!(poisoner.is_err() && cache.mem.is_poisoned());
        // A disk hit is decoded into the poisoned map, then served from it.
        assert_eq!(cache.get(1), Some(out.clone()));
        assert_eq!(cache.mem().len(), 1);
        cache.insert(2, &out);
        assert_eq!(cache.get(2), Some(out));
        assert_eq!(cache.hits(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn round_trip_is_exact() {
        let out = sample_output();
        let back = decode_for(&entry_bytes(7, &out), 7).expect("decodes");
        assert_eq!(out, back, "serialized output must round-trip exactly");
    }

    #[test]
    fn wrong_key_is_rejected() {
        let out = sample_output();
        assert!(decode_for(&entry_bytes(7, &out), 8).is_none());
        // Through the store too: a record holding key 7 appended under key
        // 8 never serves key 8.
        let dir = temp_dir("wrongkey");
        let cache = SimCache::new(Some(dir.clone()));
        let store = cache.store.as_ref().expect("persistent cache");
        store.insert(8, &entry_bytes(7, &out));
        assert_eq!(SimCache::new(Some(dir.clone())).get(8), None);
        assert_eq!(SimCache::new(Some(dir.clone())).get(7), Some(out));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_and_stale_entries_are_rejected() {
        let out = sample_output();
        let good = entry_bytes(7, &out);

        // Truncated.
        assert!(decode_for(&good[..good.len() / 2], 7).is_none());

        // Trailing garbage.
        let mut long = good.clone();
        long.push(0xEE);
        assert!(decode_for(&long, 7).is_none());

        // Stale schema version.
        let mut stale = good.clone();
        stale[8] = VERSION as u8 + 1;
        assert!(decode_for(&stale, 7).is_none());

        // Bad magic.
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert!(decode_for(&bad, 7).is_none());

        // The untouched bytes still decode.
        assert_eq!(decode_for(&good, 7), Some(out));
    }

    #[test]
    fn bit_flips_anywhere_in_the_payload_are_rejected() {
        let good = entry_bytes(7, &sample_output());
        // Header is magic(8) + version(4) + key(8) + checksum(8).
        let payload_start = 28;
        assert!(good.len() > payload_start);
        // Flipping a single bit in any payload byte must degrade to a
        // miss — counters are fixed-width, so without the checksum these
        // bytes would decode "successfully" into a wrong result.
        for offset in [payload_start, payload_start + 9, good.len() - 1] {
            let mut bad = good.clone();
            bad[offset] ^= 0x01;
            assert!(
                decode_for(&bad, 7).is_none(),
                "bit flip at byte {offset} must be rejected"
            );
        }
        // A flipped checksum (with an intact payload) is rejected too.
        let mut bad = good;
        bad[20] ^= 0x01;
        assert!(decode_for(&bad, 7).is_none());
    }

    /// The one on-disk segment file a fresh cache wrote, by construction.
    fn only_segment(dir: &Path) -> PathBuf {
        let mut segs: Vec<PathBuf> = std::fs::read_dir(dir.join("segments"))
            .expect("segments dir")
            .flatten()
            .map(|e| e.path())
            .collect();
        assert_eq!(segs.len(), 1, "expected exactly one segment");
        segs.remove(0)
    }

    #[test]
    fn corrupted_segments_degrade_to_miss_and_rewrite_cleanly() {
        let out = sample_output();
        let dir = temp_dir("degrade");
        let cache = SimCache::new(Some(dir.clone()));
        cache.insert(9, &out);
        let seg = only_segment(&dir);
        let good = std::fs::read(&seg).expect("segment exists on disk");

        for (label, bytes) in [
            ("truncated", good[..good.len() / 3].to_vec()),
            ("bit-flipped", {
                let mut b = good.clone();
                b[good.len() / 2] ^= 0x10;
                b
            }),
        ] {
            let _ = std::fs::remove_dir_all(dir.join("segments"));
            std::fs::create_dir_all(dir.join("segments")).expect("recreate");
            std::fs::write(&seg, &bytes).expect("corrupt");
            // A fresh instance (fresh process) must treat the damaged
            // segment as a miss — never panic, never serve garbage.
            let fresh = SimCache::new(Some(dir.clone()));
            assert_eq!(fresh.get(9), None, "{label} segment must miss");
            assert_eq!((fresh.hits(), fresh.misses()), (0, 1));
            // Re-inserting (what the campaign does after re-simulating)
            // appends a fresh record so the next process hits again.
            fresh.insert(9, &out);
            let next = SimCache::new(Some(dir.clone()));
            assert_eq!(next.get(9), Some(out.clone()), "{label} entry rewritten");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Flat `<key>.bin` files from the pre-segment layout are not part
    /// of the store: a valid one is neither served nor counted against
    /// the cap, and pruning leaves it alone.
    #[test]
    fn flat_bin_files_are_neither_served_nor_counted() {
        let out = sample_output();
        let dir = temp_dir("flat");
        let key = 0x1234_5678_9abc_def0_u64;
        let flat = dir.join(format!("{key:016x}.bin"));
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(&flat, entry_bytes(key, &out)).expect("write flat entry");

        let cache = SimCache::with_config(Some(dir.clone()), StoreConfig::capped(1));
        assert_eq!(cache.get(key), None, "flat entry must not serve");
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        assert_eq!(cache.disk_bytes(), 0, "flat entry must not count");
        cache.insert(key ^ 1, &out);
        assert!(flat.exists(), "pruning must leave non-segment files alone");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_serves_from_disk_across_instances() {
        let dir = temp_dir("instances");
        let out = sample_output();
        let a = SimCache::new(Some(dir.clone()));
        assert_eq!(a.get(42), None);
        a.insert(42, &out);
        assert_eq!(a.get(42), Some(out.clone()));
        assert_eq!((a.hits(), a.misses()), (1, 1));

        // A fresh instance (fresh process, conceptually) reads the file.
        let b = SimCache::new(Some(dir.clone()));
        assert_eq!(b.get(42), Some(out));
        assert_eq!((b.hits(), b.misses()), (1, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disabled_cache_never_serves() {
        let c = SimCache::disabled();
        let out = sample_output();
        c.insert(1, &out);
        assert_eq!(c.get(1), None);
        assert_eq!(c.misses(), 1);
    }
}
