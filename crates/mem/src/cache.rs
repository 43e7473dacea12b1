//! One set-associative cache level with pluggable replacement and
//! MSHR-aware fill timing.

use itpx_policy::{CacheMeta, CachePolicyEngine, Policy, SetAssoc};
use itpx_types::fingerprint::{Fingerprint, Fnv1a};
use itpx_types::{Cycle, StructStats};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Geometry and timing of a cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets.
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Lookup latency in cycles.
    pub latency: u64,
    /// Miss-status-holding-register capacity.
    pub mshr_entries: usize,
}

impl CacheConfig {
    /// Capacity in bytes (64-byte blocks).
    pub fn bytes(&self) -> usize {
        self.sets * self.ways * 64
    }

    /// Validates the geometry.
    ///
    /// Real caches index sets with address bits, so the set count must
    /// be a power of two; a non-power-of-two count would silently model
    /// an unbuildable indexing function (and skew set-contention
    /// behavior). [`Cache::new`] calls this, so every constructed cache
    /// is covered.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is zero or not a power of two, `ways` is zero or
    /// exceeds 64 (the validity-bitmask width), or `mshr_entries` is
    /// zero.
    pub fn validate(&self) {
        assert!(
            self.sets.is_power_of_two(),
            "cache set count must be a power of two, got {}",
            self.sets
        );
        assert!(self.ways > 0, "cache needs ways > 0");
        assert!(self.ways <= 64, "valid bitmask holds at most 64 ways");
        assert!(self.mshr_entries > 0, "cache needs at least one MSHR");
    }
}

impl Fingerprint for CacheConfig {
    fn fingerprint(&self, h: &mut Fnv1a) {
        h.write_usize(self.sets);
        h.write_usize(self.ways);
        h.write_u64(self.latency);
        h.write_usize(self.mshr_entries);
    }
}

/// One resident line: only what the cache reads back. The fill's
/// `CacheMeta` goes to the policy hooks; the line keeps just whether a
/// demand access has yet to touch it.
#[derive(Debug, Clone, Copy)]
struct Line {
    block: u64,
    ready: Cycle,
    dirty: bool,
    /// Brought in by a prefetch and not yet demand-touched.
    prefetched: bool,
}

/// Result of a cache probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// Present: the access completes at the given cycle (waiting for an
    /// in-flight fill if necessary).
    Hit(Cycle),
    /// Absent: the miss may proceed to the next level at the given cycle
    /// (delayed past `now` if all MSHRs are busy).
    Miss(Cycle),
}

/// A dirty block displaced by a fill, to be written toward memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Writeback {
    /// Block index of the displaced dirty block.
    pub block: u64,
}

/// One set-associative cache level.
///
/// Tag storage is a [`SetAssoc`]: one flat slab with per-set validity
/// bitmasks — the probe/fill paths below are the simulator's
/// most-executed code, and the flat layout keeps them to one indirection
/// with no per-way `Option` discriminant.
#[derive(Debug)]
pub struct Cache {
    cfg: CacheConfig,
    lines: SetAssoc<Line>,
    /// Enum-dispatched so the per-access `on_hit`/`victim`/`on_fill`
    /// calls inline instead of going through a vtable.
    policy: CachePolicyEngine,
    stats: StructStats,
    /// Completion times of outstanding fills, earliest on top
    /// (lazy-cleaned MSHR model: expired entries are popped at the next
    /// miss).
    inflight: BinaryHeap<Reverse<Cycle>>,
    prefetch_issued: u64,
    prefetch_useful: u64,
    writebacks: u64,
    evictions: u64,
}

impl Cache {
    /// Creates a cache with the given geometry and replacement policy.
    ///
    /// Any in-tree policy converts into [`CachePolicyEngine`] directly
    /// (`Lru::new(..)`, boxed trait objects, or an explicit engine all
    /// work); out-of-tree policies go through
    /// [`CachePolicyEngine::boxed`].
    ///
    /// # Panics
    ///
    /// Panics if [`CacheConfig::validate`] rejects the geometry.
    pub fn new(cfg: CacheConfig, policy: impl Into<CachePolicyEngine>) -> Self {
        cfg.validate();
        let empty = Line {
            block: 0,
            ready: 0,
            dirty: false,
            prefetched: false,
        };
        Self {
            lines: SetAssoc::new(cfg.sets, cfg.ways, empty),
            policy: policy.into(),
            stats: StructStats::new(),
            inflight: BinaryHeap::with_capacity(cfg.mshr_entries),
            prefetch_issued: 0,
            prefetch_useful: 0,
            writebacks: 0,
            evictions: 0,
            cfg,
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Lookup latency in cycles.
    pub fn latency(&self) -> u64 {
        self.cfg.latency
    }

    /// Demand access/miss statistics with per-class breakdown.
    pub fn stats(&self) -> &StructStats {
        &self.stats
    }

    /// Number of dirty blocks displaced so far.
    pub fn writebacks(&self) -> u64 {
        self.writebacks
    }

    /// Number of valid blocks displaced by fills (dirty or clean).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Prefetches issued into this cache.
    pub fn prefetches_issued(&self) -> u64 {
        self.prefetch_issued
    }

    /// Prefetched blocks that later served a demand hit.
    pub fn prefetches_useful(&self) -> u64 {
        self.prefetch_useful
    }

    /// Probes for `meta.block` at `now`. `demand` controls whether the
    /// access is recorded in the demand statistics (prefetch and writeback
    /// probes are not).
    #[inline]
    pub fn probe(&mut self, meta: &CacheMeta, now: Cycle, demand: bool) -> Probe {
        let set = self.lines.set_of(meta.block);
        match self.lines.find_mut(set, |l| l.block == meta.block) {
            Some((way, line)) => {
                if demand {
                    self.stats.record(meta.fill, false);
                    if line.prefetched {
                        // First demand touch of a prefetched block. A
                        // demand PC of u64::MAX leaves the mark set, as
                        // when the mark was that PC value, so counts
                        // stay bit-identical.
                        line.prefetched = meta.pc == u64::MAX;
                        self.prefetch_useful += 1;
                    }
                }
                let ready = line.ready;
                self.policy.on_hit(set, way, meta);
                Probe::Hit(ready.max(now + self.cfg.latency))
            }
            None => {
                if demand {
                    self.stats.record(meta.fill, true);
                }
                Probe::Miss(self.mshr_allocate(now))
            }
        }
    }

    /// [`Cache::probe`] on a fast-forward's warm path: the same policy
    /// hook on a hit, no time and no statistics. Returns whether
    /// `meta.block` is resident.
    #[inline]
    pub(crate) fn warm_probe(&mut self, meta: &CacheMeta) -> bool {
        let set = self.lines.set_of(meta.block);
        let hit = self.lines.find(set, |l| l.block == meta.block);
        if let Some((way, _)) = hit {
            self.policy.on_hit(set, way, meta);
        }
        hit.is_some()
    }

    /// Reserves an MSHR: returns the cycle the miss may proceed. Fills
    /// completed by `now` leave the heap; if the rest occupy every MSHR
    /// the miss waits for the earliest of them.
    fn mshr_allocate(&mut self, now: Cycle) -> Cycle {
        while self.inflight.peek().is_some_and(|&Reverse(r)| r <= now) {
            self.inflight.pop();
        }
        if self.inflight.len() >= self.cfg.mshr_entries {
            // guarded: len >= mshr_entries >= 1, so a top exists, and
            // every entry left is > now
            self.inflight.peek().map_or(now, |&Reverse(r)| r)
        } else {
            now
        }
    }

    /// Installs `meta.block`, becoming readable at `ready`. Returns the
    /// displaced dirty block, if any. `demand` records the end-to-end miss
    /// latency (`ready - miss_start`). A block already resident (e.g. a
    /// racing prefetch) is only refreshed.
    // itpx-allow: hot-inline only the difftest reference and tests call it from outside this crate; the hot edge is a name collision with the functional PSCs' `fill`
    pub fn fill(
        &mut self,
        meta: &CacheMeta,
        miss_start: Cycle,
        ready: Cycle,
        demand: bool,
    ) -> Option<Writeback> {
        let set = self.lines.set_of(meta.block);
        match self.lines.find(set, |l| l.block == meta.block) {
            Some((way, _)) => {
                self.record_fill(miss_start, ready, demand);
                self.policy.on_hit(set, way, meta);
                None
            }
            None => self.fill_miss(meta, miss_start, ready, demand),
        }
    }

    /// [`Cache::fill`] for a block known to be absent: the miss path of
    /// the level chain, where nothing touches this level between the
    /// probe that missed and the fill, skips the second set scan.
    #[inline]
    pub(crate) fn fill_miss(
        &mut self,
        meta: &CacheMeta,
        miss_start: Cycle,
        ready: Cycle,
        demand: bool,
    ) -> Option<Writeback> {
        self.record_fill(miss_start, ready, demand);
        // Marked so the first demand touch is counted; a demand PC of
        // u64::MAX marks the line too (see `probe`).
        let victim = self.install_absent(meta, ready, !demand || meta.pc == u64::MAX)?;
        self.evictions += 1;
        victim.dirty.then(|| {
            self.writebacks += 1;
            Writeback {
                block: victim.block,
            }
        })
    }

    /// [`Cache::fill_miss`] on a fast-forward's warm path: the same policy
    /// hooks and displaced dirty block, no counter and no in-flight fill,
    /// and the line is readable at once.
    #[inline]
    pub(crate) fn warm_fill(&mut self, meta: &CacheMeta) -> Option<Writeback> {
        let victim = self.install_absent(meta, 0, false)?;
        victim.dirty.then_some(Writeback {
            block: victim.block,
        })
    }

    /// Installs the absent `meta.block` as a clean line readable at
    /// `ready`; returns the line it displaced.
    fn install_absent(&mut self, meta: &CacheMeta, ready: Cycle, prefetched: bool) -> Option<Line> {
        debug_assert!(!self.contains(meta.block), "fill of a resident block");
        let set = self.lines.set_of(meta.block);
        let line = Line {
            block: meta.block,
            ready,
            dirty: false,
            prefetched,
        };
        self.lines.install(&mut self.policy, set, line, meta)
    }

    /// The settle step at the end of a fast-forward: forgets every
    /// in-flight fill and makes every line readable at once, so the next
    /// window starts with no work left from the previous one.
    pub(crate) fn settle(&mut self) {
        self.inflight.clear();
        self.lines.for_each_mut(|l| l.ready = 0);
    }

    /// The bookkeeping every fill does, resident or not: miss latency or
    /// prefetch count, and one more in-flight completion.
    fn record_fill(&mut self, miss_start: Cycle, ready: Cycle, demand: bool) {
        if demand {
            self.stats
                .record_miss_latency(ready.saturating_sub(miss_start));
        } else {
            self.prefetch_issued += 1;
        }
        // itpx-allow: hot-alloc grow-once heap: grows only until its capacity matches peak in-flight occupancy, then reuses it
        self.inflight.push(Reverse(ready));
    }

    /// Marks `block` dirty if resident (stores; dirty writeback landing)
    /// and returns whether it was: one set scan serves both the residency
    /// test and the mark.
    // itpx-allow: hot-inline the hot edge is a name collision with the functional reference's own cache levels
    pub fn mark_dirty(&mut self, block: u64) -> bool {
        let set = self.lines.set_of(block);
        match self.lines.find_mut(set, |l| l.block == block) {
            Some((_, line)) => {
                line.dirty = true;
                true
            }
            None => false,
        }
    }

    /// Clears statistics (tags and replacement state are preserved), for
    /// the warmup/measurement boundary.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
        self.prefetch_issued = 0;
        self.prefetch_useful = 0;
        self.writebacks = 0;
        self.evictions = 0;
    }

    /// Whether `block` is resident.
    // itpx-allow: hot-inline the hot edge is a name collision with the functional reference's own cache levels
    pub fn contains(&self, block: u64) -> bool {
        let set = self.lines.set_of(block);
        self.lines.find(set, |l| l.block == block).is_some()
    }

    /// Whether `block` is resident and dirty.
    pub fn is_dirty(&self, block: u64) -> bool {
        let set = self.lines.set_of(block);
        self.lines
            .find(set, |l| l.block == block)
            .is_some_and(|(_, l)| l.dirty)
    }

    /// Number of resident lines.
    pub fn resident_count(&self) -> usize {
        self.lines.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itpx_policy::Lru;
    use itpx_types::FillClass;

    fn cache(sets: usize, ways: usize) -> Cache {
        Cache::new(
            CacheConfig {
                sets,
                ways,
                latency: 4,
                mshr_entries: 4,
            },
            Lru::new(sets, ways),
        )
    }

    fn m(block: u64) -> CacheMeta {
        CacheMeta::demand(block, FillClass::DataPayload)
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_are_rejected() {
        let _ = cache(42, 12);
    }

    #[test]
    fn validate_accepts_power_of_two_sets() {
        for sets in [1, 2, 64, 2048] {
            CacheConfig {
                sets,
                ways: 8,
                latency: 4,
                mshr_entries: 8,
            }
            .validate();
        }
    }

    #[test]
    fn miss_fill_hit_cycle() {
        let mut c = cache(4, 2);
        assert!(matches!(c.probe(&m(8), 0, true), Probe::Miss(0)));
        c.fill(&m(8), 0, 100, true);
        // Hit before the fill completes waits for it.
        assert_eq!(c.probe(&m(8), 50, true), Probe::Hit(100));
        // Hit after completion pays only the lookup latency.
        assert_eq!(c.probe(&m(8), 200, true), Probe::Hit(204));
        assert_eq!(c.stats().misses(), 1);
        assert_eq!(c.stats().accesses(), 3);
    }

    #[test]
    fn eviction_writes_back_dirty_blocks_only() {
        let mut c = cache(1, 2);
        c.fill(&m(1), 0, 0, true);
        c.fill(&m(2), 0, 0, true);
        c.mark_dirty(1);
        // Filling block 3 evicts LRU block 1 (dirty).
        let wb = c.fill(&m(3), 0, 0, true);
        assert_eq!(wb, Some(Writeback { block: 1 }));
        // Filling block 4 evicts block 2 (clean).
        let wb2 = c.fill(&m(4), 0, 0, true);
        assert_eq!(wb2, None);
        assert_eq!(c.writebacks(), 1);
        assert_eq!(c.evictions(), 2, "both displacements count as evictions");
        c.reset_stats();
        assert_eq!(c.evictions(), 0);
        assert_eq!(c.writebacks(), 0);
    }

    #[test]
    fn mshr_saturation_delays_misses() {
        let mut c = Cache::new(
            CacheConfig {
                sets: 4,
                ways: 2,
                latency: 1,
                mshr_entries: 2,
            },
            Lru::new(4, 2),
        );
        assert!(matches!(c.probe(&m(1), 0, true), Probe::Miss(0)));
        c.fill(&m(1), 0, 50, true);
        assert!(matches!(c.probe(&m(2), 0, true), Probe::Miss(0)));
        c.fill(&m(2), 0, 80, true);
        // Two fills in flight: the third miss waits for the earliest (50).
        assert!(matches!(c.probe(&m(3), 10, true), Probe::Miss(50)));
    }

    #[test]
    fn prefetch_accounting() {
        let mut c = cache(4, 2);
        c.fill(&m(4), 0, 10, false); // prefetch fill
        assert_eq!(c.prefetches_issued(), 1);
        assert_eq!(c.prefetches_useful(), 0);
        assert_eq!(c.stats().accesses(), 0, "prefetches are not demand");
        // First demand touch counts the prefetch as useful.
        assert!(matches!(c.probe(&m(4), 20, true), Probe::Hit(_)));
        assert_eq!(c.prefetches_useful(), 1);
        // Second touch does not double-count.
        let _ = c.probe(&m(4), 30, true);
        assert_eq!(c.prefetches_useful(), 1);
    }

    #[test]
    fn lines_are_24_bytes() {
        // block + ready + two one-byte fields: the LLC's line array is
        // half what a whole stored CacheMeta made it.
        assert_eq!(std::mem::size_of::<Line>(), 24);
    }

    #[test]
    fn a_prefetched_lines_first_demand_hit_counts_once() {
        let mut c = cache(4, 2);
        c.fill(&m(4), 0, 10, false);
        // A second prefetch of the resident block only refreshes it.
        c.fill(&m(4), 0, 12, false);
        assert_eq!(c.prefetches_issued(), 2);
        for now in [20, 30, 40] {
            assert!(matches!(c.probe(&m(4), now, true), Probe::Hit(_)));
        }
        assert_eq!(c.prefetches_useful(), 1);
    }

    #[test]
    fn a_demand_pc_equal_to_the_old_prefetch_marker_keeps_the_line_marked() {
        // The old model marked prefetched lines by storing pc = u64::MAX
        // and counted every demand hit that found that marker; a demand
        // fill or hit carrying that PC behaved like the marker.
        let marker = CacheMeta {
            pc: u64::MAX,
            ..m(9)
        };
        let mut c = cache(4, 2);
        c.fill(&marker, 0, 0, true);
        let _ = c.probe(&m(9), 10, true);
        assert_eq!(c.prefetches_useful(), 1);
        c.fill(&m(3), 0, 0, false);
        let _ = c.probe(
            &CacheMeta {
                pc: u64::MAX,
                ..m(3)
            },
            10,
            true,
        );
        let _ = c.probe(&m(3), 20, true);
        let _ = c.probe(&m(3), 30, true);
        assert_eq!(c.prefetches_useful(), 3);
    }

    #[test]
    fn refill_of_resident_block_does_not_evict() {
        let mut c = cache(1, 2);
        c.fill(&m(1), 0, 0, true);
        c.fill(&m(2), 0, 0, true);
        c.fill(&m(1), 0, 0, true); // resident refresh
        assert!(c.contains(1) && c.contains(2));
    }

    /// A policy that violates the `victim() < ways` contract.
    #[cfg(any(debug_assertions, feature = "strict-contracts"))]
    #[derive(Debug)]
    struct OutOfRangeVictim;

    #[cfg(any(debug_assertions, feature = "strict-contracts"))]
    impl itpx_policy::Policy<CacheMeta> for OutOfRangeVictim {
        fn on_fill(&mut self, _: usize, _: usize, _: &CacheMeta) {}
        fn on_hit(&mut self, _: usize, _: usize, _: &CacheMeta) {}
        fn victim(&mut self, _: usize, _: &CacheMeta) -> usize {
            usize::MAX
        }
        fn name(&self) -> &'static str {
            "out-of-range-victim"
        }
        fn meta_bits(&self, _: usize, _: usize) -> u64 {
            0
        }
    }

    /// Debug and strict-contracts builds must catch a policy returning an
    /// out-of-range way at the eviction site (plain release builds defer
    /// to the slice bounds check).
    #[cfg(any(debug_assertions, feature = "strict-contracts"))]
    #[test]
    #[should_panic(expected = "out of range")]
    fn strict_builds_catch_out_of_range_victims() {
        let mut c = Cache::new(
            CacheConfig {
                sets: 1,
                ways: 2,
                latency: 4,
                mshr_entries: 4,
            },
            CachePolicyEngine::boxed(OutOfRangeVictim),
        );
        c.fill(&m(1), 0, 0, true);
        c.fill(&m(2), 0, 0, true);
        // The set is full: the next fill asks the policy for a victim.
        c.fill(&m(3), 0, 0, true);
    }

    #[test]
    fn reset_stats_clears_all_counters_keeps_lines() {
        let mut c = cache(1, 2);
        c.fill(&m(1), 0, 0, true);
        c.fill(&m(2), 0, 0, true);
        c.mark_dirty(1);
        c.fill(&m(3), 0, 0, true); // evicts dirty block 1
        c.fill(&m(7), 0, 10, false); // prefetch
        assert!(c.writebacks() > 0 && c.evictions() > 0 && c.prefetches_issued() > 0);
        c.reset_stats();
        assert_eq!(c.stats().accesses(), 0);
        assert_eq!(c.writebacks(), 0);
        assert_eq!(c.evictions(), 0);
        assert_eq!(c.prefetches_issued(), 0);
        assert_eq!(c.prefetches_useful(), 0);
        assert!(c.contains(3) && c.contains(7), "contents preserved");
    }

    #[test]
    fn per_class_stats() {
        let mut c = cache(4, 2);
        let pte = CacheMeta::demand(3, FillClass::DataPte);
        let _ = c.probe(&pte, 0, true);
        let b = c.stats().mpki_breakdown(1000);
        assert!(b.data_pte > 0.0);
        assert_eq!(b.instr, 0.0);
    }
}
