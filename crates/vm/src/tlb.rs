//! Set-associative TLBs with pluggable replacement and MSHR `Type` bits.
//!
//! One [`Tlb`] models any level (ITLB, DTLB, STLB). Entries for 4 KiB and
//! 2 MiB pages coexist in the same structure (both VPN granularities are
//! probed on lookup). Misses are tracked in an MSHR-like table that carries
//! the paper's per-entry `Type` bit — the translation kind of the miss —
//! so the iTP insertion at walk completion knows what it is inserting
//! (Figure 7, steps 2 and 4).
//!
//! [`LastLevelTlb`] provides the unified vs split STLB organizations
//! compared in Section 6.6.

use crate::page_table::Translation;
use itpx_policy::{Policy, SetAssoc, TlbMeta, TlbPolicyEngine};
use itpx_types::fingerprint::{Fingerprint, Fnv1a};
use itpx_types::{
    Asid, Cycle, FillClass, PageSize, PhysAddr, SlotPool, StructStats, ThreadId, TranslationKind,
    VirtAddr,
};

/// Geometry and timing of one TLB level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Number of sets.
    pub sets: usize,
    /// Associativity: at most 16 under an LRU-family policy, whose
    /// recency stack holds 16 ways (`RecencyStack::MAX_WAYS`). The ITLB
    /// and DTLB always run LRU, so `SystemConfig::validate` enforces it
    /// there.
    pub ways: usize,
    /// Lookup latency in cycles.
    pub latency: u64,
    /// Miss-status-holding-register capacity.
    pub mshr_entries: usize,
}

impl TlbConfig {
    /// Total entry count.
    pub fn entries(&self) -> usize {
        self.sets * self.ways
    }
}

impl Fingerprint for TlbConfig {
    fn fingerprint(&self, h: &mut Fnv1a) {
        h.write_usize(self.sets);
        h.write_usize(self.ways);
        h.write_u64(self.latency);
        h.write_usize(self.mshr_entries);
    }
}

/// A resident translation. The warm path hands a hit entry from one
/// TLB level to the fill of the next ([`Tlb::warm_lookup`],
/// [`Tlb::warm_fill`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Entry {
    vpn: u64,
    size: PageSize,
    frame: PhysAddr,
    /// Address-space tag of the installing fill. Lookups require
    /// [`Asid::matches`] against the structure's current ASID; global
    /// entries match every space.
    asid: Asid,
    /// Cycle at which the entry's fill completes; lookups before this wait
    /// for it (the timing an MSHR merge produces).
    ready: Cycle,
}

impl Entry {
    /// The entry a warm fill installs for `tr`: usable at once.
    pub(crate) fn warm(tr: &Translation) -> Self {
        Self {
            vpn: tr.vpn,
            size: tr.size,
            frame: tr.frame,
            asid: tr.asid,
            ready: 0,
        }
    }

    /// The physical address of `va`, which the entry translates.
    pub(crate) fn pa(&self, va: VirtAddr) -> PhysAddr {
        self.frame.offset(va.page_offset(self.size))
    }
}

#[derive(Debug, Clone, Copy)]
struct Mshr {
    ready: Cycle,
    /// The paper's 1-bit `Type` field per TLB MSHR entry.
    kind: TranslationKind,
}

/// Result of a TLB lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlbLookup {
    /// The translation was resident; the access completes at `done`.
    Hit {
        /// Cycle at which the translated access may proceed.
        done: Cycle,
        /// Physical frame base.
        frame: PhysAddr,
        /// Page size of the hit entry.
        size: PageSize,
    },
    /// Not resident; the caller must consult the next level / walker and
    /// then call [`Tlb::fill`].
    Miss,
}

/// One set-associative TLB level.
///
/// Entries live in a [`SetAssoc`] (one flat slab with per-set validity
/// bitmasks, shared with the caches and page-structure caches): TLB
/// probes run on every simulated memory reference, and the flat layout
/// keeps that path to one indirection.
#[derive(Debug)]
pub struct Tlb {
    cfg: TlbConfig,
    entries: SetAssoc<Entry>,
    /// Enum-dispatched so the per-access `on_hit`/`victim`/`on_fill`
    /// calls inline instead of going through a vtable.
    policy: TlbPolicyEngine,
    /// The address space lookups currently run under. Single-tenant
    /// simulations never move it off [`Asid::KERNEL`].
    current: Asid,
    stats: StructStats,
    /// In-flight misses keyed by 4 KiB VPN (keys unique, lazy-cleaned).
    /// Consumers only take order-insensitive views (key lookup, `retain`,
    /// minimum completion time), so slot order never affects results.
    outstanding: SlotPool<(u64, Mshr)>,
}

impl Tlb {
    /// Creates a TLB with the given geometry and replacement policy.
    ///
    /// Any in-tree policy converts into [`TlbPolicyEngine`] directly
    /// (`Lru::new(..)`, boxed trait objects, or an explicit engine all
    /// work); out-of-tree policies go through [`TlbPolicyEngine::boxed`].
    ///
    /// # Panics
    ///
    /// Panics if the set count is not a power of two, the associativity
    /// is zero or exceeds 64 (the validity-bitmask width), or there is no
    /// MSHR.
    pub fn new(cfg: TlbConfig, policy: impl Into<TlbPolicyEngine>) -> Self {
        assert!(cfg.mshr_entries > 0, "TLB needs at least one MSHR");
        let empty = Entry {
            vpn: 0,
            size: PageSize::Base4K,
            frame: PhysAddr::new(0),
            asid: Asid::KERNEL,
            ready: 0,
        };
        Self {
            entries: SetAssoc::new(cfg.sets, cfg.ways, empty),
            policy: policy.into(),
            current: Asid::KERNEL,
            stats: StructStats::new(),
            outstanding: SlotPool::with_capacity(cfg.mshr_entries),
            cfg,
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> &TlbConfig {
        &self.cfg
    }

    /// Access/miss statistics (instruction vs data translations are the
    /// `instr`/`data` classes of the breakdown).
    pub fn stats(&self) -> &StructStats {
        &self.stats
    }

    fn stat_class(kind: TranslationKind) -> FillClass {
        match kind {
            TranslationKind::Instruction => FillClass::InstrPayload,
            TranslationKind::Data => FillClass::DataPayload,
        }
    }

    /// The `(set, way)` and entry holding `(vpn, size)` visible under
    /// `asid`, if any. Visibility is [`Asid::matches`]: an exact tag match
    /// or a global entry. Because a page's globality is a pure function
    /// of its virtual address, a global and a tenant-tagged entry for the
    /// same `(vpn, size)` never coexist, so the scan order cannot change
    /// which entry is found.
    fn find(&self, vpn: u64, size: PageSize, asid: Asid) -> Option<(usize, usize, &Entry)> {
        let set = self.entries.set_of(vpn);
        self.entries
            .find(set, |e| {
                e.vpn == vpn && e.size == size && e.asid.matches(asid)
            })
            .map(|(way, e)| (set, way, e))
    }

    fn meta(&self, vpn: u64, pc: u64, kind: TranslationKind, thread: ThreadId) -> TlbMeta {
        TlbMeta {
            vpn,
            pc,
            kind,
            thread,
        }
    }

    /// The entry translating `va` under the current ASID, probing 4 KiB
    /// then 2 MiB, with its page size. A hit runs the policy's hit hook;
    /// nothing is timed or counted.
    #[inline]
    fn hit(
        &mut self,
        va: VirtAddr,
        kind: TranslationKind,
        pc: u64,
        thread: ThreadId,
    ) -> Option<(Entry, PageSize)> {
        for size in [PageSize::Base4K, PageSize::Huge2M] {
            let vpn = va.vpn(size).0;
            if let Some((set, way, &e)) = self.find(vpn, size, self.current) {
                let meta = self.meta(vpn, pc, kind, thread);
                self.policy.on_hit(set, way, &meta);
                return Some((e, size));
            }
        }
        None
    }

    /// Looks up `va`, charging the access latency. Records statistics.
    #[inline]
    pub fn lookup(
        &mut self,
        va: VirtAddr,
        kind: TranslationKind,
        pc: u64,
        thread: ThreadId,
        now: Cycle,
    ) -> TlbLookup {
        let hit = self.hit(va, kind, pc, thread);
        self.stats.record(Self::stat_class(kind), hit.is_none());
        match hit {
            Some((e, size)) => TlbLookup::Hit {
                done: (now + self.cfg.latency).max(e.ready),
                frame: e.frame,
                size,
            },
            None => TlbLookup::Miss,
        }
    }

    /// [`Tlb::lookup`] on a fast-forward's warm path: the same policy
    /// hook on a hit, no time and no statistics. Returns the entry that
    /// translates `va` on a hit.
    #[inline]
    pub(crate) fn warm_lookup(
        &mut self,
        va: VirtAddr,
        kind: TranslationKind,
        pc: u64,
        thread: ThreadId,
    ) -> Option<Entry> {
        self.hit(va, kind, pc, thread).map(|(e, _)| e)
    }

    /// If a miss for the page containing `va` is already outstanding,
    /// returns the cycle its walk completes (MSHR merge).
    #[inline]
    pub fn merge(&mut self, va: VirtAddr, now: Cycle) -> Option<Cycle> {
        let key = va.vpn(PageSize::Base4K).0;
        match self.outstanding.find(|(k, _)| *k == key) {
            Some((_, m)) if m.ready > now => Some(m.ready),
            _ => None,
        }
    }

    /// Allocates an MSHR for the miss, returning the cycle at which the
    /// allocation succeeds (delayed past `now` if all MSHRs are busy).
    /// The `Type` bit of the miss is stored alongside.
    #[inline]
    pub fn mshr_alloc(&mut self, va: VirtAddr, kind: TranslationKind, now: Cycle) -> Cycle {
        let key = va.vpn(PageSize::Base4K).0;
        // Retire completed entries.
        self.outstanding.retain(|(_, m)| m.ready > now);
        let start = if self.outstanding.len() >= self.cfg.mshr_entries {
            // Wait for the earliest in-flight miss to free its register.
            self.outstanding
                .iter()
                .map(|(_, m)| m.ready)
                .min()
                .unwrap_or(now)
                .max(now)
        } else {
            now
        };
        let mshr = Mshr {
            ready: Cycle::MAX,
            kind,
        };
        // Keys are unique: re-allocating an outstanding VPN overwrites its
        // entry, as a keyed map's insert would.
        match self.outstanding.find_mut(|(k, _)| *k == key) {
            Some(e) => e.1 = mshr,
            None => self.outstanding.insert((key, mshr)),
        }
        start
    }

    /// The `Type` bit stored for an outstanding miss.
    pub fn mshr_kind(&self, va: VirtAddr) -> Option<TranslationKind> {
        let key = va.vpn(PageSize::Base4K).0;
        self.outstanding
            .find(|(k, _)| *k == key)
            .map(|(_, m)| m.kind)
    }

    /// Completes the MSHR for `va`: later merged requests observe `ready`.
    pub fn mshr_complete(&mut self, va: VirtAddr, ready: Cycle) {
        let key = va.vpn(PageSize::Base4K).0;
        if let Some((_, m)) = self.outstanding.find_mut(|(k, _)| *k == key) {
            m.ready = ready;
        }
    }

    /// Completes a miss end-to-end: installs `tr` (recording `done -
    /// issued` as the miss latency) and releases the MSHR allocated for
    /// `va` at cycle `done`. One call per miss resolution, whatever
    /// supplied the translation (STLB hit, merged walk, or a fresh walk).
    #[allow(clippy::too_many_arguments)]
    pub fn fill_and_complete(
        &mut self,
        tr: &Translation,
        kind: TranslationKind,
        pc: u64,
        thread: ThreadId,
        va: VirtAddr,
        issued: Cycle,
        done: Cycle,
    ) {
        self.fill(
            tr.vpn,
            tr.size,
            tr.frame,
            kind,
            tr.asid,
            pc,
            thread,
            done - issued,
            done,
        );
        self.mshr_complete(va, done);
    }

    /// Installs a translation, evicting per the policy if the set is full,
    /// and records the end-to-end miss latency. The entry becomes usable at
    /// `ready`; lookups before that cycle wait for it. `asid` is the tag
    /// the entry is installed under ([`Asid::GLOBAL`] for mappings shared
    /// by every address space).
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn fill(
        &mut self,
        vpn: u64,
        size: PageSize,
        frame: PhysAddr,
        kind: TranslationKind,
        asid: Asid,
        pc: u64,
        thread: ThreadId,
        miss_latency: u64,
        ready: Cycle,
    ) {
        self.stats.record_miss_latency(miss_latency);
        let entry = Entry {
            vpn,
            size,
            frame,
            asid,
            ready,
        };
        self.place(entry, kind, pc, thread);
    }

    /// [`Tlb::fill`] on a fast-forward's warm path, right after a
    /// [`Tlb::warm_lookup`] of the same page missed: the same policy
    /// hooks, no miss latency recorded, and the entry is usable at once.
    ///
    /// `e` is tagged with the current ASID or [`Asid::GLOBAL`], both of
    /// which the missed lookup matched, and nothing touched this level
    /// since, so `e` is absent and [`Tlb::place`]'s residency scan is
    /// skipped. Debug and `strict-contracts` builds check that.
    #[inline]
    pub(crate) fn warm_fill(&mut self, e: Entry, kind: TranslationKind, pc: u64, thread: ThreadId) {
        if cfg!(any(debug_assertions, feature = "strict-contracts")) {
            assert!(
                self.find(e.vpn, e.size, e.asid).is_none(),
                "warm fill of a resident entry"
            );
        }
        let meta = self.meta(e.vpn, pc, kind, thread);
        let set = self.entries.set_of(e.vpn);
        self.entries
            .install(&mut self.policy, set, Entry { ready: 0, ..e }, &meta);
    }

    /// Installs `e` under the policy, or, when `(vpn, size)` is already
    /// resident under its tag (filled by a merged miss), only refreshes
    /// the resident entry's recency. Probing with the installing tag is
    /// an exact-tag residence check: the never-both invariant (see
    /// [`Tlb::find`]) rules out a global entry shadowing a tenant fill or
    /// vice versa.
    fn place(&mut self, e: Entry, kind: TranslationKind, pc: u64, thread: ThreadId) {
        let meta = self.meta(e.vpn, pc, kind, thread);
        match self.find(e.vpn, e.size, e.asid) {
            Some((set, way, _)) => self.policy.on_hit(set, way, &meta),
            None => {
                let set = self.entries.set_of(e.vpn);
                self.entries.install(&mut self.policy, set, e, &meta);
            }
        }
    }

    /// The settle step at the end of a fast-forward: drops every
    /// in-flight miss and makes every entry usable at once, so the next
    /// window starts with no work left from the previous one.
    pub(crate) fn settle(&mut self) {
        self.outstanding.retain(|_| false);
        self.entries.for_each_mut(|e| e.ready = 0);
    }

    /// The address space lookups currently run under.
    pub fn current_asid(&self) -> Asid {
        self.current
    }

    /// Retargets lookups to `asid` (a context switch). Entries are left
    /// in place — pair with [`Tlb::flush_asid`] for flushing switches.
    // itpx-allow: hot-inline per context switch, not per access
    pub fn set_current_asid(&mut self, asid: Asid) {
        self.current = asid;
    }

    /// Invalidates every entry tagged exactly `asid` (a flushing context
    /// switch). Global entries are exempt by construction — they carry
    /// the [`Asid::GLOBAL`] tag, which no tenant flush names. Replacement
    /// metadata of the freed ways goes stale but is rewritten by the next
    /// fill into each way, and victims are only chosen from full sets, so
    /// eviction order among live entries is unaffected. In-flight MSHRs
    /// are untouched: a walk already in progress completes and installs
    /// under the tag captured at fill time.
    // itpx-allow: hot-inline per context switch, not per access
    pub fn flush_asid(&mut self, asid: Asid) {
        self.entries.retain(|e| e.asid != asid);
    }

    /// Targeted shootdown: invalidates any entry translating `va` under
    /// exactly `asid`, probing both page-size granularities.
    // itpx-allow: hot-inline per TLB shootdown, not per access
    pub fn invalidate_page(&mut self, va: VirtAddr, asid: Asid) {
        for size in [PageSize::Base4K, PageSize::Huge2M] {
            let vpn = va.vpn(size).0;
            let set = self.entries.set_of(vpn);
            self.entries
                .retain_set(set, |e| !(e.vpn == vpn && e.size == size && e.asid == asid));
        }
    }

    /// Invalidates every entry (any tag) whose page lies inside the 2 MiB
    /// region `region_vpn2m` — the TLB half of a huge-page promotion or
    /// demotion, which changes the region's translations wholesale.
    // itpx-allow: hot-inline per region churn event, not per access
    pub fn invalidate_region(&mut self, region_vpn2m: u64) {
        self.entries.retain(|e| match e.size {
            PageSize::Base4K => e.vpn >> 9 != region_vpn2m,
            PageSize::Huge2M => e.vpn != region_vpn2m,
        });
    }

    /// Clears statistics (entries and replacement state are preserved).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Number of resident entries.
    pub fn resident_count(&self) -> usize {
        self.entries.len()
    }

    /// Whether a translation for `va` at `size` is visible under the
    /// current ASID.
    // itpx-allow: hot-inline only tests and the difftest call it; the hot edge is a name collision with the functional reference's `contains`
    pub fn contains(&self, va: VirtAddr, size: PageSize) -> bool {
        self.find(va.vpn(size).0, size, self.current).is_some()
    }

    /// Whether a translation for `va` at `size` tagged `asid` is resident
    /// (exact tag under the never-both invariant, regardless of the
    /// current ASID).
    pub fn contains_tagged(&self, va: VirtAddr, size: PageSize, asid: Asid) -> bool {
        self.find(va.vpn(size).0, size, asid).is_some()
    }
}

/// Last-level TLB organization: the unified design the paper optimizes, or
/// the split design it compares against in Section 6.6.
// `Tlb` holds its policy engine inline, so `Split` is two engines wide.
// A construct-once singleton on the per-access path: keeping both halves
// inline beats boxing them behind a pointer chase.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum LastLevelTlb {
    /// One shared structure for instruction and data translations.
    Unified(Tlb),
    /// Separate instruction and data STLBs.
    Split {
        /// Instruction-translation STLB.
        instr: Tlb,
        /// Data-translation STLB.
        data: Tlb,
    },
}

impl LastLevelTlb {
    /// The structure responsible for `kind` translations.
    pub fn for_kind(&mut self, kind: TranslationKind) -> &mut Tlb {
        match self {
            LastLevelTlb::Unified(t) => t,
            LastLevelTlb::Split { instr, data } => match kind {
                TranslationKind::Instruction => instr,
                TranslationKind::Data => data,
            },
        }
    }

    /// The member structures: one unified STLB, or the instruction then
    /// the data half of a split one.
    fn members(&self) -> impl Iterator<Item = &Tlb> {
        let (first, second) = match self {
            LastLevelTlb::Unified(t) => (t, None),
            LastLevelTlb::Split { instr, data } => (instr, Some(data)),
        };
        std::iter::once(first).chain(second)
    }

    fn members_mut(&mut self) -> impl Iterator<Item = &mut Tlb> {
        let (first, second) = match self {
            LastLevelTlb::Unified(t) => (t, None),
            LastLevelTlb::Split { instr, data } => (instr, Some(data)),
        };
        std::iter::once(first).chain(second)
    }

    /// Aggregated statistics across the organization.
    pub fn stats(&self) -> StructStats {
        let mut s = StructStats::new();
        for t in self.members() {
            s.merge(t.stats());
        }
        s
    }

    /// Clears statistics on every member structure.
    pub fn reset_stats(&mut self) {
        self.members_mut().for_each(Tlb::reset_stats);
    }

    /// Total entries across the organization.
    pub fn entries(&self) -> usize {
        self.members().map(|t| t.config().entries()).sum()
    }

    /// Retargets lookups in every member structure (a context switch).
    // itpx-allow: hot-inline per context switch, not per access
    pub fn set_current_asid(&mut self, asid: Asid) {
        self.members_mut().for_each(|t| t.set_current_asid(asid));
    }

    /// Flushes `asid`-tagged entries from every member structure.
    // itpx-allow: hot-inline per context switch, not per access
    pub fn flush_asid(&mut self, asid: Asid) {
        self.members_mut().for_each(|t| t.flush_asid(asid));
    }

    /// Targeted shootdown across every member structure.
    // itpx-allow: hot-inline per TLB shootdown, not per access
    pub fn invalidate_page(&mut self, va: VirtAddr, asid: Asid) {
        self.members_mut().for_each(|t| t.invalidate_page(va, asid));
    }

    /// Invalidates a 2 MiB region in every member structure (huge-page
    /// promotion/demotion churn).
    // itpx-allow: hot-inline per region churn event, not per access
    pub fn invalidate_region(&mut self, region_vpn2m: u64) {
        self.members_mut()
            .for_each(|t| t.invalidate_region(region_vpn2m));
    }

    /// [`Tlb::settle`] on every member structure.
    pub(crate) fn settle(&mut self) {
        self.members_mut().for_each(Tlb::settle);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itpx_policy::Lru;

    fn cfg() -> TlbConfig {
        TlbConfig {
            sets: 16,
            ways: 4,
            latency: 1,
            mshr_entries: 8,
        }
    }

    fn tlb() -> Tlb {
        Tlb::new(cfg(), Lru::new(16, 4))
    }

    fn fill4k(t: &mut Tlb, va: VirtAddr, frame: u64) {
        t.fill(
            va.vpn(PageSize::Base4K).0,
            PageSize::Base4K,
            PhysAddr::new(frame),
            TranslationKind::Data,
            Asid::KERNEL,
            0,
            ThreadId(0),
            10,
            0,
        );
    }

    fn fill4k_tagged(t: &mut Tlb, va: VirtAddr, frame: u64, asid: Asid) {
        t.fill(
            va.vpn(PageSize::Base4K).0,
            PageSize::Base4K,
            PhysAddr::new(frame),
            TranslationKind::Data,
            asid,
            0,
            ThreadId(0),
            10,
            0,
        );
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut t = tlb();
        let va = VirtAddr::new(0x1234_5678);
        assert_eq!(
            t.lookup(va, TranslationKind::Data, 0, ThreadId(0), 0),
            TlbLookup::Miss
        );
        fill4k(&mut t, va, 0xaaaa_0000);
        match t.lookup(va, TranslationKind::Data, 0, ThreadId(0), 5) {
            TlbLookup::Hit { done, frame, size } => {
                assert_eq!(done, 6); // latency 1
                assert_eq!(frame.0, 0xaaaa_0000);
                assert_eq!(size, PageSize::Base4K);
            }
            other => panic!("expected hit, got {other:?}"),
        }
        assert_eq!(t.stats().misses(), 1);
        assert_eq!(t.stats().accesses(), 2);
    }

    #[test]
    fn huge_page_hits_via_2m_vpn() {
        let mut t = tlb();
        let base = VirtAddr::new(0x4000_0000);
        t.fill(
            base.vpn(PageSize::Huge2M).0,
            PageSize::Huge2M,
            PhysAddr::new(0x8000_0000),
            TranslationKind::Data,
            Asid::KERNEL,
            0,
            ThreadId(0),
            10,
            0,
        );
        // Any address inside the 2 MiB region hits.
        let inside = VirtAddr::new(0x4000_0000 + 0x12_3456);
        assert!(matches!(
            t.lookup(inside, TranslationKind::Data, 0, ThreadId(0), 0),
            TlbLookup::Hit {
                size: PageSize::Huge2M,
                ..
            }
        ));
    }

    #[test]
    fn eviction_follows_policy() {
        let mut t = tlb();
        // Fill one set (vpn ≡ 0 mod 16) beyond capacity.
        for i in 0..5u64 {
            fill4k(&mut t, VirtAddr::new(i * 16 * 4096), i + 1);
        }
        // The first-filled entry (LRU) must be gone.
        assert!(!t.contains(VirtAddr::new(0), PageSize::Base4K));
        assert!(t.contains(VirtAddr::new(4 * 16 * 4096), PageSize::Base4K));
    }

    #[test]
    fn mshr_merge_returns_ready_cycle() {
        let mut t = tlb();
        let va = VirtAddr::new(0x7000);
        assert_eq!(t.merge(va, 0), None);
        let start = t.mshr_alloc(va, TranslationKind::Instruction, 10);
        assert_eq!(start, 10);
        assert_eq!(t.mshr_kind(va), Some(TranslationKind::Instruction));
        t.mshr_complete(va, 150);
        assert_eq!(t.merge(va, 20), Some(150));
        // After completion time passes, the entry no longer merges.
        assert_eq!(t.merge(va, 151), None);
    }

    #[test]
    fn mshr_capacity_delays_allocation() {
        let mut t = Tlb::new(
            TlbConfig {
                sets: 4,
                ways: 2,
                latency: 1,
                mshr_entries: 2,
            },
            Lru::new(4, 2),
        );
        let a = VirtAddr::new(0x1000);
        let b = VirtAddr::new(0x2000);
        let c = VirtAddr::new(0x3000);
        t.mshr_alloc(a, TranslationKind::Data, 0);
        t.mshr_complete(a, 100);
        t.mshr_alloc(b, TranslationKind::Data, 0);
        t.mshr_complete(b, 200);
        // Both MSHRs busy at cycle 10: the new miss waits for the earliest.
        let start = t.mshr_alloc(c, TranslationKind::Data, 10);
        assert_eq!(start, 100);
    }

    #[test]
    fn fill_of_resident_entry_does_not_duplicate() {
        let mut t = tlb();
        let va = VirtAddr::new(0x9000);
        fill4k(&mut t, va, 0x1);
        fill4k(&mut t, va, 0x1);
        // Still resident and set not polluted: other ways still free for
        // three more distinct pages without evicting it.
        for i in 1..4u64 {
            fill4k(&mut t, VirtAddr::new(0x9000 + i * 16 * 4096), i);
        }
        assert!(t.contains(va, PageSize::Base4K));
    }

    #[test]
    fn split_stlb_routes_by_kind() {
        let mk = || Tlb::new(cfg(), Lru::new(16, 4));
        let mut s = LastLevelTlb::Split {
            instr: mk(),
            data: mk(),
        };
        let va = VirtAddr::new(0x5000);
        s.for_kind(TranslationKind::Instruction).fill(
            va.vpn(PageSize::Base4K).0,
            PageSize::Base4K,
            PhysAddr::new(0x1000),
            TranslationKind::Instruction,
            Asid::KERNEL,
            0,
            ThreadId(0),
            1,
            0,
        );
        assert!(s
            .for_kind(TranslationKind::Instruction)
            .contains(va, PageSize::Base4K));
        assert!(!s
            .for_kind(TranslationKind::Data)
            .contains(va, PageSize::Base4K));
        assert_eq!(s.entries(), 128);
    }

    /// A policy that violates the `victim() < ways` contract.
    #[cfg(any(debug_assertions, feature = "strict-contracts"))]
    #[derive(Debug)]
    struct OutOfRangeVictim;

    #[cfg(any(debug_assertions, feature = "strict-contracts"))]
    impl itpx_policy::Policy<TlbMeta> for OutOfRangeVictim {
        fn on_fill(&mut self, _: usize, _: usize, _: &TlbMeta) {}
        fn on_hit(&mut self, _: usize, _: usize, _: &TlbMeta) {}
        fn victim(&mut self, _: usize, _: &TlbMeta) -> usize {
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
        let mut t = Tlb::new(
            TlbConfig {
                sets: 1,
                ways: 2,
                latency: 1,
                mshr_entries: 2,
            },
            TlbPolicyEngine::boxed(OutOfRangeVictim),
        );
        for i in 0..3u64 {
            // Three distinct pages into a 2-way single set: the third
            // fill asks the policy for a victim.
            fill4k(&mut t, VirtAddr::new(i * 4096), i + 1);
        }
    }

    #[test]
    fn reset_stats_clears_stats_keeps_entries() {
        let mut t = tlb();
        let va = VirtAddr::new(0x1234_5678);
        let _ = t.lookup(va, TranslationKind::Data, 0, ThreadId(0), 0);
        fill4k(&mut t, va, 0x1);
        assert!(t.stats().accesses() > 0);
        t.reset_stats();
        assert_eq!(t.stats().accesses(), 0);
        assert!(t.contains(va, PageSize::Base4K));
    }

    #[test]
    fn asid_tag_gates_hits_and_global_entries_are_exempt() {
        let mut t = tlb();
        let va = VirtAddr::new(0x1000);
        let shared = VirtAddr::new(0x2000);
        fill4k_tagged(&mut t, va, 0x1, Asid(1));
        fill4k_tagged(&mut t, shared, 0x2, Asid::GLOBAL);
        // Current ASID is KERNEL (0): the tenant-1 entry is invisible,
        // the global one hits.
        assert!(!t.contains(va, PageSize::Base4K));
        assert!(t.contains(shared, PageSize::Base4K));
        t.set_current_asid(Asid(1));
        assert!(t.contains(va, PageSize::Base4K));
        assert!(t.contains(shared, PageSize::Base4K));
        assert!(matches!(
            t.lookup(va, TranslationKind::Data, 0, ThreadId(0), 0),
            TlbLookup::Hit { .. }
        ));
        t.set_current_asid(Asid(2));
        assert_eq!(
            t.lookup(va, TranslationKind::Data, 0, ThreadId(0), 0),
            TlbLookup::Miss
        );
    }

    #[test]
    fn flush_asid_spares_other_tenants_and_globals() {
        let mut t = tlb();
        fill4k_tagged(&mut t, VirtAddr::new(0x1000), 0x1, Asid(1));
        fill4k_tagged(&mut t, VirtAddr::new(0x2000), 0x2, Asid(2));
        fill4k_tagged(&mut t, VirtAddr::new(0x3000), 0x3, Asid::GLOBAL);
        t.flush_asid(Asid(1));
        assert!(!t.contains_tagged(VirtAddr::new(0x1000), PageSize::Base4K, Asid(1)));
        assert!(t.contains_tagged(VirtAddr::new(0x2000), PageSize::Base4K, Asid(2)));
        assert!(t.contains_tagged(VirtAddr::new(0x3000), PageSize::Base4K, Asid::GLOBAL));
        assert_eq!(t.resident_count(), 2);
    }

    #[test]
    fn invalidate_page_is_exact_by_va_and_asid() {
        let mut t = tlb();
        let va = VirtAddr::new(0x5000);
        fill4k_tagged(&mut t, va, 0x1, Asid(1));
        fill4k_tagged(&mut t, va, 0x2, Asid(2));
        t.invalidate_page(va, Asid(1));
        assert!(!t.contains_tagged(va, PageSize::Base4K, Asid(1)));
        assert!(t.contains_tagged(va, PageSize::Base4K, Asid(2)));
    }

    #[test]
    fn invalidate_region_drops_both_granularities() {
        let mut t = tlb();
        let region = VirtAddr::new(0x4000_0000);
        t.fill(
            region.vpn(PageSize::Huge2M).0,
            PageSize::Huge2M,
            PhysAddr::new(0x8000_0000),
            TranslationKind::Data,
            Asid::KERNEL,
            0,
            ThreadId(0),
            1,
            0,
        );
        fill4k(&mut t, VirtAddr::new(0x4000_1000), 0x9);
        fill4k(&mut t, VirtAddr::new(0x5000_0000), 0xa); // outside region
        t.invalidate_region(region.vpn(PageSize::Huge2M).0);
        assert!(!t.contains(region, PageSize::Huge2M));
        assert!(!t.contains(VirtAddr::new(0x4000_1000), PageSize::Base4K));
        assert!(t.contains(VirtAddr::new(0x5000_0000), PageSize::Base4K));
    }

    #[test]
    fn stats_split_by_translation_kind() {
        let mut t = tlb();
        let _ = t.lookup(
            VirtAddr::new(0x1000),
            TranslationKind::Instruction,
            0,
            ThreadId(0),
            0,
        );
        let _ = t.lookup(
            VirtAddr::new(0x2000),
            TranslationKind::Data,
            0,
            ThreadId(0),
            0,
        );
        let b = t.stats().mpki_breakdown(1000);
        assert!(b.instr > 0.0 && b.data > 0.0);
        assert_eq!(t.stats().misses(), 2);
    }
}
