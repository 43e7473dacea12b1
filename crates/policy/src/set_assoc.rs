//! The storage half of a set-associative structure: entries, validity and
//! the install sequence every replacement decision plugs into.
//!
//! iTP and xPTP are decisions *inside* set-associative structures; the
//! structures themselves (TLBs, page-structure caches, caches) differ
//! only in what an entry holds and what a hit means. [`SetAssoc`] is the
//! part they share: one `sets × ways` slab on [`SetGrid`] with a validity
//! bitmask per set, the ascending-way scan, and [`SetAssoc::install`] —
//! lowest free way, else the policy's victim, then `on_evict`, write,
//! `on_fill`. The owner keeps its own timing, statistics and tag
//! semantics, and passes its policy in at each install.

use crate::traits::Policy;
use itpx_types::{SetGrid, SetMask};

/// `sets × ways` entries with per-set validity, indexed by power-of-two
/// set selection.
///
/// A slot's content is meaningful only while its validity bit is set;
/// invalidation clears the bit and leaves the stale entry and the
/// policy's metadata in place (the next install into that way rewrites
/// both, and victims are only asked for in full sets).
///
/// # Examples
///
/// ```
/// use itpx_policy::{Lru, SetAssoc, TlbMeta};
/// use itpx_types::TranslationKind;
///
/// let mut tags = SetAssoc::new(1, 2, 0u64);
/// let mut lru = Lru::new(1, 2);
/// let meta = TlbMeta::demand(0, TranslationKind::Data);
/// assert_eq!(tags.install(&mut lru, 0, 10, &meta), None);
/// assert_eq!(tags.install(&mut lru, 0, 11, &meta), None);
/// // The set is full: the policy's victim (LRU, tag 10) is displaced.
/// assert_eq!(tags.install(&mut lru, 0, 12, &meta), Some(10));
/// assert_eq!(tags.find(0, |&t| t == 11).map(|(way, _)| way), Some(1));
/// assert_eq!(tags.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct SetAssoc<E> {
    slots: SetGrid<E>,
    /// Per-set validity bitmask (bit `w` ⇔ way `w` holds an entry).
    valid: Box<[u64]>,
    /// `ways` low bits set: the mask of a fully occupied set.
    full_mask: u64,
    set_mask: SetMask,
}

/// The set bits of a way mask, lowest first.
fn ways_of(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let way = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            way
        })
    })
}

impl<E: Copy> SetAssoc<E> {
    /// Creates an empty structure; `empty` fills the slots no entry has
    /// been installed into yet (it is never read back as an entry).
    ///
    /// # Panics
    ///
    /// Panics if `sets` is zero or not a power of two, `ways` is zero, or
    /// `ways` exceeds 64 (the validity-bitmask width).
    #[inline]
    pub fn new(sets: usize, ways: usize, empty: E) -> Self {
        assert!(ways <= 64, "valid bitmask holds at most 64 ways");
        Self {
            set_mask: SetMask::new(sets),
            slots: SetGrid::new(sets, ways, empty),
            valid: vec![0; sets].into_boxed_slice(),
            full_mask: u64::MAX >> (64 - ways as u32),
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.valid.len()
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.slots.width()
    }

    /// The set an address-like key maps to (its low bits).
    #[inline]
    pub fn set_of(&self, key: u64) -> usize {
        self.set_mask.set_of(key)
    }

    /// The lowest valid way of `set` whose entry satisfies `hit`, with
    /// that entry. Ways are scanned in ascending order.
    #[inline]
    pub fn find(&self, set: usize, hit: impl Fn(&E) -> bool) -> Option<(usize, &E)> {
        let row = self.slots.row(set);
        ways_of(self.valid[set])
            .map(|way| (way, &row[way]))
            .find(|(_, e)| hit(e))
    }

    /// [`SetAssoc::find`] with the entry borrowed mutably.
    #[inline]
    pub fn find_mut(&mut self, set: usize, hit: impl Fn(&E) -> bool) -> Option<(usize, &mut E)> {
        let way = self.find(set, hit)?.0;
        Some((way, &mut self.slots.row_mut(set)[way]))
    }

    /// Installs `entry` into `set`: into its lowest free way, or else over
    /// the victim `policy` picks for `meta`, whose `on_evict` runs before
    /// the write and `on_fill` after it. Returns the displaced entry.
    ///
    /// The caller decides residency first; install never scans the set.
    /// An in-range victim is the policy contract (checked for every
    /// in-tree policy by the `CheckedPolicy` drives): debug builds and
    /// the `strict-contracts` feature assert it here, and a release
    /// build still cannot write outside the set, since the row access
    /// bounds-checks.
    #[inline]
    pub fn install<M, P: Policy<M> + ?Sized>(
        &mut self,
        policy: &mut P,
        set: usize,
        entry: E,
        meta: &M,
    ) -> Option<E> {
        let free = !self.valid[set] & self.full_mask;
        let (way, displaced) = if free != 0 {
            (free.trailing_zeros() as usize, None)
        } else {
            let v = policy.victim(set, meta);
            #[cfg(feature = "strict-contracts")]
            assert!(v < self.ways(), "policy returned way out of range");
            #[cfg(not(feature = "strict-contracts"))]
            debug_assert!(v < self.ways(), "policy returned way out of range");
            let old = self.slots.row(set)[v];
            policy.on_evict(set, v);
            (v, Some(old))
        };
        self.valid[set] |= 1 << way;
        self.slots.row_mut(set)[way] = entry;
        policy.on_fill(set, way, meta);
        displaced
    }

    /// Invalidates every entry of `set` for which `keep` is false.
    pub fn retain_set(&mut self, set: usize, mut keep: impl FnMut(&E) -> bool) {
        let row = self.slots.row(set);
        let dropped = ways_of(self.valid[set])
            .filter(|&way| !keep(&row[way]))
            .fold(0, |mask, way| mask | 1 << way);
        self.valid[set] &= !dropped;
    }

    /// Invalidates every entry for which `keep` is false.
    pub fn retain(&mut self, mut keep: impl FnMut(&E) -> bool) {
        for set in 0..self.sets() {
            self.retain_set(set, &mut keep);
        }
    }

    /// Calls `f` on every valid entry, in set order and ascending ways
    /// within a set.
    pub fn for_each_mut(&mut self, mut f: impl FnMut(&mut E)) {
        for set in 0..self.sets() {
            let valid = self.valid[set];
            let row = self.slots.row_mut(set);
            ways_of(valid).for_each(|way| f(&mut row[way]));
        }
    }

    /// Number of valid entries.
    pub fn len(&self) -> usize {
        self.valid.iter().map(|v| v.count_ones() as usize).sum()
    }

    /// Whether no entry is valid.
    pub fn is_empty(&self) -> bool {
        self.valid.iter().all(|&v| v == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Lru, TlbMeta};
    use itpx_types::TranslationKind;

    fn meta() -> TlbMeta {
        TlbMeta::demand(0, TranslationKind::Data)
    }

    #[test]
    fn installs_take_the_lowest_free_way_before_asking_for_a_victim() {
        let mut sa = SetAssoc::new(2, 4, 0u64);
        let mut lru = Lru::new(2, 4);
        for tag in 1..=4 {
            assert_eq!(sa.install(&mut lru, 1, tag, &meta()), None);
        }
        sa.retain_set(1, |&t| t != 2);
        assert_eq!(sa.install(&mut lru, 1, 5, &meta()), None);
        assert_eq!(sa.find(1, |&t| t == 5).map(|(w, _)| w), Some(1));
        // Full again: LRU (tag 1, way 0) goes.
        assert_eq!(sa.install(&mut lru, 1, 6, &meta()), Some(1));
        assert_eq!(sa.find(1, |&t| t == 6).map(|(w, _)| w), Some(0));
        assert_eq!(sa.len(), 4);
        assert!(sa.find(0, |_| true).is_none(), "set 0 untouched");
    }

    #[test]
    fn visits_are_set_major_with_ascending_ways() {
        let mut sa = SetAssoc::new(4, 2, 0u64);
        let mut lru = Lru::new(4, 2);
        for (set, tag) in [(2, 20), (0, 1), (2, 21), (0, 2), (3, 30)] {
            sa.install(&mut lru, set, tag, &meta());
        }
        let entries = |sa: &mut SetAssoc<u64>| {
            let mut all = Vec::new();
            sa.for_each_mut(|t| all.push(*t));
            all
        };
        assert_eq!(entries(&mut sa), vec![1, 2, 20, 21, 30]);
        sa.retain(|&t| t % 2 == 0);
        assert_eq!(entries(&mut sa), vec![2, 20, 30]);
        sa.for_each_mut(|t| *t += 1);
        assert_eq!(sa.find(2, |_| true), Some((0, &21)));
        sa.retain(|_| false);
        assert!(sa.is_empty());
    }

    #[test]
    fn find_mut_edits_in_place() {
        let mut sa = SetAssoc::new(1, 2, (0u64, false));
        let mut lru = Lru::new(1, 2);
        sa.install(&mut lru, 0, (7, false), &meta());
        if let Some((_, e)) = sa.find_mut(0, |e| e.0 == 7) {
            e.1 = true;
        }
        assert_eq!(sa.find(0, |e| e.0 == 7), Some((0, &(7, true))));
    }

    #[test]
    #[should_panic(expected = "at most 64 ways")]
    fn more_than_64_ways_panics() {
        let _ = SetAssoc::new(1, 65, 0u8);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_panic() {
        let _ = SetAssoc::new(3, 2, 0u8);
    }
}
