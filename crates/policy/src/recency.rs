//! A true recency stack, the substrate for every LRU-family policy.
//!
//! The paper describes iTP and xPTP in terms of *positions in the LRU
//! recency stack* (`MRUpos`, `LRUpos`, "insert at `MRUpos - N`", "promote to
//! `LRUpos + M`"). [`RecencyStack`] models exactly that: each set keeps an
//! explicit ordering of its ways from most- to least-recently used, and
//! policies manipulate positions directly.

use itpx_types::SetGrid;

/// Explicit per-set MRU→LRU orderings of ways.
///
/// *Depth* is measured from the top: depth 0 is `MRUpos`, depth
/// `ways - 1` is `LRUpos`. *Height* is measured from the bottom:
/// height 0 is `LRUpos`. The paper's `MRUpos - N` is depth `N`; the paper's
/// `LRUpos + M` is height `M`.
///
/// # Examples
///
/// ```
/// use itpx_policy::RecencyStack;
/// let mut rs = RecencyStack::new(1, 4);
/// rs.touch(0, 2); // way 2 becomes MRU
/// assert_eq!(rs.depth_of(0, 2), 0);
/// assert_ne!(rs.lru(0), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecencyStack {
    ways: usize,
    // order.row(set)[d] = way at depth d (0 = MRU).
    order: SetGrid<u16>,
}

impl RecencyStack {
    /// Creates stacks for `sets` sets of `ways` ways each, in an arbitrary
    /// initial order.
    ///
    /// # Panics
    ///
    /// Panics if `sets == 0`, `ways == 0`, or `ways > 64`.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(
            sets > 0 && ways > 0,
            "RecencyStack needs sets > 0, ways > 0"
        );
        assert!(ways <= 64, "way masks hold at most 64 ways");
        Self {
            ways,
            order: SetGrid::from_row_fn(sets, ways, |d| d as u16),
        }
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Number of sets.
    // itpx-allow: hot-inline geometry accessor for set-up; the hot edge is a name collision
    pub fn sets(&self) -> usize {
        self.order.sets()
    }

    /// Depth (0 = MRU) of `way` in `set`.
    ///
    /// # Panics
    ///
    /// Panics if `way` is not a way of this stack.
    pub fn depth_of(&self, set: usize, way: usize) -> usize {
        self.order
            .row(set)
            .iter()
            .position(|&w| w as usize == way)
            // every way 0..ways is permanently present in the stack
            .expect("way not present in recency stack")
    }

    /// Height (0 = LRU) of `way` in `set`.
    pub fn height_of(&self, set: usize, way: usize) -> usize {
        self.ways - 1 - self.depth_of(set, way)
    }

    /// The way currently at `LRUpos`.
    #[inline]
    pub fn lru(&self, set: usize) -> usize {
        // order rows are built with ways >= 1 entries and never shrink
        *self.order.row(set).last().expect("non-empty stack") as usize
    }

    /// The way currently at `MRUpos`.
    pub fn mru(&self, set: usize) -> usize {
        self.order.row(set)[0] as usize
    }

    /// Moves `way` to `MRUpos` (classic LRU touch).
    #[inline]
    pub fn touch(&mut self, set: usize, way: usize) {
        self.place_at_depth(set, way, 0);
    }

    /// Places `way` at `depth` from the top (clamped to the stack size);
    /// every entry it passes shifts one position toward LRU or MRU
    /// accordingly. This implements both the paper's "insert at
    /// `MRUpos - N`" and "promote to `LRUpos + M`" (via
    /// [`RecencyStack::place_at_height`]).
    pub fn place_at_depth(&mut self, set: usize, way: usize, depth: usize) {
        let depth = depth.min(self.ways - 1);
        let cur = self.depth_of(set, way);
        let row = self.order.row_mut(set);
        // Shifting the span between the old and new positions by one and
        // writing the moved way at `depth` is exactly `remove(cur)` +
        // `insert(depth, …)` on the fixed-length row: every entry passed
        // shifts one slot toward LRU or MRU.
        let moved = row[cur];
        if cur < depth {
            row.copy_within(cur + 1..=depth, cur);
        } else {
            row.copy_within(depth..cur, depth + 1);
        }
        row[depth] = moved;
    }

    /// Places `way` at `height` from the bottom (clamped).
    pub fn place_at_height(&mut self, set: usize, way: usize, height: usize) {
        let height = height.min(self.ways - 1);
        self.place_at_depth(set, way, self.ways - 1 - height);
    }

    /// Iterates ways from LRU (first) to MRU (last) — the scan order xPTP
    /// uses to find the victim candidate closest to the bottom of the stack.
    pub fn iter_lru_to_mru(&self, set: usize) -> impl Iterator<Item = usize> + '_ {
        self.order.row(set).iter().rev().map(|&w| w as usize)
    }

    /// Iterates ways from MRU (first) to LRU (last).
    pub fn iter_mru_to_lru(&self, set: usize) -> impl Iterator<Item = usize> + '_ {
        self.order.row(set).iter().map(|&w| w as usize)
    }

    /// The `quota` most recently used ways of `set` matching `pred`, as a
    /// way mask (bit `w` set = way `w` selected) — the bounded protection
    /// PTP gives PTE blocks and Emissary gives code blocks.
    pub fn recent_mask(&self, set: usize, quota: usize, pred: impl Fn(usize) -> bool) -> u64 {
        self.iter_mru_to_lru(set)
            .filter(|&w| pred(w))
            .take(quota)
            .fold(0, |mask, w| mask | (1 << w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_order_contains_all_ways() {
        let rs = RecencyStack::new(2, 4);
        let mut ways: Vec<usize> = rs.iter_mru_to_lru(1).collect();
        ways.sort_unstable();
        assert_eq!(ways, vec![0, 1, 2, 3]);
    }

    #[test]
    fn touch_moves_to_mru_and_shifts_others_down() {
        let mut rs = RecencyStack::new(1, 4);
        // start: [0,1,2,3]
        rs.touch(0, 3);
        assert_eq!(rs.mru(0), 3);
        assert_eq!(rs.depth_of(0, 0), 1);
        assert_eq!(rs.lru(0), 2);
    }

    #[test]
    fn place_at_depth_matches_paper_insert_semantics() {
        let mut rs = RecencyStack::new(1, 12);
        // iTP inserts instruction entries at MRUpos - N with N = 4.
        rs.place_at_depth(0, 7, 4);
        assert_eq!(rs.depth_of(0, 7), 4);
        // All other entries keep their relative order.
        let rest: Vec<usize> = rs.iter_mru_to_lru(0).filter(|&w| w != 7).collect();
        assert_eq!(rest, vec![0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 11]);
    }

    #[test]
    fn place_at_height_is_lru_pos_plus_m() {
        let mut rs = RecencyStack::new(1, 12);
        // iTP promotes data hits to LRUpos + M with M = 8.
        rs.place_at_height(0, 0, 8);
        assert_eq!(rs.height_of(0, 0), 8);
        assert_eq!(rs.depth_of(0, 0), 3);
    }

    #[test]
    fn depth_clamps() {
        let mut rs = RecencyStack::new(1, 4);
        rs.place_at_depth(0, 1, 99);
        assert_eq!(rs.lru(0), 1);
        rs.place_at_height(0, 2, 99);
        assert_eq!(rs.mru(0), 2);
    }

    #[test]
    fn lru_to_mru_iteration_order() {
        let mut rs = RecencyStack::new(1, 3);
        rs.touch(0, 0);
        rs.touch(0, 1);
        rs.touch(0, 2); // order MRU->LRU: 2,1,0
        let v: Vec<usize> = rs.iter_lru_to_mru(0).collect();
        assert_eq!(v, vec![0, 1, 2]);
    }

    #[test]
    fn heights_and_depths_are_complementary() {
        let rs = RecencyStack::new(1, 8);
        for w in 0..8 {
            assert_eq!(rs.depth_of(0, w) + rs.height_of(0, w), 7);
        }
    }

    #[test]
    fn recent_mask_takes_the_most_recent_matches() {
        let mut rs = RecencyStack::new(1, 6);
        for w in [0, 1, 2, 3, 4, 5] {
            rs.touch(0, w); // MRU->LRU: 5,4,3,2,1,0
        }
        let even = |w: usize| w.is_multiple_of(2);
        assert_eq!(rs.recent_mask(0, 2, even), 1 << 4 | 1 << 2);
        assert_eq!(rs.recent_mask(0, 9, even), 1 << 4 | 1 << 2 | 1);
        assert_eq!(rs.recent_mask(0, 0, even), 0);
    }

    #[test]
    #[should_panic(expected = "at most 64 ways")]
    fn more_than_64_ways_panics() {
        let _ = RecencyStack::new(1, 65);
    }

    #[test]
    #[should_panic(expected = "sets > 0")]
    fn zero_sets_panics() {
        let _ = RecencyStack::new(0, 4);
    }
}
