//! A true recency stack, the substrate for every LRU-family policy.
//!
//! The paper describes iTP and xPTP in terms of *positions in the LRU
//! recency stack* (`MRUpos`, `LRUpos`, "insert at `MRUpos - N`", "promote to
//! `LRUpos + M`"). [`RecencyStack`] models exactly that: each set keeps an
//! explicit ordering of its ways from most- to least-recently used, and
//! policies manipulate positions directly.
//!
//! Each set's order is one `u64` of sixteen 4-bit way ids, depth `d` in
//! bits `4d..4d + 4` (MRU in the low nibble); the nibbles past the
//! associativity hold `0xF`. Finding a way is a SWAR zero-nibble search
//! and moving one is a masked one-nibble shift of the span it passes, so
//! neither loops over the ways nor moves memory.

/// `0x1` in every nibble: multiplying a way id by it repeats the id.
const LOW_BITS: u64 = 0x1111_1111_1111_1111;
/// The top bit of every nibble.
const HIGH_BITS: u64 = 0x8888_8888_8888_8888;
/// Way `d` at depth `d` for all sixteen depths: the initial order.
const IDENTITY: u64 = 0xFEDC_BA98_7654_3210;

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
    // Nibble d of order[set] = way at depth d (0 = MRU); see the module doc.
    order: Box<[u64]>,
}

impl RecencyStack {
    /// Most ways a stack holds: sixteen 4-bit way ids fill one `u64`.
    pub const MAX_WAYS: usize = 16;

    /// Creates stacks for `sets` sets of `ways` ways each, in an arbitrary
    /// initial order.
    ///
    /// # Panics
    ///
    /// Panics if `sets == 0`, `ways == 0`, or `ways` exceeds
    /// [`RecencyStack::MAX_WAYS`] (16).
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(
            sets > 0 && ways > 0,
            "RecencyStack needs sets > 0, ways > 0"
        );
        assert!(
            ways <= Self::MAX_WAYS,
            "RecencyStack holds at most 16 ways (4-bit way ids in one u64), got {ways}"
        );
        // Unused nibbles (depth >= ways) hold 0xF.
        let unused = !(u64::MAX >> (64 - 4 * ways));
        Self {
            ways,
            order: vec![IDENTITY | unused; sets].into_boxed_slice(),
        }
    }

    /// Associativity.
    #[inline]
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Number of sets.
    // itpx-allow: hot-inline geometry accessor for set-up; the hot edge is a name collision
    pub fn sets(&self) -> usize {
        self.order.len()
    }

    /// The way at `depth` of a packed order word.
    #[inline]
    fn way_at(word: u64, depth: usize) -> usize {
        ((word >> (4 * depth)) & 0xF) as usize
    }

    /// Depth (0 = MRU) of `way` in `set`.
    ///
    /// # Panics
    ///
    /// Panics if `way` is not a way of this stack.
    #[inline]
    pub fn depth_of(&self, set: usize, way: usize) -> usize {
        // Every way 0..ways is permanently present, and only those: an
        // unused nibble's 0xF must not pass for way 15.
        assert!(way < self.ways, "way not present in recency stack");
        // Nibbles equal to `way` become zero; the lowest zero nibble's top
        // bit is the lowest set bit of `hits` (a borrow can only mark
        // nibbles above a true zero).
        let x = self.order[set] ^ (way as u64 * LOW_BITS);
        let hits = x.wrapping_sub(LOW_BITS) & !x & HIGH_BITS;
        let depth = hits.trailing_zeros() as usize / 4;
        debug_assert!(depth < self.ways, "recency order lost way {way}");
        depth
    }

    /// Height (0 = LRU) of `way` in `set`.
    #[inline]
    pub fn height_of(&self, set: usize, way: usize) -> usize {
        self.ways - 1 - self.depth_of(set, way)
    }

    /// The way currently at `LRUpos`.
    #[inline]
    pub fn lru(&self, set: usize) -> usize {
        Self::way_at(self.order[set], self.ways - 1)
    }

    /// The way currently at `MRUpos`.
    #[inline]
    pub fn mru(&self, set: usize) -> usize {
        Self::way_at(self.order[set], 0)
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
    #[inline]
    pub fn place_at_depth(&mut self, set: usize, way: usize, depth: usize) {
        let depth = depth.min(self.ways - 1);
        let cur = self.depth_of(set, way);
        let (lo, hi) = (cur.min(depth), cur.max(depth));
        // The nibbles from the way's old depth to its new one, both ends
        // included; every other nibble keeps its place.
        // itpx-allow: arith-width lo <= hi < 16, so the shift is at most 60 bits
        let span = (u64::MAX >> (60 - 4 * hi)) & (u64::MAX << (4 * lo));
        let word = self.order[set];
        // Entries passed move one nibble toward LRU (a way rising to a
        // shallower depth) or toward MRU (a way sinking); the moved way's
        // own nibble is written last.
        let passed = if depth < cur { word << 4 } else { word >> 4 };
        let at = 4 * depth;
        let slot = 0xF << at;
        // itpx-allow: arith-width depth < 16 and way < 16, so the way id fits the nibble at bit 4 * depth <= 60
        let placed = (way as u64) << at;
        self.order[set] = (word & !span) | (passed & span & !slot) | placed;
        debug_assert!(
            self.holds_every_way(set),
            "recency order of set {set} broke"
        );
    }

    /// Places `way` at `height` from the bottom (clamped).
    #[inline]
    pub fn place_at_height(&mut self, set: usize, way: usize, height: usize) {
        let height = height.min(self.ways - 1);
        self.place_at_depth(set, way, self.ways - 1 - height);
    }

    /// Iterates ways from LRU (first) to MRU (last) — the scan order xPTP
    /// uses to find the victim candidate closest to the bottom of the stack.
    #[inline]
    pub fn iter_lru_to_mru(&self, set: usize) -> impl Iterator<Item = usize> + '_ {
        let word = self.order[set];
        (0..self.ways).rev().map(move |d| Self::way_at(word, d))
    }

    /// Iterates ways from MRU (first) to LRU (last).
    #[inline]
    pub fn iter_mru_to_lru(&self, set: usize) -> impl Iterator<Item = usize> + '_ {
        let word = self.order[set];
        (0..self.ways).map(move |d| Self::way_at(word, d))
    }

    /// The `quota` most recently used ways of `set` matching `pred`, as a
    /// way mask (bit `w` set = way `w` selected) — the bounded protection
    /// PTP gives PTE blocks and Emissary gives code blocks.
    #[inline]
    pub fn recent_mask(&self, set: usize, quota: usize, pred: impl Fn(usize) -> bool) -> u64 {
        self.iter_mru_to_lru(set)
            .filter(|&w| pred(w))
            .take(quota)
            .fold(0, |mask, w| mask | (1 << w))
    }

    /// Whether `set` holds each way once and `0xF` past the associativity
    /// (checked after every move in debug builds).
    fn holds_every_way(&self, set: usize) -> bool {
        let word = self.order[set];
        let seen = (0..self.ways).fold(0u64, |seen, d| seen | 1 << Self::way_at(word, d));
        let unused = (self.ways..Self::MAX_WAYS).all(|d| Self::way_at(word, d) == 0xF);
        seen == u64::MAX >> (64 - self.ways) && unused
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
    #[should_panic(expected = "at most 16 ways")]
    fn more_than_16_ways_panics() {
        let _ = RecencyStack::new(1, 17);
    }

    #[test]
    #[should_panic(expected = "sets > 0")]
    fn zero_sets_panics() {
        let _ = RecencyStack::new(0, 4);
    }
}
