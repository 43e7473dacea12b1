//! Flat set-associative storage, shared by every per-set structure.
//!
//! PR 6 flattened the `Cache`/`Tlb` tag arrays into single slabs; this
//! module generalizes the idiom so replacement-policy metadata, the page
//! structure caches, and the branch-predictor tables use the same layout
//! instead of `Vec<Vec<T>>`. A [`SetGrid`] owns one `Box<[T]>` indexed
//! `set * width + i`: one pointer chase per access regardless of set
//! count, rows contiguous in memory, and the allocation happens exactly
//! once at construction — which is what lets the allocation witness prove
//! a zero-alloc steady state over the migrated structures.
//!
//! Set selection from an address-like key belongs to the structure that
//! owns the geometry, not to the grid (policies receive an already-chosen
//! set index). [`SetMask`] packages that half: a power-of-two set count
//! validated once at construction and a single `&` per lookup thereafter,
//! replacing per-access `%` division.
//!
//! # Examples
//!
//! ```
//! use itpx_types::{SetGrid, SetMask};
//!
//! let mut rrpv = SetGrid::new(64, 8, 3u8);
//! rrpv.row_mut(5)[2] = 0;
//! assert_eq!(rrpv.row(5)[2], 0);
//!
//! let mask = SetMask::new(64);
//! assert_eq!(mask.set_of(0x1234_5678), 0x38);
//! ```

/// One flat `Box<[T]>` holding `sets` rows of `width` elements each.
///
/// `width` is usually the associativity, but rows of any fixed length are
/// supported (tree-PLRU keeps `ways - 1` node bits per set). Rows are
/// reached through the `#[inline]` slice accessors [`SetGrid::row`] /
/// [`SetGrid::row_mut`]; element access then compiles to a single
/// base-plus-offset load with the usual slice bounds check, with no
/// second pointer indirection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetGrid<T> {
    width: usize,
    data: Box<[T]>,
}

impl<T: Clone> SetGrid<T> {
    /// Creates a grid of `sets` rows of `width` copies of `init`.
    ///
    /// # Panics
    ///
    /// Panics if `sets == 0` or `width == 0`.
    pub fn new(sets: usize, width: usize, init: T) -> Self {
        assert!(sets > 0 && width > 0, "SetGrid needs sets > 0, width > 0");
        Self {
            width,
            data: vec![init; sets * width].into_boxed_slice(),
        }
    }

    /// Overwrites every element with `value` (bulk reset; allocates
    /// nothing).
    pub fn fill(&mut self, value: T) {
        self.data.fill(value);
    }
}

impl<T> SetGrid<T> {
    /// Number of rows (sets).
    #[inline]
    pub fn sets(&self) -> usize {
        self.data.len() / self.width
    }

    /// Row length — the associativity for way-indexed grids.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// The row for `set`, as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `set >= self.sets()`.
    #[inline]
    pub fn row(&self, set: usize) -> &[T] {
        let start = set * self.width;
        &self.data[start..start + self.width]
    }

    /// The row for `set`, as a mutable slice.
    ///
    /// # Panics
    ///
    /// Panics if `set >= self.sets()`.
    #[inline]
    pub fn row_mut(&mut self, set: usize) -> &mut [T] {
        let start = set * self.width;
        &mut self.data[start..start + self.width]
    }
}

/// Power-of-two set selection: validate the geometry once, mask per
/// access.
///
/// `key % sets` and `key & (sets - 1)` agree exactly when `sets` is a
/// power of two; the constructor asserts that invariant so every later
/// [`SetMask::set_of`] is a single AND instead of a division on the
/// per-access path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SetMask {
    mask: usize,
}

impl SetMask {
    /// Builds the mask for a structure with `sets` sets.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is zero or not a power of two.
    pub fn new(sets: usize) -> Self {
        assert!(
            sets.is_power_of_two(),
            "set count must be a power of two for mask indexing, got {sets}"
        );
        Self { mask: sets - 1 }
    }

    /// The set index for an address-like key (low bits, masked).
    #[inline]
    pub fn set_of(&self, key: u64) -> usize {
        (key as usize) & self.mask
    }

    /// The set count this mask selects over.
    #[inline]
    pub fn sets(&self) -> usize {
        self.mask + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_independent() {
        let mut g = SetGrid::new(4, 3, 0u8);
        g.row_mut(2)[1] = 9;
        assert_eq!(g.row(2), &[0, 9, 0]);
        assert_eq!(g.row(1), &[0, 0, 0]);
        assert_eq!(g.row(3), &[0, 0, 0]);
    }

    #[test]
    fn geometry_accessors() {
        let g = SetGrid::new(8, 5, false);
        assert_eq!(g.sets(), 8);
        assert_eq!(g.width(), 5);
        assert_eq!(g.row(7).len(), 5);
    }

    #[test]
    fn fill_resets_everything() {
        let mut g = SetGrid::new(2, 2, 1u32);
        g.row_mut(0)[0] = 7;
        g.fill(3);
        assert_eq!(g.row(0), &[3, 3]);
        assert_eq!(g.row(1), &[3, 3]);
    }

    #[test]
    #[should_panic(expected = "sets > 0")]
    fn zero_sets_panics() {
        let _ = SetGrid::new(0, 4, 0u8);
    }

    #[test]
    #[should_panic(expected = "width > 0")]
    fn zero_width_panics() {
        let _ = SetGrid::new(4, 0, 0u8);
    }

    #[test]
    fn mask_agrees_with_modulo() {
        for sets in [1usize, 2, 4, 64, 128] {
            let m = SetMask::new(sets);
            assert_eq!(m.sets(), sets);
            for key in [0u64, 1, 63, 64, 12345, u64::MAX] {
                assert_eq!(m.set_of(key), (key as usize) % sets);
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_mask_panics() {
        let _ = SetMask::new(12);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn zero_sets_mask_panics() {
        let _ = SetMask::new(0);
    }
}
