//! Deterministic pseudo-random number generation.
//!
//! Every stochastic choice in the simulator (workload synthesis, the
//! probabilistic motivation policy of Figure 3, random replacement) draws
//! from [`Rng64`], a xoshiro256++ generator seeded explicitly, so any run is
//! reproducible from its seed alone.

/// A small, fast, deterministic PRNG (xoshiro256++ seeded via SplitMix64).
///
/// # Examples
///
/// ```
/// use itpx_types::Rng64;
/// let mut a = Rng64::new(42);
/// let mut b = Rng64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng64 {
    s: [u64; 4],
}

impl Rng64 {
    /// Creates a generator from a seed. Any seed (including 0) is valid.
    pub fn new(seed: u64) -> Self {
        // SplitMix64 to spread the seed into the full state.
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        Self {
            s: [next(), next(), next(), next()],
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "Rng64::below requires a non-zero bound");
        // Lemire-style widening multiply; bias is negligible for simulation.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform `usize` in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn index(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Uniform integer in `[0, 2^53)`: the draw behind [`Rng64::f64`],
    /// which returns exactly `Rng64::unit_f64(bits)`. Samplers that bucket
    /// a uniform draw index by its top bits and still compare the float.
    #[inline]
    pub fn unit_bits(&mut self) -> u64 {
        self.next_u64() >> 11
    }

    /// The float `bits / 2^53` for a [`Rng64::unit_bits`] draw; exact,
    /// since both factors are representable and the scale is a power of two.
    // itpx-allow: hot-float deterministic 53-bit mantissa conversion of a seeded integer stream; bit-exact on every IEEE-754 target
    #[inline]
    pub fn unit_f64(bits: u64) -> f64 {
        bits as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform float in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        Self::unit_f64(self.unit_bits())
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Uniform value in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "Rng64::range requires lo <= hi");
        lo + self.below(hi - lo + 1)
    }

    /// Derives an independent generator (for splitting streams per
    /// component without correlating them).
    pub fn fork(&mut self) -> Self {
        Self::new(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let mut a = Rng64::new(7);
        let mut b = Rng64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng64::new(1);
        let mut b = Rng64::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn below_respects_bound() {
        let mut r = Rng64::new(3);
        for _ in 0..1000 {
            assert!(r.below(10) < 10);
        }
        // bound 1 always yields 0
        assert_eq!(r.below(1), 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng64::new(9);
        for _ in 0..1000 {
            let v = r.f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn chance_is_roughly_calibrated() {
        let mut r = Rng64::new(11);
        let hits = (0..10_000).filter(|_| r.chance(0.3)).count();
        assert!((2500..3500).contains(&hits), "hits={hits}");
    }

    #[test]
    fn range_inclusive() {
        let mut r = Rng64::new(5);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..2000 {
            let v = r.range(4, 6);
            assert!((4..=6).contains(&v));
            saw_lo |= v == 4;
            saw_hi |= v == 6;
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn fork_produces_distinct_stream() {
        let mut a = Rng64::new(42);
        let mut b = a.fork();
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }
}
