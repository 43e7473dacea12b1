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
    // itpx-allow: hot-inline seeds one draw per 2 MiB region, at the region's first touch
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
    #[inline]
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
    #[inline]
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
    #[inline]
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
    #[inline]
    pub fn f64(&mut self) -> f64 {
        Self::unit_f64(self.unit_bits())
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// The number of [`Rng64::unit_bits`] draws `bits` with
    /// `unit_f64(bits) < p`: those draws are exactly the ones below it,
    /// so `unit_bits() < unit_threshold(p)` makes the decision
    /// `chance(p)` makes, from the same draw, without a float.
    ///
    /// Exact because both sides scale exactly: `unit_f64(bits)` is
    /// `bits / 2^53`, and `p * 2^53` only shifts the exponent, so
    /// `unit_f64(bits) < p` holds iff `bits < ceil(p * 2^53)`. Returns 0
    /// for `p <= 0` or NaN (no draw passes) and `2^53` for `p >= 1`
    /// (every draw passes).
    pub const fn unit_threshold(p: f64) -> u64 {
        const SCALE: f64 = (1u64 << 53) as f64;
        if p.is_nan() || p <= 0.0 {
            0
        } else if p >= 1.0 {
            1 << 53
        } else {
            // p * 2^53 is in (0, 2^53), so its ceiling converts exactly
            (p * SCALE).ceil() as u64
        }
    }

    /// Uniform value in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[inline]
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

    /// Probabilities in (0, 1): round ones, ones a bit apart, and
    /// random ones.
    fn probabilities() -> Vec<f64> {
        let mut ps = vec![0.95, 0.85, 0.5, 0.08, 0.15, 0.1, 0.2, 0.3, 0.002];
        ps.extend([0.1 + 0.2, 0.05 + 0.18 + 0.14, 1.0 / 3.0]);
        let mut r = Rng64::new(13);
        ps.extend((0..1_000).map(|_| r.f64()).filter(|&p| p > 0.0));
        ps
    }

    #[test]
    fn the_threshold_is_the_exact_edge_of_the_float_comparison() {
        for p in probabilities() {
            let t = Rng64::unit_threshold(p);
            assert!(t > 0 && t < 1 << 53, "p={p}");
            assert!(Rng64::unit_f64(t - 1) < p, "p={p}: threshold - 1 fails");
            assert!(Rng64::unit_f64(t) >= p, "p={p}: threshold passes");
        }
    }

    #[test]
    fn thresholds_at_the_edges_of_the_unit_interval() {
        let all = 1u64 << 53;
        let last = all - 1;
        for (p, want) in [
            (0.0, 0),
            (-0.0, 0),
            (-1.0, 0),
            (f64::NEG_INFINITY, 0),
            (f64::NAN, 0),
            (1.0, all),
            (1.5, all),
            (f64::INFINITY, all),
            // the smallest subnormal passes draw 0 only
            (f64::from_bits(1), 1),
            // the largest float below 1 passes every draw but the last
            (1.0 - f64::EPSILON / 2.0, last),
        ] {
            assert_eq!(Rng64::unit_threshold(p), want, "p={p}");
            for bits in [0, 1, last] {
                assert_eq!(bits < want, Rng64::unit_f64(bits) < p, "p={p} bits={bits}");
            }
        }
    }

    #[test]
    fn threshold_draws_match_float_draws() {
        let ps = probabilities();
        let ts: Vec<u64> = ps.iter().map(|&p| Rng64::unit_threshold(p)).collect();
        let mut floats = Rng64::new(17);
        let mut ints = floats.clone();
        for i in 0..1_000_000 {
            let k = i % ps.len();
            assert_eq!(
                floats.chance(ps[k]),
                ints.unit_bits() < ts[k],
                "p={}",
                ps[k]
            );
        }
        assert_eq!(floats, ints, "both forms consume one draw");
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
