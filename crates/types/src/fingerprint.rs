//! Deterministic content fingerprinting for the simulation-result cache.
//!
//! The campaign engine in `itpx-bench` memoizes `SimulationOutput`s under
//! a content-addressed key: a hash over everything that determines a run's
//! result (system configuration, policy preset, workload parameters, run
//! lengths). That key must be identical across processes and machine
//! restarts, so it cannot use `std::hash` defaults (`RandomState` seeds
//! differ per process). This module vendors the 64-bit FNV-1a function —
//! a public-domain, dependency-free, stable hash — and a small
//! [`Fingerprint`] trait the configuration types across the workspace
//! implement.
//!
//! Rules for implementors (see DESIGN.md "Campaign engine"):
//!
//! * Hash **every** field that can change simulation output, in a fixed
//!   declaration order. Omitting a field silently aliases cache entries.
//! * Hash floats through [`Fnv1a::write_f64`] (IEEE-754 bit pattern), so
//!   `-0.0` and `0.0` differ and round-trips are exact.
//! * Never hash wall-clock time, host thread counts, or anything else that
//!   does not change the simulated result.
//!
//! `SimulationOutput` is defined in `itpx-cpu`; this module only provides
//! the hashing vocabulary.

/// 64-bit FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// 64-bit FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental 64-bit FNV-1a hasher.
///
/// # Examples
///
/// ```
/// use itpx_types::fingerprint::Fnv1a;
///
/// let mut h = Fnv1a::new();
/// h.write_bytes(b"hello");
/// // The FNV-1a test vector for "hello".
/// assert_eq!(h.finish(), 0xa430_d846_80aa_bd0b);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher at the FNV offset basis.
    pub const fn new() -> Self {
        Self(FNV_OFFSET)
    }

    /// Absorbs raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs one byte.
    pub fn write_u8(&mut self, v: u8) {
        self.write_bytes(&[v]);
    }

    /// Absorbs a `u32` (little-endian).
    pub fn write_u32(&mut self, v: u32) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorbs a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorbs a `usize` widened to 64 bits, so 32- and 64-bit hosts
    /// produce the same key.
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Absorbs a boolean as one byte.
    pub fn write_bool(&mut self, v: bool) {
        self.write_u8(v as u8);
    }

    /// Absorbs an `f64` through its IEEE-754 bit pattern (exact; never
    /// formats or rounds).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Absorbs a string as a length-prefixed byte sequence (the prefix
    /// prevents `"ab" + "c"` from colliding with `"a" + "bc"`).
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes());
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// A type whose simulation-relevant content can be absorbed into a
/// deterministic fingerprint.
pub trait Fingerprint {
    /// Absorbs this value's content into `h`.
    fn fingerprint(&self, h: &mut Fnv1a);

    /// Convenience: the value's standalone 64-bit fingerprint.
    fn fingerprint_u64(&self) -> u64 {
        let mut h = Fnv1a::new();
        self.fingerprint(&mut h);
        h.finish()
    }
}

impl<T: Fingerprint> Fingerprint for &T {
    fn fingerprint(&self, h: &mut Fnv1a) {
        (*self).fingerprint(h);
    }
}

impl<T: Fingerprint> Fingerprint for [T] {
    fn fingerprint(&self, h: &mut Fnv1a) {
        h.write_usize(self.len());
        for item in self {
            item.fingerprint(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_fnv1a_vectors() {
        // Reference vectors from the FNV specification (draft-eastlake).
        let cases: [(&[u8], u64); 3] = [
            (b"", 0xcbf2_9ce4_8422_2325),
            (b"a", 0xaf63_dc4c_8601_ec8c),
            (b"foobar", 0x8594_4171_f739_67e8),
        ];
        for (input, expect) in cases {
            let mut h = Fnv1a::new();
            h.write_bytes(input);
            assert_eq!(h.finish(), expect, "input {input:?}");
        }
    }

    #[test]
    fn length_prefix_prevents_concatenation_collisions() {
        let mut a = Fnv1a::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Fnv1a::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn f64_hashing_is_bitwise() {
        let mut a = Fnv1a::new();
        a.write_f64(0.0);
        let mut b = Fnv1a::new();
        b.write_f64(-0.0);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn same_input_same_hash() {
        let write = || {
            let mut h = Fnv1a::new();
            h.write_u64(42);
            h.write_str("srv_001");
            h.write_f64(1.25);
            h.finish()
        };
        assert_eq!(write(), write());
    }

    #[test]
    fn slice_fingerprint_includes_length() {
        struct U(u64);
        impl Fingerprint for U {
            fn fingerprint(&self, h: &mut Fnv1a) {
                h.write_u64(self.0);
            }
        }
        let one = [U(7)].as_slice().fingerprint_u64();
        let two = [U(7), U(7)].as_slice().fingerprint_u64();
        assert_ne!(one, two);
    }
}
