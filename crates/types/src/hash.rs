//! A fixed hasher for the simulator's integer-keyed maps.
//!
//! The page tables key their maps by page numbers and table-node
//! prefixes the simulator computes itself, never by outside input, so
//! the collision resistance of std's randomly keyed SipHash buys nothing
//! there — yet it is paid about seven times on every L1-TLB miss.
//! [`WordHasher`] folds each written word into its state with one
//! multiply, and its output is the same in every process.
//!
//! # Examples
//!
//! ```
//! use itpx_types::BuildWordHasher;
//! use std::collections::HashMap;
//!
//! let mut frames: HashMap<u64, u64, BuildWordHasher> = HashMap::default();
//! frames.insert(0x51_0000, 7);
//! assert_eq!(frames[&0x51_0000], 7);
//! ```

use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier with well-spread bits (the classic Fx hash constant).
const K: u64 = 0x517c_c1b7_2722_0a95;

/// Multiply-fold hasher over machine words; see the [module docs](self).
#[derive(Debug, Default, Clone, Copy)]
pub struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(K);
    }

    /// The state with its best-mixed high bits rotated down: hash tables
    /// pick buckets from the low bits, which a multiply leaves depending
    /// only on the key's low bits.
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(32)
    }
}

/// [`std::hash::BuildHasher`] of [`WordHasher`]s, for `HashMap`/`HashSet`.
pub type BuildWordHasher = BuildHasherDefault<WordHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::BuildHasher;

    fn hash<T: std::hash::Hash>(value: T) -> u64 {
        BuildWordHasher::default().hash_one(value)
    }

    #[test]
    fn hashes_are_fixed_across_builders() {
        assert_eq!(hash(42u64), hash(42u64));
        assert_eq!(hash((3u8, 9u64)), hash((3u8, 9u64)));
        assert_ne!(hash((3u8, 9u64)), hash((4u8, 9u64)));
    }

    #[test]
    fn consecutive_and_strided_keys_spread_over_low_bits() {
        // Page numbers, and page numbers one 2 MiB region apart (equal
        // below bit 9): the bucket bits of their hashes must still vary
        // about as much as random ones would (~63% of buckets used).
        for stride in [0, 9] {
            let buckets: HashSet<u64> = (0..1024u64).map(|i| hash(i << stride) & 1023).collect();
            assert!(
                buckets.len() > 600,
                "stride {stride}: {} of 1024",
                buckets.len()
            );
        }
    }
}
