//! A minimal FxHash implementation (the hash used by rustc and Firefox).
//!
//! The performance guide for this workspace recommends replacing SipHash for
//! hot, non-adversarial hash tables. Rather than pulling in `rustc-hash` as a
//! dependency, we vendor the ~40 lines it takes: the algorithm is a simple
//! multiply-and-rotate over machine words and is in the public domain.
//!
//! These tables are used for bucket lookup and inverted access where keys are
//! short tuples of integers/symbols produced by a trusted generator, so
//! HashDoS resistance is not required.

// Sanctioned panics: `chunks_exact(8)` guarantees every chunk converts to `[u8; 8]`.
#![allow(clippy::expect_used)]

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant from the original Fx hash (64-bit variant).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// Streaming FxHasher over bytes and words.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let word = u64::from_le_bytes(chunk.try_into().expect("chunk of 8"));
            self.add_to_hash(word);
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.add_to_hash(n as u64);
        self.add_to_hash((n >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }
}

/// Mixes every bit of a raw Fx hash into its low bits. Fx's last step is
/// a multiply, whose low bits depend only on the low bits of the last
/// word hashed, so a table that masks the low bits of raw Fx sends keys
/// differing only in higher bytes (same-length strings, tuples) to few
/// slots.
#[inline]
pub fn finalize(h: u64) -> u64 {
    let h = (h ^ (h >> 32)).wrapping_mul(0xd6e8_feb8_6659_fd93);
    h ^ (h >> 32)
}

/// `BuildHasher` producing [`FxHasher`]s.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Drop-in `HashMap` with the Fx hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// Drop-in `HashSet` with the Fx hasher.
pub type FxHashSet<K> = std::collections::HashSet<K, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(value: &T) -> u64 {
        let mut hasher = FxHasher::default();
        value.hash(&mut hasher);
        hasher.finish()
    }

    #[test]
    fn deterministic_for_equal_inputs() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_eq!(hash_of(&"hello"), hash_of(&"hello"));
        assert_eq!(hash_of(&vec![1i64, 2, 3]), hash_of(&vec![1i64, 2, 3]));
    }

    #[test]
    fn distinguishes_common_inputs() {
        assert_ne!(hash_of(&1u64), hash_of(&2u64));
        assert_ne!(hash_of(&"a"), hash_of(&"b"));
        // Short strings whose bytes differ only in the tail chunk.
        assert_ne!(hash_of(&"abcdefgh1"), hash_of(&"abcdefgh2"));
    }

    #[test]
    fn map_roundtrip() {
        let mut map: FxHashMap<Vec<i64>, usize> = FxHashMap::default();
        for i in 0..1000i64 {
            map.insert(vec![i, i * 2], i as usize);
        }
        assert_eq!(map.len(), 1000);
        for i in 0..1000i64 {
            assert_eq!(map.get(&vec![i, i * 2]), Some(&(i as usize)));
        }
        assert_eq!(map.get(&vec![1, 3]), None);
    }

    #[test]
    fn set_deduplicates() {
        let mut set: FxHashSet<u64> = FxHashSet::default();
        for i in 0..100 {
            set.insert(i % 10);
        }
        assert_eq!(set.len(), 10);
    }

    #[test]
    fn unaligned_byte_writes_differ_by_position() {
        // Regression: the tail-padding path must not collide trivially.
        assert_ne!(hash_of(&[1u8, 0, 0]), hash_of(&[0u8, 1, 0]));
    }
}
