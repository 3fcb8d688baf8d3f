//! An integer hasher for the maps keyed by node ids, slot numbers and
//! timestamp bits.
//!
//! `std`'s default hasher is SipHash-1-3 under a key drawn at random
//! per process: a defence against keys chosen by an attacker, paid for
//! with a few dozen cycles per key. The keys here are node ids, slot
//! numbers and the bits of `f64` timestamps of the graph being
//! processed (crafted ones could slow a map, never change what it
//! returns), so [`IntHasher`] folds each word into its state with one
//! xor and one multiply and ends with SplitMix64's output function.
//!
//! That last step is what makes the hash usable. `std`'s table picks a
//! bucket from the *low* bits of the hash, and a multiply carries a
//! difference only upward, while a whole-second `f64` timestamp (the
//! datasets use Unix seconds) keeps its low mantissa bits zero: 1000.0
//! is `0x408F_4000_0000_0000`. Without a finalizer that moves high bits
//! down, every `(node, t)` key of one node would land in one bucket.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::rng::mix64;

/// A `HashMap` with integer keys (or tuples of them) under
/// [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// Hashes fixed-width integers a word at a time: `state = (state ^
/// word) · φ` per word, [`mix64`] of the state at the end. Unkeyed, so
/// a key hashes the same in every process.
#[derive(Debug, Default, Clone, Copy)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    #[inline]
    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    /// Anything that is not an integer, eight bytes at a time.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        mix64(self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash<K: std::hash::Hash>(key: K) -> u64 {
        BuildHasherDefault::<IntHasher>::default().hash_one(key)
    }

    #[test]
    fn whole_second_timestamps_spread_over_the_low_bits() {
        // The embedding cache's key for `(layer 0, node 7, t)`. A
        // multiply-only hash leaves these 1 000 keys one value in their
        // low 12 bits. A uniformly random function leaves 887 on
        // average (4096 · (1 − e^(−1000/4096))), with a standard
        // deviation of 9; 850 is four below.
        let low: std::collections::BTreeSet<u64> = (0..1000u64)
            .map(|k| hash((7u64, (k as f64).to_bits())) & 0xFFF)
            .collect();
        assert!(
            low.len() >= 850,
            "{} distinct low-12-bit values of 1000",
            low.len()
        );
        let multiply_only: std::collections::BTreeSet<u64> = (0..1000u64)
            .map(|k| ((7u64 ^ (k as f64).to_bits()).wrapping_mul(0x9E37_79B9_7F4A_7C15)) & 0xFFF)
            .collect();
        assert_eq!(multiply_only.len(), 1);
    }

    #[test]
    fn keys_hash_the_same_in_every_process_and_by_width() {
        // Unkeyed: a fixed key has a fixed hash.
        assert_eq!(hash(0u64), 0);
        assert_eq!(hash(1u64), mix64(0x9E37_79B9_7F4A_7C15));
        // A `u32` and a `usize` hash as the `u64` of the same value, and
        // a tuple as its words in order.
        assert_eq!(hash(5u32), hash(5u64));
        assert_eq!(hash(5usize), hash(5u64));
        assert_ne!(hash((1u64, 2u64)), hash((2u64, 1u64)));
        let mut map: IntMap<(u32, u64), usize> = IntMap::default();
        map.insert((3, 4), 1);
        assert_eq!(map.get(&(3, 4)), Some(&1));
        assert_eq!(map.get(&(4, 3)), None);
    }
}
