//! A fast, deterministic hasher for the simulator's hot maps.
//!
//! `std`'s default `RandomState` sips a per-instance random key, which (a)
//! costs ~1.5ns per small-key lookup on the MSHR/directory/flit-route maps
//! the inner loops hit every event, and (b) makes map iteration order vary
//! between *processes* even for identical inputs. The simulator never lets
//! iteration order reach an output without sorting, but a deterministic
//! hasher turns that convention into a property: two runs of the same build
//! walk every map identically.
//!
//! The mix is the Firefox/rustc "Fx" multiply-rotate: not DoS-resistant,
//! which is fine — every key hashed here is a simulator-internal integer
//! (block addresses, message ids), never attacker-controlled input.
//!
//! [`fnv1a`] is the other hash here: the workspace's stable content digest
//! (spec digests, store checksums, the coherence audit's state digest),
//! whose values are pinned and persisted, so it must never change.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-rotate hasher over native words (the rustc `FxHasher` scheme).
#[derive(Debug, Default, Clone, Copy)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.mix(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            // Fold in the length so "ab" + "" and "a" + "b" differ.
            self.mix(u64::from_le_bytes(tail) ^ (rest.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.mix(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.mix(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
}

/// The 64-bit FNV-1a offset basis: the digest of no bytes, where every
/// [`fnv1a`] chain starts.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into the 64-bit FNV-1a digest `hash`.
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// `BuildHasher` for [`FastHasher`] (zero-sized, `Default`).
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// A `HashMap` keyed by the deterministic [`FastHasher`]. Drop-in for hot
/// simulator maps with small integer-like keys.
pub type FastMap<K, V> = HashMap<K, V, FastBuildHasher>;

/// A `HashSet` over the deterministic [`FastHasher`].
pub type FastSet<T> = HashSet<T, FastBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_key_same_hash_across_instances() {
        let mut a = FastHasher::default();
        let mut b = FastHasher::default();
        a.write_u64(0xDEAD_BEEF);
        b.write_u64(0xDEAD_BEEF);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn distinct_keys_differ() {
        let hash = |n: u64| {
            let mut h = FastHasher::default();
            h.write_u64(n);
            h.finish()
        };
        assert_ne!(hash(0), hash(1));
        assert_ne!(hash(1), hash(1 << 32));
    }

    #[test]
    fn byte_streams_respect_boundaries() {
        let hash = |b: &[u8]| {
            let mut h = FastHasher::default();
            h.write(b);
            h.finish()
        };
        assert_eq!(hash(b"abcdefgh"), hash(b"abcdefgh"));
        assert_ne!(hash(b"abcdefgh"), hash(b"abcdefg"));
        assert_ne!(hash(b"a"), hash(b""));
    }

    #[test]
    fn fast_map_behaves_like_hashmap() {
        let mut m: FastMap<u64, u32> = FastMap::default();
        for i in 0..1000u64 {
            m.insert(i, (i * 3) as u32);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&500), Some(&1500));
        m.remove(&500);
        assert_eq!(m.get(&500), None);
    }
}
