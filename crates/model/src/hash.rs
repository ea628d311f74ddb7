//! Fast, deterministic hashing for hot-path maps.
//!
//! `std`'s default `RandomState` is DoS-resistant but slow for the small
//! fixed-width keys this workspace hashes millions of times per bin
//! (addresses, links, probe ids), and its per-process random seed makes
//! map iteration order vary run to run. [`FxHasher`] — the multiply-rotate
//! hash used by rustc (which is not in the allowed dependency set, so it
//! is implemented here) — is several times faster on such keys and fully
//! deterministic, which suits a pipeline whose output must be reproducible
//! from a single seed.
//!
//! **Why `finish` rotates.** A multiply carries bits only upward, so the
//! low bits of the state depend only on the low bits of the input.
//! `hashbrown` picks a key's home bucket from the *low* bits of
//! `finish()`, and an `Ipv4Addr` hashes as a `u32` whose low byte is the
//! first octet. Returned raw, the state would index a table by the first
//! octet and three bits of the second: 800 next hops of an Atlas-like
//! plan (`10.h.l.2`, `h < 4`) share 4 of 2 048 home buckets, and every
//! lookup walks a long probe sequence. `finish` therefore returns the
//! state rotated left by 26 bits, which brings bits 38 and up of the
//! product — fed by every input bit below them — down to the bucket
//! index: the same 800 keys spread over 754 home buckets (the
//! `ipv4_keys_spread_over_home_buckets` test). The rotation is a
//! bijection, so it adds no collisions, and it is one instruction.
//! Stable shard choices made from the unrotated state (the core engine's
//! pattern-key shards, pinned by snapshot format 2) rotate it back, so
//! they stay where they were.
//!
//! **Limits.** There is no hash-flooding resistance: the function and its
//! seed are public and fixed, so anyone who chooses the keys can choose
//! them to collide. That is fine for simulator and benchmark inputs. It
//! stops being fine once outside bytes (an Atlas JSON feed) pick the keys
//! of these maps; such a feed needs a keyed hash or a bound on the
//! entries it may create.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` keyed by [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// How far [`FxHasher::finish`] rotates the state left (see the module
/// docs). Anything that must keep reading the unrotated state — the core
/// engine's stable shard assignment does — rotates back by this much.
const FINISH_ROTATION: u32 = 26;

/// The rustc-style multiply-rotate hasher.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, i: u64) {
        self.hash = (self.hash.rotate_left(5) ^ i).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(FINISH_ROTATION)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, BuildHasherDefault};

    fn hash_of<T: std::hash::Hash + ?Sized>(v: &T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_instances() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_eq!(hash_of(&"abc"), hash_of(&"abc"));
        assert_ne!(hash_of(&1u64), hash_of(&2u64));
    }

    #[test]
    fn maps_work_with_mixed_keys() {
        let mut m: FxHashMap<(std::net::Ipv4Addr, u32), usize> = FxHashMap::default();
        for i in 0..1000u32 {
            m.insert((std::net::Ipv4Addr::from(i), i), i as usize);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m[&(std::net::Ipv4Addr::from(7u32), 7)], 7);
    }

    /// `hashbrown` takes a key's home bucket from the low bits of
    /// `finish()`. 800 far ends of an Atlas-like address plan
    /// (`10.h.l.2`: first two octets nearly constant) must spread over a
    /// 2 048-bucket table about as well as random hashes would (~660
    /// expected), not pile into the handful of buckets the first octet
    /// selects when the raw product is returned (4).
    #[test]
    fn ipv4_keys_spread_over_home_buckets() {
        let buckets: HashSet<u64> = (0..800usize)
            .map(|i| {
                let addr = std::net::Ipv4Addr::new(10, (i / 250) as u8, (i % 250) as u8, 2);
                hash_of(&addr) & 2047
            })
            .collect();
        assert!(
            buckets.len() >= 600,
            "800 keys share {} of 2048 home buckets",
            buckets.len()
        );
    }

    #[test]
    fn bytes_and_word_paths_differ_by_input() {
        // Sanity: distinct byte strings with shared prefixes separate.
        assert_ne!(hash_of(&[1u8, 2, 3][..]), hash_of(&[1u8, 2, 4][..]));
        assert_ne!(hash_of(&[0u8; 7][..]), hash_of(&[0u8; 8][..]));
    }
}
