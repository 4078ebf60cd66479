//! A minimal Fx-style hasher for the keyspace.
//!
//! `std`'s default SipHash is DoS-resistant but costs ~1 ns/byte with a
//! long setup; the keyspace map is the single hottest hash table in the
//! simulator and its keys are short, trusted byte strings generated by
//! the workload itself, so a multiply-xor hasher (the FxHash scheme used
//! by rustc) is several times faster. Determinism matters more than
//! ever: this hasher is fully deterministic across processes, which also
//! removes a source of iteration-order variance between runs with
//! identical seeds.
//!
//! The raw Fx state is not a usable hash on its own. Its word loop ends in
//! a multiply, so the low k bits of the state depend only on the low k
//! bits of the last input word. Keys that differ only in their middle
//! bytes — the bench client's `key:000000001234`, whose 8-byte words keep
//! their low bytes fixed — all land in one bucket of a table indexed by
//! low bits, and every insert and lookup walks a chain as long as the
//! keyspace. [`FxHasher::finish`] therefore applies a finalizer (the
//! first xor-shift-multiply round of Murmur3's fmix64), which spreads
//! every input bit over the low bits and the high bits alike. The
//! engine map (low bits), the read view (top bits for its shard, low bits
//! for its probe) and the server's shard routing (modulo) all rely on it.

use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-xor hasher over word-sized chunks (FxHash scheme).
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    /// The Fx state through the finalizer (see the module docs for why
    /// the raw state is not enough).
    #[inline]
    fn finish(&self) -> u64 {
        let mut x = self.hash;
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^ (x >> 33)
    }

    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while bytes.len() >= 8 {
            self.add(u64::from_le_bytes(bytes[..8].try_into().unwrap()));
            bytes = &bytes[8..];
        }
        if bytes.len() >= 4 {
            self.add(u64::from(u32::from_le_bytes(
                bytes[..4].try_into().unwrap(),
            )));
            bytes = &bytes[4..];
        }
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// `BuildHasher` for [`FxHasher`]; plug into `HashMap::with_hasher`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::hash::Hash;

    #[test]
    fn distinct_keys_hash_differently() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u32 {
            let mut h = FxHasher::default();
            h.write(format!("key:{i:08}").as_bytes());
            seen.insert(h.finish());
        }
        // A real collision in 10k short keys would indicate a broken mix.
        assert!(seen.len() >= 9_990, "{} distinct hashes", seen.len());
    }

    /// The bench keyspace (`key:%012d`, 16 384 keys) hashed the two ways
    /// the crate hashes keys: `Hash for [u8]` (length prefix, then bytes)
    /// as the engine map does, and a bare `Hasher::write` as the read view
    /// does. Without a finalizer every key shares one low-15-bit bucket.
    #[test]
    fn bench_keys_spread_over_buckets_and_view_shards() {
        const KEYS: usize = 16_384;
        const BUCKETS: usize = 1 << 15;
        let keys: Vec<Vec<u8>> = (0..KEYS)
            .map(|i| format!("key:{i:012}").into_bytes())
            .collect();
        let hash_all = |hash: fn(&[u8], &mut FxHasher)| -> Vec<u64> {
            keys.iter()
                .map(|k| {
                    let mut h = FxHasher::default();
                    hash(k, &mut h);
                    h.finish()
                })
                .collect()
        };
        // Distinct buckets a uniform hash gives for n keys over m buckets.
        let uniform = BUCKETS as f64 * (1.0 - (-(KEYS as f64) / BUCKETS as f64).exp());
        for (how, hashes) in [
            ("Hash for [u8]", hash_all(|k, h| k.hash(h))),
            ("Hasher::write", hash_all(|k, h| h.write(k))),
        ] {
            let mut load = vec![0u32; BUCKETS];
            for h in &hashes {
                load[(*h as usize) & (BUCKETS - 1)] += 1;
            }
            let distinct = load.iter().filter(|&&n| n > 0).count();
            let max = *load.iter().max().unwrap();
            assert!(
                distinct as f64 >= 0.9 * uniform,
                "{how}: {distinct} distinct low-15-bit buckets, uniform gives {uniform:.0}"
            );
            assert!(max <= 12, "{how}: max bucket load {max}");
            let mut view_shards = [false; 16];
            for h in &hashes {
                view_shards[(h >> 60) as usize] = true;
            }
            assert!(
                view_shards.iter().all(|&hit| hit),
                "{how}: view shards hit {view_shards:?}"
            );
        }
    }

    #[test]
    fn works_as_map_hasher() {
        let mut m: HashMap<Vec<u8>, u32, FxBuildHasher> = HashMap::default();
        for i in 0..1000u32 {
            m.insert(i.to_le_bytes().to_vec(), i);
        }
        for i in 0..1000u32 {
            assert_eq!(m[&i.to_le_bytes().to_vec()], i);
        }
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write(b"the same bytes");
        b.write(b"the same bytes");
        assert_eq!(a.finish(), b.finish());
    }
}
