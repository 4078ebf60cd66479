//! CRC-32 (IEEE 802.3 polynomial), slicing-by-16.
//!
//! Used to protect WAL records and snapshot streams, as Redis protects RDB
//! files with CRC-64. A torn or bit-flipped record fails its checksum and
//! recovery stops at the last good record.
//!
//! The checksum runs over every WAL record twice (encode and replay), over
//! every snapshot stream and over every `DEBUG DIGEST`, so its speed is on
//! the write path. Slicing-by-16 folds 16 input bytes per step through 16
//! lookup tables: table `k` maps a byte to its contribution after `k`
//! further zero bytes. The values are exactly those of the byte-at-a-time
//! loop (kept as the test oracle), so every on-device checksum is
//! unchanged.

/// Reflected polynomial for CRC-32/ISO-HDLC (the zlib/PNG CRC).
const POLY: u32 = 0xEDB8_8320;

/// Bytes folded per slicing step.
const SLICE: usize = 16;

/// The slicing tables, built at compile time. `TABLES[0]` is the classic
/// byte-wise table.
const TABLES: [[u32; 256]; SLICE] = build_tables();

const fn build_tables() -> [[u32; 256]; SLICE] {
    let mut t = [[0u32; 256]; SLICE];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < SLICE {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Streaming CRC-32 state.
#[derive(Clone, Copy, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Fresh checksum state.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Absorbs bytes.
    pub fn update(&mut self, data: &[u8]) {
        let t = &TABLES;
        let mut crc = self.state;
        let mut blocks = data.chunks_exact(SLICE);
        for b in &mut blocks {
            let x = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            crc = t[15][(x & 0xFF) as usize]
                ^ t[14][((x >> 8) & 0xFF) as usize]
                ^ t[13][((x >> 16) & 0xFF) as usize]
                ^ t[12][(x >> 24) as usize]
                ^ t[11][b[4] as usize]
                ^ t[10][b[5] as usize]
                ^ t[9][b[6] as usize]
                ^ t[8][b[7] as usize]
                ^ t[7][b[8] as usize]
                ^ t[6][b[9] as usize]
                ^ t[5][b[10] as usize]
                ^ t[4][b[11] as usize]
                ^ t[3][b[12] as usize]
                ^ t[2][b[13] as usize]
                ^ t[1][b[14] as usize]
                ^ t[0][b[15] as usize];
        }
        self.state = bytewise(crc, blocks.remainder());
    }

    /// Final checksum value.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// The byte-at-a-time kernel: the tail after the last full slice, and the
/// test oracle for the sliced loop.
fn bytewise(mut crc: u32, data: &[u8]) -> u32 {
    for &b in data {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// One-shot convenience.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Std-only LCG (Knuth's MMIX constants) for the differential tests.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            self.0 >> 33
        }
        fn bytes(&mut self, n: usize) -> Vec<u8> {
            (0..n).map(|_| (self.next() >> 8) as u8).collect()
        }
    }

    fn oracle(data: &[u8]) -> u32 {
        bytewise(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        // Longer than one slice, so the sliced loop runs.
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn sliced_matches_bytewise_at_every_length_and_offset() {
        for seed in [1u64, 7, 0xDEAD_BEEF] {
            let mut rng = Lcg(seed);
            let buf = rng.bytes(9000 + 16);
            // Every length up to 256, then a stride coprime to 16 so the
            // longer lengths still hit every tail size.
            for len in (0..=256).chain((257..=9000).step_by(61)) {
                for off in 0..16 {
                    let data = &buf[off..off + len];
                    assert_eq!(crc32(data), oracle(data), "seed {seed} len {len} off {off}");
                }
            }
        }
    }

    #[test]
    fn streaming_in_random_splits_matches_bytewise() {
        for seed in 1..=8u64 {
            let mut rng = Lcg(seed);
            let len = (rng.next() % 9000) as usize;
            let data = rng.bytes(len);
            let want = oracle(&data);
            // Random split sizes, 1-byte splits and splits that straddle
            // 16-byte boundaries.
            for max_split in [1usize, 2, 15, 17, 33, 4097] {
                let mut c = Crc32::new();
                let mut at = 0;
                while at < data.len() {
                    let n = (1 + rng.next() as usize % max_split).min(data.len() - at);
                    c.update(&data[at..at + n]);
                    at += n;
                }
                assert_eq!(c.finish(), want, "seed {seed} max split {max_split}");
            }
        }
    }

    #[test]
    fn streaming_equals_oneshot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut c = Crc32::new();
        for chunk in data.chunks(7) {
            c.update(chunk);
        }
        assert_eq!(c.finish(), crc32(data));
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = vec![0x5Au8; 1000];
        let good = crc32(&data);
        data[500] ^= 0x01;
        assert_ne!(crc32(&data), good);
    }

    #[test]
    fn detects_truncation() {
        let data = vec![1u8, 2, 3, 4, 5, 6, 7, 8];
        assert_ne!(crc32(&data), crc32(&data[..7]));
    }
}
