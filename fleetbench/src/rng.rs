//! Seed mixing and input digests.
//!
//! Every input a workload builds derives from the `--seed` argument through
//! [`mix`], so the same seed always yields the same inputs; [`Digest`]
//! fingerprints those inputs for the determinism tests.

/// `splitmix64` finalizer: a well-mixed 64-bit hash of `x`.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Derives the seed of sub-stream `index` of `seed` (episode `i`, device
/// `j`, …). Distinct indices give independent streams.
pub fn mix(seed: u64, index: u64) -> u64 {
    splitmix64(seed ^ splitmix64(index.wrapping_add(0x5EED)))
}

/// A tiny deterministic generator for the benchmark's own choices (which
/// task a request asks for, where reports fall in the mix).
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }

    /// A uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// FNV-1a over the bytes fed to it: the input fingerprint the determinism
/// tests compare across seeds.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Feeds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    /// Feeds one integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Feeds floats bit-exactly.
    pub fn f64s(&mut self, vs: &[f64]) {
        for v in vs {
            self.u64(v.to_bits());
        }
    }

    /// The fingerprint so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}
