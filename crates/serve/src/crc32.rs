//! Hand-rolled table-driven CRC-32 (IEEE 802.3 / zlib polynomial).
//!
//! The build environment is fully offline, so instead of pulling a checksum
//! crate the frame codec uses this small implementation: slicing-by-8 over
//! eight 256-entry tables built at compile time from the reflected
//! polynomial `0xEDB88320`, falling back to the classic byte-at-a-time
//! loop for the unaligned tail. Slicing-by-8 processes eight payload bytes
//! per step, which matters because the client checksums every prior frame
//! it receives — on the keep-alive hot path the CRC verify is the largest
//! single CPU cost after the syscalls. The checksum value is identical to
//! the byte-at-a-time algorithm (the known-vector tests pin it), and
//! CRC-32 still detects *every* error burst of up to 32 bits, so any
//! single corrupted frame byte is guaranteed to be caught — the property
//! the serving layer's retry loop relies on (and that
//! `tests/frame_corruption.rs` exhaustively checks).

/// The reflected IEEE 802.3 generator polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes, which is what lets eight
/// bytes fold in one step.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
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
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// Incremental CRC-32 state, for checksumming non-contiguous byte runs
/// (the frame codec covers header fields and payload without copying them
/// into one buffer).
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Fresh checksum state.
    pub fn new() -> Self {
        Crc32 { state: !0 }
    }

    /// Folds `bytes` into the running checksum: slicing-by-8 over the
    /// aligned middle, byte-at-a-time over the tail.
    pub fn update(&mut self, bytes: &[u8]) -> &mut Self {
        let mut crc = self.state;
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
            let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
            crc = TABLES[7][(lo & 0xFF) as usize]
                ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
                ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
                ^ TABLES[4][((lo >> 24) & 0xFF) as usize]
                ^ TABLES[3][(hi & 0xFF) as usize]
                ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
                ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
                ^ TABLES[0][((hi >> 24) & 0xFF) as usize];
        }
        for &b in chunks.remainder() {
            crc = TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        self.state = crc;
        self
    }

    /// Final checksum value.
    pub fn finalize(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot CRC-32 of a contiguous byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    Crc32::new().update(bytes).finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The canonical check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        // 32 zero bytes — exercises the table's zero row.
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for split in [0usize, 1, 13, 500, 999, 1000] {
            let mut h = Crc32::new();
            h.update(&data[..split]).update(&data[split..]);
            assert_eq!(h.finalize(), crc32(&data));
        }
    }

    #[test]
    fn single_byte_changes_always_change_the_checksum() {
        let base = b"framed wire protocol".to_vec();
        let reference = crc32(&base);
        for i in 0..base.len() {
            for flip in 1..=255u8 {
                let mut corrupted = base.clone();
                corrupted[i] ^= flip;
                assert_ne!(crc32(&corrupted), reference, "byte {i} xor {flip} collided");
            }
        }
    }
}
