//! Wire format for the cloud→edge knowledge transfer.
//!
//! The paper's entire transfer is the finite DP-mixture summary; this
//! module gives it a versioned little-endian binary encoding so the
//! simulator's byte counts correspond to an artifact that actually exists:
//!
//! ```text
//! magic  u32   0x4452_4F45 ("DROE")
//! ver    u8    1
//! k      u32   number of components
//! d      u32   parameter dimension
//! per component:
//!   weight f64
//!   mean   d × f64
//!   cov    d(d+1)/2 × f64   (upper triangle, row major)
//! ```
//!
//! The payload arrives from the network, so [`deserialize_prior`] reads it
//! through [`Cursor`], a checked little-endian cursor that the serving
//! layer's frame decoder shares: every read is bounds-checked, the declared
//! shape is sized with checked arithmetic, and no input can make the
//! decoder panic.

use dre_bayes::MixturePrior;
use dre_linalg::Matrix;

use crate::{EdgeError, Result};

const MAGIC: u32 = 0x4452_4F45; // "DROE"

/// The single wire-format version this build reads and writes.
pub const VERSION: u8 = 1;

/// Fixed header size: magic (4) + version (1) + k (4) + d (4).
pub const HEADER_LEN: usize = 13;

/// Exact length in bytes of [`serialize_prior`]'s output for a `k`-component
/// mixture over `d`-dimensional parameters.
///
/// `const` so downstream layers (the serving frame codec, the deployment
/// simulator) can size payloads without constructing a prior — and a unit
/// test pins it against the real encoder so the arithmetic can never drift.
pub const fn encoded_len(k: usize, d: usize) -> usize {
    HEADER_LEN + k * 8 * (1 + d + d * (d + 1) / 2)
}

/// A read past the end of untrusted bytes (or, from [`Cursor::done`],
/// bytes left over), carrying the reason the reader attached to it.
/// `From` impls turn it into the caller's own error type, so `?` works in
/// any decoder that reads through a [`Cursor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShortRead {
    /// What the bytes failed to be.
    pub reason: &'static str,
}

/// Checked little-endian cursor over untrusted bytes, shared by this
/// module's prior decoder and the serving layer's frame decoder. Every
/// read is bounds-checked; a read past the end, or unread bytes at
/// [`Cursor::done`], fails with the cursor's current reason, so a grammar
/// needs no separate length check and no read can panic.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    reason: &'static str,
}

#[deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
impl<'a> Cursor<'a> {
    /// A cursor over `buf` whose short reads fail with `reason`.
    pub fn new(buf: &'a [u8], reason: &'static str) -> Self {
        Cursor { buf, reason }
    }

    /// Replaces the reason carried by later short reads.
    pub fn set_reason(&mut self, reason: &'static str) {
        self.reason = reason;
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    fn short(&self) -> ShortRead {
        ShortRead {
            reason: self.reason,
        }
    }

    /// Reads the next `N` bytes.
    pub fn take<const N: usize>(&mut self) -> std::result::Result<[u8; N], ShortRead> {
        let (head, tail) = self.buf.split_first_chunk::<N>().ok_or(self.short())?;
        self.buf = tail;
        Ok(*head)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> std::result::Result<u8, ShortRead> {
        self.take::<1>().map(|[b]| b)
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> std::result::Result<u32, ShortRead> {
        self.take().map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> std::result::Result<u64, ShortRead> {
        self.take().map(u64::from_le_bytes)
    }

    /// Reads a little-endian `f64`.
    pub fn f64(&mut self) -> std::result::Result<f64, ShortRead> {
        self.take().map(f64::from_le_bytes)
    }

    /// Borrows the next `n` bytes.
    pub fn bytes(&mut self, n: usize) -> std::result::Result<&'a [u8], ShortRead> {
        let (head, tail) = self.buf.split_at_checked(n).ok_or(self.short())?;
        self.buf = tail;
        Ok(head)
    }

    /// Borrows every byte not yet read.
    pub fn rest(self) -> &'a [u8] {
        self.buf
    }

    /// Succeeds only when every byte has been read.
    pub fn done(&self) -> std::result::Result<(), ShortRead> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(self.short())
        }
    }
}

/// Serializes a mixture prior into the versioned wire format.
///
/// The result's length equals
/// [`MixturePrior::serialized_size_bytes`] plus the 13-byte header.
pub fn serialize_prior(prior: &MixturePrior) -> Vec<u8> {
    let k = prior.num_components();
    let d = prior.dim();
    let mut out = Vec::with_capacity(13 + prior.serialized_size_bytes());
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.push(VERSION);
    out.extend_from_slice(&(k as u32).to_le_bytes());
    out.extend_from_slice(&(d as u32).to_le_bytes());
    for comp in prior.components() {
        out.extend_from_slice(&comp.weight().to_le_bytes());
        for &m in comp.mean() {
            out.extend_from_slice(&m.to_le_bytes());
        }
        let cov = comp.cov();
        for i in 0..d {
            for j in i..d {
                out.extend_from_slice(&cov[(i, j)].to_le_bytes());
            }
        }
    }
    out
}

/// Deserializes a mixture prior from the wire format.
///
/// # Errors
///
/// Returns [`EdgeError::InvalidData`] for truncated input, a wrong magic,
/// or inconsistent sizes; [`EdgeError::UnsupportedVersion`] for any `ver`
/// byte other than [`VERSION`]; [`EdgeError::TrailingBytes`] when bytes
/// remain after the last declared component; and propagates validation
/// failures from [`MixturePrior::new`] (e.g. a tampered covariance that is
/// no longer positive semi-definite).
#[deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
pub fn deserialize_prior(bytes: &[u8]) -> Result<MixturePrior> {
    let mut buf = Cursor::new(bytes, "prior payload shorter than its header");
    // The header is taken whole, so a short payload reads as short rather
    // than as a wrong magic.
    let header = buf.take::<HEADER_LEN>()?;
    let mut header = Cursor::new(&header, "prior payload shorter than its header");
    if header.u32()? != MAGIC {
        return Err(EdgeError::InvalidData {
            reason: "prior payload has wrong magic",
        });
    }
    let ver = header.u8()?;
    if ver != VERSION {
        return Err(EdgeError::UnsupportedVersion {
            found: ver,
            supported: VERSION,
        });
    }
    let k = header.u32()? as usize;
    let d = header.u32()? as usize;
    if k == 0 || d == 0 {
        return Err(EdgeError::InvalidData {
            reason: "prior payload declares zero components or dimension",
        });
    }
    // 8 · k · (1 + d + d(d+1)/2), checked: a hostile `d` near `u32::MAX`
    // must be an error, not an overflow.
    let need = d
        .checked_add(1)
        .and_then(|d1| (d.checked_mul(d1)? / 2).checked_add(d1))
        .and_then(|per_comp| per_comp.checked_mul(8)?.checked_mul(k))
        .ok_or(EdgeError::InvalidData {
            reason: "prior payload declares an impossibly large shape",
        })?;
    const SHORT_BODY: &str = "prior payload shorter than its declared shape";
    buf.set_reason(SHORT_BODY);
    let mut body = Cursor::new(buf.bytes(need)?, SHORT_BODY);
    if buf.remaining() > 0 {
        return Err(EdgeError::TrailingBytes {
            extra: buf.remaining(),
        });
    }
    let mut components = Vec::with_capacity(k);
    for _ in 0..k {
        let weight = body.f64()?;
        let mean = (0..d)
            .map(|_| body.f64())
            .collect::<std::result::Result<_, _>>()?;
        let mut cov = Matrix::zeros(d, d);
        for i in 0..d {
            for j in i..d {
                let v = body.f64()?;
                cov[(i, j)] = v;
                cov[(j, i)] = v;
            }
        }
        components.push((weight, mean, cov));
    }
    MixturePrior::new(components).map_err(EdgeError::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A bare header declaring `k` components of dimension `d`.
    fn header(k: u32, d: u32) -> Vec<u8> {
        let mut out = MAGIC.to_le_bytes().to_vec();
        out.push(VERSION);
        out.extend_from_slice(&k.to_le_bytes());
        out.extend_from_slice(&d.to_le_bytes());
        out
    }

    fn sample_prior() -> MixturePrior {
        MixturePrior::new(vec![
            (0.55, vec![1.0, -2.0, 0.5], {
                let mut m = Matrix::from_diag(&[1.0, 2.0, 0.5]);
                m[(0, 1)] = 0.3;
                m[(1, 0)] = 0.3;
                m
            }),
            (0.45, vec![-1.0, 0.0, 4.0], Matrix::identity(3)),
        ])
        .unwrap()
    }

    #[test]
    fn roundtrip_preserves_the_prior_exactly() {
        let prior = sample_prior();
        let bytes = serialize_prior(&prior);
        assert_eq!(bytes.len(), 13 + prior.serialized_size_bytes());
        let back = deserialize_prior(&bytes).unwrap();
        assert_eq!(back.num_components(), prior.num_components());
        assert_eq!(back.dim(), prior.dim());
        for (a, b) in prior.components().iter().zip(back.components()) {
            assert_eq!(a.weight(), b.weight());
            assert_eq!(a.mean(), b.mean());
            assert!(a.cov().sub(&b.cov()).unwrap().frobenius_norm() < 1e-12);
        }
        // Densities agree everywhere we probe.
        for theta in [[0.0, 0.0, 0.0], [1.0, -2.0, 0.5], [-3.0, 2.0, 1.0]] {
            assert!((prior.log_pdf(&theta) - back.log_pdf(&theta)).abs() < 1e-12);
        }
    }

    #[test]
    fn rejects_corrupted_payloads() {
        let prior = sample_prior();
        let bytes = serialize_prior(&prior);

        // Truncated.
        assert!(deserialize_prior(&bytes[..5]).is_err());
        assert!(deserialize_prior(&bytes[..bytes.len() - 1]).is_err());
        // Wrong magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(deserialize_prior(&bad).is_err());
        // Wrong version.
        let mut bad = bytes.clone();
        bad[4] = 99;
        assert!(deserialize_prior(&bad).is_err());
        // Declared shape mismatch (raise k without adding data).
        let mut bad = bytes.clone();
        bad[5] = bad[5].wrapping_add(1);
        assert!(deserialize_prior(&bad).is_err());
        // Empty payload claims.
        assert!(deserialize_prior(&header(0, 3)).is_err());
    }

    #[test]
    fn trailing_bytes_are_a_typed_error() {
        let prior = sample_prior();
        let mut bytes = serialize_prior(&prior);
        bytes.push(0);
        assert_eq!(
            deserialize_prior(&bytes).unwrap_err(),
            EdgeError::TrailingBytes { extra: 1 }
        );
        bytes.extend_from_slice(&[7; 4]);
        assert_eq!(
            deserialize_prior(&bytes).unwrap_err(),
            EdgeError::TrailingBytes { extra: 5 }
        );
        // A *short* payload is still the plain invalid-data error.
        let whole = serialize_prior(&prior);
        assert!(matches!(
            deserialize_prior(&whole[..whole.len() - 1]),
            Err(EdgeError::InvalidData { .. })
        ));
    }

    #[test]
    fn huge_declared_dimension_is_invalid_data_not_an_overflow() {
        // 13 bytes: k = 1, d = u32::MAX. Sizing the components overflows
        // `usize`, which must be a typed error in every build profile.
        assert_eq!(
            deserialize_prior(&header(1, u32::MAX)).unwrap_err(),
            EdgeError::InvalidData {
                reason: "prior payload declares an impossibly large shape",
            }
        );
    }

    #[test]
    fn future_version_byte_is_a_typed_error() {
        let prior = sample_prior();
        let mut bytes = serialize_prior(&prior);
        for future in [0u8, 2, 3, 0xFF] {
            bytes[4] = future;
            assert_eq!(
                deserialize_prior(&bytes).unwrap_err(),
                EdgeError::UnsupportedVersion {
                    found: future,
                    supported: VERSION,
                },
                "version byte {future} must be rejected with a typed error"
            );
        }
    }

    #[test]
    fn encoded_len_matches_the_real_encoder() {
        for (k, d) in [(1usize, 1usize), (2, 3), (5, 4), (3, 9)] {
            let components: Vec<(f64, Vec<f64>, Matrix)> = (0..k)
                .map(|i| {
                    let mut cov = Matrix::identity(d);
                    cov.add_diag(i as f64);
                    (1.0 / k as f64, vec![i as f64; d], cov)
                })
                .collect();
            let prior = MixturePrior::new(components).unwrap();
            assert_eq!(serialize_prior(&prior).len(), encoded_len(k, d));
        }
    }

    #[test]
    fn tampered_covariance_fails_validation_not_ub() {
        let prior = sample_prior();
        let mut bytes = serialize_prior(&prior);
        // Overwrite the first covariance diagonal entry with a large
        // negative number: deserialization must surface a clean error.
        let cov_offset = 13 + 8 + 3 * 8; // header + weight + mean
        bytes[cov_offset..cov_offset + 8].copy_from_slice(&(-1e6f64).to_le_bytes());
        assert!(deserialize_prior(&bytes).is_err());
    }

    #[test]
    fn size_formula_matches_gibbs_fitted_prior() {
        use dre_data::{TaskFamily, TaskFamilyConfig};
        use dre_prob::seeded_rng;
        let mut rng = seeded_rng(77);
        let family = TaskFamily::generate(
            &TaskFamilyConfig {
                dim: 3,
                num_clusters: 2,
                ..TaskFamilyConfig::default()
            },
            &mut rng,
        )
        .unwrap();
        let cloud = crate::CloudKnowledge::from_family(&family, 12, 200, 1.0, &mut rng).unwrap();
        let bytes = serialize_prior(cloud.prior());
        assert_eq!(bytes.len(), 13 + cloud.transfer_size_bytes());
        let back = deserialize_prior(&bytes).unwrap();
        assert_eq!(back.num_components(), cloud.prior().num_components());
    }
}
