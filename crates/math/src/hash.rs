//! FNV-1a (64-bit): the one stable hash behind circuit fingerprints, atlas
//! checksums and frame checksums.
//!
//! Unlike `std`'s `DefaultHasher`, whose keys are unspecified, FNV-1a is
//! fixed across processes, platforms and releases, so pinned values stay
//! valid. It is not cryptographic: it catches corruption and drift, not
//! adversaries.
//!
//! ```
//! use mirage_math::hash::{fnv1a, Fnv1a};
//!
//! let mut h = Fnv1a::new();
//! h.write_bytes(b"mirage");
//! assert_eq!(h.finish(), fnv1a(b"mirage"));
//! assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
//! ```

/// A streaming FNV-1a (64-bit) hasher: feeding bytes in pieces gives the
/// same hash as [`fnv1a`] over their concatenation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher over the empty input.
    pub fn new() -> Fnv1a {
        Fnv1a(0xCBF2_9CE4_8422_2325)
    }

    /// Feed raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Feed a `u64` as its little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Feed an `f64` as the little-endian bytes of its bit pattern, so
    /// every distinct value (signed zeros and NaN payloads included)
    /// hashes distinctly.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// The hash of everything fed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

/// FNV-1a (64-bit) of a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write_bytes(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_F739_67E8);
    }

    #[test]
    fn streaming_equals_one_shot() {
        let mut h = Fnv1a::new();
        h.write_u64(7);
        h.write_f64(-0.0);
        let mut bytes = 7u64.to_le_bytes().to_vec();
        bytes.extend_from_slice(&(-0.0f64).to_bits().to_le_bytes());
        assert_eq!(h.finish(), fnv1a(&bytes));
    }
}
