//! FNV-1a (64-bit): the one stable hash behind circuit fingerprints, atlas
//! checksums and frame checksums; and [`WordMix`], the cheap unpinned
//! hasher of hot-path maps.
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

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

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

/// A `HashMap` hashed by [`WordMix`].
pub type WordMixMap<K, V> = HashMap<K, V, BuildHasherDefault<WordMix>>;

/// A cheap hasher for the short-lived maps of hot paths
/// ([`crate::mat4::MatrixMemo`], coordinate-class interning): each integer
/// written, and each 64-bit word of a byte string, is mixed in with a
/// rotate, xor and multiply, and the result is avalanched so the table may
/// use any of its bits. Lookups still compare the full key, so a collision
/// costs time, never a wrong value. Unlike SipHash it is not keyed, and
/// unlike [`Fnv1a`] its values are not pinned anywhere. Keys may come from
/// a client (gate matrices on the serve path), and every map lives for one
/// call, so chosen collisions could at worst make that call's lookups
/// linear in the entries its map holds.
///
/// ```
/// use mirage_math::hash::WordMixMap;
///
/// let mut classes: WordMixMap<(u16, u16, u16), u32> = WordMixMap::default();
/// classes.insert((1, 2, 3), 0);
/// assert_eq!(classes.get(&(1, 2, 3)), Some(&0));
/// assert_eq!(classes.get(&(3, 2, 1)), None);
/// ```
#[derive(Debug, Default)]
pub struct WordMix(u64);

impl Hasher for WordMix {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.write_u64(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        for &b in words.remainder() {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u16(&mut self, n: u16) {
        self.write_u64(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x517C_C1B7_2722_0A95);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        // MurmurHash3's 64-bit finalizer.
        let mut h = self.0;
        h = (h ^ (h >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h = (h ^ (h >> 33)).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        h ^ (h >> 33)
    }
}
