//! Content digests.
//!
//! The shared-buffer scheme of the paper's research agenda ("virtual clients
//! can keep only the digest (e.g. IDs or hash) of the events") needs a cheap,
//! stable digest of notification content. We use 64-bit FNV-1a, computed over
//! a canonical byte encoding — no cryptographic strength is required, only
//! stability and a low accidental-collision rate.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A 64-bit content digest (FNV-1a over the canonical encoding).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Digest(u64);

impl Digest {
    /// Wraps a raw digest value.
    pub const fn from_raw(raw: u64) -> Self {
        Digest(raw)
    }

    /// Returns the raw 64-bit digest value.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Incremental FNV-1a hasher used to derive [`Digest`]s.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fnv1a {
    /// Creates a hasher in its initial state.
    pub const fn new() -> Self {
        Fnv1a(FNV_OFFSET)
    }

    /// Feeds raw bytes into the hasher.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds a `u64` (little-endian) into the hasher.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Feeds a `u32` (little-endian) into the hasher.
    pub fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    /// Feeds a single byte into the hasher.
    pub fn write_u8(&mut self, v: u8) {
        self.write(&[v]);
    }

    /// Finalises the hasher into a [`Digest`].
    pub fn finish(&self) -> Digest {
        Digest(self.0)
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // FNV-1a 64 test vectors.
        let mut h = Fnv1a::new();
        h.write(b"");
        assert_eq!(h.finish().raw(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv1a::new();
        h.write(b"a");
        assert_eq!(h.finish().raw(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv1a::new();
        h.write(b"foobar");
        assert_eq!(h.finish().raw(), 0x85944171f73967e8);
    }

    #[test]
    fn order_sensitivity() {
        let mut a = Fnv1a::new();
        a.write(b"ab");
        let mut b = Fnv1a::new();
        b.write(b"ba");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(Digest::from_raw(0xdead_beef).to_string(), "00000000deadbeef");
    }

    #[test]
    fn integer_helpers_match_byte_feeding() {
        let mut a = Fnv1a::new();
        a.write_u64(0x0102_0304_0506_0708);
        let mut b = Fnv1a::new();
        b.write(&0x0102_0304_0506_0708u64.to_le_bytes());
        assert_eq!(a.finish(), b.finish());
    }
}
