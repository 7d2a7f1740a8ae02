//! A tiny deterministic PRNG for the substrate's internal needs.
//!
//! Random topologies and reconnect backoff must be reproducible across runs
//! and independent of external crate versions, so the substrate uses its
//! own SplitMix64 generator. Workload generation in higher layers uses the
//! `rand` crate — this type is only for substrate-internal randomness.

use serde::{Deserialize, Serialize};

/// SplitMix64: tiny, fast, well-distributed 64-bit PRNG.
///
/// ```
/// use rebeca_net::SplitMix64;
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // fully deterministic
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Returns the next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Returns a value uniform in `[0, bound)`; `bound` must be non-zero.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be non-zero");
        // Multiply-shift reduction; bias is negligible for simulator use.
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_sequences() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(1);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn bounded_values_in_range() {
        let mut r = SplitMix64::new(7);
        for _ in 0..1000 {
            assert!(r.next_below(10) < 10);
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(9);
        for _ in 0..1000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_bound_panics() {
        SplitMix64::new(0).next_below(0);
    }
}
