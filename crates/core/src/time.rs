//! Simulated clock types shared by every crate in the workspace.
//!
//! All REBECA components are driven either by the deterministic
//! discrete-event simulator or by the live multi-process runtime; both express
//! time as [`SimTime`] (a point on the simulated clock) and [`SimDuration`]
//! (a span), with microsecond resolution.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in simulated time, measured in microseconds since the start of a
/// run.
///
/// `SimTime` is totally ordered and cheap to copy; subtraction of two times
/// yields a [`SimDuration`] and saturates at zero rather than underflowing.
///
/// ```
/// use rebeca_core::{SimDuration, SimTime};
/// let t = SimTime::from_millis(5) + SimDuration::from_millis(3);
/// assert_eq!(t, SimTime::from_millis(8));
/// assert_eq!(t - SimTime::from_millis(6), SimDuration::from_millis(2));
/// ```
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct SimTime(u64);

crate::wire_table! { struct SimTime { 0: u64 } }

/// A span of simulated time, measured in microseconds.
///
/// ```
/// use rebeca_core::SimDuration;
/// assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1000));
/// assert_eq!(SimDuration::from_millis(2) * 3, SimDuration::from_millis(6));
/// ```
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant (used as "never" sentinel).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from microseconds since the start of the run.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates a time from milliseconds since the start of the run.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000)
    }

    /// Creates a time from seconds since the start of the run.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000)
    }

    /// Returns the time as whole microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the time as whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Returns the time as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Duration elapsed since `earlier`, saturating at zero if `earlier` is
    /// in the future.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Adds a duration, saturating at [`SimTime::MAX`].
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The greatest representable duration (used as "forever" sentinel).
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000)
    }

    /// Creates a duration from seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000)
    }

    /// Returns the duration as whole microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the duration as whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Returns the duration as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Returns `true` if the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating difference between two durations.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 == u64::MAX {
            write!(f, "forever")
        } else {
            write!(f, "{:.6}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(SimTime::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(SimTime::from_millis(2).as_micros(), 2_000);
        assert_eq!(SimDuration::from_secs(1).as_millis(), 1_000);
        assert!((SimDuration::from_millis(1500).as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_millis(10);
        assert_eq!(t + SimDuration::from_millis(5), SimTime::from_millis(15));
        assert_eq!(t - SimDuration::from_millis(5), SimTime::from_millis(5));
        assert_eq!(t - SimTime::from_millis(4), SimDuration::from_millis(6));
        // Saturation instead of underflow.
        assert_eq!(SimTime::from_millis(1) - SimTime::from_millis(9), SimDuration::ZERO);
        assert_eq!(t - SimDuration::from_secs(100), SimTime::ZERO);
    }

    #[test]
    fn scaling() {
        assert_eq!(SimDuration::from_millis(3) * 4, SimDuration::from_millis(12));
        assert_eq!(SimDuration::from_millis(12) / 4, SimDuration::from_millis(3));
    }

    #[test]
    fn ordering_and_display() {
        assert!(SimTime::ZERO < SimTime::from_micros(1));
        assert_eq!(SimTime::from_millis(1500).to_string(), "t+1.500000s");
        assert_eq!(SimDuration::from_millis(2).to_string(), "0.002000s");
        assert_eq!(SimDuration::MAX.to_string(), "forever");
    }

    #[test]
    fn saturating_helpers() {
        assert_eq!(SimTime::MAX.saturating_add(SimDuration::from_secs(1)), SimTime::MAX);
        assert_eq!(
            SimTime::from_secs(1).saturating_since(SimTime::from_secs(2)),
            SimDuration::ZERO
        );
        assert_eq!(
            SimDuration::from_millis(1).saturating_sub(SimDuration::from_millis(2)),
            SimDuration::ZERO
        );
    }
}
