//! Simulated time.
//!
//! The kernel measures time in integer **microseconds** so that event ordering
//! is exact and runs are bit-for-bit reproducible. Two newtypes keep instants
//! and durations apart ([`SimTime`] and [`SimDuration`]); mixing them up is a
//! compile error rather than a latent bug.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulated clock, in microseconds since simulation start.
///
/// ```
/// use mutsvc_desim::time::{SimTime, SimDuration};
///
/// let t = SimTime::ZERO + SimDuration::from_millis(100);
/// assert_eq!(t.as_micros(), 100_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in microseconds.
///
/// ```
/// use mutsvc_desim::time::SimDuration;
///
/// let d = SimDuration::from_millis(2) + SimDuration::from_micros(500);
/// assert_eq!(d.as_millis_f64(), 2.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from microseconds since simulation start.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Creates an instant from milliseconds since simulation start.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Creates an instant from seconds since simulation start.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Microseconds since simulation start.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Milliseconds since simulation start, as a float (for reporting).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Seconds since simulation start, as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Duration elapsed since `earlier`.
    ///
    /// Returns [`SimDuration::ZERO`] if `earlier` is in the future, mirroring
    /// `std::time::Instant::saturating_duration_since`.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimDuration {
    /// An empty span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Creates a duration from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Creates a duration from fractional milliseconds, rounding to the
    /// nearest microsecond. Negative and non-finite inputs clamp to zero.
    pub fn from_millis_f64(ms: f64) -> Self {
        if !ms.is_finite() || ms <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((ms * 1_000.0).round() as u64)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// microsecond. Negative and non-finite inputs clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((s * 1_000_000.0).round() as u64)
    }

    /// The span in whole microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// The span in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// The span in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// `true` if the span is empty.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplies the span by a non-negative factor, rounding to the nearest
    /// microsecond. Negative and non-finite factors clamp to zero.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        if !factor.is_finite() || factor <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((self.0 as f64 * factor).round() as u64)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// The larger of two spans.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// The smaller of two spans.
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// Elapsed time between two instants.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`; saturates to zero
    /// in release builds.
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self >= rhs, "SimTime subtraction underflow: {self} - {rhs}");
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = self.saturating_sub(rhs);
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_millis(5).as_micros(), 5_000);
        assert_eq!(SimTime::from_secs(2).as_millis_f64(), 2_000.0);
        assert_eq!(SimDuration::from_secs(1).as_micros(), 1_000_000);
        assert_eq!(SimDuration::from_millis_f64(1.5).as_micros(), 1_500);
        assert_eq!(SimDuration::from_secs_f64(0.25).as_millis_f64(), 250.0);
    }

    #[test]
    fn negative_and_nan_float_durations_clamp_to_zero() {
        assert_eq!(SimDuration::from_millis_f64(-3.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_millis_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_secs_f64(f64::NEG_INFINITY),
            SimDuration::ZERO
        );
        assert_eq!(SimDuration::from_millis(7).mul_f64(-1.0), SimDuration::ZERO);
    }

    #[test]
    fn arithmetic_behaves() {
        let t = SimTime::from_millis(10) + SimDuration::from_millis(5);
        assert_eq!(t, SimTime::from_millis(15));
        assert_eq!(t - SimTime::from_millis(10), SimDuration::from_millis(5));
        assert_eq!(
            SimDuration::from_millis(4) * 3,
            SimDuration::from_millis(12)
        );
        assert_eq!(
            SimDuration::from_millis(12) / 4,
            SimDuration::from_millis(3)
        );
        assert_eq!(
            SimDuration::from_millis(3).saturating_sub(SimDuration::from_millis(10)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn saturating_since_clamps() {
        let early = SimTime::from_millis(1);
        let late = SimTime::from_millis(9);
        assert_eq!(late.saturating_since(early), SimDuration::from_millis(8));
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
    }

    #[test]
    fn display_is_nonempty_and_scaled() {
        assert_eq!(format!("{}", SimDuration::from_micros(7)), "7us");
        assert_eq!(format!("{}", SimDuration::from_micros(1_500)), "1.500ms");
        assert_eq!(format!("{}", SimDuration::from_secs(2)), "2.000s");
        assert_eq!(format!("{}", SimTime::from_millis(1_500)), "1.500s");
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_millis).sum();
        assert_eq!(total, SimDuration::from_millis(10));
    }

    #[test]
    fn ordering_is_chronological() {
        assert!(SimTime::from_micros(1) < SimTime::from_micros(2));
        assert!(SimTime::MAX > SimTime::from_secs(1_000_000));
    }
}
