//! Virtual time for the simulated serverless platform.
//!
//! All simulation clocks use integer nanoseconds so that event ordering is
//! exact and runs are bit-for-bit reproducible. Milliseconds are the natural
//! unit of the paper's measurements, so conversion helpers are provided for
//! both directions.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A span of virtual time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);

    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Builds a duration from fractional milliseconds, saturating at zero.
    ///
    /// Fractional inputs are routine: the paper's constants are values such
    /// as 7.5 ms (`T_Startup`) and 3.45 ms (`T_Block`).
    pub fn from_millis_f64(ms: f64) -> Self {
        if ms <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((ms * 1e6).round() as u64)
    }

    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Scales the duration by a non-negative factor, rounding to
    /// nanoseconds. Rounds half-up via `+0.5` and truncation — identical
    /// to `round()` for the non-negative products this takes, but a
    /// single convert instruction instead of `round`'s inlined
    /// sign-and-exponent dance (this sits on the per-dispatch hot path).
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        debug_assert!(factor >= 0.0, "negative duration scale");
        SimDuration((self.0 as f64 * factor + 0.5) as u64)
    }

    pub fn min(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.min(rhs.0))
    }

    pub fn max(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.max(rhs.0))
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
        debug_assert!(self.0 >= rhs.0, "SimDuration underflow");
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        debug_assert!(self.0 >= rhs.0, "SimDuration underflow");
        self.0 -= rhs.0;
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

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

/// An instant on the virtual clock, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    pub const ZERO: SimTime = SimTime(0);
    /// A sentinel instant later than any reachable simulation time.
    pub const FAR_FUTURE: SimTime = SimTime(u64::MAX);

    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    pub fn from_millis_f64(ms: f64) -> Self {
        SimTime(SimDuration::from_millis_f64(ms).as_nanos())
    }

    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Duration since an earlier instant.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        debug_assert!(self.0 >= earlier.0, "SimTime::since ordering");
        SimDuration(self.0 - earlier.0)
    }

    pub fn min(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.min(rhs.0))
    }

    pub fn max(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.max(rhs.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.as_nanos())
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.as_nanos();
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}ms", self.as_millis_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn millis_roundtrip() {
        let d = SimDuration::from_millis(7);
        assert_eq!(d.as_nanos(), 7_000_000);
        assert!((d.as_millis_f64() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn fractional_millis() {
        let d = SimDuration::from_millis_f64(7.5);
        assert_eq!(d.as_nanos(), 7_500_000);
        assert_eq!(SimDuration::from_millis_f64(-1.0), SimDuration::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = SimDuration::from_millis(10);
        let b = SimDuration::from_millis(4);
        assert_eq!((a + b).as_millis_f64(), 14.0);
        assert_eq!((a - b).as_millis_f64(), 6.0);
        assert_eq!((a * 3).as_millis_f64(), 30.0);
        assert_eq!((a / 2).as_millis_f64(), 5.0);
        assert_eq!(b.saturating_sub(a), SimDuration::ZERO);
    }

    #[test]
    fn time_advance_and_since() {
        let t0 = SimTime::ZERO;
        let t1 = t0 + SimDuration::from_millis(3);
        assert_eq!(t1.since(t0).as_millis_f64(), 3.0);
        assert!(t1 > t0);
        assert!(t1 < SimTime::FAR_FUTURE);
    }

    #[test]
    fn scale() {
        let d = SimDuration::from_millis(10).mul_f64(1.5);
        assert_eq!(d.as_millis_f64(), 15.0);
    }

    #[test]
    fn sum_and_minmax() {
        let total: SimDuration = [1u64, 2, 3]
            .iter()
            .map(|&ms| SimDuration::from_millis(ms))
            .sum();
        assert_eq!(total.as_millis_f64(), 6.0);
        let a = SimDuration::from_millis(1);
        let b = SimDuration::from_millis(2);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }
}
