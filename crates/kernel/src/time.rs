//! Simulation time, modeled after `sc_core::sc_time`.
//!
//! Time is stored as an integer number of **picoseconds**, which matches the
//! default SystemC resolution closely enough for transaction-level models
//! while keeping arithmetic exact. A `u64` picosecond counter covers roughly
//! 213 days of simulated time — far beyond any VP session.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (or duration of) simulated time, in picoseconds.
///
/// ```
/// use vpdift_kernel::SimTime;
/// let t = SimTime::from_ms(25);
/// assert_eq!(t.as_ns(), 25_000_000);
/// assert_eq!(t + SimTime::from_ms(5), SimTime::from_ms(30));
/// ```
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The zero duration / simulation start.
    pub const ZERO: SimTime = SimTime(0);
    /// The maximum representable time: the end of time, which the clock
    /// never reaches (a deadline here never fires).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from raw picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }
    /// Creates a time from nanoseconds (saturating at the end of time).
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns.saturating_mul(1_000))
    }
    /// Creates a time from microseconds.
    pub const fn from_us(us: u64) -> Self {
        SimTime(us.saturating_mul(1_000_000))
    }
    /// Creates a time from milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms.saturating_mul(1_000_000_000))
    }
    /// Creates a time from seconds.
    pub const fn from_s(s: u64) -> Self {
        SimTime(s.saturating_mul(1_000_000_000_000))
    }

    /// Raw picosecond count.
    pub const fn as_ps(self) -> u64 {
        self.0
    }
    /// Whole nanoseconds (truncating).
    pub const fn as_ns(self) -> u64 {
        self.0 / 1_000
    }
    /// Whole microseconds (truncating).
    pub const fn as_us(self) -> u64 {
        self.0 / 1_000_000
    }
    /// Whole milliseconds (truncating).
    pub const fn as_ms(self) -> u64 {
        self.0 / 1_000_000_000
    }
    /// Fractional seconds, for reporting.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// `true` iff this is [`SimTime::ZERO`].
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating addition, used by timed devices to avoid wrapping at the
    /// end-of-time sentinel.
    #[must_use]
    pub const fn saturating_add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }

    /// Checked subtraction; `None` when `rhs > self`.
    #[must_use]
    pub const fn checked_sub(self, rhs: SimTime) -> Option<SimTime> {
        match self.0.checked_sub(rhs.0) {
            Some(v) => Some(SimTime(v)),
            None => None,
        }
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign for SimTime {
    fn sub_assign(&mut self, rhs: SimTime) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, Add::add)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({self})")
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps == u64::MAX {
            return write!(f, "t_max");
        }
        if ps.is_multiple_of(1_000_000_000_000) {
            write!(f, "{} s", ps / 1_000_000_000_000)
        } else if ps.is_multiple_of(1_000_000_000) {
            write!(f, "{} ms", ps / 1_000_000_000)
        } else if ps.is_multiple_of(1_000_000) {
            write!(f, "{} us", ps / 1_000_000)
        } else if ps.is_multiple_of(1_000) {
            write!(f, "{} ns", ps / 1_000)
        } else {
            write!(f, "{ps} ps")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_ns(7).as_ps(), 7_000);
        assert_eq!(SimTime::from_us(3).as_ns(), 3_000);
        assert_eq!(SimTime::from_ms(25).as_us(), 25_000);
        assert_eq!(SimTime::from_s(2).as_ms(), 2_000);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_ns(10);
        let b = SimTime::from_ns(4);
        assert_eq!(a + b, SimTime::from_ns(14));
        assert_eq!(a - b, SimTime::from_ns(6));
        assert_eq!(a * 3, SimTime::from_ns(30));
        assert_eq!(a / 2, SimTime::from_ns(5));
        let mut c = a;
        c += b;
        c -= SimTime::from_ns(2);
        assert_eq!(c, SimTime::from_ns(12));
    }

    #[test]
    fn saturating_and_checked() {
        assert_eq!(SimTime::MAX.saturating_add(SimTime::from_ns(1)), SimTime::MAX);
        assert_eq!(SimTime::from_ns(1).checked_sub(SimTime::from_ns(2)), None);
        assert_eq!(SimTime::from_ns(2).checked_sub(SimTime::from_ns(1)), Some(SimTime::from_ns(1)));
    }

    #[test]
    fn ordering_and_sum() {
        assert!(SimTime::from_ns(1) < SimTime::from_us(1));
        let total: SimTime = [SimTime::from_ns(1), SimTime::from_ns(2)].into_iter().sum();
        assert_eq!(total, SimTime::from_ns(3));
    }

    #[test]
    fn display_picks_coarsest_unit() {
        assert_eq!(SimTime::from_ms(25).to_string(), "25 ms");
        assert_eq!(SimTime::from_ps(1500).to_string(), "1500 ps");
        assert_eq!(SimTime::from_ns(1500).to_string(), "1500 ns");
        assert_eq!(SimTime::from_s(1).to_string(), "1 s");
        assert_eq!(SimTime::MAX.to_string(), "t_max");
    }

    #[test]
    fn zero_and_default() {
        assert!(SimTime::default().is_zero());
        assert_eq!(SimTime::ZERO, SimTime::from_ps(0));
    }
}
