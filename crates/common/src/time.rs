//! Simulated time.
//!
//! The whole reproduction runs against a logical clock with nanosecond
//! resolution. [`SimTime`] is a point in time, [`Duration`] is a span.
//! Both are thin wrappers around `u64` nanoseconds so they are `Copy`,
//! totally ordered, and cheap to pass through the event queue.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A point in simulated time (nanoseconds since the start of the run).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub u64);

impl SimTime {
    /// Time zero: the start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Constructs a time from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Constructs a time from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Constructs a time from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Constructs a time from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Nanoseconds since time zero.
    pub const fn as_nanos(&self) -> u64 {
        self.0
    }

    /// Microseconds since time zero (truncating).
    pub const fn as_micros(&self) -> u64 {
        self.0 / 1_000
    }

    /// Milliseconds since time zero (truncating).
    pub const fn as_millis(&self) -> u64 {
        self.0 / 1_000_000
    }

    /// Fractional seconds since time zero.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration elapsed since `earlier`, saturating at zero.
    pub fn since(&self, earlier: SimTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating addition of a duration.
    pub fn saturating_add(&self, d: Duration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl Duration {
    /// The zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// Constructs a duration from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Duration(ns)
    }

    /// Constructs a duration from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Duration(us * 1_000)
    }

    /// Constructs a duration from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms * 1_000_000)
    }

    /// Constructs a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Duration(s * 1_000_000_000)
    }

    /// Nanoseconds in this duration.
    pub const fn as_nanos(&self) -> u64 {
        self.0
    }

    /// Microseconds in this duration (truncating).
    pub const fn as_micros(&self) -> u64 {
        self.0 / 1_000
    }

    /// Milliseconds in this duration (truncating).
    pub const fn as_millis(&self) -> u64 {
        self.0 / 1_000_000
    }

    /// Fractional seconds in this duration.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction.
    pub fn saturating_sub(&self, other: Duration) -> Duration {
        Duration(self.0.saturating_sub(other.0))
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    fn sub(self, rhs: SimTime) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0 * rhs)
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.3}ms", self.0 as f64 / 1e6)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}ns", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{:.1}us", self.0 as f64 / 1e3)
        } else if self.0 < 1_000_000_000 {
            write!(f, "{:.2}ms", self.0 as f64 / 1e6)
        } else {
            write!(f, "{:.3}s", self.0 as f64 / 1e9)
        }
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1_000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1_000));
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1_000));
        assert_eq!(Duration::from_secs(2), Duration::from_millis(2_000));
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_millis(5) + Duration::from_millis(3);
        assert_eq!(t.as_millis(), 8);
        let d = t - SimTime::from_millis(2);
        assert_eq!(d.as_millis(), 6);
        assert_eq!((Duration::from_micros(10) * 3).as_micros(), 30);
        assert_eq!((Duration::from_micros(10) / 2).as_micros(), 5);
    }

    #[test]
    fn subtraction_saturates() {
        let d = SimTime::from_millis(1) - SimTime::from_millis(5);
        assert_eq!(d, Duration::ZERO);
        assert_eq!(
            Duration::from_nanos(1).saturating_sub(Duration::from_nanos(5)),
            Duration::ZERO
        );
    }

    #[test]
    fn since_and_float_conversions() {
        let a = SimTime::from_millis(10);
        let b = SimTime::from_millis(25);
        assert_eq!(b.since(a).as_millis(), 15);
        assert_eq!(a.since(b), Duration::ZERO);
        assert!((Duration::from_millis(1500).as_secs_f64() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn debug_formatting_scales_units() {
        assert_eq!(format!("{:?}", Duration::from_nanos(12)), "12ns");
        assert_eq!(format!("{:?}", Duration::from_micros(12)), "12.0us");
        assert_eq!(format!("{:?}", Duration::from_millis(12)), "12.00ms");
        assert_eq!(format!("{:?}", Duration::from_secs(12)), "12.000s");
    }
}
