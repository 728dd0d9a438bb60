//! Discrete simulation time.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in integer microseconds since simulation
/// start.
///
/// Integer time makes the event queue total order exact — no float-
/// comparison ties — so runs are bit-reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in integer microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation origin `t = 0`.
    pub const ZERO: SimTime = SimTime(0);

    /// Microseconds since simulation start.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }
}

impl SimDuration {
    /// The zero duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds a duration from integer microseconds.
    pub fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Builds a duration from (non-negative, finite) seconds, rounding up
    /// to the next microsecond so nonzero work never takes zero time.
    ///
    /// # Panics
    ///
    /// Panics for negative or non-finite input.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs >= 0.0 && secs.is_finite(),
            "duration must be non-negative and finite, got {secs}"
        );
        SimDuration((secs * 1e6).ceil() as u64)
    }

    /// Builds a duration from milliseconds (same rounding as
    /// [`SimDuration::from_secs_f64`]).
    ///
    /// # Panics
    ///
    /// Panics for negative or non-finite input.
    pub fn from_millis_f64(ms: f64) -> Self {
        Self::from_secs_f64(ms / 1e3)
    }

    /// Microseconds in this duration.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds in this duration.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
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

impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl Sub for SimTime {
    type Output = SimDuration;

    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.0 as f64 / 1e3)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.0 as f64 / 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_micros(500);
        assert_eq!(t.as_micros(), 500);
        let t2 = t + SimDuration::from_millis_f64(1.5);
        assert_eq!(t2.as_micros(), 2000);
        assert_eq!((t2 - t).as_micros(), 1500);
        // Saturating subtraction of an earlier minus later time.
        assert_eq!((t - t2).as_micros(), 0);
        let mut t3 = t;
        t3 += SimDuration::from_micros(1);
        assert_eq!(t3.as_micros(), 501);
        assert_eq!(
            (SimDuration::from_micros(2) + SimDuration::from_micros(3)).as_micros(),
            5
        );
    }

    #[test]
    fn float_conversions_round_up() {
        // 1 ns of work becomes 1 µs — never free.
        assert_eq!(SimDuration::from_secs_f64(1e-9).as_micros(), 1);
        assert_eq!(SimDuration::from_secs_f64(0.0).as_micros(), 0);
        assert!((SimDuration::from_secs_f64(2.5).as_secs_f64() - 2.5).abs() < 1e-9);
        assert!((SimTime::ZERO + SimDuration::from_secs_f64(1.0)).as_secs_f64() - 1.0 < 1e-9);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_duration() {
        SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(
            format!("{}", SimTime::ZERO + SimDuration::from_micros(1500)),
            "1.500ms"
        );
        assert_eq!(format!("{}", SimDuration::from_micros(250)), "0.250ms");
    }

    #[test]
    fn ordering_is_total() {
        let a = SimTime::ZERO + SimDuration::from_micros(1);
        let b = SimTime::ZERO + SimDuration::from_micros(2);
        assert!(a < b);
        assert_eq!(a.max(b), b);
    }
}
