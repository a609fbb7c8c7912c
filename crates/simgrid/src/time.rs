//! Simulated time: integer nanoseconds, never wall-clock.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};

/// A point in (or duration of) simulated time, in nanoseconds.
///
/// Integer nanoseconds keep the simulation exactly reproducible: no float
/// accumulation, no platform-dependent rounding.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Zero time.
    pub const ZERO: SimTime = SimTime(0);

    /// Constructs from nanoseconds.
    pub const fn from_ns(ns: u64) -> SimTime {
        SimTime(ns)
    }

    /// Constructs from microseconds.
    pub const fn from_us(us: u64) -> SimTime {
        SimTime(us * 1_000)
    }

    /// Constructs from milliseconds.
    pub const fn from_ms(ms: u64) -> SimTime {
        SimTime(ms * 1_000_000)
    }

    /// Constructs from (possibly fractional) seconds, rounding to ns.
    pub fn from_secs_f64(s: f64) -> SimTime {
        assert!(s >= 0.0 && s.is_finite(), "invalid duration: {s}");
        SimTime((s * 1e9).round() as u64)
    }

    /// Value in nanoseconds.
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Value in microseconds (fractional).
    pub fn as_us(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Value in milliseconds (fractional).
    pub fn as_ms(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Value in seconds (fractional).
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// Later of two instants.
    pub fn max(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.max(rhs.0))
    }

    /// Earlier of two instants.
    pub fn min(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.min(rhs.0))
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
        #[expect(
            clippy::expect_used,
            reason = "underflow means simulator-clock corruption"
        )]
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime subtraction underflow"),
        )
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns < 10_000 {
            write!(f, "{ns} ns")
        } else if ns < 10_000_000 {
            write!(f, "{:.2} µs", self.as_us())
        } else if ns < 10_000_000_000 {
            write!(f, "{:.3} ms", self.as_ms())
        } else {
            write!(f, "{:.4} s", self.as_secs())
        }
    }
}

/// A per-rank simulated clock.
///
/// Ranks advance their clock by modeled kernel/transfer durations; message
/// receipt synchronizes a clock forward to the message's arrival time
/// (`sync_to`), exactly like a happened-before relation.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    now: SimTime,
}

impl SimClock {
    /// A clock at time zero.
    pub fn new() -> SimClock {
        SimClock { now: SimTime::ZERO }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances by a duration and returns the new time.
    pub fn advance(&mut self, dur: SimTime) -> SimTime {
        self.now += dur;
        self.now
    }

    /// Advances by nanoseconds and returns the new time.
    pub fn advance_ns(&mut self, ns: u64) -> SimTime {
        self.advance(SimTime::from_ns(ns))
    }

    /// Moves the clock forward to `t` if `t` is later (never backwards).
    pub fn sync_to(&mut self, t: SimTime) -> SimTime {
        self.now = self.now.max(t);
        self.now
    }

    /// Resets to zero (between repeated experiments).
    pub fn reset(&mut self) {
        self.now = SimTime::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_roundtrip() {
        assert_eq!(SimTime::from_us(3).as_ns(), 3_000);
        assert_eq!(SimTime::from_ms(2).as_ns(), 2_000_000);
        assert_eq!(SimTime::from_secs_f64(1.5).as_ns(), 1_500_000_000);
        assert!((SimTime::from_ns(2_500).as_us() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(format!("{}", SimTime::from_ns(500)), "500 ns");
        assert_eq!(format!("{}", SimTime::from_us(150)), "150.00 µs");
        assert_eq!(format!("{}", SimTime::from_ms(90)), "90.000 ms");
        assert_eq!(format!("{}", SimTime::from_secs_f64(12.0)), "12.0000 s");
    }

    #[test]
    fn clock_advances_and_syncs() {
        let mut c = SimClock::new();
        assert_eq!(c.now(), SimTime::ZERO);
        c.advance_ns(100);
        c.advance(SimTime::from_ns(50));
        assert_eq!(c.now().as_ns(), 150);
        // Sync forward only.
        c.sync_to(SimTime::from_ns(120));
        assert_eq!(c.now().as_ns(), 150);
        c.sync_to(SimTime::from_ns(300));
        assert_eq!(c.now().as_ns(), 300);
        c.reset();
        assert_eq!(c.now(), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn subtraction_underflow_panics() {
        let _ = SimTime::from_ns(1) - SimTime::from_ns(2);
    }

    #[test]
    fn saturating_sub_clamps() {
        assert_eq!(
            SimTime::from_ns(1).saturating_sub(SimTime::from_ns(5)),
            SimTime::ZERO
        );
    }

    #[test]
    fn sum_of_durations() {
        let total: SimTime = (1..=4).map(SimTime::from_ns).sum();
        assert_eq!(total.as_ns(), 10);
    }
}
