//! Simulated time.
//!
//! The simulator measures time as a monotonically non-decreasing count of
//! nanoseconds since the start of the run. Nanosecond resolution is needed
//! because the experiments mix effects at very different scales: serializing
//! a 1500-byte packet at 1 Gbps takes 12 µs, while the paper's injected
//! jitter is tens of milliseconds and browser stall timeouts are seconds.
//!
//! [`SimTime`] is an absolute instant; [`SimDuration`] is a span. Both are
//! thin newtypes over `u64` with saturating arithmetic, so a pathological
//! configuration can never wrap time backwards.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant of simulated time (nanoseconds since run start).
///
/// # Examples
///
/// ```
/// use h2priv_netsim::{SimDuration, SimTime};
///
/// let t = SimTime::ZERO + SimDuration::from_millis(5);
/// assert_eq!(t.as_nanos(), 5_000_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time (nanoseconds).
///
/// # Examples
///
/// ```
/// use h2priv_netsim::SimDuration;
///
/// let d = SimDuration::from_micros(250) * 4;
/// assert_eq!(d.as_millis_f64(), 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinite" deadline.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `nanos` nanoseconds after run start.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Creates an instant `micros` microseconds after run start
    /// (saturating at [`SimTime::MAX`]).
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros.saturating_mul(1_000))
    }

    /// Creates an instant `millis` milliseconds after run start
    /// (saturating at [`SimTime::MAX`]).
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis.saturating_mul(1_000_000))
    }

    /// Creates an instant `secs` seconds after run start (saturating at
    /// [`SimTime::MAX`]).
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs.saturating_mul(1_000_000_000))
    }

    /// Nanoseconds since run start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds since run start (truncated).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Milliseconds since run start (truncated).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Milliseconds since run start, as a float (no truncation).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1.0e6
    }

    /// Seconds since run start, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1.0e9
    }

    /// The span from `earlier` to `self`, or [`SimDuration::ZERO`] if
    /// `earlier` is in the future.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Returns the later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// Returns the earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable span; used as an "infinite" timeout.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a span of `nanos` nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a span of `micros` microseconds (saturating at
    /// [`SimDuration::MAX`]).
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros.saturating_mul(1_000))
    }

    /// Creates a span of `millis` milliseconds (saturating at
    /// [`SimDuration::MAX`]).
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis.saturating_mul(1_000_000))
    }

    /// Creates a span of `secs` seconds (saturating at
    /// [`SimDuration::MAX`]).
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs.saturating_mul(1_000_000_000))
    }

    /// Creates a span from a float count of seconds (saturating at zero for
    /// negative or non-finite input).
    pub fn from_secs_f64(secs: f64) -> Self {
        if !secs.is_finite() || secs <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((secs * 1.0e9).round().min(u64::MAX as f64) as u64)
    }

    /// Creates a span from a float count of milliseconds (saturating as for
    /// [`SimDuration::from_secs_f64`]).
    pub fn from_millis_f64(millis: f64) -> Self {
        Self::from_secs_f64(millis / 1.0e3)
    }

    /// The span in nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The span in microseconds (truncated).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// The span in milliseconds (truncated).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// The span in milliseconds, as a float.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1.0e6
    }

    /// The span in seconds, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1.0e9
    }

    /// True iff the span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiplies the span by a float factor, saturating (negative or
    /// non-finite factors yield zero).
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        if !factor.is_finite() || factor <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((self.0 as f64 * factor).min(u64::MAX as f64) as u64)
    }

    /// Returns the larger of two spans.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// Returns the smaller of two spans.
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

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// Saturating: if `rhs` is later than `self`, the result is zero.
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
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    /// Saturating subtraction.
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
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
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimTime::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(SimTime::from_micros(3).as_nanos(), 3_000);
        assert_eq!(SimTime::from_secs(3).as_millis(), 3_000);
        assert_eq!(SimDuration::from_millis(7).as_micros(), 7_000);
        assert_eq!(SimDuration::from_secs(1).as_millis(), 1_000);
    }

    #[test]
    fn float_constructors_round() {
        assert_eq!(SimDuration::from_secs_f64(0.5).as_millis(), 500);
        assert_eq!(SimDuration::from_millis_f64(0.1).as_micros(), 100);
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
    }

    #[test]
    fn arithmetic_saturates() {
        let near_max = SimTime::from_nanos(u64::MAX - 1);
        assert_eq!(near_max + SimDuration::from_secs(10), SimTime::MAX);
        assert_eq!(SimTime::ZERO - SimDuration::from_secs(1), SimTime::ZERO);
        assert_eq!(
            SimDuration::from_millis(1) - SimDuration::from_millis(2),
            SimDuration::ZERO
        );
    }

    #[test]
    fn constructors_saturate() {
        // The doc promise is "saturating arithmetic, so a pathological
        // configuration can never wrap time backwards" — that must include
        // the unit-conversion constructors, not just the operators.
        assert_eq!(SimTime::from_micros(u64::MAX), SimTime::MAX);
        assert_eq!(SimTime::from_millis(u64::MAX), SimTime::MAX);
        assert_eq!(SimTime::from_secs(u64::MAX), SimTime::MAX);
        assert_eq!(SimDuration::from_micros(u64::MAX), SimDuration::MAX);
        assert_eq!(SimDuration::from_millis(u64::MAX), SimDuration::MAX);
        assert_eq!(SimDuration::from_secs(u64::MAX), SimDuration::MAX);
        // Just past the overflow boundary, still saturates.
        assert_eq!(
            SimTime::from_secs(u64::MAX / 1_000_000_000 + 1),
            SimTime::MAX
        );
    }

    #[test]
    fn instant_difference() {
        let a = SimTime::from_millis(10);
        let b = SimTime::from_millis(4);
        assert_eq!(a - b, SimDuration::from_millis(6));
        assert_eq!(b.saturating_since(a), SimDuration::ZERO);
    }

    #[test]
    fn scaling() {
        let d = SimDuration::from_millis(10);
        assert_eq!(d * 3, SimDuration::from_millis(30));
        assert_eq!(d / 2, SimDuration::from_millis(5));
        assert_eq!(d.mul_f64(0.5), SimDuration::from_millis(5));
        assert_eq!(d.mul_f64(-1.0), SimDuration::ZERO);
    }

    #[test]
    fn ordering_and_minmax() {
        let a = SimTime::from_millis(1);
        let b = SimTime::from_millis(2);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(
            SimDuration::from_millis(1).max(SimDuration::from_millis(2)),
            SimDuration::from_millis(2)
        );
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(format!("{}", SimTime::from_millis(1)), "1.000ms");
        assert_eq!(format!("{}", SimDuration::from_micros(1500)), "1.500ms");
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_millis).sum();
        assert_eq!(total, SimDuration::from_millis(10));
    }
}
