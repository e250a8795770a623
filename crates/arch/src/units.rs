//! Strongly-typed physical quantities.
//!
//! The characterization code manipulates voltages, frequencies, powers,
//! energies, times and temperatures constantly; mixing them up silently is
//! the classic way to ruin a power model. Each quantity is a newtype over
//! `f64` (C-NEWTYPE) with only the physically meaningful arithmetic
//! implemented: `Watts * Seconds = Joules`, `Joules / Seconds = Watts`,
//! `Hertz.period() = Seconds`, and so on.
//!
//! # Examples
//!
//! ```
//! use piton_arch::units::{Hertz, Joules, Seconds, Watts};
//!
//! let f = Hertz::from_mhz(500.05);
//! let power = Watts(2.0153);
//! let energy: Joules = power * Seconds(7.5);
//! assert!((energy.0 - 15.114_75).abs() < 1e-9);
//! assert!((f.period().0 - 2.0e-9).abs() < 2e-11);
//! ```

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

macro_rules! quantity {
    ($(#[$meta:meta])* $name:ident, $unit:literal) => {
        $(#[$meta])*
        #[derive(Debug, Default, Clone, Copy, PartialEq, PartialOrd)]
        pub struct $name(pub f64);

        impl $name {
            /// The zero value of this quantity.
            pub const ZERO: Self = Self(0.0);

            /// Returns the absolute value.
            #[must_use]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Returns the larger of `self` and `other`.
            #[must_use]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Returns the smaller of `self` and `other`.
            #[must_use]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Returns true when the underlying value is finite.
            #[must_use]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }
        }

        impl Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div<$name> for $name {
            /// Ratio of two like quantities is dimensionless.
            type Output = f64;
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|v| v.0).sum())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if let Some(prec) = f.precision() {
                    write!(f, "{:.*} {}", prec, self.0, $unit)
                } else {
                    write!(f, "{} {}", self.0, $unit)
                }
            }
        }
    };
}

quantity!(
    /// Electric potential in volts.
    Volts,
    "V"
);
quantity!(
    /// Electric current in amperes.
    Amps,
    "A"
);
quantity!(
    /// Frequency in hertz.
    Hertz,
    "Hz"
);
quantity!(
    /// Power in watts.
    Watts,
    "W"
);
quantity!(
    /// Energy in joules.
    Joules,
    "J"
);
quantity!(
    /// Time in seconds.
    Seconds,
    "s"
);
quantity!(
    /// Temperature in degrees Celsius.
    Celsius,
    "°C"
);
quantity!(
    /// Electrical resistance in ohms.
    Ohms,
    "Ω"
);

impl Volts {
    /// Creates a voltage from millivolts.
    #[must_use]
    pub fn from_mv(mv: f64) -> Self {
        Self(mv / 1e3)
    }
}

impl Hertz {
    /// Creates a frequency from megahertz.
    #[must_use]
    pub fn from_mhz(mhz: f64) -> Self {
        Self(mhz * 1e6)
    }

    /// Returns the value in megahertz.
    #[must_use]
    pub fn as_mhz(self) -> f64 {
        self.0 / 1e6
    }

    /// Returns the clock period.
    ///
    /// # Panics
    ///
    /// Panics if the frequency is zero (a zero-frequency clock has no
    /// period).
    #[must_use]
    pub fn period(self) -> Seconds {
        assert!(self.0 > 0.0, "cannot take the period of a 0 Hz clock");
        Seconds(1.0 / self.0)
    }
}

impl Watts {
    /// Creates a power from milliwatts.
    #[must_use]
    pub fn from_mw(mw: f64) -> Self {
        Self(mw / 1e3)
    }

    /// Returns the value in milliwatts.
    #[must_use]
    pub fn as_mw(self) -> f64 {
        self.0 * 1e3
    }
}

impl Joules {
    /// Creates an energy from picojoules.
    #[must_use]
    pub fn from_pj(pj: f64) -> Self {
        Self(pj / 1e12)
    }

    /// Returns the value in nanojoules.
    #[must_use]
    pub fn as_nj(self) -> f64 {
        self.0 * 1e9
    }

    /// Returns the value in kilojoules.
    #[must_use]
    pub fn as_kj(self) -> f64 {
        self.0 / 1e3
    }
}

impl Seconds {
    /// Creates a time from nanoseconds.
    #[must_use]
    pub fn from_ns(ns: f64) -> Self {
        Self(ns / 1e9)
    }

    /// Returns the value in nanoseconds.
    #[must_use]
    pub fn as_ns(self) -> f64 {
        self.0 * 1e9
    }

    /// Returns the value in minutes.
    #[must_use]
    pub fn as_minutes(self) -> f64 {
        self.0 / 60.0
    }

    /// Creates a time from minutes.
    #[must_use]
    pub fn from_minutes(min: f64) -> Self {
        Self(min * 60.0)
    }
}

/// `P × t = E`
impl Mul<Seconds> for Watts {
    type Output = Joules;
    fn mul(self, rhs: Seconds) -> Joules {
        Joules(self.0 * rhs.0)
    }
}

/// `t × P = E`
impl Mul<Watts> for Seconds {
    type Output = Joules;
    fn mul(self, rhs: Watts) -> Joules {
        Joules(self.0 * rhs.0)
    }
}

/// `E / t = P`
impl Div<Seconds> for Joules {
    type Output = Watts;
    fn div(self, rhs: Seconds) -> Watts {
        Watts(self.0 / rhs.0)
    }
}

/// `E / P = t`
impl Div<Watts> for Joules {
    type Output = Seconds;
    fn div(self, rhs: Watts) -> Seconds {
        Seconds(self.0 / rhs.0)
    }
}

/// `V × I = P`
impl Mul<Amps> for Volts {
    type Output = Watts;
    fn mul(self, rhs: Amps) -> Watts {
        Watts(self.0 * rhs.0)
    }
}

/// `I × V = P`
impl Mul<Volts> for Amps {
    type Output = Watts;
    fn mul(self, rhs: Volts) -> Watts {
        Watts(self.0 * rhs.0)
    }
}

/// `V / R = I` (Ohm's law)
impl Div<Ohms> for Volts {
    type Output = Amps;
    fn div(self, rhs: Ohms) -> Amps {
        Amps(self.0 / rhs.0)
    }
}

/// `I × R = V` (Ohm's law)
impl Mul<Ohms> for Amps {
    type Output = Volts;
    fn mul(self, rhs: Ohms) -> Volts {
        Volts(self.0 * rhs.0)
    }
}

/// `P / V = I`
impl Div<Volts> for Watts {
    type Output = Amps;
    fn div(self, rhs: Volts) -> Amps {
        Amps(self.0 / rhs.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_times_time_is_energy() {
        let e = Watts(2.0) * Seconds(3.0);
        assert_eq!(e, Joules(6.0));
        assert_eq!(Seconds(3.0) * Watts(2.0), Joules(6.0));
    }

    #[test]
    fn energy_over_time_is_power() {
        assert_eq!(Joules(6.0) / Seconds(3.0), Watts(2.0));
        assert_eq!(Joules(6.0) / Watts(2.0), Seconds(3.0));
    }

    #[test]
    fn ohms_law_round_trip() {
        let v = Volts(1.0);
        let r = Ohms(0.02);
        let i = v / r;
        assert!((i.0 - 50.0).abs() < 1e-12);
        let back = i * r;
        assert!((back.0 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn electrical_power() {
        let p = Volts(1.05) * Amps(2.0);
        assert!((p.0 - 2.1).abs() < 1e-12);
        let i = p / Volts(1.05);
        assert!((i.0 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn unit_conversions() {
        assert!((Hertz::from_mhz(500.05).0 - 500.05e6).abs() < 1e-3);
        assert!((Hertz(500.05e6).as_mhz() - 500.05).abs() < 1e-9);
        assert!((Watts::from_mw(389.3).0 - 0.3893).abs() < 1e-12);
        assert!((Joules::from_pj(286.46).as_nj() - 0.28646).abs() < 1e-9);
        assert!((Seconds::from_ns(790.0).0 - 7.9e-7).abs() < 1e-18);
        assert!((Seconds::from_minutes(2.0).as_minutes() - 2.0).abs() < 1e-12);
        assert!((Volts::from_mv(1050.0).0 - 1.05).abs() < 1e-12);
    }

    #[test]
    fn ratio_is_dimensionless() {
        let ratio: f64 = Watts(3.0) / Watts(1.5);
        assert!((ratio - 2.0).abs() < 1e-12);
    }

    #[test]
    fn sum_and_scaling() {
        let total: Watts = [Watts(1.0), Watts(2.0), Watts(3.0)].into_iter().sum();
        assert_eq!(total, Watts(6.0));
        assert_eq!(total * 0.5, Watts(3.0));
        assert_eq!(0.5 * total, Watts(3.0));
        assert_eq!(total / 2.0, Watts(3.0));
    }

    #[test]
    fn display_includes_unit() {
        assert_eq!(format!("{:.2}", Watts(2.0153)), "2.02 W");
        assert_eq!(format!("{}", Volts(1.0)), "1 V");
        assert_eq!(format!("{:.1}", Celsius(42.5)), "42.5 °C");
    }

    #[test]
    #[should_panic(expected = "0 Hz")]
    fn zero_frequency_period_panics() {
        let _ = Hertz(0.0).period();
    }

    #[test]
    fn min_max_abs() {
        assert_eq!(Watts(-1.0).abs(), Watts(1.0));
        assert_eq!(Watts(1.0).max(Watts(2.0)), Watts(2.0));
        assert_eq!(Watts(1.0).min(Watts(2.0)), Watts(1.0));
        assert!(Watts(1.0).is_finite());
        assert!(!Watts(f64::NAN).is_finite());
    }
}
