//! Measurement newtypes.
//!
//! The three quantities CuttleSys reasons about — throughput in billions of
//! instructions per second, power in Watts, and (tail) latency in
//! milliseconds — are kept statically distinct so a power column can never be
//! fed into a throughput objective by accident.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

macro_rules! metric_newtype {
    ($(#[$doc:meta])* $name:ident, $unit:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(f64);

        impl $name {
            /// Wraps a raw value.
            ///
            /// # Panics
            ///
            /// Panics if `value` is NaN — measurements are totally ordered.
            pub fn new(value: f64) -> $name {
                assert!(!value.is_nan(), concat!(stringify!($name), " cannot be NaN"));
                $name(value)
            }

            /// The zero value.
            pub const ZERO: $name = $name(0.0);

            /// Returns the raw value.
            pub fn get(self) -> f64 {
                self.0
            }

            /// Larger of two measurements.
            pub fn max(self, other: $name) -> $name {
                if self.0 >= other.0 { self } else { other }
            }

            /// Smaller of two measurements.
            pub fn min(self, other: $name) -> $name {
                if self.0 <= other.0 { self } else { other }
            }
        }

        impl Add for $name {
            type Output = $name;
            fn add(self, rhs: $name) -> $name {
                $name(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: $name) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = $name;
            fn sub(self, rhs: $name) -> $name {
                $name(self.0 - rhs.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = $name;
            fn mul(self, rhs: f64) -> $name {
                $name(self.0 * rhs)
            }
        }

        impl Div<f64> for $name {
            type Output = $name;
            fn div(self, rhs: f64) -> $name {
                $name(self.0 / rhs)
            }
        }

        impl Div for $name {
            /// Ratio of two measurements is a dimensionless `f64`.
            type Output = f64;
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = $name>>(iter: I) -> $name {
                iter.fold($name::ZERO, |a, b| a + b)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:.3} {}", self.0, $unit)
            }
        }

        impl From<$name> for f64 {
            fn from(v: $name) -> f64 {
                v.0
            }
        }
    };
}

metric_newtype!(
    /// Throughput in billions of instructions per second.
    Bips,
    "BIPS"
);
metric_newtype!(
    /// Power in Watts.
    Watts,
    "W"
);
metric_newtype!(
    /// Latency in milliseconds.
    Millis,
    "ms"
);

/// Geometric mean of a slice of throughputs, the paper's batch objective
/// (Eq. 1).
///
/// Returns [`Bips::ZERO`] for an empty slice and propagates zeros (a single
/// zero-throughput job zeroes the geo-mean, which is why gated jobs are
/// compared via total instructions instead, §VII-B).
pub fn geometric_mean(values: &[Bips]) -> Bips {
    if values.is_empty() {
        return Bips::ZERO;
    }
    let log_sum: f64 = values
        .iter()
        .map(|v| {
            let x = v.get();
            if x <= 0.0 {
                f64::NEG_INFINITY
            } else {
                x.ln()
            }
        })
        .sum();
    if log_sum.is_infinite() {
        return Bips::ZERO;
    }
    Bips::new((log_sum / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_works() {
        let a = Bips::new(2.0);
        let b = Bips::new(3.0);
        assert_eq!((a + b).get(), 5.0);
        assert_eq!((b - a).get(), 1.0);
        assert_eq!((a * 2.0).get(), 4.0);
        assert_eq!((b / 2.0).get(), 1.5);
        assert_eq!(b / a, 1.5);
    }

    #[test]
    fn sum_and_ordering() {
        let v = vec![Watts::new(1.0), Watts::new(2.5)];
        let total: Watts = v.into_iter().sum();
        assert_eq!(total.get(), 3.5);
        assert_eq!(Watts::new(1.0).max(Watts::new(2.0)).get(), 2.0);
        assert_eq!(Watts::new(1.0).min(Watts::new(2.0)).get(), 1.0);
    }

    #[test]
    #[should_panic(expected = "cannot be NaN")]
    fn nan_rejected() {
        let _ = Millis::new(f64::NAN);
    }

    #[test]
    fn display_includes_unit() {
        assert_eq!(Watts::new(1.5).to_string(), "1.500 W");
        assert_eq!(Bips::new(2.0).to_string(), "2.000 BIPS");
        assert_eq!(Millis::new(0.25).to_string(), "0.250 ms");
    }

    #[test]
    fn geometric_mean_basics() {
        let g = geometric_mean(&[Bips::new(1.0), Bips::new(4.0)]);
        assert!((g.get() - 2.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[]).get(), 0.0);
        assert_eq!(geometric_mean(&[Bips::new(0.0), Bips::new(5.0)]).get(), 0.0);
    }

    #[test]
    fn geometric_mean_is_scale_equivariant() {
        let base = [Bips::new(0.7), Bips::new(2.2), Bips::new(3.1)];
        let scaled: Vec<Bips> = base.iter().map(|b| *b * 3.0).collect();
        let g1 = geometric_mean(&base).get();
        let g2 = geometric_mean(&scaled).get();
        assert!((g2 / g1 - 3.0).abs() < 1e-9);
    }
}
