//! Newtype quantities with explicit-unit constructors and accessors.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// A count of clock cycles on some clock domain.
///
/// `Cycles` is a plain count; convert to wall-clock time with [`Cycles::at`]
/// and a [`Frequency`].
///
/// # Examples
///
/// ```
/// use cimtpu_units::{Cycles, Frequency};
/// let c = Cycles::new(100) + Cycles::new(28);
/// assert_eq!(c.get(), 128);
/// assert!((c.at(Frequency::from_ghz(1.0)).as_nanos() - 128.0).abs() < 1e-12);
/// ```
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct Cycles(u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);

    /// Creates a cycle count.
    pub const fn new(count: u64) -> Self {
        Cycles(count)
    }

    /// Returns the raw count.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Converts to wall-clock time on a clock running at `clock`.
    pub fn at(self, clock: Frequency) -> Seconds {
        Seconds::new(self.0 as f64 / clock.as_hz())
    }
}

impl Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 - rhs.0)
    }
}

impl SubAssign for Cycles {
    fn sub_assign(&mut self, rhs: Cycles) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0 * rhs)
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        iter.fold(Cycles::ZERO, Add::add)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cycles", self.0)
    }
}

/// Generates an `f64`-backed quantity newtype with arithmetic and `Sum`.
macro_rules! f64_quantity {
    ($(#[$doc:meta])* $name:ident, $unit:literal) => {
        $(#[$doc])*
        #[derive(Debug, Default, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
        pub struct $name(f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: $name = $name(0.0);

            /// Creates a quantity from its base-unit value.
            ///
            /// # Panics
            ///
            /// Panics (debug assertions only) if `value` is NaN.
            pub fn new(value: f64) -> Self {
                debug_assert!(!value.is_nan(), concat!(stringify!($name), " cannot be NaN"));
                $name(value)
            }

            /// Returns the value in the base unit.
            pub const fn get(self) -> f64 {
                self.0
            }

            /// Largest of two quantities.
            #[must_use]
            pub fn max(self, rhs: $name) -> $name {
                $name(self.0.max(rhs.0))
            }

            /// Smallest of two quantities.
            #[must_use]
            pub fn min(self, rhs: $name) -> $name {
                $name(self.0.min(rhs.0))
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

        impl SubAssign for $name {
            fn sub_assign(&mut self, rhs: $name) {
                self.0 -= rhs.0;
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
            type Output = f64;
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = $name>>(iter: I) -> $name {
                iter.fold($name::ZERO, Add::add)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:.6e} {}", self.0, $unit)
            }
        }
    };
}

f64_quantity!(
    /// A duration in seconds.
    ///
    /// # Examples
    ///
    /// ```
    /// use cimtpu_units::Seconds;
    /// let t = Seconds::from_millis(1.5);
    /// assert!((t.as_micros() - 1500.0).abs() < 1e-9);
    /// ```
    Seconds,
    "s"
);

impl Seconds {
    /// Creates a duration from milliseconds.
    pub fn from_millis(ms: f64) -> Self {
        Seconds::new(ms * 1e-3)
    }

    /// Creates a duration from microseconds.
    pub fn from_micros(us: f64) -> Self {
        Seconds::new(us * 1e-6)
    }

    /// The duration in milliseconds.
    pub fn as_millis(self) -> f64 {
        self.get() * 1e3
    }

    /// The duration in microseconds.
    pub fn as_micros(self) -> f64 {
        self.get() * 1e6
    }

    /// The duration in nanoseconds.
    pub fn as_nanos(self) -> f64 {
        self.get() * 1e9
    }
}

f64_quantity!(
    /// An amount of energy in joules.
    ///
    /// # Examples
    ///
    /// ```
    /// use cimtpu_units::Joules;
    /// let e = Joules::from_picojoules(2.6) * 1e12;
    /// assert!((e.get() - 2.6).abs() < 1e-9);
    /// ```
    Joules,
    "J"
);

/// Convenience alias: energy is measured in [`Joules`].
pub type Energy = Joules;

impl Joules {
    /// Creates an energy from picojoules.
    pub fn from_picojoules(pj: f64) -> Self {
        Joules::new(pj * 1e-12)
    }

    /// Creates an energy from millijoules.
    pub fn from_millijoules(mj: f64) -> Self {
        Joules::new(mj * 1e-3)
    }

    /// The energy in picojoules.
    pub fn as_picojoules(self) -> f64 {
        self.get() * 1e12
    }

    /// The energy in millijoules.
    pub fn as_millijoules(self) -> f64 {
        self.get() * 1e3
    }
}

f64_quantity!(
    /// Power in watts.
    ///
    /// # Examples
    ///
    /// ```
    /// use cimtpu_units::{Watts, Seconds};
    /// let e = Watts::new(175.0).for_duration(Seconds::from_millis(2.0));
    /// assert!((e.as_millijoules() - 350.0).abs() < 1e-9);
    /// ```
    Watts,
    "W"
);

impl Watts {
    /// Creates power from milliwatts.
    pub fn from_milliwatts(mw: f64) -> Self {
        Watts::new(mw * 1e-3)
    }

    /// Energy dissipated when sustained for `t`.
    pub fn for_duration(self, t: Seconds) -> Joules {
        Joules::new(self.get() * t.get())
    }
}

/// A byte count.
///
/// # Examples
///
/// ```
/// use cimtpu_units::Bytes;
/// assert_eq!(Bytes::from_mib(16).get(), 16 * 1024 * 1024);
/// assert_eq!(Bytes::from_kib(1) + Bytes::new(24), Bytes::new(1048));
/// ```
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct Bytes(u64);

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Bytes = Bytes(0);

    /// Creates a byte count.
    pub const fn new(count: u64) -> Self {
        Bytes(count)
    }

    /// Creates a byte count from KiB.
    pub const fn from_kib(kib: u64) -> Self {
        Bytes(kib * 1024)
    }

    /// Creates a byte count from MiB.
    pub const fn from_mib(mib: u64) -> Self {
        Bytes(mib * 1024 * 1024)
    }

    /// Creates a byte count from GiB.
    pub const fn from_gib(gib: u64) -> Self {
        Bytes(gib * 1024 * 1024 * 1024)
    }

    /// Returns the raw count.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// The count in MiB as a float.
    pub fn as_mib(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0)
    }

    /// Saturating subtraction; clamps at zero.
    #[must_use]
    pub fn saturating_sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Bytes {
    type Output = Bytes;
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 + rhs.0)
    }
}

impl AddAssign for Bytes {
    fn add_assign(&mut self, rhs: Bytes) {
        self.0 += rhs.0;
    }
}

impl Sub for Bytes {
    type Output = Bytes;
    fn sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 - rhs.0)
    }
}

impl Mul<u64> for Bytes {
    type Output = Bytes;
    fn mul(self, rhs: u64) -> Bytes {
        Bytes(self.0 * rhs)
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        iter.fold(Bytes::ZERO, Add::add)
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1024 * 1024 * 1024 {
            write!(f, "{:.2} GiB", self.0 as f64 / (1024.0 * 1024.0 * 1024.0))
        } else if self.0 >= 1024 * 1024 {
            write!(f, "{:.2} MiB", self.as_mib())
        } else if self.0 >= 1024 {
            write!(f, "{:.2} KiB", self.0 as f64 / 1024.0)
        } else {
            write!(f, "{} B", self.0)
        }
    }
}

f64_quantity!(
    /// A data-transfer rate in bytes per second.
    ///
    /// Note: constructors use decimal giga (`1 GB/s = 1e9 B/s`) to match
    /// vendor-style bandwidth figures (e.g. the 614 GB/s HBM of TPUv4i).
    ///
    /// # Examples
    ///
    /// ```
    /// use cimtpu_units::{Bandwidth, Bytes};
    /// let bw = Bandwidth::from_gb_per_s(100.0);
    /// let t = bw.transfer_time(Bytes::new(100_000_000_000));
    /// assert!((t.get() - 1.0).abs() < 1e-9);
    /// ```
    Bandwidth,
    "B/s"
);

impl Bandwidth {
    /// Creates a bandwidth from decimal GB/s.
    pub fn from_gb_per_s(gb: f64) -> Self {
        Bandwidth::new(gb * 1e9)
    }

    /// The bandwidth in decimal GB/s.
    pub fn as_gb_per_s(self) -> f64 {
        self.get() / 1e9
    }

    /// Time to move `bytes` at this rate.
    ///
    /// A zero bandwidth with zero bytes yields zero time; a zero bandwidth
    /// with non-zero bytes yields infinite time (the transfer never
    /// completes), which keeps `max`-based roofline code well behaved.
    pub fn transfer_time(self, bytes: Bytes) -> Seconds {
        if bytes.get() == 0 {
            return Seconds::ZERO;
        }
        Seconds::new(bytes.get() as f64 / self.get())
    }
}

f64_quantity!(
    /// A clock frequency in hertz.
    ///
    /// # Examples
    ///
    /// ```
    /// use cimtpu_units::Frequency;
    /// assert!((Frequency::from_ghz(1.05).as_hz() - 1.05e9).abs() < 1.0);
    /// ```
    Frequency,
    "Hz"
);

impl Frequency {
    /// Creates a frequency from GHz.
    pub fn from_ghz(ghz: f64) -> Self {
        Frequency::new(ghz * 1e9)
    }

    /// The frequency in hertz.
    pub fn as_hz(self) -> f64 {
        self.get()
    }
}

f64_quantity!(
    /// Silicon area in square millimetres.
    ///
    /// # Examples
    ///
    /// ```
    /// use cimtpu_units::Area;
    /// let a = Area::from_mm2(4.0) + Area::from_um2(1_000_000.0);
    /// assert!((a.as_mm2() - 5.0).abs() < 1e-9);
    /// ```
    Area,
    "mm^2"
);

impl Area {
    /// Creates an area from mm².
    pub fn from_mm2(mm2: f64) -> Self {
        Area::new(mm2)
    }

    /// Creates an area from µm².
    pub fn from_um2(um2: f64) -> Self {
        Area::new(um2 * 1e-6)
    }

    /// The area in mm².
    pub fn as_mm2(self) -> f64 {
        self.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_to_time_round_trip() {
        let clk = Frequency::from_ghz(1.05);
        let c = Cycles::new(1_050_000_000);
        let t = c.at(clk);
        assert!((t.get() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn frequency_period_inverts() {
        let f = Frequency::from_ghz(0.94);
        assert!((Cycles::new(1).at(f).get() * f.as_hz() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bytes_units() {
        assert_eq!(Bytes::from_gib(8).get(), 8 * 1024 * 1024 * 1024);
        assert_eq!(Bytes::from_mib(128).as_mib(), 128.0);
        assert_eq!(format!("{}", Bytes::from_kib(2)), "2.00 KiB");
        assert_eq!(format!("{}", Bytes::new(100)), "100 B");
    }

    #[test]
    fn bandwidth_transfer_time() {
        let hbm = Bandwidth::from_gb_per_s(614.0);
        let t = hbm.transfer_time(Bytes::new(614_000_000));
        assert!((t.as_millis() - 1.0).abs() < 1e-9);
        // Zero bytes is free even with zero bandwidth.
        assert_eq!(Bandwidth::ZERO.transfer_time(Bytes::ZERO), Seconds::ZERO);
        // Non-zero bytes at zero bandwidth never completes.
        assert!(Bandwidth::ZERO
            .transfer_time(Bytes::new(1))
            .get()
            .is_infinite());
    }

    #[test]
    fn energy_power_duality() {
        let p = Watts::new(175.0);
        let t = Seconds::from_millis(10.0);
        let e = p.for_duration(t);
        assert!((e.get() - 1.75).abs() < 1e-12);
    }

    #[test]
    fn joules_unit_constructors() {
        assert!((Joules::from_picojoules(1e12).get() - 1.0).abs() < 1e-12);
        assert!((Joules::from_millijoules(1e3).get() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quantity_sum_and_ratio() {
        let total: Seconds = [1.0, 2.0, 3.0].iter().map(|&s| Seconds::new(s)).sum();
        assert!((total.get() - 6.0).abs() < 1e-12);
        assert!((Seconds::new(3.0) / Seconds::new(1.5) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn area_units() {
        assert!((Area::from_um2(2.5e6).as_mm2() - 2.5).abs() < 1e-12);
    }
}
