//! BF16 floating-point support: the pre/post-processing pipeline.
//!
//! In FP mode the CIM macro stores weight *mantissas* in the bitcell array
//! and performs integer MACs on aligned mantissas:
//!
//! 1. **Pre-processing** — for each input/weight pair the product exponent
//!    is `e_a + e_w`; the unit finds the maximum product exponent across the
//!    dot product and right-shifts every product mantissa by the difference
//!    (exponent alignment + mantissa shifting).
//! 2. **In-array MAC** — integer multiply-accumulate of aligned mantissas.
//! 3. **Post-processing** — shift-and-accumulate of the wide integer sum,
//!    normalization, and round-to-nearest-even back to BF16.
//!
//! Alignment discards mantissa bits of small products, so the result is not
//! bit-identical to an `f32` reference — the tests bound the relative error
//! instead, which is the fidelity argument used by FP-CIM macro papers
//! ([Guo, ISSCC'23]-style designs).
//!
//! # Examples
//!
//! ```
//! use cimtpu_cim::fp::{Bf16, FpCimPipeline};
//!
//! let a: Vec<Bf16> = [1.5f32, -2.0, 0.25].iter().map(|&x| Bf16::from_f32(x)).collect();
//! let w: Vec<Bf16> = [2.0f32, 0.5, 8.0].iter().map(|&x| Bf16::from_f32(x)).collect();
//! let got = FpCimPipeline::default().dot(&a, &w)?.to_f32();
//! assert!((got - 4.0).abs() < 0.1); // 3.0 - 1.0 + 2.0
//! # Ok::<(), cimtpu_units::Error>(())
//! ```

use cimtpu_units::{Error, Result};

/// A bfloat16 value stored as its 16-bit pattern.
///
/// BF16 is the upper half of an IEEE-754 `f32`, so conversions are exact
/// truncations/extensions of the bit pattern (with round-to-nearest-even on
/// the way down).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Bf16(u16);

impl Bf16 {
    /// Positive zero.
    pub(crate) const ZERO: Bf16 = Bf16(0);

    /// The raw bit pattern.
    #[cfg(test)]
    pub(crate) const fn to_bits(self) -> u16 {
        self.0
    }

    /// Rounds an `f32` to the nearest BF16 (ties to even).
    pub fn from_f32(x: f32) -> Self {
        let bits = x.to_bits();
        if x.is_nan() {
            // Preserve a quiet NaN.
            return Bf16(((bits >> 16) as u16) | 0x0040);
        }
        let round_bit = 0x8000u32;
        let lower = bits & 0xffff;
        let mut upper = (bits >> 16) as u16;
        if lower > round_bit || (lower == round_bit && (upper & 1) == 1) {
            upper = upper.wrapping_add(1);
        }
        Bf16(upper)
    }

    /// Widens to `f32` (exact).
    pub fn to_f32(self) -> f32 {
        f32::from_bits(u32::from(self.0) << 16)
    }

    /// Sign bit (true = negative).
    pub(crate) const fn sign(self) -> bool {
        self.0 >> 15 == 1
    }

    /// Biased exponent (0..=255).
    pub(crate) const fn biased_exponent(self) -> u32 {
        ((self.0 >> 7) & 0xff) as u32
    }

    /// Significand with the hidden one materialized (8 bits for normals,
    /// the raw 7-bit fraction for subnormals).
    pub(crate) const fn significand(self) -> u32 {
        let frac = (self.0 & 0x7f) as u32;
        if self.biased_exponent() == 0 {
            frac
        } else {
            frac | 0x80
        }
    }
}

impl From<f32> for Bf16 {
    fn from(x: f32) -> Self {
        Bf16::from_f32(x)
    }
}

impl From<Bf16> for f32 {
    fn from(x: Bf16) -> f32 {
        x.to_f32()
    }
}

/// The FP pre/post-processing pipeline around the integer CIM array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FpCimPipeline {
    /// Width of the alignment window in bits: products whose exponent is
    /// more than this far below the maximum are flushed to zero, exactly as
    /// a fixed-width aligner does in hardware.
    alignment_bits: u32,
}

impl Default for FpCimPipeline {
    fn default() -> Self {
        // 24-bit aligner: enough for BF16 dot products of length <= 256
        // with bounded error.
        FpCimPipeline { alignment_bits: 24 }
    }
}

impl FpCimPipeline {
    /// Creates a pipeline with a custom aligner width.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if `alignment_bits` is zero or
    /// greater than 40 (the accumulator width budget).
    pub fn new(alignment_bits: u32) -> Result<Self> {
        if alignment_bits == 0 || alignment_bits > 40 {
            return Err(Error::invalid_config(format!(
                "alignment width {alignment_bits} out of range 1..=40"
            )));
        }
        Ok(FpCimPipeline { alignment_bits })
    }

    /// Computes `Σ a[i] * w[i]` through the FP-CIM pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidShape`] if the vectors differ in length, and
    /// [`Error::InvalidConfig`] if any operand is NaN or infinite (the
    /// hardware pipeline has no special-value path; saturating behaviour is
    /// out of scope for the model).
    pub fn dot(&self, a: &[Bf16], w: &[Bf16]) -> Result<Bf16> {
        if a.len() != w.len() {
            return Err(Error::invalid_shape(format!(
                "dot product operands differ in length: {} vs {}",
                a.len(),
                w.len()
            )));
        }
        for &x in a.iter().chain(w) {
            if x.biased_exponent() == 0xff {
                return Err(Error::invalid_config(
                    "NaN/Inf operands are not supported by the FP-CIM pipeline",
                ));
            }
        }

        // Pre-processing: per-product sign, exponent, and exact mantissa.
        struct Product {
            sign: bool,
            exp: i32,  // unbiased product exponent
            mant: u32, // 16-bit mantissa product (8x8 bits)
        }
        let products: Vec<Product> = a
            .iter()
            .zip(w)
            .filter(|(x, y)| x.significand() != 0 && y.significand() != 0)
            .map(|(x, y)| Product {
                sign: x.sign() ^ y.sign(),
                // Biased exponents: subtract 2*127; subnormal exponents are
                // min-clamped like exponent 1 in hardware.
                exp: x.biased_exponent().max(1) as i32 + y.biased_exponent().max(1) as i32 - 254,
                mant: x.significand() * y.significand(),
            })
            .collect();
        if products.is_empty() {
            return Ok(Bf16::ZERO);
        }

        // Alignment: find the maximum product exponent; shift every mantissa
        // right by the exponent gap, dropping bits beyond the aligner width.
        let max_exp = products.iter().map(|p| p.exp).max().expect("non-empty");
        let mut acc: i64 = 0;
        for p in &products {
            let shift = (max_exp - p.exp) as u32;
            if shift >= self.alignment_bits {
                continue; // flushed by the fixed-width aligner
            }
            let aligned = i64::from(p.mant) >> shift;
            acc += if p.sign { -aligned } else { aligned };
        }

        // Post-processing: normalize the wide sum and round to BF16.
        if acc == 0 {
            return Ok(Bf16::ZERO);
        }
        let sign = acc < 0;
        let mag = acc.unsigned_abs();
        // The mantissa product has its binary point after bit 14 (8-bit
        // significands each with the point after bit 7).
        let value = mag as f64 * 2f64.powi(max_exp - 14);
        let rounded = Bf16::from_f32(if sign { -(value as f32) } else { value as f32 });
        Ok(rounded)
    }

    /// `f64` reference dot product for validation.
    pub fn dot_reference(a: &[Bf16], w: &[Bf16]) -> f64 {
        a.iter()
            .zip(w)
            .map(|(x, y)| f64::from(x.to_f32()) * f64::from(y.to_f32()))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bf16_round_trip_exact_values() {
        for &x in &[0.0f32, 1.0, -1.5, 0.25, 3.140625, -65504.0, 1e-3] {
            let b = Bf16::from_f32(x);
            let back = b.to_f32();
            // BF16 has ~3 decimal digits; values representable in BF16
            // round-trip exactly.
            assert!(
                ((back - x) / x.abs().max(1e-6)).abs() < 0.01,
                "{x} -> {back}"
            );
        }
    }

    #[test]
    fn bf16_rounds_to_nearest_even() {
        // 1.0 + 2^-8 is exactly halfway between 1.0 and the next BF16; the
        // even mantissa (1.0) wins.
        let x = f32::from_bits(0x3f80_8000);
        assert_eq!(Bf16::from_f32(x).to_bits(), 0x3f80);
        // Just above halfway rounds up.
        let y = f32::from_bits(0x3f80_8001);
        assert_eq!(Bf16::from_f32(y).to_bits(), 0x3f81);
    }

    #[test]
    fn simple_dot_products() {
        let p = FpCimPipeline::default();
        let a: Vec<Bf16> = [1.0f32, 2.0, 3.0]
            .iter()
            .map(|&x| Bf16::from_f32(x))
            .collect();
        let w: Vec<Bf16> = [4.0f32, 5.0, 6.0]
            .iter()
            .map(|&x| Bf16::from_f32(x))
            .collect();
        let got = p.dot(&a, &w).unwrap().to_f32();
        assert!((got - 32.0).abs() < 0.25);
    }

    #[test]
    fn cancellation_is_exact_when_aligned() {
        let p = FpCimPipeline::default();
        let a: Vec<Bf16> = [1.0f32, -1.0].iter().map(|&x| Bf16::from_f32(x)).collect();
        let w: Vec<Bf16> = [1.0f32, 1.0].iter().map(|&x| Bf16::from_f32(x)).collect();
        assert_eq!(p.dot(&a, &w).unwrap(), Bf16::ZERO);
    }

    #[test]
    fn rejects_nan_and_length_mismatch() {
        let p = FpCimPipeline::default();
        let nan = Bf16::from_f32(f32::NAN);
        assert!(p.dot(&[nan], &[Bf16::from_f32(1.0)]).is_err());
        assert!(p
            .dot(&[Bf16::from_f32(1.0)], &[Bf16::from_f32(1.0), Bf16::ZERO])
            .is_err());
        assert!(FpCimPipeline::new(0).is_err());
        assert!(FpCimPipeline::new(64).is_err());
    }

    #[test]
    fn zeros_short_circuit() {
        let p = FpCimPipeline::default();
        let out = p.dot(&[Bf16::ZERO; 4], &[Bf16::from_f32(5.0); 4]).unwrap();
        assert_eq!(out, Bf16::ZERO);
    }

    proptest! {
        /// Pipeline output tracks the f64 reference within BF16-level error.
        #[test]
        fn dot_tracks_reference(
            pairs in proptest::collection::vec((-100.0f32..100.0, -100.0f32..100.0), 1..128)
        ) {
            let a: Vec<Bf16> = pairs.iter().map(|&(x, _)| Bf16::from_f32(x)).collect();
            let w: Vec<Bf16> = pairs.iter().map(|&(_, y)| Bf16::from_f32(y)).collect();
            let got = f64::from(FpCimPipeline::default().dot(&a, &w).unwrap().to_f32());
            let want = FpCimPipeline::dot_reference(&a, &w);
            // Error bound: BF16 rounding of inputs is already done (we
            // compare against the BF16-rounded reference), so remaining error
            // comes from alignment + final rounding. Scale by the L1 norm of
            // the products (worst-case cancellation amplifies relative error).
            let scale: f64 = a.iter().zip(&w)
                .map(|(x, y)| (f64::from(x.to_f32()) * f64::from(y.to_f32())).abs())
                .sum::<f64>()
                .max(1e-3);
            prop_assert!(
                (got - want).abs() <= scale * 0.02,
                "got {got}, want {want}, scale {scale}"
            );
        }

        /// from_f32/to_f32 round trip never moves more than half a ULP of BF16.
        #[test]
        fn bf16_round_trip_error_bounded(x in -1e30f32..1e30) {
            let b = Bf16::from_f32(x);
            let back = b.to_f32();
            if x != 0.0 && x.is_finite() && back.is_finite() {
                prop_assert!(((back - x) / x).abs() <= 1.0 / 256.0, "{x} -> {back}");
            }
        }
    }
}
