//! Operand data types supported by the modeled hardware.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Numeric precision of tensor operands.
///
/// The TPUv4i MXU (and its CIM replacement modeled here) natively supports
/// `Int8` and `Bf16`; `Fp32` is included for accumulator and vector-unit
/// accounting.
///
/// # Examples
///
/// ```
/// use cimtpu_units::DataType;
/// assert_eq!(DataType::Int8.size_bytes(), 1);
/// assert_eq!(DataType::Bf16.mantissa_bits(), 8);
/// assert!(DataType::Bf16.is_float());
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataType {
    /// 8-bit signed integer (the precision used in the paper's evaluations).
    #[default]
    Int8,
    /// bfloat16: 1 sign, 8 exponent, 7 mantissa bits (8 with hidden one).
    Bf16,
    /// IEEE-754 single precision, used for accumulators.
    Fp32,
}

impl DataType {
    /// Size of one element in bytes.
    pub const fn size_bytes(self) -> u64 {
        match self {
            DataType::Int8 => 1,
            DataType::Bf16 => 2,
            DataType::Fp32 => 4,
        }
    }

    /// Number of mantissa bits fed to the integer MAC datapath.
    ///
    /// For `Int8` the whole operand is the "mantissa". For floating-point
    /// types this is the significand width *including* the hidden leading
    /// one, which is what the CIM pre-processing unit materializes before
    /// loading mantissas into the bitcell array.
    pub const fn mantissa_bits(self) -> u32 {
        match self {
            DataType::Int8 => 8,
            DataType::Bf16 => 8,
            DataType::Fp32 => 24,
        }
    }

    /// Whether this is a floating-point type (requires the CIM
    /// pre/post-processing pipeline for exponent alignment).
    pub const fn is_float(self) -> bool {
        matches!(self, DataType::Bf16 | DataType::Fp32)
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int8 => "INT8",
            DataType::Bf16 => "BF16",
            DataType::Fp32 => "FP32",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int8_has_no_exponent() {
        assert!(!DataType::Int8.is_float());
    }

    #[test]
    fn bf16_layout() {
        // mantissa_bits includes the hidden one.
        assert_eq!(DataType::Bf16.mantissa_bits(), 8);
    }

    #[test]
    fn display_matches_paper_convention() {
        assert_eq!(DataType::Int8.to_string(), "INT8");
        assert_eq!(DataType::Bf16.to_string(), "BF16");
    }
}
