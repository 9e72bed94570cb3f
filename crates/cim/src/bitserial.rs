//! Functional bit-serial INT8 MAC engine.
//!
//! Digital SRAM CIM macros compute a dot product by applying the input
//! vector one *bit-plane* at a time: in each bit-cycle, every bitcell row
//! whose input bit is 1 contributes its stored weight to a per-column adder
//! tree; the per-bit partial sums are then combined by a shift-accumulator
//! (`psum += bit_psum << b`), with the MSB plane weighted negatively for
//! two's-complement inputs.
//!
//! This module implements that computation *exactly* (no timing), so tests
//! can prove the CIM datapath is numerically identical to a plain integer
//! dot product — the digital-CIM robustness argument from the paper's
//! Section II-B.
//!
//! # Examples
//!
//! ```
//! use cimtpu_cim::bitserial::BitSerialMacUnit;
//!
//! let unit = BitSerialMacUnit::new(4); // 4 input channels
//! let input = [1i8, -2, 3, -4];
//! let weights = [[10i8], [20], [30], [40]]; // one output column
//! let cols: Vec<Vec<i8>> = weights.iter().map(|r| r.to_vec()).collect();
//! let out = unit.matvec(&input, &cols)?;
//! assert_eq!(out, vec![1 * 10 - 2 * 20 + 3 * 30 - 4 * 40]);
//! # Ok::<(), cimtpu_units::Error>(())
//! ```

use cimtpu_units::{Error, Result};

/// A functional model of one bank's bit-serial MAC datapath.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitSerialMacUnit {
    rows: usize,
}

impl BitSerialMacUnit {
    /// Creates a unit with `rows` input channels.
    pub fn new(rows: usize) -> Self {
        BitSerialMacUnit { rows }
    }

    /// Computes `input · weights` exactly as the bit-serial hardware does.
    ///
    /// `weights` is row-major: `weights[row][col]`. Returns one `i32`
    /// accumulator per output column.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidShape`] if `input.len()` exceeds the unit's
    /// row count, `weights` row count differs from `input.len()`, or the
    /// weight matrix is ragged.
    pub fn matvec(&self, input: &[i8], weights: &[Vec<i8>]) -> Result<Vec<i32>> {
        if input.len() > self.rows {
            return Err(Error::invalid_shape(format!(
                "input length {} exceeds {} rows",
                input.len(),
                self.rows
            )));
        }
        if weights.len() != input.len() {
            return Err(Error::invalid_shape(format!(
                "weight rows {} != input length {}",
                weights.len(),
                input.len()
            )));
        }
        let cols = weights.first().map_or(0, Vec::len);
        if weights.iter().any(|r| r.len() != cols) {
            return Err(Error::invalid_shape("weight matrix must be rectangular"));
        }

        let mut acc = vec![0i32; cols];
        // Bit-plane loop: LSB first, MSB carries negative weight (two's
        // complement: x = -b7*2^7 + Σ_{b<7} b_i*2^i).
        for bit in 0..8u32 {
            let sign: i32 = if bit == 7 { -1 } else { 1 };
            for (row, &x) in input.iter().enumerate() {
                if (x as u8 >> bit) & 1 == 1 {
                    // This row's wordline fires: add its weights into the
                    // per-column adder tree for this bit-plane.
                    for (col, acc_c) in acc.iter_mut().enumerate() {
                        *acc_c += sign * (i32::from(weights[row][col]) << bit);
                    }
                }
            }
        }
        Ok(acc)
    }

    /// Reference integer dot product for validation.
    #[cfg(test)]
    pub(crate) fn matvec_reference(input: &[i8], weights: &[Vec<i8>]) -> Vec<i32> {
        let cols = weights.first().map_or(0, Vec::len);
        (0..cols)
            .map(|c| {
                input
                    .iter()
                    .zip(weights)
                    .map(|(&x, w_row)| i32::from(x) * i32::from(w_row[c]))
                    .sum()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn matches_reference_on_corner_values() {
        let unit = BitSerialMacUnit::new(4);
        let input = [i8::MIN, i8::MAX, -1, 0];
        let weights = vec![
            vec![i8::MIN, i8::MAX],
            vec![i8::MAX, i8::MIN],
            vec![-1, 1],
            vec![127, -128],
        ];
        assert_eq!(
            unit.matvec(&input, &weights).unwrap(),
            BitSerialMacUnit::matvec_reference(&input, &weights)
        );
    }

    #[test]
    fn rejects_mismatched_shapes() {
        let unit = BitSerialMacUnit::new(2);
        assert!(unit
            .matvec(&[1, 2, 3], &[vec![1], vec![2], vec![3]])
            .is_err());
        assert!(unit.matvec(&[1, 2], &[vec![1]]).is_err());
        assert!(unit.matvec(&[1, 2], &[vec![1, 2], vec![3]]).is_err());
    }

    #[test]
    fn empty_columns_yield_empty_output() {
        let unit = BitSerialMacUnit::new(2);
        let out = unit.matvec(&[1, 2], &[vec![], vec![]]).unwrap();
        assert!(out.is_empty());
    }

    proptest! {
        /// The bit-serial decomposition is exact for all INT8 inputs.
        #[test]
        fn bit_serial_equals_reference(
            input in proptest::collection::vec(any::<i8>(), 1..128),
            cols in 1usize..16,
            seed in any::<u64>(),
        ) {
            let rows = input.len();
            let mut s = seed | 1;
            let mut next = move || {
                s ^= s << 13; s ^= s >> 7; s ^= s << 17;
                (s % 256) as i64 as i8
            };
            let weights: Vec<Vec<i8>> =
                (0..rows).map(|_| (0..cols).map(|_| next()).collect()).collect();
            let unit = BitSerialMacUnit::new(128);
            let got = unit.matvec(&input, &weights).unwrap();
            let want = BitSerialMacUnit::matvec_reference(&input, &weights);
            prop_assert_eq!(got, want);
        }
    }
}
