//! Matrix-multiplication shapes shared by every engine model.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{Bytes, DataType, Error, Result};

/// The shape of a single GEMM: `[m × k] · [k × n] = [m × n]`.
///
/// A GEMV is simply a `GemmShape` with `m == 1`; the engine models decide
/// how (in)efficiently they handle that case, which is the crux of the
/// paper's LLM-decoding analysis.
///
/// # Examples
///
/// ```
/// use cimtpu_units::{GemmShape, DataType};
/// let g = GemmShape::new(8, 7168, 7168)?;
/// assert_eq!(g.macs(), 8 * 7168 * 7168);
/// assert_eq!(g.weight_bytes(DataType::Int8).get(), 7168 * 7168);
/// assert!(!g.is_gemv());
/// # Ok::<(), cimtpu_units::Error>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct GemmShape {
    m: u64,
    k: u64,
    n: u64,
}

impl GemmShape {
    /// Creates a GEMM shape.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidShape`] if any dimension is zero.
    pub fn new(m: u64, k: u64, n: u64) -> Result<Self> {
        if m == 0 || k == 0 || n == 0 {
            return Err(Error::invalid_shape(format!(
                "gemm dimensions must be non-zero, got [{m} x {k}] . [{k} x {n}]"
            )));
        }
        Ok(GemmShape { m, k, n })
    }

    /// Creates a GEMV shape (`m == 1`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidShape`] if `k` or `n` is zero.
    pub fn gemv(k: u64, n: u64) -> Result<Self> {
        GemmShape::new(1, k, n)
    }

    /// Number of rows of the activation operand.
    pub const fn m(self) -> u64 {
        self.m
    }

    /// Contraction (inner) dimension.
    pub const fn k(self) -> u64 {
        self.k
    }

    /// Number of output columns (weight output channels).
    pub const fn n(self) -> u64 {
        self.n
    }

    /// Whether this shape degenerates to a matrix-vector product.
    pub const fn is_gemv(self) -> bool {
        self.m == 1
    }

    /// Total multiply-accumulate operations.
    pub const fn macs(self) -> u64 {
        self.m * self.k * self.n
    }

    /// Bytes of the `[m × k]` activation operand.
    pub fn activation_bytes(self, dtype: DataType) -> Bytes {
        Bytes::new(self.m * self.k * dtype.size_bytes())
    }

    /// Bytes of the `[k × n]` weight operand.
    pub fn weight_bytes(self, dtype: DataType) -> Bytes {
        Bytes::new(self.k * self.n * dtype.size_bytes())
    }

    /// Bytes of the `[m × n]` output operand.
    pub fn output_bytes(self, dtype: DataType) -> Bytes {
        Bytes::new(self.m * self.n * dtype.size_bytes())
    }

    /// Splits the `n` dimension into `parts` nearly equal shapes.
    ///
    /// Used to distribute output channels across multiple MXUs or
    /// tensor-parallel devices. Parts beyond `n` are dropped, so the
    /// returned vector may be shorter than `parts` but is never empty.
    ///
    /// # Panics
    ///
    /// Panics if `parts == 0`.
    pub fn split_n(self, parts: u64) -> Vec<GemmShape> {
        assert!(parts > 0, "cannot split a gemm into zero parts");
        let base = self.n / parts;
        let rem = self.n % parts;
        (0..parts)
            .map(|i| if i < rem { base + 1 } else { base })
            .filter(|&n| n > 0)
            .map(|n| GemmShape {
                m: self.m,
                k: self.k,
                n,
            })
            .collect()
    }

    /// Returns this shape with `m` replaced.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidShape`] if `m` is zero.
    pub fn with_m(self, m: u64) -> Result<Self> {
        GemmShape::new(m, self.k, self.n)
    }
}

impl fmt::Display for GemmShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} x {}] . [{} x {}]", self.m, self.k, self.k, self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_zero_dims() {
        assert!(GemmShape::new(0, 1, 1).is_err());
        assert!(GemmShape::new(1, 0, 1).is_err());
        assert!(GemmShape::new(1, 1, 0).is_err());
    }

    #[test]
    fn gemv_detection() {
        assert!(GemmShape::gemv(128, 1024).unwrap().is_gemv());
        assert!(!GemmShape::new(2, 128, 1024).unwrap().is_gemv());
    }

    #[test]
    fn byte_accounting() {
        let g = GemmShape::new(4, 8, 16).unwrap();
        assert_eq!(g.activation_bytes(DataType::Bf16).get(), 4 * 8 * 2);
        assert_eq!(g.weight_bytes(DataType::Int8).get(), 8 * 16);
        assert_eq!(g.output_bytes(DataType::Fp32).get(), 4 * 16 * 4);
    }

    #[test]
    fn split_n_conserves_work() {
        let g = GemmShape::new(8, 7168, 7168).unwrap();
        let parts = g.split_n(4);
        assert_eq!(parts.len(), 4);
        assert_eq!(parts.iter().map(|p| p.macs()).sum::<u64>(), g.macs());
        // Uneven split keeps every MAC exactly once.
        let parts = GemmShape::new(1, 3, 10).unwrap().split_n(3);
        assert_eq!(parts.iter().map(|p| p.n()).sum::<u64>(), 10);
    }

    #[test]
    fn split_n_drops_empty_parts() {
        let g = GemmShape::new(1, 1, 2).unwrap();
        let parts = g.split_n(5);
        assert_eq!(parts.len(), 2);
        assert!(parts.iter().all(|p| p.n() == 1));
    }
}
