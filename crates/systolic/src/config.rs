//! Systolic array geometry and dataflow configuration.

use serde::{Deserialize, Serialize};

use cimtpu_units::{Error, Result};

/// Which operand stays resident in the PE array.
///
/// The naming follows SCALE-Sim / Eyeriss taxonomy. TPU MXUs are
/// weight-stationary; the other dataflows are provided for ablation studies.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Dataflow {
    /// Weights are pre-loaded into PEs; activations stream through
    /// (TPU-style). Requires a weight-load phase per tile.
    #[default]
    WeightStationary,
    /// Each PE accumulates one output element; both operands stream.
    OutputStationary,
    /// Activations are pre-loaded; weights stream through.
    InputStationary,
}

/// Geometry of a rectangular systolic array.
///
/// # Examples
///
/// ```
/// use cimtpu_systolic::{SystolicConfig, Dataflow};
/// let cfg = SystolicConfig::new(128, 128, Dataflow::WeightStationary);
/// assert_eq!(cfg.macs(), 16384);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SystolicConfig {
    rows: u64,
    cols: u64,
    dataflow: Dataflow,
    weight_double_buffering: bool,
}

impl SystolicConfig {
    /// Creates a configuration with weight double-buffering enabled.
    pub fn new(rows: u64, cols: u64, dataflow: Dataflow) -> Self {
        SystolicConfig {
            rows,
            cols,
            dataflow,
            weight_double_buffering: true,
        }
    }

    /// The 128×128 weight-stationary MXU of TPUv4i.
    pub fn tpuv4i_mxu() -> Self {
        SystolicConfig::new(128, 128, Dataflow::WeightStationary)
    }

    /// Disables (or enables) weight double-buffering.
    ///
    /// Without double buffering the weight-load phase of every tile is fully
    /// exposed; with it, loading the next tile's weights overlaps with the
    /// current tile's compute (the load of the *first* tile is always
    /// exposed).
    #[must_use]
    pub fn with_weight_double_buffering(mut self, enabled: bool) -> Self {
        self.weight_double_buffering = enabled;
        self
    }

    /// Number of PE rows (contraction dimension for WS).
    pub const fn rows(&self) -> u64 {
        self.rows
    }

    /// Number of PE columns (output-channel dimension for WS).
    pub const fn cols(&self) -> u64 {
        self.cols
    }

    /// The dataflow.
    pub(crate) const fn dataflow(&self) -> Dataflow {
        self.dataflow
    }

    /// Whether weight loads overlap with compute.
    pub(crate) const fn weight_double_buffering(&self) -> bool {
        self.weight_double_buffering
    }

    /// Total MAC units.
    pub const fn macs(&self) -> u64 {
        self.rows * self.cols
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if either dimension is zero.
    pub fn validate(&self) -> Result<()> {
        if self.rows == 0 || self.cols == 0 {
            return Err(Error::invalid_config(format!(
                "systolic array dimensions must be non-zero, got {}x{}",
                self.rows, self.cols
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tpuv4i_preset_matches_paper() {
        let c = SystolicConfig::tpuv4i_mxu();
        assert_eq!((c.rows(), c.cols()), (128, 128));
        assert_eq!(c.dataflow(), Dataflow::WeightStationary);
    }

    #[test]
    fn zero_dims_rejected() {
        assert!(SystolicConfig::new(0, 128, Dataflow::WeightStationary)
            .validate()
            .is_err());
        assert!(SystolicConfig::new(128, 0, Dataflow::OutputStationary)
            .validate()
            .is_err());
    }
}
