//! Baseline digital MXU: a weight-stationary systolic array of MAC units.
//!
//! This crate reimplements, in Rust, the analytical cycle model popularized
//! by SCALE-Sim (Samajdar et al., ISPASS 2020), which the paper uses to
//! evaluate the vanilla TPUv4i MXU (a 128×128 systolic array). It provides:
//!
//! - [`SystolicConfig`] — array geometry and [`Dataflow`] selection;
//! - [`SystolicArray`] — analytical cycle counts ([`SystolicArray::gemm_timing`]),
//!   SRAM traffic (`SystolicArray::gemm_traffic`) and energy/area
//!   ([`SystolicArray::gemm_energy`], [`SystolicArray::area`]);
//! - [`cycle_sim`] — a cycle-level *functional* simulator for small arrays
//!   that actually moves data through PE registers, used to validate both
//!   the analytical equations and numerical correctness;
//! - [`EnergyModel`] — per-event energy constants calibrated so that the
//!   128×128 INT8 array reproduces the paper's Table II digital column
//!   (0.77 TOPS/W, 0.648 TOPS/mm² at full utilization).
//!
//! # Examples
//!
//! ```
//! use cimtpu_systolic::{SystolicArray, SystolicConfig};
//! use cimtpu_units::{DataType, GemmShape};
//!
//! let mxu = SystolicArray::new(SystolicConfig::tpuv4i_mxu())?;
//! // A large prefill-style GEMM keeps the array busy...
//! let gemm = mxu.gemm_timing(GemmShape::new(8192, 7168, 7168)?, DataType::Int8);
//! assert!(gemm.utilization() > 0.9);
//! // ...while a decode-style GEMV wastes almost every MAC slot.
//! let gemv = mxu.gemm_timing(GemmShape::gemv(7168, 7168)?, DataType::Int8);
//! assert!(gemv.utilization() < 0.01);
//! # Ok::<(), cimtpu_units::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod analytical;
mod config;
pub mod cycle_sim;
pub mod cycle_sim_os;
mod energy;
#[cfg(test)]
mod proptests;
mod traffic;

pub use analytical::GemmTiming;
pub use config::{Dataflow, SystolicConfig};
pub use energy::{EnergyModel, GemmEnergy};
use traffic::GemmTraffic;

use cimtpu_units::{Area, DataType, GemmShape, Result, Watts};

/// An analytical model of a digital systolic-array matrix unit.
///
/// See the [crate-level documentation](crate) for an overview and example.
#[derive(Debug, Clone, PartialEq)]
pub struct SystolicArray {
    config: SystolicConfig,
    energy: EnergyModel,
}

impl SystolicArray {
    /// Creates an array model with the default (22 nm-calibrated) energy model.
    ///
    /// # Errors
    ///
    /// Returns an error if `config` is invalid (zero dimension).
    pub fn new(config: SystolicConfig) -> Result<Self> {
        config.validate()?;
        Ok(SystolicArray {
            config,
            energy: EnergyModel::tsmc22_digital(),
        })
    }

    /// The array configuration.
    pub fn config(&self) -> &SystolicConfig {
        &self.config
    }

    /// The energy model in use.
    pub fn energy_model(&self) -> &EnergyModel {
        &self.energy
    }

    /// Peak MAC throughput of the array (one MAC per PE per cycle).
    pub fn peak_macs_per_cycle(&self) -> u64 {
        self.config.rows() * self.config.cols()
    }

    /// Analytical cycle count and phase breakdown for one GEMM.
    pub fn gemm_timing(&self, shape: GemmShape, dtype: DataType) -> GemmTiming {
        analytical::gemm_timing(&self.config, shape, dtype)
    }

    /// SRAM traffic generated by one GEMM under this array's tiling.
    pub(crate) fn gemm_traffic(&self, shape: GemmShape, dtype: DataType) -> GemmTraffic {
        traffic::gemm_traffic(&self.config, shape, dtype)
    }

    /// Dynamic energy spent executing one GEMM.
    pub fn gemm_energy(&self, shape: GemmShape, dtype: DataType) -> GemmEnergy {
        let traffic = self.gemm_traffic(shape, dtype);
        self.energy.gemm_energy(shape, dtype, &traffic)
    }

    /// Total silicon area of the array.
    pub fn area(&self) -> Area {
        self.energy.array_area(self.peak_macs_per_cycle())
    }

    /// Leakage (static) power of the whole array.
    pub fn static_power(&self) -> Watts {
        self.energy.static_power(self.peak_macs_per_cycle())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cimtpu_units::Frequency;

    #[test]
    fn table2_digital_column_is_reproduced() {
        // Paper Table II: digital MXU, 16384 MACs/cycle,
        // 0.77 TOPS/W and 0.648 TOPS/mm^2 (INT8, 22 nm, ~1.05 GHz).
        let mxu = SystolicArray::new(SystolicConfig::tpuv4i_mxu()).unwrap();
        assert_eq!(mxu.peak_macs_per_cycle(), 16384);

        let clock = Frequency::from_ghz(1.05);
        let peak_tops = mxu.peak_macs_per_cycle() as f64 * 2.0 * clock.as_hz() / 1e12;

        // Sustained power at full utilization: dynamic MAC power + leakage.
        let dyn_w = mxu.peak_macs_per_cycle() as f64
            * mxu.energy_model().mac_energy(DataType::Int8).get()
            * clock.as_hz();
        let power = dyn_w + mxu.static_power().get();
        let tops_per_w = peak_tops / power;
        assert!(
            (tops_per_w - 0.77).abs() / 0.77 < 0.03,
            "expected ~0.77 TOPS/W, got {tops_per_w:.3}"
        );

        let tops_per_mm2 = peak_tops / mxu.area().as_mm2();
        assert!(
            (tops_per_mm2 - 0.648).abs() / 0.648 < 0.03,
            "expected ~0.648 TOPS/mm^2, got {tops_per_mm2:.3}"
        );
    }

    #[test]
    fn gemv_utilization_collapses() {
        let mxu = SystolicArray::new(SystolicConfig::tpuv4i_mxu()).unwrap();
        let t = mxu.gemm_timing(GemmShape::gemv(7168, 7168).unwrap(), DataType::Int8);
        // A decode GEMV on a 128x128 WS array spends almost all cycles on
        // weight refills: utilization is capped at m/R = 1/128.
        assert!(t.utilization() < 0.01, "utilization {}", t.utilization());
    }

    #[test]
    fn energy_scales_with_work() {
        let mxu = SystolicArray::new(SystolicConfig::tpuv4i_mxu()).unwrap();
        let small = mxu.gemm_energy(GemmShape::new(128, 128, 128).unwrap(), DataType::Int8);
        let big = mxu.gemm_energy(GemmShape::new(1024, 1024, 1024).unwrap(), DataType::Int8);
        let dynamic = |e: GemmEnergy| (e.mac() + e.weight_load() + e.io()).get();
        assert!(dynamic(big) > 100.0 * dynamic(small));
    }
}
