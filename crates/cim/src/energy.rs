//! Energy and area model for the CIM-MXU.
//!
//! Constants are calibrated to the paper's Table II CIM column
//! (**7.26 TOPS/W**, **1.31 TOPS/mm²** at INT8, TSMC 22 nm, ~1.05 GHz,
//! from the authors' manually drawn CIM core layout + RTL P&R of the MXU).
//! As with the digital model, only these aggregates feed the system-level
//! evaluation, so a calibrated event-energy model substitutes for the
//! layout flow.

use serde::{Deserialize, Serialize};

use cimtpu_units::{Area, DataType, GemmShape, Joules, Watts};

use crate::geometry::CimMxuConfig;

/// Per-event energy and per-core area constants for a CIM-MXU.
///
/// # Examples
///
/// ```
/// use cimtpu_cim::CimEnergyModel;
/// use cimtpu_units::DataType;
/// let m = CimEnergyModel::tsmc22_cim();
/// assert!(m.mac_energy(DataType::Int8).as_picojoules() < 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CimEnergyModel {
    /// Dynamic energy of one INT8 MAC inside the bitcell array (local
    /// readout + AND + adder tree + shift-accumulate, amortized).
    mac_int8: Joules,
    /// Dynamic energy of one BF16 MAC (adds pre/post-processing).
    mac_bf16: Joules,
    /// Energy per weight byte written through the weight I/O port.
    weight_write_per_byte: Joules,
    /// Energy per activation/output byte moved through the grid edge.
    io_per_byte: Joules,
    /// Leakage power per CIM core.
    static_per_core: Watts,
    /// Layout area per CIM core.
    area_per_core: Area,
}

impl CimEnergyModel {
    /// The TSMC 22 nm digital-CIM calibration (paper Table II).
    ///
    /// A 16×8 grid of 128×256 cores evaluates to 7.26 TOPS/W and
    /// 1.31 TOPS/mm² at full utilization with these constants.
    pub fn tsmc22_cim() -> Self {
        CimEnergyModel {
            mac_int8: Joules::from_picojoules(0.25),
            mac_bf16: Joules::from_picojoules(0.45),
            weight_write_per_byte: Joules::from_picojoules(0.8),
            io_per_byte: Joules::from_picojoules(0.4),
            static_per_core: Watts::from_milliwatts(3.43),
            area_per_core: Area::from_mm2(0.2052),
        }
    }

    /// Dynamic energy of one MAC at the given precision.
    pub fn mac_energy(&self, dtype: DataType) -> Joules {
        match dtype {
            DataType::Int8 => self.mac_int8,
            DataType::Bf16 => self.mac_bf16,
            DataType::Fp32 => self.mac_bf16 * 3.0,
        }
    }

    /// Static power of the full grid.
    pub(crate) fn static_power(&self, config: &CimMxuConfig) -> Watts {
        Watts::new(self.static_per_core.get() * config.core_count() as f64)
    }

    /// Area of the full grid.
    pub(crate) fn mxu_area(&self, config: &CimMxuConfig) -> Area {
        Area::new(self.area_per_core.as_mm2() * config.core_count() as f64)
    }

    /// Dynamic energy accounting of one GEMM on the grid `config`.
    pub(crate) fn gemm_energy(
        &self,
        config: &CimMxuConfig,
        shape: GemmShape,
        dtype: DataType,
    ) -> CimGemmEnergy {
        let mac = Joules::new(self.mac_energy(dtype).get() * shape.macs() as f64);
        // Weights are written exactly once per residency; the written bytes
        // equal the weight matrix itself (partial tiles write less, we charge
        // the unique weight bytes).
        let weight_bytes = shape.weight_bytes(dtype).get();
        let weight_write = Joules::new(self.weight_write_per_byte.get() * weight_bytes as f64);
        // Activations re-streamed per n-macro-tile, outputs written per
        // k-macro-tile (32-bit partial sums).
        let n_tiles = shape.n().div_ceil(config.n_extent());
        let k_tiles = shape.k().div_ceil(config.k_extent());
        let io_bytes =
            shape.activation_bytes(dtype).get() * n_tiles + shape.m() * shape.n() * 4 * k_tiles;
        let io = Joules::new(self.io_per_byte.get() * io_bytes as f64);
        CimGemmEnergy {
            mac,
            weight_write,
            io,
        }
    }
}

/// Dynamic energy breakdown of one GEMM on a CIM-MXU. Leakage depends on
/// the whole chip's busy window, so the simulator charges it per run from
/// [`CimMxu::static_power`](crate::CimMxu::static_power).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CimGemmEnergy {
    mac: Joules,
    weight_write: Joules,
    io: Joules,
}

impl CimGemmEnergy {
    /// Dynamic in-array MAC energy.
    pub fn mac(&self) -> Joules {
        self.mac
    }

    /// Weight-write energy.
    pub fn weight_write(&self) -> Joules {
        self.weight_write
    }

    /// Streaming I/O energy.
    pub fn io(&self) -> Joules {
        self.io
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CimMxu, CimMxuConfig};

    #[test]
    fn gemm_energy_far_below_digital_constants() {
        // Sanity: per-MAC dynamic energy is ~9x below the digital 2.18 pJ.
        let m = CimEnergyModel::tsmc22_cim();
        let ratio = 2.18 / m.mac_energy(DataType::Int8).as_picojoules();
        assert!(ratio > 8.0 && ratio < 10.0, "ratio {ratio}");
    }

    #[test]
    fn fewer_cores_less_leakage() {
        let big = CimMxu::new(CimMxuConfig::with_grid(16, 16)).unwrap();
        let small = CimMxu::new(CimMxuConfig::with_grid(8, 8)).unwrap();
        assert!((big.static_power().get() / small.static_power().get() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn gemv_energy_dominated_by_weight_writes() {
        // A decode GEMV writes the whole weight matrix once for very few MACs.
        let mxu = CimMxu::new(CimMxuConfig::paper_default()).unwrap();
        let e = mxu.gemm_energy(GemmShape::gemv(7168, 7168).unwrap(), DataType::Int8);
        assert!(e.weight_write() > e.mac());
    }
}
