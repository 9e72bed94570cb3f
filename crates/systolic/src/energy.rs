//! Energy and area model for the digital systolic MXU.
//!
//! Constants are calibrated to the paper's Table II digital column, which
//! the authors obtained from a Gemmini-generated 128×128 array after
//! place-and-route in TSMC 22 nm: **0.77 TOPS/W** and **0.648 TOPS/mm²**
//! at INT8 and full utilization (~1.05 GHz). Only these aggregate figures
//! flow into the system model, so an analytical event-energy model is an
//! adequate substitute for the original P&R flow.

use serde::{Deserialize, Serialize};

use cimtpu_units::{Area, DataType, GemmShape, Joules, Watts};

use crate::traffic::GemmTraffic;

/// Per-event energy and per-MAC area constants for a digital MAC array.
///
/// # Examples
///
/// ```
/// use cimtpu_systolic::EnergyModel;
/// use cimtpu_units::DataType;
/// let m = EnergyModel::tsmc22_digital();
/// assert!(m.mac_energy(DataType::Bf16) > m.mac_energy(DataType::Int8));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyModel {
    /// Dynamic energy of one INT8 MAC (multiply + accumulate + local reg).
    mac_int8: Joules,
    /// Dynamic energy of one BF16 MAC.
    mac_bf16: Joules,
    /// Energy per weight byte loaded into PE registers (SRAM read +
    /// distribution network + register write).
    weight_load_per_byte: Joules,
    /// Energy per activation/output byte streamed through the edge of the
    /// array.
    io_per_byte: Joules,
    /// Leakage + clock-tree power per MAC unit.
    static_per_mac: Watts,
    /// Layout area per MAC unit.
    area_per_mac: Area,
}

impl EnergyModel {
    /// The TSMC 22 nm digital MAC array calibration (paper Table II).
    ///
    /// At full utilization and 1.05 GHz a 128×128 array evaluates to
    /// 0.77 TOPS/W and 0.648 TOPS/mm² with these constants.
    pub fn tsmc22_digital() -> Self {
        EnergyModel {
            mac_int8: Joules::from_picojoules(2.18),
            mac_bf16: Joules::from_picojoules(3.9),
            weight_load_per_byte: Joules::from_picojoules(2.0),
            io_per_byte: Joules::from_picojoules(0.6),
            static_per_mac: Watts::from_milliwatts(0.437),
            area_per_mac: Area::from_um2(3241.0),
        }
    }

    /// Dynamic energy of one MAC at the given precision.
    pub fn mac_energy(&self, dtype: DataType) -> Joules {
        match dtype {
            DataType::Int8 => self.mac_int8,
            DataType::Bf16 => self.mac_bf16,
            // FP32 runs as multi-pass BF16 on the MXU datapath.
            DataType::Fp32 => self.mac_bf16 * 4.0,
        }
    }

    /// Static power for an array of `macs` MAC units.
    pub(crate) fn static_power(&self, macs: u64) -> Watts {
        Watts::new(self.static_per_mac.get() * macs as f64)
    }

    /// Area of an array of `macs` MAC units.
    pub(crate) fn array_area(&self, macs: u64) -> Area {
        Area::new(self.area_per_mac.as_mm2() * macs as f64)
    }

    /// Dynamic energy accounting of one GEMM given its traffic.
    pub(crate) fn gemm_energy(
        &self,
        shape: GemmShape,
        dtype: DataType,
        traffic: &GemmTraffic,
    ) -> GemmEnergy {
        let mac = Joules::new(self.mac_energy(dtype).get() * shape.macs() as f64);
        let weight_load =
            Joules::new(self.weight_load_per_byte.get() * traffic.weight_reads().get() as f64);
        let io = Joules::new(
            self.io_per_byte.get()
                * (traffic.activation_reads() + traffic.output_writes()).get() as f64,
        );
        GemmEnergy {
            mac,
            weight_load,
            io,
        }
    }
}

/// Dynamic energy breakdown of one GEMM on a digital MXU. Leakage depends
/// on the whole chip's busy window, so the simulator charges it per run
/// from [`SystolicArray::static_power`](crate::SystolicArray::static_power).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GemmEnergy {
    mac: Joules,
    weight_load: Joules,
    io: Joules,
}

impl GemmEnergy {
    /// Dynamic MAC energy.
    pub fn mac(&self) -> Joules {
        self.mac
    }

    /// Weight-load energy.
    pub fn weight_load(&self) -> Joules {
        self.weight_load
    }

    /// Streaming I/O energy.
    pub fn io(&self) -> Joules {
        self.io
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SystolicArray, SystolicConfig};
    use cimtpu_units::Frequency;

    #[test]
    fn static_energy_dominates_at_low_utilization() {
        let mxu = SystolicArray::new(SystolicConfig::tpuv4i_mxu()).unwrap();
        let shape = GemmShape::gemv(7168, 7168).unwrap();
        let e = mxu.gemm_energy(shape, DataType::Int8);
        // Leakage over the busy window, charged as the simulator does.
        let busy = mxu.gemm_timing(shape, DataType::Int8).total();
        let leakage = mxu
            .static_power()
            .for_duration(busy.at(Frequency::from_ghz(1.05)));
        // A GEMV keeps the array busy for many cycles doing few MACs:
        // leakage + weight loads dwarf MAC energy.
        assert!(leakage + e.weight_load() > e.mac() * 5.0);
    }

    #[test]
    fn mac_energy_dominates_at_high_utilization() {
        let mxu = SystolicArray::new(SystolicConfig::tpuv4i_mxu()).unwrap();
        let shape = GemmShape::new(1 << 15, 4096, 4096).unwrap();
        let e = mxu.gemm_energy(shape, DataType::Int8);
        let busy = mxu.gemm_timing(shape, DataType::Int8).total();
        let leakage = mxu
            .static_power()
            .for_duration(busy.at(Frequency::from_ghz(1.05)));
        assert!(e.mac() > leakage);
        assert!(e.mac() > e.weight_load());
    }
}
