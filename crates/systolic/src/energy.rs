//! Energy and area model for the digital systolic MXU.
//!
//! Constants are calibrated to the paper's Table II digital column, which
//! the authors obtained from a Gemmini-generated 128×128 array after
//! place-and-route in TSMC 22 nm: **0.77 TOPS/W** and **0.648 TOPS/mm²**
//! at INT8 and full utilization (~1.05 GHz). Only these aggregate figures
//! flow into the system model, so an analytical event-energy model is an
//! adequate substitute for the original P&R flow (see DESIGN.md §2).

use serde::{Deserialize, Serialize};

use cimtpu_units::{Area, Cycles, DataType, Frequency, GemmShape, Joules, Watts};

use crate::analytical::GemmTiming;
use crate::config::SystolicConfig;
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
    /// Calibration reference clock for the Table II numbers.
    pub const REFERENCE_CLOCK_GHZ: f64 = 1.05;

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

    /// Energy per weight byte loaded into the array.
    pub fn weight_load_per_byte(&self) -> Joules {
        self.weight_load_per_byte
    }

    /// Energy per streamed I/O byte.
    pub fn io_per_byte(&self) -> Joules {
        self.io_per_byte
    }

    /// Static power for an array of `macs` MAC units.
    pub fn static_power(&self, macs: u64) -> Watts {
        Watts::new(self.static_per_mac.get() * macs as f64)
    }

    /// Area of an array of `macs` MAC units.
    pub fn array_area(&self, macs: u64) -> Area {
        Area::new(self.area_per_mac.as_mm2() * macs as f64)
    }

    /// Full energy accounting of one GEMM given its timing and traffic.
    pub(crate) fn gemm_energy(
        &self,
        config: &SystolicConfig,
        shape: GemmShape,
        dtype: DataType,
        timing: &GemmTiming,
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
            static_power: self.static_power(config.macs()),
            busy_cycles: timing.total(),
        }
    }
}

/// Energy breakdown of one GEMM on a digital MXU.
///
/// The static component depends on how long the array was busy, so it is
/// finalized with a clock via [`GemmEnergy::total_at`]; [`GemmEnergy::total`]
/// uses the calibration clock.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GemmEnergy {
    mac: Joules,
    weight_load: Joules,
    io: Joules,
    static_power: Watts,
    busy_cycles: Cycles,
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

    /// Static (leakage) energy over the busy window at clock `clock`.
    pub fn static_energy_at(&self, clock: Frequency) -> Joules {
        self.static_power.for_duration(self.busy_cycles.at(clock))
    }

    /// Total energy at clock `clock`.
    pub fn total_at(&self, clock: Frequency) -> Joules {
        self.mac + self.weight_load + self.io + self.static_energy_at(clock)
    }

    /// Total energy at the calibration clock (1.05 GHz).
    pub fn total(&self) -> Joules {
        self.total_at(Frequency::from_ghz(EnergyModel::REFERENCE_CLOCK_GHZ))
    }

    /// Busy window used for static-energy accounting, in cycles.
    pub fn busy_cycles(&self) -> Cycles {
        self.busy_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SystolicArray, SystolicConfig};

    #[test]
    fn static_energy_dominates_at_low_utilization() {
        let mxu = SystolicArray::new(SystolicConfig::tpuv4i_mxu()).unwrap();
        let e = mxu.gemm_energy(GemmShape::gemv(7168, 7168).unwrap(), DataType::Int8);
        let clock = Frequency::from_ghz(1.05);
        // A GEMV keeps the array busy for many cycles doing few MACs:
        // leakage + weight loads dwarf MAC energy.
        assert!(e.static_energy_at(clock) + e.weight_load() > e.mac() * 5.0);
    }

    #[test]
    fn mac_energy_dominates_at_high_utilization() {
        let mxu = SystolicArray::new(SystolicConfig::tpuv4i_mxu()).unwrap();
        let e = mxu.gemm_energy(GemmShape::new(1 << 15, 4096, 4096).unwrap(), DataType::Int8);
        let clock = Frequency::from_ghz(1.05);
        assert!(e.mac() > e.static_energy_at(clock));
        assert!(e.mac() > e.weight_load());
    }

    #[test]
    fn totals_are_additive() {
        let mxu = SystolicArray::new(SystolicConfig::tpuv4i_mxu()).unwrap();
        let e = mxu.gemm_energy(GemmShape::new(128, 128, 128).unwrap(), DataType::Int8);
        let clock = Frequency::from_ghz(1.05);
        let sum = e.mac() + e.weight_load() + e.io() + e.static_energy_at(clock);
        assert!((sum.get() - e.total_at(clock).get()).abs() < 1e-18);
    }
}
