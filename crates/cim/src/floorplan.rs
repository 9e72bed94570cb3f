//! Component-level floorplan and energy decomposition of the CIM core.
//!
//! The paper obtains core area from a manually drawn layout; this module is
//! the analytical substitute (DESIGN.md §2): a parametric decomposition of
//! the macro into its Fig. 4 components — bitcell array, local readout &
//! compute circuits, adder trees, shift-accumulators, word-line/input
//! drivers, weight I/O, PSUM buffer and control — normalized so the totals
//! equal the Table II-calibrated aggregates. The value of the breakdown is
//! *relative*: it shows where area/energy goes and how it scales with
//! geometry, which is what architecture exploration needs.

use serde::{Deserialize, Serialize};

use cimtpu_units::{Area, DataType, Joules};

use crate::energy::CimEnergyModel;
use crate::geometry::CimCoreConfig;

/// Per-component silicon area of one CIM core.
///
/// # Examples
///
/// ```
/// use cimtpu_cim::{CimCoreConfig, CimCoreFloorplan};
/// let fp = CimCoreFloorplan::tsmc22(&CimCoreConfig::paper_default());
/// // The bitcell array dominates a memory-centric macro.
/// assert!(fp.bitcell_fraction() > 0.3);
/// let total = fp.total().as_mm2();
/// assert!((total - 0.2052).abs() / 0.2052 < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CimCoreFloorplan {
    bitcell_array: Area,
    local_readout: Area,
    adder_trees: Area,
    shift_accumulators: Area,
    input_drivers: Area,
    weight_io: Area,
    psum_buffer: Area,
    control: Area,
}

/// Relative weights of the floorplan components (unitless; derived from
/// typical digital-CIM macro publications: the 6T/8T array plus its local
/// compute is roughly half the macro, arithmetic another third).
struct ComponentWeights {
    bitcell: f64,
    readout: f64,
    adder: f64,
    shift_acc: f64,
    drivers: f64,
    weight_io: f64,
    psum: f64,
    control: f64,
}

impl ComponentWeights {
    fn tsmc22(core: &CimCoreConfig) -> Self {
        let cells = (core.rows() * core.cols()) as f64;
        // Adder-tree size grows with rows * log2(rows) per column group.
        let adder_units =
            core.cols() as f64 * core.rows() as f64 * (core.rows() as f64).log2() / 16.0;
        let column_groups = (core.cols() / core.column_group()) as f64;
        ComponentWeights {
            bitcell: cells,
            readout: cells * 0.28,
            adder: adder_units,
            shift_acc: column_groups * 96.0,
            drivers: core.rows() as f64 * 40.0,
            weight_io: core.weight_io_bytes_per_cycle() as f64 * 100.0,
            psum: core.cols() as f64 * 16.0,
            control: cells * 0.02,
        }
    }

    fn total(&self) -> f64 {
        self.bitcell
            + self.readout
            + self.adder
            + self.shift_acc
            + self.drivers
            + self.weight_io
            + self.psum
            + self.control
    }
}

impl CimCoreFloorplan {
    /// Builds the 22 nm floorplan for `core`, normalized to the calibrated
    /// per-core area of [`CimEnergyModel::tsmc22_cim`].
    pub fn tsmc22(core: &CimCoreConfig) -> Self {
        let target = CimEnergyModel::tsmc22_cim()
            .mxu_area(&crate::geometry::CimMxuConfig::with_grid(1, 1).with_core(*core));
        CimCoreFloorplan::scaled(core, target)
    }

    /// Builds the floorplan scaled to an arbitrary total core area.
    pub fn scaled(core: &CimCoreConfig, total: Area) -> Self {
        let w = ComponentWeights::tsmc22(core);
        let unit = total.as_mm2() / w.total();
        let mm2 = |x: f64| Area::from_mm2(x * unit);
        CimCoreFloorplan {
            bitcell_array: mm2(w.bitcell),
            local_readout: mm2(w.readout),
            adder_trees: mm2(w.adder),
            shift_accumulators: mm2(w.shift_acc),
            input_drivers: mm2(w.drivers),
            weight_io: mm2(w.weight_io),
            psum_buffer: mm2(w.psum),
            control: mm2(w.control),
        }
    }

    /// Bitcell (SRAM) array area.
    pub fn bitcell_array(&self) -> Area {
        self.bitcell_array
    }

    /// Local readout-and-compute circuit area.
    pub fn local_readout(&self) -> Area {
        self.local_readout
    }

    /// Adder-tree area.
    pub fn adder_trees(&self) -> Area {
        self.adder_trees
    }

    /// Shift-accumulator area.
    pub fn shift_accumulators(&self) -> Area {
        self.shift_accumulators
    }

    /// Word-line and input-driver area.
    pub fn input_drivers(&self) -> Area {
        self.input_drivers
    }

    /// Weight I/O port area.
    pub fn weight_io(&self) -> Area {
        self.weight_io
    }

    /// PSUM buffer area.
    pub fn psum_buffer(&self) -> Area {
        self.psum_buffer
    }

    /// Control logic area.
    pub fn control(&self) -> Area {
        self.control
    }

    /// Total core area (sum of all components).
    pub fn total(&self) -> Area {
        Area::from_mm2(
            self.bitcell_array.as_mm2()
                + self.local_readout.as_mm2()
                + self.adder_trees.as_mm2()
                + self.shift_accumulators.as_mm2()
                + self.input_drivers.as_mm2()
                + self.weight_io.as_mm2()
                + self.psum_buffer.as_mm2()
                + self.control.as_mm2(),
        )
    }

    /// Fraction of the core occupied by the bitcell array.
    pub fn bitcell_fraction(&self) -> f64 {
        self.bitcell_array.as_mm2() / self.total().as_mm2()
    }

    /// All components as `(name, area)` rows for reporting.
    pub fn components(&self) -> Vec<(&'static str, Area)> {
        vec![
            ("bitcell array", self.bitcell_array),
            ("local readout & compute", self.local_readout),
            ("adder trees", self.adder_trees),
            ("shift-accumulators", self.shift_accumulators),
            ("WL & input drivers", self.input_drivers),
            ("weight I/O", self.weight_io),
            ("PSUM buffer", self.psum_buffer),
            ("control", self.control),
        ]
    }
}

/// Per-MAC energy decomposition of the CIM datapath.
///
/// Splits the calibrated [`CimEnergyModel::mac_energy`] into the Fig. 4
/// pipeline stages so sensitivity studies can scale individual components.
///
/// # Examples
///
/// ```
/// use cimtpu_cim::{CimCoreConfig, MacEnergyBreakdown};
/// use cimtpu_units::DataType;
/// let b = MacEnergyBreakdown::tsmc22(&CimCoreConfig::paper_default(), DataType::Int8);
/// // Integer mode leaves the FP hardware idle: the named stages carry
/// // slightly less than the calibrated 0.25 pJ/MAC aggregate.
/// assert!(b.total().as_picojoules() > 0.22 && b.total().as_picojoules() <= 0.25);
/// assert!(b.adder_tree() > b.bitcell_read());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MacEnergyBreakdown {
    bitcell_read: Joules,
    bitwise_multiply: Joules,
    adder_tree: Joules,
    shift_accumulate: Joules,
    broadcast: Joules,
    fp_processing: Joules,
}

impl MacEnergyBreakdown {
    /// Decomposes the calibrated per-MAC energy for `core` at `dtype`.
    pub fn tsmc22(core: &CimCoreConfig, dtype: DataType) -> Self {
        let total = CimEnergyModel::tsmc22_cim().mac_energy(dtype);
        // Stage shares: the adder tree dominates digital-CIM MAC energy
        // (every bit-plane ripples through log2(rows) adder levels); local
        // bitcell reads are nearly free compared to a full SRAM access.
        let depth = (core.rows() as f64).log2();
        let shares = [
            ("bitcell", 0.10),
            ("mult", 0.08),
            ("adder", 0.075 * depth), // 0.525 at 128 rows
            ("shift", 0.12),
            ("broadcast", 0.10),
        ];
        let named: f64 = shares.iter().map(|(_, s)| s).sum();
        let fp_share = (1.0 - named).max(0.0); // remainder: FP pre/post
        let part = |s: f64| Joules::new(total.get() * s);
        MacEnergyBreakdown {
            bitcell_read: part(shares[0].1),
            bitwise_multiply: part(shares[1].1),
            adder_tree: part(shares[2].1),
            shift_accumulate: part(shares[3].1),
            broadcast: part(shares[4].1),
            fp_processing: part(if dtype.is_float() { fp_share } else { 0.0 }),
        }
    }

    /// SRAM local-read energy per MAC.
    pub fn bitcell_read(&self) -> Joules {
        self.bitcell_read
    }

    /// Bitwise AND/multiply energy per MAC.
    pub fn bitwise_multiply(&self) -> Joules {
        self.bitwise_multiply
    }

    /// Adder-tree energy per MAC.
    pub fn adder_tree(&self) -> Joules {
        self.adder_tree
    }

    /// Shift-accumulate energy per MAC.
    pub fn shift_accumulate(&self) -> Joules {
        self.shift_accumulate
    }

    /// Input-broadcast energy per MAC.
    pub fn broadcast(&self) -> Joules {
        self.broadcast
    }

    /// FP pre/post-processing energy per MAC (zero for integer modes).
    pub fn fp_processing(&self) -> Joules {
        self.fp_processing
    }

    /// Sum of all stages.
    pub fn total(&self) -> Joules {
        self.bitcell_read
            + self.bitwise_multiply
            + self.adder_tree
            + self.shift_accumulate
            + self.broadcast
            + self.fp_processing
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::CimMxuConfig;

    #[test]
    fn floorplan_sums_to_calibrated_area() {
        let core = CimCoreConfig::paper_default();
        let fp = CimCoreFloorplan::tsmc22(&core);
        let calibrated = CimEnergyModel::tsmc22_cim()
            .mxu_area(&CimMxuConfig::with_grid(1, 1))
            .as_mm2();
        assert!((fp.total().as_mm2() - calibrated).abs() / calibrated < 1e-9);
    }

    #[test]
    fn components_sum_to_total() {
        let fp = CimCoreFloorplan::tsmc22(&CimCoreConfig::paper_default());
        let sum: f64 = fp.components().iter().map(|(_, a)| a.as_mm2()).sum();
        assert!((sum - fp.total().as_mm2()).abs() < 1e-12);
    }

    #[test]
    fn memory_dominates_the_macro() {
        let fp = CimCoreFloorplan::tsmc22(&CimCoreConfig::paper_default());
        // Bitcells + local readout are most of a memory-centric design.
        let mem = (fp.bitcell_array().as_mm2() + fp.local_readout().as_mm2()) / fp.total().as_mm2();
        assert!(mem > 0.5, "memory fraction {mem:.3}");
        assert!(fp.control().as_mm2() < fp.bitcell_array().as_mm2());
    }

    #[test]
    fn int8_mac_energy_decomposition_is_exact() {
        let core = CimCoreConfig::paper_default();
        let b = MacEnergyBreakdown::tsmc22(&core, DataType::Int8);
        let calibrated = CimEnergyModel::tsmc22_cim().mac_energy(DataType::Int8);
        // INT8 has no FP stage; the named stages must carry ~92.5% of the
        // calibrated per-MAC energy (remainder is FP hardware, idle).
        assert!(b.fp_processing() == Joules::ZERO);
        let named = b.total().get() / calibrated.get();
        assert!((0.9..1.0).contains(&named), "named share {named:.3}");
    }

    #[test]
    fn bf16_pays_for_fp_processing() {
        let core = CimCoreConfig::paper_default();
        let int8 = MacEnergyBreakdown::tsmc22(&core, DataType::Int8);
        let bf16 = MacEnergyBreakdown::tsmc22(&core, DataType::Bf16);
        assert!(bf16.fp_processing().get() > 0.0);
        assert!(bf16.total() > int8.total());
    }

    #[test]
    fn adder_tree_grows_with_rows() {
        let small = CimCoreFloorplan::scaled(&CimCoreConfig::paper_default(), Area::from_mm2(1.0));
        // Relative adder share for a 128-row core.
        let share = small.adder_trees().as_mm2() / small.total().as_mm2();
        assert!(share > 0.1 && share < 0.5, "adder share {share:.3}");
    }
}
