//! TPU architecture configuration (Table I) and design presets (Table IV).

use serde::{Deserialize, Serialize};

use cimtpu_cim::CimMxuConfig;
use cimtpu_mapper::MemoryLevels;
use cimtpu_systolic::SystolicConfig;
use cimtpu_units::{Bandwidth, Bytes, Error, Frequency, Result};

use crate::vpu::VpuConfig;

/// Which matrix engine populates the TensorCore.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum MxuKind {
    /// The vanilla TPUv4i 128×128 weight-stationary systolic array.
    DigitalSystolic(SystolicConfig),
    /// The paper's CIM-MXU (a grid of digital CIM cores).
    Cim(CimMxuConfig),
}

impl MxuKind {
    /// Peak MACs per cycle of one MXU of this kind.
    pub(crate) fn peak_macs_per_cycle(&self) -> u64 {
        match self {
            MxuKind::DigitalSystolic(c) => c.macs(),
            MxuKind::Cim(c) => c.peak_macs_per_cycle(),
        }
    }

    /// Short label for reports.
    pub fn label(&self) -> String {
        match self {
            MxuKind::DigitalSystolic(c) => format!("systolic {}x{}", c.rows(), c.cols()),
            MxuKind::Cim(c) => format!("CIM {}x{}", c.grid_rows(), c.grid_cols()),
        }
    }
}

/// Full architecture description of one TPU chip (Table I).
///
/// # Examples
///
/// ```
/// use cimtpu_core::TpuConfig;
/// let base = TpuConfig::tpuv4i();
/// assert_eq!(base.mxu_count(), 4);
/// assert_eq!(base.peak_macs_per_cycle(), 65536);
/// // Design A halves peak for big energy savings on LLM decoding.
/// assert_eq!(TpuConfig::design_a().peak_macs_per_cycle(), 32768);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TpuConfig {
    name: String,
    clock: Frequency,
    mxu_count: u64,
    mxu: MxuKind,
    vpu: VpuConfig,
    levels: MemoryLevels,
    hbm_capacity: Bytes,
    ici_links: u64,
    ici_link_bandwidth: Bandwidth,
}

impl TpuConfig {
    /// The TPUv4i baseline (Table I, left column).
    pub fn tpuv4i() -> Self {
        TpuConfig {
            name: "TPUv4i".to_owned(),
            clock: Frequency::from_ghz(1.05),
            mxu_count: 4,
            mxu: MxuKind::DigitalSystolic(SystolicConfig::tpuv4i_mxu()),
            vpu: VpuConfig::tpuv4i(),
            levels: MemoryLevels::tpuv4i(),
            hbm_capacity: Bytes::from_gib(8),
            ici_links: 2,
            ici_link_bandwidth: Bandwidth::from_gb_per_s(100.0),
        }
    }

    /// The default CIM-based TPU (Table I, right column): four 16×8
    /// CIM-MXUs, everything else unchanged.
    pub fn cim_base() -> Self {
        let mut cfg = TpuConfig::tpuv4i();
        cfg.name = "CIM-TPU".to_owned();
        cfg.mxu = MxuKind::Cim(CimMxuConfig::paper_default());
        cfg
    }

    /// A CIM-based TPU with `mxu_count` MXUs of `grid_rows × grid_cols`
    /// CIM cores (the Table IV axes).
    pub fn cim_variant(mxu_count: u64, grid_rows: u64, grid_cols: u64) -> Self {
        let mut cfg = TpuConfig::tpuv4i();
        cfg.name = format!("CIM-TPU {mxu_count}x({grid_rows}x{grid_cols})");
        cfg.mxu_count = mxu_count;
        cfg.mxu = MxuKind::Cim(CimMxuConfig::with_grid(grid_rows, grid_cols));
        cfg
    }

    /// Design A: four CIM-MXUs with 8×8 grids — the paper's optimized
    /// configuration for LLM inference (latency/energy trade-off on the
    /// memory-bound decode stage).
    pub fn design_a() -> Self {
        let mut cfg = TpuConfig::cim_variant(4, 8, 8);
        cfg.name = "Design A".to_owned();
        cfg
    }

    /// Design B: eight CIM-MXUs with 16×8 grids — the paper's optimized
    /// configuration for compute-bound DiT inference.
    pub fn design_b() -> Self {
        let mut cfg = TpuConfig::cim_variant(8, 16, 8);
        cfg.name = "Design B".to_owned();
        cfg
    }

    /// All nine Table IV design points (count × grid), in sweep order.
    pub fn table4_designs() -> Vec<TpuConfig> {
        let mut out = Vec::new();
        for &(gr, gc) in &[(8u64, 8u64), (16, 8), (16, 16)] {
            for &count in &[2u64, 4, 8] {
                out.push(TpuConfig::cim_variant(count, gr, gc));
            }
        }
        out
    }

    /// A TPUv4-like training chip (Sec. III: "our architecture modeling can
    /// also be adapted to other TPU variants"): doubled MXU count and HBM
    /// bandwidth relative to the inference-oriented TPUv4i.
    pub fn tpuv4_like() -> Self {
        let mut cfg = TpuConfig::tpuv4i();
        cfg.name = "TPUv4-like".to_owned();
        cfg.mxu_count = 8;
        cfg.levels = MemoryLevels::tpuv4i().with_hbm_bandwidth(Bandwidth::from_gb_per_s(1228.0));
        cfg.hbm_capacity = Bytes::from_gib(32);
        cfg
    }

    /// A CIM-based TPUv4-like chip (eight 16×8 CIM-MXUs).
    pub fn cim_tpuv4_like() -> Self {
        let mut cfg = TpuConfig::tpuv4_like();
        cfg.name = "CIM-TPUv4-like".to_owned();
        cfg.mxu = MxuKind::Cim(CimMxuConfig::paper_default());
        cfg
    }

    /// An A100-like "big accelerator" used only for the Fig. 2d runtime
    /// breakdown (relative fractions, not absolute speed): more matrix
    /// throughput and HBM bandwidth than a TPUv4i.
    pub fn a100_like() -> Self {
        let mut cfg = TpuConfig::tpuv4i();
        cfg.name = "A100-like".to_owned();
        cfg.clock = Frequency::from_ghz(1.41);
        cfg.levels = MemoryLevels::tpuv4i()
            .with_hbm_bandwidth(Bandwidth::from_gb_per_s(1555.0))
            .with_cmem(Bytes::from_mib(40));
        cfg
    }

    /// The chip name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the configuration.
    #[must_use]
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Core clock.
    pub fn clock(&self) -> Frequency {
        self.clock
    }

    /// Number of MXUs in the TensorCore.
    pub fn mxu_count(&self) -> u64 {
        self.mxu_count
    }

    /// The MXU kind.
    pub fn mxu(&self) -> &MxuKind {
        &self.mxu
    }

    /// The vector unit.
    pub(crate) fn vpu(&self) -> &VpuConfig {
        &self.vpu
    }

    /// The memory hierarchy.
    pub fn levels(&self) -> &MemoryLevels {
        &self.levels
    }

    /// Main-memory capacity.
    pub fn hbm_capacity(&self) -> Bytes {
        self.hbm_capacity
    }

    /// Number of inter-chip links.
    pub fn ici_links(&self) -> u64 {
        self.ici_links
    }

    /// Bandwidth per inter-chip link.
    pub fn ici_link_bandwidth(&self) -> Bandwidth {
        self.ici_link_bandwidth
    }

    /// Chip-level peak MAC throughput (all MXUs).
    pub fn peak_macs_per_cycle(&self) -> u64 {
        self.mxu_count * self.mxu.peak_macs_per_cycle()
    }

    /// Chip-level peak in TOPS (2 ops per MAC) at the configured clock.
    pub fn peak_tops(&self) -> f64 {
        self.peak_macs_per_cycle() as f64 * 2.0 * self.clock.as_hz() / 1e12
    }

    /// Replaces the MXU configuration.
    #[must_use]
    pub fn with_mxu(mut self, count: u64, kind: MxuKind) -> Self {
        self.mxu_count = count;
        self.mxu = kind;
        self
    }

    /// Replaces the memory hierarchy.
    #[must_use]
    pub fn with_levels(mut self, levels: MemoryLevels) -> Self {
        self.levels = levels;
        self
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for a zero MXU count, a clock or
    /// an HBM or OCI bandwidth that is not positive and finite (NaN and ∞
    /// included), a zero VMEM or CMEM capacity, or an invalid MXU
    /// geometry.
    pub fn validate(&self) -> Result<()> {
        if self.mxu_count == 0 {
            return Err(Error::invalid_config("MXU count must be non-zero"));
        }
        // `is_finite` rejects NaN and ∞: a comparison alone lets NaN through.
        let rates = [
            ("clock", self.clock.as_hz()),
            ("HBM bandwidth", self.levels.hbm_bandwidth().get()),
            ("OCI bandwidth", self.levels.oci_bandwidth().get()),
            ("ICI link bandwidth", self.ici_link_bandwidth.get()),
        ];
        for (name, rate) in rates {
            if !(rate.is_finite() && rate > 0.0) {
                return Err(Error::invalid_config(format!(
                    "{name} must be positive and finite"
                )));
            }
        }
        if self.levels.vmem().get() == 0 || self.levels.cmem().get() == 0 {
            return Err(Error::invalid_config(
                "VMEM and CMEM capacities must be non-zero",
            ));
        }
        if self.ici_links == 0 {
            return Err(Error::invalid_config("at least one ICI link is required"));
        }
        self.vpu.validate()?;
        match &self.mxu {
            MxuKind::DigitalSystolic(c) => c.validate(),
            MxuKind::Cim(c) => c.validate(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cimtpu_units::{Joules, Watts};

    #[test]
    fn validate_rejects_non_finite_clocks() {
        let levels = || TpuConfig::design_a().levels().clone();
        for factor in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -1.0] {
            let mut clocked = TpuConfig::design_a();
            clocked.clock = Frequency::from_ghz(1.0) * factor;
            let bw = Bandwidth::from_gb_per_s(614.0) * factor;
            let hbm = TpuConfig::design_a().with_levels(levels().with_hbm_bandwidth(bw));
            let oci = TpuConfig::design_a().with_levels(levels().with_oci_bandwidth(bw));
            for (what, cfg) in [("clock", &clocked), ("HBM", &hbm), ("OCI", &oci)] {
                assert!(
                    matches!(cfg.validate(), Err(Error::InvalidConfig(_))),
                    "{what} x{factor} accepted"
                );
            }
        }
        let vmem = TpuConfig::design_a().with_levels(levels().with_vmem(Bytes::ZERO));
        let cmem = TpuConfig::design_a().with_levels(levels().with_cmem(Bytes::ZERO));
        for cfg in [vmem, cmem] {
            assert!(
                matches!(cfg.validate(), Err(Error::InvalidConfig(_))),
                "{cfg:?}"
            );
        }
        // The simulator refuses the config that priced DiT-XL/2 at NaN.
        let nan_hbm = levels().with_hbm_bandwidth(Bandwidth::from_gb_per_s(614.0) * f64::NAN);
        assert!(crate::Simulator::new(TpuConfig::tpuv4i().with_levels(nan_hbm)).is_err());
        TpuConfig::design_a().validate().unwrap();
    }

    /// The configs below reach `validate` through `--config-file` JSON;
    /// each must be refused with a typed error rather than priced.
    fn assert_invalid(cfg: &TpuConfig, what: &str) {
        assert!(
            matches!(cfg.validate(), Err(Error::InvalidConfig(_))),
            "{what} accepted"
        );
        assert!(
            crate::Simulator::new(cfg.clone()).is_err(),
            "{what} simulated"
        );
    }

    /// Design A with one VPU field edited.
    fn vpu_edit(edit: impl FnOnce(&mut VpuConfig)) -> TpuConfig {
        let mut cfg = TpuConfig::design_a();
        edit(&mut cfg.vpu);
        cfg
    }

    #[test]
    fn validate_rejects_zero_vpu_lanes() {
        assert_invalid(&vpu_edit(|v| v.lanes = 0), "0 VPU lanes");
    }

    #[test]
    fn validate_rejects_bad_vpu_energy_per_op() {
        for factor in [-1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let cfg = vpu_edit(|v| v.energy_per_op = v.energy_per_op * factor);
            assert_invalid(&cfg, &format!("VPU energy per op x{factor}"));
        }
        vpu_edit(|v| v.energy_per_op = Joules::ZERO)
            .validate()
            .unwrap();
    }

    #[test]
    fn validate_rejects_bad_vpu_static_power() {
        for factor in [-1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let cfg = vpu_edit(|v| v.static_power = v.static_power * factor);
            assert_invalid(&cfg, &format!("VPU static power x{factor}"));
        }
        vpu_edit(|v| v.static_power = Watts::ZERO)
            .validate()
            .unwrap();
    }

    #[test]
    fn hbm_capacity_is_overridable() {
        // A `--config-file` override sets the deserialized field.
        let mut tight = TpuConfig::design_a();
        tight.hbm_capacity = Bytes::from_gib(2);
        assert_eq!(tight.hbm_capacity(), Bytes::from_gib(2));
        tight
            .validate()
            .expect("capacity override keeps the config valid");
        // Presets are untouched.
        assert_eq!(TpuConfig::design_a().hbm_capacity(), Bytes::from_gib(8));
    }

    #[test]
    fn validate_rejects_bad_ici_link_bandwidth() {
        for factor in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -1.0] {
            let mut cfg = TpuConfig::design_a();
            cfg.ici_link_bandwidth = Bandwidth::from_gb_per_s(100.0) * factor;
            assert_invalid(&cfg, &format!("ICI link bandwidth x{factor}"));
        }
    }

    #[test]
    fn tpuv4i_matches_table1() {
        let cfg = TpuConfig::tpuv4i();
        assert_eq!(cfg.mxu_count(), 4);
        assert_eq!(cfg.peak_macs_per_cycle(), 4 * 128 * 128);
        assert_eq!(cfg.ici_links(), 2);
        assert_eq!(cfg.hbm_capacity(), Bytes::from_gib(8));
        // 4 MXUs * 16384 MACs * 2 * 1.05 GHz = 137.6 TOPS (TPUv4i peak).
        assert!((cfg.peak_tops() - 137.6).abs() < 1.0);
        cfg.validate().unwrap();
    }

    #[test]
    fn cim_base_keeps_same_peak() {
        assert_eq!(
            TpuConfig::cim_base().peak_macs_per_cycle(),
            TpuConfig::tpuv4i().peak_macs_per_cycle()
        );
    }

    #[test]
    fn table4_designs_cover_grid() {
        let designs = TpuConfig::table4_designs();
        assert_eq!(designs.len(), 9);
        // Peaks span 2*(8x8) .. 8*(16x16).
        let peaks: Vec<u64> = designs.iter().map(TpuConfig::peak_macs_per_cycle).collect();
        assert_eq!(peaks.iter().min(), Some(&(2 * 64 * 128)));
        assert_eq!(peaks.iter().max(), Some(&(8 * 256 * 128)));
        for d in &designs {
            d.validate().unwrap();
        }
    }

    #[test]
    fn design_points_match_paper() {
        // Design A: half the baseline peak. Design B: 2x the baseline peak.
        let base = TpuConfig::tpuv4i().peak_macs_per_cycle();
        assert_eq!(TpuConfig::design_a().peak_macs_per_cycle() * 2, base);
        assert_eq!(TpuConfig::design_b().peak_macs_per_cycle(), base * 2);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut cfg = TpuConfig::tpuv4i();
        cfg.mxu_count = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn tpuv4_like_doubles_the_chip() {
        let v4 = TpuConfig::tpuv4_like();
        assert_eq!(
            v4.peak_macs_per_cycle(),
            2 * TpuConfig::tpuv4i().peak_macs_per_cycle()
        );
        // ~275 TOPS, matching the published TPUv4 peak.
        assert!((v4.peak_tops() - 275.0).abs() < 2.0);
        assert_eq!(
            TpuConfig::cim_tpuv4_like().peak_macs_per_cycle(),
            v4.peak_macs_per_cycle()
        );
        v4.validate().unwrap();
    }
}
