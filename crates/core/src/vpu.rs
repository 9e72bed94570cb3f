//! The vector processing unit (VPU) model.
//!
//! The TPUv4i VPU is an 8×128-lane SIMD engine; it executes everything the
//! MXU cannot: softmax (with the online-normalizer algorithm of Milakov &
//! Gimelshein, as in the paper), LayerNorm, GeLU (tanh approximation, as in
//! DiT), elementwise glue, and the shift/scale modulation of DiT blocks.

use serde::{Deserialize, Serialize};

use cimtpu_units::{Cycles, Error, Joules, Result, Watts};

/// Vector-unit geometry and per-element operation costs.
///
/// Every [`TpuConfig`](crate::TpuConfig) carries one; the simulator prices
/// each vector operator with it.
///
/// # Examples
///
/// ```
/// use cimtpu_core::{Simulator, TpuConfig};
/// use cimtpu_models::{Op, OpCategory, OpInstance, Workload};
///
/// let cfg = TpuConfig::tpuv4i();
/// let clock = cfg.clock();
/// let softmax = Workload::new("softmax").with(OpInstance::new(
///     "softmax",
///     OpCategory::Attention,
///     Op::Softmax { rows: 8, cols: 1024 },
/// ));
/// let rep = Simulator::new(cfg)?.run(&softmax)?;
/// // Online softmax costs 12 vector ops per element on 1024 lanes:
/// // 8 × 1024 × 12 / 1024 = 96 cycles.
/// let cycles = rep.total_latency().get() * clock.as_hz();
/// assert_eq!(cycles.round(), 96.0);
/// # Ok::<(), cimtpu_units::Error>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct VpuConfig {
    pub(crate) lanes: u64,
    /// Vector ops per element for online softmax (max pass fused with exp
    /// and running sum, then a normalization pass).
    softmax_ops_per_elem: u32,
    /// Vector ops per element for LayerNorm (mean/var pass + normalize).
    layernorm_ops_per_elem: u32,
    /// Vector ops per element for tanh-approximated GeLU.
    gelu_ops_per_elem: u32,
    /// Dynamic energy per vector lane-op.
    pub(crate) energy_per_op: Joules,
    /// Leakage of the whole VPU.
    pub(crate) static_power: Watts,
}

impl VpuConfig {
    /// The TPUv4i vector unit: 8 × 128 lanes.
    pub(crate) fn tpuv4i() -> Self {
        VpuConfig {
            lanes: 8 * 128,
            softmax_ops_per_elem: 12,
            layernorm_ops_per_elem: 8,
            gelu_ops_per_elem: 12,
            energy_per_op: Joules::from_picojoules(1.2),
            static_power: Watts::new(0.8),
        }
    }

    /// VPU leakage power.
    pub(crate) fn static_power(&self) -> Watts {
        self.static_power
    }

    /// Checks the unit can be priced: at least one lane, and finite,
    /// non-negative energy per op and static power.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] naming the first bad field.
    pub(crate) fn validate(&self) -> Result<()> {
        if self.lanes == 0 {
            return Err(Error::invalid_config("VPU lane count must be non-zero"));
        }
        let costs = [
            ("energy per op", self.energy_per_op.get()),
            ("static power", self.static_power.get()),
        ];
        for (name, value) in costs {
            if !(value.is_finite() && value >= 0.0) {
                return Err(Error::invalid_config(format!(
                    "VPU {name} must be finite and non-negative"
                )));
            }
        }
        Ok(())
    }

    fn elementwise(&self, elems: u64, ops_per_elem: u32) -> Cycles {
        Cycles::new((elems * u64::from(ops_per_elem)).div_ceil(self.lanes))
    }

    /// Cycles for a row-wise online softmax over `rows × cols`.
    pub(crate) fn softmax_cycles(&self, rows: u64, cols: u64) -> Cycles {
        self.elementwise(rows * cols, self.softmax_ops_per_elem)
    }

    /// Cycles for LayerNorm over `rows` vectors of length `d`.
    pub(crate) fn layernorm_cycles(&self, rows: u64, d: u64) -> Cycles {
        self.elementwise(rows * d, self.layernorm_ops_per_elem)
    }

    /// Cycles for tanh-GeLU over `elems` elements.
    pub(crate) fn gelu_cycles(&self, elems: u64) -> Cycles {
        self.elementwise(elems, self.gelu_ops_per_elem)
    }

    /// Cycles for generic elementwise work.
    pub(crate) fn elementwise_cycles(&self, elems: u64, ops_per_elem: u32) -> Cycles {
        self.elementwise(elems, ops_per_elem)
    }

    /// Dynamic energy for `elems × ops_per_elem` lane-ops.
    pub(crate) fn dynamic_energy(&self, elems: u64, ops_per_elem: u32) -> Joules {
        Joules::new(self.energy_per_op.get() * (elems * u64::from(ops_per_elem)) as f64)
    }

    /// Lane-op count for each vector operator, used for energy accounting.
    pub(crate) fn softmax_ops(&self, rows: u64, cols: u64) -> u64 {
        rows * cols * u64::from(self.softmax_ops_per_elem)
    }

    /// Lane-op count of a LayerNorm.
    pub(crate) fn layernorm_ops(&self, rows: u64, d: u64) -> u64 {
        rows * d * u64::from(self.layernorm_ops_per_elem)
    }

    /// Lane-op count of a GeLU.
    pub(crate) fn gelu_ops(&self, elems: u64) -> u64 {
        elems * u64::from(self.gelu_ops_per_elem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_scale_linearly() {
        let vpu = VpuConfig::tpuv4i();
        let small = vpu.softmax_cycles(100, 1024);
        let big = vpu.softmax_cycles(200, 1024);
        assert_eq!(big.get(), 2 * small.get());
    }

    #[test]
    fn lane_parallelism_is_applied() {
        let vpu = VpuConfig::tpuv4i();
        assert_eq!(vpu.lanes, 1024);
        // 1024 elements * 12 ops / 1024 lanes = 12 cycles.
        assert_eq!(vpu.softmax_cycles(1, 1024), Cycles::new(12));
    }

    #[test]
    fn gelu_more_expensive_than_residual() {
        let vpu = VpuConfig::tpuv4i();
        assert!(vpu.gelu_cycles(1 << 20) > vpu.elementwise_cycles(1 << 20, 1));
    }

    #[test]
    fn dit_softmax_is_milliseconds_scale() {
        // DiT-XL/2 @512^2, batch 8: 8*16*1024^2 softmax elements should take
        // on the order of a millisecond at ~1 GHz — the Fig. 6 bottleneck.
        let vpu = VpuConfig::tpuv4i();
        let cycles = vpu.softmax_cycles(8 * 16 * 1024, 1024);
        let ms = cycles.get() as f64 / 1.05e9 * 1e3;
        assert!((0.5..5.0).contains(&ms), "softmax {ms} ms");
    }
}
