//! Roofline analysis of workloads on a TPU configuration.
//!
//! The paper's central intuition — prefilling is compute-bound, decoding is
//! memory-bound (the survey \[12\]'s roofline framing) — made quantitative: for each
//! matrix operator this module reports its operational intensity, the
//! roofline-attainable rate, the rate the simulator actually achieved, and
//! which wall it sits against.
//!
//! # Examples
//!
//! ```
//! use cimtpu_core::{roofline, Simulator, TpuConfig};
//! use cimtpu_models::presets;
//!
//! let sim = Simulator::new(TpuConfig::tpuv4i())?;
//! let model = roofline::RooflineModel::of(&sim);
//! // Decode sits left of the ridge (memory-bound)…
//! let decode = roofline::analyze(&sim, &presets::gpt3_30b().decode_layer(8, 1280)?)?;
//! assert!(decode.iter().filter(|p| p.is_matrix).all(|p| p.intensity < model.ridge_intensity() * 4.0));
//! # Ok::<(), cimtpu_units::Error>(())
//! ```

use serde::{Deserialize, Serialize};

use cimtpu_models::{Op, OpCategory, Workload};
use cimtpu_units::Result;

use crate::simulator::Simulator;

/// The two walls of a roofline plot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BoundKind {
    /// Limited by peak MAC throughput.
    Compute,
    /// Limited by main-memory bandwidth.
    Memory,
}

/// The chip's roofline: peak compute and memory bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RooflineModel {
    /// Peak MACs per second (all MXUs).
    pub peak_macs_per_s: f64,
    /// Main-memory bandwidth in bytes per second.
    pub hbm_bytes_per_s: f64,
}

impl RooflineModel {
    /// Extracts the roofline of a simulator's configuration.
    pub fn of(sim: &Simulator) -> Self {
        let cfg = sim.config();
        RooflineModel {
            peak_macs_per_s: cfg.peak_macs_per_cycle() as f64 * cfg.clock().as_hz(),
            hbm_bytes_per_s: cfg.levels().hbm_bandwidth().get(),
        }
    }

    /// Intensity (MACs/byte) at which the two walls meet.
    pub fn ridge_intensity(&self) -> f64 {
        self.peak_macs_per_s / self.hbm_bytes_per_s
    }

    /// Attainable MAC rate at a given operational intensity.
    pub(crate) fn attainable(&self, intensity: f64) -> f64 {
        (intensity * self.hbm_bytes_per_s).min(self.peak_macs_per_s)
    }

    /// Which wall an operator at `intensity` leans on.
    pub(crate) fn bound(&self, intensity: f64) -> BoundKind {
        if intensity < self.ridge_intensity() {
            BoundKind::Memory
        } else {
            BoundKind::Compute
        }
    }
}

/// One operator placed on the roofline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RooflinePoint {
    /// Operator name.
    pub name: String,
    /// Reporting category.
    pub category: OpCategory,
    /// Whether this is a matrix op (vector ops have no MACs).
    pub is_matrix: bool,
    /// Operational intensity in MACs per main-memory byte.
    pub intensity: f64,
    /// Roofline-attainable MAC rate at this intensity.
    pub attainable_macs_per_s: f64,
    /// MAC rate the simulator actually achieved.
    pub achieved_macs_per_s: f64,
    /// The limiting wall.
    pub bound: BoundKind,
}

impl RooflinePoint {
    /// Achieved / attainable, in `(0, 1]` for a well-behaved model.
    pub fn roofline_efficiency(&self) -> f64 {
        if self.attainable_macs_per_s == 0.0 {
            return 0.0;
        }
        self.achieved_macs_per_s / self.attainable_macs_per_s
    }
}

/// Places every matrix operator of `workload` on the roofline of `sim`.
///
/// # Errors
///
/// Returns an error if the workload cannot be simulated.
pub fn analyze(sim: &Simulator, workload: &Workload) -> Result<Vec<RooflinePoint>> {
    let model = RooflineModel::of(sim);
    let mut points = Vec::new();
    for inst in workload.ops() {
        let rep = sim.run_instance(inst)?;
        let macs = inst.total_macs();
        let bytes = inst.op().main_memory_bytes().get() * inst.count();
        let is_matrix = inst.op().is_matrix_op();
        if !is_matrix {
            continue;
        }
        // Intensity counts unique main-memory traffic; on-chip re-use is
        // the whole point of the two-level hierarchy.
        let intensity = if bytes == 0 {
            f64::INFINITY
        } else {
            macs as f64 / bytes as f64
        };
        let achieved = macs as f64 / rep.latency.get().max(f64::MIN_POSITIVE);
        points.push(RooflinePoint {
            name: inst.name().to_owned(),
            category: inst.category(),
            is_matrix,
            intensity,
            attainable_macs_per_s: model.attainable(intensity),
            achieved_macs_per_s: achieved,
            bound: model.bound(intensity),
        });
    }
    // Vector ops are intentionally excluded: no MACs to place.
    let _ = Op::Softmax { rows: 0, cols: 0 };
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::TpuConfig;
    use cimtpu_models::presets;

    #[test]
    fn ridge_is_where_walls_cross() {
        let sim = Simulator::new(TpuConfig::tpuv4i()).unwrap();
        let m = RooflineModel::of(&sim);
        let ridge = m.ridge_intensity();
        let at_ridge = m.attainable(ridge);
        assert!((at_ridge - m.peak_macs_per_s).abs() / m.peak_macs_per_s < 1e-9);
        assert!(m.attainable(ridge / 2.0) < at_ridge);
        assert_eq!(m.bound(ridge / 2.0), BoundKind::Memory);
        assert_eq!(m.bound(ridge * 2.0), BoundKind::Compute);
    }

    #[test]
    fn prefill_gemms_compute_bound_decode_memory_bound() {
        let sim = Simulator::new(TpuConfig::tpuv4i()).unwrap();
        let gpt3 = presets::gpt3_30b();

        let prefill = analyze(&sim, &gpt3.prefill_layer(8, 1024).unwrap()).unwrap();
        let qkv = prefill.iter().find(|p| p.name == "QKV Gen").unwrap();
        assert_eq!(qkv.bound, BoundKind::Compute);

        let decode = analyze(&sim, &gpt3.decode_layer(8, 1280).unwrap()).unwrap();
        for p in &decode {
            assert_eq!(
                p.bound,
                BoundKind::Memory,
                "{} should be memory-bound",
                p.name
            );
        }
    }

    #[test]
    fn achieved_never_exceeds_peak() {
        let sim = Simulator::new(TpuConfig::cim_base()).unwrap();
        let m = RooflineModel::of(&sim);
        for w in [
            presets::gpt3_30b().prefill_layer(8, 512).unwrap(),
            presets::gpt3_30b().decode_layer(8, 2048).unwrap(),
            presets::dit_xl_2().block(8, 512).unwrap(),
        ] {
            for p in analyze(&sim, &w).unwrap() {
                assert!(
                    p.achieved_macs_per_s <= m.peak_macs_per_s * (1.0 + 1e-9),
                    "{} exceeds peak",
                    p.name
                );
            }
        }
    }

    #[test]
    fn vector_ops_are_excluded() {
        let sim = Simulator::new(TpuConfig::tpuv4i()).unwrap();
        let points = analyze(&sim, &presets::dit_xl_2().block(8, 256).unwrap()).unwrap();
        assert!(points.iter().all(|p| p.is_matrix));
        assert!(points.iter().any(|p| p.name == "Q x K^T"));
    }

    #[test]
    fn efficiency_is_sane() {
        let sim = Simulator::new(TpuConfig::tpuv4i()).unwrap();
        let points = analyze(&sim, &presets::gpt3_30b().prefill_layer(8, 1024).unwrap()).unwrap();
        for p in points {
            let e = p.roofline_efficiency();
            assert!(e > 0.05 && e <= 1.05, "{}: efficiency {e:.3}", p.name);
        }
    }
}
