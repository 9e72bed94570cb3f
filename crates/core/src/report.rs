//! Simulation reports: per-op and per-category latency/energy.

use std::fmt;

use serde::{Deserialize, Serialize};

use cimtpu_models::OpCategory;
use cimtpu_units::{Bytes, Joules, Seconds};

/// Cost of one executed [`OpInstance`](cimtpu_models::OpInstance)
/// (all repetitions included).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpReport {
    /// Operator display name.
    pub name: String,
    /// Reporting category (Fig. 6 row).
    pub category: OpCategory,
    /// Repetitions executed.
    pub count: u64,
    /// Total latency contribution.
    pub latency: Seconds,
    /// MXU energy (dynamic + leakage over this op's window).
    pub mxu_energy: Joules,
    /// Dynamic portion of the MXU energy (MACs, weight movement, I/O).
    pub mxu_dynamic: Joules,
    /// Leakage portion of the MXU energy.
    pub mxu_static: Joules,
    /// VPU energy.
    pub vpu_energy: Joules,
    /// Unique main-memory traffic.
    pub hbm_bytes: Bytes,
}

/// One row of a per-category summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CategoryRow {
    /// The category.
    pub category: OpCategory,
    /// Latency attributed to the category.
    pub latency: Seconds,
    /// Fraction of total latency, in `[0, 1]`.
    pub latency_fraction: f64,
    /// MXU energy attributed to the category.
    pub mxu_energy: Joules,
}

/// Full result of simulating a workload on one TPU configuration.
///
/// # Examples
///
/// ```
/// use cimtpu_core::{Simulator, TpuConfig};
/// use cimtpu_models::presets;
///
/// let sim = Simulator::new(TpuConfig::tpuv4i())?;
/// let report = sim.run(&presets::gpt3_30b().prefill_layer(8, 128)?)?;
/// assert!(report.total_latency().get() > 0.0);
/// println!("{report}");
/// # Ok::<(), cimtpu_units::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Report {
    name: String,
    config_name: String,
    ops: Vec<OpReport>,
}

impl Report {
    pub(crate) fn new(name: impl Into<String>, config_name: impl Into<String>) -> Self {
        Report {
            name: name.into(),
            config_name: config_name.into(),
            ops: Vec::new(),
        }
    }

    pub(crate) fn push(&mut self, op: OpReport) {
        self.ops.push(op);
    }

    /// The simulated workload's name.
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// Per-op cost rows in execution order.
    pub fn ops(&self) -> &[OpReport] {
        &self.ops
    }

    /// End-to-end latency (ops execute sequentially on one TensorCore).
    pub fn total_latency(&self) -> Seconds {
        self.ops.iter().map(|o| o.latency).sum()
    }

    /// Total MXU energy (the paper's headline energy metric).
    pub fn mxu_energy(&self) -> Joules {
        self.ops.iter().map(|o| o.mxu_energy).sum()
    }

    /// Dynamic portion of the total MXU energy.
    pub fn mxu_dynamic_energy(&self) -> Joules {
        self.ops.iter().map(|o| o.mxu_dynamic).sum()
    }

    /// Leakage portion of the total MXU energy.
    pub fn mxu_static_energy(&self) -> Joules {
        self.ops.iter().map(|o| o.mxu_static).sum()
    }

    /// Total unique main-memory traffic.
    pub fn hbm_bytes(&self) -> Bytes {
        self.ops.iter().map(|o| o.hbm_bytes).sum()
    }

    /// Latency attributed to one category.
    pub fn latency_in(&self, category: OpCategory) -> Seconds {
        self.ops
            .iter()
            .filter(|o| o.category == category)
            .map(|o| o.latency)
            .sum()
    }

    /// MXU energy attributed to one category.
    pub fn mxu_energy_in(&self, category: OpCategory) -> Joules {
        self.ops
            .iter()
            .filter(|o| o.category == category)
            .map(|o| o.mxu_energy)
            .sum()
    }

    /// Per-category summary in first-seen order.
    pub fn by_category(&self) -> Vec<CategoryRow> {
        let total = self.total_latency();
        let mut cats: Vec<OpCategory> = Vec::new();
        for op in &self.ops {
            if !cats.contains(&op.category) {
                cats.push(op.category);
            }
        }
        cats.into_iter()
            .map(|category| {
                let latency = self.latency_in(category);
                CategoryRow {
                    category,
                    latency,
                    latency_fraction: if total.get() > 0.0 {
                        latency / total
                    } else {
                        0.0
                    },
                    mxu_energy: self.mxu_energy_in(category),
                }
            })
            .collect()
    }

    /// Latency speedup of `self` relative to `baseline` (>1 means faster).
    pub fn speedup_vs(&self, baseline: &Report) -> f64 {
        baseline.total_latency() / self.total_latency()
    }

    /// MXU-energy reduction factor relative to `baseline` (>1 means less
    /// energy).
    pub fn mxu_energy_reduction_vs(&self, baseline: &Report) -> f64 {
        baseline.mxu_energy().get() / self.mxu_energy().get()
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} on {} ==", self.name, self.config_name)?;
        writeln!(
            f,
            "{:<24} {:>12} {:>8} {:>14} {:>12}",
            "category", "latency(ms)", "%", "MXU energy(mJ)", "HBM(MiB)"
        )?;
        for row in self.by_category() {
            let hbm: Bytes = self
                .ops
                .iter()
                .filter(|o| o.category == row.category)
                .map(|o| o.hbm_bytes)
                .sum();
            writeln!(
                f,
                "{:<24} {:>12.4} {:>7.1}% {:>14.4} {:>12.2}",
                row.category.label(),
                row.latency.as_millis(),
                row.latency_fraction * 100.0,
                row.mxu_energy.as_millijoules(),
                hbm.as_mib(),
            )?;
        }
        writeln!(
            f,
            "{:<24} {:>12.4} {:>7.1}% {:>14.4} {:>12.2}",
            "TOTAL",
            self.total_latency().as_millis(),
            100.0,
            self.mxu_energy().as_millijoules(),
            self.hbm_bytes().as_mib(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(name: &str, cat: OpCategory, ms: f64, mj: f64) -> OpReport {
        OpReport {
            name: name.to_owned(),
            category: cat,
            count: 1,
            latency: Seconds::from_millis(ms),
            mxu_energy: Joules::from_millijoules(mj),
            mxu_dynamic: Joules::from_millijoules(mj),
            mxu_static: Joules::ZERO,
            vpu_energy: Joules::ZERO,
            hbm_bytes: Bytes::new(1024),
        }
    }

    #[test]
    fn totals_and_fractions() {
        let mut r = Report::new("w", "cfg");
        r.push(op("a", OpCategory::QkvGen, 3.0, 5.0));
        r.push(op("b", OpCategory::Attention, 1.0, 1.0));
        assert!((r.total_latency().as_millis() - 4.0).abs() < 1e-9);
        let rows = r.by_category();
        assert_eq!(rows.len(), 2);
        assert!((rows[0].latency_fraction - 0.75).abs() < 1e-9);
        assert_eq!(r.hbm_bytes(), Bytes::new(2048));
    }

    #[test]
    fn speedup_and_energy_ratio() {
        let mut base = Report::new("w", "base");
        base.push(op("a", OpCategory::QkvGen, 4.0, 10.0));
        let mut fast = Report::new("w", "cim");
        fast.push(op("a", OpCategory::QkvGen, 2.0, 1.0));
        assert!((fast.speedup_vs(&base) - 2.0).abs() < 1e-9);
        assert!((fast.mxu_energy_reduction_vs(&base) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn display_renders_all_categories() {
        let mut r = Report::new("w", "cfg");
        r.push(op("a", OpCategory::QkvGen, 1.0, 1.0));
        r.push(op("s", OpCategory::Gelu, 1.0, 0.0));
        let s = r.to_string();
        assert!(s.contains("QKV Gen"));
        assert!(s.contains("GeLU"));
        assert!(s.contains("TOTAL"));
    }
}
