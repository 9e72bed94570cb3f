//! Segment-level cost aggregates: what
//! [`Simulator::price_ops`](crate::Simulator::price_ops) and
//! [`Simulator::run_phased`](crate::Simulator::run_phased) return.
//!
//! A [`SegmentCost`] sums the per-operator reports of a run of
//! consecutive operators in execution order, so a segment's cost is
//! bit-identical however often it is priced; the serving layer memoizes
//! whole phases above it and the [`MappingCache`](crate::MappingCache)
//! memoizes operators below it.

use std::ops::{Add, AddAssign};

use cimtpu_models::Phase;
use cimtpu_units::{Bytes, Joules, Seconds};

use serde::{Deserialize, Serialize};

/// Aggregate cost of one priced segment (or whole workload).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SegmentCost {
    /// End-to-end latency of the segment's operators.
    pub latency: Seconds,
    /// MXU energy (dynamic + leakage over the segment's window).
    pub mxu_energy: Joules,
    /// VPU energy.
    pub vpu_energy: Joules,
    /// Unique main-memory traffic.
    pub hbm_bytes: Bytes,
}

impl SegmentCost {
    /// The all-zero cost (identity for [`Add`]).
    pub const ZERO: SegmentCost = SegmentCost {
        latency: Seconds::ZERO,
        mxu_energy: Joules::ZERO,
        vpu_energy: Joules::ZERO,
        hbm_bytes: Bytes::ZERO,
    };

    /// MXU + VPU energy.
    pub fn total_energy(&self) -> Joules {
        self.mxu_energy + self.vpu_energy
    }

    /// Cost of `times` back-to-back replays of this segment.
    #[must_use]
    pub fn repeated(&self, times: f64) -> SegmentCost {
        SegmentCost {
            latency: self.latency * times,
            mxu_energy: self.mxu_energy * times,
            vpu_energy: self.vpu_energy * times,
            hbm_bytes: Bytes::new((self.hbm_bytes.get() as f64 * times) as u64),
        }
    }
}

impl Add for SegmentCost {
    type Output = SegmentCost;

    fn add(self, rhs: SegmentCost) -> SegmentCost {
        SegmentCost {
            latency: self.latency + rhs.latency,
            mxu_energy: self.mxu_energy + rhs.mxu_energy,
            vpu_energy: self.vpu_energy + rhs.vpu_energy,
            hbm_bytes: self.hbm_bytes + rhs.hbm_bytes,
        }
    }
}

impl AddAssign for SegmentCost {
    fn add_assign(&mut self, rhs: SegmentCost) {
        *self = *self + rhs;
    }
}

/// Cost of one segment inside a [`PhasedReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SegmentReport {
    /// The segment name (e.g. `"attention"`).
    pub name: String,
    /// The serving phase the segment belongs to.
    pub phase: Phase,
    /// The segment's aggregate cost.
    pub cost: SegmentCost,
}

/// Per-segment view of a simulated workload: the phase-structured
/// counterpart of the flat per-operator [`Report`](crate::Report).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhasedReport {
    /// The simulated workload's name.
    pub workload: String,
    /// Per-segment costs in execution order.
    pub segments: Vec<SegmentReport>,
}

impl PhasedReport {
    /// End-to-end latency (sum over segments).
    pub fn total_latency(&self) -> Seconds {
        self.segments.iter().map(|s| s.cost.latency).sum()
    }

    /// Total MXU energy.
    pub fn mxu_energy(&self) -> Joules {
        self.segments.iter().map(|s| s.cost.mxu_energy).sum()
    }

    /// Aggregate cost of all segments in `phase`.
    #[cfg(test)]
    pub(crate) fn cost_in_phase(&self, phase: Phase) -> SegmentCost {
        self.segments
            .iter()
            .filter(|s| s.phase == phase)
            .fold(SegmentCost::ZERO, |acc, s| acc + s.cost)
    }

    /// Distinct phases present, in first-seen order.
    #[cfg(test)]
    pub(crate) fn phases(&self) -> Vec<Phase> {
        let mut seen = Vec::new();
        for s in &self.segments {
            if !seen.contains(&s.phase) {
                seen.push(s.phase);
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::TpuConfig;
    use crate::simulator::Simulator;
    use cimtpu_models::presets;

    #[test]
    fn phase_costs_partition_the_total() {
        let sim = Simulator::new(TpuConfig::tpuv4i()).unwrap();
        let block = presets::dit_xl_2().block(2, 256).unwrap();
        let phased = sim.run_phased(&block).unwrap();
        let by_phase: Seconds = phased
            .phases()
            .iter()
            .map(|&p| phased.cost_in_phase(p).latency)
            .sum();
        assert!((by_phase.get() - phased.total_latency().get()).abs() < 1e-15);
        assert!(phased.cost_in_phase(Phase::Conditioning).latency > Seconds::ZERO);
    }

    #[test]
    fn repeated_scales_cost() {
        let cost = SegmentCost {
            latency: Seconds::new(2.0),
            mxu_energy: Joules::new(3.0),
            vpu_energy: Joules::new(1.0),
            hbm_bytes: Bytes::new(100),
        };
        let five = cost.repeated(5.0);
        assert_eq!(five.latency, Seconds::new(10.0));
        assert_eq!(five.total_energy(), Joules::new(20.0));
        assert_eq!(five.hbm_bytes, Bytes::new(500));
    }
}
