//! Reusable execution context: price a segment once, replay it per request.
//!
//! [`Simulator::run`](crate::Simulator::run) walks a workload operator by
//! operator. A request-level scheduler replays the *same* phase segment
//! (one decode step of a given batch/context, one prefill of a given
//! prompt) hundreds of times across requests, so re-walking the operator
//! list each time is wasted work even with the
//! [`MappingCache`](crate::MappingCache) answering the per-operator
//! queries. An [`ExecutionContext`] sits between the two: it prices whole
//! segments through the simulator exactly once, memoizes the aggregate
//! [`SegmentCost`] keyed by the segment's operator list, and replays from
//! that table. Replayed costs are bit-identical to a fresh
//! [`Simulator::run`] because they are built from the same per-operator
//! reports, summed in the same order.

use std::cell::RefCell;
use std::ops::{Add, AddAssign};
use std::rc::Rc;

use cimtpu_models::{OpInstance, Phase, Segment, Workload};
use cimtpu_units::{Bytes, Joules, Result, Seconds};
use rustc_hash::FxHashMap;

use serde::{Deserialize, Serialize};

use crate::report::Report;
use crate::simulator::Simulator;

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
/// counterpart of the flat per-operator [`Report`].
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
    pub fn cost_in_phase(&self, phase: Phase) -> SegmentCost {
        self.segments
            .iter()
            .filter(|s| s.phase == phase)
            .fold(SegmentCost::ZERO, |acc, s| acc + s.cost)
    }

    /// Distinct phases present, in first-seen order.
    pub fn phases(&self) -> Vec<Phase> {
        let mut seen = Vec::new();
        for s in &self.segments {
            if !seen.contains(&s.phase) {
                seen.push(s.phase);
            }
        }
        seen
    }
}

/// A segment memo table: segment costs keyed by the exact operator list,
/// so two structurally identical segments from different builders share
/// one entry and a hash collision can never alias distinct segments.
///
/// Cloning shares the table, so every [`ExecutionContext`] built over
/// clones of one memo prices each distinct segment once. The entries are
/// one chip configuration's prices: share a memo only among contexts on
/// simulators of that configuration.
#[derive(Debug, Clone, Default)]
pub struct SegmentMemo(Rc<RefCell<FxHashMap<Vec<OpInstance>, SegmentCost>>>);

/// Segment-level pricing front-end over one [`Simulator`].
///
/// A request-level scheduler replays the same phase segment (one decode
/// step at a given batch/context, one prefill of a given prompt) hundreds
/// of times across requests; the context prices each distinct segment
/// exactly once and replays the memoized aggregate, bit-identically. The
/// context borrows the simulator; its memo is its own
/// ([`new`](Self::new)) or shared with other contexts on the same
/// configuration ([`with_memo`](Self::with_memo)). `Simulator::run`
/// builds a throwaway one (the per-operator
/// [`MappingCache`](crate::MappingCache) underneath persists either way).
#[derive(Debug)]
pub struct ExecutionContext<'a> {
    sim: &'a Simulator,
    memo: SegmentMemo,
}

impl<'a> ExecutionContext<'a> {
    /// Creates a context pricing on `sim` with an empty memo of its own.
    pub fn new(sim: &'a Simulator) -> Self {
        Self::with_memo(sim, SegmentMemo::default())
    }

    /// Creates a context pricing on `sim` that records into (and replays
    /// from) `memo`, shared with every other context holding a clone of
    /// it. Every such context must price on a simulator of `sim`'s
    /// configuration.
    pub fn with_memo(sim: &'a Simulator, memo: SegmentMemo) -> Self {
        ExecutionContext { sim, memo }
    }

    /// The underlying simulator.
    pub fn simulator(&self) -> &'a Simulator {
        self.sim
    }

    /// Runs a workload operator by operator (the flat execution loop that
    /// used to live in `Simulator::run`).
    ///
    /// # Errors
    ///
    /// Returns an error if any operator cannot be mapped onto the hardware.
    pub fn run(&self, workload: &Workload) -> Result<Report> {
        let mut report = Report::new(workload.name(), self.sim.config().name());
        for inst in workload.ops() {
            report.push(self.sim.run_instance(inst)?);
        }
        Ok(report)
    }

    /// Prices a run of consecutive operators, memoized on the exact
    /// operator list.
    ///
    /// # Errors
    ///
    /// Returns an error if any operator cannot be mapped onto the hardware.
    pub fn price_ops(&self, ops: &[OpInstance]) -> Result<SegmentCost> {
        if let Some(cost) = self.memo.0.borrow().get(ops) {
            return Ok(*cost);
        }
        let mut total = SegmentCost::ZERO;
        for inst in ops {
            let op = self.sim.run_instance(inst)?;
            total += SegmentCost {
                latency: op.latency,
                mxu_energy: op.mxu_energy,
                vpu_energy: op.vpu_energy,
                hbm_bytes: op.hbm_bytes,
            };
        }
        self.memo.0.borrow_mut().insert(ops.to_vec(), total);
        Ok(total)
    }

    /// Prices one workload segment (memoized).
    ///
    /// # Errors
    ///
    /// Returns an error if any operator cannot be mapped onto the hardware.
    pub fn price_segment(&self, segment: &Segment<'_>) -> Result<SegmentCost> {
        self.price_ops(segment.ops())
    }

    /// Prices a whole workload segment by segment.
    ///
    /// The summed totals equal [`run`](ExecutionContext::run)'s flat totals
    /// exactly: both paths price every operator through the same
    /// [`Simulator::run_instance`] and sum in execution order.
    ///
    /// # Errors
    ///
    /// Returns an error if any operator cannot be mapped onto the hardware.
    pub fn run_phased(&self, workload: &Workload) -> Result<PhasedReport> {
        let mut segments = Vec::with_capacity(workload.segment_count());
        for seg in workload.segments() {
            segments.push(SegmentReport {
                name: seg.name().to_owned(),
                phase: seg.phase(),
                cost: self.price_segment(&seg)?,
            });
        }
        Ok(PhasedReport { workload: workload.name().to_owned(), segments })
    }

    /// Number of memoized segments.
    pub fn memoized_segments(&self) -> usize {
        self.memo.0.borrow().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::TpuConfig;
    use cimtpu_models::presets;

    #[test]
    fn phased_totals_match_flat_run() {
        let sim = Simulator::new(TpuConfig::tpuv4i()).unwrap();
        let cx = ExecutionContext::new(&sim);
        for workload in [
            presets::gpt3_30b().prefill_layer(4, 256).unwrap(),
            presets::gpt3_30b().decode_layer(4, 512).unwrap(),
            presets::dit_xl_2().block(2, 256).unwrap(),
        ] {
            let flat = cx.run(&workload).unwrap();
            let phased = cx.run_phased(&workload).unwrap();
            // Same per-op costs, summed segment-by-segment: equal up to
            // float-summation associativity, exact on integer traffic.
            let rel = (phased.total_latency().get() - flat.total_latency().get()).abs()
                / flat.total_latency().get();
            assert!(rel < 1e-12, "{}: latency rel err {rel:e}", workload.name());
            let rel = (phased.mxu_energy().get() - flat.mxu_energy().get()).abs()
                / flat.mxu_energy().get();
            assert!(rel < 1e-12, "{}: energy rel err {rel:e}", workload.name());
            let seg_bytes: u64 = phased.segments.iter().map(|s| s.cost.hbm_bytes.get()).sum();
            assert_eq!(seg_bytes, flat.hbm_bytes().get(), "{}", workload.name());
        }
    }

    #[test]
    fn replay_is_memoized_and_identical() {
        let sim = Simulator::new(TpuConfig::cim_base()).unwrap();
        let cx = ExecutionContext::new(&sim);
        let layer = presets::gpt3_30b().decode_layer(8, 1280).unwrap();
        let first = cx.run_phased(&layer).unwrap();
        let segments_priced = cx.memoized_segments();
        let replay = cx.run_phased(&layer).unwrap();
        assert_eq!(first, replay);
        assert_eq!(cx.memoized_segments(), segments_priced, "replay must not re-price");
    }

    #[test]
    fn phase_costs_partition_the_total() {
        let sim = Simulator::new(TpuConfig::tpuv4i()).unwrap();
        let cx = ExecutionContext::new(&sim);
        let block = presets::dit_xl_2().block(2, 256).unwrap();
        let phased = cx.run_phased(&block).unwrap();
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
