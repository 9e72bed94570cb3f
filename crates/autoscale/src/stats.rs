//! The `scaling` section of a cluster report: what the control plane did
//! and what elasticity cost.

use serde::{Deserialize, Serialize};

/// Kinds of applied scaling actions, as they appear in the action log.
pub mod action {
    /// A replica started provisioning (scale-up decision applied).
    pub const SCALE_UP: &str = "scale-up";
    /// A replica began draining toward retirement.
    pub const SCALE_DOWN: &str = "scale-down";
    /// A drain that empties its group (the scale-to-zero event).
    pub const SCALE_TO_ZERO: &str = "scale-to-zero";
    /// The donor half of a model swap (drains like a scale-down).
    pub const SWAP_OUT: &str = "swap-out";
    /// The recipient half of a model swap (warms up, skips provisioning).
    pub const SWAP_IN: &str = "swap-in";
    /// A replica finished warmup and turned `Up` (routable).
    pub const UP: &str = "up";
    /// A draining replica finished its in-flight work and retired.
    pub const RETIRED: &str = "retired";
}

/// One entry of the scaling-action log — every fleet mutation the
/// control plane applied, in simulated-time order. The log is part of
/// the serialized report, so two seeded runs must produce byte-identical
/// logs (the replay test pins this).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScalingAction {
    /// Simulated time the action was applied.
    pub at_s: f64,
    /// Action kind — one of the [`action`] constants.
    pub kind: String,
    /// Group (base replica spec) name.
    pub group: String,
    /// Concrete slot replica name (`{group}-{slot}`).
    pub replica: String,
}

impl ScalingAction {
    /// Builds a log entry.
    pub fn new(at_s: f64, kind: &str, group: &str, replica: String) -> Self {
        ScalingAction {
            at_s,
            kind: kind.to_owned(),
            group: group.to_owned(),
            replica,
        }
    }
}

/// The report's `scaling` section: control-loop activity, the action
/// log, SLO damage attributable to ramps, and the cost of the fleet in
/// chip-seconds and joules — the numbers that make an autoscaled run and
/// a peak-sized static fleet comparable head-to-head.
///
/// Cost model: `chip_seconds` integrates `chips × held-time` over every
/// replica's lifetime (a scaled-up replica is *held* — and paid for —
/// from the scale-up decision through provisioning, warmup, service, and
/// drain until retirement). `idle_energy_j` prices the held-but-idle
/// remainder (`idle_watts × (chip_seconds − busy chip-seconds)`), and
/// `total_cost_j = compute energy + idle energy`: a fleet sized for peak
/// pays idle watts all night, an elastic one does not.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ScalingStats {
    /// Reconcile ticks the control loop ran.
    pub reconciles: u64,
    /// Scale-up decisions applied.
    pub scale_ups: u64,
    /// Scale-down (drain) decisions applied, including scale-to-zero.
    pub scale_downs: u64,
    /// Drains that emptied their group (scale-to-zero events).
    pub scale_to_zero: u64,
    /// Model swaps applied (each one drain + one warm start).
    pub swaps: u64,
    /// Most replicas simultaneously held (up, booting, or draining).
    pub peak_replicas: u64,
    /// Chip-seconds held over the run (see the cost model above).
    pub chip_seconds: f64,
    /// Energy the held-but-idle chip-seconds cost, in joules.
    pub idle_energy_j: f64,
    /// Compute energy plus idle energy, in joules.
    pub total_cost_j: f64,
    /// Completions that missed the SLO while their group was ramping
    /// (between a scale-up decision and the replica turning `Up`) — the
    /// latency price of scaling reactively instead of holding peak.
    pub slo_violations_ramp: u64,
    /// Every applied fleet mutation, in simulated-time order.
    pub actions: Vec<ScalingAction>,
}

impl ScalingStats {
    /// The scaling section of a fleet that never changed: no reconciler
    /// activity, every replica held for the whole `makespan_s`. This is
    /// what a pinned policy attaches to a plain-driver run so a static
    /// peak-sized fleet reports cost numbers comparable with an elastic
    /// one.
    pub fn static_fleet(
        replicas: u64,
        chip_seconds: f64,
        busy_chip_seconds: f64,
        compute_energy_j: f64,
        idle_watts: f64,
    ) -> Self {
        let idle_energy_j = idle_watts * (chip_seconds - busy_chip_seconds).max(0.0);
        ScalingStats {
            peak_replicas: replicas,
            chip_seconds,
            idle_energy_j,
            total_cost_j: compute_energy_j + idle_energy_j,
            ..ScalingStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_fleet_prices_idle_time() {
        let s = ScalingStats::static_fleet(4, 100.0, 40.0, 500.0, 30.0);
        assert_eq!(s.peak_replicas, 4);
        assert_eq!(s.reconciles, 0);
        assert!(s.actions.is_empty());
        assert!((s.idle_energy_j - 1800.0).abs() < 1e-9);
        assert!((s.total_cost_j - 2300.0).abs() < 1e-9);
        // Busy time can exceed held time only through rounding: clamp.
        assert_eq!(
            ScalingStats::static_fleet(1, 1.0, 2.0, 5.0, 30.0).idle_energy_j,
            0.0
        );
    }

    #[test]
    fn stats_round_trip_with_declaration_order() {
        let mut s = ScalingStats {
            scale_ups: 2,
            ..ScalingStats::default()
        };
        s.actions.push(ScalingAction::new(
            1.5,
            action::SCALE_UP,
            "g",
            "g-1".to_owned(),
        ));
        let json = serde_json::to_string(&s).unwrap();
        // Declaration order, ending with the action log.
        let reconciles = json.find("\"reconciles\"").unwrap();
        let cost = json.find("\"total_cost_j\"").unwrap();
        let actions = json.find("\"actions\"").unwrap();
        assert!(reconciles < cost && cost < actions, "{json}");
        let back: ScalingStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
