//! Declarative autoscaling policies and the telemetry the reconciler
//! observes.

use cimtpu_units::{Error, Result, Seconds};

/// Scaling rules for one replica group (one [`ReplicaSpec`] of the fleet
/// becomes one elastic group of identically-configured slots).
///
/// Utilization is `(queued + outstanding) / (up_replicas × concurrency)`,
/// taken against the group's KV occupancy high-water if that is higher —
/// so a group can be "full" on memory before it is full on work. The
/// band `(scale_down_below, scale_up_above)` is the hysteresis gap: no
/// decision fires while utilization sits inside it.
///
/// [`ReplicaSpec`]: https://docs.rs/cimtpu-cluster
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupPolicy {
    /// Fewest replicas the group may hold (0 enables scale-to-zero).
    pub min: u64,
    /// Most replicas the group may hold. Scale-ups never exceed it;
    /// a model swap (when the policy allows swaps) may carry the group
    /// past it temporarily, since the donated machine arrives on top of
    /// a group already at its max.
    pub max: u64,
    /// Replicas up at t = 0 (clamped into `min..=max` by validation).
    pub initial: u64,
    /// Target concurrent requests per replica — the denominator of the
    /// utilization signal.
    pub concurrency: u64,
    /// Scale up when utilization exceeds this fraction.
    pub scale_up_above: f64,
    /// Scale down when utilization falls below this fraction.
    pub scale_down_below: f64,
    /// Minimum simulated time between scale-ups of this group.
    pub up_cooldown: Seconds,
    /// Minimum simulated time between scale-downs — and the idle time a
    /// group must accumulate before its last replica may scale to zero.
    pub down_cooldown: Seconds,
    /// Rolling-goodput trigger: scale up when the fraction of completions
    /// meeting the SLO since the last reconcile drops below this floor
    /// (0 disables the trigger; requires the run to have an SLO).
    pub slo_floor: f64,
}

impl Default for GroupPolicy {
    fn default() -> Self {
        GroupPolicy {
            min: 1,
            max: 4,
            initial: 1,
            concurrency: 4,
            scale_up_above: 0.75,
            scale_down_below: 0.25,
            up_cooldown: Seconds::ZERO,
            down_cooldown: Seconds::ZERO,
            slo_floor: 0.0,
        }
    }
}

impl GroupPolicy {
    /// Checks the group's knobs are coherent.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for an empty replica band, an
    /// `initial` outside it, zero concurrency, a threshold band without
    /// hysteresis (`down >= up`), non-finite thresholds, negative or
    /// non-finite cooldowns, or an SLO floor outside `[0, 1]`.
    pub(crate) fn validate(&self) -> Result<()> {
        if self.max == 0 {
            return Err(Error::invalid_config("a group needs max >= 1 replica"));
        }
        if self.min > self.max {
            return Err(Error::invalid_config(format!(
                "empty replica band {}..{}",
                self.min, self.max
            )));
        }
        if self.initial < self.min || self.initial > self.max {
            return Err(Error::invalid_config(format!(
                "initial replicas {} outside the {}..{} band",
                self.initial, self.min, self.max
            )));
        }
        if self.concurrency == 0 {
            return Err(Error::invalid_config("target concurrency must be >= 1"));
        }
        let (up, down) = (self.scale_up_above, self.scale_down_below);
        if !(up.is_finite() && down.is_finite() && 0.0 < down && down < up) {
            return Err(Error::invalid_config(format!(
                "utilization band needs 0 < down < up (got down={down}, up={up})"
            )));
        }
        if [self.up_cooldown, self.down_cooldown]
            .iter()
            .any(|c| !non_negative(*c))
        {
            return Err(Error::invalid_config(
                "cooldowns must be finite and non-negative",
            ));
        }
        if !(0.0..=1.0).contains(&self.slo_floor) {
            return Err(Error::invalid_config(
                "the SLO goodput floor must be in [0, 1]",
            ));
        }
        Ok(())
    }

    /// Whether the band pins the group to a fixed size (no elasticity).
    pub(crate) fn is_pinned(&self) -> bool {
        self.min == self.max
    }
}

/// The whole control plane's declarative configuration: one
/// [`GroupPolicy`] per replica group plus the shared reconcile cadence
/// and the provisioning cost model.
#[derive(Debug, Clone, PartialEq)]
pub struct AutoscalePolicy {
    /// Reconcile interval: the controller observes and decides at
    /// `interval, 2·interval, …` on the simulated clock.
    pub interval: Seconds,
    /// Machine-provisioning delay a scale-up pays before warmup starts.
    pub provision: Seconds,
    /// Warmup a fresh replica pays after provisioning (weight load and
    /// cache warm-up) before it turns `Up` and routable. This duration is
    /// the whole simulated warm-up: the simulator's own pricing memos are
    /// host-side state, shared by every replica of a configuration, and
    /// add nothing to simulated time.
    pub warmup: Seconds,
    /// Idle power per chip, in watts — prices the chip-seconds a replica
    /// is held but not computing, so elastic and static fleets compare on
    /// cost.
    pub idle_watts: f64,
    /// Allow model-swap decisions: repurpose a replica from an
    /// under-utilized group to one that is over-utilized at its max
    /// (pays warmup but not provisioning).
    pub swap: bool,
    /// Per-group scaling rules, in fleet group order.
    pub groups: Vec<GroupPolicy>,
}

impl AutoscalePolicy {
    /// A policy with the default cadence (1 s interval, 1 s provisioning,
    /// 0.5 s warmup, 30 W idle, no swap) over `groups`.
    pub fn new(groups: Vec<GroupPolicy>) -> Self {
        AutoscalePolicy {
            interval: Seconds::new(1.0),
            provision: Seconds::new(1.0),
            warmup: Seconds::new(0.5),
            idle_watts: 30.0,
            swap: false,
            groups,
        }
    }

    /// Checks the policy is coherent.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for no groups, a non-positive
    /// interval, negative or non-finite provisioning/warmup/idle power,
    /// or any group failing `GroupPolicy::validate`.
    pub fn validate(&self) -> Result<()> {
        if self.groups.is_empty() {
            return Err(Error::invalid_config(
                "an autoscale policy needs >= 1 group",
            ));
        }
        if !(self.interval.get().is_finite() && self.interval.get() > 0.0) {
            return Err(Error::invalid_config("reconcile interval must be positive"));
        }
        if !(non_negative(self.provision) && non_negative(self.warmup)) {
            return Err(Error::invalid_config(
                "provisioning delay and warmup must be finite and non-negative",
            ));
        }
        if !(self.idle_watts.is_finite() && self.idle_watts >= 0.0) {
            return Err(Error::invalid_config("idle power must be non-negative"));
        }
        for (i, g) in self.groups.iter().enumerate() {
            g.validate()
                .map_err(|e| Error::invalid_config(format!("group {i}: {e}")))?;
        }
        Ok(())
    }

    /// Whether the policy can never change the fleet: every group is
    /// pinned (`min == max`) and swaps are off. A pinned policy lets the
    /// driver run the fleet through its static (non-elastic) event loops
    /// bit-identically.
    pub fn is_pinned(&self) -> bool {
        !self.swap && self.groups.iter().all(GroupPolicy::is_pinned)
    }
}

/// Whether `t` is a finite, non-negative duration (NaN is neither).
fn non_negative(t: Seconds) -> bool {
    t.get().is_finite() && t.get() >= 0.0
}

/// One group's telemetry snapshot at a reconcile tick — everything the
/// [`Reconciler`](crate::Reconciler) is allowed to see. The driver builds
/// these from live engine state; the reconciler never touches the engines
/// directly, which is what keeps decisions replayable from a recorded
/// observation stream.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GroupObservation {
    /// Routable replicas (up and not draining).
    pub up: u64,
    /// Replicas provisioning or warming (capacity already on the way).
    pub pending: u64,
    /// Replicas draining toward retirement.
    pub draining: u64,
    /// Requests queued on the group's replicas plus any parked while the
    /// group had no routable replica.
    pub queued: u64,
    /// Requests admitted and not yet finished, across routable replicas.
    pub outstanding: u64,
    /// Highest KV occupancy fraction across routable replicas.
    pub kv_frac: f64,
    /// Completions delivered since the previous reconcile tick.
    pub delivered: u64,
    /// Of those, completions that met the run's latency SLO.
    pub slo_ok: u64,
}

impl GroupObservation {
    /// Queued plus outstanding work.
    pub(crate) fn work(&self) -> u64 {
        self.queued + self.outstanding
    }

    /// The utilization signal scaling decisions compare against the
    /// policy band: work over target capacity, or the KV occupancy
    /// high-water if that is higher. A group with work but no routable
    /// replica is infinitely utilized (the wake-from-zero signal).
    pub(crate) fn utilization(&self, concurrency: u64) -> f64 {
        if self.up == 0 {
            return if self.work() > 0 { f64::INFINITY } else { 0.0 };
        }
        let target = (self.up * concurrency.max(1)) as f64;
        (self.work() as f64 / target).max(self.kv_frac)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_group_is_valid_and_elastic() {
        let g = GroupPolicy::default();
        g.validate().unwrap();
        assert!(!g.is_pinned());
        assert!(AutoscalePolicy::new(vec![g]).validate().is_ok());
    }

    #[test]
    fn pinned_means_every_band_is_degenerate_and_no_swap() {
        let pinned = GroupPolicy {
            min: 2,
            max: 2,
            initial: 2,
            ..GroupPolicy::default()
        };
        let mut policy = AutoscalePolicy::new(vec![pinned, pinned]);
        assert!(policy.is_pinned());
        policy.swap = true;
        assert!(!policy.is_pinned(), "swap makes a pinned band elastic");
        policy.swap = false;
        policy.groups[1] = GroupPolicy {
            min: 1,
            max: 2,
            ..pinned
        };
        assert!(!policy.is_pinned());
    }

    #[test]
    fn group_validation_rejects_incoherent_knobs() {
        let ok = GroupPolicy::default();
        for bad in [
            GroupPolicy {
                max: 0,
                min: 0,
                initial: 0,
                ..ok
            },
            GroupPolicy {
                min: 5,
                max: 2,
                ..ok
            },
            GroupPolicy { initial: 9, ..ok },
            GroupPolicy { initial: 0, ..ok }, // below min=1
            GroupPolicy {
                concurrency: 0,
                ..ok
            },
            GroupPolicy {
                scale_up_above: 0.2,
                scale_down_below: 0.5,
                ..ok
            },
            GroupPolicy {
                scale_down_below: 0.0,
                ..ok
            },
            GroupPolicy {
                scale_up_above: f64::NAN,
                ..ok
            },
            GroupPolicy {
                up_cooldown: Seconds::new(-1.0),
                ..ok
            },
            GroupPolicy {
                slo_floor: 1.5,
                ..ok
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} should be rejected");
        }
        ok.validate().unwrap();
    }

    #[test]
    fn non_finite_cooldowns_are_typed_errors() {
        let ok = GroupPolicy::default();
        // `Seconds::new` refuses NaN in debug builds; arithmetic does not.
        for t in [Seconds::ZERO * f64::NAN, Seconds::new(f64::INFINITY)] {
            for bad in [
                GroupPolicy {
                    up_cooldown: t,
                    ..ok
                },
                GroupPolicy {
                    down_cooldown: t,
                    ..ok
                },
            ] {
                assert!(
                    matches!(bad.validate(), Err(Error::InvalidConfig(_))),
                    "{bad:?} should be rejected"
                );
            }
        }
    }

    #[test]
    fn non_finite_provision_and_warmup_are_typed_errors() {
        let ok = AutoscalePolicy::new(vec![GroupPolicy::default()]);
        for t in [Seconds::ZERO * f64::NAN, Seconds::new(f64::INFINITY)] {
            for bad in [
                AutoscalePolicy {
                    provision: t,
                    ..ok.clone()
                },
                AutoscalePolicy {
                    warmup: t,
                    ..ok.clone()
                },
            ] {
                assert!(
                    matches!(bad.validate(), Err(Error::InvalidConfig(_))),
                    "{bad:?} should be rejected"
                );
            }
        }
    }

    #[test]
    fn policy_validation_rejects_bad_cadence() {
        let g = GroupPolicy::default();
        let ok = AutoscalePolicy::new(vec![g]);
        assert!(AutoscalePolicy::new(vec![]).validate().is_err());
        assert!(AutoscalePolicy {
            interval: Seconds::ZERO,
            ..ok.clone()
        }
        .validate()
        .is_err());
        assert!(AutoscalePolicy {
            provision: Seconds::new(-1.0),
            ..ok.clone()
        }
        .validate()
        .is_err());
        assert!(AutoscalePolicy {
            idle_watts: f64::NAN,
            ..ok.clone()
        }
        .validate()
        .is_err());
        // A bad group is reported with its index.
        let nested = AutoscalePolicy::new(vec![
            g,
            GroupPolicy {
                concurrency: 0,
                ..g
            },
        ]);
        let msg = nested.validate().unwrap_err().to_string();
        assert!(msg.contains("group 1"), "{msg}");
    }

    #[test]
    fn utilization_signal_covers_work_memory_and_zero() {
        let obs = GroupObservation {
            up: 2,
            queued: 2,
            outstanding: 4,
            kv_frac: 0.2,
            ..GroupObservation::default()
        };
        // 6 work over 2×4 target = 0.75; kv 0.2 is lower.
        assert!((obs.utilization(4) - 0.75).abs() < 1e-12);
        // KV pressure dominates when higher.
        let hot = GroupObservation {
            kv_frac: 0.95,
            ..obs
        };
        assert!((hot.utilization(4) - 0.95).abs() < 1e-12);
        // Scaled to zero: idle is 0, parked work is infinite.
        let idle = GroupObservation::default();
        assert_eq!(idle.utilization(4), 0.0);
        let parked = GroupObservation { queued: 1, ..idle };
        assert_eq!(parked.utilization(4), f64::INFINITY);
    }
}
