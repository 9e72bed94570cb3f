//! The deterministic reconcile loop: observe → diff against policy →
//! decide.

use cimtpu_units::Seconds;

use crate::policy::{AutoscalePolicy, GroupObservation};

/// One scaling decision the driver must apply. Decisions name groups, not
/// replicas: the driver picks the concrete slot (lowest free slot for an
/// add, highest routable slot for a drain), keeping slot choice — a
/// driver concern — out of the control loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalingDecision {
    /// Provision one replica in `group` (pays provisioning + warmup).
    Add {
        /// Target group index.
        group: usize,
    },
    /// Drain one replica from `group` (finishes in-flight work, then
    /// retires).
    Drain {
        /// Target group index.
        group: usize,
    },
    /// Repurpose a replica: drain one from `from` and start one in `to`,
    /// paying warmup but not provisioning (the machine already exists).
    Swap {
        /// Donor group (under-utilized above its min).
        from: usize,
        /// Recipient group (over-utilized at its max).
        to: usize,
    },
}

/// Per-group controller memory: the timestamps hysteresis and cooldowns
/// compare against.
#[derive(Debug, Clone, Copy)]
struct GroupState {
    last_add: f64,
    last_drain: f64,
    /// Last tick at which the group had any work — scale-to-zero requires
    /// `down_cooldown` of continuous observed idleness.
    last_busy: f64,
}

/// The control loop's decision core. [`reconcile`](Reconciler::reconcile)
/// is a pure function of the policy, the observations, and the
/// reconciler's own (deterministic) cooldown memory: same policy + same
/// observation stream → same decision stream, which is the determinism
/// contract the replay tests pin.
///
/// Decision rules, per group and in group order:
///
/// 1. **Scale up** when utilization exceeds `scale_up_above` (or the
///    rolling goodput falls below `slo_floor`) and the group has headroom
///    (`up + pending < max`) and the up-cooldown has passed. Capacity
///    already provisioning counts, so a slow ramp is not double-bought.
/// 2. **Scale down** when utilization falls below `scale_down_below`,
///    the group stays at or above `min`, and both the down-cooldown and
///    an add-settle guard (`down_cooldown` since the last add) have
///    passed. Dropping the *last* routable replica additionally requires
///    zero work, nothing pending, and `down_cooldown` of observed
///    idleness — that is scale-to-zero.
/// 3. **Swap** (when the policy allows it): if some group is over its
///    band *at* its max while another sits under its band above its min,
///    repurpose one replica from the latter to the former. At most one
///    swap per tick, lowest-index pairs first.
///
/// At most one decision per group per tick: fleets move one replica at a
/// time per group, which is what makes hysteresis effective.
#[derive(Debug, Clone)]
pub struct Reconciler {
    policy: AutoscalePolicy,
    groups: Vec<GroupState>,
}

impl Reconciler {
    /// A reconciler over `policy` (assumed validated).
    pub fn new(policy: AutoscalePolicy) -> Self {
        let n = policy.groups.len();
        Reconciler {
            policy,
            groups: vec![
                GroupState {
                    last_add: f64::NEG_INFINITY,
                    last_drain: f64::NEG_INFINITY,
                    last_busy: 0.0,
                };
                n
            ],
        }
    }

    /// One control-loop iteration at simulated time `now`: observe each
    /// group, compare against its policy band, and return the decisions
    /// to apply. `obs` must have one entry per policy group.
    ///
    /// # Panics
    ///
    /// Panics if `obs.len()` differs from the policy's group count.
    pub fn reconcile(&mut self, now: Seconds, obs: &[GroupObservation]) -> Vec<ScalingDecision> {
        assert_eq!(
            obs.len(),
            self.policy.groups.len(),
            "one observation per policy group"
        );
        let t = now.get();
        for (g, o) in obs.iter().enumerate() {
            if o.work() > 0 {
                self.groups[g].last_busy = t;
            }
        }
        let mut decisions = Vec::new();
        let mut decided = vec![false; obs.len()];

        // Swaps first: a donor group that qualifies for a swap must not be
        // consumed by a plain drain in the per-group pass below.
        if self.policy.swap {
            if let Some((from, to)) = self.swap_pair(t, obs) {
                decisions.push(ScalingDecision::Swap { from, to });
                self.groups[from].last_drain = t;
                self.groups[to].last_add = t;
                decided[from] = true;
                decided[to] = true;
            }
        }

        for (g, (o, pol)) in obs.iter().zip(&self.policy.groups).enumerate() {
            if decided[g] {
                continue;
            }
            let state = &mut self.groups[g];
            let util = o.utilization(pol.concurrency);
            let capacity = o.up + o.pending;

            let goodput_bad = pol.slo_floor > 0.0
                && o.delivered > 0
                && (o.slo_ok as f64) < pol.slo_floor * o.delivered as f64;
            if (util > pol.scale_up_above || goodput_bad)
                && capacity < pol.max
                && t - state.last_add >= pol.up_cooldown.get()
            {
                decisions.push(ScalingDecision::Add { group: g });
                state.last_add = t;
                continue;
            }

            if util < pol.scale_down_below
                && o.up > pol.min
                && t - state.last_drain >= pol.down_cooldown.get()
                && t - state.last_add >= pol.down_cooldown.get()
            {
                let to_zero = o.up == 1;
                let idle_long_enough = o.work() == 0
                    && o.pending == 0
                    && t - state.last_busy >= pol.down_cooldown.get();
                if !to_zero || idle_long_enough {
                    decisions.push(ScalingDecision::Drain { group: g });
                    state.last_drain = t;
                }
            }
        }
        decisions
    }

    /// The lowest-index (donor, recipient) pair eligible for a swap this
    /// tick, if any: the recipient is over its band with no headroom left
    /// (`up + pending >= max`), the donor under its band above its `min`,
    /// both with their cooldowns passed.
    fn swap_pair(&self, t: f64, obs: &[GroupObservation]) -> Option<(usize, usize)> {
        let eligible_to = |g: usize| {
            let (o, pol) = (&obs[g], &self.policy.groups[g]);
            o.utilization(pol.concurrency) > pol.scale_up_above
                && o.up + o.pending >= pol.max
                && t - self.groups[g].last_add >= pol.up_cooldown.get()
        };
        let eligible_from = |g: usize| {
            let (o, pol) = (&obs[g], &self.policy.groups[g]);
            o.utilization(pol.concurrency) < pol.scale_down_below
                && o.up > pol.min
                && t - self.groups[g].last_drain >= pol.down_cooldown.get()
                && t - self.groups[g].last_add >= pol.down_cooldown.get()
        };
        let to = (0..obs.len()).find(|&g| eligible_to(g))?;
        let from = (0..obs.len()).find(|&g| g != to && eligible_from(g))?;
        Some((from, to))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::GroupPolicy;

    fn policy(groups: Vec<GroupPolicy>) -> AutoscalePolicy {
        AutoscalePolicy {
            interval: Seconds::new(1.0),
            provision: Seconds::new(1.0),
            warmup: Seconds::new(0.5),
            idle_watts: 30.0,
            swap: false,
            groups,
        }
    }

    fn busy(up: u64, work: u64) -> GroupObservation {
        GroupObservation {
            up,
            outstanding: work,
            ..GroupObservation::default()
        }
    }

    #[test]
    fn hysteresis_band_holds_steady_state() {
        let g = GroupPolicy {
            min: 1,
            max: 4,
            ..GroupPolicy::default()
        };
        let mut r = Reconciler::new(policy(vec![g]));
        // util = 2/(1×4) = 0.5: inside (0.25, 0.75) — no decision.
        assert!(r.reconcile(Seconds::new(1.0), &[busy(1, 2)]).is_empty());
        // util = 4/4 = 1.0 > 0.75: scale up.
        assert_eq!(
            r.reconcile(Seconds::new(2.0), &[busy(1, 4)]),
            vec![ScalingDecision::Add { group: 0 }]
        );
        // util = 1/(2×4) = 0.125 < 0.25: scale down (back above min).
        assert_eq!(
            r.reconcile(Seconds::new(3.0), &[busy(2, 1)]),
            vec![ScalingDecision::Drain { group: 0 }]
        );
    }

    #[test]
    fn cooldowns_rate_limit_decisions() {
        let g = GroupPolicy {
            min: 1,
            max: 8,
            up_cooldown: Seconds::new(2.0),
            down_cooldown: Seconds::new(3.0),
            ..GroupPolicy::default()
        };
        let mut r = Reconciler::new(policy(vec![g]));
        assert_eq!(r.reconcile(Seconds::new(1.0), &[busy(1, 40)]).len(), 1);
        // 1 s later: up-cooldown (2 s) blocks the next add.
        assert!(r.reconcile(Seconds::new(2.0), &[busy(1, 40)]).is_empty());
        assert_eq!(r.reconcile(Seconds::new(3.0), &[busy(1, 40)]).len(), 1);
        // A drain within down_cooldown of the last add is blocked too
        // (add-settle guard), then allowed.
        assert!(r.reconcile(Seconds::new(4.0), &[busy(4, 0)]).is_empty());
        assert_eq!(
            r.reconcile(Seconds::new(6.0), &[busy(4, 0)]),
            vec![ScalingDecision::Drain { group: 0 }]
        );
    }

    #[test]
    fn pending_capacity_prevents_double_buying() {
        let g = GroupPolicy {
            min: 1,
            max: 2,
            ..GroupPolicy::default()
        };
        let mut r = Reconciler::new(policy(vec![g]));
        // Over the band, but a replica is already provisioning and max is
        // 2: up + pending == max, no further add.
        let obs = GroupObservation {
            up: 1,
            pending: 1,
            outstanding: 40,
            ..Default::default()
        };
        assert!(r.reconcile(Seconds::new(1.0), &[obs]).is_empty());
    }

    #[test]
    fn scale_to_zero_requires_sustained_idleness() {
        let g = GroupPolicy {
            min: 0,
            max: 2,
            down_cooldown: Seconds::new(5.0),
            ..GroupPolicy::default()
        };
        let mut r = Reconciler::new(policy(vec![g]));
        // Busy at t=1 refreshes last_busy.
        assert!(r.reconcile(Seconds::new(1.0), &[busy(1, 2)]).is_empty());
        // Idle at t=2: only 1 s of idleness — hold.
        assert!(r.reconcile(Seconds::new(2.0), &[busy(1, 0)]).is_empty());
        // Idle at t=6: 5 s since last busy — drop the last replica.
        assert_eq!(
            r.reconcile(Seconds::new(6.0), &[busy(1, 0)]),
            vec![ScalingDecision::Drain { group: 0 }]
        );
        // Parked work on a zero-replica group is the wake signal.
        let parked = GroupObservation {
            queued: 1,
            ..GroupObservation::default()
        };
        assert_eq!(
            r.reconcile(Seconds::new(7.0), &[parked]),
            vec![ScalingDecision::Add { group: 0 }]
        );
    }

    #[test]
    fn slo_floor_triggers_scale_up_inside_the_band() {
        let g = GroupPolicy {
            slo_floor: 0.9,
            ..GroupPolicy::default()
        };
        let mut r = Reconciler::new(policy(vec![g]));
        // util = 2/4 = 0.5 (inside the band), but only 1 of 4 completions
        // met the SLO since the last tick: goodput trigger fires.
        let obs = GroupObservation {
            up: 1,
            outstanding: 2,
            delivered: 4,
            slo_ok: 1,
            ..Default::default()
        };
        assert_eq!(
            r.reconcile(Seconds::new(1.0), &[obs]),
            vec![ScalingDecision::Add { group: 0 }]
        );
    }

    #[test]
    fn swap_repurposes_a_replica_across_groups() {
        let hot = GroupPolicy {
            min: 1,
            max: 2,
            ..GroupPolicy::default()
        };
        let cold = GroupPolicy {
            min: 1,
            max: 4,
            ..GroupPolicy::default()
        };
        let mut p = policy(vec![cold, hot]);
        p.swap = true;
        let mut r = Reconciler::new(p);
        let obs = [
            busy(3, 1),  // cold donor: util 1/12 < 0.25, above min
            busy(2, 40), // hot recipient: util 5.0 at max
        ];
        assert_eq!(
            r.reconcile(Seconds::new(1.0), &obs),
            vec![ScalingDecision::Swap { from: 0, to: 1 }]
        );
        // The swap charged both groups' cooldown clocks… which are zero
        // here, so the same skew immediately swaps again — but with swap
        // off, the donor would have plainly drained instead.
        let mut plain = Reconciler::new(policy(vec![cold, hot]));
        assert_eq!(
            plain.reconcile(Seconds::new(1.0), &obs),
            vec![ScalingDecision::Drain { group: 0 }]
        );
    }

    #[test]
    fn same_observation_stream_replays_the_same_decisions() {
        let g = GroupPolicy {
            min: 0,
            max: 4,
            ..GroupPolicy::default()
        };
        let ticks: Vec<(f64, GroupObservation)> = (1..40)
            .map(|i| {
                let work = if i % 7 < 4 { (i % 9) * 2 } else { 0 };
                (i as f64, busy(1 + i % 3, work))
            })
            .collect();
        let run = |p: AutoscalePolicy| {
            let mut r = Reconciler::new(p);
            ticks
                .iter()
                .map(|(t, o)| r.reconcile(Seconds::new(*t), &[*o]))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(policy(vec![g])), run(policy(vec![g])));
    }
}
