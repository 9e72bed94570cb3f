//! Reconcile-loop autoscaling control plane for the cimtpu fleet
//! simulator.
//!
//! The control plane is split the same way a real one would be:
//!
//! * [`AutoscalePolicy`] / [`GroupPolicy`] — the declarative spec: per-group
//!   replica bands, target-utilization hysteresis, cooldowns, scale-to-zero,
//!   and optional model swaps, plus the shared reconcile cadence and the
//!   provisioning cost model (boot delay, warmup, idle watts).
//! * [`GroupObservation`] — the telemetry snapshot a driver hands the
//!   controller at each tick (queue depth, outstanding work, KV occupancy,
//!   rolling SLO goodput). The reconciler sees *only* these snapshots,
//!   never the engines, which is what makes decisions replayable.
//! * [`Reconciler`] — the pure decision function: observations in,
//!   [`ScalingDecision`]s out, on a fixed interval of the simulated clock.
//!   Same policy + same observation stream ⇒ the same decisions, always.
//! * [`ScalingStats`] / [`ScalingAction`] — the `scaling` section of a
//!   cluster report: the applied-action log, ramp SLO damage, and fleet
//!   cost in chip-seconds and joules, so an elastic run and a peak-sized
//!   static fleet compare head-to-head.
//! * [`parse_autoscale`] / [`AutoscaleSpec`] — the `--autoscale SPEC`
//!   CLI grammar.
//!
//! Applying the decisions — actually booting, draining, and swapping
//! replicas inside the discrete-event loop — is the cluster driver's job
//! (see `cimtpu-cluster`); this crate deliberately has no engine
//! dependency.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod parse;
mod policy;
mod reconcile;
mod stats;

pub use parse::{parse_autoscale, AutoscaleSpec};
pub use policy::{AutoscalePolicy, GroupObservation, GroupPolicy};
pub use reconcile::{Reconciler, ScalingDecision};
pub use stats::{action, ScalingAction, ScalingStats};
