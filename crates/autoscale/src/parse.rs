//! The `--autoscale SPEC` CLI grammar.

use cimtpu_units::{parse_time, Error, Result, Seconds};

use crate::policy::{AutoscalePolicy, GroupPolicy};

/// A parsed `--autoscale` spec: policy knobs without a group count. The
/// CLI does not know how many replica groups a scenario has, so the spec
/// holds fleet-wide defaults plus per-group band overrides and
/// [`policy_for`](AutoscaleSpec::policy_for) expands them once the
/// topology is known.
#[derive(Debug, Clone, PartialEq)]
pub struct AutoscaleSpec {
    /// Reconcile interval (`interval=1s`; default 1 s).
    pub interval: Seconds,
    /// Provisioning delay (`provision=2s`; default 1 s).
    pub provision: Seconds,
    /// Warmup after provisioning (`warmup=500ms`; default 0.5 s).
    pub warmup: Seconds,
    /// Idle watts per chip (`idle-w=30`; default 30).
    pub idle_watts: f64,
    /// Model swaps allowed (`swap`; default off).
    pub swap: bool,
    /// Default replica band for every group (`replicas=0..4`; default
    /// 1..4).
    pub band: (u64, u64),
    /// Initial replicas (`init=2`; default `max(min, 1)` clamped to the
    /// band).
    pub initial: Option<u64>,
    /// Target per-replica concurrency (`conc=8`; default 4).
    pub concurrency: u64,
    /// Scale-up threshold (`up=0.75`; default 0.75).
    pub up: f64,
    /// Scale-down threshold (`down=0.25`; default 0.25).
    pub down: f64,
    /// Scale-up cooldown (`up-cd=2s`; default 0).
    pub up_cooldown: Seconds,
    /// Scale-down cooldown (`down-cd=5s`; default 0).
    pub down_cooldown: Seconds,
    /// Rolling SLO-goodput floor (`slo-floor=0.9`; default 0 = off).
    pub slo_floor: f64,
    /// Per-group band overrides (`group0=1..6`), as `(group, (min, max))`.
    pub group_bands: Vec<(usize, (u64, u64))>,
}

impl Default for AutoscaleSpec {
    fn default() -> Self {
        AutoscaleSpec {
            interval: Seconds::new(1.0),
            provision: Seconds::new(1.0),
            warmup: Seconds::new(0.5),
            idle_watts: 30.0,
            swap: false,
            band: (1, 4),
            initial: None,
            concurrency: 4,
            up: 0.75,
            down: 0.25,
            up_cooldown: Seconds::ZERO,
            down_cooldown: Seconds::ZERO,
            slo_floor: 0.0,
            group_bands: Vec::new(),
        }
    }
}

impl AutoscaleSpec {
    /// Expands the spec into an [`AutoscalePolicy`] over `ngroups` replica
    /// groups: every group takes the fleet-wide defaults, then its
    /// `groupK=` band override if present.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if an override names a group
    /// index `>= ngroups`, or if the expanded policy fails
    /// [`AutoscalePolicy::validate`].
    pub fn policy_for(&self, ngroups: usize) -> Result<AutoscalePolicy> {
        if let Some(&(g, _)) = self.group_bands.iter().find(|&&(g, _)| g >= ngroups) {
            return Err(Error::invalid_config(format!(
                "autoscale spec names group{g} but the fleet has {ngroups} group(s)"
            )));
        }
        let groups = (0..ngroups)
            .map(|g| {
                let (min, max) = self
                    .group_bands
                    .iter()
                    .rev() // the last override of a group wins
                    .find(|&&(i, _)| i == g)
                    .map_or(self.band, |&(_, band)| band);
                let initial =
                    self.initial.unwrap_or_else(|| min.max(1)).clamp(min, max.max(min));
                GroupPolicy {
                    min,
                    max,
                    initial,
                    concurrency: self.concurrency,
                    scale_up_above: self.up,
                    scale_down_below: self.down,
                    up_cooldown: self.up_cooldown,
                    down_cooldown: self.down_cooldown,
                    slo_floor: self.slo_floor,
                }
            })
            .collect();
        let policy = AutoscalePolicy {
            interval: self.interval,
            provision: self.provision,
            warmup: self.warmup,
            idle_watts: self.idle_watts,
            swap: self.swap,
            groups,
        };
        policy.validate()?;
        Ok(policy)
    }
}

/// Parses `LO..HI` as a replica band.
fn parse_band(s: &str) -> Option<(u64, u64)> {
    let (lo, hi) = s.split_once("..")?;
    Some((lo.trim().parse().ok()?, hi.trim().parse().ok()?))
}

/// Parses the comma-separated `--autoscale SPEC` grammar of
/// `cluster_sim` — case-insensitive `key=value` tokens, every one
/// optional:
///
/// ```text
/// interval=1s      reconcile cadence            provision=2s  boot delay
/// warmup=500ms     weight-load / cache warmup   idle-w=30     idle W per chip
/// replicas=0..4    replica band (all groups)    group0=1..6   per-group band
/// init=2           initial replicas             conc=8        target concurrency
/// up=0.75          scale-up threshold           down=0.25     scale-down threshold
/// up-cd=2s         scale-up cooldown            down-cd=5s    scale-down cooldown
/// slo-floor=0.9    goodput floor (0 = off)      swap          allow model swaps
/// ```
///
/// Example: `--autoscale 'interval=1s,replicas=0..4,up=0.8,down=0.2,swap'`.
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] for an unknown key or a malformed
/// value (group indices are range-checked later, in
/// [`AutoscaleSpec::policy_for`], when the fleet size is known).
pub fn parse_autoscale(spec: &str) -> Result<AutoscaleSpec> {
    let bad = |part: &str, why: &str| {
        Error::invalid_config(format!(
            "invalid autoscale spec '{part}': {why} (expected e.g. \
             'interval=1s,replicas=0..4,up=0.75,down=0.25,up-cd=2s,swap')"
        ))
    };
    let mut out = AutoscaleSpec::default();
    for part in spec.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let lower = part.to_ascii_lowercase();
        if lower == "swap" {
            out.swap = true;
            continue;
        }
        let (key, value) =
            lower.split_once('=').ok_or_else(|| bad(part, "missing '=<value>'"))?;
        let time = |why: &str| parse_time(value).ok_or_else(|| bad(part, why));
        match key {
            "interval" => out.interval = time("bad interval")?,
            "provision" => out.provision = time("bad provisioning delay")?,
            "warmup" => out.warmup = time("bad warmup")?,
            "idle-w" => {
                out.idle_watts =
                    value.parse().map_err(|_| bad(part, "bad idle watts"))?;
            }
            "replicas" => {
                out.band = parse_band(value).ok_or_else(|| bad(part, "bad band"))?;
            }
            "init" => {
                out.initial =
                    Some(value.parse().map_err(|_| bad(part, "bad initial count"))?);
            }
            "conc" => {
                out.concurrency =
                    value.parse().map_err(|_| bad(part, "bad concurrency"))?;
            }
            "up" => out.up = value.parse().map_err(|_| bad(part, "bad threshold"))?,
            "down" => out.down = value.parse().map_err(|_| bad(part, "bad threshold"))?,
            "up-cd" => out.up_cooldown = time("bad cooldown")?,
            "down-cd" => out.down_cooldown = time("bad cooldown")?,
            "slo-floor" => {
                out.slo_floor = value.parse().map_err(|_| bad(part, "bad floor"))?;
            }
            _ => {
                let band = key
                    .strip_prefix("group")
                    .and_then(|g| g.parse::<usize>().ok())
                    .zip(parse_band(value));
                let (g, band) = band.ok_or_else(|| bad(part, "unknown key"))?;
                out.group_bands.push((g, band));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_expand_to_a_valid_policy() {
        let spec = parse_autoscale("").unwrap();
        assert_eq!(spec, AutoscaleSpec::default());
        let policy = spec.policy_for(2).unwrap();
        assert_eq!(policy.groups.len(), 2);
        assert_eq!((policy.groups[0].min, policy.groups[0].max), (1, 4));
        assert_eq!(policy.groups[0].initial, 1);
        assert!(!policy.is_pinned());
    }

    #[test]
    fn full_grammar_round_trips_into_policy() {
        let spec = parse_autoscale(
            "interval=2s,provision=1500ms,warmup=250ms,idle-w=45,replicas=0..6,\
             init=2,conc=8,up=0.8,down=0.2,up-cd=4s,down-cd=10s,slo-floor=0.9,\
             group1=1..3,swap",
        )
        .unwrap();
        assert_eq!(spec.interval, Seconds::new(2.0));
        assert_eq!(spec.provision, Seconds::new(1.5));
        assert_eq!(spec.warmup, Seconds::new(0.25));
        assert_eq!(spec.idle_watts, 45.0);
        assert!(spec.swap);
        let policy = spec.policy_for(2).unwrap();
        assert_eq!((policy.groups[0].min, policy.groups[0].max), (0, 6));
        assert_eq!((policy.groups[1].min, policy.groups[1].max), (1, 3));
        assert_eq!(policy.groups[0].initial, 2);
        assert_eq!(policy.groups[0].concurrency, 8);
        assert_eq!(policy.groups[0].slo_floor, 0.9);
        assert_eq!(policy.groups[0].down_cooldown, Seconds::new(10.0));
    }

    #[test]
    fn scale_to_zero_band_defaults_initial_to_one() {
        let policy = parse_autoscale("replicas=0..3").unwrap().policy_for(1).unwrap();
        assert_eq!(policy.groups[0].min, 0);
        assert_eq!(policy.groups[0].initial, 1, "start with one, not zero");
    }

    #[test]
    fn pinned_specs_expand_to_pinned_policies() {
        let policy = parse_autoscale("replicas=3..3").unwrap().policy_for(4).unwrap();
        assert!(policy.is_pinned());
        assert!(policy.groups.iter().all(|g| g.initial == 3));
    }

    #[test]
    fn bad_tokens_are_rejected_with_the_offender_named() {
        for bad in [
            "interval",          // missing value
            "interval=fast",     // bad time
            "replicas=4",        // not a band
            "replicas=4..x",     // bad band edge
            "bogus=1",           // unknown key
            "group=1..2",        // group without an index
            "up=hot",            // bad float
        ] {
            let err = parse_autoscale(bad).unwrap_err().to_string();
            assert!(err.contains(bad.split('=').next().unwrap()), "{bad}: {err}");
        }
        // Group indices are checked against the fleet at expansion time.
        let spec = parse_autoscale("group7=1..2").unwrap();
        let err = spec.policy_for(2).unwrap_err().to_string();
        assert!(err.contains("group7"), "{err}");
        // An empty band parses but fails policy validation.
        assert!(parse_autoscale("replicas=5..2").unwrap().policy_for(1).is_err());
    }

    #[test]
    fn case_and_whitespace_are_forgiven() {
        let spec = parse_autoscale(" Interval=1S , SWAP ,, replicas=0..2 ").unwrap();
        assert!(spec.swap);
        assert_eq!(spec.band, (0, 2));
        assert_eq!(spec.interval, Seconds::new(1.0));
    }
}
