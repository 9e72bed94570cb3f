//! The `--autoscale SPEC` CLI grammar.

use cimtpu_units::spec::{entries, key_value, parse_band};
use cimtpu_units::{parse_time, Error, Result};

use crate::policy::{AutoscalePolicy, GroupPolicy};

/// A parsed `--autoscale` spec: policy knobs without a group count. The
/// CLI does not know how many replica groups a scenario has, so the spec
/// holds one template every group starts from, plus per-group band
/// overrides, and [`policy_for`](AutoscaleSpec::policy_for) expands them
/// once the topology is known. Knobs the spec leaves out keep
/// [`AutoscalePolicy::new`]'s and [`GroupPolicy::default`]'s values.
#[derive(Debug, Clone, PartialEq)]
pub struct AutoscaleSpec {
    /// Cadence, boot cost model and swaps (`interval=`, `provision=`,
    /// `warmup=`, `idle-w=`, `swap`); its `groups` stay empty.
    pub policy: AutoscalePolicy,
    /// The knobs every group takes (`replicas=`, `conc=`, `up=`, `down=`,
    /// `up-cd=`, `down-cd=`, `slo-floor=`); its `initial` is unused.
    pub group: GroupPolicy,
    /// Initial replicas (`init=2`; default `max(min, 1)` clamped to the
    /// band).
    pub initial: Option<u64>,
    /// Per-group band overrides (`group0=1..6`), as `(group, (min, max))`.
    pub group_bands: Vec<(usize, (u64, u64))>,
}

impl Default for AutoscaleSpec {
    fn default() -> Self {
        AutoscaleSpec {
            policy: AutoscalePolicy::new(Vec::new()),
            group: GroupPolicy::default(),
            initial: None,
            group_bands: Vec::new(),
        }
    }
}

impl AutoscaleSpec {
    /// Expands the spec into an [`AutoscalePolicy`] over `ngroups` replica
    /// groups: every group takes the template, then its `groupK=` band
    /// override if present.
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
                    .map_or((self.group.min, self.group.max), |&(_, band)| band);
                let initial = self
                    .initial
                    .unwrap_or_else(|| min.max(1))
                    .clamp(min, max.max(min));
                GroupPolicy {
                    min,
                    max,
                    initial,
                    ..self.group
                }
            })
            .collect();
        let policy = AutoscalePolicy {
            groups,
            ..self.policy.clone()
        };
        policy.validate()?;
        Ok(policy)
    }
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
/// Times, bands and entries are the shared tokens of
/// [`cimtpu_units::spec`].
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
    let (policy, group) = (&mut out.policy, &mut out.group);
    for part in entries(spec) {
        let lower = part.to_ascii_lowercase();
        if lower == "swap" {
            policy.swap = true;
            continue;
        }
        let (key, value) = key_value(&lower).ok_or_else(|| bad(part, "missing '=<value>'"))?;
        let time = |why: &str| parse_time(value).ok_or_else(|| bad(part, why));
        let float = |why: &str| value.parse::<f64>().map_err(|_| bad(part, why));
        let count = |why: &str| value.parse::<u64>().map_err(|_| bad(part, why));
        match key {
            "interval" => policy.interval = time("bad interval")?,
            "provision" => policy.provision = time("bad provisioning delay")?,
            "warmup" => policy.warmup = time("bad warmup")?,
            "idle-w" => policy.idle_watts = float("bad idle watts")?,
            "replicas" => {
                (group.min, group.max) = parse_band(value).ok_or_else(|| bad(part, "bad band"))?;
            }
            "init" => out.initial = Some(count("bad initial count")?),
            "conc" => group.concurrency = count("bad concurrency")?,
            "up" => group.scale_up_above = float("bad threshold")?,
            "down" => group.scale_down_below = float("bad threshold")?,
            "up-cd" => group.up_cooldown = time("bad cooldown")?,
            "down-cd" => group.down_cooldown = time("bad cooldown")?,
            "slo-floor" => group.slo_floor = float("bad floor")?,
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
    use cimtpu_units::Seconds;

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
        assert_eq!(spec.policy.interval, Seconds::new(2.0));
        assert_eq!(spec.policy.provision, Seconds::new(1.5));
        assert_eq!(spec.policy.warmup, Seconds::new(0.25));
        assert_eq!(spec.policy.idle_watts, 45.0);
        assert!(spec.policy.swap);
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
        let policy = parse_autoscale("replicas=0..3")
            .unwrap()
            .policy_for(1)
            .unwrap();
        assert_eq!(policy.groups[0].min, 0);
        assert_eq!(policy.groups[0].initial, 1, "start with one, not zero");
    }

    #[test]
    fn pinned_specs_expand_to_pinned_policies() {
        let policy = parse_autoscale("replicas=3..3")
            .unwrap()
            .policy_for(4)
            .unwrap();
        assert!(policy.is_pinned());
        assert!(policy.groups.iter().all(|g| g.initial == 3));
    }

    #[test]
    fn bad_tokens_are_rejected_with_the_offender_named() {
        for bad in [
            "interval",      // missing value
            "interval=fast", // bad time
            "replicas=4",    // not a band
            "replicas=4..x", // bad band edge
            "bogus=1",       // unknown key
            "group=1..2",    // group without an index
            "up=hot",        // bad float
        ] {
            let err = parse_autoscale(bad).unwrap_err().to_string();
            assert!(err.contains(bad.split('=').next().unwrap()), "{bad}: {err}");
        }
        // Group indices are checked against the fleet at expansion time.
        let spec = parse_autoscale("group7=1..2").unwrap();
        let err = spec.policy_for(2).unwrap_err().to_string();
        assert!(err.contains("group7"), "{err}");
        // An empty band parses but fails policy validation.
        assert!(parse_autoscale("replicas=5..2")
            .unwrap()
            .policy_for(1)
            .is_err());
    }

    /// Keys and values of the grammar, valid and near-miss, for
    /// near-grammar specs: every key, a bare `swap`, out-of-range groups,
    /// and values of the wrong token type.
    const KEYS: [&str; 16] = [
        "interval=",
        "provision=",
        "warmup=",
        "idle-w=",
        "replicas=",
        "group0=",
        "group9=",
        "init=",
        "conc=",
        "up=",
        "down=",
        "up-cd=",
        "down-cd=",
        "slo-floor=",
        "swap",
        "bogus=",
    ];
    const VALUES: [&str; 10] = [
        "1s", "500ms", "0..4", "3..3", "5..2", "2", "0.75", "nan", "-1", "",
    ];

    /// Parses `spec`: nothing panics, and an accepted spec expands onto a
    /// two-group fleet or is refused there with a typed error.
    fn check_autoscale_spec(spec: &str) {
        let parsed = match parse_autoscale(spec) {
            Ok(parsed) => parsed,
            Err(Error::InvalidConfig(_)) => return,
            Err(e) => panic!("{spec:?}: untyped parse error {e:?}"),
        };
        match parsed.policy_for(2) {
            Ok(policy) => assert_eq!(policy.groups.len(), 2, "{spec:?}"),
            Err(Error::InvalidConfig(_)) => {}
            Err(e) => panic!("{spec:?}: untyped expansion error {e:?}"),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Arbitrary strings (any Unicode scalar values) never panic the
        /// parser.
        #[test]
        fn parse_autoscale_survives_arbitrary_strings(
            chars in proptest::collection::vec(proptest::prelude::any::<u32>(), 0..24),
        ) {
            let spec: String = chars
                .iter()
                .map(|&c| char::from_u32(c % 0x11_0000).unwrap_or('\u{fffd}'))
                .collect();
            check_autoscale_spec(&spec);
        }

        /// Near-grammar strings: `key=value` entries from the grammar's
        /// own keys and every token type's values.
        #[test]
        fn parse_autoscale_survives_near_grammar_strings(
            picks in proptest::collection::vec((0..KEYS.len(), 0..VALUES.len()), 0..6),
        ) {
            let spec: Vec<String> =
                picks.iter().map(|&(k, v)| format!("{}{}", KEYS[k], VALUES[v])).collect();
            check_autoscale_spec(&spec.join(","));
        }
    }

    #[test]
    fn case_and_whitespace_are_forgiven() {
        let spec = parse_autoscale(" Interval=1S , SWAP ,, replicas=0..2 ").unwrap();
        assert!(spec.policy.swap);
        assert_eq!((spec.group.min, spec.group.max), (0, 2));
        assert_eq!(spec.policy.interval, Seconds::new(1.0));
    }
}
