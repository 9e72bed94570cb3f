//! Multi-tenant SLO tiers: per-tenant traffic, weighted-fair scheduling
//! inputs, and the per-tenant report section.
//!
//! A [`TenantSet`] names each tenant, assigns it an [`SloClass`] (admission
//! priority + latency target), a fair-share weight, and its own
//! [`TrafficSpec`]. [`TenantSet::merged_spec`] materializes every tenant's
//! trace, interleaves the arrivals into one deterministic
//! [`ArrivalPattern::Trace`], and re-ids the merged sequence `0..n` — so
//! every existing driver replays a multi-tenant day through the exact same
//! event loop as a single-tenant one, with each [`Request`](crate::Request)
//! carrying its tenant index and class.
//!
//! Scheduling consumes a [`TenantSched`] (via
//! [`EngineCore::set_tenancy`](crate::EngineCore::set_tenancy)): admission
//! is priority-first (Interactive before Standard before Batch), then
//! deficit-weighted-fair across tenants (least service-per-weight first),
//! and KV preemption evicts batch-tier residents before interactive-tier
//! ones.
//!
//! Tenant state is read-only for the whole run. A request carries its
//! tenant, so every book that counts shed, timed-out or preempted
//! requests counts them per tenant from the request it is handed. A
//! completion carries no tenant: it is attributed through
//! [`RequestTenants`], a view of the merged trace's records. Once the run
//! is over, [`TenantReport::new`] builds the per-tenant section from those
//! counts and the completions (goodput, SLO attainment, Jain's fairness
//! index over weighted service shares).

use serde::{Deserialize, Serialize};

use cimtpu_units::{spec, Error, Result};

use crate::metrics::Completion;
use crate::request::{mix64, ArrivalPattern, PrefixTraffic, TrafficSpec};
use crate::trace::TraceRecord;

/// A request's service tier: its admission priority (Interactive first,
/// Batch last) and the latency target its tenant is judged against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SloClass {
    /// Latency-sensitive traffic (chat turns): admitted first, preempted
    /// last.
    Interactive,
    /// Ordinary traffic with a moderate latency target.
    Standard,
    /// Throughput-oriented background work (evaluation sweeps, batch
    /// summarization): admitted last, and the first tier to lose its KV
    /// residency under memory pressure.
    Batch,
}

impl SloClass {
    /// Admission priority: lower ranks admit first and preempt last.
    pub fn rank(self) -> usize {
        match self {
            SloClass::Interactive => 0,
            SloClass::Standard => 1,
            SloClass::Batch => 2,
        }
    }

    /// Default per-request latency target, in milliseconds, when a tenant
    /// spec does not override it.
    pub(crate) fn default_slo_ms(self) -> f64 {
        match self {
            SloClass::Interactive => 2.0,
            SloClass::Standard => 10.0,
            SloClass::Batch => 100.0,
        }
    }

    /// Stable lowercase name (CLI flags and report rows).
    pub(crate) fn name(self) -> &'static str {
        match self {
            SloClass::Interactive => "interactive",
            SloClass::Standard => "standard",
            SloClass::Batch => "batch",
        }
    }

    /// Parses a class from its [`name`](Self::name).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for an unknown name.
    pub(crate) fn by_name(name: &str) -> Result<Self> {
        match name {
            "interactive" => Ok(SloClass::Interactive),
            "standard" => Ok(SloClass::Standard),
            "batch" => Ok(SloClass::Batch),
            other => Err(Error::invalid_config(format!(
                "unknown SLO class '{other}' (expected interactive, standard, or batch)"
            ))),
        }
    }
}

/// One tenant: a name, its service tier, its weighted fair share, its
/// latency target, and the traffic it offers.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Stable tenant name (report rows key on it).
    pub name: String,
    /// Service tier: admission priority and preemption ordering.
    pub class: SloClass,
    /// Fair-share weight for deficit-weighted-fair queueing (relative to
    /// the other tenants; must be positive and finite).
    pub weight: f64,
    /// Per-request latency target in milliseconds (SLO attainment counts
    /// completions at or under it).
    pub slo_ms: f64,
    /// The tenant's own traffic (open-loop shapes only: closed-loop
    /// arrivals couple to completions and cannot be merged up front).
    pub traffic: TrafficSpec,
}

impl TenantSpec {
    /// A tenant with the class's default latency target.
    pub fn new(name: &str, class: SloClass, weight: f64, traffic: TrafficSpec) -> Self {
        TenantSpec {
            name: name.to_owned(),
            class,
            weight,
            slo_ms: class.default_slo_ms(),
            traffic,
        }
    }
}

/// The load a run is offered: one traffic spec, or a tenant set whose
/// traffics merge into one trace. Engines take `impl Into<Offered>`, so
/// `&TrafficSpec` and `&TenantSet` both pass straight in.
#[derive(Debug, Clone, Copy)]
pub enum Offered<'a> {
    /// Single-tenant traffic.
    Traffic(&'a TrafficSpec),
    /// Multi-tenant traffic, scheduled weighted-fair.
    Tenants(&'a TenantSet),
}

impl<'a> From<&'a TrafficSpec> for Offered<'a> {
    fn from(traffic: &'a TrafficSpec) -> Self {
        Offered::Traffic(traffic)
    }
}

impl<'a> From<&'a TenantSet> for Offered<'a> {
    fn from(tenants: &'a TenantSet) -> Self {
        Offered::Tenants(tenants)
    }
}

impl<'a> Offered<'a> {
    /// The one trace the run serves: the traffic itself, or the tenants'
    /// [merged](TenantSet::merged_spec) trace.
    ///
    /// # Errors
    ///
    /// As for [`TenantSet::merged_spec`].
    pub fn spec(self) -> Result<std::borrow::Cow<'a, TrafficSpec>> {
        Ok(match self {
            Offered::Traffic(traffic) => std::borrow::Cow::Borrowed(traffic),
            Offered::Tenants(tenants) => std::borrow::Cow::Owned(tenants.merged_spec()?),
        })
    }

    /// The tenant set, for multi-tenant load.
    pub fn tenants(self) -> Option<&'a TenantSet> {
        match self {
            Offered::Traffic(_) => None,
            Offered::Tenants(tenants) => Some(tenants),
        }
    }
}

/// A set of tenants sharing one serving fleet.
#[derive(Debug, Clone)]
pub struct TenantSet {
    /// The tenants, in report order; tenant index `i` tags every request
    /// the `i`-th spec generates.
    pub tenants: Vec<TenantSpec>,
}

impl TenantSet {
    /// Builds and validates a tenant set.
    ///
    /// # Errors
    ///
    /// As for `TenantSet::validate`.
    pub fn new(tenants: Vec<TenantSpec>) -> Result<Self> {
        let set = TenantSet { tenants };
        set.validate()?;
        Ok(set)
    }

    /// Checks the set is mergeable: at least one tenant, unique names,
    /// positive finite weights and SLO targets, per-tenant traffic that
    /// validates, no closed-loop tenants (their arrivals depend on service
    /// progress and cannot be merged up front, and a run attributes each
    /// completion to its tenant through the merged trace's records; see
    /// [`RequestTenants`]), and no per-tenant prefix traffic (the merged
    /// trace re-ids requests, which would silently reshuffle shared-head
    /// group assignment).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] describing the first violation.
    pub(crate) fn validate(&self) -> Result<()> {
        if self.tenants.is_empty() {
            return Err(Error::invalid_config("a tenant set needs >= 1 tenant"));
        }
        for (i, t) in self.tenants.iter().enumerate() {
            if self.tenants[..i].iter().any(|o| o.name == t.name) {
                return Err(Error::invalid_config(format!(
                    "duplicate tenant name '{}'",
                    t.name
                )));
            }
            if !(t.weight.is_finite() && t.weight > 0.0) {
                return Err(Error::invalid_config(format!(
                    "tenant '{}' needs a positive finite weight",
                    t.name
                )));
            }
            if !(t.slo_ms.is_finite() && t.slo_ms > 0.0) {
                return Err(Error::invalid_config(format!(
                    "tenant '{}' needs a positive finite SLO target",
                    t.name
                )));
            }
            t.traffic.validate()?;
            if matches!(t.traffic.arrival, ArrivalPattern::ClosedLoop { .. }) {
                return Err(Error::invalid_config(format!(
                    "tenant '{}' uses closed-loop traffic, which cannot be merged \
                     into a trace (arrivals depend on service progress)",
                    t.name
                )));
            }
            if t.traffic.prefix != PrefixTraffic::None {
                return Err(Error::invalid_config(format!(
                    "tenant '{}' uses prefix traffic; the merged trace re-ids \
                     requests, so per-tenant prefix traffic is not supported",
                    t.name
                )));
            }
        }
        Ok(())
    }

    /// The same set with every tenant's traffic reseeded from `seed`
    /// (tenant `i` draws seed `mix64(seed, i)`), so scenario-level
    /// `--seed` reseeding perturbs every tenant's stream independently.
    #[must_use]
    pub fn with_seed(&self, seed: u64) -> TenantSet {
        let mut set = self.clone();
        for (i, t) in set.tenants.iter_mut().enumerate() {
            t.traffic.seed = mix64(seed, i as u64);
        }
        set
    }

    /// Materializes every tenant's trace and merges them into one
    /// deterministic [`ArrivalPattern::Trace`] spec: arrivals sort by time
    /// (ties keep tenant order, then per-tenant order), the merged
    /// sequence is re-id'd `0..n`, each record carries its tenant index
    /// and class, and sessions are salted per tenant so two tenants'
    /// session `k` never collide.
    ///
    /// # Errors
    ///
    /// As for `TenantSet::validate`.
    pub fn merged_spec(&self) -> Result<TrafficSpec> {
        self.validate()?;
        let total = self
            .tenants
            .iter()
            .map(|t| t.traffic.requests as usize)
            .sum();
        let mut records: Vec<TraceRecord> = Vec::with_capacity(total);
        for (ti, tenant) in self.tenants.iter().enumerate() {
            let salt = 0x7E4A_4715 ^ ti as u64;
            records.extend(tenant.traffic.sampler().map(|r| TraceRecord {
                t_s: r.arrival_s,
                prompt: r.prompt_len,
                steps: r.steps,
                session: mix64(salt, r.session),
                tenant: ti as u32,
                class: tenant.class,
            }));
        }
        // Stable sort: equal arrival instants keep tenant order, and each
        // tenant's records are already in its own arrival order.
        records.sort_by(|a, b| a.t_s.total_cmp(&b.t_s));
        Ok(TrafficSpec {
            requests: records.len() as u64,
            arrival: ArrivalPattern::Trace { records },
            prompt: crate::LenDist::Fixed(0),
            steps: crate::LenDist::Fixed(1),
            prefix: PrefixTraffic::None,
            seed: 0,
        })
    }

    /// The scheduling view of the set: per-tenant classes and weights, by
    /// tenant index.
    pub fn sched(&self) -> TenantSched {
        TenantSched {
            classes: self.tenants.iter().map(|t| t.class).collect(),
            weights: self.tenants.iter().map(|t| t.weight).collect(),
        }
    }

    /// Splits an existing single-tenant traffic spec across `parts`
    /// tenants: each tenant inherits the base arrival shape with the
    /// request budget divided evenly (remainder to the earlier tenants)
    /// and open-loop/diurnal rates scaled by its share, seeded per tenant
    /// from the base seed. This is what `--tenants` applies to a
    /// scenario's existing traffic.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for an empty part list, a base
    /// spec the set cannot merge (closed-loop or prefix traffic), or a
    /// budget smaller than the tenant count.
    pub fn overlay(base: &TrafficSpec, parts: &[TenantPart]) -> Result<TenantSet> {
        if parts.is_empty() {
            return Err(Error::invalid_config("tenant overlay needs >= 1 tenant"));
        }
        let n = parts.len() as u64;
        if base.requests < n {
            return Err(Error::invalid_config(format!(
                "cannot split {} requests across {n} tenants",
                base.requests
            )));
        }
        let share = 1.0 / n as f64;
        let tenants = parts
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let i = i as u64;
                let requests = base.requests / n + u64::from(i < base.requests % n);
                let arrival = match &base.arrival {
                    ArrivalPattern::OpenLoop { rate_rps } => ArrivalPattern::OpenLoop {
                        rate_rps: rate_rps * share,
                    },
                    ArrivalPattern::OpenLoopSessions { rate_rps, sessions } => {
                        ArrivalPattern::OpenLoopSessions {
                            rate_rps: rate_rps * share,
                            sessions: *sessions,
                        }
                    }
                    ArrivalPattern::Diurnal {
                        peak_rps,
                        day_s,
                        burst_x,
                        bursts,
                    } => ArrivalPattern::Diurnal {
                        peak_rps: peak_rps * share,
                        day_s: *day_s,
                        burst_x: *burst_x,
                        bursts: *bursts,
                    },
                    other => other.clone(),
                };
                let traffic = TrafficSpec {
                    requests,
                    arrival,
                    prompt: base.prompt,
                    steps: base.steps,
                    prefix: base.prefix,
                    seed: mix64(base.seed, i),
                };
                TenantSpec {
                    name: p.name.clone(),
                    class: p.class,
                    weight: p.weight,
                    slo_ms: p.slo_ms.unwrap_or_else(|| p.class.default_slo_ms()),
                    traffic,
                }
            })
            .collect();
        TenantSet::new(tenants)
    }
}

/// One tenant of a `--tenants` flag: everything but the traffic, which the
/// overlay derives from the scenario's base spec.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantPart {
    /// Tenant name.
    pub name: String,
    /// Service tier.
    pub class: SloClass,
    /// Fair-share weight.
    pub weight: f64,
    /// Latency target override (class default when absent).
    pub slo_ms: Option<f64>,
}

/// Parses a `--tenants` spec: comma-separated
/// `name=class[:weight[:slo_ms]]` entries, e.g.
/// `chat=interactive:3,bulk=batch:1:250`. Weight defaults to 1. Entries
/// and `key=value` are the shared tokens of [`cimtpu_units::spec`].
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] describing the malformed entry or
/// the repeated tenant name.
pub fn parse_tenants(spec: &str) -> Result<Vec<TenantPart>> {
    let mut parts: Vec<TenantPart> = Vec::new();
    for entry in spec::entries(spec) {
        let (name, rest) = spec::key_value(entry).ok_or_else(|| {
            Error::invalid_config(format!(
                "tenant entry '{entry}' is not name=class[:weight[:slo_ms]]"
            ))
        })?;
        let mut fields = rest.split(':');
        let class = SloClass::by_name(fields.next().unwrap_or(""))?;
        let mut number = |what: &str| {
            let parse = |f: &str| {
                f.parse::<f64>().map_err(|_| {
                    Error::invalid_config(format!("tenant '{name}': bad {what} '{f}'"))
                })
            };
            fields.next().map(parse).transpose()
        };
        let weight = number("weight")?.unwrap_or(1.0);
        let slo_ms = number("slo_ms")?;
        if let Some(extra) = fields.next() {
            return Err(Error::invalid_config(format!(
                "tenant '{name}': unexpected trailing field '{extra}'"
            )));
        }
        let name = name.trim();
        if parts.iter().any(|p| p.name == name) {
            return Err(Error::invalid_config(format!(
                "duplicate tenant name '{name}'"
            )));
        }
        parts.push(TenantPart {
            name: name.to_owned(),
            class,
            weight,
            slo_ms,
        });
    }
    if parts.is_empty() {
        return Err(Error::invalid_config("empty --tenants spec"));
    }
    Ok(parts)
}

/// The scheduler's view of a tenant set: per-tenant class and weight, by
/// tenant index (what [`EngineCore::set_tenancy`](crate::EngineCore::set_tenancy)
/// consumes).
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSched {
    /// Per-tenant service tier.
    pub classes: Vec<SloClass>,
    /// Per-tenant fair-share weight (positive, finite).
    pub weights: Vec<f64>,
}

impl TenantSched {
    /// Whether the schedule has more than one tenant: the gate for
    /// tenant-tagged trace events and class-split router snapshots, so a
    /// single-tenant run stays byte-identical to an untenanted one.
    pub fn multi_tenant(&self) -> bool {
        self.classes.len() > 1
    }
}

/// One tenant's row of the per-tenant report section.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantUsage {
    /// Tenant name.
    pub name: String,
    /// Service tier.
    pub class: SloClass,
    /// Fair-share weight.
    pub weight: f64,
    /// Requests the tenant offered.
    pub offered: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests shed (retry budget exhausted under faults).
    pub shed: u64,
    /// Requests timed out past their retry deadline.
    pub timed_out: u64,
    /// KV preemptions suffered by the tenant's residents.
    pub preemptions: u64,
    /// Completions meeting the tenant's latency target, per second of
    /// fleet makespan.
    pub goodput_rps: f64,
    /// Fraction of completions at or under the tenant's `slo_ms` target
    /// (1.0 when nothing completed).
    pub slo_attainment: f64,
    /// The tenant's fraction of all generated tokens (service share).
    pub service_share: f64,
}

/// The per-tenant report section: Jain's fairness index over weighted
/// service shares plus one row per tenant. Serialized only when a run is
/// multi-tenant, so single-tenant reports stay byte-identical.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantReport {
    /// Jain's fairness index over per-tenant service per unit weight:
    /// `(Σx)² / (n·Σx²)` with `x_i = tokens_i / weight_i`; 1.0 means every
    /// tenant received service exactly proportional to its weight (and
    /// vacuously when nothing was served).
    pub fairness: f64,
    /// Per-tenant rows, in tenant-set order.
    pub tenants: Vec<TenantUsage>,
}

impl std::fmt::Display for TenantReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "tenants     fairness (Jain) {:.4}", self.fairness)?;
        for u in &self.tenants {
            writeln!(
                f,
                "  {:<12} {:<11} {}/{} done ({} shed, {} timed out), \
                 goodput {:.2} req/s, SLO {:.3}, share {:.3}, {} preemption(s)",
                u.name,
                u.class.name(),
                u.completed,
                u.offered,
                u.shed,
                u.timed_out,
                u.goodput_rps,
                u.slo_attainment,
                u.service_share,
                u.preemptions,
            )?;
        }
        Ok(())
    }
}

/// The tenant of each request of a merged trace, read from the trace's
/// own records: request `id` replays record `id`. Completions carry no
/// tenant, so this is the one id → tenant lookup. It copies nothing: it
/// borrows the records the run's arrival stream replays anyway.
#[derive(Debug, Clone, Copy)]
pub struct RequestTenants<'a>(&'a [TraceRecord]);

impl<'a> RequestTenants<'a> {
    /// The view of `spec`'s trace records.
    ///
    /// # Panics
    ///
    /// Panics if `spec` is not a trace spec (it must come from
    /// [`TenantSet::merged_spec`]).
    pub fn new(spec: &'a TrafficSpec) -> Self {
        let ArrivalPattern::Trace { records } = &spec.arrival else {
            panic!("request tenants are read from the merged trace spec")
        };
        RequestTenants(records)
    }

    /// Tenant index of request `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a request of the trace.
    pub fn of(self, id: u64) -> u32 {
        self.0[id as usize].tenant
    }
}

impl TenantReport {
    /// The per-tenant report section of a finished run of `set`, built
    /// once at its end: each tenant's offered requests and `completions`
    /// (attributed through `requests`), and the requests it had shed,
    /// timed out and preempted, as the driver's books counted them by
    /// tenant index (a missing entry counts zero).
    pub fn new(
        set: &TenantSet,
        requests: RequestTenants<'_>,
        completions: &[Completion],
        makespan_s: f64,
        shed: &[u64],
        timed_out: &[u64],
        preempted: &[u64],
    ) -> TenantReport {
        let count = |counts: &[u64], t: usize| counts.get(t).copied().unwrap_or(0);
        let n = set.tenants.len();
        let mut completed = vec![0u64; n];
        let mut met = vec![0u64; n];
        let mut tokens = vec![0u64; n];
        for c in completions {
            let t = requests.of(c.id) as usize;
            completed[t] += 1;
            tokens[t] += c.steps;
            if c.latency().get() * 1e3 <= set.tenants[t].slo_ms {
                met[t] += 1;
            }
        }
        let mut offered = vec![0u64; n];
        for r in requests.0 {
            offered[r.tenant as usize] += 1;
        }
        let total_tokens: u64 = tokens.iter().sum();
        let makespan = makespan_s.max(f64::MIN_POSITIVE);
        let tenants = (0..n)
            .map(|t| TenantUsage {
                name: set.tenants[t].name.clone(),
                class: set.tenants[t].class,
                weight: set.tenants[t].weight,
                offered: offered[t],
                completed: completed[t],
                shed: count(shed, t),
                timed_out: count(timed_out, t),
                preemptions: count(preempted, t),
                goodput_rps: met[t] as f64 / makespan,
                slo_attainment: if completed[t] == 0 {
                    1.0
                } else {
                    met[t] as f64 / completed[t] as f64
                },
                service_share: if total_tokens == 0 {
                    0.0
                } else {
                    tokens[t] as f64 / total_tokens as f64
                },
            })
            .collect();
        // Jain's index is scale-free, so each weight is first divided by a
        // power of two at or below the least weight. That division is
        // exact: ordinary weights keep the index's bits, and `tokens /
        // weight` stays finite for weights as far apart as 1e-308 and 1e308.
        let least = set
            .tenants
            .iter()
            .fold(f64::INFINITY, |a, t| a.min(t.weight));
        let unit = f64::from_bits(least.to_bits() & 0x7FF0_0000_0000_0000).max(f64::MIN_POSITIVE);
        let shares: Vec<f64> = (0..n)
            .map(|t| tokens[t] as f64 / (set.tenants[t].weight / unit))
            .collect();
        TenantReport {
            fairness: jain(&shares),
            tenants,
        }
    }
}

/// Jain's fairness index `(Σx)² / (n·Σx²)`: 1.0 for perfectly even
/// allocations (and vacuously for an all-zero or empty one), approaching
/// `1/n` as one participant monopolizes.
pub(crate) fn jain(shares: &[f64]) -> f64 {
    let sum: f64 = shares.iter().sum();
    let sq: f64 = shares.iter().map(|x| x * x).sum();
    if sq == 0.0 || shares.is_empty() {
        return 1.0;
    }
    sum * sum / (shares.len() as f64 * sq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LenDist;

    fn traffic(requests: u64, rate: f64, steps: u64, seed: u64) -> TrafficSpec {
        TrafficSpec {
            requests,
            arrival: ArrivalPattern::OpenLoop { rate_rps: rate },
            prompt: LenDist::Fixed(16),
            steps: LenDist::Fixed(steps),
            prefix: PrefixTraffic::None,
            seed,
        }
    }

    fn two_tenants() -> TenantSet {
        TenantSet::new(vec![
            TenantSpec::new("chat", SloClass::Interactive, 1.0, traffic(6, 100.0, 4, 1)),
            TenantSpec::new("bulk", SloClass::Batch, 1.0, traffic(3, 50.0, 8, 2)),
        ])
        .unwrap()
    }

    #[test]
    fn merged_spec_interleaves_sorts_and_reids() {
        let spec = two_tenants().merged_spec().unwrap();
        assert_eq!(spec.requests, 9);
        let reqs = spec.generate();
        assert!(reqs.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
        assert!(reqs.iter().enumerate().all(|(i, r)| r.id == i as u64));
        assert_eq!(reqs.iter().filter(|r| r.tenant == 0).count(), 6);
        assert_eq!(reqs.iter().filter(|r| r.tenant == 1).count(), 3);
        assert!(reqs
            .iter()
            .all(|r| (r.tenant == 0) == (r.class == SloClass::Interactive)));
        // Sessions are salted per tenant: no collisions across tenants.
        let s0: Vec<u64> = reqs
            .iter()
            .filter(|r| r.tenant == 0)
            .map(|r| r.session)
            .collect();
        assert!(reqs
            .iter()
            .filter(|r| r.tenant == 1)
            .all(|r| !s0.contains(&r.session)));
        // Merging is deterministic.
        assert_eq!(
            spec.generate(),
            two_tenants().merged_spec().unwrap().generate()
        );
    }

    #[test]
    fn with_seed_reseeds_every_tenant() {
        let a = two_tenants().with_seed(7);
        let b = two_tenants().with_seed(7);
        let c = two_tenants().with_seed(8);
        assert_eq!(
            a.merged_spec().unwrap().generate(),
            b.merged_spec().unwrap().generate()
        );
        assert_ne!(
            a.merged_spec().unwrap().generate(),
            c.merged_spec().unwrap().generate()
        );
        assert_ne!(a.tenants[0].traffic.seed, a.tenants[1].traffic.seed);
    }

    #[test]
    fn validation_rejects_bad_sets() {
        assert!(TenantSet::new(vec![]).is_err());
        let t = |name: &str| TenantSpec::new(name, SloClass::Standard, 1.0, traffic(2, 10.0, 4, 1));
        assert!(TenantSet::new(vec![t("a"), t("a")]).is_err());
        let mut neg = t("a");
        neg.weight = -1.0;
        assert!(TenantSet::new(vec![neg]).is_err());
        let mut closed = t("a");
        closed.traffic.arrival = ArrivalPattern::ClosedLoop {
            clients: 1,
            think_ms: 1.0,
        };
        assert!(TenantSet::new(vec![closed]).is_err());
        let mut prefixed = t("a");
        prefixed.traffic.prefix = PrefixTraffic::SharedHead {
            tokens: 8,
            groups: 2,
        };
        assert!(TenantSet::new(vec![prefixed]).is_err());
    }

    #[test]
    fn parse_tenants_grammar() {
        let parts = parse_tenants("chat=interactive:3,bulk=batch:1:250").unwrap();
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].name, "chat");
        assert_eq!(parts[0].class, SloClass::Interactive);
        assert_eq!(parts[0].weight, 3.0);
        assert_eq!(parts[0].slo_ms, None);
        assert_eq!(parts[1].class, SloClass::Batch);
        assert_eq!(parts[1].slo_ms, Some(250.0));
        assert_eq!(
            parse_tenants("solo=standard").unwrap()[0],
            TenantPart {
                name: "solo".into(),
                class: SloClass::Standard,
                weight: 1.0,
                slo_ms: None
            }
        );
        assert!(parse_tenants("").is_err());
        assert!(parse_tenants("noclass").is_err());
        assert!(parse_tenants("a=warp").is_err());
        assert!(parse_tenants("a=batch:x").is_err());
        assert!(parse_tenants("a=batch:1:2:3").is_err());
        let err = parse_tenants("a=batch, a =interactive")
            .unwrap_err()
            .to_string();
        assert!(err.contains("duplicate tenant name 'a'"), "{err}");
    }

    #[test]
    fn overlay_splits_budget_and_rate() {
        let base = traffic(7, 100.0, 4, 9);
        let parts = parse_tenants("a=interactive:2,b=batch").unwrap();
        let set = TenantSet::overlay(&base, &parts).unwrap();
        assert_eq!(set.tenants[0].traffic.requests, 4);
        assert_eq!(set.tenants[1].traffic.requests, 3);
        for t in &set.tenants {
            let ArrivalPattern::OpenLoop { rate_rps } = t.traffic.arrival else {
                panic!("overlay keeps the open-loop shape")
            };
            assert!((rate_rps - 50.0).abs() < 1e-12);
        }
        assert_ne!(set.tenants[0].traffic.seed, set.tenants[1].traffic.seed);
        assert!(TenantSet::overlay(&traffic(1, 1.0, 1, 0), &parts).is_err());
    }

    #[test]
    fn report_conserves_and_is_fair() {
        let set = two_tenants();
        let spec = set.merged_spec().unwrap();
        let reqs = spec.generate();
        // Complete everything instantly: full attainment, shares ∝ tokens.
        let completions: Vec<Completion> = reqs
            .iter()
            .map(|r| Completion {
                id: r.id,
                arrival: r.arrival(),
                first_token: r.arrival(),
                finish: r.arrival(),
                steps: r.steps,
            })
            .collect();
        let requests = RequestTenants::new(&spec);
        let report = TenantReport::new(&set, requests, &completions, 1.0, &[], &[], &[0, 2]);
        assert_eq!(report.tenants.len(), 2);
        for row in &report.tenants {
            assert_eq!(row.offered, row.completed + row.shed + row.timed_out);
            assert_eq!(row.slo_attainment, 1.0);
        }
        assert_eq!(report.tenants[1].preemptions, 2);
        // 6×4 = 24 tokens vs 3×8 = 24 tokens at equal weights: perfectly
        // fair.
        assert!((report.fairness - 1.0).abs() < 1e-12);
        let share: f64 = report.tenants.iter().map(|t| t.service_share).sum();
        assert!((share - 1.0).abs() < 1e-12);
    }

    /// Fairness stays finite for every pair of weights the parser and
    /// validation accept, however far apart, and for ordinary weights it
    /// keeps the bits of `jain` over plain `tokens / weight` shares.
    #[test]
    fn fairness_is_finite_for_extreme_weights() {
        let set = two_tenants();
        let spec = set.merged_spec().unwrap();
        let reqs = spec.generate();
        let done = |r: &crate::Request| Completion {
            id: r.id,
            arrival: r.arrival(),
            first_token: r.arrival(),
            finish: r.arrival(),
            steps: r.steps,
        };
        let completions: Vec<Completion> = reqs.iter().map(done).collect();
        let fairness = |weights: [f64; 2]| {
            let mut set = set.clone();
            for (t, w) in set.tenants.iter_mut().zip(weights) {
                t.weight = w;
            }
            set.validate().unwrap();
            let requests = RequestTenants::new(&spec);
            TenantReport::new(&set, requests, &completions, 1.0, &[], &[], &[]).fairness
        };
        let extremes = [
            [1e308, 1e-308],
            [f64::MAX, f64::MIN_POSITIVE],
            [5e-324, 1.0],
            [5e-324, f64::MAX],
            [1e-320, 1e-320],
        ];
        for weights in extremes {
            let f = fairness(weights);
            assert!(
                f.is_finite() && (0.5..=1.0 + 1e-12).contains(&f),
                "{weights:?}: {f}"
            );
        }
        // 24 tokens each (see above): shares 24/w.
        for weights in [[3.0, 0.7], [1e-9, 1e9], [0.1, 0.3], [1.0, 1.0]] {
            let plain = jain(&[24.0 / weights[0], 24.0 / weights[1]]);
            assert_eq!(fairness(weights).to_bits(), plain.to_bits(), "{weights:?}");
        }
    }

    #[test]
    fn jain_index_bounds() {
        assert_eq!(jain(&[]), 1.0);
        assert_eq!(jain(&[0.0, 0.0]), 1.0);
        assert!((jain(&[3.0, 3.0, 3.0]) - 1.0).abs() < 1e-12);
        assert!((jain(&[1.0, 0.0, 0.0]) - 1.0 / 3.0).abs() < 1e-12);
        assert!(jain(&[5.0, 1.0]) < 1.0);
    }
}
