//! Fleet-level metrics: per-replica utilization and the aggregate
//! [`ClusterReport`].

use serde::{Deserialize, Serialize};

use cimtpu_autoscale::ScalingStats;
use cimtpu_serving::{
    Completion, CompletionStats, EngineCore, LatencyStats, PrefixStats, TenantReport,
};
use cimtpu_units::{Joules, Seconds};

use crate::fault::AvailabilityStats;
use crate::replica::ReplicaSpec;

/// KV-cache handoff traffic over the cluster interconnect (disaggregated
/// prefill→decode transfers; all-zero for colocated fleets).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub(crate) struct KvTransferStats {
    /// Completed handoffs.
    pub transfers: u64,
    /// Total bytes moved (block-aligned paged footprints).
    pub bytes: u64,
    /// Total link-busy time, in seconds.
    pub seconds: f64,
    /// Total link energy, in joules.
    pub energy_j: f64,
}

impl KvTransferStats {
    /// Records one handoff.
    pub(crate) fn record(&mut self, bytes: u64, duration: Seconds, energy: Joules) {
        self.transfers += 1;
        self.bytes += bytes;
        self.seconds += duration.get();
        self.energy_j += energy.get();
    }
}

/// Wall-clock driver-throughput record for one scenario run — what
/// `--perf-json PATH` writes and the perf-smoke CI check reads.
///
/// Everything here is measured against the **host clock**, not simulated
/// time: `requests_per_second` is how fast the discrete-event driver
/// chews through offered requests on this machine. Wall times vary
/// across machines, so these records are never committed and never part
/// of the byte-diffed `BENCH_cluster.json` baseline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfRecord {
    /// Scenario / run label.
    pub label: String,
    /// Requests offered by the traffic spec.
    pub offered: u64,
    /// Requests completed.
    pub completed: u64,
    /// Generation steps simulated.
    pub steps: u64,
    /// Host wall-clock time the run took, in seconds.
    pub wall_s: f64,
    /// Completed requests per wall-clock second.
    pub requests_per_second: f64,
    /// Generation steps per wall-clock second.
    pub steps_per_second: f64,
}

impl PerfRecord {
    /// Builds the record from a finished run's completions and the
    /// driver's measured wall time.
    pub fn measure(label: &str, offered: u64, completions: &[Completion], wall_s: f64) -> Self {
        let wall = wall_s.max(f64::MIN_POSITIVE);
        let steps: u64 = completions.iter().map(|c| c.steps).sum();
        PerfRecord {
            label: label.to_owned(),
            offered,
            completed: completions.len() as u64,
            steps,
            wall_s,
            requests_per_second: completions.len() as f64 / wall,
            steps_per_second: steps as f64 / wall,
        }
    }
}

/// Per-replica counters accumulated across incarnations: a restart or a
/// boot replaces the replica's core, so its history is harvested when the
/// core is replaced (or the run ends) and the next core starts afresh.
#[derive(Default)]
pub(crate) struct ReplicaAccum {
    pub(crate) busy_s: f64,
    pub(crate) energy_j: f64,
    pub(crate) preemptions: u64,
    pub(crate) queue_full_s: f64,
    pub(crate) kv_hwm: f64,
    pub(crate) prefix: PrefixStats,
    /// Preemptions by tenant index.
    pub(crate) tenant_preemptions: Vec<u64>,
}

impl ReplicaAccum {
    /// Folds a replaced or final core's counters into the books.
    pub(crate) fn harvest(&mut self, core: &EngineCore<'_>) {
        let memory = core.memory_stats();
        self.busy_s += core.busy().get();
        self.energy_j += core.energy().get();
        self.preemptions += memory.preemptions;
        self.queue_full_s += memory.queue_full_s;
        self.kv_hwm = self.kv_hwm.max(memory.kv_hwm_frac);
        self.prefix.absorb(&core.prefix_stats());
        add_by_tenant(&mut self.tenant_preemptions, core.tenant_preemptions());
    }
}

/// Adds per-tenant counts `from` into `into`, growing it as needed.
fn add_by_tenant(into: &mut Vec<u64>, from: &[u64]) {
    if into.len() < from.len() {
        into.resize(from.len(), 0);
    }
    for (sum, n) in into.iter_mut().zip(from) {
        *sum += n;
    }
}

/// Fleet-wide sums over a fleet's report rows.
#[derive(Default)]
pub(crate) struct FleetTotals {
    pub(crate) chip_energy: Joules,
    pub(crate) preemptions: u64,
    /// Preemptions by tenant index.
    pub(crate) tenant_preemptions: Vec<u64>,
    pub(crate) queue_full_s: f64,
    pub(crate) prefix: PrefixStats,
    /// KV handoffs over the interconnect (disaggregated fleets only).
    pub(crate) transfers: KvTransferStats,
}

impl FleetTotals {
    /// Adds replica `spec`'s books (`requests` served in `role`) to the
    /// sums and returns its report row.
    pub(crate) fn row(
        &mut self,
        spec: &ReplicaSpec,
        a: &ReplicaAccum,
        requests: u64,
        role: &str,
    ) -> ReplicaUtilization {
        self.chip_energy += Joules::new(a.energy_j);
        self.preemptions += a.preemptions;
        add_by_tenant(&mut self.tenant_preemptions, &a.tenant_preemptions);
        self.queue_full_s += a.queue_full_s;
        self.prefix.absorb(&a.prefix);
        ReplicaUtilization {
            name: spec.name.clone(),
            model: spec.model.name().to_owned(),
            role: role.to_owned(),
            chips: spec.chips(),
            requests,
            busy_s: a.busy_s,
            utilization: 0.0, // filled against the fleet makespan
            energy_j: a.energy_j,
            kv_hwm_frac: a.kv_hwm,
        }
    }
}

/// One replica's row in the fleet report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplicaUtilization {
    /// Replica name.
    pub name: String,
    /// Hosted model name.
    pub model: String,
    /// Role in the topology: `serve` (colocated), `prefill`, or `decode`.
    pub role: String,
    /// Physical chips.
    pub chips: u64,
    /// Requests this replica served (prefills for a prefill replica,
    /// completions otherwise).
    pub requests: u64,
    /// Time spent computing (priced segment latency), in seconds.
    pub busy_s: f64,
    /// `busy_s` over the fleet makespan.
    pub utilization: f64,
    /// Chip energy, in joules.
    pub energy_j: f64,
    /// KV occupancy high-water mark (fraction of capacity; 0 unlimited).
    pub kv_hwm_frac: f64,
}

/// Aggregate outcome of one cluster simulation.
///
/// # JSON stability
///
/// Like `ServingReport`, serialization follows struct declaration order —
/// the committed `BENCH_cluster.json` baseline is diffed byte-for-byte in
/// CI, so field changes require regenerating the baseline in the same
/// commit (a unit test pins the key order). The optional sections
/// (`availability`, `scaling`, `timeseries`, `tenants`) are **omitted
/// entirely** when absent (`skip_serializing_if`), not written as `null`
/// into every pre-existing baseline entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterReport {
    /// Scenario / run label.
    pub label: String,
    /// Topology kind: `colocated` or `disaggregated`.
    pub topology: String,
    /// Router name (for disaggregated fleets, `prefill→decode` pair).
    pub router: String,
    /// Replica groups in the fleet.
    pub replicas: u64,
    /// Physical chips across all replicas.
    pub chips: u64,
    /// Requests offered by the traffic spec.
    pub offered: u64,
    /// Requests completed (always equals `offered`: the trace is finite).
    pub completed: u64,
    /// Time from the first arrival to the last completion, in seconds.
    pub makespan_s: f64,
    /// Completed requests per second of makespan.
    pub throughput_rps: f64,
    /// Completed requests meeting the latency SLO per second of makespan
    /// (equals `throughput_rps` when no SLO is set).
    pub goodput_rps: f64,
    /// The latency SLO `goodput_rps` was computed against (0 = none).
    pub slo_ms: f64,
    /// Generation steps (tokens / diffusion steps) per second of makespan.
    pub steps_per_second: f64,
    /// End-to-end request latency distribution across the fleet.
    pub latency: LatencyStats,
    /// Time-to-first-token distribution across the fleet.
    pub ttft: LatencyStats,
    /// Total energy: every replica's chips plus interconnect transfers.
    pub total_energy_j: f64,
    /// Mean energy per completed request.
    pub energy_per_request_j: f64,
    /// Requests evicted to free KV blocks, summed over replicas.
    pub preemptions: u64,
    /// Time ready requests spent blocked on KV capacity, summed, seconds.
    pub queue_full_s: f64,
    /// KV-cache handoffs over the interconnect.
    pub kv_transfers: u64,
    /// Bytes of KV cache moved over the interconnect.
    pub kv_transfer_bytes: u64,
    /// Interconnect link-busy time, in seconds.
    pub kv_transfer_s: f64,
    /// Interconnect transfer energy, in joules.
    pub kv_transfer_energy_j: f64,
    /// Busiest replica's busy time over the mean busy time (1.0 =
    /// perfectly balanced; 0 if nothing ran).
    pub imbalance: f64,
    /// Per-replica utilization rows, in replica order.
    pub per_replica: Vec<ReplicaUtilization>,
    /// Availability/robustness section — present only for runs under a
    /// non-empty fault plan (zero-fault baselines omit the key).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub availability: Option<AvailabilityStats>,
    /// Scaling section — present only for runs under an autoscale policy
    /// (plain fleet runs omit the key, keeping old baselines byte-stable).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub scaling: Option<ScalingStats>,
    /// Streaming-telemetry section — present only for traced runs (a
    /// recorder was attached); recorder-off runs omit the key so every
    /// pre-existing baseline entry stays byte-identical.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub timeseries: Option<cimtpu_obs::TimeseriesStats>,
    /// Per-tenant section — present only for runs offered a
    /// [`TenantSet`](crate::TenantSet) ([`ClusterEngine::run`](crate::ClusterEngine::run));
    /// single-tenant runs omit the key so every pre-existing baseline
    /// entry stays byte-identical.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub tenants: Option<TenantReport>,
}

impl ClusterReport {
    /// Builds the fleet aggregate from completed requests, the fleet-wide
    /// sums, and per-replica rows (whose `utilization` is filled in here,
    /// against the fleet makespan).
    ///
    /// `completions` may be empty under a fault plan (every request shed
    /// or timed out): latency sections report zeros and the rate fields
    /// fall back to a degenerate makespan.
    #[allow(clippy::too_many_arguments)] // one construction site per topology
    pub(crate) fn build(
        label: &str,
        topology: &str,
        router: String,
        offered: u64,
        completions: &[Completion],
        totals: &FleetTotals,
        mut per_replica: Vec<ReplicaUtilization>,
        slo_ms: Option<f64>,
        availability: Option<AvailabilityStats>,
    ) -> Self {
        let stats = CompletionStats::of(completions, slo_ms);
        let makespan = stats.makespan_s;
        for row in &mut per_replica {
            row.utilization = row.busy_s / makespan;
        }
        let busy: Vec<f64> = per_replica.iter().map(|r| r.busy_s).collect();
        let mean_busy = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
        let imbalance = if mean_busy > 0.0 {
            busy.iter().copied().fold(0.0, f64::max) / mean_busy
        } else {
            0.0
        };
        let (chip_energy, transfers) = (totals.chip_energy, totals.transfers);
        let total_energy = chip_energy.get() + transfers.energy_j;
        ClusterReport {
            label: label.to_owned(),
            topology: topology.to_owned(),
            router,
            replicas: per_replica.len() as u64,
            chips: per_replica.iter().map(|r| r.chips).sum(),
            offered,
            completed: completions.len() as u64,
            makespan_s: makespan,
            throughput_rps: completions.len() as f64 / makespan,
            goodput_rps: stats.good as f64 / makespan,
            slo_ms: slo_ms.unwrap_or(0.0),
            steps_per_second: stats.steps as f64 / makespan,
            latency: stats.latency,
            ttft: stats.ttft,
            total_energy_j: total_energy,
            energy_per_request_j: if completions.is_empty() {
                0.0
            } else {
                total_energy / completions.len() as f64
            },
            preemptions: totals.preemptions,
            queue_full_s: totals.queue_full_s,
            kv_transfers: transfers.transfers,
            kv_transfer_bytes: transfers.bytes,
            kv_transfer_s: transfers.seconds,
            kv_transfer_energy_j: transfers.energy_j,
            imbalance,
            per_replica,
            availability,
            scaling: None,
            timeseries: None,
            tenants: None,
        }
    }
}

impl std::fmt::Display for ClusterReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "== {} [{} fleet, {} replica(s) / {} chip(s), {} router] ==",
            self.label, self.topology, self.replicas, self.chips, self.router
        )?;
        writeln!(
            f,
            "completed {}/{} in {:.3} s  ({:.2} req/s, {:.2} good req/s, {:.1} steps/s)",
            self.completed,
            self.offered,
            self.makespan_s,
            self.throughput_rps,
            self.goodput_rps,
            self.steps_per_second
        )?;
        writeln!(
            f,
            "latency ms  p50 {:.3}  p95 {:.3}  p99 {:.3}  mean {:.3}  max {:.3}",
            self.latency.p50_ms,
            self.latency.p95_ms,
            self.latency.p99_ms,
            self.latency.mean_ms,
            self.latency.max_ms
        )?;
        writeln!(
            f,
            "ttft ms     p50 {:.3}  p95 {:.3}  p99 {:.3}  mean {:.3}  max {:.3}",
            self.ttft.p50_ms,
            self.ttft.p95_ms,
            self.ttft.p99_ms,
            self.ttft.mean_ms,
            self.ttft.max_ms
        )?;
        writeln!(
            f,
            "energy      {:.4} J total, {:.4} J/request  |  kv {} preemption(s), {:.4} s queue-full",
            self.total_energy_j, self.energy_per_request_j, self.preemptions, self.queue_full_s
        )?;
        writeln!(
            f,
            "kv handoff  {} transfer(s), {} bytes, {:.6} s on the wire, {:.6} J  |  imbalance {:.3}",
            self.kv_transfers,
            self.kv_transfer_bytes,
            self.kv_transfer_s,
            self.kv_transfer_energy_j,
            self.imbalance
        )?;
        if let Some(a) = &self.availability {
            writeln!(
                f,
                "faults      {} crash(es), availability {:.4}, {:.3} s down  |  \
                 {} retry(ies) ({} ok), {} shed, {} timed out",
                a.crashes,
                a.availability,
                a.downtime_s,
                a.retries,
                a.retried_ok,
                a.shed,
                a.timed_out
            )?;
        }
        if let Some(s) = &self.scaling {
            writeln!(
                f,
                "scaling     {} reconcile(s): {} scale-up, {} scale-down ({} to zero), \
                 {} swap(s)  |  peak {} replica(s), {:.3} chip-s, cost {:.4} J \
                 ({:.4} J idle), {} ramp SLO miss(es)",
                s.reconciles,
                s.scale_ups,
                s.scale_downs,
                s.scale_to_zero,
                s.swaps,
                s.peak_replicas,
                s.chip_seconds,
                s.total_cost_j,
                s.idle_energy_j,
                s.slo_violations_ramp
            )?;
        }
        if let Some(ts) = &self.timeseries {
            writeln!(
                f,
                "telemetry   latency p50 {:.3} / p99 {:.3} ms (~{} sample(s), {} bucket(s))  |  \
                 {} gauge series @ {:.4} s",
                ts.latency_ms.p50,
                ts.latency_ms.p99,
                ts.latency_ms.count,
                ts.latency_ms.buckets,
                ts.gauges.len(),
                ts.interval_s
            )?;
        }
        if let Some(tenants) = &self.tenants {
            write!(f, "{tenants}")?;
        }
        for r in &self.per_replica {
            writeln!(
                f,
                "  {:<16} {:<8} {:<18} {} chip(s)  {:>5} req  busy {:.3} s  util {:.1}%  \
                 {:.4} J  kv hwm {:.1}%",
                r.name,
                r.role,
                r.model,
                r.chips,
                r.requests,
                r.busy_s,
                r.utilization * 100.0,
                r.energy_j,
                r.kv_hwm_frac * 100.0
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(id: u64, arrival: f64, first: f64, finish: f64) -> Completion {
        Completion {
            id,
            arrival: Seconds::new(arrival),
            first_token: Seconds::new(first),
            finish: Seconds::new(finish),
            steps: 10,
        }
    }

    fn row(name: &str, busy_s: f64) -> ReplicaUtilization {
        ReplicaUtilization {
            name: name.to_owned(),
            model: "m".to_owned(),
            role: "serve".to_owned(),
            chips: 1,
            requests: 1,
            busy_s,
            utilization: 0.0,
            energy_j: 1.0,
            kv_hwm_frac: 0.0,
        }
    }

    fn build(slo_ms: Option<f64>) -> ClusterReport {
        ClusterReport::build(
            "t",
            "colocated",
            "round-robin".to_owned(),
            2,
            &[c(0, 0.0, 0.5, 1.0), c(1, 0.0, 1.5, 4.0)],
            &FleetTotals {
                chip_energy: Joules::new(8.0),
                preemptions: 1,
                queue_full_s: 0.25,
                ..FleetTotals::default()
            },
            vec![row("a", 3.0), row("b", 1.0)],
            slo_ms,
            None,
        )
    }

    #[test]
    fn aggregates_and_utilization() {
        let rep = build(None);
        assert_eq!(rep.completed, 2);
        assert_eq!(rep.chips, 2);
        assert_eq!(rep.makespan_s, 4.0);
        assert_eq!(rep.goodput_rps, rep.throughput_rps);
        assert_eq!(rep.slo_ms, 0.0);
        assert!((rep.per_replica[0].utilization - 0.75).abs() < 1e-12);
        // max busy 3.0 over mean 2.0.
        assert!((rep.imbalance - 1.5).abs() < 1e-12);
        assert_eq!(rep.total_energy_j, 8.0);
        let text = rep.to_string();
        assert!(text.contains("kv handoff"), "{text}");
        assert!(text.contains("imbalance"), "{text}");
    }

    #[test]
    fn slo_splits_goodput_from_throughput() {
        // Request 1's latency is 4 s: a 2000 ms SLO drops it.
        let rep = build(Some(2000.0));
        assert_eq!(rep.slo_ms, 2000.0);
        assert!(
            (rep.goodput_rps - 0.25).abs() < 1e-12,
            "{}",
            rep.goodput_rps
        );
        assert!((rep.throughput_rps - 0.5).abs() < 1e-12);
    }

    #[test]
    fn transfer_stats_accumulate() {
        let mut t = KvTransferStats::default();
        t.record(100, Seconds::new(0.5), Joules::new(0.1));
        t.record(50, Seconds::new(0.25), Joules::new(0.05));
        assert_eq!(t.transfers, 2);
        assert_eq!(t.bytes, 150);
        assert!((t.seconds - 0.75).abs() < 1e-12);
        assert!((t.energy_j - 0.15).abs() < 1e-12);
    }

    #[test]
    fn json_field_order_is_declaration_order() {
        // BENCH_cluster.json is diffed byte-for-byte in CI: serialization
        // must follow struct declaration order. A failure here means the
        // baseline format changed — regenerate it deliberately.
        let json = serde_json::to_string(&build(None)).unwrap();
        let keys = [
            "\"label\"",
            "\"topology\"",
            "\"router\"",
            "\"replicas\"",
            "\"chips\"",
            "\"offered\"",
            "\"completed\"",
            "\"makespan_s\"",
            "\"throughput_rps\"",
            "\"goodput_rps\"",
            "\"slo_ms\"",
            "\"steps_per_second\"",
            "\"latency\"",
            "\"ttft\"",
            "\"total_energy_j\"",
            "\"energy_per_request_j\"",
            "\"preemptions\"",
            "\"queue_full_s\"",
            "\"kv_transfers\"",
            "\"kv_transfer_bytes\"",
            "\"kv_transfer_s\"",
            "\"kv_transfer_energy_j\"",
            "\"imbalance\"",
            "\"per_replica\"",
        ];
        let positions: Vec<usize> = keys
            .iter()
            .map(|k| {
                json.find(k)
                    .unwrap_or_else(|| panic!("{k} missing from {json}"))
            })
            .collect();
        assert!(
            positions.windows(2).all(|w| w[0] < w[1]),
            "field order drifted: {json}"
        );
    }

    #[test]
    fn availability_key_is_omitted_without_a_fault_plan() {
        // Pre-existing BENCH entries must stay byte-identical: a zero-fault
        // report must not even mention availability (no `null`).
        let json = serde_json::to_string(&build(None)).unwrap();
        assert!(!json.contains("availability"), "{json}");
    }

    #[test]
    fn scaling_key_is_omitted_without_an_autoscale_policy() {
        // Same byte-stability contract as availability: a plain fleet run
        // must not even mention scaling (no `null`).
        let json = serde_json::to_string(&build(None)).unwrap();
        assert!(!json.contains("scaling"), "{json}");
    }

    #[test]
    fn scaling_section_serializes_after_availability_and_round_trips() {
        let mut rep = build(None);
        rep.scaling = Some(ScalingStats {
            reconciles: 10,
            scale_ups: 3,
            scale_downs: 2,
            scale_to_zero: 1,
            ..ScalingStats::default()
        });
        let json = serde_json::to_string(&rep).unwrap();
        let scaling = json.find("\"scaling\"").expect("scaling key");
        let per_replica = json.find("\"per_replica\"").expect("per_replica key");
        assert!(
            scaling > per_replica,
            "scaling must trail per_replica: {json}"
        );
        let back: ClusterReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rep);
        // Both trailing optionals together: availability first, then scaling.
        rep.availability = Some(AvailabilityStats {
            crashes: 0,
            downtime_s: 0.0,
            availability: 1.0,
            retries: 0,
            retried_ok: 0,
            shed: 0,
            timed_out: 0,
            time_to_recover_s: vec![],
        });
        let json = serde_json::to_string(&rep).unwrap();
        let avail = json.find("\"availability\"").expect("availability key");
        let scaling = json.find("\"scaling\"").expect("scaling key");
        assert!(avail < scaling, "{json}");
        let text = rep.to_string();
        assert!(
            text.contains("3 scale-up, 2 scale-down (1 to zero)"),
            "{text}"
        );
    }

    #[test]
    fn timeseries_key_is_omitted_without_a_recorder() {
        // Recorder-off runs must leave every BENCH entry byte-identical:
        // no `"timeseries": null`.
        let json = serde_json::to_string(&build(None)).unwrap();
        assert!(!json.contains("timeseries"), "{json}");
    }

    #[test]
    fn timeseries_section_serializes_last_and_round_trips() {
        let mut rep = build(None);
        rep.scaling = Some(ScalingStats::default());
        rep.timeseries = Some(cimtpu_obs::Recorder::new().timeseries());
        let json = serde_json::to_string(&rep).unwrap();
        let scaling = json.find("\"scaling\"").expect("scaling key");
        let ts = json.find("\"timeseries\"").expect("timeseries key");
        assert!(scaling < ts, "timeseries must be the last key: {json}");
        let back: ClusterReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rep);
        let text = rep.to_string();
        assert!(text.contains("telemetry"), "{text}");
    }

    #[test]
    fn availability_section_serializes_last_and_round_trips() {
        let mut rep = build(None);
        rep.availability = Some(AvailabilityStats {
            crashes: 1,
            downtime_s: 0.5,
            availability: 0.875,
            retries: 2,
            retried_ok: 2,
            shed: 0,
            timed_out: 0,
            time_to_recover_s: vec![0.5],
        });
        let json = serde_json::to_string(&rep).unwrap();
        let avail = json.find("\"availability\"").expect("availability key");
        let per_replica = json.find("\"per_replica\"").expect("per_replica key");
        assert!(
            avail > per_replica,
            "availability must be the last key: {json}"
        );
        let text = rep.to_string();
        assert!(text.contains("1 crash(es)"), "{text}");
        let back: ClusterReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rep);
    }

    #[test]
    fn tenants_key_is_omitted_for_single_tenant_runs() {
        // Same byte-stability contract as availability/scaling: a run
        // without tenancy must not even mention tenants (no `null`).
        let json = serde_json::to_string(&build(None)).unwrap();
        assert!(!json.contains("tenants"), "{json}");
    }

    #[test]
    fn tenants_section_serializes_last_and_round_trips() {
        use cimtpu_serving::{SloClass, TenantUsage};
        let mut rep = build(None);
        rep.timeseries = Some(cimtpu_obs::Recorder::new().timeseries());
        rep.tenants = Some(TenantReport {
            fairness: 0.975,
            tenants: vec![TenantUsage {
                name: "chat".to_owned(),
                class: SloClass::Interactive,
                weight: 2.0,
                offered: 4,
                completed: 3,
                shed: 1,
                timed_out: 0,
                preemptions: 2,
                goodput_rps: 1.5,
                slo_attainment: 1.0,
                service_share: 0.5,
            }],
        });
        let json = serde_json::to_string(&rep).unwrap();
        let ts = json.find("\"timeseries\"").expect("timeseries key");
        let tenants = json.find("\"tenants\"").expect("tenants key");
        assert!(ts < tenants, "tenants must be the last key: {json}");
        let back: ClusterReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rep);
        let text = rep.to_string();
        assert!(text.contains("fairness (Jain)"), "{text}");
        assert!(text.contains("chat"), "{text}");
    }

    #[test]
    fn perf_record_measures_wall_rates() {
        let rec = PerfRecord::measure("t", 3, &[c(0, 0.0, 0.5, 1.0), c(1, 0.0, 1.5, 4.0)], 0.5);
        assert_eq!(rec.offered, 3);
        assert_eq!(rec.completed, 2);
        assert_eq!(rec.steps, 20);
        assert!((rec.requests_per_second - 4.0).abs() < 1e-12);
        assert!((rec.steps_per_second - 40.0).abs() < 1e-12);
        // Degenerate wall times stay finite.
        assert!(PerfRecord::measure("t", 0, &[], 0.0)
            .requests_per_second
            .is_finite());
        let json = serde_json::to_string(&rec).unwrap();
        let back: PerfRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn empty_completions_yield_a_zeroed_report() {
        // Under a fault plan every request can be shed: the report must
        // still build (zero latency sections, no NaN rates).
        let rep = ClusterReport::build(
            "t",
            "colocated",
            "round-robin".to_owned(),
            2,
            &[],
            &FleetTotals {
                chip_energy: Joules::new(8.0),
                ..FleetTotals::default()
            },
            vec![row("a", 0.0)],
            None,
            None,
        );
        assert_eq!(rep.completed, 0);
        assert_eq!(rep.latency, LatencyStats::ZERO);
        assert_eq!(rep.energy_per_request_j, 0.0);
        assert!(rep.throughput_rps.is_finite());
    }
}
