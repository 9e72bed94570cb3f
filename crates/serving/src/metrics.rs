//! Serving metrics: completions, latency percentiles, throughput.

use serde::{Deserialize, Serialize};

use cimtpu_units::{Joules, Seconds};

use crate::tenant::TenantReport;

/// The lifecycle record of one completed request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Completion {
    /// The request id.
    pub id: u64,
    /// When the request arrived.
    pub arrival: Seconds,
    /// When its first token (LLM) or first denoised step (DiT) was ready
    /// — the end of its prefill, or of its first step for DiT.
    pub first_token: Seconds,
    /// When its last generation step finished.
    pub finish: Seconds,
    /// Generation steps executed.
    pub steps: u64,
}

impl Completion {
    /// End-to-end request latency (arrival to last token).
    pub fn latency(&self) -> Seconds {
        self.finish - self.arrival
    }

    /// Time to first token.
    pub fn ttft(&self) -> Seconds {
        self.first_token - self.arrival
    }

    /// The span `completions` cover, as `(first arrival, last finish,
    /// makespan)`. The last finish folds up from zero and the first
    /// arrival down from the last finish; the makespan in seconds is
    /// floored at the smallest positive `f64`, so rates over it stay
    /// finite.
    pub fn span(completions: &[Completion]) -> (Seconds, Seconds, f64) {
        let finish = completions
            .iter()
            .map(|c| c.finish)
            .fold(Seconds::ZERO, Seconds::max);
        let first_arrival = completions
            .iter()
            .map(|c| c.arrival)
            .fold(finish, Seconds::min);
        let makespan = (finish - first_arrival).get().max(f64::MIN_POSITIVE);
        (first_arrival, finish, makespan)
    }
}

/// Latency distribution summary, in milliseconds.
///
/// Percentiles are *exact* nearest-rank values in [`f64::total_cmp`]
/// order, picked by in-place selection over the caller's own sample
/// buffer: expected O(n) time and no memory beyond that buffer. The
/// values are bit-identical to sorting the buffer and indexing it, since
/// the value at a rank is fixed by the total order. The mean is summed in
/// sample order, before selection reorders the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyStats {
    /// Median.
    pub p50_ms: f64,
    /// 95th percentile.
    pub p95_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
    /// Arithmetic mean.
    pub mean_ms: f64,
    /// Maximum.
    pub max_ms: f64,
}

/// The 1-based nearest rank for quantile `q` over `n` samples:
/// `ceil(q * n)` clamped to `[1, n]`.
fn nearest_rank(q: f64, n: usize) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

impl LatencyStats {
    /// The all-zero summary — the only sensible summary of an empty
    /// sample set (a fault scenario can shed or time out every request,
    /// leaving no latencies to rank).
    pub const ZERO: LatencyStats = LatencyStats {
        p50_ms: 0.0,
        p95_ms: 0.0,
        p99_ms: 0.0,
        mean_ms: 0.0,
        max_ms: 0.0,
    };

    /// Summarizes a buffer of durations in milliseconds (nearest-rank
    /// percentiles), or [`ZERO`](Self::ZERO) for an empty buffer. The
    /// buffer is reordered.
    pub(crate) fn from_samples_or_zero(ms: &mut [f64]) -> Self {
        if ms.is_empty() {
            LatencyStats::ZERO
        } else {
            Self::from_samples(ms)
        }
    }

    /// Summarizes a buffer of durations in milliseconds (nearest-rank
    /// percentiles). The buffer is reordered.
    ///
    /// The p50, p95, p99 and max ranks are selected in ascending order,
    /// each with [`slice::select_nth_unstable_by`] on the part of the
    /// buffer to the right of the previous rank; a rank that coincides
    /// with the previous one (every rank is 1 for a single sample) reuses
    /// its value.
    ///
    /// # Panics
    ///
    /// Panics if `ms` is empty.
    pub(crate) fn from_samples(ms: &mut [f64]) -> Self {
        assert!(!ms.is_empty(), "cannot summarize zero samples");
        let n = ms.len();
        let sum: f64 = ms.iter().sum();
        let ranks = [
            nearest_rank(0.50, n),
            nearest_rank(0.95, n),
            nearest_rank(0.99, n),
            n,
        ];
        // No value left of `placed` exceeds any value from it on, and
        // `ms[placed - 1]` holds the value at rank `placed`.
        let (mut placed, mut value) = (0, 0.0);
        let [p50_ms, p95_ms, p99_ms, max_ms] = ranks.map(|rank| {
            if rank > placed {
                let tail = &mut ms[placed..];
                let (_, v, _) = tail.select_nth_unstable_by(rank - 1 - placed, f64::total_cmp);
                (placed, value) = (rank, *v);
            }
            value
        });
        LatencyStats {
            p50_ms,
            p95_ms,
            p99_ms,
            mean_ms: sum / n as f64,
            max_ms,
        }
    }
}

/// The span, step, latency and TTFT figures of a completion set: the part
/// of a report the serving and fleet reports share.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompletionStats {
    /// Makespan in seconds, as [`Completion::span`] floors it.
    pub makespan_s: f64,
    /// Generation steps over every completion.
    pub steps: u64,
    /// Completions whose latency is within the SLO (all of them without
    /// one).
    pub good: usize,
    /// End-to-end latency summary ([`LatencyStats::ZERO`] when empty).
    pub latency: LatencyStats,
    /// Time-to-first-token summary ([`LatencyStats::ZERO`] when empty).
    pub ttft: LatencyStats,
}

impl CompletionStats {
    /// Summarizes `completions` against an optional latency SLO in
    /// milliseconds. One sample buffer serves both summaries: it holds
    /// the latencies, in completion order, for the SLO count and the
    /// latency summary, then is refilled with the TTFTs.
    pub fn of(completions: &[Completion], slo_ms: Option<f64>) -> Self {
        let (_, _, makespan_s) = Completion::span(completions);
        let steps = completions.iter().map(|c| c.steps).sum();
        let mut ms: Vec<f64> = completions
            .iter()
            .map(|c| c.latency().as_millis())
            .collect();
        let good = match slo_ms {
            None => completions.len(),
            Some(slo) => ms.iter().filter(|&&l| l <= slo).count(),
        };
        let latency = LatencyStats::from_samples_or_zero(&mut ms);
        for (m, c) in ms.iter_mut().zip(completions) {
            *m = c.ttft().as_millis();
        }
        let ttft = LatencyStats::from_samples_or_zero(&mut ms);
        CompletionStats {
            makespan_s,
            steps,
            good,
            latency,
            ttft,
        }
    }
}

/// Memory-subsystem counters aggregated over a serving run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemoryStats {
    /// Running requests evicted to free KV blocks (recompute-on-resume).
    pub preemptions: u64,
    /// Total time ready requests spent blocked on KV capacity while a
    /// batch slot was otherwise free, in seconds.
    pub queue_full_s: f64,
    /// KV occupancy high-water mark as a fraction of capacity (the max
    /// over chips; 0 when the budget is unlimited).
    pub kv_hwm_frac: f64,
}

impl MemoryStats {
    /// The all-zero record (unlimited budgets report this).
    pub(crate) const NONE: MemoryStats = MemoryStats {
        preemptions: 0,
        queue_full_s: 0.0,
        kv_hwm_frac: 0.0,
    };
}

/// Aggregate outcome of one serving simulation.
///
/// # JSON stability
///
/// Serialization derives from this struct, and serde emits fields in
/// declaration order — never from a map, whose ordering could churn. The
/// committed `BENCH_serving.json` / `BENCH_cluster.json` baselines are
/// diffed byte-for-byte in CI, so **reordering, adding, or removing
/// fields here changes the baseline format** and requires regenerating
/// the baselines in the same commit. A unit test pins the current key
/// order. `tenants` is omitted when absent (`skip_serializing_if`), so
/// single-tenant reports stay byte-identical.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingReport {
    /// Scenario / run label.
    pub label: String,
    /// Batching policy name.
    pub policy: String,
    /// Simulated chips.
    pub chips: u64,
    /// Requests offered by the traffic spec.
    pub offered: u64,
    /// Requests completed (always equals `offered`: the trace is finite).
    pub completed: u64,
    /// Time from the first arrival to the last completion, in seconds.
    pub makespan_s: f64,
    /// Completed requests per second of makespan.
    pub throughput_rps: f64,
    /// Generation steps (tokens / diffusion steps) per second of makespan.
    pub steps_per_second: f64,
    /// End-to-end request latency distribution.
    pub latency: LatencyStats,
    /// Time-to-first-token distribution.
    pub ttft: LatencyStats,
    /// Total chip energy over all batches (active windows; idle gaps are
    /// not charged).
    pub total_energy_j: f64,
    /// Mean energy per completed request.
    pub energy_per_request_j: f64,
    /// Requests evicted to free KV blocks (recompute-on-resume).
    pub preemptions: u64,
    /// Time ready requests spent blocked on KV capacity, in seconds.
    pub queue_full_s: f64,
    /// KV occupancy high-water mark (fraction of capacity; 0 = unlimited).
    pub kv_hwm_frac: f64,
    /// Per-tenant section (goodput, SLO attainment, fairness); `None` —
    /// and omitted from JSON — for single-tenant runs.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub tenants: Option<TenantReport>,
}

impl ServingReport {
    /// Builds the aggregate report from per-request completions.
    ///
    /// # Panics
    ///
    /// Panics if `completions` is empty.
    pub(crate) fn from_completions(
        label: impl Into<String>,
        policy: &str,
        chips: u64,
        completions: &[Completion],
        total_energy: Joules,
        memory: MemoryStats,
    ) -> Self {
        assert!(!completions.is_empty(), "no completions to report");
        let stats = CompletionStats::of(completions, None);
        let makespan = stats.makespan_s;
        ServingReport {
            label: label.into(),
            policy: policy.to_owned(),
            chips,
            offered: completions.len() as u64,
            completed: completions.len() as u64,
            makespan_s: makespan,
            throughput_rps: completions.len() as f64 / makespan,
            steps_per_second: stats.steps as f64 / makespan,
            latency: stats.latency,
            ttft: stats.ttft,
            total_energy_j: total_energy.get(),
            energy_per_request_j: total_energy.get() / completions.len() as f64,
            preemptions: memory.preemptions,
            queue_full_s: memory.queue_full_s,
            kv_hwm_frac: memory.kv_hwm_frac,
            tenants: None,
        }
    }
}

impl std::fmt::Display for ServingReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "== {} [{} batching, {} chip(s)] ==",
            self.label, self.policy, self.chips
        )?;
        writeln!(
            f,
            "completed {}/{} in {:.3} s  ({:.2} req/s, {:.1} steps/s)",
            self.completed,
            self.offered,
            self.makespan_s,
            self.throughput_rps,
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
            "energy      {:.4} J total, {:.4} J/request",
            self.total_energy_j, self.energy_per_request_j
        )?;
        writeln!(
            f,
            "kv cache    {} preemption(s), {:.4} s queue-full, {:.1}% occupancy high-water",
            self.preemptions,
            self.queue_full_s,
            self.kv_hwm_frac * 100.0
        )?;
        if let Some(tenants) = &self.tenants {
            write!(f, "{tenants}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

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

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let stats = LatencyStats::from_samples(&mut samples);
        assert_eq!(stats.p50_ms, 50.0);
        assert_eq!(stats.p95_ms, 95.0);
        assert_eq!(stats.p99_ms, 99.0);
        assert_eq!(stats.max_ms, 100.0);
        assert!((stats.mean_ms - 50.5).abs() < 1e-12);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let stats = LatencyStats::from_samples(&mut [7.0]);
        assert_eq!(stats.p50_ms, 7.0);
        assert_eq!(stats.p99_ms, 7.0);
    }

    #[test]
    fn handles_duplicates_and_single() {
        let s = LatencyStats::from_samples(&mut [3.0; 4]);
        assert_eq!(
            [s.p50_ms, s.p95_ms, s.p99_ms, s.mean_ms, s.max_ms],
            [3.0; 5]
        );
        let one = LatencyStats::from_samples(&mut [42.5]);
        assert_eq!(one.max_ms, 42.5);
        assert_eq!(
            LatencyStats::from_samples_or_zero(&mut []),
            LatencyStats::ZERO
        );
    }

    #[test]
    fn nearest_rank_clamps() {
        assert_eq!(nearest_rank(0.0, 10), 1);
        assert_eq!(nearest_rank(0.5, 10), 5);
        assert_eq!(nearest_rank(0.99, 10), 10);
        assert_eq!(nearest_rank(1.0, 3), 3);
    }

    /// Maps raw bits to a sample from one of the first `families`
    /// hostile families: a four-value pool (heavy duplicates), signed
    /// zeros, millisecond latencies, subnormals, values within 1024 ulps
    /// of `f64::MAX`, and finite bit patterns of either sign.
    fn hostile(bits: u64, families: u64) -> f64 {
        let x = bits >> 8;
        match (bits & 0xFF) % families {
            0 => (x % 4) as f64,
            1 => [0.0, -0.0][(x & 1) as usize],
            2 => (x % 10_000_000) as f64 * 1e-3,
            3 => f64::from_bits(x & ((1 << 52) - 1)),
            4 => f64::from_bits(f64::MAX.to_bits() - x % 1024),
            _ => Some(f64::from_bits(bits))
                .filter(|v| v.is_finite())
                .unwrap_or(-(x as f64)),
        }
    }

    /// The specification: sort by `total_cmp`, index nearest ranks, sum
    /// in sample order.
    fn sort_then_index(samples: &[f64]) -> LatencyStats {
        let n = samples.len();
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let at = |q: f64| sorted[nearest_rank(q, n) - 1];
        LatencyStats {
            p50_ms: at(0.50),
            p95_ms: at(0.95),
            p99_ms: at(0.99),
            mean_ms: samples.iter().sum::<f64>() / n as f64,
            max_ms: sorted[n - 1],
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// In-place selection is bit-identical, field by field, to
        /// sort-then-index, for `n` in `1..=2000` (half the cases cut to
        /// `n <= 32`, where p95, p99 and max share ranks) and every mix
        /// of hostile families; the buffer keeps its multiset.
        #[test]
        fn matches_sort_then_index(
            raw in proptest::collection::vec(any::<u64>(), 1..2001),
            families in 1u64..7,
            short in any::<bool>(),
        ) {
            let n = if short { raw.len() % 32 + 1 } else { raw.len() };
            let samples: Vec<f64> = raw[..n].iter().map(|&b| hostile(b, families)).collect();
            let mut buf = samples.clone();
            let got = LatencyStats::from_samples(&mut buf);
            let want = sort_then_index(&samples);
            let bits = |s: &LatencyStats| {
                [s.p50_ms, s.p95_ms, s.p99_ms, s.mean_ms, s.max_ms].map(f64::to_bits)
            };
            prop_assert_eq!(bits(&got), bits(&want), "n = {}, families = {}", n, families);
            let sorted_bits = |mut v: Vec<f64>| {
                v.sort_by(f64::total_cmp);
                v.into_iter().map(f64::to_bits).collect::<Vec<_>>()
            };
            prop_assert_eq!(sorted_bits(buf), sorted_bits(samples));
        }
    }

    #[test]
    fn report_aggregates() {
        let completions = vec![c(0, 0.0, 0.5, 1.0), c(1, 1.0, 1.5, 3.0)];
        let rep = ServingReport::from_completions(
            "t",
            "static",
            1,
            &completions,
            Joules::new(4.0),
            MemoryStats::NONE,
        );
        assert_eq!(rep.completed, 2);
        assert_eq!(rep.preemptions, 0);
        assert_eq!(rep.queue_full_s, 0.0);
        assert_eq!(rep.makespan_s, 3.0);
        assert!((rep.throughput_rps - 2.0 / 3.0).abs() < 1e-12);
        assert!((rep.steps_per_second - 20.0 / 3.0).abs() < 1e-12);
        assert_eq!(rep.latency.max_ms, 2000.0);
        assert_eq!(rep.energy_per_request_j, 2.0);
    }

    #[test]
    fn makespan_starts_at_first_arrival() {
        // A trace offset in time must not inflate the makespan.
        let completions = vec![c(0, 100.0, 100.5, 101.0)];
        let rep = ServingReport::from_completions(
            "t",
            "static",
            1,
            &completions,
            Joules::ZERO,
            MemoryStats::NONE,
        );
        assert_eq!(rep.makespan_s, 1.0);
        assert_eq!(rep.throughput_rps, 1.0);
    }

    #[test]
    fn report_carries_memory_stats() {
        let a = MemoryStats {
            preemptions: 3,
            queue_full_s: 0.75,
            kv_hwm_frac: 0.75,
        };
        let completions = vec![c(0, 0.0, 0.5, 1.0)];
        let rep =
            ServingReport::from_completions("t", "continuous", 1, &completions, Joules::ZERO, a);
        assert_eq!(rep.preemptions, 3);
        assert_eq!(rep.queue_full_s, 0.75);
        assert_eq!(rep.kv_hwm_frac, 0.75);
        let text = rep.to_string();
        assert!(text.contains("kv cache"), "{text}");
        assert!(text.contains("3 preemption(s)"), "{text}");
    }

    #[test]
    fn json_field_order_is_declaration_order() {
        // The committed BENCH baselines are diffed byte-for-byte in CI:
        // serialization must follow struct declaration order, not any
        // map ordering. If this test fails, the baseline format changed —
        // regenerate BENCH_serving.json / BENCH_cluster.json deliberately.
        let rep = ServingReport::from_completions(
            "order",
            "static",
            1,
            &[c(0, 0.0, 0.5, 1.0)],
            Joules::new(1.0),
            MemoryStats::NONE,
        );
        let json = serde_json::to_string(&rep).unwrap();
        let keys = [
            "\"label\"",
            "\"policy\"",
            "\"chips\"",
            "\"offered\"",
            "\"completed\"",
            "\"makespan_s\"",
            "\"throughput_rps\"",
            "\"steps_per_second\"",
            "\"latency\"",
            "\"ttft\"",
            "\"total_energy_j\"",
            "\"energy_per_request_j\"",
            "\"preemptions\"",
            "\"queue_full_s\"",
            "\"kv_hwm_frac\"",
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
        // Nested latency stats keep their order too.
        for k in [
            "\"p50_ms\"",
            "\"p95_ms\"",
            "\"p99_ms\"",
            "\"mean_ms\"",
            "\"max_ms\"",
        ] {
            assert!(json.contains(k), "{k} missing");
        }
        assert!(json.find("\"p50_ms\"").unwrap() < json.find("\"p95_ms\"").unwrap());
        // The per-tenant section is omitted entirely when absent — the
        // single-tenant baseline bytes cannot change.
        assert!(!json.contains("tenants"), "{json}");
    }
}
