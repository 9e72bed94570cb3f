//! Log-bucketed streaming histogram (à la HdrHistogram).

use std::collections::BTreeMap;

/// A streaming histogram with logarithmically spaced buckets.
///
/// Positive values land in bucket `floor(ln(v) / ln(growth))`; each
/// bucket spans one `growth`-factor of the value axis, so quantile
/// estimates carry a bounded *relative* error of at most
/// `sqrt(growth) - 1` (≈ 1% at the default growth of 1.02) regardless
/// of the value range. Memory is O(occupied buckets) — a few hundred
/// entries even for latencies spanning nanoseconds to hours — which is
/// what lets a 10M-request run stream its latency distribution instead
/// of buffering every sample. Zero and negative values count into a
/// dedicated underflow bucket reported as `0.0`.
///
/// Pinned report fields use exact percentiles instead
/// (`cimtpu_serving::LatencyStats`); this type backs the `timeseries`
/// telemetry section, where the documented relative-error contract
/// applies.
#[derive(Debug, Clone)]
pub(crate) struct LogHistogram {
    inv_ln_growth: f64,
    half_bucket: f64,
    growth: f64,
    buckets: BTreeMap<i64, u64>,
    underflow: u64,
    count: u64,
    sum: f64,
    max: f64,
}

/// Default bucket growth factor (≈ 1% relative error).
pub(crate) const DEFAULT_GROWTH: f64 = 1.02;

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new(DEFAULT_GROWTH)
    }
}

impl LogHistogram {
    /// Creates a histogram with the given bucket growth factor
    /// (must be > 1; relative error is at most `sqrt(growth) - 1`).
    #[must_use]
    pub(crate) fn new(growth: f64) -> LogHistogram {
        assert!(growth > 1.0, "growth factor must exceed 1");
        LogHistogram {
            inv_ln_growth: growth.ln().recip(),
            half_bucket: growth.sqrt(),
            growth,
            buckets: BTreeMap::new(),
            underflow: 0,
            count: 0,
            sum: 0.0,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample.
    pub(crate) fn observe(&mut self, value: f64) {
        if value > 0.0 {
            let idx = (value.ln() * self.inv_ln_growth).floor() as i64;
            *self.buckets.entry(idx).or_insert(0) += 1;
        } else {
            self.underflow += 1;
        }
        self.count += 1;
        self.sum += value;
        if value > self.max {
            self.max = value;
        }
    }

    /// Number of recorded samples.
    #[must_use]
    pub(crate) fn count(&self) -> u64 {
        self.count
    }

    /// Streaming mean of all samples (0.0 when empty).
    #[must_use]
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Exact maximum sample (0.0 when empty).
    #[must_use]
    pub(crate) fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Nearest-rank quantile estimate (`q` in `[0, 1]`), accurate to the
    /// bucket's relative-error bound. Returns 0.0 when empty.
    #[must_use]
    pub(crate) fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        if rank <= self.underflow {
            return 0.0;
        }
        let mut remaining = rank - self.underflow;
        for (&idx, &n) in &self.buckets {
            if remaining <= n {
                // Geometric midpoint of [growth^idx, growth^(idx+1)).
                return self.growth.powi(idx as i32) * self.half_bucket;
            }
            remaining -= n;
        }
        self.max
    }

    /// Number of occupied buckets (memory gauge; excludes underflow).
    #[must_use]
    pub(crate) fn occupied_buckets(&self) -> usize {
        self.buckets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_bounded_relative_error() {
        let mut h = LogHistogram::default();
        for i in 1..=10_000u64 {
            h.observe(i as f64 / 10.0);
        }
        let tol = h.half_bucket - 1.0 + 1e-12;
        for (q, exact) in [(0.5, 500.0), (0.95, 950.0), (0.99, 990.0)] {
            let est = h.quantile(q);
            let rel = (est - exact).abs() / exact;
            assert!(rel <= tol, "q={q}: est {est} vs {exact} (rel {rel})");
        }
        assert_eq!(h.max(), 1000.0);
        assert!((h.mean() - 500.05).abs() < 1e-9);
    }

    #[test]
    fn memory_is_o_buckets() {
        let mut h = LogHistogram::default();
        for i in 0..1_000_000u64 {
            h.observe(1.0 + (i % 997) as f64);
        }
        assert_eq!(h.count(), 1_000_000);
        assert!(
            h.occupied_buckets() < 400,
            "{} buckets",
            h.occupied_buckets()
        );
    }

    #[test]
    fn underflow_and_empty() {
        let mut h = LogHistogram::default();
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.max(), 0.0);
        h.observe(0.0);
        h.observe(5.0);
        assert_eq!(h.quantile(0.25), 0.0);
        assert!(h.quantile(1.0) > 0.0);
    }
}
