//! Streaming-telemetry report section and CSV export shapes.

use serde::{Deserialize, Serialize};

use crate::LogHistogram;

/// Summary of one streaming `LogHistogram`: approximate percentiles
/// (bounded relative error, see the histogram docs) plus exact
/// streaming mean/max.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HistogramSummary {
    /// Number of recorded samples.
    pub count: u64,
    /// Approximate median.
    pub p50: f64,
    /// Approximate 95th percentile.
    pub p95: f64,
    /// Approximate 99th percentile.
    pub p99: f64,
    /// Exact streaming mean.
    pub mean: f64,
    /// Exact maximum.
    pub max: f64,
    /// Occupied histogram buckets (memory gauge).
    pub buckets: u64,
}

impl HistogramSummary {
    /// Summarizes a histogram.
    #[must_use]
    pub(crate) fn of(h: &LogHistogram) -> HistogramSummary {
        HistogramSummary {
            count: h.count(),
            p50: h.quantile(0.50),
            p95: h.quantile(0.95),
            p99: h.quantile(0.99),
            mean: h.mean(),
            max: h.max(),
            buckets: h.occupied_buckets() as u64,
        }
    }
}

/// One downsampled gauge series (parallel time/value arrays).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeSeries {
    /// Series name, e.g. `"r0.queue_depth"`.
    pub name: String,
    /// Sample times, simulated seconds.
    pub t_s: Vec<f64>,
    /// Sampled values.
    pub values: Vec<f64>,
}

/// The optional `timeseries` report section: streaming latency/TTFT
/// histograms plus fixed-interval gauge series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeseriesStats {
    /// Minimum spacing between retained gauge samples, simulated seconds.
    pub interval_s: f64,
    /// Streaming request-latency distribution, milliseconds.
    pub latency_ms: HistogramSummary,
    /// Streaming time-to-first-token distribution, milliseconds.
    pub ttft_ms: HistogramSummary,
    /// Downsampled gauge series, in registration order.
    pub gauges: Vec<GaugeSeries>,
}

impl TimeseriesStats {
    /// Renders the gauge series as CSV rows
    /// (`scenario,series,t_s,value` header included).
    #[must_use]
    pub(crate) fn to_csv(&self, scenario: &str) -> String {
        let mut out = String::from("scenario,series,t_s,value\n");
        for g in &self.gauges {
            for (t, v) in g.t_s.iter().zip(&g.values) {
                out.push_str(&format!("{scenario},{},{t:?},{v:?}\n", g.name));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_has_header_and_rows() {
        let ts = TimeseriesStats {
            interval_s: 0.001,
            latency_ms: HistogramSummary::of(&LogHistogram::default()),
            ttft_ms: HistogramSummary::of(&LogHistogram::default()),
            gauges: vec![GaugeSeries {
                name: "r0.queue_depth".into(),
                t_s: vec![0.0, 0.5],
                values: vec![1.0, 3.0],
            }],
        };
        let csv = ts.to_csv("smoke");
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("scenario,series,t_s,value"));
        assert_eq!(lines.next(), Some("smoke,r0.queue_depth,0.0,1.0"));
        assert_eq!(lines.next(), Some("smoke,r0.queue_depth,0.5,3.0"));
        assert_eq!(lines.next(), None);
    }

    #[test]
    fn serializes_and_round_trips() {
        let ts = TimeseriesStats {
            interval_s: 0.25,
            latency_ms: HistogramSummary::of(&LogHistogram::default()),
            ttft_ms: HistogramSummary::of(&LogHistogram::default()),
            gauges: vec![],
        };
        let json = serde_json::to_string(&ts).unwrap();
        let back: TimeseriesStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ts);
    }
}
