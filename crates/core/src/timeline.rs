//! Execution timeline: when each operator runs within a simulated window.
//!
//! Operators execute sequentially on the TensorCore (matrix ops and vector
//! ops share the same instruction stream in this model), so a [`Report`]
//! induces a timeline directly. [`Timeline::render_ascii`] draws a Gantt
//! chart that makes bottlenecks visually obvious — e.g. the softmax bar
//! dominating a DiT block.
//!
//! # Examples
//!
//! ```
//! use cimtpu_core::{timeline::Timeline, Simulator, TpuConfig};
//! use cimtpu_models::presets;
//!
//! let sim = Simulator::new(TpuConfig::tpuv4i())?;
//! let report = sim.run(&presets::gpt3_30b().decode_layer(8, 1280)?)?;
//! let t = Timeline::from_report(&report);
//! println!("{}", t.render_ascii(60));
//! assert!(t.spans().len() > 5);
//! # Ok::<(), cimtpu_units::Error>(())
//! ```

use serde::{Deserialize, Serialize};

use cimtpu_models::OpCategory;
use cimtpu_units::Seconds;

use crate::report::Report;

/// One operator's occupancy interval.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Span {
    /// Operator name.
    pub name: String,
    /// Reporting category.
    pub category: OpCategory,
    /// Start offset from the workload's beginning.
    pub start: Seconds,
    /// Duration (all repetitions).
    pub duration: Seconds,
}

impl Span {
    /// End offset of the span.
    pub(crate) fn end(&self) -> Seconds {
        self.start + self.duration
    }
}

/// A sequential execution timeline derived from a [`Report`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Timeline {
    name: String,
    spans: Vec<Span>,
}

impl Timeline {
    /// Builds the timeline of a report (ops in execution order).
    pub fn from_report(report: &Report) -> Self {
        let mut spans = Vec::with_capacity(report.ops().len());
        let mut cursor = Seconds::ZERO;
        for op in report.ops() {
            spans.push(Span {
                name: op.name.clone(),
                category: op.category,
                start: cursor,
                duration: op.latency,
            });
            cursor += op.latency;
        }
        Timeline {
            name: report.name().to_owned(),
            spans,
        }
    }

    /// All spans in execution order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration.
    pub(crate) fn total(&self) -> Seconds {
        self.spans.last().map_or(Seconds::ZERO, Span::end)
    }

    /// Renders an ASCII Gantt chart `width` characters wide.
    ///
    /// Spans shorter than half a character cell are still drawn with one
    /// `·` so nothing disappears entirely.
    pub fn render_ascii(&self, width: usize) -> String {
        let width = width.max(10);
        let total = self.total().get();
        if total.is_nan() || total <= 0.0 {
            return format!("{}: empty timeline\n", self.name);
        }
        let label_w = self
            .spans
            .iter()
            .map(|s| s.name.len())
            .max()
            .unwrap_or(4)
            .min(28);
        let mut out = String::new();
        out.push_str(&format!(
            "{} — total {:.4} ms\n",
            self.name,
            self.total().as_millis()
        ));
        for span in &self.spans {
            let start = ((span.start.get() / total) * width as f64).round() as usize;
            let mut len = ((span.duration.get() / total) * width as f64).round() as usize;
            let ch = if len == 0 {
                len = 1;
                '·'
            } else {
                '█'
            };
            let start = start.min(width.saturating_sub(1));
            let len = len.min(width - start);
            let mut name = span.name.clone();
            name.truncate(label_w);
            out.push_str(&format!(
                "{name:<label_w$} |{}{}{}| {:>9.4} ms\n",
                " ".repeat(start),
                ch.to_string().repeat(len),
                " ".repeat(width - start - len),
                span.duration.as_millis(),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::TpuConfig;
    use crate::simulator::Simulator;
    use cimtpu_models::presets;

    fn timeline() -> Timeline {
        let sim = Simulator::new(TpuConfig::tpuv4i()).unwrap();
        let report = sim
            .run(&presets::gpt3_30b().decode_layer(8, 1280).unwrap())
            .unwrap();
        Timeline::from_report(&report)
    }

    #[test]
    fn spans_are_contiguous() {
        let t = timeline();
        for pair in t.spans().windows(2) {
            assert!((pair[0].end().get() - pair[1].start.get()).abs() < 1e-15);
        }
        assert!(t.total().get() > 0.0);
    }

    #[test]
    fn total_matches_report() {
        let sim = Simulator::new(TpuConfig::cim_base()).unwrap();
        let report = sim
            .run(&presets::dit_xl_2().block(8, 256).unwrap())
            .unwrap();
        let t = Timeline::from_report(&report);
        assert!((t.total().get() - report.total_latency().get()).abs() < 1e-12);
    }

    #[test]
    fn ascii_renders_every_span() {
        let t = timeline();
        let s = t.render_ascii(60);
        assert_eq!(s.lines().count(), t.spans().len() + 1);
        assert!(s.contains("QKV Gen"));
        assert!(s.contains('█'));
    }

    #[test]
    fn tiny_spans_still_visible() {
        let t = timeline();
        let s = t.render_ascii(40);
        // LayerNorm in a decode layer is microseconds on a ms-scale chart.
        assert!(s.contains('·'), "tiny spans should render as dots:\n{s}");
    }

    #[test]
    fn nan_total_renders_empty() {
        let mut t = timeline();
        t.spans.last_mut().unwrap().duration = Seconds::new(1.0) * f64::NAN;
        assert_eq!(t.render_ascii(60), format!("{}: empty timeline\n", t.name));
    }
}
