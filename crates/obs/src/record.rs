//! The buffered flight recorder and its engine-facing handle.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

use crate::event::{Event, EventKind, TraceFilter};
use crate::timeseries::{GaugeSeries, HistogramSummary, TimeseriesStats};
use crate::LogHistogram;

/// Minimum spacing between retained gauge samples, simulated seconds.
const GAUGE_INTERVAL_S: f64 = 0.001;

/// One gauge series under construction (downsampled on insert).
#[derive(Debug, Clone)]
struct GaugeBuf {
    name: String,
    t_s: Vec<f64>,
    values: Vec<f64>,
}

/// The buffered flight recorder.
///
/// Buffers typed [`Event`]s keyed by simulated time, streams latency /
/// TTFT samples into log-bucketed histograms, and downsamples gauge
/// series on a fixed 1 ms simulated-time interval. All state is plain
/// in-memory data ordered by insertion, so two same-seed runs build
/// byte-identical exports.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    events: Vec<Event>,
    tracks: Vec<String>,
    latency_ms: LogHistogram,
    ttft_ms: LogHistogram,
    gauges: Vec<GaugeBuf>,
}

impl Recorder {
    /// Creates an empty recorder.
    #[must_use]
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// Registers a track (Chrome thread) and returns its id.
    pub fn track(&mut self, name: &str) -> u32 {
        self.tracks.push(name.to_string());
        (self.tracks.len() - 1) as u32
    }

    /// Registers a gauge series and returns its index for
    /// [`Recorder::sample`].
    pub fn gauge_series(&mut self, name: &str) -> usize {
        self.gauges.push(GaugeBuf {
            name: name.to_string(),
            t_s: Vec::new(),
            values: Vec::new(),
        });
        self.gauges.len() - 1
    }

    /// Records a gauge sample; dropped if closer than the gauge
    /// interval to the previous retained sample of the series.
    pub fn sample(&mut self, series: usize, ts_s: f64, value: f64) {
        let g = &mut self.gauges[series];
        if g.t_s
            .last()
            .is_none_or(|&last| ts_s - last >= GAUGE_INTERVAL_S)
        {
            g.t_s.push(ts_s);
            g.values.push(value);
        }
    }

    /// Records a delivered completion: the terminal [`EventKind::Complete`]
    /// instant plus latency/TTFT histogram samples.
    pub fn complete(
        &mut self,
        track: u32,
        id: u64,
        finish_s: f64,
        latency_ms: f64,
        ttft_ms: f64,
        tenant: Option<u32>,
    ) {
        self.instant(track, EventKind::Complete, id, finish_s, tenant);
        self.latency_ms.observe(latency_ms);
        self.ttft_ms.observe(ttft_ms);
    }

    /// Records an instant event at `ts_s`, tagged with `tenant` if given
    /// (`None` emits the untagged single-tenant form).
    pub fn instant(
        &mut self,
        track: u32,
        kind: EventKind,
        id: u64,
        ts_s: f64,
        tenant: Option<u32>,
    ) {
        self.events.push(Event {
            kind,
            track,
            id,
            ts_s,
            dur_s: 0.0,
            tenant,
        });
    }

    /// Records a span covering `[start_s, end_s]`, tagged with `tenant`
    /// if given (`None` emits the untagged single-tenant form).
    pub fn span(
        &mut self,
        track: u32,
        kind: EventKind,
        id: u64,
        start_s: f64,
        end_s: f64,
        tenant: Option<u32>,
    ) {
        self.events.push(Event {
            kind,
            track,
            id,
            ts_s: start_s,
            dur_s: end_s - start_s,
            tenant,
        });
    }

    /// The buffered events, in emission order.
    #[must_use]
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Builds the `timeseries` report section.
    #[must_use]
    pub fn timeseries(&self) -> TimeseriesStats {
        TimeseriesStats {
            interval_s: GAUGE_INTERVAL_S,
            latency_ms: HistogramSummary::of(&self.latency_ms),
            ttft_ms: HistogramSummary::of(&self.ttft_ms),
            gauges: self
                .gauges
                .iter()
                .map(|g| GaugeSeries {
                    name: g.name.clone(),
                    t_s: g.t_s.clone(),
                    values: g.values.clone(),
                })
                .collect(),
        }
    }

    /// Exports the buffered events as Chrome trace-event JSON
    /// (`{"traceEvents": [...]}`, loadable in Perfetto /
    /// `chrome://tracing`), one line per event.
    ///
    /// Events are sorted by start timestamp under [`f64::total_cmp`]
    /// with a stable sort, so ties keep emission order — a stable total
    /// order that makes same-seed traces byte-identical. Timestamps are
    /// microseconds of simulated time.
    #[must_use]
    pub fn to_chrome_json(&self, filter: &TraceFilter) -> String {
        let mut picked: Vec<&Event> = self
            .events
            .iter()
            .filter(|e| filter.allows(e.kind))
            .collect();
        picked.sort_by(|a, b| a.ts_s.total_cmp(&b.ts_s));
        let mut out = String::from("{\"traceEvents\":[\n");
        let mut first = true;
        for (tid, name) in self.tracks.iter().enumerate() {
            sep(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\
                 \"args\":{{\"name\":{}}}}}",
                json_str(name)
            );
        }
        for e in picked {
            sep(&mut out, &mut first);
            let ts = e.ts_s * 1e6;
            let args = match e.tenant {
                Some(t) => format!("{{\"id\":{},\"tenant\":{t}}}", e.id),
                None => format!("{{\"id\":{}}}", e.id),
            };
            if e.kind.is_span() {
                let dur = e.dur_s * 1e6;
                let _ = write!(
                    out,
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{ts:?},\"dur\":{dur:?},\
                     \"pid\":0,\"tid\":{},\"args\":{args}}}",
                    e.kind.name(),
                    e.track,
                );
            } else {
                let _ = write!(
                    out,
                    "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts:?},\
                     \"pid\":0,\"tid\":{},\"args\":{args}}}",
                    e.kind.name(),
                    e.track,
                );
            }
        }
        out.push_str("\n]}\n");
        out
    }

    /// Renders the gauge series as CSV (`scenario,series,t_s,value`).
    #[must_use]
    pub fn metrics_csv(&self, scenario: &str) -> String {
        self.timeseries().to_csv(scenario)
    }
}

fn sep(out: &mut String, first: &mut bool) {
    if *first {
        *first = false;
    } else {
        out.push_str(",\n");
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A recorder shared across the engine cores and drivers of one run.
pub type SharedRecorder = Rc<RefCell<Recorder>>;

/// A cheap per-core handle: a shared recorder plus the core's track id.
///
/// Engines hold an `Option<TraceHandle>`; `None` costs one branch per
/// emission site, keeping the recorder-off paths bit-identical.
#[derive(Debug, Clone)]
pub struct TraceHandle {
    rec: SharedRecorder,
    track: u32,
}

impl TraceHandle {
    /// Creates a handle targeting `track` of `rec`.
    #[must_use]
    pub fn new(rec: SharedRecorder, track: u32) -> TraceHandle {
        TraceHandle { rec, track }
    }

    /// Emits an instant on this handle's track (see
    /// [`Recorder::instant`]).
    pub fn instant(&self, kind: EventKind, id: u64, ts_s: f64, tenant: Option<u32>) {
        self.rec
            .borrow_mut()
            .instant(self.track, kind, id, ts_s, tenant);
    }

    /// Emits a span on this handle's track (see [`Recorder::span`]).
    pub fn span(&self, kind: EventKind, id: u64, start_s: f64, end_s: f64, tenant: Option<u32>) {
        self.rec
            .borrow_mut()
            .span(self.track, kind, id, start_s, end_s, tenant);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_export_sorts_and_formats() {
        let mut r = Recorder::new();
        let t0 = r.track("r0");
        let cp = r.track("control");
        r.instant(cp, EventKind::Crash, 0, 2.0, None);
        r.span(t0, EventKind::Prefill, 5, 0.5, 1.5, None);
        r.instant(t0, EventKind::Complete, 5, 3.0, None);
        let json = r.to_chrome_json(&TraceFilter::default());
        assert!(json.starts_with("{\"traceEvents\":[\n"));
        assert!(json.contains("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":1,\"args\":{\"name\":\"control\"}}"));
        // Sorted by ts: prefill (0.5 s) precedes crash (2.0 s).
        let prefill = json.find("\"name\":\"prefill\",\"ph\":\"X\"").unwrap();
        let crash = json.find("\"name\":\"crash\",\"ph\":\"i\"").unwrap();
        assert!(prefill < crash);
        assert!(json.contains("\"ts\":500000.0,\"dur\":1000000.0"));
        // Filtered export drops the others.
        let only_crash = r.to_chrome_json(&TraceFilter::parse("crash").unwrap());
        assert!(only_crash.contains("\"name\":\"crash\""));
        assert!(!only_crash.contains("\"name\":\"prefill\""));
    }

    #[test]
    fn tenant_tags_render_only_when_present() {
        let mut r = Recorder::new();
        let t = r.track("r0");
        r.instant(t, EventKind::Preempt, 3, 1.0, Some(2));
        r.span(t, EventKind::Decode, 4, 1.0, 2.0, None);
        let json = r.to_chrome_json(&TraceFilter::default());
        assert!(json.contains("\"args\":{\"id\":3,\"tenant\":2}"), "{json}");
        assert!(json.contains("\"args\":{\"id\":4}"), "{json}");
    }

    #[test]
    fn gauge_downsampling_honors_interval() {
        let mut r = Recorder::new();
        let g = r.gauge_series("q");
        let dt = GAUGE_INTERVAL_S / 4.0;
        for i in 0..10 {
            r.sample(g, i as f64 * dt, i as f64);
        }
        let ts = r.timeseries();
        assert_eq!(ts.interval_s, GAUGE_INTERVAL_S);
        assert_eq!(ts.gauges[0].t_s, vec![0.0, 4.0 * dt, 8.0 * dt]);
        assert_eq!(ts.gauges[0].values, vec![0.0, 4.0, 8.0]);
    }

    #[test]
    fn complete_feeds_histograms() {
        let mut r = Recorder::new();
        let t = r.track("r0");
        r.complete(t, 1, 1.0, 250.0, 40.0, None);
        r.complete(t, 2, 2.0, 150.0, 20.0, None);
        let ts = r.timeseries();
        assert_eq!(ts.latency_ms.count, 2);
        assert_eq!(ts.latency_ms.max, 250.0);
        assert_eq!(ts.ttft_ms.max, 40.0);
    }

    #[test]
    fn handle_shares_one_recorder() {
        let rec: SharedRecorder = Rc::new(RefCell::new(Recorder::new()));
        let t0 = rec.borrow_mut().track("r0");
        let t1 = rec.borrow_mut().track("r1");
        let h0 = TraceHandle::new(Rc::clone(&rec), t0);
        let h1 = TraceHandle::new(Rc::clone(&rec), t1);
        h0.span(EventKind::Queue, 1, 0.0, 0.5, None);
        h1.instant(EventKind::Shed, 1, 1.0, None);
        let r = rec.borrow();
        let tracks: Vec<(EventKind, u32)> = r.events().iter().map(|e| (e.kind, e.track)).collect();
        assert_eq!(tracks, vec![(EventKind::Queue, t0), (EventKind::Shed, t1)]);
    }
}
