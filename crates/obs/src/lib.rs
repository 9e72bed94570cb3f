//! Flight recorder: deterministic request tracing + streaming fleet
//! telemetry.
//!
//! Serving and cluster runs are discrete-event simulations over a
//! deterministic clock, so their observability layer can be
//! deterministic too: every span and instant event is keyed by
//! *simulated* time, and two same-seed runs emit byte-identical trace
//! files. The crate has three pieces:
//!
//! 1. **Trace events** — a typed [`EventKind`] taxonomy over the request
//!    lifecycle (arrival → queue → prefill → KV handoff → decode →
//!    complete / preempt / retry / shed / timeout) and the fleet control
//!    plane (crash, repair, straggler window, scale-up / drain / swap,
//!    reconcile tick), buffered by the [`Recorder`]. Each event has one
//!    method on the recorder and one on the per-core [`TraceHandle`],
//!    and each takes a `tenant: Option<u32>` tag (`None` writes the
//!    untagged single-tenant form). Emission sites in the engines take
//!    an `Option<` [`TraceHandle`] `>`; `None` costs one branch per site,
//!    so the recorder-off paths stay bit-identical and allocation-free.
//!
//! 2. **Chrome trace export** — [`Recorder::to_chrome_json`] writes the
//!    Chrome trace-event JSON format (loadable in Perfetto /
//!    `chrome://tracing`), one track per replica slot plus one for the
//!    control plane, with an [`TraceFilter`] event-type filter.
//!    Events are stably sorted by simulated timestamp
//!    ([`f64::total_cmp`], insertion order on ties), giving the stable
//!    total order that makes same-seed traces byte-identical.
//!
//! 3. **Streaming telemetry** — a log-bucketed `LogHistogram` (à la
//!    HdrHistogram: O(buckets) memory, bounded relative error) for
//!    latency/TTFT distributions, fixed-interval gauge sampling (queue
//!    depth, outstanding, KV occupancy, batch size, utilization), a
//!    [`TimeseriesStats`] report section, and a CSV export for sweep
//!    plotting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod event;
mod hist;
mod record;
mod timeseries;

pub use event::{Event, EventKind, TraceFilter};
use hist::LogHistogram;
pub use record::{Recorder, SharedRecorder, TraceHandle};
pub use timeseries::{GaugeSeries, HistogramSummary, TimeseriesStats};
