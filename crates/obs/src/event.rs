//! Typed trace events and the event-type filter.

use std::fmt;

/// The event taxonomy: request-lifecycle spans/instants plus fleet
/// control-plane events.
///
/// Spans carry a duration ([`EventKind::is_span`] is `true`); instants
/// mark a point on the simulated clock. The wire name
/// (`EventKind::name`) is what `--trace-filter` matches and what the
/// Chrome trace export shows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    // --- request lifecycle -------------------------------------------------
    /// Instant: a request entered the system for the first time.
    Arrival,
    /// Span: from arrival to batch admission (time spent queued).
    Queue,
    /// Span: one prefill chunk executing in a batch.
    Prefill,
    /// Span: KV-cache handoff over the interconnect (disaggregated).
    KvHandoff,
    /// Span: decode, from first token to finish.
    Decode,
    /// Instant: terminal — the request's completion was delivered.
    Complete,
    /// Instant: the request's KV was evicted; it will recompute.
    Preempt,
    /// Span: a lost request waiting out its retry backoff.
    Retry,
    /// Instant: terminal — the request was shed (retry budget spent).
    Shed,
    /// Instant: terminal — the request exceeded its retry deadline.
    Timeout,
    /// Instant: an arrival was parked (target group scaled to zero or
    /// whole fleet down) until capacity returns.
    Park,
    // --- fleet / control plane ---------------------------------------------
    /// Instant: a replica crashed; in-flight state lost.
    Crash,
    /// Instant: a crashed replica finished repair and restarted.
    Repair,
    /// Span: a straggler window degrading a replica's step latency.
    Straggler,
    /// Instant: the reconciler started provisioning a slot.
    ScaleUp,
    /// Instant: the reconciler began draining a slot.
    ScaleDown,
    /// Instant: a group's last slot began draining to zero.
    ScaleToZero,
    /// Instant: a swap began provisioning a slot in the destination group.
    SwapIn,
    /// Instant: a swap began draining a slot in the source group.
    SwapOut,
    /// Instant: a provisioned slot finished warmup and turned routable.
    Up,
    /// Instant: a drained slot went offline.
    Retired,
    /// Instant: one reconcile tick of the autoscale control loop.
    Reconcile,
}

/// Every kind, in declaration order (drives filter error messages).
const ALL_KINDS: [EventKind; 22] = [
    EventKind::Arrival,
    EventKind::Queue,
    EventKind::Prefill,
    EventKind::KvHandoff,
    EventKind::Decode,
    EventKind::Complete,
    EventKind::Preempt,
    EventKind::Retry,
    EventKind::Shed,
    EventKind::Timeout,
    EventKind::Park,
    EventKind::Crash,
    EventKind::Repair,
    EventKind::Straggler,
    EventKind::ScaleUp,
    EventKind::ScaleDown,
    EventKind::ScaleToZero,
    EventKind::SwapIn,
    EventKind::SwapOut,
    EventKind::Up,
    EventKind::Retired,
    EventKind::Reconcile,
];

impl EventKind {
    /// The stable wire name (trace export + `--trace-filter` token).
    #[must_use]
    pub(crate) fn name(self) -> &'static str {
        match self {
            EventKind::Arrival => "arrival",
            EventKind::Queue => "queue",
            EventKind::Prefill => "prefill",
            EventKind::KvHandoff => "kv_handoff",
            EventKind::Decode => "decode",
            EventKind::Complete => "complete",
            EventKind::Preempt => "preempt",
            EventKind::Retry => "retry",
            EventKind::Shed => "shed",
            EventKind::Timeout => "timeout",
            EventKind::Park => "park",
            EventKind::Crash => "crash",
            EventKind::Repair => "repair",
            EventKind::Straggler => "straggler",
            EventKind::ScaleUp => "scale_up",
            EventKind::ScaleDown => "scale_down",
            EventKind::ScaleToZero => "scale_to_zero",
            EventKind::SwapIn => "swap_in",
            EventKind::SwapOut => "swap_out",
            EventKind::Up => "up",
            EventKind::Retired => "retired",
            EventKind::Reconcile => "reconcile",
        }
    }

    /// Whether this kind carries a duration (Chrome `ph: "X"`).
    #[must_use]
    pub fn is_span(self) -> bool {
        matches!(
            self,
            EventKind::Queue
                | EventKind::Prefill
                | EventKind::KvHandoff
                | EventKind::Decode
                | EventKind::Retry
                | EventKind::Straggler
        )
    }

    /// Whether this kind terminates a request's lifecycle.
    #[must_use]
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            EventKind::Complete | EventKind::Shed | EventKind::Timeout
        )
    }

    fn from_name(name: &str) -> Option<EventKind> {
        ALL_KINDS.iter().copied().find(|k| k.name() == name)
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One buffered trace event.
///
/// `ts_s`/`dur_s` are simulated seconds; `dur_s` is zero for instants.
/// `track` indexes the recorder's track table (one per replica slot plus
/// one control-plane track); `id` is the request id for lifecycle events
/// and a site-specific index (slot, replica) for fleet events.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Event type.
    pub kind: EventKind,
    /// Track (Chrome `tid`) the event renders on.
    pub track: u32,
    /// Request id, or slot/replica index for fleet events.
    pub id: u64,
    /// Start time, simulated seconds.
    pub ts_s: f64,
    /// Duration, simulated seconds (zero for instants).
    pub dur_s: f64,
    /// Tenant index for multi-tenant runs; `None` in single-tenant runs,
    /// keeping their exports byte-identical to the pre-tenancy format.
    pub tenant: Option<u32>,
}

/// An event-type allowlist parsed from `--trace-filter`.
///
/// `TraceFilter::default()` (or an empty spec) allows everything.
#[derive(Debug, Clone, Default)]
pub struct TraceFilter {
    allowed: Option<Vec<EventKind>>,
}

impl TraceFilter {
    /// Parses a comma-separated list of event names, e.g.
    /// `"crash,retry,scale_up"`. An empty spec allows every kind.
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown token and listing every
    /// valid event name.
    pub fn parse(spec: &str) -> Result<TraceFilter, String> {
        let mut allowed = Vec::new();
        for token in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            match EventKind::from_name(token) {
                Some(kind) => {
                    if !allowed.contains(&kind) {
                        allowed.push(kind);
                    }
                }
                None => {
                    let names: Vec<&str> = ALL_KINDS.iter().map(|k| k.name()).collect();
                    return Err(format!(
                        "unknown trace event type '{token}' (valid: {})",
                        names.join(", ")
                    ));
                }
            }
        }
        if allowed.is_empty() {
            Ok(TraceFilter::default())
        } else {
            Ok(TraceFilter {
                allowed: Some(allowed),
            })
        }
    }

    /// Whether events of `kind` pass the filter.
    #[must_use]
    pub fn allows(&self, kind: EventKind) -> bool {
        match &self.allowed {
            None => true,
            Some(list) => list.contains(&kind),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for kind in ALL_KINDS {
            assert_eq!(EventKind::from_name(kind.name()), Some(kind));
        }
    }

    #[test]
    fn spans_and_terminals_are_disjoint() {
        for kind in ALL_KINDS {
            assert!(!(kind.is_span() && kind.is_terminal()), "{kind} is both");
        }
    }

    #[test]
    fn filter_parses_and_filters() {
        let f = TraceFilter::parse("crash, retry").unwrap();
        assert!(f.allows(EventKind::Crash));
        assert!(f.allows(EventKind::Retry));
        assert!(!f.allows(EventKind::Prefill));
        assert!(TraceFilter::parse("").unwrap().allows(EventKind::Prefill));
        let err = TraceFilter::parse("bogus").unwrap_err();
        assert!(err.contains("bogus") && err.contains("kv_handoff"), "{err}");
    }
}
