//! The fleet observer: what the event loops tell a flight recorder, as
//! one trait the loops are generic over. `()` is the recorder-off
//! observer — every method is an empty default the compiler removes, so
//! the loops have no trace branches. [`FleetTrace`] is the recorder-backed
//! one, and owns the one trace layout every fleet records.

use std::rc::Rc;

use cimtpu_obs::{EventKind, SharedRecorder, TraceHandle};
use cimtpu_serving::{Completion, EngineCore, Request, RequestTenants};
use cimtpu_units::Seconds;

use crate::replica::ReplicaSpec;

/// What a fleet event loop emits. Slot `k` indexes the loop's slots: a
/// colocated fleet's replicas (or elastic slots), or a disaggregated
/// fleet's prefill pool followed by its decode pool.
pub(crate) trait FleetObserver {
    /// What the observer is built from: nothing, or the recorder.
    type Sink;

    /// Registers a fleet: one track per slot, then the control track,
    /// and a gauge pair per slot — or per group of an elastic fleet, when
    /// `groups` is given.
    fn open(sink: &Self::Sink, slots: &[ReplicaSpec], groups: Option<&[ReplicaSpec]>) -> Self;

    /// Arms slot `k`'s fresh engine core with its track.
    fn attach(&self, _k: usize, _core: &mut EngineCore<'_>) {}

    /// `r` entered the fleet: on slot `k`'s track, or for `None` on the
    /// control track (a colocated request can be parked, shed or time
    /// out before it reaches a core).
    fn arrival(&self, _k: Option<usize>, _r: &Request) {}

    /// A fleet event on slot `k`'s track.
    fn instant(&self, _k: usize, _kind: EventKind, _at: Seconds) {}

    /// A span on slot `k`'s track.
    fn span(&self, _k: usize, _kind: EventKind, _id: u64, _from: Seconds, _to: Seconds) {}

    /// A control-track instant.
    fn control(&self, _kind: EventKind, _id: u64, _at: Seconds) {}

    /// Request `r`'s control-track event (retry, shed, timeout, park),
    /// tagged with its tenant: a span until `until`, else an instant.
    fn request(&self, _kind: EventKind, _r: &Request, _at: Seconds, _until: Option<Seconds>) {}

    /// Samples gauge pair `i` at `at`.
    fn sample(&self, _i: usize, _at: Seconds, _first: f64, _second: f64) {}

    /// `stepped(k, at, [queued, kv_frac])`: slot `k`'s core stepped at
    /// `at` (`None`: flushed a stalled batch) and holds the two gauges.
    fn stepped(&self, _k: usize, _at: Option<Seconds>, _gauges: [f64; 2]) {}

    /// Slot `k` delivered `c`.
    fn delivered(&self, _k: usize, _c: &Completion) {}
}

/// The recorder-off observer.
impl FleetObserver for () {
    type Sink = ();

    fn open(_: &(), _: &[ReplicaSpec], _: Option<&[ReplicaSpec]>) {}
}

/// The flight-recorder observer: one track per slot, a gauge pair per
/// slot — `[queued, kv_frac]` — or for an elastic fleet
/// `[queued, outstanding]` per group sampled at each reconcile tick, and
/// a control track for fleet-level events.
///
/// Every fleet traces one layout. The loop traces each arrival as it
/// admits it (a colocated one on the control track: the request can be
/// parked, shed or time out before it reaches a core) and each
/// completion on its slot's track as it delivers it (a crash can revoke
/// work before then), and stamps a colocated step's gauges at the step
/// instant. The cores trace the rest of the request lifecycle.
/// Multi-tenant runs tag every request-lifecycle event with its tenant
/// index; single-tenant traces stay byte-identical to untenanted.
pub(crate) struct FleetTrace<'t> {
    rec: SharedRecorder,
    tracks: Vec<u32>,
    series: Vec<[usize; 2]>,
    control: u32,
    /// Whether steps stamp per-slot gauges (not an elastic fleet's).
    step_gauges: bool,
    /// Each request's tenant, in a multi-tenant run only: every event is
    /// tagged then, a completion through this view.
    tenants: Option<RequestTenants<'t>>,
}

impl FleetTrace<'_> {
    /// `r`'s tenant tag: present only for multi-tenant runs.
    fn tag(&self, r: &Request) -> Option<u32> {
        self.tenants.map(|_| r.tenant)
    }
}

impl<'t> FleetObserver for FleetTrace<'t> {
    /// The recorder, and for a multi-tenant run each request's tenant.
    type Sink = (&'t SharedRecorder, Option<RequestTenants<'t>>);

    fn open(
        (rec, tenants): &Self::Sink,
        slots: &[ReplicaSpec],
        groups: Option<&[ReplicaSpec]>,
    ) -> Self {
        let mut r = rec.borrow_mut();
        let tracks: Vec<u32> = slots.iter().map(|spec| r.track(&spec.name)).collect();
        let control = r.track("control");
        let (owners, second) = groups.map_or((slots, "kv_frac"), |g| (g, "outstanding"));
        let mut gauge =
            |spec: &ReplicaSpec, what: &str| r.gauge_series(&format!("{}/{what}", spec.name));
        let series = owners
            .iter()
            .map(|s| [gauge(s, "queued"), gauge(s, second)])
            .collect();
        drop(r);
        FleetTrace {
            rec: Rc::clone(rec),
            tracks,
            series,
            control,
            step_gauges: groups.is_none(),
            tenants: *tenants,
        }
    }

    fn attach(&self, k: usize, core: &mut EngineCore<'_>) {
        core.attach_trace(TraceHandle::new(Rc::clone(&self.rec), self.tracks[k]));
    }

    fn arrival(&self, k: Option<usize>, r: &Request) {
        let track = k.map_or(self.control, |k| self.tracks[k]);
        let tag = self.tag(r);
        self.rec
            .borrow_mut()
            .instant(track, EventKind::Arrival, r.id, r.arrival_s, tag);
    }

    fn instant(&self, k: usize, kind: EventKind, at: Seconds) {
        self.rec
            .borrow_mut()
            .instant(self.tracks[k], kind, 0, at.get(), None);
    }

    fn span(&self, k: usize, kind: EventKind, id: u64, from: Seconds, to: Seconds) {
        self.rec
            .borrow_mut()
            .span(self.tracks[k], kind, id, from.get(), to.get(), None);
    }

    fn control(&self, kind: EventKind, id: u64, at: Seconds) {
        self.rec
            .borrow_mut()
            .instant(self.control, kind, id, at.get(), None);
    }

    fn request(&self, kind: EventKind, r: &Request, at: Seconds, until: Option<Seconds>) {
        let (tag, mut rec) = (self.tag(r), self.rec.borrow_mut());
        match until {
            Some(end) => rec.span(self.control, kind, r.id, at.get(), end.get(), tag),
            None => rec.instant(self.control, kind, r.id, at.get(), tag),
        }
    }

    fn sample(&self, i: usize, at: Seconds, first: f64, second: f64) {
        let mut rec = self.rec.borrow_mut();
        rec.sample(self.series[i][0], at.get(), first);
        rec.sample(self.series[i][1], at.get(), second);
    }

    fn stepped(&self, k: usize, at: Option<Seconds>, gauges: [f64; 2]) {
        if let Some(at) = at.filter(|_| self.step_gauges) {
            self.sample(k, at, gauges[0], gauges[1]);
        }
    }

    fn delivered(&self, k: usize, c: &Completion) {
        let (latency, ttft) = (c.latency().as_millis(), c.ttft().as_millis());
        let (track, tag) = (self.tracks[k], self.tenants.map(|t| t.of(c.id)));
        self.rec
            .borrow_mut()
            .complete(track, c.id, c.finish.get(), latency, ttft, tag);
    }
}
