//! Requests, open- and closed-loop traffic generation.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use cimtpu_units::{Error, Result, Seconds};
use rustc_hash::FxHashMap;

use crate::heap::EventKey;
use crate::metrics::Completion;
use crate::tenant::SloClass;
use crate::trace::TraceRecord;

/// One inference request entering the serving system.
///
/// For LLM serving, `prompt_len` tokens are ingested by the prefill phase
/// and `steps` tokens are generated by decode steps. For DiT serving,
/// `prompt_len` is zero and `steps` counts diffusion (denoising) steps.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Stable identifier (index in arrival order).
    pub id: u64,
    /// Arrival time (the first request arrives at t = 0).
    pub arrival_s: f64,
    /// Prompt tokens to prefill (zero for DiT requests).
    pub prompt_len: u64,
    /// Generation steps: output tokens (LLM) or diffusion steps (DiT).
    pub steps: u64,
    /// Session the request belongs to: closed-loop clients map one-to-one
    /// to sessions, [`ArrivalPattern::OpenLoopSessions`] samples from a
    /// fixed session pool, and plain open-loop / burst traffic gives every
    /// request its own session (`session == id`). Session-affinity routers
    /// key on this field.
    pub session: u64,
    /// Tenant index within the run's
    /// [`TenantSet`](crate::tenant::TenantSet) (0 — the only tenant — for
    /// single-tenant traffic).
    pub tenant: u32,
    /// The request's service tier: admission priority and the latency
    /// target it is judged against ([`SloClass::Standard`] for
    /// single-tenant traffic).
    pub class: SloClass,
    /// The prompt's shared-head identity, for prefix sharing and
    /// prefix-affinity routing ([`PromptPrefix::UNIQUE`] when the prompt
    /// shares nothing).
    pub prefix: PromptPrefix,
}

impl Request {
    /// Arrival time as a quantity.
    pub fn arrival(&self) -> Seconds {
        Seconds::new(self.arrival_s)
    }

    /// The prompt's token ids, synthesized deterministically: token `i`
    /// comes from the shared head stream while `i < prefix.head_len`, and
    /// from a request-unique stream after — so requests with equal
    /// [`PromptPrefix`]es agree token-for-token on their heads and on
    /// nothing else. This is what the prefix index
    /// ([`cimtpu_kv::PrefixIndex`]) matches block-by-block.
    pub(crate) fn prompt_tokens(&self) -> Vec<u64> {
        (0..self.prompt_len)
            .map(|i| {
                if i < self.prefix.head_len {
                    mix64(self.prefix.head_seed, i)
                } else {
                    mix64(0x7A11_5EED ^ self.id, i)
                }
            })
            .collect()
    }
}

/// The content identity of a request's shared prompt head. Two requests
/// share their first `min(head_len_a, head_len_b)` prompt tokens iff
/// their `head_seed`s are equal; everything after a request's `head_len`
/// is unique to it. [`PrefixTraffic`] assigns these per request; the
/// prefix-affinity router hashes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PromptPrefix {
    /// Seed of the shared head token stream.
    pub head_seed: u64,
    /// Prompt tokens drawn from the shared head stream (clamped to the
    /// prompt length at generation).
    pub head_len: u64,
}

impl PromptPrefix {
    /// A fully unique prompt: nothing shared with any other request.
    pub const UNIQUE: PromptPrefix = PromptPrefix {
        head_seed: 0,
        head_len: 0,
    };
}

/// How prompts relate across requests — whether the trace carries a
/// shared system-prompt head that prefix sharing can exploit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PrefixTraffic {
    /// Every prompt is unique content: no cross-request sharing is ever
    /// possible (the default; leaves traces bit-identical to pre-prefix
    /// traffic).
    None,
    /// Shared-system-prompt traffic: request `id` draws its first
    /// `min(tokens, prompt_len)` prompt tokens from one of `groups`
    /// shared head streams (round-robin by id, so every group appears and
    /// the assignment is seed-independent), and its tail from a unique
    /// stream.
    SharedHead {
        /// Shared head length in tokens.
        tokens: u64,
        /// Number of distinct shared heads in the trace.
        groups: u64,
    },
}

impl PrefixTraffic {
    /// The [`PromptPrefix`] of request `id` in a `seed`-seeded trace.
    fn assign(&self, seed: u64, id: u64, prompt_len: u64) -> PromptPrefix {
        match *self {
            PrefixTraffic::None => PromptPrefix::UNIQUE,
            PrefixTraffic::SharedHead { tokens, groups } => PromptPrefix {
                head_seed: mix64(0x5EED ^ seed, id % groups.max(1)),
                head_len: tokens.min(prompt_len),
            },
        }
    }

    /// Checks the knob is usable.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for a zero-token head or zero
    /// groups (use [`PrefixTraffic::None`] for no sharing).
    pub(crate) fn validate(&self) -> Result<()> {
        if let PrefixTraffic::SharedHead { tokens, groups } = *self {
            if tokens == 0 || groups == 0 {
                return Err(Error::invalid_config(
                    "shared-head traffic needs >= 1 token and >= 1 group \
                     (use PrefixTraffic::None for unique prompts)",
                ));
            }
        }
        Ok(())
    }
}

/// A stable 64-bit mixer (splitmix64 finalizer over `seed ^ i`): the
/// token/seed streams behind [`Request::prompt_tokens`],
/// [`PrefixTraffic`] group seeds, and per-tenant seed/session salting.
pub(crate) fn mix64(seed: u64, i: u64) -> u64 {
    let mut z = (seed ^ i.rotate_left(17)).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A sampled per-request length.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LenDist {
    /// Every request uses the same length.
    Fixed(u64),
    /// Uniform over `lo..=hi`.
    Uniform {
        /// Smallest length (inclusive).
        lo: u64,
        /// Largest length (inclusive).
        hi: u64,
    },
}

impl LenDist {
    fn sample(&self, rng: &mut StdRng) -> u64 {
        match *self {
            LenDist::Fixed(n) => n,
            LenDist::Uniform { lo, hi } => rng.gen_range(lo..=hi),
        }
    }

    /// Checks the distribution is sampleable.
    ///
    /// # Errors
    ///
    /// Returns [`cimtpu_units::Error::InvalidConfig`] for an empty range.
    pub(crate) fn validate(&self) -> cimtpu_units::Result<()> {
        match *self {
            LenDist::Uniform { lo, hi } if lo > hi => Err(cimtpu_units::Error::invalid_config(
                format!("empty length range {lo}..={hi}"),
            )),
            _ => Ok(()),
        }
    }
}

/// How requests arrive over time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ArrivalPattern {
    /// Open-loop Poisson arrivals at `rate_rps` requests per second
    /// (exponential inter-arrival times), independent of service progress.
    OpenLoop {
        /// Mean arrival rate in requests per second.
        rate_rps: f64,
    },
    /// Open-loop Poisson arrivals whose requests are drawn from a fixed
    /// pool of `sessions` sessions (sampled uniformly), for
    /// session-affinity routing studies.
    OpenLoopSessions {
        /// Mean arrival rate in requests per second.
        rate_rps: f64,
        /// Size of the session pool requests are drawn from.
        sessions: u64,
    },
    /// Everything arrives at t = 0 (a burst).
    Burst,
    /// Open-loop arrivals from a **non-homogeneous** Poisson process whose
    /// rate breathes over a simulated day: the instantaneous rate is
    /// `peak_rps` scaled by the committed 24-point [`DIURNAL_CURVE`]
    /// (piecewise constant per simulated "hour" — `day_s / 24` of
    /// simulated time), optionally multiplied by `burst_x` during `bursts`
    /// burst hours spread evenly across the day (burst `j` covers hour
    /// `j * 24 / bursts`). Sampling inverts the rate integral with one
    /// uniform draw per arrival, so the RNG stream has exactly the same
    /// shape as [`ArrivalPattern::OpenLoop`] and prompt/step draws are
    /// unperturbed. This is the traffic the autoscaling control plane
    /// reacts to.
    Diurnal {
        /// Arrival rate at the curve's peak hour, in requests per second.
        peak_rps: f64,
        /// Length of one simulated day in seconds (compressed days make
        /// short traces breathe through the full curve).
        day_s: f64,
        /// Rate multiplier inside burst hours (1.0 = no bursts).
        burst_x: f64,
        /// Number of burst hours per day (0..=24), spread evenly.
        bursts: u64,
    },
    /// Trace-driven arrivals: the request list is written down up front —
    /// one [`TraceRecord`] per request, in nondecreasing arrival order —
    /// instead of being sampled. [`TrafficSpec::generate`] replays the
    /// records verbatim (re-id'd `0..n`, steps clamped to at least 1)
    /// and draws nothing from the RNG. This is both the committed-JSONL
    /// replay path (see [`crate::trace`]) and the merged form of a
    /// multi-tenant [`TenantSet`](crate::tenant::TenantSet).
    Trace {
        /// The trace, in arrival order.
        records: Vec<TraceRecord>,
    },
    /// Closed-loop traffic: `clients` concurrent clients each keep exactly
    /// one request in flight. A client issues its first request at t = 0;
    /// when a request completes, the client thinks for `think_ms` and then
    /// issues the next one, until the spec's request budget is spent.
    /// Arrival times therefore depend on service progress and are produced
    /// by an [`ArrivalStream`] during the simulation, not by
    /// [`TrafficSpec::generate`]. Each client is one session
    /// (`session == client index`).
    ClosedLoop {
        /// Concurrent clients (each with one request in flight).
        clients: u64,
        /// Think time between a completion and the client's next request,
        /// in milliseconds.
        think_ms: f64,
    },
}

/// A deterministic, seeded traffic trace specification.
///
/// The same spec always produces the same [`Request`] list: the vendored
/// `rand` shim's `StdRng` stream is stable across runs and platforms.
/// Closed-loop specs are deterministic too, given the (deterministic)
/// engine completions they are coupled to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficSpec {
    /// Number of requests to generate.
    pub requests: u64,
    /// Arrival process.
    pub arrival: ArrivalPattern,
    /// Prompt-length distribution (ignored — zero — for DiT engines).
    pub prompt: LenDist,
    /// Generation-step distribution.
    pub steps: LenDist,
    /// Cross-request prompt-content structure (shared system-prompt
    /// heads). Assigned deterministically outside the RNG stream, so
    /// [`PrefixTraffic::None`] leaves traces bit-identical to pre-prefix
    /// traffic.
    pub prefix: PrefixTraffic,
    /// RNG seed; equal seeds give identical traces.
    pub seed: u64,
}

impl TrafficSpec {
    /// Checks the spec is runnable.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for zero requests, an empty length
    /// range, an open-loop rate that is not finite and positive, zero
    /// closed-loop clients, or a negative or non-finite think time.
    pub(crate) fn validate(&self) -> Result<()> {
        self.prompt.validate()?;
        self.steps.validate()?;
        self.prefix.validate()?;
        if self.requests == 0 {
            return Err(Error::invalid_config("traffic spec generates no requests"));
        }
        if let ArrivalPattern::OpenLoop { rate_rps }
        | ArrivalPattern::OpenLoopSessions { rate_rps, .. } = self.arrival
        {
            if !(rate_rps.is_finite() && rate_rps > 0.0) {
                return Err(Error::invalid_config(format!(
                    "open-loop traffic needs a finite positive rate, got {rate_rps} req/s"
                )));
            }
        }
        if let ArrivalPattern::ClosedLoop { clients, think_ms } = &self.arrival {
            if *clients == 0 {
                return Err(Error::invalid_config(
                    "closed-loop traffic needs >= 1 client",
                ));
            }
            if !(think_ms.is_finite() && *think_ms >= 0.0) {
                return Err(Error::invalid_config(
                    "think time must be finite and non-negative",
                ));
            }
        }
        if let ArrivalPattern::Trace { records } = &self.arrival {
            if records.len() as u64 != self.requests {
                return Err(Error::invalid_config(format!(
                    "trace spec declares {} requests but carries {} records",
                    self.requests,
                    records.len()
                )));
            }
            for w in records.windows(2) {
                if w[1].t_s < w[0].t_s {
                    return Err(Error::invalid_config(
                        "trace records must be in nondecreasing arrival order",
                    ));
                }
            }
            if records.iter().any(|r| !r.t_s.is_finite() || r.t_s < 0.0) {
                return Err(Error::invalid_config(
                    "trace arrivals must be finite and non-negative",
                ));
            }
        }
        if let &ArrivalPattern::Diurnal {
            peak_rps,
            day_s,
            burst_x,
            bursts,
        } = &self.arrival
        {
            if !(peak_rps.is_finite() && peak_rps > 0.0) {
                return Err(Error::invalid_config(
                    "diurnal traffic needs a finite positive peak rate",
                ));
            }
            if !(day_s.is_finite() && day_s > 0.0) {
                return Err(Error::invalid_config(
                    "diurnal traffic needs a finite positive day length",
                ));
            }
            if !(burst_x.is_finite() && burst_x >= 1.0) {
                return Err(Error::invalid_config(
                    "diurnal burst multiplier must be finite and >= 1",
                ));
            }
            if bursts > 24 {
                return Err(Error::invalid_config(
                    "diurnal traffic supports at most 24 burst hours",
                ));
            }
        }
        Ok(())
    }

    /// Checks that every request carries a prompt, as an engine with a
    /// prefill phase (an LLM) needs: no trace record with `prompt: 0`
    /// and, for sampled traffic, no prompt distribution that can draw 0.
    /// A trace spec's own `prompt` distribution is a placeholder and is
    /// not read. DiT engines ignore prompts and skip this check.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] naming the first empty prompt.
    pub fn validate_prompts(&self) -> Result<()> {
        let empty = match (&self.arrival, self.prompt) {
            (ArrivalPattern::Trace { records }, _) => records
                .iter()
                .position(|r| r.prompt == 0)
                .map(|i| format!("trace request {i} has an empty prompt")),
            (_, dist @ (LenDist::Fixed(0) | LenDist::Uniform { lo: 0, .. })) => {
                Some(format!("prompt length {dist:?} can draw an empty prompt"))
            }
            _ => None,
        };
        match empty {
            Some(what) => Err(Error::invalid_config(format!(
                "{what}; an LLM engine prefills at least one prompt token"
            ))),
            None => Ok(()),
        }
    }

    /// Materializes the request trace, sorted by arrival time: the
    /// spec's per-request sampler ([`ArrivalStream`] draws from the same
    /// one lazily, a request at a time), collected.
    ///
    /// Closed-loop arrival times depend on service progress, so a
    /// closed-loop spec cannot be materialized up front: drive an
    /// [`ArrivalStream`] instead. This method returns the closed-loop
    /// requests with all arrivals at t = 0 (useful only for inspecting the
    /// sampled lengths).
    pub fn generate(&self) -> Vec<Request> {
        self.sampler().collect()
    }

    /// The spec's requests in id order, each drawn when it is asked for.
    pub(crate) fn sampler(&self) -> Sampler<'_> {
        Sampler {
            spec: self,
            rng: StdRng::seed_from_u64(self.seed),
            t: 0.0,
            next: 0,
        }
    }
}

/// The one per-request sampler: draws a [`TrafficSpec`]'s requests one at
/// a time, in id order. Sampled traffic spends, per request, the arrival
/// draw of its pattern, then the session draw (session pools only), then
/// the prompt and step draws, and assigns the prompt prefix outside the
/// RNG stream. A trace spec reads its records by index and draws nothing.
#[derive(Debug, Clone)]
pub(crate) struct Sampler<'a> {
    spec: &'a TrafficSpec,
    rng: StdRng,
    /// Arrival time of the next sampled request.
    t: f64,
    /// Id of the next request.
    next: u64,
}

impl Sampler<'_> {
    /// Requests the sampler yields: a trace's records, or the spec's
    /// request budget.
    fn total(&self) -> u64 {
        match &self.spec.arrival {
            ArrivalPattern::Trace { records } => records.len() as u64,
            _ => self.spec.requests,
        }
    }

    /// Draws the next request. A closed-loop request arrives at t = 0 in
    /// its own session; its stream sets both.
    fn draw(&mut self) -> Request {
        let spec = self.spec;
        let id = self.next;
        self.next += 1;
        if let ArrivalPattern::Trace { records } = &spec.arrival {
            // Replay verbatim: the trace already carries every sampled
            // field, so the RNG is never touched.
            let r = &records[id as usize];
            return Request {
                id,
                arrival_s: r.t_s,
                prompt_len: r.prompt,
                steps: r.steps.max(1),
                session: r.session,
                tenant: r.tenant,
                class: r.class,
                prefix: spec.prefix.assign(spec.seed, id, r.prompt),
            };
        }
        let arrival_s = self.t;
        let mut session = id;
        match spec.arrival {
            ArrivalPattern::OpenLoop { rate_rps } => {
                self.t += exp_interarrival(&mut self.rng, rate_rps);
            }
            ArrivalPattern::OpenLoopSessions { rate_rps, sessions } => {
                self.t += exp_interarrival(&mut self.rng, rate_rps);
                session = self.rng.gen_range(0..sessions.max(1));
            }
            ArrivalPattern::Diurnal {
                peak_rps,
                day_s,
                burst_x,
                bursts,
            } => {
                self.t =
                    diurnal_next_arrival(&mut self.rng, self.t, peak_rps, day_s, burst_x, bursts);
            }
            ArrivalPattern::Burst
            | ArrivalPattern::Trace { .. }
            | ArrivalPattern::ClosedLoop { .. } => {}
        }
        let prompt_len = spec.prompt.sample(&mut self.rng);
        Request {
            id,
            arrival_s,
            prompt_len,
            steps: spec.steps.sample(&mut self.rng).max(1),
            session,
            tenant: 0,
            class: SloClass::Standard,
            prefix: spec.prefix.assign(spec.seed, id, prompt_len),
        }
    }
}

impl Iterator for Sampler<'_> {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        (self.next < self.total()).then(|| self.draw())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.total() - self.next) as usize;
        (left, Some(left))
    }
}

/// Inverse-CDF exponential sample; `gen_range` over [0, 1) never returns
/// 1, so the log argument is > 0.
fn exp_interarrival(rng: &mut StdRng, rate_rps: f64) -> f64 {
    let u: f64 = rng.gen_range(0.0..1.0);
    -(1.0 - u).ln() / rate_rps
}

/// The committed diurnal load shape: relative arrival rate per hour of a
/// simulated day, normalized so the 17:00 peak is 1.0 and the 04:00–05:00
/// trough is 0.12 (a typical consumer-serving day: quiet overnight, a
/// morning ramp, a plateau through working hours, an evening peak). Every
/// value is strictly positive, so the non-homogeneous sampler below never
/// sees a zero-rate segment.
pub const DIURNAL_CURVE: [f64; 24] = [
    0.35, 0.25, 0.18, 0.14, 0.12, 0.12, 0.16, 0.24, // 00:00 – 07:00
    0.38, 0.55, 0.70, 0.80, 0.85, 0.82, 0.78, 0.80, // 08:00 – 15:00
    0.88, 1.00, 0.98, 0.90, 0.78, 0.65, 0.52, 0.42, // 16:00 – 23:00
];

/// Whether hour `h` (0..24) of the day is one of the `bursts` burst hours
/// (burst `j` covers hour `j * 24 / bursts`, spreading them evenly).
fn diurnal_is_burst_hour(h: u64, bursts: u64) -> bool {
    (0..bursts).any(|j| j * 24 / bursts.max(1) == h)
}

/// Instantaneous diurnal rate during (absolute) hour slot `slot`.
fn diurnal_rate(slot: u64, peak_rps: f64, burst_x: f64, bursts: u64) -> f64 {
    let h = slot % 24;
    let burst = if diurnal_is_burst_hour(h, bursts) {
        burst_x
    } else {
        1.0
    };
    peak_rps * DIURNAL_CURVE[h as usize] * burst
}

/// Next arrival of the non-homogeneous Poisson process with the diurnal
/// rate profile, by exact inversion: draw an Exp(1) "area" with a single
/// uniform (the same draw shape as [`exp_interarrival`]), then integrate
/// the piecewise-constant rate λ(t) forward from `now` until the
/// accumulated area is spent. Returns the absolute arrival time.
fn diurnal_next_arrival(
    rng: &mut StdRng,
    now: f64,
    peak_rps: f64,
    day_s: f64,
    burst_x: f64,
    bursts: u64,
) -> f64 {
    let u: f64 = rng.gen_range(0.0..1.0);
    let mut area = -(1.0 - u).ln();
    let hour_len = day_s / 24.0;
    // Walk hour slots by index (not by repeatedly re-deriving the slot
    // from t), so each iteration makes progress even when a float
    // boundary lands exactly on t.
    let mut slot = (now / hour_len).floor().max(0.0) as u64;
    let mut t = now;
    loop {
        let rate = diurnal_rate(slot, peak_rps, burst_x, bursts);
        let boundary = (slot + 1) as f64 * hour_len;
        let span = (boundary - t).max(0.0);
        if rate * span >= area {
            return t + area / rate;
        }
        area -= rate * span;
        t = boundary;
        slot += 1;
    }
}

/// The incremental face of a [`TrafficSpec`]: requests are pulled one at a
/// time in arrival order, which lets a driver route each request as it
/// arrives (cluster serving) and lets closed-loop clients couple their
/// next arrival to a completion.
///
/// Every request is drawn lazily from the spec's one per-request sampler
/// (the one [`TrafficSpec::generate`] collects), so the stream holds
/// `O(1)` requests however long the run. Open-loop, diurnal, burst and
/// trace streams keep exactly one request drawn ahead, for
/// [`ArrivalStream::peek`], and issue exactly the sequence `generate`
/// returns; a trace stream reads the spec's records by index.
/// Closed-loop streams draw each request's lengths in issue order, and
/// [`ArrivalStream::on_complete`] schedules the issuing client's next
/// request. Equal specs driven by equal engines produce identical request
/// sequences.
#[derive(Debug, Clone)]
pub struct ArrivalStream<'a> {
    sampler: Sampler<'a>,
    /// The next request of an open-loop, diurnal, burst or trace stream;
    /// `None` for closed loop and once the stream is exhausted.
    ahead: Option<Request>,
    /// Requests issued so far (the next request id).
    issued: u64,
    total: u64,
    closed_loop: Option<ClosedLoopState>,
}

#[derive(Debug, Clone)]
struct ClosedLoopState {
    think: Seconds,
    /// Per-client next-issue time; `None` while a request is in flight
    /// (or once the request budget is spent).
    ready: Vec<Option<Seconds>>,
    /// Mirror of the `Some` entries of `ready`, ordered by (time, client):
    /// a client's entry is pushed when it becomes ready and popped only
    /// when it issues, so the heap never holds stale entries and the next
    /// issuer is an `O(1)` peek instead of an `O(clients)` scan. Ties
    /// break toward the lowest client index, matching the scan the loop
    /// used before.
    queue: BinaryHeap<Reverse<(EventKey, usize)>>,
    /// Issuing client of each in-flight request, by request id.
    in_flight: FxHashMap<u64, u64>,
}

impl<'a> ArrivalStream<'a> {
    /// Opens the stream for `spec`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the spec fails
    /// `TrafficSpec::validate`.
    pub fn new(spec: &'a TrafficSpec) -> Result<Self> {
        spec.validate()?;
        let mut sampler = spec.sampler();
        let (ahead, closed_loop) = match spec.arrival {
            ArrivalPattern::ClosedLoop { clients, think_ms } => {
                // Every client is ready at t = 0 (but never more clients
                // than the request budget).
                let live = clients.min(spec.requests) as usize;
                let state = ClosedLoopState {
                    think: Seconds::from_millis(think_ms),
                    ready: vec![Some(Seconds::ZERO); live],
                    queue: (0..live)
                        .map(|c| Reverse((EventKey::new(Seconds::ZERO), c)))
                        .collect(),
                    in_flight: FxHashMap::default(),
                };
                (None, Some(state))
            }
            // A valid spec offers at least one request.
            _ => (Some(sampler.draw()), None),
        };
        Ok(ArrivalStream {
            sampler,
            ahead,
            issued: 0,
            total: spec.requests,
            closed_loop,
        })
    }

    /// Arrival time of the next request, or `None` when the stream is
    /// exhausted or every closed-loop client is waiting on a completion.
    pub fn peek(&self) -> Option<Seconds> {
        if self.issued >= self.total {
            return None;
        }
        match &self.closed_loop {
            None => self.ahead.map(|r| r.arrival()),
            Some(cl) => cl
                .queue
                .peek()
                .map(|&Reverse((_, c))| cl.ready[c].expect("queued clients are ready")),
        }
    }

    /// Issues the next request.
    ///
    /// # Panics
    ///
    /// Panics if [`ArrivalStream::peek`] is `None`.
    pub fn pop(&mut self) -> Request {
        assert!(self.issued < self.total, "arrival stream exhausted");
        let id = self.issued;
        self.issued += 1;
        match &mut self.closed_loop {
            None => {
                let next = (self.issued < self.total).then(|| self.sampler.draw());
                std::mem::replace(&mut self.ahead, next).expect("drawn one ahead")
            }
            Some(cl) => {
                // The ready client with the earliest issue time (ties pick
                // the lowest client index, keeping issue order stable).
                let Reverse((_, client)) =
                    cl.queue.pop().expect("pop called while no client is ready");
                let at = cl.ready[client].take().expect("queued clients are ready");
                cl.in_flight.insert(id, client as u64);
                Request {
                    arrival_s: at.get(),
                    session: client as u64,
                    ..self.sampler.draw()
                }
            }
        }
    }

    /// Feeds a completion back into the stream. Closed-loop clients
    /// schedule their next request at `finish + think`; open-loop and
    /// burst streams ignore completions.
    pub fn on_complete(&mut self, completion: &Completion) {
        let Some(cl) = &mut self.closed_loop else {
            return;
        };
        let Some(client) = cl.in_flight.remove(&completion.id) else {
            return;
        };
        if self.issued < self.total {
            let at = completion.finish + cl.think;
            cl.ready[client as usize] = Some(at);
            cl.queue.push(Reverse((EventKey::new(at), client as usize)));
        }
    }

    /// Whether every request has been issued.
    pub fn exhausted(&self) -> bool {
        self.issued >= self.total
    }

    /// Requests the spec offers in total.
    pub fn total(&self) -> u64 {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn spec(seed: u64) -> TrafficSpec {
        TrafficSpec {
            requests: 50,
            arrival: ArrivalPattern::OpenLoop { rate_rps: 10.0 },
            prompt: LenDist::Uniform { lo: 64, hi: 256 },
            steps: LenDist::Fixed(32),
            prefix: PrefixTraffic::None,
            seed,
        }
    }

    #[test]
    fn traces_are_deterministic_per_seed() {
        assert_eq!(spec(7).generate(), spec(7).generate());
        assert_ne!(spec(7).generate(), spec(8).generate());
    }

    #[test]
    fn arrivals_are_sorted_and_start_at_zero() {
        let trace = spec(3).generate();
        assert_eq!(trace[0].arrival_s, 0.0);
        assert!(trace.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
        assert!(trace.iter().all(|r| (64..=256).contains(&r.prompt_len)));
        // Plain open loop: one session per request.
        assert!(trace.iter().all(|r| r.session == r.id));
    }

    #[test]
    fn burst_arrivals_all_at_zero() {
        let spec = TrafficSpec {
            arrival: ArrivalPattern::Burst,
            ..spec(1)
        };
        assert!(spec.generate().iter().all(|r| r.arrival_s == 0.0));
    }

    #[test]
    fn open_loop_rate_roughly_matched() {
        let trace = TrafficSpec {
            requests: 2000,
            ..spec(42)
        }
        .generate();
        let span = trace.last().unwrap().arrival_s;
        let rate = (trace.len() - 1) as f64 / span;
        assert!((7.0..13.0).contains(&rate), "empirical rate {rate:.2} rps");
    }

    #[test]
    fn session_pool_draws_within_bounds() {
        let spec = TrafficSpec {
            arrival: ArrivalPattern::OpenLoopSessions {
                rate_rps: 10.0,
                sessions: 4,
            },
            ..spec(9)
        };
        let trace = spec.generate();
        assert!(trace.iter().all(|r| r.session < 4));
        // With 50 draws over 4 sessions, every session appears.
        for s in 0..4 {
            assert!(
                trace.iter().any(|r| r.session == s),
                "session {s} never drawn"
            );
        }
    }

    #[test]
    fn shared_heads_agree_token_for_token_and_only_there() {
        let spec = TrafficSpec {
            prefix: PrefixTraffic::SharedHead {
                tokens: 48,
                groups: 2,
            },
            ..spec(5)
        };
        let trace = spec.generate();
        // Round-robin group assignment: ids 0 and 2 share a head, 0 and 1
        // do not.
        let (a, b, c) = (&trace[0], &trace[2], &trace[1]);
        assert_eq!(a.prefix, b.prefix);
        assert_ne!(a.prefix.head_seed, c.prefix.head_seed);
        assert_eq!(a.prefix.head_len, 48);
        let (ta, tb, tc) = (a.prompt_tokens(), b.prompt_tokens(), c.prompt_tokens());
        assert_eq!(ta.len() as u64, a.prompt_len);
        assert_eq!(&ta[..48], &tb[..48], "shared heads agree token-for-token");
        assert_ne!(ta[48], tb[48], "tails are unique");
        assert_ne!(&ta[..48], &tc[..48], "different groups differ");
        // Prompt lengths and steps are untouched by the prefix knob: the
        // RNG stream never sees it.
        let plain = spec_prefixless(&spec).generate();
        for (with, without) in trace.iter().zip(&plain) {
            assert_eq!(
                (with.id, with.prompt_len, with.steps, with.arrival_s),
                (
                    without.id,
                    without.prompt_len,
                    without.steps,
                    without.arrival_s
                )
            );
        }
    }

    fn spec_prefixless(s: &TrafficSpec) -> TrafficSpec {
        TrafficSpec {
            prefix: PrefixTraffic::None,
            ..s.clone()
        }
    }

    #[test]
    fn head_clamps_to_prompt_length() {
        let spec = TrafficSpec {
            prompt: LenDist::Fixed(16),
            prefix: PrefixTraffic::SharedHead {
                tokens: 999,
                groups: 1,
            },
            ..spec(5)
        };
        let trace = spec.generate();
        assert!(trace.iter().all(|r| r.prefix.head_len == 16));
        // Whole prompts identical across requests.
        assert_eq!(trace[0].prompt_tokens(), trace[1].prompt_tokens());
    }

    #[test]
    fn unique_prompts_never_collide() {
        let trace = spec(3).generate();
        assert!(trace.iter().all(|r| r.prefix == PromptPrefix::UNIQUE));
        let t0 = trace[0].prompt_tokens();
        let t1 = trace[1].prompt_tokens();
        assert_ne!(t0[0], t1[0], "unique streams diverge from token 0");
    }

    #[test]
    fn validation_rejects_bad_prefix_knob() {
        for bad in [
            PrefixTraffic::SharedHead {
                tokens: 0,
                groups: 2,
            },
            PrefixTraffic::SharedHead {
                tokens: 8,
                groups: 0,
            },
        ] {
            assert!(TrafficSpec {
                prefix: bad,
                ..spec(1)
            }
            .validate()
            .is_err());
        }
        TrafficSpec {
            prefix: PrefixTraffic::SharedHead {
                tokens: 8,
                groups: 2,
            },
            ..spec(1)
        }
        .validate()
        .unwrap();
    }

    fn diurnal(seed: u64) -> TrafficSpec {
        TrafficSpec {
            requests: 4000,
            arrival: ArrivalPattern::Diurnal {
                peak_rps: 2000.0,
                day_s: 2.4, // hour_len = 0.1 s: ~2700 requests per day
                burst_x: 1.0,
                bursts: 0,
            },
            prompt: LenDist::Uniform { lo: 8, hi: 64 },
            steps: LenDist::Fixed(4),
            prefix: PrefixTraffic::None,
            seed,
        }
    }

    /// Requests whose arrival falls in hour `h` of day 0 (hour_len from
    /// the spec's `day_s`).
    fn in_hour(trace: &[Request], day_s: f64, h: u64) -> usize {
        let hour_len = day_s / 24.0;
        let (lo, hi) = (h as f64 * hour_len, (h + 1) as f64 * hour_len);
        trace
            .iter()
            .filter(|r| r.arrival_s >= lo && r.arrival_s < hi)
            .count()
    }

    #[test]
    fn diurnal_traces_are_deterministic_sorted_and_breathe() {
        let trace = diurnal(7).generate();
        assert_eq!(trace, diurnal(7).generate());
        assert_ne!(trace, diurnal(8).generate());
        assert_eq!(trace[0].arrival_s, 0.0);
        assert!(trace.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
        // The trace spans more than a day, so day-0 hours are fully
        // populated: the 17:00 peak must see several times the 04:00-05:00
        // trough (rate ratio 1.0 / 0.12 ≈ 8.3; a 2.5x floor is robust to
        // sampling noise at these counts).
        assert!(trace.last().unwrap().arrival_s > 2.4, "trace spans a day");
        let peak = in_hour(&trace, 2.4, 17);
        let trough = in_hour(&trace, 2.4, 4) + in_hour(&trace, 2.4, 5);
        assert!(
            peak as f64 > 2.5 * (trough as f64 / 2.0).max(1.0),
            "peak hour {peak} vs trough hours {trough}"
        );
    }

    #[test]
    fn diurnal_burst_hours_multiply_the_rate() {
        let calm = diurnal(11).generate();
        let bursty = TrafficSpec {
            arrival: ArrivalPattern::Diurnal {
                peak_rps: 2000.0,
                day_s: 2.4,
                burst_x: 4.0,
                bursts: 1, // burst hour 0 only
            },
            ..diurnal(11)
        }
        .generate();
        let (base, boosted) = (in_hour(&calm, 2.4, 0), in_hour(&bursty, 2.4, 0));
        let ratio = boosted as f64 / base.max(1) as f64;
        assert!((2.5..6.0).contains(&ratio), "burst ratio {ratio:.2}");
    }

    #[test]
    fn diurnal_draws_one_uniform_per_arrival_like_open_loop() {
        // The sampler spends exactly one uniform per arrival (then prompt,
        // then steps), so everything *except* arrival times matches the
        // plain open-loop trace from the same seed — the guarantee that
        // adding Diurnal perturbed no existing RNG stream shape.
        let diurnal = diurnal(5).generate();
        let open = TrafficSpec {
            arrival: ArrivalPattern::OpenLoop { rate_rps: 2000.0 },
            ..self::diurnal(5)
        }
        .generate();
        for (d, o) in diurnal.iter().zip(&open) {
            assert_eq!(
                (d.id, d.prompt_len, d.steps, d.session),
                (o.id, o.prompt_len, o.steps, o.session)
            );
        }
    }

    #[test]
    fn diurnal_validation_rejects_bad_profiles() {
        let with = |arrival| TrafficSpec {
            arrival,
            ..diurnal(1)
        };
        for bad in [
            ArrivalPattern::Diurnal {
                peak_rps: 0.0,
                day_s: 2.4,
                burst_x: 1.0,
                bursts: 0,
            },
            ArrivalPattern::Diurnal {
                peak_rps: f64::NAN,
                day_s: 2.4,
                burst_x: 1.0,
                bursts: 0,
            },
            ArrivalPattern::Diurnal {
                peak_rps: 1.0,
                day_s: 0.0,
                burst_x: 1.0,
                bursts: 0,
            },
            ArrivalPattern::Diurnal {
                peak_rps: 1.0,
                day_s: 2.4,
                burst_x: 0.5,
                bursts: 1,
            },
            ArrivalPattern::Diurnal {
                peak_rps: 1.0,
                day_s: 2.4,
                burst_x: 2.0,
                bursts: 25,
            },
        ] {
            assert!(
                with(bad.clone()).validate().is_err(),
                "{bad:?} should be rejected"
            );
        }
        with(ArrivalPattern::Diurnal {
            peak_rps: 1.0,
            day_s: 2.4,
            burst_x: 2.0,
            bursts: 3,
        })
        .validate()
        .unwrap();
    }

    #[test]
    fn validation_rejects_bad_specs() {
        assert!(TrafficSpec {
            requests: 0,
            ..spec(1)
        }
        .validate()
        .is_err());
        assert!(TrafficSpec {
            prompt: LenDist::Uniform { lo: 9, hi: 3 },
            ..spec(1)
        }
        .validate()
        .is_err());
        assert!(TrafficSpec {
            arrival: ArrivalPattern::ClosedLoop {
                clients: 0,
                think_ms: 1.0
            },
            ..spec(1)
        }
        .validate()
        .is_err());
        assert!(TrafficSpec {
            arrival: ArrivalPattern::ClosedLoop {
                clients: 2,
                think_ms: -1.0
            },
            ..spec(1)
        }
        .validate()
        .is_err());
        for rate_rps in [0.0, -5.0, f64::NAN, f64::INFINITY] {
            for arrival in [
                ArrivalPattern::OpenLoop { rate_rps },
                ArrivalPattern::OpenLoopSessions {
                    rate_rps,
                    sessions: 4,
                },
            ] {
                let bad = TrafficSpec { arrival, ..spec(1) };
                assert!(
                    matches!(bad.validate(), Err(Error::InvalidConfig(_))),
                    "{:?} must be rejected",
                    bad.arrival
                );
            }
        }
    }

    #[test]
    fn non_finite_think_time_is_a_typed_error() {
        for think_ms in [f64::NAN, f64::INFINITY] {
            let bad = TrafficSpec {
                arrival: ArrivalPattern::ClosedLoop {
                    clients: 2,
                    think_ms,
                },
                ..spec(1)
            };
            assert!(
                matches!(bad.validate(), Err(Error::InvalidConfig(_))),
                "think time {think_ms} must be rejected"
            );
        }
    }

    #[test]
    fn open_stream_matches_generate() {
        let spec = spec(11);
        let mut stream = ArrivalStream::new(&spec).unwrap();
        let trace = spec.generate();
        for r in &trace {
            assert_eq!(stream.peek(), Some(r.arrival()));
            assert_eq!(stream.pop(), *r);
        }
        assert!(stream.exhausted());
        assert_eq!(stream.peek(), None);
    }

    /// Pops `spec`'s stream dry, checking each `peek` against the pop
    /// that follows it.
    fn drain(spec: &TrafficSpec) -> Vec<Request> {
        let mut stream = ArrivalStream::new(spec).unwrap();
        let mut out = Vec::new();
        while let Some(at) = stream.peek() {
            let r = stream.pop();
            assert_eq!(
                at.get().to_bits(),
                r.arrival_s.to_bits(),
                "peek announces the pop"
            );
            out.push(r);
        }
        assert!(stream.exhausted());
        out
    }

    /// Requests as bits: `Request`'s `PartialEq` would equate 0.0 and -0.0.
    fn bits(rs: &[Request]) -> Vec<(Request, u64)> {
        rs.iter().map(|r| (*r, r.arrival_s.to_bits())).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The lazily drawn stream issues exactly `generate()`'s sequence,
        /// bit for bit, for every open-loop shape and for a trace (with
        /// tenants and classes), with and without shared prompt heads.
        #[test]
        fn stream_matches_generate(
            seed in any::<u64>(),
            requests in 1u64..400,
            rate in 1.0f64..100_000.0,
            shape in 0u64..5,
            shared in any::<bool>(),
        ) {
            let base = TrafficSpec {
                requests,
                arrival: ArrivalPattern::OpenLoop { rate_rps: rate },
                prompt: LenDist::Uniform { lo: 1, hi: 96 },
                steps: LenDist::Uniform { lo: 0, hi: 9 },
                prefix: if shared {
                    PrefixTraffic::SharedHead { tokens: 32, groups: seed % 5 + 1 }
                } else {
                    PrefixTraffic::None
                },
                seed,
            };
            let arrival = match shape {
                0 => base.arrival.clone(),
                1 => ArrivalPattern::OpenLoopSessions { rate_rps: rate, sessions: seed % 9 + 1 },
                2 => ArrivalPattern::Diurnal {
                    peak_rps: rate,
                    day_s: requests as f64 / rate,
                    burst_x: 3.0,
                    bursts: seed % 25,
                },
                3 => ArrivalPattern::Burst,
                _ => {
                    let mut records = crate::synthesize(&base).unwrap();
                    let classes = [SloClass::Interactive, SloClass::Standard, SloClass::Batch];
                    for (i, r) in records.iter_mut().enumerate() {
                        r.tenant = (i % 3) as u32;
                        r.class = classes[i % 3];
                        r.steps = i as u64 % 4; // zero steps clamp to one
                    }
                    ArrivalPattern::Trace { records }
                }
            };
            let spec = TrafficSpec { arrival, ..base };
            let want = spec.generate();
            prop_assert_eq!(want.len() as u64, requests);
            prop_assert_eq!(bits(&drain(&spec)), bits(&want));
        }
    }

    #[test]
    fn closed_loop_stream_couples_to_completions() {
        let spec = TrafficSpec {
            requests: 5,
            arrival: ArrivalPattern::ClosedLoop {
                clients: 2,
                think_ms: 100.0,
            },
            prompt: LenDist::Fixed(8),
            steps: LenDist::Fixed(4),
            prefix: PrefixTraffic::None,
            seed: 3,
        };
        let mut stream = ArrivalStream::new(&spec).unwrap();
        // Both clients issue at t = 0, lowest client first.
        let a = stream.pop();
        let b = stream.pop();
        assert_eq!((a.id, a.session, a.arrival_s), (0, 0, 0.0));
        assert_eq!((b.id, b.session, b.arrival_s), (1, 1, 0.0));
        // No client ready until a completion feeds back.
        assert_eq!(stream.peek(), None);
        assert!(!stream.exhausted());
        stream.on_complete(&Completion {
            id: 1,
            arrival: Seconds::ZERO,
            first_token: Seconds::new(0.5),
            finish: Seconds::new(1.0),
            steps: 4,
        });
        // Client 1 thinks for 100 ms and issues request 2.
        assert_eq!(stream.peek(), Some(Seconds::new(1.1)));
        let c = stream.pop();
        assert_eq!((c.id, c.session), (2, 1));
        assert!((c.arrival_s - 1.1).abs() < 1e-12);
    }

    #[test]
    fn closed_loop_caps_clients_at_request_budget() {
        let spec = TrafficSpec {
            requests: 2,
            arrival: ArrivalPattern::ClosedLoop {
                clients: 8,
                think_ms: 0.0,
            },
            prompt: LenDist::Fixed(8),
            steps: LenDist::Fixed(4),
            prefix: PrefixTraffic::None,
            seed: 3,
        };
        let mut stream = ArrivalStream::new(&spec).unwrap();
        stream.pop();
        stream.pop();
        assert!(stream.exhausted());
        assert_eq!(stream.peek(), None);
    }
}
