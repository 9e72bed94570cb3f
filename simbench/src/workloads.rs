//! The benchmark's four workloads: how each is built from a seed, run
//! once, and reduced to a digest of its simulated output.
//!
//! One *repetition* of a workload builds its inputs from scratch (the
//! set-up), then makes one timed call into the simulator. Every
//! repetition starts with empty pricing caches: fleets build fresh
//! replica sessions and every design point gets a fresh `Simulator`.

use cimtpu_cim::{CimCoreConfig, CimMxuConfig};
use cimtpu_cluster::scenario::{self, Scenario};
use cimtpu_cluster::RouterPolicy;
use cimtpu_cluster::{ClusterEngine, ClusterRun, ClusterTopology, InterconnectSpec, ReplicaSpec};
use cimtpu_core::{inference, MxuKind, Simulator, TpuConfig};
use cimtpu_models::{presets, DitConfig, LlmInferenceSpec, TransformerConfig};
use cimtpu_serving::{
    ArrivalPattern, BatchPolicy, Completion, EngineSession, LenDist, MemoryConfig, PrefixTraffic,
    ServingModel, TrafficSpec,
};
use cimtpu_units::{Bandwidth, Bytes, Error, Result};

/// Requests offered per `fleet-day` repetition (`cluster-day`'s
/// 100-replica fleet and 1000 clients, at 1/100 of its request count).
pub const FLEET_DAY_REQUESTS: u64 = 100_000;
/// Requests offered per `fleet-elastic` repetition (about two compressed
/// diurnal days of the `cluster-diurnal-autoscale` group).
pub const FLEET_ELASTIC_REQUESTS: u64 = 60_000;
/// Requests offered per `disagg-kv` repetition.
pub const DISAGG_REQUESTS: u64 = 200_000;
/// Open-loop arrival rate of `disagg-kv`, past the decode pool's KV
/// capacity so admission gating queues work.
pub const DISAGG_RATE_RPS: f64 = 120_000.0;
/// Seeded CIM geometries per `design-sweep` repetition, on top of the
/// ten Table IV points.
pub const GRID_POINTS: usize = 256;
/// Simulated requests one design point serves: a batch of 8 LLM requests
/// (GPT-3-30B, 1024 in / 512 out) plus a batch of 8 DiT-XL/2 images.
pub const REQUESTS_PER_POINT: u64 = 16;
/// Table IV design points (the baseline plus nine CIM variants).
pub const TABLE4_POINTS: usize = 10;

const BATCH: u64 = 8;
const INPUT_LEN: u64 = 1024;
const OUTPUT_LEN: u64 = 512;
const DIT_RESOLUTION: u64 = 512;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `cluster-day`'s fleet at [`FLEET_DAY_REQUESTS`].
    FleetDay,
    /// The elastic `cluster-diurnal-autoscale` group over several days.
    FleetElastic,
    /// A tiny disaggregated fleet under decode KV pressure.
    DisaggKv,
    /// The paper's design-space exploration plus a seeded geometry grid.
    DesignSweep,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::FleetDay,
        Workload::FleetElastic,
        Workload::DisaggKv,
        Workload::DesignSweep,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetDay => "fleet-day",
            Workload::FleetElastic => "fleet-elastic",
            Workload::DisaggKv => "disagg-kv",
            Workload::DesignSweep => "design-sweep",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A workload's inputs, built from a seed.
pub enum Prepared {
    /// A fleet and the traffic it serves.
    Fleet(Box<Scenario>),
    /// A list of design points.
    Sweep(Box<Sweep>),
}

/// What one timed call produced.
pub enum Output {
    /// A fleet run.
    Fleet(Box<ClusterRun>),
    /// One row per design point, in point order.
    Sweep(Vec<PointRow>),
}

/// The simulated work a repetition represents.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Work {
    /// Operations attempted: requests offered, or design points.
    pub ops: u64,
    /// Simulated requests completed.
    pub sim_requests: u64,
    /// Design points fully evaluated (a fleet run is one fleet design).
    pub design_points: u64,
}

/// Builds a workload's inputs from `seed`, including every replica's
/// chip configuration (each replica session is instantiated once and
/// dropped, as the fleet driver will rebuild it cold).
///
/// # Errors
///
/// Propagates invalid scenario or chip configurations.
pub fn setup(workload: Workload, seed: u64) -> Result<Prepared> {
    let scenario = match workload {
        Workload::FleetDay => fleet_day(seed),
        Workload::FleetElastic => fleet_elastic(seed, false)?,
        Workload::DisaggKv => disagg_kv(seed)?,
        Workload::DesignSweep => return Sweep::new(seed).map(|s| Prepared::Sweep(Box::new(s))),
    };
    for spec in replicas(&scenario.engine) {
        std::hint::black_box(EngineSession::new(&spec.engine()?)?);
    }
    Ok(Prepared::Fleet(Box::new(scenario)))
}

/// Makes the workload's one timed call.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn run(prepared: &Prepared) -> Result<Output> {
    match prepared {
        Prepared::Fleet(s) => s
            .engine
            .run(s.name, &s.traffic)
            .map(|r| Output::Fleet(Box::new(r))),
        Prepared::Sweep(sweep) => sweep.run().map(Output::Sweep),
    }
}

/// The simulated work `prepared` represents.
pub fn work(prepared: &Prepared) -> Work {
    match prepared {
        Prepared::Fleet(s) => Work {
            ops: s.traffic.requests,
            sim_requests: s.traffic.requests,
            design_points: 1,
        },
        Prepared::Sweep(sweep) => {
            let points = sweep.configs.len() as u64;
            Work {
                ops: points,
                sim_requests: points * REQUESTS_PER_POINT,
                design_points: points,
            }
        }
    }
}

/// Digest of a run's simulated output and whether it passes the
/// workload's invariants (every offered request completes once, with
/// ordered timestamps; every design point prices to finite, positive
/// figures).
pub fn check(prepared: &Prepared, output: &Output) -> (String, bool) {
    match (prepared, output) {
        (Prepared::Fleet(s), Output::Fleet(run)) => check_fleet(run, s.traffic.requests),
        (Prepared::Sweep(_), Output::Sweep(rows)) => check_sweep(rows),
        _ => (String::new(), false),
    }
}

/// [`check`] for a fleet run offered `offered` requests.
pub fn check_fleet(run: &ClusterRun, offered: u64) -> (String, bool) {
    (fleet_digest(run), fleet_invariants(run, offered))
}

/// [`check`] for a sweep's rows.
pub fn check_sweep(rows: &[PointRow]) -> (String, bool) {
    (sweep_digest(rows), rows.iter().all(PointRow::is_sane))
}

/// The `fleet-day` scenario: `cluster-day`'s fleet at
/// [`FLEET_DAY_REQUESTS`] closed-loop requests.
pub fn fleet_day(seed: u64) -> Scenario {
    let mut s = scenario::cluster_day_smoke();
    s.traffic.requests = FLEET_DAY_REQUESTS;
    s.traffic.seed = seed;
    s
}

/// The `fleet-elastic` scenario, or with `pinned_at_peak` the same
/// traffic on the group held at its six-replica peak all run.
///
/// # Errors
///
/// Fails only if the named scenarios disappear from the cluster crate.
pub fn fleet_elastic(seed: u64, pinned_at_peak: bool) -> Result<Scenario> {
    let name = if pinned_at_peak {
        "cluster-diurnal-static"
    } else {
        "cluster-diurnal-autoscale"
    };
    let mut s = scenario::by_name(name)?;
    s.traffic.requests = FLEET_ELASTIC_REQUESTS;
    s.traffic.seed = seed;
    Ok(s)
}

/// The `disagg-kv` scenario: 2 prefill + 4 decode tiny replicas, least-KV
/// decode placement, a 256 KiB decode KV budget, open-loop traffic past
/// the decode pool's KV capacity.
///
/// # Errors
///
/// Propagates fleet construction errors.
pub fn disagg_kv(seed: u64) -> Result<Scenario> {
    let tiny = || ServingModel::Llm(cimtpu_serving::scenario::tiny_transformer());
    let prefill = (0..2)
        .map(|i| {
            ReplicaSpec::new(format!("prefill-{i}"), TpuConfig::tpuv4i(), tiny())
                .with_policy(BatchPolicy::Continuous { max_batch: 4 })
        })
        .collect();
    let kv = MemoryConfig::unlimited()
        .with_budget_bytes(Bytes::from_kib(256))
        .with_block_tokens(16);
    let decode = (0..4)
        .map(|i| {
            ReplicaSpec::new(format!("decode-{i}"), TpuConfig::tpuv4i(), tiny())
                .with_policy(BatchPolicy::Continuous { max_batch: 8 })
                .with_memory(kv)
        })
        .collect();
    Ok(Scenario {
        name: "disagg-kv",
        description: "2 prefill + 4 decode tiny replicas, least-KV decode placement, \
                      256 KiB decode KV budget, open loop past decode KV capacity",
        engine: ClusterEngine::disaggregated(
            prefill,
            decode,
            RouterPolicy::RoundRobin,
            RouterPolicy::LeastKv,
            InterconnectSpec::ici(),
        )?,
        traffic: TrafficSpec {
            requests: DISAGG_REQUESTS,
            arrival: ArrivalPattern::OpenLoop {
                rate_rps: DISAGG_RATE_RPS,
            },
            prompt: LenDist::Uniform { lo: 16, hi: 64 },
            steps: LenDist::Uniform { lo: 4, hi: 12 },
            prefix: PrefixTraffic::None,
            seed,
        },
        tenants: None,
    })
}

/// Every replica spec of a fleet, both pools of a disaggregated one.
pub fn replicas(engine: &ClusterEngine) -> Vec<&ReplicaSpec> {
    match engine.topology() {
        ClusterTopology::Colocated { replicas, .. } => replicas.iter().collect(),
        ClusterTopology::Disaggregated {
            prefill, decode, ..
        } => prefill.iter().chain(decode).collect(),
    }
}

/// FNV-1a, 64 bit: a small, stable digest for pinned outputs.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// The empty digest.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Absorbs `bytes`.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Absorbs one 64-bit word.
    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    /// The digest as 16 hex digits.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

/// Digest of the per-request completions, bit for bit.
fn completions_digest(completions: &[Completion]) -> String {
    let mut h = Fnv::new();
    for c in completions {
        h.word(c.id);
        h.word(c.arrival.get().to_bits());
        h.word(c.first_token.get().to_bits());
        h.word(c.finish.get().to_bits());
        h.word(c.steps);
    }
    h.hex()
}

/// Digest of a fleet run: its `ClusterReport` JSON and every completion.
fn fleet_digest(run: &ClusterRun) -> String {
    let mut h = Fnv::new();
    h.bytes(report_json(run).as_bytes());
    h.bytes(completions_digest(&run.completions).as_bytes());
    h.hex()
}

/// The run's `ClusterReport` as JSON.
pub fn report_json(run: &ClusterRun) -> String {
    serde_json::to_string(&run.report).expect("cluster reports serialize")
}

fn fleet_invariants(run: &ClusterRun, offered: u64) -> bool {
    run.report.offered == offered
        && run.report.completed == offered
        && run.completions.len() as u64 == offered
        && run.completions.windows(2).all(|w| w[0].id < w[1].id)
        && run.completions.iter().all(|c| {
            c.arrival.get() <= c.first_token.get() && c.first_token.get() <= c.finish.get()
        })
}

/// One evaluated design point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointRow {
    /// Full GPT-3-30B inference latency (s).
    pub llm_latency_s: f64,
    /// Full GPT-3-30B inference MXU energy (J).
    pub llm_energy_j: f64,
    /// DiT-XL/2 forward latency (s).
    pub dit_latency_s: f64,
    /// DiT-XL/2 forward MXU energy (J).
    pub dit_energy_j: f64,
}

impl PointRow {
    fn fields(&self) -> [f64; 4] {
        [
            self.llm_latency_s,
            self.llm_energy_j,
            self.dit_latency_s,
            self.dit_energy_j,
        ]
    }

    fn is_sane(&self) -> bool {
        self.fields().iter().all(|v| v.is_finite() && *v > 0.0)
    }

    /// The row as a JSON array of its four figures.
    pub fn json(&self) -> String {
        let f = self.fields();
        format!("[{:?},{:?},{:?},{:?}]", f[0], f[1], f[2], f[3])
    }
}

/// Digest of a sweep's rows, bit for bit.
fn sweep_digest(rows: &[PointRow]) -> String {
    let mut h = Fnv::new();
    for row in rows {
        for v in row.fields() {
            h.word(v.to_bits());
        }
    }
    h.hex()
}

/// `splitmix64`: the seeded stream the geometry grid draws from.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A balanced column of `n` level indices over `levels` choices:
    /// every level appears equally often, in seeded order.
    fn balanced(&mut self, n: usize, levels: usize) -> Vec<usize> {
        let mut col: Vec<usize> = (0..n).map(|i| i % levels).collect();
        for i in (1..n).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            col.swap(i, j);
        }
        col
    }
}

const GRID_ROWS: [u64; 4] = [4, 8, 16, 32];
const GRID_COLS: [u64; 4] = [4, 8, 16, 32];
const MXU_COUNTS: [u64; 4] = [1, 2, 4, 8];
const BIT_SERIAL: [u32; 4] = [1, 2, 4, 8];
const HBM_GB_PER_S: [f64; 4] = [307.0, 614.0, 1228.0, 2456.0];

/// The design-space exploration: Table IV points plus a seeded grid.
pub struct Sweep {
    /// Design points: the TPUv4i baseline, the nine Table IV CIM
    /// variants, then [`GRID_POINTS`] seeded geometries.
    pub configs: Vec<TpuConfig>,
    gpt3: TransformerConfig,
    dit: DitConfig,
    spec: LlmInferenceSpec,
}

impl Sweep {
    /// Builds the point list for `seed`. The grid draws grid rows and
    /// columns, MXU count, bit-serial width and HBM bandwidth, each as a
    /// balanced seeded column, so every seed sweeps the same levels in a
    /// different combination.
    ///
    /// # Errors
    ///
    /// Returns an error if a drawn configuration is invalid.
    pub fn new(seed: u64) -> Result<Sweep> {
        let mut configs = vec![TpuConfig::tpuv4i()];
        configs.extend(TpuConfig::table4_designs());
        let mut rng = SplitMix(seed);
        let dims = [
            rng.balanced(GRID_POINTS, GRID_ROWS.len()),
            rng.balanced(GRID_POINTS, GRID_COLS.len()),
            rng.balanced(GRID_POINTS, MXU_COUNTS.len()),
            rng.balanced(GRID_POINTS, BIT_SERIAL.len()),
            rng.balanced(GRID_POINTS, HBM_GB_PER_S.len()),
        ];
        for p in 0..GRID_POINTS {
            let (rows, cols) = (GRID_ROWS[dims[0][p]], GRID_COLS[dims[1][p]]);
            let (count, bits) = (MXU_COUNTS[dims[2][p]], BIT_SERIAL[dims[3][p]]);
            let gbps = HBM_GB_PER_S[dims[4][p]];
            let mxu = CimMxuConfig::with_grid(rows, cols)
                .with_core(CimCoreConfig::paper_default().with_bit_serial_bits(bits));
            let base = TpuConfig::cim_variant(count, rows, cols).with_mxu(count, MxuKind::Cim(mxu));
            let levels = base
                .levels()
                .clone()
                .with_hbm_bandwidth(Bandwidth::from_gb_per_s(gbps));
            let cfg = base
                .with_levels(levels)
                .with_name(format!("grid {count}x({rows}x{cols}) b{bits} {gbps}GB/s"));
            cfg.validate()?;
            configs.push(cfg);
        }
        Ok(Sweep {
            configs,
            gpt3: presets::gpt3_30b(),
            dit: presets::dit_xl_2(),
            spec: LlmInferenceSpec::new(BATCH, INPUT_LEN, OUTPUT_LEN)?,
        })
    }

    /// Evaluates one design point on `sim`.
    ///
    /// # Errors
    ///
    /// Returns an error if an operator cannot be mapped.
    pub fn eval(&self, sim: &Simulator) -> Result<PointRow> {
        let llm = inference::run_llm(sim, &self.gpt3, self.spec)?;
        let dit = inference::run_dit(sim, &self.dit, BATCH, DIT_RESOLUTION)?;
        Ok(PointRow {
            llm_latency_s: llm.total_latency().get(),
            llm_energy_j: llm.total_mxu_energy().get(),
            dit_latency_s: dit.total_latency.get(),
            dit_energy_j: dit.total_mxu_energy.get(),
        })
    }

    /// Evaluates every point, each on a fresh simulator.
    ///
    /// # Errors
    ///
    /// As for [`Sweep::eval`].
    pub fn run(&self) -> Result<Vec<PointRow>> {
        self.configs
            .iter()
            .map(|cfg| self.eval(&Simulator::new(cfg.clone())?))
            .collect()
    }
}

/// The paper's Fig. 7 headlines: best LLM improvement (44.2%), best DiT
/// improvement (33.8%) and the 2x(8x8) MXU energy reduction (27.3x).
pub const PAPER_HEADLINES: [f64; 3] = [44.2, 33.8, 27.3];

/// The simulator's Fig. 7 headlines from the first [`TABLE4_POINTS`] rows
/// of a sweep (baseline first, then `TpuConfig::table4_designs` order).
///
/// # Errors
///
/// Returns an error if `rows` is shorter than the Table IV set.
fn headlines(rows: &[PointRow]) -> Result<[f64; 3]> {
    let table4 = rows
        .get(..TABLE4_POINTS)
        .ok_or_else(|| Error::invalid_config("a sweep needs the Table IV points first"))?;
    let base = table4[0];
    let best = |norm: fn(&PointRow, &PointRow) -> f64| {
        table4
            .iter()
            .map(|r| norm(r, &base))
            .fold(f64::INFINITY, f64::min)
    };
    let best_llm = best(|r, b| r.llm_latency_s / b.llm_latency_s);
    let best_dit = best(|r, b| r.dit_latency_s / b.dit_latency_s);
    // `table4_designs` lists 2x(8x8) first.
    let small = table4[1];
    Ok([
        (1.0 - best_llm) * 100.0,
        (1.0 - best_dit) * 100.0,
        base.llm_energy_j / small.llm_energy_j,
    ])
}

/// Mean relative error of [`headlines`] against [`PAPER_HEADLINES`], in
/// percent.
///
/// # Errors
///
/// As for [`headlines`].
pub fn paper_gap_pct(rows: &[PointRow]) -> Result<f64> {
    let sim = headlines(rows)?;
    let gap: f64 = sim
        .iter()
        .zip(PAPER_HEADLINES)
        .map(|(s, p)| (s - p).abs() / p)
        .sum();
    Ok(gap / PAPER_HEADLINES.len() as f64 * 100.0)
}

/// Evaluates the Table IV points alone and returns the paper gap.
///
/// # Errors
///
/// As for [`Sweep::run`].
pub fn table4_paper_gap_pct() -> Result<f64> {
    let mut sweep = Sweep::new(0)?;
    sweep.configs.truncate(TABLE4_POINTS);
    paper_gap_pct(&sweep.run()?)
}
