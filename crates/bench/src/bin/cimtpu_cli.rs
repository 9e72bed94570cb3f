//! `cimtpu-cli` — command-line driver for the simulator.
//!
//! ```text
//! cimtpu configs
//! cimtpu models
//! cimtpu simulate  --config cim-base --model gpt3-30b --stage decode --batch 8 --ctx 1280 [--json]
//! cimtpu simulate  --config design-b --model dit-xl/2 --stage dit-block --batch 8 --resolution 512
//! cimtpu inference --config design-a --model gpt3-30b --batch 8 --input 1024 --output 512 [--json]
//! cimtpu throughput --config design-a --devices 4 --model gpt3-30b --batch 8 --input 1024 --output 512
//! cimtpu memory    --config tpuv4i --model llama2-70b --batch 8 --input 4096 --output 512
//! ```
//!
//! Architecture names: `tpuv4i`, `cim-base`, `design-a`, `design-b`, or
//! `cim-<count>x<rows>x<cols>` (e.g. `cim-8x16x16`).
//!
//! `--help` (or `-h`), alone or after a command, prints the usage. A
//! flag the command does not read, or a flag given twice, is an error
//! (exit 1); so are `simulate`'s `--seq`, `--ctx` and `--resolution`
//! outside the stage that reads each (`prefill`, `decode`, `dit-block`),
//! and `--config` together with `--config-file`. A closed stdout
//! (`| head`) is not an error.

use std::process::ExitCode;

use cimtpu_core::{inference, memory::MemoryFootprint, Simulator, TpuConfig};
use cimtpu_models::{presets, LlmInferenceSpec};
use cimtpu_multi::MultiTpu;
use cimtpu_units::Stdout;
use rustc_hash::FxHashMap;

/// A command's outcome: its error is printed as `error: <message>`.
type Result<T = (), E = Box<dyn std::error::Error>> = std::result::Result<T, E>;

fn parse_config(name: &str) -> Result<TpuConfig, String> {
    match name.to_ascii_lowercase().as_str() {
        "tpuv4i" | "baseline" => Ok(TpuConfig::tpuv4i()),
        "cim-base" | "cim" => Ok(TpuConfig::cim_base()),
        "design-a" => Ok(TpuConfig::design_a()),
        "design-b" => Ok(TpuConfig::design_b()),
        "a100-like" => Ok(TpuConfig::a100_like()),
        "tpuv4-like" => Ok(TpuConfig::tpuv4_like()),
        "cim-tpuv4-like" => Ok(TpuConfig::cim_tpuv4_like()),
        other => {
            let parts: Vec<&str> = other
                .strip_prefix("cim-")
                .ok_or_else(|| format!("unknown config '{other}'"))?
                .split('x')
                .collect();
            if parts.len() != 3 {
                return Err(format!(
                    "unknown config '{other}' (expected cim-<count>x<rows>x<cols>)"
                ));
            }
            let nums: Vec<u64> = parts
                .iter()
                .map(|p| p.parse().map_err(|_| format!("bad number in '{other}'")))
                .collect::<Result<_, _>>()?;
            Ok(TpuConfig::cim_variant(nums[0], nums[1], nums[2]))
        }
    }
}

/// A command line's flags: `--json` is a switch, every other flag takes
/// a value.
struct Args {
    flags: FxHashMap<String, String>,
}

impl Args {
    /// Parses a command's flags, accepting only the ones it reads
    /// (`known`, space-separated), each at most once. `None` is a request
    /// for the usage (`--help` or `-h`).
    fn parse(known: &str, argv: &[String]) -> Result<Option<Args>, String> {
        let mut flags = FxHashMap::default();
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            if arg == "--help" || arg == "-h" {
                return Ok(None);
            }
            let Some(key) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument '{arg}'"));
            };
            if !known.split_whitespace().any(|flag| flag == key) {
                return Err(format!("unknown flag --{key}"));
            }
            let value = if key == "json" {
                String::new()
            } else {
                it.next()
                    .ok_or_else(|| format!("flag --{key} needs a value"))?
                    .clone()
            };
            if flags.insert(key.to_owned(), value).is_some() {
                return Err(format!("flag --{key} given twice"));
            }
        }
        Ok(Some(Args { flags }))
    }

    fn json(&self) -> bool {
        self.flags.contains_key("json")
    }

    fn get(&self, key: &str) -> Result<&str, String> {
        self.flags
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required flag --{key}"))
    }

    fn get_u64(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key} must be a number")),
        }
    }
}

fn cmd_configs(out: &mut Stdout, _: &Args) -> Result {
    writeln!(
        out,
        "{:<14} {:>6} {:>10} {:>12}",
        "name", "MXUs", "peak TOPS", "MXU kind"
    );
    let mut configs = vec![
        TpuConfig::tpuv4i(),
        TpuConfig::cim_base(),
        TpuConfig::design_a(),
        TpuConfig::design_b(),
    ];
    configs.extend(TpuConfig::table4_designs());
    for cfg in configs {
        writeln!(
            out,
            "{:<14} {:>6} {:>10.1} {:>12}",
            cfg.name(),
            cfg.mxu_count(),
            cfg.peak_tops(),
            cfg.mxu().label()
        );
    }
    writeln!(
        out,
        "\nAlso accepted: cim-<count>x<rows>x<cols>, e.g. cim-8x16x16."
    );
    Ok(())
}

fn cmd_models(out: &mut Stdout, _: &Args) -> Result {
    writeln!(
        out,
        "LLMs: gpt3-30b, gpt3-175b, gpt3-6.7b, llama2-13b, llama2-70b (GQA)"
    );
    writeln!(out, "DiTs: dit-xl/2, dit-l/2, dit-b/2");
    Ok(())
}

/// Resolves the architecture from --config-file (JSON) or --config
/// (name); giving both is an error.
fn resolve_config(args: &Args) -> Result<TpuConfig> {
    if args.flags.contains_key("config") && args.flags.contains_key("config-file") {
        return Err("flag --config-file cannot be combined with --config".into());
    }
    if let Ok(path) = args.get("config-file") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let cfg: TpuConfig =
            serde_json::from_str(&text).map_err(|e| format!("bad config JSON: {e}"))?;
        cfg.validate()?;
        return Ok(cfg);
    }
    Ok(parse_config(args.get("config")?)?)
}

/// The LLM request shape of `--batch`, `--input` and `--output`.
fn llm_spec(args: &Args) -> Result<LlmInferenceSpec> {
    let batch = args.get_u64("batch", 8)?;
    let (input, output) = (args.get_u64("input", 1024)?, args.get_u64("output", 512)?);
    Ok(LlmInferenceSpec::new(batch, input, output)?)
}

fn cmd_export_config(out: &mut Stdout, args: &Args) -> Result {
    let cfg = parse_config(args.get("config")?)?;
    writeln!(out, "{}", serde_json::to_string_pretty(&cfg)?);
    Ok(())
}

/// Each `simulate` stage, the one shape flag only it reads, and that
/// flag's default.
const STAGES: [(&str, &str, u64); 3] = [
    ("prefill", "seq", 1024),
    ("decode", "ctx", 1280),
    ("dit-block", "resolution", 512),
];

fn cmd_simulate(out: &mut Stdout, args: &Args) -> Result {
    let stage = args.get("stage")?;
    let Some(&(_, shape, default)) = STAGES.iter().find(|s| s.0 == stage) else {
        return Err(format!("unknown stage '{stage}' (prefill|decode|dit-block)").into());
    };
    let stray = STAGES
        .iter()
        .find(|s| s.0 != stage && args.flags.contains_key(s.1));
    if let Some((name, flag, _)) = stray {
        return Err(format!("flag --{flag} applies only to --stage {name}").into());
    }
    let sim = Simulator::new(resolve_config(args)?)?;
    let model_name = args.get("model")?;
    let batch = args.get_u64("batch", 8)?;
    let size = args.get_u64(shape, default)?;
    let workload = match stage {
        "prefill" => presets::transformer_by_name(model_name)?.prefill_layer(batch, size)?,
        "decode" => presets::transformer_by_name(model_name)?.decode_layer(batch, size)?,
        _ => presets::dit_by_name(model_name)?.block(batch, size)?,
    };

    let report = sim.run(&workload)?;
    if args.json() {
        writeln!(out, "{}", serde_json::to_string_pretty(&report)?);
    } else {
        writeln!(out, "{report}");
    }
    Ok(())
}

fn cmd_inference(out: &mut Stdout, args: &Args) -> Result {
    let sim = Simulator::new(resolve_config(args)?)?;
    let model = presets::transformer_by_name(args.get("model")?)?;
    let r = inference::run_llm(&sim, &model, llm_spec(args)?)?;
    if args.json() {
        writeln!(out, "{}", serde_json::to_string_pretty(&r)?);
    } else {
        writeln!(
            out,
            "{} on {}: prefill {:.2} s, decode {:.2} s, total {:.2} s, \
             MXU energy {:.1} J, {:.1} tokens/s",
            model.name(),
            sim.config().name(),
            r.prefill_latency.get(),
            r.decode_latency.get(),
            r.total_latency().get(),
            r.total_mxu_energy().get(),
            r.tokens_per_second()
        );
    }
    Ok(())
}

fn cmd_memory(out: &mut Stdout, args: &Args) -> Result {
    let cfg = resolve_config(args)?;
    let model = presets::transformer_by_name(args.get("model")?)?;
    let fp = MemoryFootprint::llm(&model, llm_spec(args)?);
    writeln!(
        out,
        "{} on {}: weights {}, KV cache {}, activations {}, total {}",
        model.name(),
        cfg.name(),
        fp.weights(),
        fp.kv_cache(),
        fp.activations(),
        fp.total()
    );
    if fp.fits(&cfg) {
        writeln!(out, "fits in one chip ({} HBM)", cfg.hbm_capacity());
    } else {
        writeln!(
            out,
            "does NOT fit one chip ({} HBM); needs >= {} devices",
            cfg.hbm_capacity(),
            fp.min_devices(&cfg)
        );
    }
    Ok(())
}

fn cmd_throughput(out: &mut Stdout, args: &Args) -> Result {
    let devices = args.get_u64("devices", 4)?;
    let cluster = MultiTpu::new(resolve_config(args)?, devices)?;
    let model = presets::transformer_by_name(args.get("model")?)?;
    let r = cluster.llm_pipeline_throughput(&model, llm_spec(args)?)?;
    writeln!(
        out,
        "{} x{}: {:.1} tokens/s, {:.4} J/token (MXU), round {:.2} ms",
        cluster.simulator().config().name(),
        devices,
        r.throughput,
        r.mxu_energy_per_unit.get(),
        r.round_latency.as_millis()
    );
    Ok(())
}

const USAGE: &str = "usage: cimtpu <configs|models|simulate|inference|throughput|memory|export-config> [flags]\nany command taking --config accepts --config-file <path.json> in its place (see export-config)
run `cimtpu <command>` with no flags to see what it needs";

/// A command: its name, the flags it reads (space-separated) and what
/// it runs.
type Command = (&'static str, &'static str, fn(&mut Stdout, &Args) -> Result);

const COMMANDS: [Command; 7] = [
    ("configs", "", cmd_configs),
    ("models", "", cmd_models),
    (
        "simulate",
        "config config-file model stage batch seq ctx resolution json",
        cmd_simulate,
    ),
    (
        "inference",
        "config config-file model batch input output json",
        cmd_inference,
    ),
    (
        "throughput",
        "config config-file devices model batch input output",
        cmd_throughput,
    ),
    (
        "memory",
        "config config-file model batch input output",
        cmd_memory,
    ),
    ("export-config", "config", cmd_export_config),
];

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let parsed = if cmd == "--help" || cmd == "-h" {
        Ok(None)
    } else if let Some(&(_, known, run)) = COMMANDS.iter().find(|(name, ..)| name == cmd) {
        Args::parse(known, &argv[1..]).map(|args| args.map(|args| (args, run)))
    } else {
        Err(format!("unknown command '{cmd}'"))
    };
    let mut out = Stdout::lock();
    let result = match parsed {
        Ok(None) => {
            writeln!(out, "{USAGE}");
            Ok(())
        }
        Ok(Some((args, run))) => run(&mut out, &args),
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = &result {
        eprintln!("error: {e}");
    }
    out.finish("cimtpu_cli", result.is_err())
}
