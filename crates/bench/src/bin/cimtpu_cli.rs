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

use std::process::ExitCode;

use cimtpu_core::{inference, memory::MemoryFootprint, Simulator, TpuConfig};
use cimtpu_models::{presets, LlmInferenceSpec};
use cimtpu_multi::MultiTpu;
use rustc_hash::FxHashMap;

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

struct Args {
    flags: FxHashMap<String, String>,
    json: bool,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut flags = FxHashMap::default();
        let mut json = false;
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            if arg == "--json" {
                json = true;
            } else if let Some(key) = arg.strip_prefix("--") {
                let value = it
                    .next()
                    .ok_or_else(|| format!("flag --{key} needs a value"))?;
                flags.insert(key.to_owned(), value.clone());
            } else {
                return Err(format!("unexpected argument '{arg}'"));
            }
        }
        Ok(Args { flags, json })
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

fn cmd_configs() {
    println!("{:<14} {:>6} {:>10} {:>12}", "name", "MXUs", "peak TOPS", "MXU kind");
    let mut configs = vec![
        TpuConfig::tpuv4i(),
        TpuConfig::cim_base(),
        TpuConfig::design_a(),
        TpuConfig::design_b(),
    ];
    configs.extend(TpuConfig::table4_designs());
    for cfg in configs {
        println!(
            "{:<14} {:>6} {:>10.1} {:>12}",
            cfg.name(),
            cfg.mxu_count(),
            cfg.peak_tops(),
            cfg.mxu().label()
        );
    }
    println!("\nAlso accepted: cim-<count>x<rows>x<cols>, e.g. cim-8x16x16.");
}

fn cmd_models() {
    println!("LLMs: gpt3-30b, gpt3-175b, gpt3-6.7b, llama2-13b, llama2-70b (GQA)");
    println!("DiTs: dit-xl/2, dit-l/2, dit-b/2");
}

/// Resolves the architecture from --config-file (JSON) or --config (name).
fn resolve_config(args: &Args) -> Result<TpuConfig, String> {
    if let Ok(path) = args.get("config-file") {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))?;
        let cfg: TpuConfig =
            serde_json::from_str(&text).map_err(|e| format!("bad config JSON: {e}"))?;
        cfg.validate().map_err(|e| e.to_string())?;
        return Ok(cfg);
    }
    parse_config(args.get("config")?)
}

fn cmd_export_config(args: &Args) -> Result<(), String> {
    let cfg = parse_config(args.get("config")?)?;
    println!(
        "{}",
        serde_json::to_string_pretty(&cfg).map_err(|e| e.to_string())?
    );
    Ok(())
}

fn cmd_simulate(args: &Args) -> Result<(), String> {
    let cfg = resolve_config(args)?;
    let sim = Simulator::new(cfg).map_err(|e| e.to_string())?;
    let model_name = args.get("model")?;
    let stage = args.get("stage")?;
    let batch = args.get_u64("batch", 8)?;

    let workload = match stage {
        "prefill" => {
            let seq = args.get_u64("seq", 1024)?;
            presets::transformer_by_name(model_name)
                .map_err(|e| e.to_string())?
                .prefill_layer(batch, seq)
                .map_err(|e| e.to_string())?
        }
        "decode" => {
            let ctx = args.get_u64("ctx", 1280)?;
            presets::transformer_by_name(model_name)
                .map_err(|e| e.to_string())?
                .decode_layer(batch, ctx)
                .map_err(|e| e.to_string())?
        }
        "dit-block" => {
            let resolution = args.get_u64("resolution", 512)?;
            presets::dit_by_name(model_name)
                .map_err(|e| e.to_string())?
                .block(batch, resolution)
                .map_err(|e| e.to_string())?
        }
        other => return Err(format!("unknown stage '{other}' (prefill|decode|dit-block)")),
    };

    let report = sim.run(&workload).map_err(|e| e.to_string())?;
    if args.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
        );
    } else {
        println!("{report}");
    }
    Ok(())
}

fn cmd_inference(args: &Args) -> Result<(), String> {
    let cfg = resolve_config(args)?;
    let sim = Simulator::new(cfg).map_err(|e| e.to_string())?;
    let model = presets::transformer_by_name(args.get("model")?).map_err(|e| e.to_string())?;
    let spec = LlmInferenceSpec::new(
        args.get_u64("batch", 8)?,
        args.get_u64("input", 1024)?,
        args.get_u64("output", 512)?,
    )
    .map_err(|e| e.to_string())?;
    let r = inference::run_llm(&sim, &model, spec).map_err(|e| e.to_string())?;
    if args.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&r).map_err(|e| e.to_string())?
        );
    } else {
        println!(
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

fn cmd_memory(args: &Args) -> Result<(), String> {
    let cfg = resolve_config(args)?;
    let model = presets::transformer_by_name(args.get("model")?).map_err(|e| e.to_string())?;
    let spec = LlmInferenceSpec::new(
        args.get_u64("batch", 8)?,
        args.get_u64("input", 1024)?,
        args.get_u64("output", 512)?,
    )
    .map_err(|e| e.to_string())?;
    let fp = MemoryFootprint::llm(&model, spec);
    println!(
        "{} on {}: weights {}, KV cache {}, activations {}, total {}",
        model.name(),
        cfg.name(),
        fp.weights(),
        fp.kv_cache(),
        fp.activations(),
        fp.total()
    );
    if fp.fits(&cfg) {
        println!("fits in one chip ({} HBM)", cfg.hbm_capacity());
    } else {
        println!(
            "does NOT fit one chip ({} HBM); needs >= {} devices",
            cfg.hbm_capacity(),
            fp.min_devices(&cfg)
        );
    }
    Ok(())
}

fn cmd_throughput(args: &Args) -> Result<(), String> {
    let cfg = resolve_config(args)?;
    let devices = args.get_u64("devices", 4)?;
    let cluster = MultiTpu::new(cfg, devices).map_err(|e| e.to_string())?;
    let model = presets::transformer_by_name(args.get("model")?).map_err(|e| e.to_string())?;
    let spec = LlmInferenceSpec::new(
        args.get_u64("batch", 8)?,
        args.get_u64("input", 1024)?,
        args.get_u64("output", 512)?,
    )
    .map_err(|e| e.to_string())?;
    let r = cluster
        .llm_pipeline_throughput(&model, spec)
        .map_err(|e| e.to_string())?;
    println!(
        "{} x{}: {:.1} tokens/s, {:.4} J/token (MXU), round {:.2} ms",
        cluster.simulator().config().name(),
        devices,
        r.throughput,
        r.mxu_energy_per_unit.get(),
        r.round_latency.as_millis()
    );
    Ok(())
}

const USAGE: &str = "usage: cimtpu <configs|models|simulate|inference|throughput|memory|export-config> [flags]\nany command taking --config also accepts --config-file <path.json> (see export-config)
run `cimtpu <command>` with no flags to see what it needs";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let args = match Args::parse(&argv[1..]) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "configs" => {
            cmd_configs();
            Ok(())
        }
        "models" => {
            cmd_models();
            Ok(())
        }
        "simulate" => cmd_simulate(&args),
        "memory" => cmd_memory(&args),
        "export-config" => cmd_export_config(&args),
        "inference" => cmd_inference(&args),
        "throughput" => cmd_throughput(&args),
        other => Err(format!("unknown command '{other}'\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
