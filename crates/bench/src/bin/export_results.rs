//! Exports every experiment's structured results as JSON for plotting.
//!
//! Writes one file per experiment into `results/` (created if missing):
//! `fig2.json`, `table2.json`, `fig6.json`, `fig7.json`, `fig8.json`,
//! `ablations.json`, `sweep_batch.json`, `sweep_context.json`,
//! `sweep_hbm.json`, `moe.json`. An experiment that fails, or a file
//! that cannot be serialized or written, is reported on stderr and the
//! export goes on; the exit status is then 1. A closed stdout
//! (`| head`) ends the output, not the export.

use std::fs;
use std::path::Path;
use std::process::ExitCode;

use cimtpu_bench::experiments;
use cimtpu_units::Stdout;
use serde::Serialize;

const NAME: &str = "export_results";

/// An experiment's result as pretty JSON.
fn json<T: Serialize>(result: cimtpu_units::Result<T>) -> Result<String, String> {
    let value = result.map_err(|e| e.to_string())?;
    serde_json::to_string_pretty(&value).map_err(|e| e.to_string())
}

fn main() -> ExitCode {
    let dir = Path::new("results");
    if let Err(e) = fs::create_dir_all(dir) {
        eprintln!("{NAME}: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }

    let mut out = Stdout::lock();
    let mut failed = false;
    let mut export = |name: &str, json: Result<String, String>| {
        let path = dir.join(name);
        match json.and_then(|json| fs::write(&path, json).map_err(|e| e.to_string())) {
            Ok(()) => writeln!(out, "wrote {}", path.display()),
            Err(e) => {
                eprintln!("{NAME}: {}: {e}", path.display());
                failed = true;
            }
        }
    };
    export("table2.json", json(experiments::table2()));
    export("fig2.json", json(experiments::fig2_breakdown()));
    export("fig6.json", json(experiments::fig6()));
    export("fig7.json", json(experiments::fig7()));
    export("fig8.json", json(experiments::fig8()));
    export("ablations.json", json(experiments::ablations()));
    export("sweep_batch.json", json(experiments::sweep_batch()));
    export("sweep_context.json", json(experiments::sweep_context()));
    export("sweep_hbm.json", json(experiments::sweep_hbm_bandwidth()));
    export("moe.json", json(experiments::moe_study()));
    writeln!(out, "done — load with pandas.read_json or jq");
    out.finish(NAME, failed)
}
