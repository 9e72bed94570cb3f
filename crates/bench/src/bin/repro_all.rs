//! Reproduces every table and figure in one run (the full evaluation).
//!
//! The reproduction binaries run one at a time in list order, each
//! printed as its own `### <name>` section. Every child inherits
//! `CIMTPU_WORKERS` (or `--workers N`, which sets it) and parallelizes
//! internally. The exit status is 1 if any child failed or could not be
//! launched.

use std::path::Path;
use std::process::Command;

const BINS: &[&str] = &[
    "fig1_evolution",
    "fig2_breakdown",
    "table1_parameters",
    "table2_mxu",
    "table3_models",
    "fig6_layer_comparison",
    "table4_choices",
    "fig7_exploration",
    "fig8_multi_device",
    "ablations",
    "sweep_extensions",
    "moe_study",
];

/// Runs `bin` from `dir` (or through cargo when it was not built
/// there), prints its section, and returns whether it succeeded.
fn run_bin(dir: &Path, bin: &str) -> bool {
    let path = dir.join(bin);
    let mut command = if path.exists() {
        Command::new(&path)
    } else {
        // Fall back to cargo for `cargo run --bin repro_all` workflows.
        let mut c = Command::new("cargo");
        c.args(["run", "--quiet", "--release", "-p", "cimtpu-bench", "--bin", bin]);
        c
    };
    println!("\n{}\n### {}\n{}", "=".repeat(78), bin, "=".repeat(78));
    match command.output() {
        Ok(out) => {
            print!("{}", String::from_utf8_lossy(&out.stdout));
            eprint!("{}", String::from_utf8_lossy(&out.stderr));
            if !out.status.success() {
                eprintln!("{bin} exited with {}", out.status);
            }
            out.status.success()
        }
        Err(e) => {
            eprintln!("failed to launch {bin}: {e}");
            false
        }
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workers" => {
                let n: usize = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| {
                        eprintln!("repro_all: --workers needs a positive integer");
                        std::process::exit(2);
                    });
                std::env::set_var("CIMTPU_WORKERS", n.max(1).to_string());
            }
            "--help" | "-h" => {
                println!("usage: repro_all [--workers N]");
                println!();
                println!("  --workers N  worker threads for each reproduction binary");
                println!("               (sets CIMTPU_WORKERS, which the children inherit)");
                return;
            }
            other => {
                eprintln!("repro_all: unknown argument {other}");
                std::process::exit(2);
            }
        }
    }

    // When invoked through cargo the sibling binaries sit next to us.
    let me = std::env::current_exe().expect("current exe path");
    let dir = me.parent().expect("exe has a parent dir");
    let mut failed = 0;
    for bin in BINS {
        // Run every child even after a failure, so the log is complete.
        if !run_bin(dir, bin) {
            failed += 1;
        }
    }
    if failed > 0 {
        eprintln!("repro_all: {failed} of {} reproduction binaries failed", BINS.len());
        std::process::exit(1);
    }
}
