//! Reproduces every table and figure of the paper in one run (the full
//! evaluation).
//!
//! ```text
//! repro_all [--workers N] [SECTION...]
//! ```
//!
//! Renders the sections of `cimtpu_bench::repro::SECTIONS` in one
//! process, each printed as its own `### <name>` section: all of them in
//! report order, or the named ones in the order given. An unknown name
//! exits 2 with nothing on stdout. A failing section prints
//! `repro_all: <name>: <error>` on stderr and the run goes on; the exit
//! status is then 1. `--workers N` sets `CIMTPU_WORKERS`, the worker
//! count of the parallel sweeps. A closed stdout (`| head`) ends the
//! output, not the run.

use std::process::ExitCode;

use cimtpu_bench::repro::{Render, SECTIONS};
use cimtpu_units::Stdout;

const NAME: &str = "repro_all";

fn main() -> ExitCode {
    let mut selected: Vec<(&str, Render)> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workers" => {
                let n = args.next().and_then(|v| v.parse::<usize>().ok());
                let Some(n) = n.filter(|&n| n > 0) else {
                    eprintln!("{NAME}: --workers needs a positive integer");
                    return ExitCode::from(2);
                };
                std::env::set_var("CIMTPU_WORKERS", n.to_string());
            }
            "--help" | "-h" => {
                let mut out = Stdout::lock();
                writeln!(
                    out,
                    "usage: {NAME} [--workers N] [SECTION...]\n\n  \
                     --workers N  worker threads for the parallel sweeps (sets CIMTPU_WORKERS)\n  \
                     SECTION      render only the named sections, in the order given\n\n\
                     sections:"
                );
                for (name, _) in SECTIONS {
                    writeln!(out, "  {name}");
                }
                return out.finish(NAME, false);
            }
            name => match SECTIONS.iter().find(|(section, _)| *section == name) {
                Some(&section) => selected.push(section),
                None => {
                    let names: Vec<&str> = SECTIONS.iter().map(|(section, _)| *section).collect();
                    eprintln!(
                        "{NAME}: unknown argument '{name}' (sections: {})",
                        names.join(", ")
                    );
                    return ExitCode::from(2);
                }
            },
        }
    }
    if selected.is_empty() {
        selected = SECTIONS.to_vec();
    }

    let mut out = Stdout::lock();
    let mut failed = 0;
    let rule = "=".repeat(78);
    for &(name, render) in &selected {
        writeln!(out, "\n{rule}\n### {name}\n{rule}");
        // Render every section even after a failure, so the log is complete.
        if let Err(e) = render(&mut out) {
            eprintln!("{NAME}: {name}: {e}");
            failed += 1;
        }
    }
    if failed > 0 {
        eprintln!("{NAME}: {failed} of {} sections failed", selected.len());
    }
    out.finish(NAME, failed > 0)
}
