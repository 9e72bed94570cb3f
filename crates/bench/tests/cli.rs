//! The reproduction binaries' command lines: `repro_all` renders the
//! committed `REPRO_all.txt` byte for byte and selects sections by name;
//! `repro_all` refuses `--workers 0`; `repro_all`, `export_results` and
//! `cimtpu_cli` treat a closed stdout as the end of the output, not an
//! error; `cimtpu_cli --help` is usage, not a failure, and `cimtpu_cli`
//! rejects a flag that its command, or `simulate`'s stage, does not read.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

use cimtpu_bench::repro::SECTIONS;

/// The committed report: `repro_all`'s stdout, every section in order.
const GOLDEN: &str = include_str!("../../../REPRO_all.txt");

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("{bin} runs: {e}"))
}

/// A fresh empty directory under the target's scratch space.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// The committed report's sections as `(name, banner and text)`, in
/// order.
fn golden_sections() -> Vec<(&'static str, String)> {
    let head = format!("\n{}\n### ", "=".repeat(78));
    GOLDEN
        .split(&head)
        .skip(1)
        .map(|rest| {
            let name = rest.split('\n').next().expect("banner name");
            (name, format!("{head}{rest}"))
        })
        .collect()
}

const EXPORTED: [&str; 10] = [
    "table2.json",
    "fig2.json",
    "fig6.json",
    "fig7.json",
    "fig8.json",
    "ablations.json",
    "sweep_batch.json",
    "sweep_context.json",
    "sweep_hbm.json",
    "moe.json",
];

#[test]
fn repro_all_matches_the_committed_report() {
    for args in [&["--workers", "1"][..], &[], &["--workers", "2"]] {
        let out = run(env!("CARGO_BIN_EXE_repro_all"), args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(stderr.is_empty(), "{args:?}: {stderr}");
        assert!(
            out.stdout == GOLDEN.as_bytes(),
            "{args:?}: stdout differs from REPRO_all.txt"
        );
    }
}

#[test]
fn each_named_section_prints_its_part_of_the_report() {
    let sections = golden_sections();
    let names: Vec<&str> = sections.iter().map(|(name, _)| *name).collect();
    let table: Vec<&str> = SECTIONS.iter().map(|(name, _)| *name).collect();
    assert_eq!(names, table);
    for (name, text) in &sections {
        let out = run(env!("CARGO_BIN_EXE_repro_all"), &[name]);
        assert_eq!(out.status.code(), Some(0), "{name}");
        assert_eq!(String::from_utf8_lossy(&out.stdout), *text, "{name}");
    }
}

#[test]
fn named_sections_print_in_the_order_given() {
    let out = run(
        env!("CARGO_BIN_EXE_repro_all"),
        &["table2_mxu", "fig7_exploration"],
    );
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let banners: Vec<&str> = stdout
        .lines()
        .filter_map(|line| line.strip_prefix("### "))
        .collect();
    assert_eq!(banners, ["table2_mxu", "fig7_exploration"]);
}

#[test]
fn unknown_section_exits_2_naming_the_sections() {
    let out = run(
        env!("CARGO_BIN_EXE_repro_all"),
        &["fig7_exploration", "no_such_section"],
    );
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "wrote to stdout");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no_such_section"), "{stderr}");
    for (name, _) in SECTIONS {
        assert!(stderr.contains(name), "{name} missing from: {stderr}");
    }
}

/// `--workers` takes a positive count: 0 (or a missing or malformed
/// value) exits 2 before rendering anything.
#[test]
fn zero_workers_is_rejected() {
    for args in [
        &["--workers", "0", "fig7_exploration"][..],
        &["--workers"],
        &["--workers", "two"],
    ] {
        let out = run(env!("CARGO_BIN_EXE_repro_all"), args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            "repro_all: --workers needs a positive integer\n",
            "{args:?}"
        );
    }
}

#[test]
fn closed_stdout_exits_cleanly() {
    let cwd = fresh_dir("export_closed");
    let runs: [(&str, &[&str]); 4] = [
        (env!("CARGO_BIN_EXE_repro_all"), &[]),
        (env!("CARGO_BIN_EXE_repro_all"), &["fig7_exploration"]),
        (env!("CARGO_BIN_EXE_cimtpu_cli"), &["configs"]),
        (env!("CARGO_BIN_EXE_export_results"), &[]),
    ];
    for (bin, args) in runs {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(bin)
            .args(args)
            .current_dir(&cwd)
            .stdout(writer)
            .stderr(Stdio::piped())
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{bin} {args:?}: {stderr}");
        assert!(stderr.is_empty(), "{bin} {args:?}: {stderr}");
    }
    for name in EXPORTED {
        let json = std::fs::read_to_string(cwd.join("results").join(name))
            .unwrap_or_else(|e| panic!("{name} written: {e}"));
        assert!(json.starts_with(['[', '{']), "{name}: {json}");
    }
}

#[test]
fn export_results_exits_1_when_a_file_cannot_be_written() {
    let cwd = fresh_dir("export_blocked");
    // A directory where fig7.json should go: that one write fails.
    std::fs::create_dir_all(cwd.join("results/fig7.json")).expect("blocker");
    let out = Command::new(env!("CARGO_BIN_EXE_export_results"))
        .current_dir(&cwd)
        .output()
        .expect("export_results runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.starts_with("export_results: results/fig7.json: "),
        "{stderr}"
    );
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    for name in EXPORTED.iter().filter(|&&name| name != "fig7.json") {
        assert!(
            cwd.join("results").join(name).is_file(),
            "{name} not written"
        );
    }
}

#[test]
fn cimtpu_cli_help_is_usage() {
    for flag in ["--help", "-h"] {
        let out = run(env!("CARGO_BIN_EXE_cimtpu_cli"), &[flag]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{flag}");
        assert!(stdout.starts_with("usage: cimtpu "), "{flag}: {stdout}");
        assert!(out.stderr.is_empty(), "{flag}");
    }
}

#[test]
fn cimtpu_cli_command_help_is_usage() {
    let lines: [&[&str]; 4] = [
        &["simulate", "--help"],
        &["configs", "-h"],
        &["inference", "--config", "design-a", "--help"],
        &["export-config", "-h", "--bogus"],
    ];
    for args in lines {
        let out = run(env!("CARGO_BIN_EXE_cimtpu_cli"), args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(stdout.starts_with("usage: cimtpu "), "{args:?}: {stdout}");
        assert!(stderr.is_empty(), "{args:?}: {stderr}");
    }
}

#[test]
fn cimtpu_cli_rejects_unknown_and_repeated_flags() {
    let inference = ["inference", "--config", "design-a", "--model", "gpt3-30b"];
    let cases: [(Vec<&str>, &str); 5] = [
        (vec!["configs", "--bogus", "1"], "unknown flag --bogus"),
        (
            [&inference[..], &["--batch", "8", "--outptu", "4"]].concat(),
            "unknown flag --outptu",
        ),
        (
            [
                &inference[..],
                &["--batch", "8", "--output", "4", "--batch", "4"],
            ]
            .concat(),
            "flag --batch given twice",
        ),
        (
            [&inference[..], &["--json", "--json"]].concat(),
            "flag --json given twice",
        ),
        (
            vec![
                "memory", "--config", "tpuv4i", "--model", "gpt3-30b", "--json",
            ],
            "unknown flag --json",
        ),
    ];
    for (args, message) in &cases {
        let out = run(env!("CARGO_BIN_EXE_cimtpu_cli"), args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
        assert!(
            stderr.starts_with(&format!("error: {message}\n")),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn cimtpu_cli_rejects_flags_its_mode_does_not_read() {
    let simulate = ["simulate", "--config", "design-a", "--model", "gpt3-30b"];
    let cases: [(&[&str], &str); 5] = [
        (
            &["--stage", "decode", "--batch", "8", "--seq", "99"],
            "flag --seq applies only to --stage prefill",
        ),
        (
            &["--stage", "prefill", "--ctx", "1280"],
            "flag --ctx applies only to --stage decode",
        ),
        (
            &["--stage", "decode", "--resolution", "512"],
            "flag --resolution applies only to --stage dit-block",
        ),
        (
            &["--stage", "dit-block", "--seq", "64"],
            "flag --seq applies only to --stage prefill",
        ),
        (
            &["--stage", "decode", "--config-file", "design-a.json"],
            "flag --config-file cannot be combined with --config",
        ),
    ];
    for (extra, message) in cases {
        let args = [&simulate[..], extra].concat();
        let out = run(env!("CARGO_BIN_EXE_cimtpu_cli"), &args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
        assert_eq!(stderr, format!("error: {message}\n"), "{args:?}");
    }
    // Each stage still reads its own flag.
    let own: [&[&str]; 2] = [
        &["--stage", "prefill", "--seq", "64"],
        &["--stage", "decode", "--ctx", "256"],
    ];
    for extra in own {
        let args = [&simulate[..], extra].concat();
        let out = run(env!("CARGO_BIN_EXE_cimtpu_cli"), &args);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
    }
}
