//! The experiment suite's command line, in three modes:
//!
//! ```sh
//! cargo run --release -p tfgc-bench --bin experiments -- --json [--out DIR]
//! cargo run --release -p tfgc-bench --bin experiments -- --check DIR
//! cargo run --release -p tfgc-bench --bin experiments -- --render DIR
//! ```
//!
//! `--json` runs every experiment (E1–E13 and E15) and writes one
//! `BENCH_E<n>.json` each (table rows, per-strategy profiles, experiment
//! extras) into `--out DIR` (default: the current directory).
//!
//! `--check DIR` reruns every experiment and compares the deterministic
//! projection of each `DIR/BENCH_E<n>.json` with the fresh one. It names
//! every file that is missing or differs, with the key path of the first
//! difference, and exits 1 if any does.
//!
//! `--render DIR` runs nothing: it prints the table of each committed
//! `DIR/BENCH_E<n>.json`, which is what EXPERIMENTS.md shows.

use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: experiments --json [--out DIR] | --check DIR | --render DIR";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let dir_after = |flag: &str| -> Option<Result<&Path, String>> {
        let i = args.iter().position(|a| a == flag)?;
        Some(
            args.get(i + 1)
                .map(Path::new)
                .ok_or(format!("{flag} needs a directory")),
        )
    };
    let outcome = if let Some(dir) = dir_after("--check") {
        dir.and_then(check)
    } else if let Some(dir) = dir_after("--render") {
        dir.and_then(tfgc_bench::render_dir)
            .map(|tables| print!("{tables}"))
    } else if args.iter().any(|a| a == "--json") {
        dir_after("--out")
            .unwrap_or(Ok(Path::new(".")))
            .and_then(|dir| tfgc_bench::export::write_all(dir).map_err(|e| e.to_string()))
            .map(|paths| {
                for p in paths {
                    println!("wrote {}", p.display());
                }
            })
    } else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("experiments: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Checks every committed document in `dir`, reporting each one.
fn check(dir: &Path) -> Result<(), String> {
    let mut failed = 0;
    for id in tfgc_bench::export::EXPERIMENTS {
        match tfgc_bench::export::check(dir, id) {
            Ok(()) => println!("{id}: matches"),
            Err(e) => {
                eprintln!("experiments: {e}");
                failed += 1;
            }
        }
    }
    match failed {
        0 => Ok(()),
        n => Err(format!("{n} document(s) differ from a fresh run")),
    }
}
