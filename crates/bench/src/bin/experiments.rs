//! Prints every experiment table (E1–E10, E13 and E15), or with `--json`
//! writes the experiment documents the tables are rendered from, or with
//! `--check` compares committed documents against a fresh run:
//!
//! ```sh
//! cargo run --release -p tfgc-bench --bin experiments
//! cargo run --release -p tfgc-bench --bin experiments -- --json [--out DIR] [--deterministic]
//! cargo run --release -p tfgc-bench --bin experiments -- --check DIR
//! ```
//!
//! `--json` writes one `BENCH_E<n>.json` per experiment (table rows,
//! per-strategy pause histograms, labeled per-site allocation counts,
//! experiment extras) into `--out DIR` (default: the current directory).
//! With `--deterministic`, wall-clock subtrees (pause histograms, timing
//! blocks) are stripped so consecutive runs diff byte-for-byte.
//!
//! `--check DIR` reruns every experiment and compares the deterministic
//! projection of each `DIR/BENCH_E<n>.json` with the fresh one. It names
//! every file that is missing or differs, with the key path of the first
//! difference, and exits 1 if any does.

use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--check") {
        let Some(dir) = args.get(i + 1) else {
            eprintln!("experiments: --check needs a directory");
            return ExitCode::FAILURE;
        };
        let mut failed = false;
        for id in tfgc_bench::export::EXPERIMENTS {
            match tfgc_bench::export::check(Path::new(dir), id) {
                Ok(()) => println!("{id}: matches"),
                Err(e) => {
                    eprintln!("experiments: {e}");
                    failed = true;
                }
            }
        }
        return if failed {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }
    if !args.iter().any(|a| a == "--json") {
        println!("{}", tfgc_bench::all_experiments());
        return ExitCode::SUCCESS;
    }
    let dir = match args.iter().position(|a| a == "--out") {
        None => ".",
        Some(i) => match args.get(i + 1) {
            Some(d) => d.as_str(),
            None => {
                eprintln!("experiments: --out needs a directory");
                return ExitCode::FAILURE;
            }
        },
    };
    let deterministic = args.iter().any(|a| a == "--deterministic");
    match tfgc_bench::export::write_all(Path::new(dir), deterministic) {
        Ok(paths) => {
            for p in paths {
                println!("wrote {}", p.display());
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("experiments: {e}");
            ExitCode::FAILURE
        }
    }
}
