//! `benchmark` — the repository benchmark.
//!
//! Generates each workload's inputs from `--seed`, times calls into each
//! layer's public functions from outside the program, checks every
//! output against a no-GC tagged reference, and prints every metric
//! `BENCHMARK.json` declares with its unit and sample count. The last
//! line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! cargo run --release --manifest-path examples/benchmark/Cargo.toml -- \
//!     [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//!     [--trace-dir DIR] [--json PATH] [--repeat K]
//! ```
//!
//! `--seconds` defaults to `BENCHMARK.json`'s `run_seconds`. `--trace 0`
//! (the default) reports the end-to-end metrics from untraced passes;
//! `--trace 1` reports the per-layer metrics from a separate traced run,
//! and `--trace-dir DIR` also writes that run's spans (`spans.json`,
//! Chrome trace-event format) and metrics (`layers.json`). `--repeat K`
//! makes K untraced runs per workload and prints each end-to-end
//! metric's spread against its bound. Exit status: 0 when every output
//! matched, 1 on any failure, 2 on a usage error.

mod measure;
mod report;
mod spec;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use measure::{ratio, run_e2e, run_traced, Budget, Report, SETUP_SECONDS};
use report::{layers_json, render_json, render_text};
use spec::Spec;
use stats::Summary;
use tfgc::obs::Json;
use workload::{Kind, Workload};

#[derive(Debug)]
struct Opts {
    workloads: Vec<Kind>,
    seed: u64,
    /// `None`: `BENCHMARK.json`'s `run_seconds`.
    seconds: Option<f64>,
    trace: bool,
    trace_dir: Option<PathBuf>,
    json: Option<PathBuf>,
    repeat: usize,
}

const USAGE: &str = "usage: benchmark [--workload NAME|all] [--seed N] [--seconds S] \
                     [--trace 0|1] [--trace-dir DIR] [--json PATH] [--repeat K]";

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workloads: Kind::ALL.to_vec(),
        seed: 1,
        seconds: None,
        trace: false,
        trace_dir: None,
        json: None,
        repeat: 0,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                o.workloads = if v == "all" {
                    Kind::ALL.to_vec()
                } else {
                    vec![Kind::parse(&v).ok_or_else(|| format!("unknown workload {v:?}"))?]
                };
            }
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=600.0).contains(&s) {
                    return Err("--seconds must be within 0..=600".into());
                }
                o.seconds = Some(s);
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--trace-dir" => {
                o.trace_dir = Some(value()?.into());
                o.trace = true;
            }
            "--json" => o.json = Some(value()?.into()),
            "--repeat" => {
                o.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if o.repeat > 100 {
                    return Err("--repeat is at most 100".into());
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(o)
}

fn run(kind: Kind, seed: u64, traced: bool, b: &Budget) -> Result<Report, String> {
    let w = Workload::generate(kind, seed)?;
    if traced {
        run_traced(&w, b)
    } else {
        run_e2e(&w, b)
    }
}

/// `--repeat K`: K untraced runs per workload; per metric, the minimum,
/// median and maximum of the runs' values against the metric's bound.
fn repeat(o: &Opts, spec: &Spec, b: &Budget) -> Result<bool, String> {
    let mut all_ok = true;
    for &kind in &o.workloads {
        let mut runs = Vec::new();
        for i in 0..o.repeat {
            let r = run(kind, o.seed, false, b)?;
            eprintln!("{} repeat {}/{} done", kind.name(), i + 1, o.repeat);
            all_ok &= r.correct();
            runs.push(r);
        }
        println!("{} (seed {}): {} runs", kind.name(), o.seed, runs.len());
        for d in &spec.end_to_end {
            let xs: Vec<f64> = runs.iter().map(|r| r.values[&d.name].value).collect();
            let s = Summary::new(xs);
            let range = ratio(s.max() - s.min(), s.median());
            let iqr = ratio(s.iqr(), s.median());
            let bound = d.bound.unwrap_or(0.0);
            println!(
                "  {:<16} min {:>12.4} median {:>12.4} max {:>12.4} {:<3} range {:.4} IQR {:.4} vs bound {:.2}: {}",
                d.name,
                s.min(),
                s.median(),
                s.max(),
                d.unit,
                range,
                iqr,
                bound,
                if range <= bound { "holds" } else { "EXCEEDS" }
            );
        }
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match real_main(&opts) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

fn real_main(o: &Opts) -> Result<bool, String> {
    let spec = Spec::load()?;
    let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    if spec.workloads != names {
        return Err(format!(
            "BENCHMARK.json names workloads {:?}, the benchmark runs {names:?}",
            spec.workloads
        ));
    }
    let b = Budget {
        seconds: o.seconds.unwrap_or(spec.run_seconds),
        setup_seconds: SETUP_SECONDS,
        max_passes: None,
    };
    if o.repeat > 0 {
        return repeat(o, &spec, &b);
    }
    let mut reports = Vec::new();
    let mut lines = Vec::new();
    let mut results = Vec::new();
    for &kind in &o.workloads {
        let r = run(kind, o.seed, o.trace, &b)?;
        print!("{}", render_text(&r, &spec)?);
        let j = render_json(&r, &spec)?;
        lines.push(j.to_json());
        results.push((kind.name().to_string(), j));
        reports.push(r);
    }
    if let Some(dir) = &o.trace_dir {
        write_trace(dir, &reports, &spec)?;
    }
    if let Some(path) = &o.json {
        std::fs::write(path, Json::Obj(results).to_json_pretty())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    for l in lines {
        println!("{l}");
    }
    Ok(reports.iter().all(Report::correct))
}

fn write_trace(dir: &std::path::Path, reports: &[Report], spec: &Spec) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut spans = String::from("[\n");
    let mut first = true;
    for (pid, r) in reports.iter().enumerate() {
        if let Some(tr) = &r.tracer {
            for line in tr.chrome_lines(pid as u64 + 1, r.kind.name()) {
                if !first {
                    spans.push_str(",\n");
                }
                first = false;
                spans.push_str(&line);
            }
        }
    }
    spans.push_str("\n]\n");
    let write = |name: &str, text: &str| {
        let p = dir.join(name);
        std::fs::write(&p, text).map_err(|e| format!("{}: {e}", p.display()))
    };
    write("spans.json", &spans)?;
    write("layers.json", &layers_json(reports, spec)?.to_json_pretty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::declared;

    /// Drift guard: every workload, untraced and traced, for 2 passes,
    /// prints every metric `BENCHMARK.json` declares with its unit, and
    /// no operation fails.
    #[test]
    fn every_declared_metric_is_printed_and_nothing_fails() {
        let spec = Spec::load().expect("BENCHMARK.json parses");
        let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(
            spec.workloads, names,
            "workloads drifted from BENCHMARK.json"
        );
        let b = Budget {
            seconds: 0.0,
            setup_seconds: 0.0,
            max_passes: Some(2),
        };
        for kind in Kind::ALL {
            for traced in [false, true] {
                let r = run(kind, 1, traced, &b).expect("run");
                let text = render_text(&r, &spec).expect("every metric measured");
                for d in declared(&spec, traced) {
                    let line = text
                        .lines()
                        .find(|l| l.split_whitespace().next() == Some(d.name.as_str()))
                        .unwrap_or_else(|| panic!("{}: {} not printed", kind.name(), d.name));
                    assert!(
                        line.split_whitespace().any(|t| t == d.unit),
                        "{}: {} printed without its unit {}: {line}",
                        kind.name(),
                        d.name,
                        d.unit
                    );
                }
                assert_eq!(r.check.failed, 0, "{}: {text}", kind.name());
                assert!(r.check.attempted > 0);
                assert!(r.correct(), "{}: {text}", kind.name());
                let j = render_json(&r, &spec).expect("json").to_json();
                tfgc::obs::json::parse(&j).expect("result line is JSON");
            }
        }
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let o = parse_args(&a("--workload serve --seed 7 --seconds 3 --trace 1")).expect("ok");
        assert_eq!(o.workloads, vec![Kind::Serve]);
        assert_eq!((o.seed, o.seconds, o.trace), (7, Some(3.0), true));
        assert!(parse_args(&a("--workload nope")).is_err());
        assert!(parse_args(&a("--trace 2")).is_err());
        assert!(parse_args(&a("--seconds -1")).is_err());
        assert!(parse_args(&a("--seed")).is_err());
    }
}
