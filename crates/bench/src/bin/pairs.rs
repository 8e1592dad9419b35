//! Paired comparison of two builds of the repository benchmark
//! (`examples/benchmark`), by the rules of its README's "Comparing two
//! commits":
//!
//! ```sh
//! cargo run --release -p tfgc-bench --bin pairs -- \
//!     --parent PARENT_BIN --change CHANGE_BIN [--workload W]... \
//!     [--seed 2] [--seconds S] [--pairs 10] [--json OUT] [--spec BENCHMARK.json]
//! ```
//!
//! For each workload (default: every one `BENCHMARK.json` declares) it
//! runs `--pairs` pairs of runs, the parent first in even pairs and the
//! change first in odd ones, each as `BIN --workload W --seed N
//! --seconds S`, and reads the run's result line (the last JSON object
//! the benchmark prints). Then, for every end-to-end metric of
//! `BENCHMARK.json`, with its `better` direction and `bound`:
//!
//! - a metric whose unit is not a time is a count, which must repeat
//!   exactly in every run: `equal` or `differs`;
//! - `gain`: the change is better in at least 9 of every 10 pairs (ties
//!   count for neither) and the two medians lie further apart than the
//!   parent's IQR;
//! - `unresolved`: either side's IQR, as a share of its median, exceeds
//!   the bound, so the bound cannot be judged, unless every run of the
//!   change is better than every run of the parent (`within bound`);
//! - `regression`: the change's median is worse than the parent's by
//!   more than the bound;
//! - `within bound` otherwise.
//!
//! Medians and quartiles are nearest-rank, as in the benchmark. It
//! prints one table row per workload and metric and, with `--json`,
//! writes the same verdicts with every run's value. The exit status is 1
//! when a metric regresses, a count differs or an operation failed, and
//! 2 on a usage error.
//!
//! `--layers` compares the work instead of the time: it runs each binary
//! once per workload with `--trace 1` and requires every per-layer metric
//! of `BENCHMARK.json` whose unit counts work (`count`, `words`, `B`,
//! `KiB` or `instructions`) to read the same on both sides. It prints
//! each metric that differs, or how many counts agreed, and exits 1 when
//! one differs or an operation failed. Then it prints every per-layer
//! metric that is not a count (in `BENCHMARK.json`: the times and
//! ratios), both sides and change/parent, so a change can show which
//! layer its time moved in (a time both sides read as 0 is left out). Those come from one traced
//! run per side and get no verdict: they never decide the exit status.
//! `--pairs` and `--json` do not apply.

use std::process::{Command, ExitCode};
use tfgc::obs::json::parse;
use tfgc::obs::Json;

const USAGE: &str = "usage: pairs --parent BIN --change BIN [--workload W]... [--seed N] \
                     [--seconds S] [--pairs N | --layers] [--json OUT] [--spec BENCHMARK.json]";

/// Per-layer units that count work rather than time it.
const COUNT_UNITS: [&str; 5] = ["count", "words", "B", "KiB", "instructions"];

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
struct Metric {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: f64,
}

impl Metric {
    /// Times vary from run to run; everything else is a count.
    fn is_time(&self) -> bool {
        matches!(self.unit.as_str(), "s" | "ms" | "us" | "ns")
    }
}

/// What this comparison reads from `BENCHMARK.json`.
#[derive(Debug)]
struct Spec {
    workloads: Vec<String>,
    metrics: Vec<Metric>,
    /// The per-layer metrics whose unit is one of [`COUNT_UNITS`].
    layer_counts: Vec<String>,
    /// Every other per-layer metric: `--layers` prints them and judges
    /// none.
    layer_times: Vec<String>,
    run_seconds: f64,
}

fn read_spec(text: &str) -> Result<Spec, String> {
    let doc = parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let str_of = |j: &Json, key: &str| match j.get(key) {
        Some(Json::Str(s)) => Ok(s.clone()),
        _ => Err(format!("BENCHMARK.json: an entry lacks the string `{key}`")),
    };
    let list = |key: &str| {
        doc.get(key)
            .and_then(Json::as_arr)
            .ok_or(format!("BENCHMARK.json: no `{key}` list"))
    };
    let workloads = list("workloads")?
        .iter()
        .map(|w| str_of(w, "name"))
        .collect::<Result<_, _>>()?;
    let metrics = list("end_to_end")?
        .iter()
        .map(|m| {
            Ok(Metric {
                name: str_of(m, "name")?,
                unit: str_of(m, "unit")?,
                lower_is_better: str_of(m, "better")? == "lower",
                bound: m.get("bound").and_then(Json::as_f64).ok_or(format!(
                    "BENCHMARK.json: metric `{}` has no bound",
                    str_of(m, "name")?
                ))?,
            })
        })
        .collect::<Result<_, String>>()?;
    let (mut layer_counts, mut layer_times) = (Vec::new(), Vec::new());
    for m in list("per_layer")? {
        let unit = str_of(m, "unit")?;
        if COUNT_UNITS.contains(&unit.as_str()) {
            layer_counts.push(str_of(m, "name")?);
        } else {
            layer_times.push(str_of(m, "name")?);
        }
    }
    let run_seconds = doc
        .get("run_seconds")
        .and_then(Json::as_f64)
        .ok_or("BENCHMARK.json: no `run_seconds`")?;
    Ok(Spec {
        workloads,
        metrics,
        layer_counts,
        layer_times,
        run_seconds,
    })
}

/// One run's result line.
#[derive(Debug, Clone, PartialEq)]
struct RunResult {
    failed: f64,
    values: Vec<(String, f64)>,
}

impl RunResult {
    fn value(&self, metric: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| n == metric)
            .map(|(_, v)| *v)
    }
}

/// Reads the last JSON object of a run's standard output.
fn read_result(stdout: &str) -> Result<RunResult, String> {
    let line = stdout
        .lines()
        .rev()
        .find(|l| l.trim_start().starts_with('{'))
        .ok_or("no result line in the run's output")?;
    let doc = parse(line.trim())?;
    let failed = doc
        .get("failed")
        .and_then(Json::as_f64)
        .ok_or("result line has no `failed`")?;
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        return Err("result line has no `metrics` object".into());
    };
    let values = metrics
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(RunResult { failed, values })
}

/// Nearest-rank percentile `bp` (basis points) of sorted samples.
fn quantile(sorted: &[f64], bp: usize) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (bp * sorted.len()).div_ceil(10_000).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median and quartiles of one side's runs.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Spread {
    q1: f64,
    median: f64,
    q3: f64,
}

impl Spread {
    fn of(values: &[f64]) -> Spread {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Spread {
            q1: quantile(&sorted, 2_500),
            median: quantile(&sorted, 5_000),
            q3: quantile(&sorted, 7_500),
        }
    }

    fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }

    /// The IQR as a share of the median.
    fn relative_iqr(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            self.iqr() / self.median.abs()
        }
    }
}

/// One metric of one workload, judged.
#[derive(Debug, Clone, PartialEq)]
struct Judged {
    metric: Metric,
    parent: Vec<f64>,
    change: Vec<f64>,
    /// Pairs the change won.
    wins: usize,
    verdict: &'static str,
}

impl Judged {
    /// The change's median relative to the parent's (`-0.3` = 30% lower).
    fn delta(&self) -> f64 {
        let (p, c) = (
            Spread::of(&self.parent).median,
            Spread::of(&self.change).median,
        );
        if p == 0.0 {
            0.0
        } else {
            (c - p) / p.abs()
        }
    }
}

/// Applies the README's rules to one metric's paired values (pair `k`
/// is `(parent[k], change[k])`).
fn judge(metric: &Metric, parent: Vec<f64>, change: Vec<f64>) -> Judged {
    let better = |c: f64, p: f64| {
        if metric.lower_is_better {
            c < p
        } else {
            c > p
        }
    };
    let wins = parent
        .iter()
        .zip(&change)
        .filter(|(p, c)| better(**c, **p))
        .count();
    let (ps, cs) = (Spread::of(&parent), Spread::of(&change));
    // How much worse the change's median is, as a share of the
    // parent's (negative when it is better).
    let worse = if ps.median == 0.0 {
        0.0
    } else if metric.lower_is_better {
        (cs.median - ps.median) / ps.median.abs()
    } else {
        (ps.median - cs.median) / ps.median.abs()
    };
    let verdict = if !metric.is_time() {
        if parent.iter().chain(&change).all(|v| *v == parent[0]) {
            "equal"
        } else {
            "differs"
        }
    } else if wins * 10 >= 9 * parent.len()
        && better(cs.median, ps.median)
        && (cs.median - ps.median).abs() > ps.iqr()
    {
        "gain"
    } else if ps.relative_iqr().max(cs.relative_iqr()) > metric.bound
        && !change.iter().all(|c| parent.iter().all(|p| better(*c, *p)))
    {
        "unresolved"
    } else if worse > metric.bound {
        "regression"
    } else {
        "within bound"
    };
    Judged {
        metric: metric.clone(),
        parent,
        change,
        wins,
        verdict,
    }
}

/// Every metric of one workload from its paired runs.
fn judge_workload(metrics: &[Metric], runs: &[(RunResult, RunResult)]) -> Vec<Judged> {
    metrics
        .iter()
        .filter_map(|m| {
            let side = |pick: fn(&(RunResult, RunResult)) -> &RunResult| {
                runs.iter()
                    .map(|r| pick(r).value(&m.name))
                    .collect::<Option<Vec<f64>>>()
            };
            Some(judge(m, side(|r| &r.0)?, side(|r| &r.1)?))
        })
        .collect()
}

fn fmt_spread(values: &[f64]) -> String {
    let s = Spread::of(values);
    format!("{:.4} ({:.4}–{:.4})", s.median, s.q1, s.q3)
}

fn table_row(workload: &str, j: &Judged) -> String {
    format!(
        "{:<10} {:<16} {:<34} {:<34} {:>+8.1}% {:>3}/{:<3} {}",
        workload,
        j.metric.name,
        fmt_spread(&j.parent),
        fmt_spread(&j.change),
        100.0 * j.delta(),
        j.wins,
        j.parent.len(),
        j.verdict
    )
}

fn table_header() -> String {
    format!(
        "{:<10} {:<16} {:<34} {:<34} {:>9} {:>7} verdict",
        "workload", "metric", "parent median (q1–q3)", "change median (q1–q3)", "change", "wins"
    )
}

fn side_json(values: &[f64]) -> Json {
    let s = Spread::of(values);
    Json::obj([
        ("median", Json::Num(s.median)),
        ("q1", Json::Num(s.q1)),
        ("q3", Json::Num(s.q3)),
        ("runs", Json::arr(values.iter().map(|v| Json::Num(*v)))),
    ])
}

fn judged_json(j: &Judged) -> Json {
    Json::obj([
        ("name", Json::str(j.metric.name.clone())),
        ("unit", Json::str(j.metric.unit.clone())),
        (
            "better",
            Json::str(if j.metric.lower_is_better {
                "lower"
            } else {
                "higher"
            }),
        ),
        ("bound", Json::Num(j.metric.bound)),
        ("parent", side_json(&j.parent)),
        ("change", side_json(&j.change)),
        ("delta", Json::Num(j.delta())),
        ("wins", Json::Num(j.wins as f64)),
        ("verdict", Json::str(j.verdict)),
    ])
}

/// One count of the `--layers` comparison that did not repeat: its
/// value on each side (`None` where that run did not report it).
#[derive(Debug, Clone, PartialEq)]
struct CountDiff {
    name: String,
    parent: Option<f64>,
    change: Option<f64>,
}

/// The counts among `names` that differ between two traced runs.
fn differing_counts(names: &[String], parent: &RunResult, change: &RunResult) -> Vec<CountDiff> {
    names
        .iter()
        .map(|name| CountDiff {
            name: name.clone(),
            parent: parent.value(name),
            change: change.value(name),
        })
        .filter(|d| d.parent != d.change)
        .collect()
}

/// The `--layers` printout of the times among `names`: one line each,
/// both sides and change/parent. A time neither traced run reported, or
/// that both read as 0 (a layer the workload does not run), is left out.
fn layer_time_rows(
    workload: &str,
    names: &[String],
    parent: &RunResult,
    change: &RunResult,
) -> Vec<String> {
    let value = |v: Option<f64>| v.map_or("missing".into(), |v| format!("{v:.4}"));
    names
        .iter()
        .filter_map(|name| {
            let (p, c) = (parent.value(name), change.value(name));
            let ratio = match (p, c) {
                (Some(p), Some(c)) if p != 0.0 => format!("{:.3}", c / p),
                (None | Some(0.0), None | Some(0.0)) => return None,
                _ => "n/a".into(),
            };
            Some(format!(
                "{workload:<10} {name:<40} parent {:>14} change {:>14} change/parent {ratio:>7}",
                value(p),
                value(c)
            ))
        })
        .collect()
}

/// Runs one benchmark binary once and reads its result line; `traced`
/// adds `--trace 1`, for the per-layer metrics.
fn run_once(
    bin: &str,
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<RunResult, String> {
    let out = Command::new(bin)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(if traced { &["--trace", "1"][..] } else { &[] })
        .output()
        .map_err(|e| format!("cannot run `{bin}`: {e}"))?;
    read_result(&String::from_utf8_lossy(&out.stdout))
        .map_err(|e| format!("`{bin} --workload {workload}`: {e} (exit {})", out.status))
}

struct Args {
    parent: String,
    change: String,
    workloads: Vec<String>,
    seed: u64,
    seconds: Option<f64>,
    pairs: usize,
    layers: bool,
    json: Option<String>,
    spec: String,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        parent: String::new(),
        change: String::new(),
        workloads: Vec::new(),
        seed: 2,
        seconds: None,
        pairs: 10,
        layers: false,
        json: None,
        spec: "BENCHMARK.json".into(),
    };
    let mut paired = false;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--layers" {
            a.layers = true;
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .cloned()
            .ok_or(format!("{} needs a value", args[i]))?;
        let number = |what: &str| format!("bad {what} `{value}`");
        match args[i].as_str() {
            "--parent" => a.parent = value,
            "--change" => a.change = value,
            "--workload" => a.workloads.push(value),
            "--seed" => a.seed = value.parse().map_err(|_| number("--seed"))?,
            "--seconds" => a.seconds = Some(value.parse().map_err(|_| number("--seconds"))?),
            "--pairs" => {
                a.pairs = value.parse().map_err(|_| number("--pairs"))?;
                paired = true;
            }
            "--json" => {
                a.json = Some(value);
                paired = true;
            }
            "--spec" => a.spec = value,
            other => return Err(format!("unknown option `{other}`")),
        }
        i += 2;
    }
    if a.parent.is_empty() || a.change.is_empty() {
        return Err("--parent and --change are required".into());
    }
    if a.pairs == 0 {
        return Err("--pairs must be at least 1".into());
    }
    if a.layers && paired {
        return Err("--layers runs each side once and writes no JSON".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pairs: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let verdict = if args.layers {
        compare_layers(&args)
    } else {
        compare(&args)
    };
    match verdict {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("pairs: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The spec, the workloads to run and the seconds per run.
fn plan(args: &Args) -> Result<(Spec, Vec<String>, f64), String> {
    let text = std::fs::read_to_string(&args.spec)
        .map_err(|e| format!("cannot read `{}`: {e}", args.spec))?;
    let spec = read_spec(&text)?;
    let workloads = if args.workloads.is_empty() {
        spec.workloads.clone()
    } else {
        args.workloads.clone()
    };
    let seconds = args.seconds.unwrap_or(spec.run_seconds);
    Ok((spec, workloads, seconds))
}

/// `--layers`: one traced run per side and workload, every per-layer
/// count compared, then every other per-layer metric printed side by side;
/// `Ok(false)` when a count differed or an operation failed.
fn compare_layers(args: &Args) -> Result<bool, String> {
    let (spec, workloads, seconds) = plan(args)?;
    let mut ok = true;
    let mut times =
        vec!["per-layer times and ratios: one traced run per side, no verdict".to_string()];
    for w in &workloads {
        let parent = run_once(&args.parent, w, args.seed, seconds, true)?;
        let change = run_once(&args.change, w, args.seed, seconds, true)?;
        let diffs = differing_counts(&spec.layer_counts, &parent, &change);
        let value = |v: Option<f64>| v.map_or("missing".into(), |v| v.to_string());
        for d in &diffs {
            println!(
                "{w:<10} {:<40} parent {:>14} change {:>14}",
                d.name,
                value(d.parent),
                value(d.change)
            );
        }
        if diffs.is_empty() {
            println!(
                "{w:<10} {} per-layer counts equal",
                spec.layer_counts
                    .iter()
                    .filter(|n| parent.value(n).is_some())
                    .count()
            );
        }
        ok &= diffs.is_empty() && parent.failed == 0.0 && change.failed == 0.0;
        times.extend(layer_time_rows(w, &spec.layer_times, &parent, &change));
    }
    println!("{}", times.join("\n"));
    Ok(ok)
}

/// Runs the pairs and prints the verdicts; `Ok(false)` when a metric
/// regressed, a count differed or an operation failed.
fn compare(args: &Args) -> Result<bool, String> {
    let (spec, workloads, seconds) = plan(args)?;
    let mut ok = true;
    let mut rows = vec![table_header()];
    let mut docs = Vec::new();
    for w in &workloads {
        let mut runs = Vec::with_capacity(args.pairs);
        for k in 0..args.pairs {
            let (first, second) = if k % 2 == 0 {
                (&args.parent, &args.change)
            } else {
                (&args.change, &args.parent)
            };
            let a = run_once(first, w, args.seed, seconds, false)?;
            let b = run_once(second, w, args.seed, seconds, false)?;
            let (parent, change) = if k % 2 == 0 { (a, b) } else { (b, a) };
            eprintln!(
                "{w} pair {}/{}: failed {}/{}",
                k + 1,
                args.pairs,
                parent.failed,
                change.failed
            );
            runs.push((parent, change));
        }
        let failed: [f64; 2] = [
            runs.iter().map(|r| r.0.failed).sum(),
            runs.iter().map(|r| r.1.failed).sum(),
        ];
        ok &= failed == [0.0, 0.0];
        let judged = judge_workload(&spec.metrics, &runs);
        for j in &judged {
            ok &= !matches!(j.verdict, "regression" | "differs");
            rows.push(table_row(w, j));
        }
        docs.push(Json::obj([
            ("name", Json::str(w.clone())),
            ("failed_parent", Json::Num(failed[0])),
            ("failed_change", Json::Num(failed[1])),
            ("metrics", Json::arr(judged.iter().map(judged_json))),
        ]));
    }
    println!("{}", rows.join("\n"));
    if let Some(path) = &args.json {
        let doc = Json::obj([
            ("seed", Json::Num(args.seed as f64)),
            ("seconds", Json::Num(seconds)),
            ("pairs", Json::Num(args.pairs as f64)),
            ("workloads", Json::arr(docs)),
        ]);
        std::fs::write(path, doc.to_json_pretty() + "\n")
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(pass_ms: f64, p50: f64, bytes: f64, failed: u32) -> String {
        format!(
            "{{\"correct\":true,\"attempted\":378,\"failed\":{failed},\"metrics\":{{\
             \"pass_ms\":{{\"value\":{pass_ms},\"unit\":\"ms\"}},\
             \"latency_us.p50\":{{\"value\":{p50},\"unit\":\"us\"}},\
             \"metadata_bytes\":{{\"value\":{bytes},\"unit\":\"B\"}}}}}}"
        )
    }

    fn metrics() -> Vec<Metric> {
        let spec = read_spec(include_str!("../../../../BENCHMARK.json")).unwrap();
        assert!(spec.workloads.iter().any(|w| w == "mutator"));
        spec.metrics
            .into_iter()
            .filter(|m| ["pass_ms", "latency_us.p50", "metadata_bytes"].contains(&m.name.as_str()))
            .collect()
    }

    fn verdicts(runs: &[(String, String)]) -> Vec<(String, &'static str, usize)> {
        let runs: Vec<(RunResult, RunResult)> = runs
            .iter()
            .map(|(p, c)| (read_result(p).unwrap(), read_result(c).unwrap()))
            .collect();
        judge_workload(&metrics(), &runs)
            .into_iter()
            .map(|j| (j.metric.name.clone(), j.verdict, j.wins))
            .collect()
    }

    #[test]
    fn result_lines_parse_after_the_metric_printout() {
        let out = format!(
            "  pass_ms   14.6 (n=39) ms\n{}\n",
            line(14.6, 1700.0, 2856.0, 0)
        );
        let r = read_result(&out).unwrap();
        assert_eq!(r.failed, 0.0);
        assert_eq!(r.value("pass_ms"), Some(14.6));
        assert_eq!(r.value("metadata_bytes"), Some(2856.0));
        assert!(read_result("no json here").is_err());
    }

    #[test]
    fn canned_pairs_get_the_readme_verdicts() {
        // pass_ms: 10 of 10 pairs faster, medians 14 vs 9.4 with the
        // parent's IQR 0.2: a gain. p50: 5% worse, inside its 25% bound.
        // metadata_bytes: identical counts.
        let runs: Vec<(String, String)> = (0..10)
            .map(|k| {
                let jitter = f64::from(k % 3) * 0.1;
                (
                    line(14.0 + jitter, 1000.0 + jitter, 2856.0, 0),
                    line(9.4 + jitter, 1050.0 + jitter, 2856.0, 0),
                )
            })
            .collect();
        let v = verdicts(&runs);
        assert_eq!(v[0], ("pass_ms".into(), "gain", 10));
        assert_eq!(v[1], ("latency_us.p50".into(), "within bound", 0));
        assert_eq!(v[2], ("metadata_bytes".into(), "equal", 0));
    }

    #[test]
    fn regressions_spread_and_counts_are_caught() {
        // pass_ms 40% worse with a tight spread: a regression. p50
        // spreads past its bound on the parent side: unresolved.
        // metadata_bytes moves in one run: differs.
        let runs: Vec<(String, String)> = (0..10)
            .map(|k| {
                let p50 = if k % 2 == 0 { 500.0 } else { 1500.0 };
                let bytes = if k == 3 { 2900.0 } else { 2856.0 };
                (line(10.0, p50, 2856.0, 0), line(14.0, 1000.0, bytes, 0))
            })
            .collect();
        let v = verdicts(&runs);
        assert_eq!(v[0].1, "regression");
        assert_eq!(v[1].1, "unresolved");
        assert_eq!(v[2].1, "differs");
    }

    #[test]
    fn a_wide_spread_is_unresolved_unless_every_change_run_is_better() {
        // The parent's pass_ms spreads past the bound (IQR 40% of its
        // median). Every change run beats every parent run, so the
        // spread cannot hide a regression; the median gap (10%) is below
        // the parent's IQR, so it is no gain either. p50 spreads the same
        // way with the change no better: unresolved.
        let runs: Vec<(String, String)> = (0..10)
            .map(|k| {
                let parent = if k % 2 == 0 { 10.0 } else { 14.0 };
                (line(parent, parent, 1.0, 0), line(9.0, 10.0, 1.0, 0))
            })
            .collect();
        let v = verdicts(&runs);
        assert_eq!(v[0], ("pass_ms".into(), "within bound", 10));
        assert_eq!(v[1].1, "unresolved");
    }

    #[test]
    fn eight_wins_of_ten_is_no_gain() {
        let runs: Vec<(String, String)> = (0..10)
            .map(|k| {
                let change = if k < 8 { 9.0 } else { 15.0 };
                (line(10.0, 1.0, 1.0, 0), line(change, 1.0, 1.0, 0))
            })
            .collect();
        let v = verdicts(&runs);
        assert_eq!(v[0], ("pass_ms".into(), "within bound", 8));
    }

    #[test]
    fn quartiles_are_nearest_rank() {
        let s = Spread::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.0, 3.0, 4.0));
        let even = Spread::of(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        assert_eq!((even.q1, even.median, even.q3), (2.0, 4.0, 6.0));
    }

    /// A traced run's result line with the given per-layer values.
    fn traced_line(values: &[(&str, f64, &str)]) -> String {
        let metrics: Vec<String> = values
            .iter()
            .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{v},\"unit\":\"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\":true,\"attempted\":4,\"failed\":0,\"metrics\":{{{}}}}}",
            metrics.join(",")
        )
    }

    #[test]
    fn layers_compare_every_count_and_no_time() {
        let spec = read_spec(include_str!("../../../../BENCHMARK.json")).unwrap();
        let counts = &spec.layer_counts;
        for name in [
            "vm.instructions",
            "runtime.words_copied",
            "gc.desc_bytes_read",
        ] {
            assert!(counts.iter().any(|n| n == name), "{name} is a count");
        }
        for name in ["gc.ns_per_frame", "gc.share", "syntax.parse_ms"] {
            assert!(!counts.iter().any(|n| n == name), "{name} is not a count");
        }
        let parent = traced_line(&[
            ("vm.instructions", 5000.0, "count"),
            ("gc.frames_visited", 320.0, "count"),
            ("runtime.words_copied", 56.0, "words"),
            ("tasking.max_suspension_latency", 9.0, "instructions"),
            ("gc.collect_ms", 2.5, "ms"),
            ("gc.share", 0.4, "ratio"),
        ]);
        // Times and ratios move; a count moves; another is missing.
        let change = traced_line(&[
            ("vm.instructions", 5000.0, "count"),
            ("gc.frames_visited", 321.0, "count"),
            ("tasking.max_suspension_latency", 9.0, "instructions"),
            ("gc.collect_ms", 1.1, "ms"),
            ("gc.share", 0.2, "ratio"),
        ]);
        let (p, c) = (read_result(&parent).unwrap(), read_result(&change).unwrap());
        assert_eq!(
            differing_counts(counts, &p, &c),
            [
                CountDiff {
                    name: "runtime.words_copied".into(),
                    parent: Some(56.0),
                    change: None,
                },
                CountDiff {
                    name: "gc.frames_visited".into(),
                    parent: Some(320.0),
                    change: Some(321.0),
                },
            ]
        );
        assert!(differing_counts(counts, &p, &p).is_empty());
    }

    #[test]
    fn layers_print_every_time_side_by_side() {
        let spec = read_spec(include_str!("../../../../BENCHMARK.json")).unwrap();
        let times = &spec.layer_times;
        for name in ["gc.collect_ms", "gc.ns_per_word_copied", "gc.share"] {
            assert!(times.iter().any(|n| n == name), "{name} is printed");
        }
        assert!(!times.iter().any(|n| spec.layer_counts.contains(n)));
        let parent = traced_line(&[
            ("vm.instructions", 5000.0, "count"),
            ("gc.collect_ms", 2.5, "ms"),
            ("gc.share", 0.4, "ratio"),
            ("vm.ns_per_instr", 0.0, "ns"),
            ("gc.ns_per_frame", 0.0, "ns"),
        ]);
        let change = traced_line(&[
            ("vm.instructions", 5000.0, "count"),
            ("gc.collect_ms", 1.1, "ms"),
            ("vm.ns_per_instr", 6.0, "ns"),
            ("gc.ns_per_frame", 0.0, "ns"),
        ]);
        let (p, c) = (read_result(&parent).unwrap(), read_result(&change).unwrap());
        let rows = layer_time_rows("gc_wide", times, &p, &c);
        let row = |name: &str| {
            rows.iter()
                .find(|r| r.split_whitespace().nth(1) == Some(name))
                .map(|r| r.split_whitespace().collect::<Vec<_>>())
        };
        // Both sides and change/parent; a side that did not report the
        // metric, or a zero parent, has no ratio; a count, and a time
        // both sides read as 0, is not printed.
        assert_eq!(
            row("gc.collect_ms").unwrap()[2..].join(" "),
            "parent 2.5000 change 1.1000 change/parent 0.440"
        );
        assert_eq!(row("gc.share").unwrap()[5], "missing");
        assert_eq!(row("gc.share").unwrap()[7], "n/a");
        assert_eq!(row("vm.ns_per_instr").unwrap()[7], "n/a");
        assert!(row("vm.instructions").is_none());
        assert!(row("gc.ns_per_frame").is_none());
        assert_eq!(rows.len(), 3, "a time neither side reported is left out");
    }

    #[test]
    fn arguments_need_both_binaries() {
        let args = |s: &[&str]| parse_args(&s.iter().map(|a| a.to_string()).collect::<Vec<_>>());
        assert!(args(&["--parent", "a"]).is_err());
        assert!(args(&["--parent", "a", "--change", "b", "--pairs", "0"]).is_err());
        assert!(args(&["--parent", "a", "--change", "b", "--seed"]).is_err());
        let a = args(&["--parent", "a", "--change", "b", "--workload", "serve"]).unwrap();
        assert_eq!((a.seed, a.pairs, a.workloads.len()), (2, 10, 1));
        assert!(!a.layers);
        let a = args(&["--layers", "--parent", "a", "--change", "b"]).unwrap();
        assert!(a.layers);
        assert!(args(&["--layers", "--parent", "a", "--change", "b", "--pairs", "3"]).is_err());
    }
}
