//! The metric dictionary: `BENCHMARK.json` at the repository root,
//! embedded at build time so the names, units and bounds the benchmark
//! prints are exactly the ones the file declares.

use tfgc::obs::json::{parse, Json};

/// The file's text, as built into this binary.
pub const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

/// One metric as the file declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    /// Seconds one run measures (the `--seconds` default).
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

fn metrics(doc: &Json, key: &str) -> Result<Vec<MetricDef>, String> {
    let arr = doc
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json: `{key}` is not a list"))?;
    arr.iter()
        .map(|m| {
            let s = |k: &str| match m.get(k) {
                Some(Json::Str(v)) => Ok(v.clone()),
                _ => Err(format!("BENCHMARK.json: a `{key}` entry lacks `{k}`")),
            };
            let better = s("better")?;
            if better != "higher" && better != "lower" {
                return Err(format!("BENCHMARK.json: bad `better` {better:?}"));
            }
            Ok(MetricDef {
                name: s("name")?,
                unit: s("unit")?,
                higher_is_better: better == "higher",
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

impl Spec {
    /// Parses the embedded file.
    ///
    /// # Errors
    ///
    /// Malformed JSON or a metric entry missing a field.
    pub fn load() -> Result<Spec, String> {
        let doc = parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("BENCHMARK.json: `workloads` is not a list")?
            .iter()
            .filter_map(|w| match w.get("name") {
                Some(Json::Str(n)) => Some(n.clone()),
                _ => None,
            })
            .collect();
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: `run_seconds` is not a number")?,
            workloads,
            end_to_end: metrics(&doc, "end_to_end")?,
            per_layer: metrics(&doc, "per_layer")?,
        })
    }
}
