//! Rendering a run's report: the text table, the result object that ends
//! standard output, and `layers.json`.

use crate::measure::{Report, Value};
use crate::spec::{MetricDef, Spec};
use tfgc::obs::Json;

/// The metrics a report must carry: every end-to-end metric untraced,
/// every per-layer metric traced.
pub fn declared(spec: &Spec, traced: bool) -> &[MetricDef] {
    if traced {
        &spec.per_layer
    } else {
        &spec.end_to_end
    }
}

/// The report's metrics in `BENCHMARK.json` order, each with its unit.
/// A declared metric the run did not produce, or a produced one the file
/// does not declare, is a drift between the two.
pub fn ordered<'r>(
    r: &'r Report,
    spec: &Spec,
) -> Result<Vec<(&'r str, &'r Value, String)>, String> {
    let defs = declared(spec, r.traced);
    for name in r.values.keys() {
        if !defs.iter().any(|d| &d.name == name) {
            return Err(format!("metric {name} is not declared in BENCHMARK.json"));
        }
    }
    defs.iter()
        .map(|d| {
            r.values
                .get_key_value(&d.name)
                .map(|(k, v)| (k.as_str(), v, d.unit.clone()))
                .ok_or_else(|| format!("{}: metric {} was not measured", r.kind.name(), d.name))
        })
        .collect()
}

/// The human-readable report: one line per metric with its unit and
/// sample count.
pub fn render_text(r: &Report, spec: &Spec) -> Result<String, String> {
    let mut s = format!(
        "{} (seed {}, {}): {} operations checked, {} failed; reference digest {:016x}{}\n",
        r.kind.name(),
        r.seed,
        if r.traced {
            "traced run"
        } else {
            "clean passes"
        },
        r.check.attempted,
        r.check.failed,
        r.reference_digest,
        if r.reference_ok {
            ""
        } else {
            " DOES NOT MATCH the committed digest"
        },
    );
    if let Some(m) = &r.check.first_mismatch {
        s.push_str(&format!("  first mismatch: {m}\n"));
    }
    for (name, v, unit) in ordered(r, spec)? {
        // An unresolved percentile prints as n/a; its nearest-rank value,
        // which the JSON line carries, follows in the notes.
        let (shown, value_note) = match v.quantile {
            Some(q) if !q.resolved() => (q.to_string(), format!("; value {:.4}", v.value)),
            Some(q) => (q.to_string(), String::new()),
            None => (format!("{:.4} (n={})", v.value, v.samples), String::new()),
        };
        s.push_str(&format!(
            "  {name:<42} {shown:>28} {unit:<12} {}{value_note}\n",
            v.base
        ));
    }
    Ok(s)
}

/// The result object: the last line of standard output.
pub fn render_json(r: &Report, spec: &Spec) -> Result<Json, String> {
    let metrics = ordered(r, spec)?
        .into_iter()
        .map(|(name, v, unit)| {
            (
                name.to_string(),
                Json::obj([("value", Json::Num(v.value)), ("unit", Json::str(unit))]),
            )
        })
        .collect();
    Ok(Json::obj([
        ("correct", Json::Bool(r.correct())),
        ("attempted", Json::from(r.check.attempted.max(1))),
        ("failed", Json::from(r.check.failed)),
        ("metrics", Json::Obj(metrics)),
    ]))
}

/// `layers.json`: every per-layer metric with its unit, sample count
/// and base.
pub fn layers_json(reports: &[Report], spec: &Spec) -> Result<Json, String> {
    let mut out = Vec::new();
    for r in reports.iter().filter(|r| r.traced) {
        let metrics = ordered(r, spec)?
            .into_iter()
            .map(|(name, v, unit)| {
                (
                    name.to_string(),
                    Json::obj([
                        ("value", Json::Num(v.value)),
                        ("unit", Json::str(unit)),
                        ("samples", Json::from(v.samples)),
                        ("resolved", Json::Bool(v.resolved())),
                        ("base", Json::str(v.base.clone())),
                    ]),
                )
            })
            .collect();
        out.push((
            r.kind.name().to_string(),
            Json::obj([
                ("seed", Json::from(r.seed)),
                ("metrics", Json::Obj(metrics)),
            ]),
        ));
    }
    Ok(Json::Obj(out))
}
