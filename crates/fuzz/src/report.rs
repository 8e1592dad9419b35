//! Bit-deterministic JSON rendering of a campaign (the `BENCH_E14.json`
//! artifact CI gates on).
//!
//! Determinism rules: no wall-clock or environment data, insertion-
//! ordered objects only, findings pre-sorted by the campaign, and a
//! trailing FNV-1a digest of the document-without-digest so a replayed
//! campaign can be compared byte-for-byte by comparing one line.

use crate::campaign::{CampaignConfig, CampaignReport};
use tfgc_obs::Json;
use tfgc_workloads::fnv1a64;

/// Renders the campaign report as a deterministic JSON document string
/// (pretty-printed, trailing newline, digest included).
pub fn report_json(cfg: &CampaignConfig, report: &CampaignReport) -> String {
    let n = |v: u64| Json::Num(v as f64);
    let findings = Json::arr(report.findings.iter().map(|f| {
        Json::obj([
            ("seed", n(f.seed)),
            ("kind", Json::str(f.kind.name())),
            ("fingerprint", Json::str(f.fingerprint.clone())),
            ("count", n(f.count)),
            ("detail", Json::str(f.detail.clone())),
            ("orig_nodes", Json::Num(f.orig_nodes as f64)),
            ("shrunk_nodes", Json::Num(f.shrunk_nodes as f64)),
            ("shrink_evals", n(f.shrink_evals)),
            (
                "source_lines",
                Json::Num(f.source.trim().lines().count() as f64),
            ),
            ("source", Json::str(f.source.clone())),
        ])
    }));
    let mut doc = Json::obj([
        ("experiment", Json::str("E14")),
        (
            "description",
            Json::str("differential fuzzing campaign: strategies x heap tiers, tagged oracle, seeded faults"),
        ),
        ("seeds", n(report.seeds_run)),
        ("seed_start", n(report.seed_start)),
        (
            "gen_config",
            Json::obj([
                ("max_depth", Json::Num(f64::from(cfg.gen.max_depth))),
                ("n_funs", Json::Num(cfg.gen.n_funs as f64)),
                ("fuel", Json::Num(f64::from(cfg.gen.fuel))),
                ("n_datatypes", Json::Num(cfg.gen.n_datatypes as f64)),
                (
                    "max_recursion",
                    Json::Num(f64::from(cfg.gen.max_recursion)),
                ),
                ("higher_order", Json::Bool(cfg.gen.higher_order)),
                ("polymorphism", Json::Bool(cfg.gen.polymorphism)),
            ]),
        ),
        ("shrink", Json::Bool(cfg.shrink)),
        ("cases_executed", n(report.cases_executed)),
        ("completed", n(report.completed)),
        ("structured_errors", n(report.structured_errors)),
        ("faults_graceful", n(report.faults_graceful)),
        ("finding_count", Json::Num(report.findings.len() as f64)),
        ("findings", findings),
    ]);
    let digest = fnv1a64(doc.to_json().as_bytes());
    if let Json::Obj(pairs) = &mut doc {
        pairs.push(("digest".to_string(), Json::str(format!("{digest:016x}"))));
    }
    let mut s = doc.to_json_pretty();
    s.push('\n');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, CampaignConfig};

    #[test]
    fn report_is_deterministic_and_carries_digest() {
        let cfg = CampaignConfig {
            seeds: 2,
            seed_start: 30,
            ..CampaignConfig::default()
        };
        let r1 = report_json(&cfg, &run_campaign(&cfg));
        let r2 = report_json(&cfg, &run_campaign(&cfg));
        assert_eq!(r1, r2);
        assert!(r1.contains("\"digest\""));
        assert!(r1.contains("\"experiment\": \"E14\""));
        let parsed = tfgc_obs::json::parse(&r1).expect("report parses");
        assert_eq!(
            parsed.get("cases_executed").and_then(Json::as_f64),
            Some(2.0 * 26.0)
        );
        assert_eq!(
            parsed.get("finding_count").and_then(Json::as_f64),
            Some(0.0)
        );
    }
}
