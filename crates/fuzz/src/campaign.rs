//! The campaign runner: one seed → one generated program → a matrix of
//! differential cells, an oracle pass, and a fault pass; any contract
//! violation becomes a fingerprinted [`Finding`].

use std::collections::BTreeMap;

use crate::{compile_src, shrink::shrink, FuzzCompiled};
use tfgc_gc::Strategy;
use tfgc_vm::{
    fault_case, oracle_check, run_case, with_quiet_panics, CaseOutcome, FaultPlan, VmConfig,
};
use tfgc_workloads::{generate_program, GProgram, GenConfig};

/// Campaign settings (all deterministic inputs).
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Number of seeds to run.
    pub seeds: u64,
    /// First seed (campaigns are resumable/shardable by offsetting this).
    pub seed_start: u64,
    /// Generator knobs for every seed.
    pub gen: GenConfig,
    /// Shrink each new finding's program by typed delta-debugging.
    pub shrink: bool,
    /// Predicate-evaluation budget per shrink (each evaluation re-runs
    /// the full per-seed check on a candidate).
    pub shrink_budget: u64,
    /// Test-only planted bug, to prove the pipeline detects and shrinks.
    pub planted: Option<PlantedBug>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seeds: 50,
            seed_start: 0,
            gen: GenConfig::default(),
            shrink: false,
            shrink_budget: 300,
            planted: None,
        }
    }
}

/// A deliberately planted divergence, used by tests to prove the
/// campaign detects findings and the shrinker minimizes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlantedBug {
    /// The oracle pass "lies" — reports a divergence — whenever the
    /// program references the given generated datatype. The minimal
    /// reproducer is therefore the smallest program still touching that
    /// datatype.
    OracleLiesOnDatatype(usize),
}

/// What kind of contract violation a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DivergenceKind {
    /// The generated program failed to compile (a generator bug — the
    /// universe is supposed to be well-typed by construction).
    CompileFailure,
    /// Two cells disagree on the final result (or on outcome class).
    ResultMismatch,
    /// Two cells disagree on printed output.
    PrintedMismatch,
    /// The post-collection heap verifier rejected a heap.
    VerifierFailure,
    /// The tagged-oracle node-identity pass diverged.
    OracleFailure,
    /// An unstructured panic in a clean (no-fault) cell.
    RawPanic,
    /// The seeded fault pass ended in something other than a completed
    /// run, structured error, or structured fail-fast panic.
    NonGracefulFault,
}

impl DivergenceKind {
    /// Stable slug for fingerprints and JSON.
    pub fn name(self) -> &'static str {
        match self {
            DivergenceKind::CompileFailure => "compile-failure",
            DivergenceKind::ResultMismatch => "result-mismatch",
            DivergenceKind::PrintedMismatch => "printed-mismatch",
            DivergenceKind::VerifierFailure => "verifier-failure",
            DivergenceKind::OracleFailure => "oracle-failure",
            DivergenceKind::RawPanic => "raw-panic",
            DivergenceKind::NonGracefulFault => "non-graceful-fault",
        }
    }
}

/// One deduplicated finding: the first seed that produced a fingerprint,
/// with its (possibly shrunk) reproducer source.
#[derive(Debug, Clone)]
pub struct Finding {
    pub seed: u64,
    pub kind: DivergenceKind,
    /// `kind|error-class|strategy-pair` — the dedup key.
    pub fingerprint: String,
    pub detail: String,
    /// Reproducer source (shrunk when shrinking is enabled).
    pub source: String,
    /// Expression-node count before shrinking.
    pub orig_nodes: usize,
    /// Expression-node count after shrinking (equals `orig_nodes` when
    /// shrinking is off or made no progress).
    pub shrunk_nodes: usize,
    /// Seeds that reproduced this fingerprint (first one included).
    pub count: u64,
    /// Predicate evaluations the shrinker spent on this finding.
    pub shrink_evals: u64,
}

/// Whole-campaign results.
#[derive(Debug, Clone, Default)]
pub struct CampaignReport {
    pub seeds_run: u64,
    pub seed_start: u64,
    /// Individual VM executions (cells + oracle runs + fault runs).
    pub cases_executed: u64,
    /// Clean cells that ran to completion.
    pub completed: u64,
    /// Clean cells that ended in a structured [`tfgc_vm::VmError`].
    pub structured_errors: u64,
    /// Fault-pass runs that degraded gracefully.
    pub faults_graceful: u64,
    /// Deduplicated findings, ordered by first appearance then
    /// fingerprint.
    pub findings: Vec<Finding>,
}

impl CampaignReport {
    /// Zero findings — the campaign's pass criterion.
    pub fn ok(&self) -> bool {
        self.findings.is_empty()
    }
}

/// A not-yet-deduplicated violation from one seed's check.
#[derive(Debug, Clone)]
pub(crate) struct RawFinding {
    pub kind: DivergenceKind,
    pub fingerprint: String,
    pub detail: String,
}

/// The per-strategy heap tiers: a tiny growable heap with a forced-GC
/// schedule (collections strike early and often, at allocation counts
/// that are identical across cells), and the default heap (collections
/// only where pressure puts them). The growth ceiling is sized so no
/// generated program legitimately exhausts it — any OOM divergence is a
/// real retention bug, not noise.
const TINY_HEAP: usize = 1 << 10;
const HEAP_CEILING: usize = 1 << 16;
const FORCED_GC_PERIOD: u64 = 7;

/// The heap tiers in campaign order: name, tiny heap, generational.
const TIERS: [(&str, bool, bool); 3] = [
    ("tiny", true, false),
    ("tiny-gen", true, true),
    ("default", false, false),
];

fn run_cell(
    compiled: &FuzzCompiled,
    strategy: Strategy,
    (tier, tiny, generational): (&str, bool, bool),
    seed: u64,
) -> CaseOutcome {
    let mut cfg = VmConfig::new(strategy)
        .heap_words(if tiny { TINY_HEAP } else { HEAP_CEILING })
        .heap_max_words(HEAP_CEILING)
        .verify_heap(true);
    if tiny {
        cfg = cfg.force_gc_every(FORCED_GC_PERIOD);
    }
    if generational {
        // A 256-word nursery under the same forced schedule. A forced
        // collection is always full (`machine.rs`), and one every
        // `FORCED_GC_PERIOD` allocations strikes long before the eden
        // fills, so this tier runs full collections of a generational heap
        // (nursery survivors copied into tenured space) and, at the CI
        // campaign's size, no minor collections: it does not yet test
        // aging, minor promotion or survivor overflow.
        cfg = cfg.generational(TINY_HEAP / 4, 1);
    }
    let context = format!("seed {seed} / {strategy} / heap={tier}");
    let meta = compiled.metadata(strategy);
    run_case(&compiled.program, meta, cfg, &context)
}

/// The agreement class of a cell: its outcome kind, with a structured
/// error's [`tfgc_vm::VmError::class`] (`error:oom`).
fn class(out: &CaseOutcome) -> String {
    match out {
        CaseOutcome::Error(e) => format!("error:{}", e.class()),
        other => other.kind().to_string(),
    }
}

/// Compares cell `b` with reference cell `a` on outcome class, then
/// result, then printed output, and returns the first disagreement.
/// `pair` ends the fingerprint: `s1-vs-s2` for two strategies within
/// `tier`, or the reference strategy when `generational` compares the
/// tiny tier with the tiny-gen tier.
fn disagreement(
    a: &CaseOutcome,
    b: &CaseOutcome,
    generational: bool,
    pair: &str,
    tier: &str,
) -> Option<RawFinding> {
    let (class_tag, result_tag, printed_tag) = if generational {
        ("generational-class", "generational", "generational")
    } else {
        ("class", "result", "printed")
    };
    let (ca, cb) = (class(a), class(b));
    if ca != cb {
        return Some(RawFinding {
            kind: DivergenceKind::ResultMismatch,
            fingerprint: format!("result-mismatch|{class_tag}:{ca}-vs-{cb}|{pair}"),
            detail: format!("{tier}: {pair} ended {ca} vs {cb}"),
        });
    }
    let (
        CaseOutcome::Completed {
            result: r0,
            printed: p0,
        },
        CaseOutcome::Completed {
            result: r1,
            printed: p1,
        },
    ) = (a, b)
    else {
        return None;
    };
    if r0 != r1 {
        Some(RawFinding {
            kind: DivergenceKind::ResultMismatch,
            fingerprint: format!("result-mismatch|{result_tag}|{pair}"),
            detail: format!("{tier}: {pair} got {r0} vs {r1}"),
        })
    } else if p0 != p1 {
        Some(RawFinding {
            kind: DivergenceKind::PrintedMismatch,
            fingerprint: format!("printed-mismatch|{printed_tag}|{pair}"),
            detail: format!(
                "{tier}: {pair} printed output differs ({} vs {} lines)",
                p0.len(),
                p1.len()
            ),
        })
    } else {
        None
    }
}

/// Per-seed statistics folded into the campaign totals.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SeedStats {
    pub cases: u64,
    pub completed: u64,
    pub structured_errors: u64,
    pub faults_graceful: u64,
}

/// Runs the full check matrix on one program: 15 differential cells
/// (5 strategies × 3 heap tiers), 5 oracle passes, and 5 seeded-fault
/// runs. Pure function of `(prog, seed, planted)`.
pub(crate) fn check_program(
    prog: &GProgram,
    seed: u64,
    planted: Option<PlantedBug>,
) -> (SeedStats, Vec<RawFinding>) {
    let mut stats = SeedStats::default();
    let mut findings = Vec::new();
    let src = prog.render();

    stats.cases += 1; // the compile attempt
    let compiled = match compile_src(&src) {
        Ok(c) => c,
        Err((stage, msg)) => {
            findings.push(RawFinding {
                kind: DivergenceKind::CompileFailure,
                fingerprint: format!("compile-failure|{stage}|-"),
                detail: msg,
            });
            return (stats, findings);
        }
    };

    // --- Differential cells ---------------------------------------
    // Outcomes per strategy and heap tier, in a fixed iteration order so
    // comparisons and fingerprints are deterministic.
    let mut tiny_ref: Option<CaseOutcome> = None;
    for tier in TIERS {
        let (name, tiny, generational) = tier;
        let mut cells: Vec<(Strategy, CaseOutcome)> = Vec::new();
        for s in Strategy::ALL {
            let out = run_cell(&compiled, s, tier, seed);
            stats.cases += 1;
            match &out {
                CaseOutcome::Completed { .. } => stats.completed += 1,
                CaseOutcome::Error(e) => {
                    stats.structured_errors += 1;
                    if e.class() == "verification-failed" {
                        findings.push(RawFinding {
                            kind: DivergenceKind::VerifierFailure,
                            fingerprint: format!("verifier-failure|{}|{s}", e.class()),
                            detail: format!("{name}: {e}"),
                        });
                    }
                }
                CaseOutcome::FailFast(msg) => {
                    // No fault plan is armed in clean cells, so a
                    // fail-fast panic means the runtime detected
                    // corruption it produced itself.
                    findings.push(RawFinding {
                        kind: DivergenceKind::VerifierFailure,
                        fingerprint: format!("verifier-failure|fail-fast|{s}"),
                        detail: format!("{name}: {msg}"),
                    });
                }
                CaseOutcome::RawPanic(msg) => {
                    findings.push(RawFinding {
                        kind: DivergenceKind::RawPanic,
                        fingerprint: format!("raw-panic|panic|{s}"),
                        detail: msg.clone(),
                    });
                }
            }
            cells.push((s, out));
        }

        // Cross-cell agreement within the tier: every cell must match
        // the reference cell's outcome class, result, and printed output.
        let (ref_s, ref_out) = &cells[0];
        for (s, out) in &cells[1..] {
            findings.extend(disagreement(
                ref_out,
                out,
                false,
                &format!("{ref_s}-vs-{s}"),
                name,
            ));
        }

        // Cross-tier agreement: the generational tier must agree with
        // the single-generation tiny tier on class, result, and printed
        // output — nursery evacuation, survivor aging, and promotion
        // are pure copying-plumbing and must never change semantics.
        if generational {
            if let Some(base) = &tiny_ref {
                let pair = ref_s.to_string();
                findings.extend(disagreement(base, ref_out, true, &pair, "tiny vs tiny-gen"));
            }
        } else if tiny {
            tiny_ref = Some(cells.swap_remove(0).1);
        }
    }

    // --- Oracle passes ---------------------------------------------
    for s in Strategy::ALL {
        stats.cases += 1;
        if let Err(e) = oracle_check(&compiled.program, &compiled.analyses, s, 1 << 14, 16) {
            findings.push(RawFinding {
                kind: DivergenceKind::OracleFailure,
                fingerprint: format!("oracle-failure|oracle|{s}"),
                detail: format!("seed {seed}: {e}"),
            });
        }
    }
    if let Some(PlantedBug::OracleLiesOnDatatype(d)) = planted {
        let touched = prog
            .datatypes
            .get(d)
            .and_then(Option::as_ref)
            .is_some_and(|dt| dt.variants.iter().any(|v| src.contains(&v.name)));
        if touched {
            findings.push(RawFinding {
                kind: DivergenceKind::OracleFailure,
                fingerprint: format!("oracle-failure|planted|g{d}"),
                detail: format!(
                    "planted oracle lie: divergence reported whenever datatype g{d} is referenced"
                ),
            });
        }
    }

    // --- Seeded fault pass -----------------------------------------
    let plan = FaultPlan::from_seed(seed);
    for s in Strategy::ALL {
        stats.cases += 1;
        match fault_case(&compiled.program, &compiled.analyses, s, plan) {
            CaseOutcome::RawPanic(msg) => findings.push(RawFinding {
                kind: DivergenceKind::NonGracefulFault,
                fingerprint: format!("non-graceful-fault|panic|{s}"),
                detail: format!("seed {seed} / fault {msg}"),
            }),
            _ => stats.faults_graceful += 1,
        }
    }

    (stats, findings)
}

/// The fingerprint set a program produces — the shrinker's predicate
/// substrate.
pub(crate) fn fingerprints_of(
    prog: &GProgram,
    seed: u64,
    planted: Option<PlantedBug>,
) -> Vec<String> {
    check_program(prog, seed, planted)
        .1
        .into_iter()
        .map(|f| f.fingerprint)
        .collect()
}

/// Runs the campaign. Deterministic: the report (and its JSON rendering)
/// is a pure function of the configuration.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignReport {
    with_quiet_panics(|| {
        let mut report = CampaignReport {
            seed_start: cfg.seed_start,
            ..CampaignReport::default()
        };
        // fingerprint → index into report.findings
        let mut seen: BTreeMap<String, usize> = BTreeMap::new();
        for seed in cfg.seed_start..cfg.seed_start + cfg.seeds {
            report.seeds_run += 1;
            let prog = generate_program(seed, &cfg.gen);
            let (stats, raw) = check_program(&prog, seed, cfg.planted);
            report.cases_executed += stats.cases;
            report.completed += stats.completed;
            report.structured_errors += stats.structured_errors;
            report.faults_graceful += stats.faults_graceful;
            for rf in raw {
                if let Some(&i) = seen.get(&rf.fingerprint) {
                    report.findings[i].count += 1;
                    continue;
                }
                let orig_nodes = prog.size();
                let mut finding = Finding {
                    seed,
                    kind: rf.kind,
                    fingerprint: rf.fingerprint.clone(),
                    detail: rf.detail,
                    source: prog.render(),
                    orig_nodes,
                    shrunk_nodes: orig_nodes,
                    count: 1,
                    shrink_evals: 0,
                };
                if cfg.shrink {
                    let r = shrink(&prog, &rf.fingerprint, seed, cfg.planted, cfg.shrink_budget);
                    finding.shrunk_nodes = r.program.size();
                    finding.source = r.program.render();
                    finding.shrink_evals = r.evals;
                }
                seen.insert(rf.fingerprint, report.findings.len());
                report.findings.push(finding);
            }
        }
        report.findings.sort_by(|a, b| {
            (a.kind, &a.fingerprint, a.seed).cmp(&(b.kind, &b.fingerprint, b.seed))
        });
        report
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_campaign_has_no_findings() {
        let cfg = CampaignConfig {
            seeds: 6,
            ..CampaignConfig::default()
        };
        let report = run_campaign(&cfg);
        assert_eq!(report.seeds_run, 6);
        // 1 compile + 15 cells + 5 oracle + 5 fault per seed.
        assert_eq!(report.cases_executed, 6 * 26);
        assert!(
            report.ok(),
            "unexpected findings: {:#?}",
            report
                .findings
                .iter()
                .map(|f| (&f.fingerprint, &f.detail))
                .collect::<Vec<_>>()
        );
        assert!(report.completed > 0);
        assert_eq!(report.faults_graceful, 6 * 5);
    }

    #[test]
    fn campaign_reports_are_deterministic() {
        let cfg = CampaignConfig {
            seeds: 3,
            seed_start: 11,
            ..CampaignConfig::default()
        };
        let a = crate::report_json(&cfg, &run_campaign(&cfg));
        let b = crate::report_json(&cfg, &run_campaign(&cfg));
        assert_eq!(a, b, "same seeds must produce bit-identical reports");
    }

    #[test]
    fn disagreements_keep_their_fingerprints() {
        let done = |result: &str, printed: Vec<i64>| CaseOutcome::Completed {
            result: result.to_string(),
            printed,
        };
        let oom = CaseOutcome::Error(tfgc_vm::VmError::OutOfMemory {
            requested: 2,
            live: 1024,
            site: 3,
            strategy: "tagged",
        });
        let base = done("1", vec![5]);
        let fingerprint = |b: &CaseOutcome, generational: bool, pair: &str| {
            disagreement(&base, b, generational, pair, "tiny").map(|f| (f.kind, f.fingerprint))
        };
        let pair = "compiled-vs-tagged";
        assert_eq!(fingerprint(&done("1", vec![5]), false, pair), None);
        assert_eq!(fingerprint(&done("1", vec![5]), true, "compiled"), None);
        for (b, generational, pair, kind, expected) in [
            (
                &oom,
                false,
                pair,
                DivergenceKind::ResultMismatch,
                "result-mismatch|class:completed-vs-error:oom|compiled-vs-tagged",
            ),
            (
                &done("2", vec![5]),
                false,
                pair,
                DivergenceKind::ResultMismatch,
                "result-mismatch|result|compiled-vs-tagged",
            ),
            (
                &done("1", vec![]),
                false,
                pair,
                DivergenceKind::PrintedMismatch,
                "printed-mismatch|printed|compiled-vs-tagged",
            ),
            (
                &oom,
                true,
                "compiled",
                DivergenceKind::ResultMismatch,
                "result-mismatch|generational-class:completed-vs-error:oom|compiled",
            ),
            (
                &done("2", vec![5]),
                true,
                "compiled",
                DivergenceKind::ResultMismatch,
                "result-mismatch|generational|compiled",
            ),
            (
                &done("1", vec![]),
                true,
                "compiled",
                DivergenceKind::PrintedMismatch,
                "printed-mismatch|generational|compiled",
            ),
        ] {
            assert_eq!(
                fingerprint(b, generational, pair),
                Some((kind, expected.to_string()))
            );
        }
        // A result mismatch is reported before a printed one.
        assert_eq!(
            fingerprint(&done("2", vec![]), false, pair).map(|f| f.1),
            Some("result-mismatch|result|compiled-vs-tagged".to_string())
        );
    }

    #[test]
    fn planted_oracle_lie_is_detected() {
        let cfg = CampaignConfig {
            seeds: 1,
            seed_start: 2,
            planted: Some(PlantedBug::OracleLiesOnDatatype(0)),
            ..CampaignConfig::default()
        };
        let report = run_campaign(&cfg);
        assert_eq!(report.findings.len(), 1, "{:#?}", report.findings);
        let f = &report.findings[0];
        assert_eq!(f.kind, DivergenceKind::OracleFailure);
        assert_eq!(f.fingerprint, "oracle-failure|planted|g0");
    }
}
