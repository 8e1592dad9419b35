//! The torture matrix: seeded workloads under every collection strategy
//! with a seed-derived [`FaultPlan`], each run as
//! [`tfgc_vm::fault_case`] (heap verification on, a tight but growable
//! heap). Its contract is [`CaseOutcome`]'s: every run ends in a
//! completed result, a structured [`tfgc_vm::VmError`], or a structured
//! fail-fast panic — never a raw panic.

use crate::pipeline::Compiled;
use tfgc_gc::Strategy;
use tfgc_vm::{fault_case, with_quiet_panics, CaseOutcome, FaultPlan};
use tfgc_workloads::{generate, programs, GenConfig};

/// One (workload, strategy, fault schedule) run of the matrix.
#[derive(Debug, Clone)]
pub struct TortureCase {
    /// Workload name (`generated` for the seed-derived random program).
    pub workload: String,
    pub strategy: Strategy,
    /// Seed the fault plan (and any generated program) derives from.
    pub seed: u64,
    pub plan: FaultPlan,
    pub outcome: CaseOutcome,
}

/// Results of a whole torture matrix.
#[derive(Debug, Default)]
pub struct TortureReport {
    pub cases: Vec<TortureCase>,
}

impl TortureReport {
    /// Cases that violated the contract (raw panics).
    pub fn raw_panics(&self) -> Vec<&TortureCase> {
        self.cases
            .iter()
            .filter(|c| !c.outcome.is_graceful())
            .collect()
    }

    /// Did every case end gracefully?
    pub fn ok(&self) -> bool {
        self.raw_panics().is_empty()
    }

    /// Count of cases of the given [`CaseOutcome::kind`].
    pub fn count(&self, kind: &str) -> usize {
        self.cases
            .iter()
            .filter(|c| c.outcome.kind() == kind)
            .count()
    }

    /// One-line summary: `N cases: a completed, b error, c fail-fast, d raw`.
    pub fn summary(&self) -> String {
        format!(
            "{} cases: {} completed, {} structured errors, {} fail-fast, {} raw panics",
            self.cases.len(),
            self.count("completed"),
            self.count("error"),
            self.count("fail-fast"),
            self.count("raw-panic"),
        )
    }
}

/// Fixed allocation-heavy workloads for the matrix — small enough that a
/// seeds × strategies sweep stays fast, varied enough to cover lists,
/// trees, closures, and polymorphic frames. `shapes` uses a datatype
/// with two *boxed* constructors because only those store a
/// discriminant word — without it the corruption fault class could
/// never fire.
fn torture_workloads() -> Vec<(&'static str, String)> {
    vec![
        ("churn", programs::churn(40, 20)),
        ("naive_rev", programs::naive_rev(24)),
        ("tree_insert", programs::tree_insert(40)),
        ("pipeline", programs::pipeline(40)),
        (
            "shapes",
            "datatype shape = Circle of int | Rect of int * int ;
             fun build n = if n = 0 then []
                 else (if n mod 2 = 0 then Circle n else Rect (n, n)) :: build (n - 1) ;
             fun area s = case s of Circle r => r * r | Rect (w, h) => w * h ;
             fun total xs = case xs of [] => 0 | s :: r => area s + total r ;
             total (build 30)"
                .to_string(),
        ),
    ]
}

/// Runs the torture matrix: for each seed, the fixed workloads plus one
/// seed-generated program, each under all five strategies with the
/// seed's fault plan. Panic output from expected fail-fast cases is
/// suppressed for the duration (the hook is restored before returning).
pub fn torture(seeds: &[u64]) -> TortureReport {
    let fixed: Vec<(String, Compiled)> = torture_workloads()
        .into_iter()
        .map(|(name, src)| {
            let c = Compiled::compile(&src).expect("torture workload compiles");
            (name.to_string(), c)
        })
        .collect();

    with_quiet_panics(|| {
        let mut report = TortureReport::default();
        for &seed in seeds {
            let plan = FaultPlan::from_seed(seed);
            let gen_src = generate(seed, &GenConfig::default());
            let generated = Compiled::compile(&gen_src).expect("generated program compiles");
            let mut programs: Vec<(&str, &Compiled)> =
                fixed.iter().map(|(n, c)| (n.as_str(), c)).collect();
            programs.push(("generated", &generated));
            for (name, c) in programs {
                for s in Strategy::ALL {
                    report.cases.push(TortureCase {
                        workload: name.to_string(),
                        strategy: s,
                        seed,
                        plan,
                        outcome: fault_case(&c.program, c.metadata(s), plan),
                    });
                }
            }
        }
        report
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfgc_vm::{oracle_check, run_case, VmConfig, VmError};

    #[test]
    fn torture_matrix_ends_gracefully() {
        let report = torture(&[1, 2, 3, 4]);
        assert!(!report.cases.is_empty());
        let raw: Vec<String> = report
            .raw_panics()
            .iter()
            .map(|c| {
                format!(
                    "{} / {} / seed {} ({}): {:?}",
                    c.workload,
                    c.strategy,
                    c.seed,
                    c.plan.describe(),
                    c.outcome
                )
            })
            .collect();
        assert!(report.ok(), "raw panics:\n{}", raw.join("\n"));
        // The seeds above cover several fault classes; at least one case
        // must have degraded (structured error or fail-fast) rather than
        // every fault silently missing its trigger.
        assert!(
            report.count("error") + report.count("fail-fast") > 0,
            "no fault ever fired: {}",
            report.summary()
        );
    }

    #[test]
    fn oracle_agrees_under_all_strategies() {
        let c = Compiled::compile(&programs::naive_rev(40)).unwrap();
        for s in Strategy::ALL {
            let (out, collections) =
                oracle_check(&c.program, &c.analyses, c.metadata(s), 1 << 14, 32)
                    .unwrap_or_else(|e| panic!("{s}: {e}"));
            assert!(collections > 0, "{s}: no collections compared");
            assert_eq!(out.result, "40", "{s}");
        }
    }

    #[test]
    fn oracle_agrees_on_polymorphic_closures() {
        let c = Compiled::compile(&programs::poly_capture(60)).unwrap();
        for s in Strategy::ALL {
            let (_, collections) =
                oracle_check(&c.program, &c.analyses, c.metadata(s), 1 << 14, 24)
                    .unwrap_or_else(|e| panic!("{s}: {e}"));
            assert!(collections > 0, "{s}: no collections compared");
        }
    }

    #[test]
    fn alloc_failure_fault_is_absorbed_by_collect_and_retry() {
        let compiled = Compiled::compile(&programs::churn(30, 10)).unwrap();
        let clean = compiled
            .run_with(VmConfig::new(Strategy::Compiled).heap_words(1 << 12))
            .unwrap();
        let plan = FaultPlan {
            alloc_fail_at: Some(5),
            ..FaultPlan::none()
        };
        let cfg = VmConfig::new(Strategy::Compiled)
            .heap_words(1 << 12)
            .verify_heap(true)
            .fault_plan(plan);
        let out = compiled
            .run_with_meta(cfg, compiled.metadata(Strategy::Compiled))
            .unwrap();
        assert_eq!(out.result, clean.result);
        // The forced failure must have driven at least one collection the
        // clean run never needed.
        assert!(out.heap.collections > clean.heap.collections);
    }

    #[test]
    fn exhaustion_fault_surfaces_structured_out_of_memory() {
        // Needs ~2n words live; growth is refused from the first
        // allocation, so the run must end in a structured OOM.
        let compiled = Compiled::compile(
            "fun build n = if n = 0 then [] else n :: build (n - 1) ;
             fun len xs = case xs of [] => 0 | _ :: t => 1 + len t ;
             len (build 2000)",
        )
        .unwrap();
        let plan = FaultPlan {
            exhaust_at: Some(1),
            ..FaultPlan::none()
        };
        let cfg = VmConfig::new(Strategy::Compiled)
            .heap_words(1 << 9)
            .heap_max_words(1 << 15)
            .fault_plan(plan);
        let err = compiled
            .run_with_meta(cfg, compiled.metadata(Strategy::Compiled))
            .unwrap_err();
        assert!(
            matches!(
                err,
                VmError::OutOfMemory {
                    strategy: "compiled",
                    ..
                }
            ),
            "{err}"
        );
        // Without the fault the same configuration is rescued by growth.
        let cfg = VmConfig::new(Strategy::Compiled)
            .heap_words(1 << 9)
            .heap_max_words(1 << 15)
            .verify_heap(true);
        let out = compiled
            .run_with_meta(cfg, compiled.metadata(Strategy::Compiled))
            .unwrap();
        assert_eq!(out.result, "2000");
        assert!(out.heap.grows > 0);
    }

    /// Runs `src` with its fifth allocation given a discriminant no
    /// variant has, under each strategy, with a collection forced every
    /// 8 allocations and the heap verifier on. Only datatypes with
    /// several boxed constructors store a discriminant word
    /// (single-pointer-constructor types like cons elide it), so the
    /// fifth allocation must build a shape-like object.
    fn corrupted_discriminant_outcomes(
        src: &str,
        strategies: &[Strategy],
    ) -> Vec<(Strategy, CaseOutcome)> {
        let compiled = Compiled::compile(src).unwrap();
        let plan = FaultPlan {
            corrupt_discriminant_at: Some(5),
            ..FaultPlan::none()
        };
        with_quiet_panics(|| {
            strategies
                .iter()
                .map(|&s| {
                    let cfg = VmConfig::new(s)
                        .heap_words(1 << 12)
                        .force_gc_every(8)
                        .verify_heap(true)
                        .fault_plan(plan);
                    let meta = compiled.metadata(s);
                    (s, run_case(&compiled.program, meta, cfg, &s.to_string()))
                })
                .collect()
        })
    }

    #[test]
    fn corrupted_discriminant_is_detected_not_mistraced() {
        // The first 30 allocations are `shape` objects, each held in a
        // frame slot until its cons cell is built.
        let src = "datatype shape = Circle of int | Rect of int * int ;
             fun build n = if n = 0 then []
                 else (if n mod 2 = 0 then Circle n else Rect (n, n)) :: build (n - 1) ;
             fun area s = case s of Circle r => r * r | Rect (w, h) => w * h ;
             fun total xs = case xs of [] => 0 | s :: r => area s + total r ;
             total (build 30)";
        for (s, outcome) in corrupted_discriminant_outcomes(src, &Strategy::ALL) {
            assert!(
                matches!(outcome, CaseOutcome::Error(_) | CaseOutcome::FailFast(_)),
                "{s}: corruption not detected: {outcome:?}"
            );
        }
    }

    #[test]
    fn corruption_panic_names_the_root_tracing_started_from() {
        // Allocations alternate shape and cons, so the corrupt fifth one
        // is the third shape, and by the first collection it sits inside
        // the accumulated list: the collector reaches it while draining
        // what a root reached, not at the root itself. Each root context
        // is drained before the next starts, so the panic still names
        // the global, frame or operands the bad word was reached from —
        // under both tracing engines.
        let src = "datatype shape = Circle of int | Rect of int * int ;
             fun build n acc = if n = 0 then acc
                 else build (n - 1) ((if n mod 2 = 0 then Circle n else Rect (n, n)) :: acc) ;
             fun area s = case s of Circle r => r * r | Rect (w, h) => w * h ;
             fun total xs = case xs of [] => 0 | s :: r => area s + total r ;
             total (build 30 [])";
        let engines = [Strategy::Compiled, Strategy::Interpreted];
        for (s, outcome) in corrupted_discriminant_outcomes(src, &engines) {
            let CaseOutcome::FailFast(msg) = outcome else {
                panic!("{s}: expected a fail-fast panic, got {outcome:?}");
            };
            assert!(msg.contains("heap corruption:"), "{s}: {msg}");
            let names_root = (msg.contains("reached tracing frame fn ")
                && msg.contains(" at site "))
                || msg.contains("reached tracing global ")
                || msg.contains("reached tracing allocation operands ");
            assert!(names_root, "{s}: the panic must name its root: {msg}");
            assert!(!msg.contains("no frame context"), "{s}: {msg}");
        }
    }

    #[test]
    fn truncated_stack_map_fails_fast_on_polymorphic_frames() {
        // A torn stack map only bites when a collection traces a frame
        // whose routine reads one of the missing type parameters, so try
        // every polymorphic function as the victim under frequent forced
        // collections: at least one must trip the fail-fast path, and no
        // victim may cause an unstructured panic. The Interpreted
        // strategy resolves parameters through byte descriptors (a
        // separate lookup path the torture matrix once caught raw-
        // panicking), so both tracers are exercised.
        let compiled = Compiled::compile(&programs::poly_deep_alloc(60)).unwrap();
        let meta = compiled.metadata(Strategy::Compiled);
        let victims: Vec<u32> = meta
            .fns
            .iter()
            .enumerate()
            .filter(|(_, f)| !f.frame_param_src.is_empty())
            .map(|(i, _)| i as u32)
            .collect();
        assert!(
            !victims.is_empty(),
            "poly_deep_alloc has polymorphic frames"
        );
        let mut raw = Vec::new();
        let mut detected = [0usize; 2];
        with_quiet_panics(|| {
            for (si, s) in [Strategy::Compiled, Strategy::Interpreted]
                .into_iter()
                .enumerate()
            {
                for &victim in &victims {
                    let plan = FaultPlan {
                        truncate_frame_params_of: Some(victim),
                        ..FaultPlan::none()
                    };
                    let cfg = VmConfig::new(s)
                        .heap_words(1 << 12)
                        .force_gc_every(2)
                        .fault_plan(plan);
                    let context = format!("{s} fn {victim}");
                    match run_case(&compiled.program, compiled.metadata(s), cfg, &context) {
                        CaseOutcome::FailFast(_) => detected[si] += 1,
                        CaseOutcome::RawPanic(msg) => raw.push(msg),
                        _ => {}
                    }
                }
            }
        });
        assert!(raw.is_empty(), "raw panics: {raw:#?}");
        assert!(
            detected.iter().all(|&n| n > 0),
            "a strategy never tripped the torn-stack-map check: {detected:?}"
        );
    }

    #[test]
    fn single_thread_heap_growth_is_bounded_and_counted() {
        let compiled = Compiled::compile(
            "fun build n = if n = 0 then [] else n :: build (n - 1) ;
             fun len xs = case xs of [] => 0 | _ :: t => 1 + len t ;
             len (build 1500)",
        )
        .unwrap();
        let cfg = VmConfig::new(Strategy::Compiled)
            .heap_words(1 << 9)
            .heap_max_words(1 << 13)
            .verify_heap(true);
        let out = compiled
            .run_with_meta(cfg, compiled.metadata(Strategy::Compiled))
            .unwrap();
        assert_eq!(out.result, "1500");
        assert!(out.heap.grows > 0, "heap never grew");
        // The cap itself: a live set beyond the bound is a structured OOM.
        let cfg = VmConfig::new(Strategy::Compiled)
            .heap_words(1 << 7)
            .heap_max_words(1 << 9);
        let err = compiled
            .run_with_meta(cfg, compiled.metadata(Strategy::Compiled))
            .unwrap_err();
        assert!(matches!(err, VmError::OutOfMemory { .. }), "{err}");
    }

    #[test]
    fn verifier_passes_on_gc_heavy_runs_across_strategies() {
        for (name, src) in [
            ("naive_rev", programs::naive_rev(30)),
            ("tree_insert", programs::tree_insert(50)),
            ("pipeline", programs::pipeline(50)),
        ] {
            let compiled = Compiled::compile(&src).unwrap();
            for s in Strategy::ALL {
                let cfg = VmConfig::new(s)
                    .heap_words(1 << 12)
                    .force_gc_every(16)
                    .verify_heap(true);
                compiled
                    .run_with_meta(cfg, compiled.metadata(s))
                    .unwrap_or_else(|e| panic!("{name} under {s}: {e}"));
            }
        }
    }
}
