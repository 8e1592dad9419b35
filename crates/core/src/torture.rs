//! Torture harness and tagged-oracle differential checking.
//!
//! The torture matrix runs seeded workloads under every collection
//! strategy with a seed-derived [`FaultPlan`], heap verification on, and
//! a deliberately tight (but growable) heap. The robustness contract it
//! enforces: **every run ends in a completed result, a structured
//! [`VmError`], or a structured fail-fast panic — never a raw panic.** A
//! raw panic means an injected fault was mistraced instead of detected.
//!
//! [`oracle_check`] is the differential half: the same program replayed
//! under the fully tagged collector with an identical forced-collection
//! schedule must observe byte-for-byte identical canonical reachable
//! graphs at every collection (§6's argument that tag-free tracing loses
//! no information the tags carried).

use crate::pipeline::Compiled;
use tfgc_gc::Strategy;
use tfgc_vm::{capture_panics_mut, diff, with_quiet_panics, FaultPlan, Vm, VmConfig, VmError};
use tfgc_workloads::{generate, programs, GenConfig};

/// How one torture case ended.
#[derive(Debug, Clone)]
pub enum TortureOutcome {
    /// Ran to completion (the injected fault was absorbed or never fired).
    Completed(String),
    /// Surfaced a structured [`VmError`] — graceful degradation.
    Error(VmError),
    /// Hit a structured fail-fast panic (heap corruption, torn stack
    /// map): the fault was *detected*, not silently mistraced.
    FailFast(String),
    /// An unstructured panic — always a harness failure.
    RawPanic(String),
}

impl TortureOutcome {
    /// Everything except a raw panic satisfies the robustness contract.
    pub fn is_graceful(&self) -> bool {
        !matches!(self, TortureOutcome::RawPanic(_))
    }

    /// Short class name for report tables.
    pub fn class(&self) -> &'static str {
        match self {
            TortureOutcome::Completed(_) => "completed",
            TortureOutcome::Error(_) => "error",
            TortureOutcome::FailFast(_) => "fail-fast",
            TortureOutcome::RawPanic(_) => "RAW PANIC",
        }
    }
}

/// One (workload, strategy, fault schedule) run of the matrix.
#[derive(Debug, Clone)]
pub struct TortureCase {
    /// Workload name (`generated` for the seed-derived random program).
    pub workload: String,
    pub strategy: Strategy,
    /// Seed the fault plan (and any generated program) derives from.
    pub seed: u64,
    pub plan: FaultPlan,
    pub outcome: TortureOutcome,
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

    /// Count of cases in the given outcome class.
    pub fn count(&self, class: &str) -> usize {
        self.cases
            .iter()
            .filter(|c| c.outcome.class() == class)
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
            self.count("RAW PANIC"),
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

/// Runs one case: tight growable heap, verifier on, fault plan armed.
/// Panic capture and classification live in the shared
/// [`tfgc_vm::capture_panics_mut`] helper (also used by the fuzz
/// campaign workers).
fn run_case(compiled: &Compiled, strategy: Strategy, plan: FaultPlan) -> TortureOutcome {
    let meta = compiled.metadata(strategy);
    let cfg = VmConfig::new(strategy)
        .heap_words(1 << 10)
        .heap_max_words(1 << 14)
        .verify_heap(true)
        .fault_plan(plan);
    let context = format!("{strategy} ({})", plan.describe());
    match capture_panics_mut(&context, || compiled.run_with_meta(cfg, meta)) {
        Ok(Ok(out)) => TortureOutcome::Completed(out.result),
        Ok(Err(e)) => TortureOutcome::Error(e),
        Err(p) if p.structured => TortureOutcome::FailFast(p.message),
        Err(p) => TortureOutcome::RawPanic(p.describe()),
    }
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
            for (name, compiled) in programs {
                for s in Strategy::ALL {
                    let outcome = run_case(compiled, s, plan);
                    report.cases.push(TortureCase {
                        workload: name.to_string(),
                        strategy: s,
                        seed,
                        plan,
                        outcome,
                    });
                }
            }
        }
        report
    })
}

/// Summary of a successful oracle run.
#[derive(Debug, Clone)]
pub struct OracleReport {
    pub strategy: Strategy,
    /// Collections compared (snapshots are taken before every collection).
    pub collections: usize,
    pub result: String,
}

/// Differential oracle: runs `compiled` under `strategy` and again under
/// the fully tagged collector with the same heap size and forced-GC
/// schedule, then asserts the two runs observed identical canonical
/// reachable graphs at every collection, and identical results/output.
///
/// The tagged replay receives the tag-free run's metadata purely to
/// locate root slots; everything below the roots is traced by tags
/// alone, so agreement shows the type-driven walk reconstructed exactly
/// the reachable set the tags describe.
///
/// # Errors
///
/// A human-readable description of the first divergence (or of a VM
/// error in either run).
pub fn oracle_check(
    compiled: &Compiled,
    strategy: Strategy,
    heap_words: usize,
    force_gc_every: u64,
) -> Result<OracleReport, String> {
    let meta = compiled.metadata(strategy);
    // Snapshot root enumeration always follows a *tag-free* metadata
    // set. For the tagged strategy itself (whose own metadata omits
    // every gc_word) borrow the no-liveness build, which keeps all of
    // them.
    let root_meta = if strategy == Strategy::Tagged {
        compiled.metadata(Strategy::CompiledNoLiveness)
    } else {
        meta.clone()
    };
    let cfg = VmConfig::new(strategy)
        .heap_words(heap_words)
        .force_gc_every(force_gc_every);
    let mut vm = Vm::with_meta(&compiled.program, cfg, meta);
    vm.enable_snapshots(root_meta.clone());
    let out = vm.run().map_err(|e| format!("{strategy}: {e}"))?;
    let snaps = vm.take_snapshots();

    let tagged_cfg = VmConfig::new(Strategy::Tagged)
        .heap_words(heap_words)
        .force_gc_every(force_gc_every);
    let mut tagged_vm = Vm::with_meta(
        &compiled.program,
        tagged_cfg,
        compiled.metadata(Strategy::Tagged),
    );
    tagged_vm.enable_snapshots(root_meta);
    let tagged_out = tagged_vm.run().map_err(|e| format!("tagged oracle: {e}"))?;
    let tagged_snaps = tagged_vm.take_snapshots();

    if out.result != tagged_out.result {
        return Err(format!(
            "result differs: {} ({strategy}) vs {} (tagged)",
            out.result, tagged_out.result
        ));
    }
    if out.printed != tagged_out.printed {
        return Err(format!(
            "printed output differs ({} lines vs {})",
            out.printed.len(),
            tagged_out.printed.len()
        ));
    }
    if snaps.len() != tagged_snaps.len() {
        return Err(format!(
            "collection count differs: {} ({strategy}) vs {} (tagged)",
            snaps.len(),
            tagged_snaps.len()
        ));
    }
    for (i, (a, b)) in snaps.iter().zip(&tagged_snaps).enumerate() {
        if let Some(d) = diff(a, b) {
            return Err(format!(
                "collection {i}: reachable graphs differ ({strategy} vs tagged): {d}"
            ));
        }
    }
    Ok(OracleReport {
        strategy,
        collections: snaps.len(),
        result: out.result,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let compiled = Compiled::compile(&programs::naive_rev(40)).unwrap();
        for s in Strategy::ALL {
            let rep =
                oracle_check(&compiled, s, 1 << 14, 32).unwrap_or_else(|e| panic!("{s}: {e}"));
            assert!(rep.collections > 0, "{s}: no collections compared");
            assert_eq!(rep.result, "40", "{s}");
        }
    }

    #[test]
    fn oracle_agrees_on_polymorphic_closures() {
        let compiled = Compiled::compile(&programs::poly_capture(60)).unwrap();
        for s in Strategy::ALL {
            let rep =
                oracle_check(&compiled, s, 1 << 14, 24).unwrap_or_else(|e| panic!("{s}: {e}"));
            assert!(rep.collections > 0, "{s}: no collections compared");
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
    ) -> Vec<(Strategy, TortureOutcome)> {
        let compiled = Compiled::compile(src).unwrap();
        let plan = FaultPlan {
            corrupt_discriminant_at: Some(5),
            ..FaultPlan::none()
        };
        with_quiet_panics(|| {
            strategies
                .iter()
                .map(|&s| {
                    let meta = compiled.metadata(s);
                    let cfg = VmConfig::new(s)
                        .heap_words(1 << 12)
                        .force_gc_every(8)
                        .verify_heap(true)
                        .fault_plan(plan);
                    let outcome = match capture_panics_mut(&s.to_string(), || {
                        compiled.run_with_meta(cfg, meta)
                    }) {
                        Ok(Ok(out)) => TortureOutcome::Completed(out.result),
                        Ok(Err(e)) => TortureOutcome::Error(e),
                        Err(p) if p.structured => TortureOutcome::FailFast(p.message),
                        Err(p) => TortureOutcome::RawPanic(p.describe()),
                    };
                    (s, outcome)
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
                matches!(
                    outcome,
                    TortureOutcome::Error(_) | TortureOutcome::FailFast(_)
                ),
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
            let TortureOutcome::FailFast(msg) = outcome else {
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
        let mut panics: Vec<(Strategy, u32, tfgc_vm::CapturedPanic)> = Vec::new();
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
                    let res = capture_panics_mut(&format!("{s} fn {victim}"), || {
                        compiled.run_with_meta(cfg, compiled.metadata(s))
                    });
                    if let Err(p) = res {
                        detected[si] += 1;
                        panics.push((s, victim, p));
                    }
                }
            }
        });
        for (s, victim, p) in &panics {
            assert!(p.structured, "{s} fn {victim}: raw panic: {}", p.message);
        }
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
