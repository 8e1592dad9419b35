//! One case of a correctness harness: run a program, classify how it
//! ended, or replay it against the tagged oracle.
//!
//! The torture matrix (`tfgc::torture`) and the fuzz campaign
//! (`tfgc_fuzz`) are built from the three functions here. [`run_case`]
//! runs one configuration with panics captured and classifies the end
//! as a [`CaseOutcome`]. The robustness contract: **every run ends in a
//! completed result, a structured [`VmError`], or a structured
//! fail-fast panic — never a raw panic.** A raw panic means an injected
//! fault was mistraced instead of detected. [`fault_case`] is the
//! seeded-fault configuration both harnesses run, and [`oracle_check`]
//! is the differential half: the same program replayed under the fully
//! tagged collector with an identical forced-collection schedule must
//! observe byte-for-byte identical canonical reachable graphs at every
//! collection (§6's argument that tag-free tracing loses no information
//! the tags carried).

use crate::{capture_panics_mut, RunOutcome, Vm, VmConfig, VmError};
use tfgc_gc::{Analyses, GcMeta, Strategy};
use tfgc_ir::IrProgram;
use tfgc_verify::{diff, FaultPlan};

impl VmError {
    /// Short stable class name: fuzz fingerprints and outcome classes
    /// (`error:oom`) are built from it.
    pub fn class(&self) -> &'static str {
        match self {
            VmError::OutOfMemory { .. } => "oom",
            VmError::MatchFailure { .. } => "match-failure",
            VmError::DivideByZero { .. } => "divide-by-zero",
            VmError::StepLimit { .. } => "step-limit",
            VmError::StackOverflow { .. } => "stack-overflow",
            VmError::VerificationFailed { .. } => "verification-failed",
            VmError::DeadlineExceeded { .. } => "deadline",
            VmError::Internal { .. } => "internal",
        }
    }
}

/// How one harness case ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CaseOutcome {
    /// Ran to completion (an injected fault was absorbed or never fired).
    Completed { result: String, printed: Vec<i64> },
    /// Surfaced a structured [`VmError`]: graceful degradation.
    Error(VmError),
    /// Hit a structured fail-fast panic (heap corruption, torn stack
    /// map): a fault was *detected*, not silently mistraced.
    FailFast(String),
    /// An unstructured panic, described with its case context: always a
    /// harness failure.
    RawPanic(String),
}

impl CaseOutcome {
    /// `completed`, `error`, `fail-fast` or `raw-panic`.
    pub fn kind(&self) -> &'static str {
        match self {
            CaseOutcome::Completed { .. } => "completed",
            CaseOutcome::Error(_) => "error",
            CaseOutcome::FailFast(_) => "fail-fast",
            CaseOutcome::RawPanic(_) => "raw-panic",
        }
    }

    /// Everything except a raw panic satisfies the robustness contract.
    pub fn is_graceful(&self) -> bool {
        !matches!(self, CaseOutcome::RawPanic(_))
    }
}

/// Runs `prog` under `cfg` with `meta` to its end, capturing any panic
/// (`context` names the case in a raw panic's description).
pub fn run_case(prog: &IrProgram, meta: GcMeta, cfg: VmConfig, context: &str) -> CaseOutcome {
    match capture_panics_mut(context, || Vm::with_meta(prog, cfg, meta).run()) {
        Ok(Ok(out)) => CaseOutcome::Completed {
            result: out.result,
            printed: out.printed,
        },
        Ok(Err(e)) => CaseOutcome::Error(e),
        Err(p) if p.structured => CaseOutcome::FailFast(p.message),
        Err(p) => CaseOutcome::RawPanic(p.describe()),
    }
}

/// Runs `prog` under `strategy` with `plan` armed: a 1 Ki-word heap
/// growable to 16 Ki words, the heap verifier on.
pub fn fault_case(
    prog: &IrProgram,
    analyses: &Analyses,
    strategy: Strategy,
    plan: FaultPlan,
) -> CaseOutcome {
    let cfg = VmConfig::new(strategy)
        .heap_words(1 << 10)
        .heap_max_words(1 << 14)
        .verify_heap(true)
        .fault_plan(plan);
    let meta = GcMeta::build(prog, analyses, strategy);
    let context = format!("{strategy} ({})", plan.describe());
    run_case(prog, meta, cfg, &context)
}

/// Differential oracle: runs `prog` under `strategy` and again under the
/// fully tagged collector with the same heap size and forced-collection
/// schedule, then requires identical canonical reachable graphs at every
/// collection and identical results and printed output. Returns the
/// tag-free run and the number of collections compared.
///
/// The tagged replay receives the tag-free run's metadata purely to
/// locate root slots; everything below the roots is traced by tags
/// alone, so agreement shows the type-driven walk reconstructed exactly
/// the reachable set the tags describe.
///
/// # Errors
///
/// A description of the first divergence, or of a VM error or panic in
/// either run.
pub fn oracle_check(
    prog: &IrProgram,
    analyses: &Analyses,
    strategy: Strategy,
    heap_words: usize,
    force_gc_every: u64,
) -> Result<(RunOutcome, usize), String> {
    let meta = GcMeta::build(prog, analyses, strategy);
    // Snapshot root enumeration always follows a *tag-free* metadata
    // set. For the tagged strategy itself (whose own metadata omits
    // every gc_word) borrow the no-liveness build, which keeps all of
    // them.
    let root_meta = if strategy == Strategy::Tagged {
        GcMeta::build(prog, analyses, Strategy::CompiledNoLiveness)
    } else {
        meta.clone()
    };
    let run = |s: Strategy, meta: GcMeta, roots: GcMeta| {
        let cfg = VmConfig::new(s)
            .heap_words(heap_words)
            .force_gc_every(force_gc_every);
        capture_panics_mut(&format!("oracle / {strategy}"), || {
            let mut vm = Vm::with_meta(prog, cfg, meta);
            vm.enable_snapshots(roots);
            let out = vm.run();
            (out, vm.take_snapshots())
        })
        .map_err(|p| p.describe())
    };
    let (out, snaps) = run(strategy, meta, root_meta.clone())?;
    let out = out.map_err(|e| format!("{strategy}: {e}"))?;
    let tagged_meta = GcMeta::build(prog, analyses, Strategy::Tagged);
    let (tagged_out, tagged_snaps) = run(Strategy::Tagged, tagged_meta, root_meta)?;
    let tagged_out = tagged_out.map_err(|e| format!("tagged oracle: {e}"))?;

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
    Ok((out, snaps.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::with_quiet_panics;
    use tfgc_ir::lower;
    use tfgc_syntax::parse_program;
    use tfgc_types::elaborate;

    fn compile(src: &str) -> (IrProgram, Analyses) {
        let prog =
            lower(&elaborate(&parse_program(src).expect("parse")).expect("types")).expect("lower");
        let analyses = Analyses::compute(&prog);
        (prog, analyses)
    }

    #[test]
    fn run_case_classifies_completed_error_and_fail_fast() {
        let (prog, an) = compile("(print 7; [1, 2])");
        let cfg = VmConfig::new(Strategy::Compiled);
        let meta = GcMeta::build(&prog, &an, Strategy::Compiled);
        let done = run_case(&prog, meta, cfg, "clean");
        assert_eq!(
            done,
            CaseOutcome::Completed {
                result: "[1, 2]".to_string(),
                printed: vec![7],
            }
        );
        assert_eq!(done.kind(), "completed");

        // About 4000 words stay live, so refused growth of the 1 Ki-word
        // fault heap must end in a structured out-of-memory error.
        let (prog, an) = compile(
            "fun build n = if n = 0 then [] else n :: build (n - 1) ;
             fun len xs = case xs of [] => 0 | _ :: t => 1 + len t ;
             len (build 2000)",
        );
        let exhaust = FaultPlan {
            exhaust_at: Some(1),
            ..FaultPlan::none()
        };
        let oom = fault_case(&prog, &an, Strategy::Compiled, exhaust);
        let CaseOutcome::Error(e) = &oom else {
            panic!("expected a structured error, got {oom:?}");
        };
        assert_eq!(e.class(), "oom");
        assert_eq!((oom.kind(), oom.is_graceful()), ("error", true));

        // The fifth allocation is a `shape` given a discriminant no
        // variant has; by the first forced collection it sits inside the
        // accumulated list, so tracing it must fail fast.
        let (prog, an) = compile(
            "datatype shape = Circle of int | Rect of int * int ;
             fun build n acc = if n = 0 then acc
                 else build (n - 1) ((if n mod 2 = 0 then Circle n else Rect (n, n)) :: acc) ;
             fun area s = case s of Circle r => r * r | Rect (w, h) => w * h ;
             fun total xs = case xs of [] => 0 | s :: r => area s + total r ;
             total (build 30 [])",
        );
        let corrupt = FaultPlan {
            corrupt_discriminant_at: Some(5),
            ..FaultPlan::none()
        };
        let cfg = VmConfig::new(Strategy::Compiled)
            .heap_words(1 << 12)
            .force_gc_every(8)
            .fault_plan(corrupt);
        let meta = GcMeta::build(&prog, &an, Strategy::Compiled);
        let failed = with_quiet_panics(|| run_case(&prog, meta, cfg, "corrupt"));
        let CaseOutcome::FailFast(msg) = &failed else {
            panic!("expected a fail-fast panic, got {failed:?}");
        };
        assert!(msg.contains("heap corruption:"), "{msg}");
        assert_eq!((failed.kind(), failed.is_graceful()), ("fail-fast", true));
    }
}
