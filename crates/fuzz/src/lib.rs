//! # tfgc-fuzz — differential fuzzing campaign for the tag-free GC
//!
//! The collectors' contract is behavioral equivalence: a well-typed
//! program must produce the same result, the same printed output, and
//! (versus the tagged oracle) the same reachable graph under every
//! collection strategy, and every injected fault must degrade
//! gracefully. This crate turns that
//! contract into a campaign:
//!
//! 1. [`generate_program`](tfgc_workloads::generate_program) produces a
//!    seeded well-typed-by-construction program over a rich universe
//!    (fresh polymorphic datatypes per seed, nested lists/pairs,
//!    closures and partial application, let-polymorphism, deep
//!    recursion).
//! 2. [`campaign::run_campaign`] executes it across every strategy ×
//!    {tiny forced-GC heap, tiny generational heap, default heap} with
//!    the heap verifier on, replays it against the
//!    tagged oracle with node-identity snapshots, and runs it under a
//!    seeded fault plan. Any divergence, verifier/oracle failure, raw
//!    panic, or non-graceful fault becomes a [`campaign::Finding`].
//! 3. [`shrink::shrink`] reduces a finding's program by typed
//!    delta-debugging — dropping helpers and datatypes, replacing
//!    subexpressions with leaves of the same type, halving literals —
//!    to a fixpoint that still reproduces the same fingerprint.
//! 4. [`report::report_json`] renders the whole campaign as a
//!    bit-deterministic JSON document (same seeds ⇒ identical bytes,
//!    FNV-1a digest included), the artifact CI gates on.
//!
//! The crate deliberately sits *below* `tfgc` (the driver) so the `tfml
//! fuzz` subcommand can call into it; it rebuilds the thin front-end
//! pipeline from the same public pieces instead of importing the
//! driver's.

pub mod campaign;
pub mod report;
pub mod shrink;

pub use campaign::{
    run_campaign, CampaignConfig, CampaignReport, DivergenceKind, Finding, PlantedBug,
};
pub use report::report_json;
pub use shrink::{shrink, ShrinkResult};

use tfgc_gc::{Analyses, GcMeta, Strategy};
use tfgc_ir::IrProgram;

/// A compiled program plus its analyses — the fuzz crate's slice of the
/// driver pipeline (parse → elaborate → lower → analyses).
#[derive(Debug, Clone)]
pub struct FuzzCompiled {
    pub program: IrProgram,
    pub analyses: Analyses,
}

impl FuzzCompiled {
    /// Builds GC metadata for a strategy, reusing the analyses.
    pub fn metadata(&self, strategy: Strategy) -> GcMeta {
        GcMeta::build(&self.program, &self.analyses, strategy)
    }
}

/// Runs the front end on TFML source.
///
/// # Errors
///
/// `(stage, message)` for the first failing stage — `parse`, `type`, or
/// `lower`. The stage name feeds compile-failure fingerprints.
pub fn compile_src(src: &str) -> Result<FuzzCompiled, (&'static str, String)> {
    let parsed = tfgc_syntax::parse_program(src).map_err(|e| ("parse", e.to_string()))?;
    let typed = tfgc_types::elaborate(&parsed).map_err(|e| ("type", e.to_string()))?;
    let program = tfgc_ir::lower(&typed).map_err(|e| ("lower", e.to_string()))?;
    let analyses = Analyses::compute(&program);
    Ok(FuzzCompiled { program, analyses })
}
