//! # tfgc — reproduction of "Tag-Free Garbage Collection for Strongly
//! Typed Programming Languages" (Goldberg, PLDI 1991)
//!
//! This crate is the front door: [`Compiled`] drives the whole pipeline
//! (parse → infer → lower → analyze → GC metadata → run) and the
//! re-exported subsystem crates expose every layer individually.
//!
//! ```
//! use tfgc::{Compiled, Strategy};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let c = Compiled::compile(
//!     "fun append [] ys = ys | append (x :: xs) ys = x :: append xs ys ;
//!      append [1, 2] [3]",
//! )?;
//! // The paper's tag-free compiled strategy...
//! let tagfree = c.run(Strategy::Compiled)?;
//! // ...and the tagged baseline agree on results:
//! let tagged = c.run(Strategy::Tagged)?;
//! assert_eq!(tagfree.result, "[1, 2, 3]");
//! assert_eq!(tagfree.result, tagged.result);
//! // But the tagged heap pays a header word per cons cell.
//! assert!(tagged.heap.words_allocated > tagfree.heap.words_allocated);
//! # Ok(())
//! # }
//! ```

pub mod pipeline;
pub mod profile;
pub mod report;
pub mod serve;
pub mod torture;

pub use pipeline::{compile_and_run, CompileError, Compiled};
pub use profile::{metrics_json, profile_report, site_kind, site_label};
pub use report::{ratio, render_rows, Table};
pub use serve::{
    check_overload_slo, check_slo, overload_scenario, serve, serve_json, serve_rows,
    torture_overload, torture_serve, MixEntry, OverloadSlo, ServeConfig, ServeRun,
    ServeTortureCase, Slo, OVERLOAD_SCENARIOS, SERVICE_SRC,
};
pub use torture::{torture, TortureCase, TortureReport};

// Re-export the subsystem layers under stable names.
pub use tfgc_analysis as analysis;
pub use tfgc_gc as gc;
pub use tfgc_ir as ir;
pub use tfgc_obs as obs;
pub use tfgc_runtime as runtime;
pub use tfgc_syntax as syntax;
pub use tfgc_tasking as tasking;
pub use tfgc_types as types;
pub use tfgc_vm as vm;
pub use tfgc_workloads as workloads;

// The names used in almost every example and bench.
pub use tfgc_gc::Strategy;
pub use tfgc_tasking::{AdmissionPolicy, OverloadConfig, Request};
pub use tfgc_vm::{RunOutcome, VmConfig, VmError};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_end_to_end() {
        let c = Compiled::compile("fun double x = x + x ; double 21").expect("compiles");
        assert!(c.is_monomorphic());
        let out = c.run(Strategy::Compiled).expect("runs");
        assert_eq!(out.result, "42");
    }

    #[test]
    fn compile_errors_render() {
        let err = Compiled::compile("1 +").unwrap_err();
        assert!(err.to_string().contains("parse error"));
        let err = Compiled::compile("x").unwrap_err();
        assert!(err.to_string().contains("type error"));
    }

    #[test]
    fn run_all_strategies_checks_agreement() {
        let c = Compiled::compile(
            "fun map f xs = case xs of [] => [] | x :: r => f x :: map f r ;
             map (fn x => x * 3) [1, 2, 3]",
        )
        .expect("compiles");
        let outs = c.run_all_strategies(1 << 14).expect("all run");
        assert_eq!(outs.len(), Strategy::ALL.len());
        assert_eq!(outs[0].1.result, "[3, 6, 9]");
    }

    #[test]
    fn metadata_reuse_matches_fresh_build() {
        let c = Compiled::compile("fun id x = x ; id [1]").expect("compiles");
        let meta = c.metadata(Strategy::Compiled);
        assert!(meta.metadata_bytes() > 0);
        assert_eq!(meta.strategy, Strategy::Compiled);
    }

    #[test]
    fn workload_suite_runs_under_compiled() {
        for (name, src) in tfgc_workloads::suite() {
            let c = Compiled::compile(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
            let out = c
                .run_with(VmConfig::new(Strategy::Compiled).heap_words(1 << 15))
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!out.result.is_empty(), "{name}");
        }
    }
}
