//! The end-to-end pipeline: source → typed AST → bytecode → analyses →
//! GC metadata → execution under a strategy.

use std::fmt;
use std::time::Instant;
use tfgc_gc::{Analyses, GcMeta, Strategy};
use tfgc_ir::{lower_full, IrProgram, RttiInfo};
use tfgc_obs::{GcEvent, Obs};
use tfgc_syntax::parse_program;
use tfgc_types::{elaborate, is_monomorphic, TProgram};
use tfgc_vm::{RunOutcome, VmConfig, VmError};

/// A front-end error from any stage.
#[derive(Debug, Clone)]
pub enum CompileError {
    Parse(tfgc_syntax::ParseError),
    Type(tfgc_types::TypeError),
    Lower(tfgc_ir::LowerError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Parse(e) => write!(f, "{e}"),
            CompileError::Type(e) => write!(f, "{e}"),
            CompileError::Lower(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<tfgc_syntax::ParseError> for CompileError {
    fn from(e: tfgc_syntax::ParseError) -> Self {
        CompileError::Parse(e)
    }
}

impl From<tfgc_types::TypeError> for CompileError {
    fn from(e: tfgc_types::TypeError) -> Self {
        CompileError::Type(e)
    }
}

impl From<tfgc_ir::LowerError> for CompileError {
    fn from(e: tfgc_ir::LowerError) -> Self {
        CompileError::Lower(e)
    }
}

/// A compiled program with its analyses, ready to run under any strategy.
#[derive(Debug, Clone)]
pub struct Compiled {
    pub typed: TProgram,
    pub program: IrProgram,
    pub rtti: RttiInfo,
    pub analyses: Analyses,
    /// Per-stage compile timings as [`GcEvent::Phase`] events
    /// (parse / elaborate / lower / analyses), with `start_ns` relative
    /// to the start of compilation. Trace exporters prepend these to the
    /// runtime event stream.
    pub phases: Vec<GcEvent>,
}

impl Compiled {
    /// Runs the full front end on TFML source, timing each stage.
    ///
    /// # Errors
    ///
    /// Returns the first parse, type, or lowering error.
    pub fn compile(src: &str) -> Result<Compiled, CompileError> {
        let t0 = Instant::now();
        let parsed = parse_program(src)?;
        let t1 = Instant::now();
        let typed = elaborate(&parsed)?;
        let t2 = Instant::now();
        let (program, rtti) = lower_full(&typed)?;
        let t3 = Instant::now();
        let analyses = Analyses::compute(&program);
        let t4 = Instant::now();
        let ns = |a: Instant, b: Instant| (b - a).as_nanos() as u64;
        let phases = vec![
            GcEvent::Phase {
                name: "parse",
                start_ns: 0,
                dur_ns: ns(t0, t1),
            },
            GcEvent::Phase {
                name: "elaborate",
                start_ns: ns(t0, t1),
                dur_ns: ns(t1, t2),
            },
            GcEvent::Phase {
                name: "lower",
                start_ns: ns(t0, t2),
                dur_ns: ns(t2, t3),
            },
            GcEvent::Phase {
                name: "analyses",
                start_ns: ns(t0, t3),
                dur_ns: ns(t3, t4),
            },
        ];
        Ok(Compiled {
            typed,
            program,
            rtti,
            analyses,
            phases,
        })
    }

    /// Is the program fully monomorphic (§2's setting)?
    pub fn is_monomorphic(&self) -> bool {
        is_monomorphic(&self.typed)
    }

    /// Builds GC metadata for a strategy (reusing the analyses).
    pub fn metadata(&self, strategy: Strategy) -> GcMeta {
        GcMeta::build(&self.program, &self.analyses, strategy)
    }

    /// Builds GC metadata with the higher-order (closure-flow-refined)
    /// GC-point analysis — §5.1's suggested extension. Omits strictly
    /// more gc_words.
    pub fn metadata_refined(&self, strategy: Strategy) -> GcMeta {
        let an = Analyses::compute_refined(&self.program);
        GcMeta::build(&self.program, &an, strategy)
    }

    /// Runs with explicit, possibly refined, metadata.
    ///
    /// # Errors
    ///
    /// Propagates VM runtime errors.
    pub fn run_with_meta(&self, cfg: VmConfig, meta: GcMeta) -> Result<RunOutcome, VmError> {
        let mut vm = tfgc_vm::Vm::with_meta(&self.program, cfg, meta);
        vm.run()
    }

    /// Runs with explicit metadata and an attached event sink; the sink
    /// comes back with everything it recorded during the run.
    ///
    /// # Errors
    ///
    /// Propagates VM runtime errors (the sink's recordings are lost).
    pub fn run_observed(
        &self,
        cfg: VmConfig,
        meta: GcMeta,
        obs: Obs,
    ) -> Result<(RunOutcome, Obs), VmError> {
        let mut vm = tfgc_vm::Vm::with_meta(&self.program, cfg, meta);
        vm.obs = obs;
        let out = vm.run()?;
        Ok((out, std::mem::take(&mut vm.obs)))
    }

    /// Runs under `cfg`'s strategy with a [`tfgc_obs::RingRecorder`] of
    /// `ring_capacity` raw events attached, returning the outcome and
    /// the recorder (histograms, allocation-site profile, per-collection
    /// summaries).
    ///
    /// # Errors
    ///
    /// Propagates VM runtime errors.
    pub fn run_profiled(
        &self,
        cfg: VmConfig,
        ring_capacity: usize,
    ) -> Result<(RunOutcome, tfgc_obs::RingRecorder), VmError> {
        let meta = self.metadata(cfg.strategy);
        let (out, obs) = self.run_observed(cfg, meta, Obs::ring(ring_capacity))?;
        let rec = obs.into_recorder().expect("ring sink survives the run");
        Ok((out, rec))
    }

    /// Runs under a strategy with default VM settings.
    ///
    /// # Errors
    ///
    /// Propagates VM runtime errors.
    pub fn run(&self, strategy: Strategy) -> Result<RunOutcome, VmError> {
        self.run_with(VmConfig::new(strategy))
    }

    /// Runs with a custom VM configuration, building the metadata from the
    /// analyses computed at compile time (multi-task metadata when
    /// `cfg.cooperative`).
    ///
    /// # Errors
    ///
    /// Propagates VM runtime errors.
    pub fn run_with(&self, cfg: VmConfig) -> Result<RunOutcome, VmError> {
        let meta = if cfg.cooperative {
            GcMeta::build_multi_task(&self.program, &self.analyses, cfg.strategy)
        } else {
            self.metadata(cfg.strategy)
        };
        self.run_with_meta(cfg, meta)
    }

    /// Runs under every strategy, asserting identical observable output;
    /// returns the outcomes keyed by strategy.
    ///
    /// # Errors
    ///
    /// Propagates the first VM error.
    ///
    /// # Panics
    ///
    /// Panics if two strategies disagree on the result or printed output
    /// — that would be a collector soundness bug.
    pub fn run_all_strategies(
        &self,
        heap_words: usize,
    ) -> Result<Vec<(Strategy, RunOutcome)>, VmError> {
        let mut outs = Vec::new();
        for s in Strategy::ALL {
            let out = self.run_with(VmConfig::new(s).heap_words(heap_words))?;
            outs.push((s, out));
        }
        for (s, o) in &outs[1..] {
            assert_eq!(
                o.result, outs[0].1.result,
                "strategy {s} disagrees with {} on the result",
                outs[0].0
            );
            assert_eq!(
                o.printed, outs[0].1.printed,
                "strategy {s} disagrees with {} on printed output",
                outs[0].0
            );
        }
        Ok(outs)
    }
}

/// One-call convenience: compile and run under a strategy.
///
/// # Errors
///
/// Returns a rendered message for both compile- and run-time failures.
pub fn compile_and_run(src: &str, strategy: Strategy) -> Result<RunOutcome, String> {
    let c = Compiled::compile(src).map_err(|e| e.to_string())?;
    c.run(strategy).map_err(|e| e.to_string())
}
