//! The six workloads: their inputs (a pure function of the seed), their
//! no-GC tagged reference outputs, their set-up (compile and metadata
//! build), and one pass of their measured work.
//!
//! Each workload changes its inputs with the seed but keeps the amount
//! of work within about 1%: sizes are drawn from narrow bands, never
//! scaled, so runs on different seeds measure the same cost.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;
use tfgc::gc::{Analyses, GcMeta, GcStats, Strategy};
use tfgc::ir::lower_full;
use tfgc::obs::{CollectionKind, GcEvent, Obs};
use tfgc::runtime::{Encoding, HeapStats};
use tfgc::syntax::parse_program;
use tfgc::tasking::{
    serve_requests_overload, OverloadConfig, Request, ServeReport, SuspendPolicy, TaskConfig,
};
use tfgc::types::elaborate;
use tfgc::vm::{render_value, MutatorStats, RunOutcome, StepEvent, Vm, VmConfig, VmError};
use tfgc::workloads::{fnv1a64, generate, programs, GenConfig, SmallRng};
use tfgc::{Compiled, MixEntry};

use crate::trace::{event_spans, EventLog, FullSink, Open, ProbeSink, Tracer};

/// Semispace words for the reference runs: large enough that no
/// reference run collects (asserted), so the reference outputs do not
/// depend on any collector. Pages are only touched as they are used.
const REF_HEAP_WORDS: usize = 1 << 23;
/// Requests per serve pass and cooperative pool slots serving them.
const SERVE_REQUESTS: usize = 2000;
const SERVE_POOL: usize = 4;
/// Source bytes per compile pass (about 150 generated programs). Compile
/// time tracks source size closely, so a byte budget rather than a
/// program count keeps the work per pass steady across seeds.
const COMPILE_SOURCE_BYTES: usize = 540_000;
/// Instruction budget for a generated program's reference run; programs
/// that exceed it are skipped while drawing the inputs.
const COMPILE_MAX_STEPS: u64 = 5_000_000;

/// A workload, as the command line and `BENCHMARK.json` name it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Mutator,
    GcDeep,
    GcWide,
    Compile,
    Serve,
    ServeGen,
}

impl Kind {
    pub const ALL: [Kind; 6] = [
        Kind::Mutator,
        Kind::GcDeep,
        Kind::GcWide,
        Kind::Compile,
        Kind::Serve,
        Kind::ServeGen,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Mutator => "mutator",
            Kind::GcDeep => "gc_deep",
            Kind::GcWide => "gc_wide",
            Kind::Compile => "compile",
            Kind::Serve => "serve",
            Kind::ServeGen => "serve_gen",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Does a pass serve requests?
    pub fn serves(self) -> bool {
        matches!(self, Kind::Serve | Kind::ServeGen)
    }

    /// The operation behind `latency_us.*`: the unit a user of this
    /// workload waits for.
    pub fn operation(self) -> &'static str {
        match self {
            Kind::Mutator => "program run",
            Kind::GcDeep | Kind::GcWide => "collection pause",
            Kind::Compile => "program compile",
            Kind::Serve | Kind::ServeGen => "request",
        }
    }

    /// The pass that measures each operation's latency, when clean
    /// passes cannot: requests are only visible through a sink, and
    /// single pauses only by stepping the machine (any attached sink
    /// receives per-frame and per-object events inside the pause and
    /// would lengthen it).
    pub fn latency_probe(self) -> Option<Sink> {
        match self {
            Kind::Serve | Kind::ServeGen => Some(Sink::Probe),
            Kind::GcDeep | Kind::GcWide => Some(Sink::Step),
            Kind::Mutator | Kind::Compile => None,
        }
    }

    /// Does a pass execute programs (so it has runtime layers)?
    pub fn executes(self) -> bool {
        self != Kind::Compile
    }

    /// The strategies the traced run repeats the pass under: the paper's
    /// §1 and §2.4 comparisons. Appel's backward type resolution is
    /// quadratic in stack depth, so gc_deep leaves it out.
    pub fn strategy_sweep(self) -> &'static [Strategy] {
        const ALL_OTHERS: [Strategy; 4] = [
            Strategy::CompiledNoLiveness,
            Strategy::Interpreted,
            Strategy::AppelPerFn,
            Strategy::Tagged,
        ];
        const NO_APPEL: [Strategy; 3] = [
            Strategy::CompiledNoLiveness,
            Strategy::Interpreted,
            Strategy::Tagged,
        ];
        match self {
            Kind::Mutator | Kind::GcWide => &ALL_OTHERS,
            Kind::GcDeep => &NO_APPEL,
            _ => &[],
        }
    }
}

/// Draws `base + [0, spread]` from the seeded stream.
fn band(rng: &mut SmallRng, base: usize, spread: usize) -> usize {
    base + rng.gen_range(0, spread as i64 + 1) as usize
}

/// Deep polymorphic recursion: `pdeep` descends `depth` frames carrying a
/// 2-element `(int * bool list) list` that stays live in every frame,
/// then churns short lists at the bottom (4 allocations per leaf). With
/// a forced collection every 100 allocations, each collection walks the
/// whole stack but copies only a few words: the root walk and θ
/// evaluation dominate.
fn gc_deep_src(depth: usize, leaves: usize) -> String {
    format!(
        "fun build n = if n = 0 then [] else n :: build (n - 1) ;
         fun work k = case build 4 of [] => 0 | x :: _ => x + k ;
         fun churn n = if n <= 1 then work n else churn (n div 2) + churn (n - n div 2) ;
         fun plen xs = case xs of [] => 0 | _ :: t => 1 + plen t ;
         fun pdeep xs n = if n = 0 then plen xs + churn {leaves} else pdeep xs (n - 1) + plen xs ;
         pdeep [(1, [true]), (2, [false, true])] {depth}"
    )
}

/// A global complete tree of 8191 nodes stays live while a shallow
/// (at most ~110 frames) loop allocates. With a forced collection every
/// 2000 allocations, each collection copies the whole tree: the
/// drain/copy loop dominates.
fn gc_wide_src(leaves: usize) -> String {
    format!(
        "datatype tree = Leaf | Node of tree * int * tree ;
         fun mk d = if d = 0 then Leaf else Node (mk (d - 1), d, mk (d - 1)) ;
         val big = mk 13 ;
         fun build n = if n = 0 then [] else n :: build (n - 1) ;
         fun sum xs = case xs of [] => 0 | x :: r => x + sum r ;
         fun churn n = if n <= 1 then sum (build 100) else churn (n div 2) + churn (n - n div 2) ;
         fun tsize t = case t of Leaf => 0 | Node (l, _, r) => 1 + tsize l + tsize r ;
         churn {leaves} + tsize big"
    )
}

/// The generational service: `tables` persistent global lists of
/// `table_len` elements (about 12Ki tenured words at 60 × 100) plus a
/// churn handler and a handler that reads every table's head.
fn serve_gen_src(tables: usize, table_len: usize) -> String {
    let mut s = String::from(
        "fun build n = if n = 0 then [] else n :: build (n - 1) ;\n\
         fun sum xs = case xs of [] => 0 | x :: r => x + sum r ;\n",
    );
    for i in 0..tables {
        s.push_str(&format!("val t{i} = build {table_len} ;\n"));
    }
    s.push_str("fun req_churn n = sum (build n) ;\nfun req_heads n = n");
    for i in 0..tables {
        s.push_str(&format!(" + (case t{i} of [] => 0 | x :: _ => x)"));
    }
    s.push_str(" ;\n0");
    s
}

const SERVE_GEN_MIX: [MixEntry; 2] = [
    MixEntry {
        name: "churn",
        entry: "req_churn",
        weight: 4,
        lo: 8,
        hi: 40,
    },
    MixEntry {
        name: "heads",
        entry: "req_heads",
        weight: 1,
        lo: 1,
        hi: 8,
    },
];

/// What a workload runs, generated from its seed.
#[derive(Debug, Clone)]
enum Body {
    /// Programs run to completion one after another.
    Runs {
        programs: Vec<(String, String)>,
        cfg: VmConfig,
    },
    /// Programs compiled (not run) one after another.
    Compile { sources: Vec<String> },
    /// Requests served by a pool of cooperative slots.
    Serve {
        source: String,
        traffic: Vec<Request>,
        tc: TaskConfig,
    },
}

/// A workload's inputs and its reference outputs.
#[derive(Debug, Clone)]
pub struct Workload {
    pub kind: Kind,
    pub seed: u64,
    body: Body,
    /// Per operation, the output every pass must reproduce (for compile,
    /// each program's result, checked once against the set-up build).
    pub reference: Vec<String>,
}

/// One compiled program: the output of set-up.
#[derive(Debug, Clone)]
pub struct Unit {
    pub compiled: Compiled,
    pub meta: GcMeta,
    pub source_bytes: usize,
}

impl Unit {
    pub fn instructions(&self) -> usize {
        self.compiled
            .program
            .funs
            .iter()
            .map(|f| f.code.len())
            .sum()
    }

    /// The deterministic shape of a compile: what a compile pass must
    /// reproduce exactly.
    fn shape(&self) -> String {
        format!(
            "{} instrs, {} sites, {} metadata B, {} routines, {} omitted",
            self.instructions(),
            self.compiled.program.sites.len(),
            self.meta.metadata_bytes(),
            self.meta.distinct_routines(),
            self.meta.omitted_gc_words()
        )
    }
}

/// Set-up's output: every program compiled with its metadata.
#[derive(Debug, Clone)]
pub struct Prepared {
    pub strategy: Strategy,
    pub units: Vec<Unit>,
}

impl Prepared {
    pub fn metadata_bytes(&self) -> u64 {
        self.units
            .iter()
            .map(|u| u.meta.metadata_bytes() as u64)
            .sum()
    }
}

/// Which sink a pass attaches to the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sink {
    /// `Obs::null()`: the clean pass.
    Null,
    /// Keeps only `RequestEnd` latencies.
    Probe,
    /// Keeps collection, request and verification events for spans.
    Full,
    /// No sink; the machine is stepped from outside and each
    /// collection's pause is read from `GcStats::pause_nanos`.
    Step,
}

/// How to run one pass.
#[derive(Debug, Clone, Copy)]
pub struct Mode {
    pub sink: Sink,
    pub verify: bool,
}

impl Mode {
    pub const CLEAN: Mode = Mode {
        sink: Sink::Null,
        verify: false,
    };
}

/// Request-engine counters of a serve pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeCounts {
    pub completed: u64,
    pub failed: u64,
    pub shed: u64,
    pub suspension_checks: u64,
    pub suspension_events: u64,
    pub max_suspension_latency: u64,
}

/// Everything one pass measured.
#[derive(Debug, Default)]
pub struct PassOut {
    pub wall_ns: u64,
    /// Each timed layer call of the pass, in order: every program run or
    /// compile, or the one serve call.
    pub calls_ns: Vec<u64>,
    /// Each operation's latency, in an order every pass repeats: program
    /// runs or compiles, each collection's pause on stepped passes, each
    /// request's `RequestEnd.latency_ns` (by request id) on probe and
    /// event passes.
    pub op_ns: Vec<u64>,
    /// Per operation, the output to check.
    pub outputs: Vec<String>,
    pub gc: GcStats,
    pub heap: HeapStats,
    pub mutator: MutatorStats,
    pub serve: ServeCounts,
    /// Events the attached sink saw (event passes only).
    pub events_seen: u64,
    /// `(pause_ns, minor)` per collection (event passes only).
    pub pauses: Vec<(u64, bool)>,
    /// Objects the verifier walked (verify passes with events only).
    pub verified_objects: u64,
}

fn add_heap(acc: &mut HeapStats, h: &HeapStats) {
    acc.allocations += h.allocations;
    acc.words_allocated += h.words_allocated;
    acc.collections += h.collections;
    acc.objects_copied += h.objects_copied;
    acc.words_copied += h.words_copied;
    acc.peak_live_words = acc.peak_live_words.max(h.peak_live_words);
    acc.grows += h.grows;
}

fn render(out: &RunOutcome) -> String {
    format!("{} {:?}", out.result, out.printed)
}

fn render_serve(report: &ServeReport) -> Vec<String> {
    report
        .outcomes
        .iter()
        .map(|o| format!("{}:{}", o.kind, o.result))
        .collect()
}

/// FNV-1a over the outputs in order: the digest committed for seed 1.
pub fn digest(outputs: &[String]) -> u64 {
    let mut bytes = Vec::new();
    for o in outputs {
        bytes.extend_from_slice(o.as_bytes());
        bytes.push(0);
    }
    fnv1a64(&bytes)
}

/// Parses, elaborates, lowers, analyses and builds metadata for one
/// program, with one span per layer call.
fn build_unit(
    name: &str,
    src: &str,
    strategy: Strategy,
    multi_task: bool,
    tr: &mut Tracer,
) -> Result<Unit, String> {
    let s = tr.begin("syntax.parse");
    let parsed = parse_program(src).map_err(|e| format!("{name}: {e}"))?;
    tr.end(s);
    let s = tr.begin("types.elaborate");
    let typed = elaborate(&parsed).map_err(|e| format!("{name}: {e}"))?;
    tr.end(s);
    let s = tr.begin("ir.lower");
    let (program, rtti) = lower_full(&typed).map_err(|e| format!("{name}: {e}"))?;
    tr.end(s);
    let s = tr.begin("analysis.compute");
    let analyses = Analyses::compute(&program);
    tr.end(s);
    let s = tr.begin("gc.meta_build");
    let meta = if multi_task {
        GcMeta::build_multi_task(&program, &analyses, strategy)
    } else {
        GcMeta::build(&program, &analyses, strategy)
    };
    tr.end(s);
    Ok(Unit {
        compiled: Compiled {
            typed,
            program,
            rtti,
            analyses,
            phases: Vec::new(),
        },
        meta,
        source_bytes: src.len(),
    })
}

fn reference_run(name: &str, src: &str, max_steps: u64) -> Result<String, String> {
    let c = Compiled::compile(src).map_err(|e| format!("{name}: {e}"))?;
    let mut cfg = VmConfig::new(Strategy::Tagged).heap_words(REF_HEAP_WORDS);
    cfg.max_steps = Some(max_steps);
    let out = c.run_with(cfg).map_err(|e| format!("{name}: {e}"))?;
    if out.heap.collections != 0 {
        return Err(format!("{name}: the reference run collected"));
    }
    Ok(render(&out))
}

/// Programs run one after another, with their reference outputs.
fn runs(programs: Vec<(String, String)>, cfg: VmConfig) -> Result<(Body, Vec<String>), String> {
    let reference = programs
        .iter()
        .map(|(name, src)| reference_run(name, src, u64::MAX))
        .collect::<Result<_, _>>()?;
    Ok((Body::Runs { programs, cfg }, reference))
}

fn serve_task_config(kind: Kind) -> TaskConfig {
    let mut tc = TaskConfig::new(Strategy::Compiled);
    tc.policy = SuspendPolicy::EveryCall;
    tc.quantum = 64;
    if kind == Kind::ServeGen {
        // A fixed semispace with a small nursery: mostly minor
        // collections, occasionally a full flip over the tables.
        tc.heap_words = 1 << 14;
        tc.heap_max_words = Some(1 << 14);
        tc.nursery_words = Some(1 << 10);
    } else {
        tc.heap_words = 1 << 11;
        tc.heap_max_words = Some(1 << 16);
    }
    tc
}

impl Workload {
    /// Generates the workload's inputs from `seed` and computes their
    /// reference outputs with no-GC tagged runs.
    ///
    /// # Errors
    ///
    /// A program that fails to compile or run under the reference
    /// configuration.
    pub fn generate(kind: Kind, seed: u64) -> Result<Workload, String> {
        let mut rng = SmallRng::seed_from_u64(seed ^ fnv1a64(kind.name().as_bytes()));
        let (body, reference) = match kind {
            // Sized so most programs run about as long as each other: the
            // pooled run-time percentiles then fall inside a cluster of
            // runs, not on the edge between two programs. interp stays
            // small: its values grow factorially and the tagged
            // reference's 63-bit integers would overflow.
            Kind::Mutator => runs(
                vec![
                    ("fib".into(), programs::fib(20)),
                    ("nqueens".into(), programs::nqueens(7)),
                    (
                        "mergesort".into(),
                        programs::mergesort(band(&mut rng, 620, 6)),
                    ),
                    (
                        "tree_insert".into(),
                        programs::tree_insert(band(&mut rng, 800, 8)),
                    ),
                    ("interp".into(), programs::interp(12)),
                    (
                        "closure_farm".into(),
                        programs::closure_farm(40, band(&mut rng, 360, 4)),
                    ),
                    ("sieve".into(), programs::sieve(band(&mut rng, 800, 8))),
                    ("church".into(), programs::church(band(&mut rng, 4500, 45))),
                    (
                        "naive_rev".into(),
                        programs::naive_rev(band(&mut rng, 160, 2)),
                    ),
                ],
                VmConfig::new(Strategy::Compiled).heap_words(1 << 18),
            )?,
            // Four runs of about 70 ms rather than one long one: each
            // timed call is short enough to find a quiet moment on a
            // shared host.
            Kind::GcDeep => runs(
                (0..4)
                    .map(|i| {
                        let depth = band(&mut rng, 15_900, 200);
                        (format!("pdeep{i}"), gc_deep_src(depth, 500))
                    })
                    .collect(),
                VmConfig::new(Strategy::Compiled).force_gc_every(100),
            )?,
            // Room for the tree under the tagged encoding's headers too.
            Kind::GcWide => runs(
                vec![("wide".into(), gc_wide_src(band(&mut rng, 2000, 20)))],
                VmConfig::new(Strategy::Compiled)
                    .heap_words(1 << 16)
                    .force_gc_every(2000),
            )?,
            Kind::Compile => {
                let cfg = GenConfig {
                    fuel: 2000,
                    n_funs: 8,
                    max_depth: 6,
                    ..GenConfig::default()
                };
                let (mut sources, mut reference) = (Vec::new(), Vec::new());
                // Draw programs until enough of them run cleanly under
                // the reference: no operation of the workload may fail.
                let mut bytes = 0;
                while bytes < COMPILE_SOURCE_BYTES {
                    let src = generate(rng.next_u64(), &cfg);
                    let name = format!("gen{}", sources.len());
                    if let Ok(out) = reference_run(&name, &src, COMPILE_MAX_STEPS) {
                        bytes += src.len();
                        sources.push(src);
                        reference.push(out);
                    }
                }
                (Body::Compile { sources }, reference)
            }
            Kind::Serve | Kind::ServeGen => {
                let (source, mix): (String, &[MixEntry]) = if kind == Kind::Serve {
                    (tfgc::SERVICE_SRC.to_string(), &tfgc::serve::MIX)
                } else {
                    (serve_gen_src(60, 100), &SERVE_GEN_MIX)
                };
                let c = Compiled::compile(&source).map_err(|e| e.to_string())?;
                let traffic =
                    tfgc::serve::build_traffic(&c.program, rng.next_u64(), SERVE_REQUESTS, mix);
                let mut tc = TaskConfig::new(Strategy::Tagged);
                tc.heap_words = REF_HEAP_WORDS;
                let (report, _) = serve_requests_overload(
                    &c.program,
                    &traffic,
                    SERVE_POOL,
                    0,
                    tc,
                    OverloadConfig::none(),
                    Obs::null(),
                )
                .map_err(|e| format!("reference serve: {e}"))?;
                if report.gc.collections != 0 {
                    return Err("the reference serve run collected".into());
                }
                let body = Body::Serve {
                    source,
                    traffic,
                    tc: serve_task_config(kind),
                };
                (body, render_serve(&report))
            }
        };
        Ok(Workload {
            kind,
            seed,
            body,
            reference,
        })
    }

    fn sources(&self) -> Vec<(String, &str)> {
        match &self.body {
            Body::Runs { programs, .. } => programs
                .iter()
                .map(|(n, s)| (n.clone(), s.as_str()))
                .collect(),
            Body::Compile { sources } => sources
                .iter()
                .enumerate()
                .map(|(i, s)| (format!("gen{i}"), s.as_str()))
                .collect(),
            Body::Serve { source, .. } => vec![("service".to_string(), source.as_str())],
        }
    }

    /// Set-up: compiles every program and builds its metadata for
    /// `strategy` (multi-task metadata for the serve workloads).
    ///
    /// # Errors
    ///
    /// A front-end error in any program.
    pub fn prepare(&self, strategy: Strategy, tr: &mut Tracer) -> Result<Prepared, String> {
        let multi_task = self.kind.serves();
        let units = self
            .sources()
            .into_iter()
            .map(|(name, src)| build_unit(&name, src, strategy, multi_task, tr))
            .collect::<Result<_, _>>()?;
        Ok(Prepared { strategy, units })
    }

    /// The outputs every pass must reproduce, one per operation.
    pub fn pass_reference(&self, prep: &Prepared) -> Vec<String> {
        match self.body {
            Body::Compile { .. } => prep.units.iter().map(Unit::shape).collect(),
            _ => self.reference.clone(),
        }
    }

    /// The compile workload's semantic check, once per run and outside
    /// every timed region: each set-up build runs under its own
    /// metadata with a collection forced every 64 allocations, and must
    /// match the reference. Returns the outputs of those runs (`None` for
    /// the other workloads, whose passes are checked directly).
    pub fn check_compiled(&self, prep: &Prepared) -> Option<Vec<String>> {
        if !matches!(self.body, Body::Compile { .. }) {
            return None;
        }
        let outs = prep
            .units
            .iter()
            .map(|u| {
                let mut cfg = VmConfig::new(prep.strategy).force_gc_every(64);
                cfg.max_steps = Some(COMPILE_MAX_STEPS);
                match u.compiled.run_with_meta(cfg, u.meta.clone()) {
                    Ok(out) => render(&out),
                    Err(e) => format!("<error: {e}>"),
                }
            })
            .collect();
        Some(outs)
    }

    /// Runs one pass over `prep`'s programs. Every run starts from a
    /// clone of the set-up metadata, so plan lowering and cache warm-up
    /// happen inside the pass as in a real run.
    pub fn pass(&self, prep: &Prepared, mode: Mode, tr: &mut Tracer) -> PassOut {
        let mut out = PassOut::default();
        let t0 = Instant::now();
        match &self.body {
            Body::Runs { cfg, .. } => {
                let mut cfg = cfg.clone();
                cfg.strategy = prep.strategy;
                cfg.verify_heap = mode.verify;
                for (i, u) in prep.units.iter().enumerate() {
                    run_unit(i, u, &cfg, mode, tr, &mut out);
                }
            }
            Body::Compile { sources } => {
                for (i, src) in sources.iter().enumerate() {
                    let span = tr.begin("compile.program");
                    tr.arg(span, "program", i as u64);
                    let t = Instant::now();
                    let unit = build_unit("gen", src, prep.strategy, false, tr);
                    let ns = t.elapsed().as_nanos() as u64;
                    out.calls_ns.push(ns);
                    out.op_ns.push(ns);
                    tr.end(span);
                    out.outputs.push(match unit {
                        Ok(u) => u.shape(),
                        Err(e) => format!("<error: {e}>"),
                    });
                }
            }
            Body::Serve { traffic, tc, .. } => {
                let mut tc = tc.clone();
                tc.strategy = prep.strategy;
                tc.verify_heap = mode.verify;
                serve_pass(&prep.units[0], traffic, tc, mode, tr, &mut out);
            }
        }
        out.wall_ns = t0.elapsed().as_nanos() as u64;
        out
    }
}

type Latencies = Rc<RefCell<Vec<(u64, u64)>>>;

/// Attaches `sink`; returns the handle plus what to read back.
fn make_obs(sink: Sink) -> (Obs, Option<Latencies>, Option<Rc<RefCell<EventLog>>>) {
    match sink {
        Sink::Null | Sink::Step => (Obs::null(), None, None),
        Sink::Probe => {
            let probe = ProbeSink::default();
            let lat = probe.latencies_ns.clone();
            (Obs::custom(Box::new(probe)), Some(lat), None)
        }
        Sink::Full => {
            let full = FullSink::default();
            let log = full.log.clone();
            (Obs::custom(Box::new(full)), None, Some(log))
        }
    }
}

/// Folds an event log into the pass: counts, pauses, verifier objects,
/// and child spans of `parent`.
fn absorb_events(
    log: &Rc<RefCell<EventLog>>,
    epoch_ns: u64,
    parent: Open,
    tr: &mut Tracer,
    out: &mut PassOut,
) {
    let log = log.borrow();
    out.events_seen += log.seen;
    for ev in &log.kept {
        match *ev {
            GcEvent::CollectionEnd { pause_ns, kind, .. } => {
                out.pauses.push((pause_ns, kind == CollectionKind::Minor))
            }
            GcEvent::VerificationEnd { objects, .. } => {
                out.verified_objects += objects;
            }
            _ => {}
        }
    }
    event_spans(tr, parent, epoch_ns, &log.kept);
}

fn run_unit(i: usize, u: &Unit, cfg: &VmConfig, mode: Mode, tr: &mut Tracer, out: &mut PassOut) {
    let meta = u.meta.clone();
    let span = tr.begin("vm.run");
    tr.arg(span, "program", i as u64);
    let (obs, _, log) = make_obs(mode.sink);
    let epoch_ns = tr.now_ns();
    let t = Instant::now();
    let res: Result<RunOutcome, VmError> = match mode.sink {
        Sink::Null => u.compiled.run_with_meta(cfg.clone(), meta),
        Sink::Step => run_stepped(u, cfg.clone(), meta, &mut out.op_ns),
        Sink::Probe | Sink::Full => u
            .compiled
            .run_observed(cfg.clone(), meta, obs)
            .map(|(o, _)| o),
    };
    let ns = t.elapsed().as_nanos() as u64;
    tr.end(span);
    out.calls_ns.push(ns);
    if mode.sink != Sink::Step {
        out.op_ns.push(ns);
    }
    match res {
        Ok(o) => {
            out.outputs.push(render(&o));
            out.gc.merge(&o.gc);
            add_heap(&mut out.heap, &o.heap);
            out.mutator.merge(&o.mutator);
            pause_child(tr, span, o.gc.pause_nanos, log.is_some());
        }
        Err(e) => out.outputs.push(format!("<error: {e}>")),
    }
    if let Some(log) = log {
        absorb_events(&log, epoch_ns, span, tr, out);
    }
}

/// Runs `u` one instruction at a time through `Vm::step`, pushing each
/// collection's pause (the growth of `GcStats::pause_nanos`, the
/// collector's own clock) onto `pauses`. A minor collection that
/// escalates to a major within one step counts as one pause.
fn run_stepped(
    u: &Unit,
    cfg: VmConfig,
    meta: GcMeta,
    pauses: &mut Vec<u64>,
) -> Result<RunOutcome, VmError> {
    let prog = &u.compiled.program;
    let mut vm = Vm::with_meta(prog, cfg, meta);
    let (mut collections, mut pause_ns) = (0, 0);
    loop {
        let ev = vm.step()?;
        if vm.gc_stats.collections != collections {
            pauses.push(vm.gc_stats.pause_nanos - pause_ns);
            collections = vm.gc_stats.collections;
            pause_ns = vm.gc_stats.pause_nanos;
        }
        if let StepEvent::Done(w) = ev {
            let enc = Encoding::new(vm.meta.strategy.heap_mode());
            return Ok(RunOutcome {
                printed: std::mem::take(&mut vm.printed),
                result: render_value(prog, &vm.heap, enc, w, &prog.main_ty),
                heap: vm.heap.stats,
                gc: vm.gc_stats,
                mutator: vm.mutator,
                descs_interned: vm.descs.len(),
                metadata_bytes: vm.meta.metadata_bytes(),
            });
        }
    }
}

/// Without events, a run's collections show as one `gc.collect` child
/// at the end of its span, lasting the run's total pause, so the run
/// span's self time is mutator time.
fn pause_child(tr: &mut Tracer, span: Open, pause_ns: u64, have_events: bool) {
    if have_events || pause_ns == 0 {
        return;
    }
    if let Some(s) = tr.span(span) {
        let end = s.start_ns + s.dur_ns;
        tr.add(
            span,
            "gc.collect",
            end.saturating_sub(pause_ns),
            pause_ns,
            None,
            vec![("total", 1)],
        );
    }
}

fn serve_pass(
    u: &Unit,
    traffic: &[Request],
    tc: TaskConfig,
    mode: Mode,
    tr: &mut Tracer,
    out: &mut PassOut,
) {
    let span = tr.begin("tasking.serve");
    let (obs, lat, log) = make_obs(mode.sink);
    let epoch_ns = tr.now_ns();
    let t = Instant::now();
    let res = serve_requests_overload(
        &u.compiled.program,
        traffic,
        SERVE_POOL,
        0,
        tc,
        OverloadConfig::none(),
        obs,
    );
    let ns = t.elapsed().as_nanos() as u64;
    tr.end(span);
    out.calls_ns.push(ns);
    match res {
        Ok((report, _)) => {
            out.outputs = render_serve(&report);
            out.gc = report.gc;
            out.heap = report.heap;
            out.mutator = report.mutator;
            out.serve = ServeCounts {
                completed: report.completed,
                failed: report.failed,
                shed: report.shed,
                suspension_checks: report.suspension_checks,
                suspension_events: report.suspension_events,
                max_suspension_latency: report.max_suspension_latency,
            };
            pause_child(tr, span, report.gc.pause_nanos, log.is_some());
        }
        Err(e) => out.outputs = vec![format!("<error: {e}>"); traffic.len()],
    }
    let mut by_req: Vec<(u64, u64)> = Vec::new();
    if let Some(lat) = lat {
        by_req = lat.borrow().clone();
    }
    if let Some(log) = log {
        absorb_events(&log, epoch_ns, span, tr, out);
        by_req = log
            .borrow()
            .kept
            .iter()
            .filter_map(|e| match *e {
                GcEvent::RequestEnd {
                    req, latency_ns, ..
                } => Some((req, latency_ns)),
                _ => None,
            })
            .collect();
    }
    by_req.sort_unstable();
    out.op_ns = by_req.into_iter().map(|(_, ns)| ns).collect();
}
