//! `tfml` — command-line driver for the tag-free GC reproduction.
//!
//! `tfml --help` prints [`USAGE`], the one description of every command
//! and option.

use std::process::ExitCode;
use tfgc::gc::NO_TRACE;
use tfgc::obs::{write_chrome_trace, GcEvent, Obs, RingRecorder};
use tfgc::vm::oracle_check;
use tfgc::{Compiled, Strategy, Table, VmConfig};

/// Every command and option. A test checks that each flag the parsers
/// below accept is listed here.
const USAGE: &str = "\
tfml run [OPTS] <file.tfml | -e SRC>     run a program
tfml profile [OPTS] <file | -e SRC>      run + GC/allocation profile
tfml disasm <file | -e SRC>              show bytecode + frame layouts
tfml gcmap [OPTS] <file | -e SRC>        show per-site gc_words/routines
tfml analyze <file | -e SRC>             liveness / GC points / RTTI report
tfml compare [OPTS] <file | -e SRC>      run under all five strategies
tfml serve [SERVE OPTS]                  drive a seeded request mix against
                                         a persistent heap; steady-state
                                         telemetry + SLO gate
tfml torture [--seeds N] [--oracle] [--serve] [--overload] [--generational]
                                         fault-injection matrix over
                                         seeded workloads x strategies
                                         (--serve: mid-traffic faults
                                         against the request server;
                                         --serve --overload: burst /
                                         deadline-storm / runaway-hog /
                                         watermark-flap scenarios;
                                         --serve --generational: with a
                                         quarter-semispace nursery)
tfml fuzz [FUZZ OPTS]                    differential fuzzing campaign:
                                         generated programs across every
                                         strategy x heap tier, tagged-
                                         oracle snapshots, seeded
                                         faults; findings shrunk by
                                         typed delta-debugging
tfml help | --help                       print this text

OPTS:
  --strategy S     compiled | compiled-nolive | interpreted | appel | tagged
  --heap N         semispace words (default 65536)
  --force-gc N     force a collection every N allocations
  --refined        use the closure-flow-refined GC-point analysis
  --stats          print run statistics
  --verify-heap    walk the reachable graph after every collection,
                   failing fast on any inconsistency
  --verify-oracle  replay under the tagged collector and require
                   identical reachable graphs at every collection
                   (`run` only, with no option but --strategy, --heap
                   and --force-gc: the replay runs its own schedule)
  --generational   bump-pointer nursery + minor/major cycles (barrier-
                   free: the immutable heap has no old-to-young edges)
  --nursery-words N  nursery size in words (implies --generational;
                   default heap/4)
  --promote-after K  survivals before promotion to the tenured
                   generation (default 0 = promote on first survival)
  --trace FILE     write a Chrome-trace-event JSONL file (run/profile)
  --metrics FILE   write a JSON metrics document (run/profile)
  --events N       raw events retained for --trace (default 65536)

SERVE OPTS (one table row per strategy; the E11/E12 documents come
from `experiments --json`):
  --strategy S|all          strategies to serve under (default all)
  --requests N              requests to drain (default 400)
  --pool N                  concurrent pool slots (default 4)
  --seed N                  traffic-mix seed (default 1)
  --heap N                  semispace words (default 2048)
  --heap-max N              growth ceiling in words, at least --heap
                            (default 65536)
  --quantum N               instructions per scheduling quantum
  --sample-every N          occupancy and backlog sample period in
                            quanta (default 32)
  --generational            nursery + minor/major cycles per strategy
  --nursery-words N         nursery words (implies --generational;
                            default heap/4)
  --promote-after K         survivals before promotion (default 0)
  --trace FILE              write a Chrome trace (single strategy only;
                            the run's last events, with a note on
                            stderr when earlier ones were dropped)
  --slo-p99-latency-ms F    gate: p99 request latency ceiling
  --slo-p99-pause-ms F      gate: p99 GC pause ceiling

SERVE OVERLOAD OPTS (deterministic per seed):
  --deadline-quanta N       service-wide deadline in scheduler quanta
  --fuel N                  service-wide instruction-fuel budget
  --queue-cap N             admission-queue depth beyond idle slots
                            (0 = unbounded)
  --admission POLICY        reject | backoff[:ATTEMPTS:BASE]
                            | degrade[:MINKIND]
  --soft-watermark PCT      heap pressure: proactive GC + throttling
                            (PCT at most 100, below --hard-watermark)
  --hard-watermark PCT      heap pressure: shed new admissions
  --breaker-threshold K     consecutive quarantines that open a
                            kind's circuit breaker (0 = off)
  --breaker-cooldown N      quanta an open breaker fast-rejects
  --drain-after N           stop admitting from this quantum on
  --runaway-every N         replace every Nth request with a
                            non-terminating handler (pair with a
                            deadline or fuel budget)

FUZZ OPTS (campaign is a pure function of these: same flags, same
bytes):
  --seeds N        seeds to run (default 50)
  --seed-start N   first seed (shard campaigns by offsetting; default 0)
  --shrink         minimize each finding by typed delta-debugging
  --shrink-budget N  predicate evaluations per shrink (default 300)
  --json FILE      write the deterministic BENCH_E14.json report
  --depth N        generator: max expression depth (default 4)
  --funs N         generator: helper functions per program (default 3)
  --fuel N         generator: node budget per program (default 300)
  --datatypes N    generator: fresh datatypes per program (default 2)
  --max-rec N      generator: recursion-depth ceiling (default 48)
  --no-higher-order  drop closures/partial application from the universe
  --no-polymorphism  drop polymorphic instantiations from the universe
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            eprintln!("tfml: {msg}");
            eprintln!("run `tfml --help` for usage");
            ExitCode::from(2)
        }
        Err(CliError::Run(msg)) => {
            eprintln!("tfml: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Command-line failure, split by whose fault it is: `Usage` is a
/// malformed invocation (unknown flag, unparsable value) and exits 2
/// with a usage pointer; `Run` is a failure of the requested work
/// (compile error, VM error, SLO violation, unwritable file) and exits 1.
#[derive(Debug, PartialEq)]
enum CliError {
    Usage(String),
    Run(String),
}

impl From<String> for CliError {
    fn from(msg: String) -> CliError {
        CliError::Run(msg)
    }
}

/// A malformed-invocation error (exit 2).
fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

/// The value after `flag`, parsed: advances `i` onto it. A missing or
/// unparsable value is a usage error.
fn flag_value<T: std::str::FromStr>(
    args: &[String],
    i: &mut usize,
    flag: &str,
) -> Result<T, CliError>
where
    T::Err: std::fmt::Display,
{
    *i += 1;
    args.get(*i)
        .ok_or_else(|| usage(format!("{flag} needs a value")))?
        .parse()
        .map_err(|e| usage(format!("bad {flag}: {e}")))
}

struct Opts {
    strategy: Strategy,
    heap: usize,
    force_gc: Option<u64>,
    refined: bool,
    stats: bool,
    verify_heap: bool,
    verify_oracle: bool,
    trace: Option<String>,
    metrics: Option<String>,
    events: usize,
    /// The nursery size when the run is generational.
    nursery_words: Option<usize>,
    promote_after: u32,
    source: String,
}

fn parse_strategy(s: &str) -> Result<Strategy, CliError> {
    Ok(match s {
        "compiled" => Strategy::Compiled,
        "compiled-nolive" => Strategy::CompiledNoLiveness,
        "interpreted" => Strategy::Interpreted,
        "appel" => Strategy::AppelPerFn,
        "tagged" => Strategy::Tagged,
        other => return Err(usage(format!("unknown strategy `{other}`"))),
    })
}

/// `reject`, `backoff[:ATTEMPTS:BASE]`, or `degrade[:MINKIND]`.
fn parse_admission(s: &str) -> Result<tfgc::AdmissionPolicy, CliError> {
    let mut parts = s.split(':');
    let head = parts.next().unwrap_or_default();
    let rest: Vec<&str> = parts.collect();
    let arg = |i: usize, what: &str| -> Result<u64, CliError> {
        rest.get(i)
            .ok_or_else(|| usage(format!("--admission {head} needs {what}")))?
            .parse()
            .map_err(|e| usage(format!("bad --admission {what}: {e}")))
    };
    Ok(match (head, rest.len()) {
        ("reject", 0) => tfgc::AdmissionPolicy::Reject,
        ("backoff", 0) => tfgc::AdmissionPolicy::RetryBackoff {
            max_attempts: 6,
            base: 16,
        },
        ("backoff", 2) => tfgc::AdmissionPolicy::RetryBackoff {
            max_attempts: arg(0, "ATTEMPTS")? as u32,
            base: arg(1, "BASE")?,
        },
        ("degrade", 0) => tfgc::AdmissionPolicy::Degrade { low_kind_min: 2 },
        ("degrade", 1) => tfgc::AdmissionPolicy::Degrade {
            low_kind_min: arg(0, "MINKIND")? as u32,
        },
        _ => {
            return Err(usage(format!(
                "unknown --admission `{s}` (reject | backoff[:ATTEMPTS:BASE] | degrade[:MINKIND])"
            )))
        }
    })
}

/// The nursery of a generational run: `--nursery-words`, or a quarter
/// of the semispace. An empty nursery is a usage error.
fn nursery(heap: usize, nursery_words: Option<usize>) -> Result<usize, CliError> {
    match nursery_words.unwrap_or(heap / 4) {
        0 => Err(usage(
            "the nursery must hold at least one word: raise --nursery-words, or --heap \
             to at least 4 (the default nursery is a quarter of it)",
        )),
        n => Ok(n),
    }
}

/// The options `--verify-oracle` combines with: the tagged replay runs
/// one strategy on one single-generation heap under a forced-collection
/// schedule of its own, so any other run option would be ignored.
const ORACLE_OPTS: [&str; 4] = ["--verify-oracle", "--strategy", "--heap", "--force-gc"];

fn parse_opts(args: &[String]) -> Result<Opts, CliError> {
    let mut strategy = Strategy::Compiled;
    let mut heap = 1usize << 16;
    let mut force_gc = None;
    let mut refined = false;
    let mut stats = false;
    let mut verify_heap = false;
    let mut verify_oracle = false;
    let mut trace = None;
    let mut metrics = None;
    let mut events = 1usize << 16;
    let mut generational = false;
    let mut nursery_words = None;
    let mut promote_after = 0u32;
    let mut source: Option<String> = None;
    let mut flags = Vec::new();
    let mut i = 0;
    while i < args.len() {
        flags.push(args[i].as_str());
        match args[i].as_str() {
            "--strategy" => {
                strategy = parse_strategy(&flag_value::<String>(args, &mut i, "--strategy")?)?;
            }
            "--heap" => heap = flag_value(args, &mut i, "--heap")?,
            "--force-gc" => force_gc = Some(flag_value(args, &mut i, "--force-gc")?),
            "--refined" => refined = true,
            "--stats" => stats = true,
            "--verify-heap" => verify_heap = true,
            "--verify-oracle" => verify_oracle = true,
            "--generational" => generational = true,
            "--nursery-words" => {
                generational = true;
                nursery_words = Some(flag_value(args, &mut i, "--nursery-words")?);
            }
            "--promote-after" => promote_after = flag_value(args, &mut i, "--promote-after")?,
            "--trace" => trace = Some(flag_value(args, &mut i, "--trace")?),
            "--metrics" => metrics = Some(flag_value(args, &mut i, "--metrics")?),
            "--events" => events = flag_value(args, &mut i, "--events")?,
            "-e" => source = Some(flag_value(args, &mut i, "-e")?),
            flag if flag.starts_with("--") => {
                return Err(usage(format!("unknown option `{flag}`")));
            }
            path => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| CliError::Run(format!("cannot read `{path}`: {e}")))?;
                source = Some(text);
            }
        }
        i += 1;
    }
    if verify_oracle {
        let other = flags
            .iter()
            .find(|f| f.starts_with("--") && !ORACLE_OPTS.contains(f));
        if let Some(flag) = other {
            return Err(usage(format!(
                "--verify-oracle cannot take {flag}: the tagged replay runs with \
                 --strategy, --heap and --force-gc alone"
            )));
        }
    }
    let nursery_words = if generational {
        Some(nursery(heap, nursery_words)?)
    } else {
        None
    };
    Ok(Opts {
        strategy,
        heap,
        force_gc,
        refined,
        stats,
        verify_heap,
        verify_oracle,
        trace,
        metrics,
        events,
        nursery_words,
        promote_after,
        source: source.ok_or_else(|| usage("no program given (file path or -e SRC)"))?,
    })
}

fn run(args: Vec<String>) -> Result<(), CliError> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(usage(format!("no command given\n{USAGE}")));
    };
    if cmd == "--help" || cmd == "help" {
        print!("{USAGE}");
        return Ok(());
    }
    if cmd == "torture" {
        return cmd_torture(rest);
    }
    if cmd == "fuzz" {
        return cmd_fuzz(rest);
    }
    if cmd == "serve" {
        return cmd_serve(rest);
    }
    let opts = parse_opts(rest)?;
    if opts.verify_oracle && cmd != "run" {
        return Err(usage(format!(
            "--verify-oracle is valid only with `tfml run`, not `tfml {cmd}`"
        )));
    }
    let compiled = Compiled::compile(&opts.source).map_err(|e| CliError::Run(e.to_string()))?;

    match cmd.as_str() {
        "run" => cmd_run(&compiled, &opts).map_err(CliError::Run),
        "profile" => cmd_profile(&compiled, &opts).map_err(CliError::Run),
        "disasm" => {
            print!("{}", tfgc::ir::display::disasm(&compiled.program));
            Ok(())
        }
        "gcmap" => cmd_gcmap(&compiled, &opts).map_err(CliError::Run),
        "analyze" => cmd_analyze(&compiled).map_err(CliError::Run),
        "compare" => cmd_compare(&compiled, &opts).map_err(CliError::Run),
        other => Err(usage(format!("unknown command `{other}`"))),
    }
}

/// The configuration of a run under `strategy` with every other option
/// as given: `run`, `profile` and `compare` build their runs from this
/// and [`metadata_for`].
fn vm_config(opts: &Opts, strategy: Strategy) -> VmConfig {
    let mut cfg = VmConfig::new(strategy)
        .heap_words(opts.heap)
        .verify_heap(opts.verify_heap);
    if let Some(n) = opts.force_gc {
        cfg = cfg.force_gc_every(n);
    }
    if let Some(n) = opts.nursery_words {
        cfg = cfg.generational(n, opts.promote_after);
    }
    cfg
}

/// The metadata `strategy` runs on: `--refined` picks the closure-flow
/// refinement of the GC-point analysis.
fn metadata_for(compiled: &Compiled, opts: &Opts, strategy: Strategy) -> tfgc::gc::GcMeta {
    if opts.refined {
        compiled.metadata_refined(strategy)
    } else {
        compiled.metadata(strategy)
    }
}

/// Runs under the options, attaching a ring recorder when `record`.
fn run_opts(
    compiled: &Compiled,
    opts: &Opts,
    record: bool,
) -> Result<(tfgc::RunOutcome, Option<RingRecorder>), String> {
    let cfg = vm_config(opts, opts.strategy);
    let meta = metadata_for(compiled, opts, opts.strategy);
    if record {
        let (out, obs) = compiled
            .run_observed(cfg, meta, Obs::ring(opts.events))
            .map_err(|e| e.to_string())?;
        Ok((out, obs.into_recorder()))
    } else {
        let out = compiled
            .run_with_meta(cfg, meta)
            .map_err(|e| e.to_string())?;
        Ok((out, None))
    }
}

/// Writes the `--trace` / `--metrics` files from a recorded run.
fn write_exports(compiled: &Compiled, opts: &Opts, rec: &RingRecorder) -> Result<(), String> {
    if let Some(path) = &opts.trace {
        let mut events: Vec<GcEvent> = compiled.phases.clone();
        events.extend(rec.events().iter().cloned());
        std::fs::write(path, write_chrome_trace(&events))
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
    }
    if let Some(path) = &opts.metrics {
        let doc = tfgc::metrics_json(rec, &compiled.program);
        std::fs::write(path, doc.to_json_pretty())
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
    }
    Ok(())
}

fn cmd_run(compiled: &Compiled, opts: &Opts) -> Result<(), String> {
    if opts.verify_oracle {
        // The oracle does its own pair of runs (strategy + tagged replay)
        // with a forced-collection schedule so there is something to
        // compare even on low-pressure programs.
        let (out, collections) = oracle_check(
            &compiled.program,
            &compiled.analyses,
            opts.strategy,
            opts.heap,
            opts.force_gc.unwrap_or(64),
        )?;
        println!("{}", out.result);
        eprintln!(
            "oracle: {collections} collection(s) under {} match the tagged replay",
            opts.strategy
        );
        return Ok(());
    }
    let record = opts.trace.is_some() || opts.metrics.is_some();
    let (out, rec) = run_opts(compiled, opts, record)?;
    if let Some(rec) = &rec {
        write_exports(compiled, opts, rec)?;
    }
    for v in &out.printed {
        println!("{v}");
    }
    println!("{}", out.result);
    if opts.stats {
        eprintln!(
            "instructions {}  tag-ops {}  allocations {}  words {}  GCs {}  copied {}  \
             pause-ns {}  metadata-bytes {}",
            out.mutator.instructions,
            out.mutator.tag_ops,
            out.heap.allocations,
            out.heap.words_allocated,
            out.heap.collections,
            out.heap.words_copied,
            out.gc.pause_nanos,
            out.metadata_bytes,
        );
    }
    Ok(())
}

fn cmd_profile(compiled: &Compiled, opts: &Opts) -> Result<(), String> {
    let (out, rec) = run_opts(compiled, opts, true)?;
    let rec = rec.ok_or_else(|| {
        "profile: the run produced no recorder (ring sink failed to attach)".to_string()
    })?;
    write_exports(compiled, opts, &rec)?;
    println!("result {}", out.result);
    print!("{}", tfgc::profile_report(&rec, &compiled.program));
    Ok(())
}

fn cmd_gcmap(compiled: &Compiled, opts: &Opts) -> Result<(), String> {
    let meta = metadata_for(compiled, opts, opts.strategy);
    let mut t = Table::new(&["site", "function", "pc", "kind", "gc_word"]);
    for site in &compiled.program.sites {
        let f = &compiled.program.funs[site.fn_id.0 as usize];
        let kind = tfgc::site_kind(&compiled.program, &site.kind);
        let word = match meta.sites[site.id.0 as usize].routine {
            None => "omitted".to_string(),
            Some(NO_TRACE) => "no_trace".to_string(),
            Some(r) => format!(
                "routine#{} ({} ops)",
                r.0,
                meta.routines.routine(r).ops.len()
            ),
        };
        t.row(vec![
            site.id.0.to_string(),
            f.name.clone(),
            site.pc.to_string(),
            kind,
            word,
        ]);
    }
    println!("{}", t.render());
    println!(
        "{} sites; {} omitted; {} no_trace; {} distinct routines; {} metadata bytes",
        compiled.program.sites.len(),
        meta.omitted_gc_words(),
        meta.no_trace_sites(),
        meta.distinct_routines(),
        meta.metadata_bytes()
    );
    Ok(())
}

fn cmd_analyze(compiled: &Compiled) -> Result<(), String> {
    println!(
        "monomorphic: {}  functions: {}  sites: {}  instructions: {}",
        compiled.is_monomorphic(),
        compiled.program.funs.len(),
        compiled.program.sites.len(),
        compiled.program.code_len()
    );
    let mut t = Table::new(&["function", "kind", "slots", "frame params", "may GC"]);
    for (i, f) in compiled.program.funs.iter().enumerate() {
        t.row(vec![
            f.name.clone(),
            format!("{:?}", f.kind),
            f.slots.len().to_string(),
            f.frame_params.len().to_string(),
            compiled
                .analyses
                .gcpoints
                .fun_may_gc(tfgc::ir::FnId(i as u32))
                .to_string(),
        ]);
    }
    println!("{}", t.render());
    println!(
        "hidden descriptors required: {} (the 1991 scheme's completeness gap)",
        compiled.rtti.total_desc_fields()
    );
    Ok(())
}

/// `tfml serve`: drains a seeded traffic mix through the request engine
/// per strategy and reports steady-state telemetry, optionally gated on
/// service-level objectives.
fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    let mut strategies: Vec<Strategy> = Strategy::ALL.to_vec();
    let mut base = tfgc::ServeConfig::new(Strategy::Compiled);
    let mut trace_path: Option<String> = None;
    let mut slo_latency_ms: Option<f64> = None;
    let mut slo_pause_ms: Option<f64> = None;
    let mut serve_generational = false;
    let mut serve_nursery: Option<usize> = None;
    let mut heap_max: Option<usize> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--strategy" => {
                let v: String = flag_value(args, &mut i, "--strategy")?;
                strategies = if v == "all" {
                    Strategy::ALL.to_vec()
                } else {
                    vec![parse_strategy(&v)?]
                };
            }
            "--requests" => base.requests = flag_value(args, &mut i, "--requests")?,
            "--pool" => base.pool = flag_value(args, &mut i, "--pool")?,
            "--seed" => base.seed = flag_value(args, &mut i, "--seed")?,
            "--heap" => base.task.heap_words = flag_value(args, &mut i, "--heap")?,
            "--heap-max" => heap_max = Some(flag_value(args, &mut i, "--heap-max")?),
            "--quantum" => base.task.quantum = flag_value(args, &mut i, "--quantum")?,
            "--sample-every" => base.sample_every = flag_value(args, &mut i, "--sample-every")?,
            "--trace" => trace_path = Some(flag_value(args, &mut i, "--trace")?),
            "--generational" => serve_generational = true,
            "--nursery-words" => {
                serve_generational = true;
                serve_nursery = Some(flag_value(args, &mut i, "--nursery-words")?);
            }
            "--promote-after" => {
                base.task.promote_after = flag_value(args, &mut i, "--promote-after")?
            }
            "--slo-p99-latency-ms" => {
                slo_latency_ms = Some(flag_value(args, &mut i, "--slo-p99-latency-ms")?)
            }
            "--slo-p99-pause-ms" => {
                slo_pause_ms = Some(flag_value(args, &mut i, "--slo-p99-pause-ms")?)
            }
            "--deadline-quanta" => {
                base.overload.deadline_quanta = Some(flag_value(args, &mut i, "--deadline-quanta")?)
            }
            "--fuel" => base.overload.fuel = Some(flag_value(args, &mut i, "--fuel")?),
            "--queue-cap" => base.overload.queue_cap = flag_value(args, &mut i, "--queue-cap")?,
            "--admission" => {
                let v: String = flag_value(args, &mut i, "--admission")?;
                base.overload.admission = parse_admission(&v)?;
            }
            "--soft-watermark" => {
                base.overload.soft_watermark_pct =
                    Some(flag_value(args, &mut i, "--soft-watermark")?)
            }
            "--hard-watermark" => {
                base.overload.hard_watermark_pct =
                    Some(flag_value(args, &mut i, "--hard-watermark")?)
            }
            "--breaker-threshold" => {
                base.overload.breaker_threshold = flag_value(args, &mut i, "--breaker-threshold")?
            }
            "--breaker-cooldown" => {
                base.overload.breaker_cooldown = flag_value(args, &mut i, "--breaker-cooldown")?
            }
            "--drain-after" => {
                base.overload.drain_after = Some(flag_value(args, &mut i, "--drain-after")?)
            }
            "--runaway-every" => base.runaway_every = flag_value(args, &mut i, "--runaway-every")?,
            other => return Err(usage(format!("serve: unknown option `{other}`"))),
        }
        i += 1;
    }
    if trace_path.is_some() && strategies.len() != 1 {
        return Err(usage(
            "serve: --trace needs a single --strategy (one trace per run)",
        ));
    }
    if base.pool == 0 {
        return Err(usage("serve: --pool must be at least 1"));
    }
    if base.task.quantum == 0 {
        return Err(usage("serve: --quantum must be at least 1"));
    }
    if let Some(max) = heap_max {
        if max < base.task.heap_words {
            return Err(usage(format!(
                "serve: --heap-max {max} is below --heap {}, so the heap could never grow",
                base.task.heap_words
            )));
        }
        base.task.heap_max_words = Some(max);
    }
    // Occupancy is a percentage of capacity, and the hard level is
    // tested first: a watermark above 100 never fires, and a soft one at
    // or above the hard one never throttles.
    let (soft, hard) = (
        base.overload.soft_watermark_pct,
        base.overload.hard_watermark_pct,
    );
    if soft.into_iter().chain(hard).any(|pct| pct > 100) {
        return Err(usage(
            "serve: a watermark is a percentage of the heap, at most 100",
        ));
    }
    if let (Some(soft), Some(hard)) = (soft, hard) {
        if soft >= hard {
            return Err(usage(format!(
                "serve: --soft-watermark {soft} must be below --hard-watermark {hard}, \
                 or the soft level could never throttle"
            )));
        }
    }
    if serve_generational {
        // The nursery defaults to a quarter semispace — small enough
        // that minors actually fire under the default traffic.
        base.task.nursery_words = Some(nursery(base.task.heap_words, serve_nursery)?);
    }
    if base.runaway_every > 0
        && base.overload.deadline_quanta.is_none()
        && base.overload.fuel.is_none()
    {
        return Err(usage(
            "serve: --runaway-every needs --deadline-quanta or --fuel (a runaway \
             handler never terminates on its own)",
        ));
    }

    let mut runs = Vec::new();
    for s in &strategies {
        let mut cfg = base.clone();
        cfg.task.strategy = *s;
        runs.push(tfgc::serve(&cfg)?);
    }
    print!("{}", tfgc::render_rows(&tfgc::serve_rows(&runs))?);

    if let Some(path) = &trace_path {
        let rec = &runs[0].rec;
        let events: Vec<GcEvent> = rec.events().iter().cloned().collect();
        std::fs::write(path, write_chrome_trace(&events))
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
        if let Some(note) = trace_dropped_note(rec) {
            eprintln!("{note}");
        }
    }

    if slo_latency_ms.is_some() || slo_pause_ms.is_some() {
        let to_ns =
            |ms: Option<f64>| ms.map_or(u64::MAX, |v| (v * 1_000_000.0).max(0.0).round() as u64);
        let slo = tfgc::Slo {
            max_p99_latency_ns: to_ns(slo_latency_ms),
            max_p99_pause_ns: to_ns(slo_pause_ms),
        };
        let violations: Vec<String> = runs.iter().flat_map(|r| tfgc::check_slo(r, slo)).collect();
        if violations.is_empty() {
            eprintln!("SLO: pass ({} strategies)", runs.len());
        } else {
            return Err(CliError::Run(format!(
                "SLO violations:\n  {}",
                violations.join("\n  ")
            )));
        }
    }
    Ok(())
}

/// What `serve --trace` says when the run outgrew the ring: the trace
/// holds only the run's last events.
fn trace_dropped_note(rec: &RingRecorder) -> Option<String> {
    let kept = rec.events().len() as u64;
    (rec.dropped() > 0).then(|| {
        format!(
            "serve: --trace kept the last {kept} of {} events (the ring holds {}); \
             the start of the run is not in the trace",
            kept + rec.dropped(),
            rec.capacity()
        )
    })
}

/// `tfml torture`: the fault-injection matrix, plus (with `--oracle`) a
/// tagged-replay differential sweep over the benchmark suite and (with
/// `--serve`) mid-traffic fault injection against the request server.
fn cmd_torture(args: &[String]) -> Result<(), CliError> {
    let mut n_seeds = 8u64;
    let mut oracle = false;
    let mut serve_mode = false;
    let mut overload = false;
    let mut generational = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seeds" => n_seeds = flag_value(args, &mut i, "--seeds")?,
            "--oracle" => oracle = true,
            "--serve" => serve_mode = true,
            "--overload" => overload = true,
            "--generational" => generational = true,
            other => return Err(usage(format!("torture: unknown option `{other}`"))),
        }
        i += 1;
    }
    let seeds: Vec<u64> = (0..n_seeds).collect();
    if overload && !serve_mode {
        return Err(usage("torture: --overload needs --serve"));
    }
    if generational && !serve_mode {
        return Err(usage("torture: --generational needs --serve"));
    }
    if serve_mode {
        let cases = if overload {
            tfgc::torture_overload(&seeds)
        } else {
            tfgc::torture_serve(&seeds, generational)
        };
        let mut bad = 0;
        for c in &cases {
            let status = if c.violations.is_empty() {
                "ok"
            } else {
                "FAIL"
            };
            println!(
                "serve {status}: {} under {} seed {} completed {} failed {} shed {}",
                c.scenario, c.strategy, c.seed, c.completed, c.failed, c.shed
            );
            for v in &c.violations {
                println!("  violation: {v}");
                bad += 1;
            }
        }
        println!("{} serve-torture cases", cases.len());
        if bad > 0 {
            return Err(CliError::Run(format!("{bad} serve-torture violation(s)")));
        }
        return Ok(());
    }
    let report = tfgc::torture(&seeds);
    println!("{}", report.summary());
    for case in report.raw_panics() {
        println!(
            "RAW PANIC: {} under {} seed {} ({}): {:?}",
            case.workload,
            case.strategy,
            case.seed,
            case.plan.describe(),
            case.outcome
        );
    }
    if oracle {
        for (name, src) in tfgc::workloads::suite() {
            let compiled =
                Compiled::compile(&src).map_err(|e| CliError::Run(format!("{name}: {e}")))?;
            for s in Strategy::ALL {
                let (_, collections) =
                    oracle_check(&compiled.program, &compiled.analyses, s, 1 << 16, 64)
                        .map_err(|e| CliError::Run(format!("oracle: {name} under {s}: {e}")))?;
                println!("oracle ok: {name} under {s} ({collections} collections)");
            }
        }
    }
    if report.ok() {
        Ok(())
    } else {
        Err(CliError::Run(format!(
            "{} case(s) ended in a raw panic",
            report.raw_panics().len()
        )))
    }
}

fn cmd_fuzz(args: &[String]) -> Result<(), CliError> {
    let mut cfg = tfgc_fuzz::CampaignConfig::default();
    let mut json: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seeds" => cfg.seeds = flag_value(args, &mut i, "--seeds")?,
            "--seed-start" => cfg.seed_start = flag_value(args, &mut i, "--seed-start")?,
            "--shrink" => cfg.shrink = true,
            "--shrink-budget" => cfg.shrink_budget = flag_value(args, &mut i, "--shrink-budget")?,
            "--json" => json = Some(flag_value(args, &mut i, "--json")?),
            "--depth" => cfg.gen.max_depth = flag_value(args, &mut i, "--depth")?,
            "--funs" => cfg.gen.n_funs = flag_value(args, &mut i, "--funs")?,
            "--fuel" => cfg.gen.fuel = flag_value(args, &mut i, "--fuel")?,
            "--datatypes" => cfg.gen.n_datatypes = flag_value(args, &mut i, "--datatypes")?,
            "--max-rec" => cfg.gen.max_recursion = flag_value(args, &mut i, "--max-rec")?,
            "--no-higher-order" => cfg.gen.higher_order = false,
            "--no-polymorphism" => cfg.gen.polymorphism = false,
            other => return Err(usage(format!("fuzz: unknown option `{other}`"))),
        }
        i += 1;
    }
    let report = tfgc_fuzz::run_campaign(&cfg);
    let doc = tfgc_fuzz::report_json(&cfg, &report);
    let digest = tfgc::obs::json::parse(&doc)
        .ok()
        .and_then(|d| match d.get("digest") {
            Some(tfgc::obs::Json::Str(s)) => Some(s.clone()),
            _ => None,
        })
        .unwrap_or_default();
    println!(
        "fuzz: {} seeds from {}: {} cases ({} completed, {} structured errors, {}/{} faults graceful), {} finding(s), digest {digest}",
        report.seeds_run,
        report.seed_start,
        report.cases_executed,
        report.completed,
        report.structured_errors,
        report.faults_graceful,
        report.seeds_run * 5,
        report.findings.len(),
    );
    for f in &report.findings {
        println!(
            "FINDING {} (seed {}, x{}): {}",
            f.fingerprint, f.seed, f.count, f.detail
        );
        if cfg.shrink {
            println!(
                "  shrunk {} -> {} nodes in {} evals; reproducer:",
                f.orig_nodes, f.shrunk_nodes, f.shrink_evals
            );
            for line in f.source.trim().lines() {
                println!("  | {line}");
            }
        }
    }
    if let Some(path) = json {
        std::fs::write(&path, &doc).map_err(|e| CliError::Run(format!("write {path}: {e}")))?;
        println!("wrote {path}");
    }
    if report.ok() {
        Ok(())
    } else {
        Err(CliError::Run(format!(
            "{} differential finding(s)",
            report.findings.len()
        )))
    }
}

/// `compare`'s runs: one per strategy, each configured as `run
/// --strategy S` with the same options would be.
fn compare_runs<'a>(
    compiled: &'a Compiled,
    opts: &'a Opts,
) -> impl Iterator<Item = (Strategy, VmConfig, tfgc::gc::GcMeta)> + 'a {
    Strategy::ALL
        .into_iter()
        .map(|s| (s, vm_config(opts, s), metadata_for(compiled, opts, s)))
}

fn cmd_compare(compiled: &Compiled, opts: &Opts) -> Result<(), String> {
    let mut t = Table::new(&[
        "strategy", "result", "words", "GCs", "copied", "tag-ops", "meta B",
    ]);
    for (s, cfg, meta) in compare_runs(compiled, opts) {
        let out = compiled
            .run_with_meta(cfg, meta)
            .map_err(|e| format!("{s}: {e}"))?;
        t.row(vec![
            s.to_string(),
            out.result.clone(),
            out.heap.words_allocated.to_string(),
            out.heap.collections.to_string(),
            out.heap.words_copied.to_string(),
            out.mutator.tag_ops.to_string(),
            out.metadata_bytes.to_string(),
        ]);
    }
    println!("{}", t.render());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfgc::obs::Json;

    fn is_usage(r: Result<(), CliError>) -> bool {
        matches!(r, Err(CliError::Usage(_)))
    }

    #[test]
    fn malformed_numeric_values_are_usage_errors() {
        for bad in [
            vec!["run", "--heap", "x", "-e", "1"],
            vec!["run", "--heap", "-e"],
            vec!["run", "--force-gc", "ten", "-e", "1"],
            vec!["run", "--events", "1.5", "-e", "1"],
            vec!["serve", "--requests", "many"],
            vec!["serve", "--pool", "0"],
            vec!["serve", "--quantum", "0"],
            vec!["run", "--nursery-words", "0", "-e", "[1,2]"],
            vec!["run", "--generational", "--heap", "3", "-e", "[1,2]"],
            vec!["serve", "--nursery-words", "0", "--requests", "5"],
            vec!["serve", "--generational", "--heap", "3", "--requests", "5"],
            vec!["serve", "--soft-watermark", "ninety"],
            vec!["serve", "--breaker-threshold", "-3"],
            vec![
                "serve",
                "--soft-watermark",
                "200",
                "--hard-watermark",
                "300",
            ],
            vec!["serve", "--soft-watermark", "95", "--hard-watermark", "70"],
            vec!["serve", "--heap", "4096", "--heap-max", "100"],
            vec!["torture", "--seeds", "NaN"],
        ] {
            let args: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(
                is_usage(run(args)),
                "`tfml {}` must be a usage error (exit 2)",
                bad.join(" ")
            );
        }
    }

    #[test]
    fn malformed_compound_values_are_usage_errors() {
        for bad in [
            vec!["serve", "--admission", "backoff:A:B"],
            vec!["serve", "--admission", "backoff:3"],
            vec!["serve", "--admission", "degrade:low"],
            vec!["serve", "--admission", "lottery"],
        ] {
            let args: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(
                is_usage(run(args)),
                "`tfml {}` must be a usage error (exit 2)",
                bad.join(" ")
            );
        }
    }

    #[test]
    fn unknown_flags_and_commands_are_usage_errors() {
        for bad in [
            vec!["run", "--frobnicate", "-e", "1"],
            vec!["serve", "--what"],
            vec!["serve", "--window-ms", "10"],
            vec!["torture", "--loud"],
            vec!["conquer"],
        ] {
            let args: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(is_usage(run(args)), "`tfml {}` must exit 2", bad.join(" "));
        }
        assert!(
            is_usage(run(vec![])),
            "no arguments at all is a usage error"
        );
    }

    #[test]
    fn well_formed_admission_values_parse() {
        assert!(parse_admission("reject").is_ok());
        assert!(parse_admission("backoff").is_ok());
        assert!(parse_admission("backoff:4:32").is_ok());
        assert!(parse_admission("degrade").is_ok());
        assert!(parse_admission("degrade:1").is_ok());
    }

    #[test]
    fn usage_lists_every_flag_the_parsers_accept() {
        let mut flags = Vec::new();
        for line in include_str!("tfml.rs").lines() {
            let Some(rest) = line.trim_start().strip_prefix('"') else {
                continue;
            };
            if let Some((flag, tail)) = rest.split_once('"') {
                if flag.starts_with('-') && tail.trim_start().starts_with("=>") {
                    flags.push(flag);
                }
            }
        }
        assert!(flags.len() > 40, "the scan must find the arms: {flags:?}");
        // A flag counts as listed only as a whole word: `--seed` must not
        // be satisfied by `--seeds` or `--seed-start`.
        let listed = |flag: &str| {
            USAGE.match_indices(flag).any(|(i, _)| {
                !USAGE[i + flag.len()..].starts_with(|c: char| c.is_alphanumeric() || c == '-')
            })
        };
        let missing: Vec<_> = flags.iter().filter(|f| !listed(f)).collect();
        assert!(missing.is_empty(), "flags missing from USAGE: {missing:?}");
    }

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    /// `--verify-heap` and `--refined` reach all five of `compare`'s
    /// runs: each runs on the refined metadata, and the verifier walks
    /// the heap after every collection.
    #[test]
    fn compare_runs_under_verify_heap_and_refined() {
        let src = tfgc::workloads::programs::ho_pure(20);
        let args = ["--verify-heap", "--refined", "--force-gc", "9", "-e", &src];
        let opts = parse_opts(&strings(&args)).unwrap();
        let c = Compiled::compile(&opts.source).unwrap();
        let first_order = c.metadata(Strategy::Compiled).omitted_gc_words();
        assert!(
            c.metadata_refined(Strategy::Compiled).omitted_gc_words() > first_order,
            "the program must tell refined metadata from first-order"
        );
        let runs: Vec<_> = compare_runs(&c, &opts).collect();
        assert_eq!(runs.len(), Strategy::ALL.len());
        for (s, cfg, meta) in runs {
            let omitted = c.metadata_refined(s).omitted_gc_words();
            assert_eq!(meta.omitted_gc_words(), omitted, "{s}");
            let (out, obs) = c
                .run_observed(cfg, meta, Obs::ring(1 << 14))
                .unwrap_or_else(|e| panic!("{s}: {e}"));
            let verified = obs
                .recorder()
                .unwrap()
                .events()
                .iter()
                .filter(|e| matches!(e, GcEvent::VerificationEnd { ok: true, .. }))
                .count() as u64;
            assert!(out.heap.collections > 0, "{s}");
            assert_eq!(verified, out.heap.collections, "{s}");
        }
    }

    /// `serve --trace` writes the run's ring: every line after the
    /// opening bracket is one JSON object, requests are async spans and
    /// collections are duration events.
    #[test]
    fn serve_trace_holds_request_spans_and_collections() {
        let path = std::env::temp_dir().join(format!("tfml-serve-{}.trace", std::process::id()));
        let path_str = path.to_str().expect("utf-8 temp path").to_string();
        let args = [
            "serve",
            "--strategy",
            "compiled",
            "--requests",
            "24",
            "--heap",
            "512",
            "--trace",
            &path_str,
        ];
        run(strings(&args)).expect("serve runs");
        let text = std::fs::read_to_string(&path).expect("trace written");
        std::fs::remove_file(&path).ok();
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("["));
        let mut phases = Vec::new();
        for line in lines {
            let line = line.trim_end_matches(',');
            let v = tfgc::obs::json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
            let cat = v.get("cat").cloned();
            phases.push((v.get("ph").cloned(), cat));
        }
        let has = |ph: &str, cat: &str| {
            phases
                .iter()
                .any(|p| *p == (Some(Json::str(ph)), Some(Json::str(cat))))
        };
        assert!(has("b", "request") && has("e", "request"), "{phases:?}");
        assert!(has("X", "gc"), "a collection must show: {phases:?}");
    }

    /// `--verify-oracle` runs a replay of its own: another command, or a
    /// run option the replay would ignore, is a usage error naming it.
    #[test]
    fn verify_oracle_refuses_what_the_replay_would_ignore() {
        for (bad, named) in [
            (&["compare", "--verify-oracle", "-e", "1"][..], "compare"),
            (&["profile", "--verify-oracle", "-e", "1"], "profile"),
            (
                &["run", "--verify-oracle", "--generational", "-e", "1"],
                "--generational",
            ),
            (
                &["run", "--verify-heap", "--verify-oracle", "-e", "1"],
                "--verify-heap",
            ),
            (
                &["run", "--verify-oracle", "--refined", "-e", "1"],
                "--refined",
            ),
            (
                &["run", "--verify-oracle", "--trace", "t.json", "-e", "1"],
                "--trace",
            ),
        ] {
            match run(strings(bad)) {
                Err(CliError::Usage(msg)) => assert!(msg.contains(named), "{msg}"),
                other => panic!("`tfml {}` must exit 2: {other:?}", bad.join(" ")),
            }
        }
        let src = "fun build n = if n = 0 then [] else n :: build (n - 1) ; build 30";
        let ok = [
            "run",
            "--verify-oracle",
            "--strategy",
            "appel",
            "--heap",
            "1024",
            "--force-gc",
            "7",
            "-e",
            src,
        ];
        run(strings(&ok)).expect("the replay's own options run");
    }

    /// `serve --trace` keeps the last events of a run that outgrows the
    /// ring, and says so.
    #[test]
    fn serve_trace_says_when_the_ring_dropped_events() {
        for (requests, drops) in [(24, false), (1000, true)] {
            let mut cfg = tfgc::ServeConfig::new(Strategy::Compiled);
            cfg.requests = requests;
            let run = tfgc::serve(&cfg).expect("serve runs");
            let note = trace_dropped_note(&run.rec);
            assert_eq!(note.is_some(), drops, "{requests} requests: {note:?}");
            if let Some(note) = note {
                let kept = run.rec.events().len() as u64;
                let total = kept + run.rec.dropped();
                let counts = format!("kept the last {kept} of {total} events");
                assert!(note.contains(&counts), "{note}");
            }
        }
    }

    #[test]
    fn missing_program_is_a_usage_error() {
        assert!(is_usage(run(vec!["run".to_string()])));
    }

    #[test]
    fn runtime_failures_stay_exit_1() {
        // A well-formed invocation of a program that does not exist is a
        // run error, not a usage error.
        let r = run(vec![
            "run".to_string(),
            "/nonexistent/definitely-not-here.tfml".to_string(),
        ]);
        assert!(matches!(r, Err(CliError::Run(_))));
    }
}
