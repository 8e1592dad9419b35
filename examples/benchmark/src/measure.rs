//! Runs of one workload: the untraced run behind the end-to-end metrics
//! and the traced run behind the per-layer metrics, with the estimators
//! both use.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::stats::{Quantile, Summary};
use crate::trace::{Span, Tracer};
use crate::workload::{self, digest, Kind, Mode, PassOut, Prepared, Sink, Workload};
use tfgc::gc::Strategy;

/// Untimed passes before measuring: plans, caches and the allocator
/// settle first.
const WARMUP_PASSES: usize = 3;
/// Timed passes a run makes even when `--seconds` runs out first.
const MIN_PASSES: usize = 5;
/// Seconds of repeated set-up behind `setup_s`.
pub const SETUP_SECONDS: f64 = 1.0;
const MIN_SETUP_REPS: usize = 3;
/// Passes of each kind in a traced run.
const SPAN_PASSES: usize = 10;
const OVERHEAD_PASSES: usize = 3;
const STRATEGY_PASSES: usize = 3;

/// How long a run measures.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub seconds: f64,
    pub setup_seconds: f64,
    /// Caps timed passes (and span passes); the drift test uses 2.
    pub max_passes: Option<usize>,
}

impl Budget {
    fn done(&self, passes: usize, start: Instant) -> bool {
        match self.max_passes {
            Some(m) if passes >= m => true,
            _ => passes >= MIN_PASSES && start.elapsed().as_secs_f64() >= self.seconds,
        }
    }

    fn span_passes(&self) -> usize {
        self.max_passes.map_or(SPAN_PASSES, |m| m.min(SPAN_PASSES))
    }
}

/// One measured metric value.
#[derive(Debug, Clone)]
pub struct Value {
    pub value: f64,
    pub samples: usize,
    /// What the value is computed from (its base), for the printout and
    /// `layers.json`.
    pub base: String,
    /// Set for a percentile: its rank context decides whether it prints.
    pub quantile: Option<Quantile>,
}

impl Value {
    pub fn resolved(&self) -> bool {
        self.quantile.is_none_or(|q| q.resolved())
    }
}

fn val(value: f64, samples: usize, base: impl Into<String>) -> Value {
    Value {
        value,
        samples,
        base: base.into(),
        quantile: None,
    }
}

fn percentile(q: Quantile, base: impl Into<String>) -> Value {
    Value {
        value: q.value,
        samples: q.n,
        base: base.into(),
        quantile: Some(q),
    }
}

/// Per-operation outputs checked against their reference.
#[derive(Debug, Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
    pub first_mismatch: Option<String>,
}

impl Checker {
    fn check(&mut self, got: &[String], want: &[String]) {
        let n = got.len().max(want.len());
        self.attempted += n as u64;
        for i in 0..n {
            let (g, w) = (got.get(i), want.get(i));
            if g != w {
                self.failed += 1;
                self.first_mismatch
                    .get_or_insert_with(|| format!("operation {i}: got {g:?}, expected {w:?}"));
            }
        }
    }
}

/// The result of running one workload.
#[derive(Debug)]
pub struct Report {
    pub kind: Kind,
    pub seed: u64,
    pub traced: bool,
    pub values: BTreeMap<String, Value>,
    pub check: Checker,
    /// Seed 1's reference digest matched the committed one (always true
    /// for other seeds).
    pub reference_ok: bool,
    pub reference_digest: u64,
    pub tracer: Option<Tracer>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.reference_ok && self.check.failed == 0
    }
}

/// The committed seed-1 reference digest of `kind`.
fn expected_digest(kind: Kind) -> Option<u64> {
    let text = match kind {
        Kind::Mutator => include_str!("../expected/mutator.txt"),
        Kind::GcDeep => include_str!("../expected/gc_deep.txt"),
        Kind::GcWide => include_str!("../expected/gc_wide.txt"),
        Kind::Compile => include_str!("../expected/compile.txt"),
        Kind::Serve => include_str!("../expected/serve.txt"),
        Kind::ServeGen => include_str!("../expected/serve_gen.txt"),
    };
    u64::from_str_radix(text.trim(), 16).ok()
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn median_of(xs: &[f64]) -> f64 {
    Summary::new(xs.to_vec()).median()
}

/// The output of [`timed_setup`].
struct Setup {
    /// The last rep's build.
    prep: Prepared,
    /// Seconds per rep.
    secs: Vec<f64>,
    /// Each rep's spans, as index ranges into the tracer.
    reps: Vec<std::ops::Range<usize>>,
}

/// Set-up, repeated at least [`MIN_SETUP_REPS`] times and for about
/// `seconds`: every program compiled and its metadata built. With
/// tracing on, each rep is one `bench.setup` span.
fn timed_setup(w: &Workload, seconds: f64, tr: &mut Tracer) -> Result<Setup, String> {
    let start = Instant::now();
    let mut secs = Vec::new();
    let mut reps = Vec::new();
    let mut prep = None;
    while secs.len() < MIN_SETUP_REPS || start.elapsed().as_secs_f64() < seconds {
        let first = tr.spans().len();
        let span = tr.begin("bench.setup");
        let t = Instant::now();
        let p = w.prepare(Strategy::Compiled, tr)?;
        secs.push(t.elapsed().as_secs_f64());
        tr.end(span);
        reps.push(first..tr.spans().len());
        prep = Some(p);
        if tr.enabled() && reps.len() >= SPAN_PASSES {
            break;
        }
    }
    Ok(Setup {
        prep: prep.expect("at least one set-up rep"),
        secs,
        reps,
    })
}

/// Checks, once, everything outside the passes: seed 1's reference
/// digest and the compile workload's semantic check.
fn check_reference(w: &Workload, prep: &Prepared, chk: &mut Checker) -> (bool, u64) {
    if let Some(outs) = w.check_compiled(prep) {
        chk.check(&outs, &w.reference);
    }
    let d = digest(&w.reference);
    let ok = w.seed != 1 || expected_digest(w.kind) == Some(d);
    (ok, d)
}

/// Per position, the minimum across `rows` (rows of unequal length are
/// cut to the shortest; a row only differs when an operation failed,
/// which the checker reports).
///
/// Every pass replays the same operations: the same programs, the same
/// requests, with scheduling and collection points that depend only on
/// instruction counts. So an operation's fastest time across passes is
/// its cost without interference from the rest of the machine, and it
/// keeps every cost intrinsic to the program, such as a pause a request
/// overlaps.
fn fastest(rows: &[Vec<u64>]) -> Vec<f64> {
    let n = rows.iter().map(Vec::len).min().unwrap_or(0);
    (0..n)
        .map(|i| rows.iter().map(|r| r[i]).min().unwrap_or(0) as f64)
        .collect()
}

/// The untraced run: clean passes for `b.seconds`, each followed by a
/// latency pass on the workloads whose operations clean passes cannot
/// time one by one; reports the end-to-end metrics.
pub fn run_e2e(w: &Workload, b: &Budget) -> Result<Report, String> {
    let mut off = Tracer::off();
    let Setup {
        prep,
        secs: mut setup,
        ..
    } = timed_setup(w, 0.0, &mut off)?;
    let mut chk = Checker::default();
    let (reference_ok, reference_digest) = check_reference(w, &prep, &mut chk);
    let want = w.pass_reference(&prep);
    for _ in 0..WARMUP_PASSES {
        chk.check(&w.pass(&prep, Mode::CLEAN, &mut off).outputs, &want);
    }
    let mut calls = Vec::new();
    let mut ops = Vec::new();
    let start = Instant::now();
    loop {
        let o = w.pass(&prep, Mode::CLEAN, &mut off);
        chk.check(&o.outputs, &want);
        calls.push(o.calls_ns);
        ops.push(match w.kind.latency_probe() {
            Some(sink) => {
                let mode = Mode {
                    sink,
                    verify: false,
                };
                let p = w.pass(&prep, mode, &mut off);
                chk.check(&p.outputs, &want);
                p.op_ns
            }
            None => o.op_ns,
        });
        // Set-up reps spread over the run, about `b.setup_seconds` of them
        // in all, so that `setup_s` sees the same host as the passes.
        let due = b.setup_seconds * (start.elapsed().as_secs_f64() / b.seconds).min(1.0);
        while setup.iter().sum::<f64>() < due {
            let t = Instant::now();
            let p = w.prepare(Strategy::Compiled, &mut off)?;
            setup.push(t.elapsed().as_secs_f64());
            drop(p);
        }
        if b.done(calls.len(), start) {
            break;
        }
    }
    let passes = calls.len();
    let setup = Summary::new(setup);
    let pass_call = fastest(&calls);
    let lat = Summary::new(fastest(&ops).iter().map(|ns| ns / 1e3).collect());
    let op = w.kind.operation();
    let mut values = BTreeMap::new();
    values.insert(
        "setup_s".into(),
        val(
            setup.median(),
            setup.n(),
            "median set-up rep (compile + metadata), reps spread over the run",
        ),
    );
    values.insert(
        "pass_ms".into(),
        val(
            pass_call.iter().sum::<f64>() / 1e6,
            passes,
            format!(
                "sum over the pass's {} layer calls of each call's fastest time in {passes} passes",
                pass_call.len()
            ),
        ),
    );
    for (name, bp) in [("latency_us.p50", 5_000), ("latency_us.p99", 9_900)] {
        let q = lat.quantile(bp);
        values.insert(
            name.into(),
            percentile(
                q,
                format!("nearest rank over {op}s, each at its fastest in {passes} passes"),
            ),
        );
    }
    values.insert(
        "metadata_bytes".into(),
        val(
            prep.metadata_bytes() as f64,
            prep.units.len(),
            "sum of GcMeta::metadata_bytes over the programs",
        ),
    );
    Ok(Report {
        kind: w.kind,
        seed: w.seed,
        traced: false,
        values,
        check: chk,
        reference_ok,
        reference_digest,
        tracer: None,
    })
}

/// Sum of span durations by name.
fn span_sums(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut m = BTreeMap::new();
    for s in spans {
        *m.entry(s.name).or_insert(0) += s.dur_ns;
    }
    m
}

const FRONT_END: [(&str, &str); 5] = [
    ("syntax.parse", "syntax.parse_ms"),
    ("types.elaborate", "types.elaborate_ms"),
    ("ir.lower", "ir.lower_ms"),
    ("analysis.compute", "analysis.compute_ms"),
    ("gc.meta_build", "gc.meta_build_ms"),
];

/// Front-end layer times of one set-up rep or compile pass.
fn front_end_ms(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let sums = span_sums(spans);
    FRONT_END
        .iter()
        .map(|(span, metric)| (*metric, ms(sums.get(span).copied().unwrap_or(0))))
        .collect()
}

/// The per-pass layer values of one span pass. `spans` starts with the
/// pass's own span.
fn pass_layers(kind: Kind, o: &PassOut, spans: &[Span]) -> Vec<(&'static str, f64)> {
    let pause = o.gc.pause_nanos as f64;
    // Wall time inside program runs or the serve call.
    let exec_ns: u64 = if kind.executes() {
        o.calls_ns.iter().sum()
    } else {
        0
    };
    let mutator_ns = exec_ns as f64 - pause;
    let g = &o.gc;
    let h = &o.heap;
    let m = &o.mutator;
    let serve = kind.serves();
    let covered: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(spans[0].id))
        .map(|s| s.dur_ns)
        .sum();
    let mut v = vec![
        ("vm.mutator_ms", mutator_ns / 1e6),
        ("vm.instructions", m.instructions as f64),
        ("vm.ns_per_instr", ratio(mutator_ns, m.instructions as f64)),
        ("vm.calls", m.calls as f64),
        ("vm.closure_calls", m.closure_calls as f64),
        ("vm.frame_init_stores", m.frame_init_stores as f64),
        ("vm.desc_evals", m.desc_evals as f64),
        ("runtime.allocations", h.allocations as f64),
        ("runtime.words_allocated", h.words_allocated as f64),
        ("runtime.words_copied", h.words_copied as f64),
        ("runtime.objects_copied", h.objects_copied as f64),
        ("runtime.heap_grows", h.grows as f64),
        ("runtime.peak_live_words", h.peak_live_words as f64),
        ("gc.collect_ms", pause / 1e6),
        ("gc.share", ratio(pause, o.wall_ns as f64)),
        ("gc.collections", g.collections as f64),
        ("gc.pause_us.mean", ratio(pause, g.collections as f64) / 1e3),
        ("gc.frames_visited", g.frames_visited as f64),
        ("gc.ns_per_frame", ratio(pause, g.frames_visited as f64)),
        ("gc.ns_per_word_copied", ratio(pause, h.words_copied as f64)),
        ("gc.routine_invocations", g.routine_invocations as f64),
        ("gc.slots_traced", g.slots_traced as f64),
        ("gc.rt_cache_hits", g.rt_cache_hits as f64),
        ("gc.rt_cache_misses", g.rt_cache_misses as f64),
        ("gc.plan_hits", g.plan_hits as f64),
        ("gc.plans_compiled", g.plans_compiled as f64),
        ("gc.desc_bytes_read", g.desc_bytes_read as f64),
        ("gc.closure_envs_built", g.closure_envs_built as f64),
        ("gc.rt_nodes_built", g.rt_nodes_built as f64),
        ("gc.minor_collections", g.minor_collections as f64),
        ("gc.major_collections", g.major_collections as f64),
        ("runtime.promoted_words", g.promoted_words as f64),
        ("runtime.died_young_words", g.died_young_words as f64),
        (
            "runtime.survival_ratio",
            ratio(
                g.promoted_words as f64,
                (g.promoted_words + g.died_young_words) as f64,
            ),
        ),
        ("tasking.serve_ms", if serve { ms(exec_ns) } else { 0.0 }),
        (
            "tasking.non_gc_ms",
            if serve { mutator_ns / 1e6 } else { 0.0 },
        ),
        (
            "tasking.suspension_checks",
            o.serve.suspension_checks as f64,
        ),
        (
            "tasking.suspension_events",
            o.serve.suspension_events as f64,
        ),
        (
            "tasking.max_suspension_latency",
            o.serve.max_suspension_latency as f64,
        ),
        ("tasking.completed", o.serve.completed as f64),
        ("tasking.failed", o.serve.failed as f64),
        ("tasking.shed", o.serve.shed as f64),
        (
            "obs.span_coverage",
            ratio(covered as f64, spans[0].dur_ns as f64),
        ),
    ];
    if kind == Kind::Compile {
        v.extend(front_end_ms(spans));
    }
    v
}

/// Medians, per metric, of per-pass values.
fn medians(samples: &[Vec<(&'static str, f64)>], base: &str) -> BTreeMap<String, Value> {
    let mut by: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in samples {
        for (k, x) in s {
            by.entry(k).or_default().push(*x);
        }
    }
    by.into_iter()
        .map(|(k, xs)| (k.to_string(), val(median_of(&xs), xs.len(), base)))
        .collect()
}

fn quantile_value(xs: &[f64], bp: u32, what: &str) -> Value {
    percentile(
        Summary::new(xs.to_vec()).quantile(bp),
        format!("nearest rank over the event pass's {what}"),
    )
}

/// The traced run: set-up and span passes with every layer call wrapped
/// in a span, then probe, event, verify and strategy passes. Reports the
/// per-layer metrics; no end-to-end metric comes from it.
pub fn run_traced(w: &Workload, b: &Budget) -> Result<Report, String> {
    let mut tr = Tracer::on();
    let Setup {
        prep,
        reps: setup_reps,
        ..
    } = timed_setup(w, b.setup_seconds, &mut tr)?;
    let mut chk = Checker::default();
    let (reference_ok, reference_digest) = check_reference(w, &prep, &mut chk);
    let want = w.pass_reference(&prep);
    let mut off = Tracer::off();
    for _ in 0..WARMUP_PASSES {
        chk.check(&w.pass(&prep, Mode::CLEAN, &mut off).outputs, &want);
    }

    // Overhead bases: untraced clean passes interleaved with probe passes.
    let probe_mode = Mode {
        sink: Sink::Probe,
        verify: false,
    };
    let (mut clean, mut probe) = (Vec::new(), Vec::new());
    for _ in 0..OVERHEAD_PASSES {
        let o = w.pass(&prep, Mode::CLEAN, &mut off);
        chk.check(&o.outputs, &want);
        clean.push(o.wall_ns as f64);
        if w.kind.executes() {
            let p = w.pass(&prep, probe_mode, &mut off);
            chk.check(&p.outputs, &want);
            probe.push(p.wall_ns as f64);
        }
    }
    let clean_ns = median_of(&clean);

    let mut samples = Vec::new();
    for _ in 0..b.span_passes() {
        let first = tr.spans().len();
        let span = tr.begin("pass.span");
        let o = w.pass(&prep, Mode::CLEAN, &mut tr);
        tr.end(span);
        chk.check(&o.outputs, &want);
        samples.push(pass_layers(w.kind, &o, &tr.spans()[first..]));
    }
    let n_span = samples.len();
    let mut values = medians(&samples, &format!("median of {n_span} span passes"));

    if w.kind != Kind::Compile {
        let reps: Vec<_> = setup_reps
            .iter()
            .map(|r| front_end_ms(&tr.spans()[r.clone()]))
            .collect();
        values.extend(medians(
            &reps,
            &format!("median of {} traced set-up builds", reps.len()),
        ));
    }
    let units = &prep.units;
    let count = |f: &dyn Fn(&workload::Unit) -> usize| units.iter().map(f).sum::<usize>() as f64;
    let per_build = "sum over the workload's programs";
    for (name, x) in [
        ("syntax.source_kb", count(&|u| u.source_bytes) / 1024.0),
        ("ir.instructions", count(&|u| u.instructions())),
        ("ir.sites", count(&|u| u.compiled.program.sites.len())),
        (
            "analysis.omitted_gc_words",
            count(&|u| u.meta.omitted_gc_words()),
        ),
        (
            "gc.distinct_routines",
            count(&|u| u.meta.distinct_routines()),
        ),
    ] {
        values.insert(name.into(), val(x, units.len(), per_build));
    }

    // One pass with the full event sink, and one more with the heap
    // verifier on: the verifier's cost is their difference.
    let event_pass = |verify: bool, tr: &mut Tracer| {
        let span = tr.begin(if verify { "pass.verify" } else { "pass.event" });
        let o = w.pass(
            &prep,
            Mode {
                sink: Sink::Full,
                verify,
            },
            tr,
        );
        tr.end(span);
        o
    };
    let ev = event_pass(false, &mut tr);
    chk.check(&ev.outputs, &want);
    let ver = event_pass(true, &mut tr);
    chk.check(&ver.outputs, &want);
    let executes = w.kind.executes();
    let probe_ns = median_of(&probe);
    values.insert(
        "obs.probe_overhead".into(),
        val(
            if executes {
                ratio(probe_ns, clean_ns)
            } else {
                0.0
            },
            probe.len(),
            format!(
                "median probe pass {:.4} ms / median clean pass {:.4} ms",
                probe_ns / 1e6,
                clean_ns / 1e6
            ),
        ),
    );
    values.insert(
        "obs.event_overhead".into(),
        val(
            if executes {
                ratio(ev.wall_ns as f64, clean_ns)
            } else {
                0.0
            },
            1,
            format!(
                "event pass {:.4} ms / median clean pass {:.4} ms",
                ms(ev.wall_ns),
                clean_ns / 1e6
            ),
        ),
    );
    values.insert(
        "obs.events_per_pass".into(),
        val(
            ev.events_seen as f64,
            1,
            "events the full sink saw in one pass",
        ),
    );
    let pauses_us = |keep: fn(bool) -> bool| -> Vec<f64> {
        ev.pauses
            .iter()
            .filter(|&&(_, minor)| keep(minor))
            .map(|&(ns, _)| ns as f64 / 1e3)
            .collect()
    };
    let (all, minor, major) = (pauses_us(|_| true), pauses_us(|m| m), pauses_us(|m| !m));
    for (name, xs, bp, what) in [
        ("gc.pause_us.p50", &all, 5_000, "pauses"),
        ("gc.pause_us.p99", &all, 9_900, "pauses"),
        ("gc.minor_pause_us.p99", &minor, 9_900, "minor pauses"),
        ("gc.major_pause_us.p99", &major, 9_900, "major pauses"),
    ] {
        values.insert(name.into(), quantile_value(xs, bp, what));
    }
    values.insert(
        "verify.ms".into(),
        val(
            ms(ver.wall_ns) - ms(ev.wall_ns),
            1,
            format!(
                "verify pass {:.4} ms - event pass {:.4} ms",
                ms(ver.wall_ns),
                ms(ev.wall_ns)
            ),
        ),
    );
    values.insert(
        "verify.objects".into(),
        val(
            ver.verified_objects as f64,
            1,
            "objects the verifier walked in one pass",
        ),
    );

    for s in [
        Strategy::CompiledNoLiveness,
        Strategy::Interpreted,
        Strategy::AppelPerFn,
        Strategy::Tagged,
    ] {
        let key = |m: &str| format!("strategy.{}.{m}", s.name());
        let mut rows = Vec::new();
        if w.kind.strategy_sweep().contains(&s) {
            let p = w.prepare(s, &mut off)?;
            for _ in 0..STRATEGY_PASSES {
                let span = tr.begin("pass.strategy");
                let o = w.pass(&p, Mode::CLEAN, &mut tr);
                tr.end(span);
                chk.check(&o.outputs, &want);
                rows.push(o);
            }
        }
        let n = rows.len();
        let wall: Vec<f64> = rows.iter().map(|o| ms(o.wall_ns)).collect();
        let gc: Vec<f64> = rows.iter().map(|o| ms(o.gc.pause_nanos)).collect();
        let last = rows.last();
        let base = format!("median of {n} {} passes", s.name());
        values.insert(key("pass_ms"), val(median_of(&wall), n, &base));
        values.insert(key("gc_ms"), val(median_of(&gc), n, &base));
        values.insert(
            key("words_allocated"),
            val(
                last.map_or(0.0, |o| o.heap.words_allocated as f64),
                n,
                "one pass",
            ),
        );
        values.insert(
            key("words_copied"),
            val(
                last.map_or(0.0, |o| o.heap.words_copied as f64),
                n,
                "one pass",
            ),
        );
    }

    Ok(Report {
        kind: w.kind,
        seed: w.seed,
        traced: true,
        values,
        check: chk,
        reference_ok,
        reference_digest,
        tracer: Some(tr),
    })
}
