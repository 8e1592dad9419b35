//! The experiment suite. [`bench_json`] is the one definition of each
//! experiment: `experiments --json` writes its document as
//! `BENCH_E<n>.json`, and the text table is [`crate::render`] of the
//! same document.
//!
//! Every document carries `rows` — flat objects, one per table line,
//! exactly what the text table shows — and a `profiles` array with one
//! entry per strategy: the run outcome, counters, and the observability
//! metrics (pause and allocation-size histograms with p50/p90/p99/max,
//! labeled per-site allocation counts, per-collection summaries). The
//! service experiments E11 and E12 use one [`tfgc::serve_json`] profile
//! per run instead. Some documents add experiment-specific extras.
//! Wall-clock values sit under [`tfgc::obs::WALL_CLOCK_KEYS`]; [`check`]
//! compares everything else.

use std::io;
use std::path::{Path, PathBuf};
use tfgc::gc::{GcMeta, NO_TRACE};
use tfgc::obs::{deterministic_view, CollectionKind, Json, Obs};
use tfgc::tasking::{find_fn, serve_requests_overload, ServeReport, SuspendPolicy};
use tfgc::workloads::programs;
use tfgc::{
    Compiled, OverloadConfig, OverloadSlo, Request, RunOutcome, ServeConfig, ServeRun, Strategy,
    VmConfig,
};

/// Timeline events retained per profiled run (aggregates are exact anyway).
const RING: usize = 1 << 14;

/// All experiment ids, in order. E14 is the fuzz campaign's report,
/// written by `tfml fuzz --json`.
pub const EXPERIMENTS: [&str; 14] = [
    "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E15",
];

fn compile(src: &str) -> Compiled {
    Compiled::compile(src).expect("experiment program compiles")
}

fn config(s: Strategy, heap: usize, force: Option<u64>) -> VmConfig {
    let cfg = VmConfig::new(s).heap_words(heap);
    match force {
        Some(n) => cfg.force_gc_every(n),
        None => cfg,
    }
}

/// One run under `s` on a `heap`-word semispace, collecting every
/// `force` allocations when given.
fn run(c: &Compiled, s: Strategy, heap: usize, force: Option<u64>) -> RunOutcome {
    c.run_with(config(s, heap, force)).expect("experiment run")
}

/// `n / d`, or `null` when `d` is zero.
fn ratio(n: u64, d: u64) -> Json {
    if d == 0 {
        Json::Null
    } else {
        Json::Num(n as f64 / d as f64)
    }
}

fn profile_one(c: &Compiled, s: Strategy, heap: usize, force: Option<u64>) -> (RunOutcome, Json) {
    let (out, rec) = c
        .run_profiled(config(s, heap, force), RING)
        .expect("experiment profile run");
    let profile = Json::obj([
        ("strategy", Json::str(s.name())),
        ("result", Json::str(&out.result)),
        ("collections", Json::from(out.heap.collections)),
        ("words_allocated", Json::from(out.heap.words_allocated)),
        ("words_copied", Json::from(out.heap.words_copied)),
        ("peak_live_words", Json::from(out.heap.peak_live_words)),
        ("instructions", Json::from(out.mutator.instructions)),
        ("tag_ops", Json::from(out.mutator.tag_ops)),
        ("metadata_bytes", Json::from(out.metadata_bytes)),
        ("frames_visited", Json::from(out.gc.frames_visited)),
        ("slots_traced", Json::from(out.gc.slots_traced)),
        ("rt_nodes_built", Json::from(out.gc.rt_nodes_built)),
        ("rt_cache_hits", Json::from(out.gc.rt_cache_hits)),
        ("rt_cache_misses", Json::from(out.gc.rt_cache_misses)),
        ("plan_hits", Json::from(out.gc.plan_hits)),
        ("plan_misses", Json::from(out.gc.plan_misses)),
        ("plans_compiled", Json::from(out.gc.plans_compiled)),
        ("metrics", tfgc::metrics_json(&rec, &c.program)),
    ]);
    (out, profile)
}

/// One profile per strategy (in [`Strategy::ALL`] order), with the
/// outcomes they were built from.
fn profiles(c: &Compiled, heap: usize, force: Option<u64>) -> (Vec<RunOutcome>, Json) {
    let (outs, profiles): (Vec<_>, Vec<_>) = Strategy::ALL
        .iter()
        .map(|s| profile_one(c, *s, heap, force))
        .unzip();
    (outs, Json::Arr(profiles))
}

fn doc(
    id: &str,
    title: &str,
    workload: &str,
    rows: Vec<Json>,
    profiles: Json,
    extras: Vec<(&str, Json)>,
) -> Json {
    let mut pairs = vec![
        ("experiment".to_string(), Json::str(id)),
        ("title".to_string(), Json::str(title)),
        ("workload".to_string(), Json::str(workload)),
        ("rows".to_string(), Json::Arr(rows)),
    ];
    pairs.extend(extras.into_iter().map(|(k, v)| (k.to_string(), v)));
    pairs.push(("profiles".to_string(), profiles));
    Json::Obj(pairs)
}

/// The workload suite, compiled.
fn suite() -> impl Iterator<Item = (&'static str, Compiled)> {
    tfgc::workloads::suite()
        .into_iter()
        .map(|(name, src)| (name, compile(&src)))
}

fn e1_json() -> Json {
    let rows = suite()
        .map(|(name, c)| {
            let tagfree = run(&c, Strategy::Compiled, 1 << 13, None).heap;
            let tagged = run(&c, Strategy::Tagged, 1 << 13, None).heap;
            Json::obj([
                ("workload", Json::str(name)),
                ("tagfree_words", Json::from(tagfree.words_allocated)),
                ("tagged_words", Json::from(tagged.words_allocated)),
                (
                    "overhead",
                    ratio(tagged.words_allocated, tagfree.words_allocated),
                ),
                ("tagfree_peak_live", Json::from(tagfree.peak_live_words)),
                ("tagged_peak_live", Json::from(tagged.peak_live_words)),
            ])
        })
        .collect();
    let (_, churn) = suite().find(|(n, _)| *n == "churn").expect("churn");
    doc(
        "E1",
        "heap space: tag-free vs tagged header overhead",
        "churn",
        rows,
        profiles(&churn, 1 << 13, Some(300)).1,
        vec![],
    )
}

fn e2_json() -> Json {
    let loads = [
        ("fib", programs::fib(20)),
        ("sumlist", programs::sumlist(300, 80)),
        ("nqueens", programs::nqueens(6)),
    ];
    let rows = loads
        .iter()
        .map(|(name, src)| {
            let c = compile(src);
            let tagged = run(&c, Strategy::Tagged, 1 << 15, None).mutator;
            let tagfree = run(&c, Strategy::Compiled, 1 << 15, None).mutator;
            Json::obj([
                ("workload", Json::str(*name)),
                ("instructions", Json::from(tagged.instructions)),
                ("tagged_tag_ops", Json::from(tagged.tag_ops)),
                (
                    "tag_ops_per_instr",
                    ratio(tagged.tag_ops, tagged.instructions),
                ),
                ("tagfree_tag_ops", Json::from(tagfree.tag_ops)),
            ])
        })
        .collect();
    doc(
        "E2",
        "mutator tag overhead on arithmetic-heavy code",
        "fib(20)",
        rows,
        profiles(&compile(&loads[0].1), 1 << 15, None).1,
        vec![],
    )
}

fn e3_json() -> Json {
    let c = compile(&programs::live_and_dead(150, 120, 25));
    let (outs, profiles) = profiles(&c, 1 << 13, Some(200));
    let per_gc = |o: &RunOutcome| o.heap.words_copied as f64 / o.heap.collections.max(1) as f64;
    let base = per_gc(&outs[0]);
    let rows = Strategy::ALL
        .iter()
        .zip(&outs)
        .map(|(s, o)| {
            Json::obj([
                ("strategy", Json::str(s.name())),
                ("collections", Json::from(o.heap.collections)),
                ("words_copied", Json::from(o.heap.words_copied)),
                ("copied_per_gc", Json::Num(per_gc(o))),
                ("slots_traced", Json::from(o.gc.slots_traced)),
                ("vs_compiled", Json::Num(per_gc(o) / base)),
            ])
        })
        .collect();
    doc(
        "E3",
        "liveness precision: dead data dragged by imprecise collectors",
        "live_and_dead(150, 120, 25)",
        rows,
        profiles,
        vec![],
    )
}

fn e4_json() -> Json {
    let rows = suite()
        .filter_map(|(name, c)| {
            let comp = run(&c, Strategy::Compiled, 1 << 12, Some(300));
            let interp = run(&c, Strategy::Interpreted, 1 << 12, Some(300));
            (comp.gc.collections > 0).then(|| {
                Json::obj([
                    ("workload", Json::str(name)),
                    ("compiled_meta_bytes", Json::from(comp.metadata_bytes)),
                    ("interp_meta_bytes", Json::from(interp.metadata_bytes)),
                    (
                        "size_ratio",
                        ratio(interp.metadata_bytes as u64, comp.metadata_bytes as u64),
                    ),
                    (
                        "compiled_pause_ns",
                        Json::Num(comp.gc.mean_pause_nanos().round()),
                    ),
                    (
                        "interp_pause_ns",
                        Json::Num(interp.gc.mean_pause_nanos().round()),
                    ),
                    (
                        "interp_desc_bytes_read",
                        Json::from(interp.gc.desc_bytes_read),
                    ),
                ])
            })
        })
        .collect();
    doc(
        "E4",
        "compiled routines vs interpreted descriptors (§2.4)",
        "sumlist(300, 80)",
        rows,
        profiles(&compile(&programs::sumlist(300, 80)), 1 << 12, Some(300)).1,
        vec![],
    )
}

fn e5_json() -> Json {
    let mut rows = Vec::new();
    for depth in [50u64, 100, 200, 400] {
        let c = compile(&programs::poly_deep_alloc(depth as usize));
        for s in [Strategy::Compiled, Strategy::AppelPerFn] {
            let gc = run(&c, s, 1 << 16, Some(depth / 3)).gc;
            rows.push(Json::obj([
                ("depth", Json::from(depth)),
                ("strategy", Json::str(s.name())),
                ("collections", Json::from(gc.collections)),
                ("frames_visited", Json::from(gc.frames_visited)),
                ("chain_steps", Json::from(gc.chain_steps)),
                ("steps_per_frame", ratio(gc.chain_steps, gc.frames_visited)),
                ("rt_nodes_built", Json::from(gc.rt_nodes_built)),
            ]));
        }
    }
    doc(
        "E5",
        "polymorphic traversal: Goldberg forward vs Appel backward (§3)",
        "poly_deep_alloc(200)",
        rows,
        profiles(
            &compile(&programs::poly_deep_alloc(200)),
            1 << 16,
            Some(200 / 3),
        )
        .1,
        vec![],
    )
}

fn no_trace_sites(meta: &GcMeta) -> usize {
    meta.sites
        .iter()
        .filter(|m| m.routine == Some(NO_TRACE))
        .count()
}

fn e6_json() -> Json {
    // Per suite workload: the first-order GC-point analysis (§5.1)
    // against the higher-order closure-flow refinement (its "more
    // difficult" analysis), §2.4's routine sharing, and the
    // hidden-descriptor count (the 1991 scheme's completeness gap).
    let rows = suite()
        .map(|(name, c)| {
            let meta = c.metadata(Strategy::Compiled);
            let refined = c.metadata_refined(Strategy::Compiled).omitted_gc_words();
            Json::obj([
                ("workload", Json::str(name)),
                ("sites", Json::from(c.program.sites.len())),
                ("omitted_first_order", Json::from(meta.omitted_gc_words())),
                ("omitted_refined", Json::from(refined)),
                ("extra", Json::from(refined - meta.omitted_gc_words())),
                ("no_trace_sites", Json::from(no_trace_sites(&meta))),
                ("distinct_routines", Json::from(meta.distinct_routines())),
                ("metadata_bytes", Json::from(meta.metadata_bytes())),
                ("hidden_descs", Json::from(c.rtti.total_desc_fields())),
            ])
        })
        .collect();
    let c = compile(&programs::nqueens(6));
    let metadata = Strategy::ALL
        .iter()
        .map(|s| {
            let meta = c.metadata(*s);
            Json::obj([
                ("strategy", Json::str(s.name())),
                ("sites", Json::from(c.program.sites.len())),
                ("omitted_gc_words", Json::from(meta.omitted_gc_words())),
                ("no_trace_sites", Json::from(no_trace_sites(&meta))),
                ("distinct_routines", Json::from(meta.distinct_routines())),
                ("metadata_bytes", Json::from(meta.metadata_bytes())),
            ])
        })
        .collect();
    doc(
        "E6",
        "GC-point analysis, no_trace sharing, metadata footprint (§5.1, §2.4)",
        "nqueens(6)",
        rows,
        profiles(&c, 1 << 15, Some(400)).1,
        vec![("metadata", Json::Arr(metadata))],
    )
}

fn e7_json() -> Json {
    let c = compile(
        "
        fun build n = if n = 0 then [] else n :: build (n - 1) ;
        fun sum xs = case xs of [] => 0 | x :: r => x + sum r ;
        fun worker n = if n = 0 then 0
                       else (sum (build 25) + worker (n - 1)) - sum (build 25) ;
        fun spin n = if n = 0 then 0 else (let val x = n * n in spin (n - 1) end) ;
        0",
    );
    let worker = find_fn(&c.program, "worker").expect("worker");
    let spin = find_fn(&c.program, "spin").expect("spin");
    // Batch mode: one request per task, one pool slot per request.
    let tasks: Vec<Request> = [(worker, 60), (worker, 60), (spin, 4000)]
        .iter()
        .enumerate()
        .map(|(i, (f, arg))| Request::new(*f, *arg, i as u32))
        .collect();
    let serve = |cfg: VmConfig, obs: Obs| -> (ServeReport, Obs) {
        serve_requests_overload(
            &c.program,
            &tasks,
            tasks.len(),
            0,
            cfg,
            OverloadConfig::none(),
            obs,
        )
        .expect("tasks run")
    };

    // Per-policy trade-off rows (fixed strategy).
    let rows = [
        SuspendPolicy::AllocationOnly,
        SuspendPolicy::EveryCall,
        SuspendPolicy::EveryCallRgc,
    ]
    .iter()
    .map(|policy| {
        let mut cfg = VmConfig::new(Strategy::Compiled);
        cfg.heap_words = 1 << 11;
        cfg.policy = *policy;
        cfg.quantum = 48;
        let (r, _) = serve(cfg, Obs::null());
        Json::obj([
            ("policy", Json::str(policy.to_string())),
            ("suspension_events", Json::from(r.suspension_events)),
            ("suspension_checks", Json::from(r.suspension_checks)),
            (
                "total_suspension_latency",
                Json::from(r.total_suspension_latency),
            ),
            (
                "max_suspension_latency",
                Json::from(r.max_suspension_latency),
            ),
            ("instructions", Json::from(r.mutator.instructions)),
        ])
    })
    .collect();

    // Per-strategy profiles of the same task mix under the every-call
    // policy.
    let profiles = Strategy::ALL
        .iter()
        .map(|s| {
            let mut cfg = VmConfig::new(*s);
            cfg.heap_words = 1 << 14;
            cfg.quantum = 48;
            let (r, obs) = serve(cfg, Obs::ring(RING));
            let rec = obs.into_recorder().expect("ring sink");
            Json::obj([
                ("strategy", Json::str(s.name())),
                (
                    "results",
                    Json::Arr(r.outcomes.iter().map(|o| Json::str(&o.result)).collect()),
                ),
                ("collections", Json::from(r.heap.collections)),
                ("words_allocated", Json::from(r.heap.words_allocated)),
                ("words_copied", Json::from(r.heap.words_copied)),
                ("instructions", Json::from(r.mutator.instructions)),
                ("metrics", tfgc::metrics_json(&rec, &c.program)),
            ])
        })
        .collect();

    doc(
        "E7",
        "tasking suspension policies (§4)",
        "2× worker(60) + spin(4000)",
        rows,
        Json::Arr(profiles),
        vec![],
    )
}

fn e8_json() -> Json {
    let c = compile(&tfgc::workloads::paper_examples::append_mono(500));
    let meta = c.metadata(Strategy::Compiled);
    let append_fn = c
        .program
        .funs
        .iter()
        .position(|f| f.name.starts_with("append"))
        .expect("append");
    let mut sites = 0u64;
    let mut traced = 0u64;
    for s in &c.program.sites {
        if s.fn_id.0 as usize == append_fn {
            sites += 1;
            let m = &meta.sites[s.id.0 as usize];
            if m.routine.is_some() && m.routine != Some(NO_TRACE) {
                traced += 1;
            }
        }
    }
    let out = run(&c, Strategy::Compiled, 1 << 11, None);
    let row = Json::obj([
        ("call_sites", Json::from(sites)),
        ("sites_that_trace", Json::from(traced)),
        ("collections", Json::from(out.heap.collections)),
        ("result", Json::str(&out.result)),
    ]);
    doc(
        "E8",
        "§2.4 append: its activation records are never traced",
        "append_mono(500)",
        vec![row],
        profiles(&c, 1 << 13, Some(400)).1,
        vec![(
            "append",
            Json::obj([
                ("call_sites", Json::from(sites)),
                ("sites_that_trace", Json::from(traced)),
            ]),
        )],
    )
}

fn e9_json() -> Json {
    let row = |depth: u64, s: Strategy, o: &RunOutcome| {
        Json::obj([
            ("depth", Json::from(depth)),
            ("strategy", Json::str(s.name())),
            ("result", Json::str(&o.result)),
            ("collections", Json::from(o.heap.collections)),
            ("frames_visited", Json::from(o.gc.frames_visited)),
            ("rt_nodes_built", Json::from(o.gc.rt_nodes_built)),
            (
                "closures_per_frame",
                ratio(o.gc.rt_nodes_built, o.gc.frames_visited),
            ),
            ("rt_cache_hits", Json::from(o.gc.rt_cache_hits)),
            ("rt_cache_misses", Json::from(o.gc.rt_cache_misses)),
            ("pause_ns_total", Json::from(o.gc.pause_nanos)),
        ])
    };
    // Moderate depth for the per-strategy profiles; Appel's backward
    // resolution is quadratic in depth, so its row comes only from
    // them…
    let depth = 2_000u64;
    let c = compile(&programs::poly_deep_alloc(depth as usize));
    let (outs, profiles) = profiles(&c, 1 << 19, Some(depth / 2));
    let mut rows: Vec<Json> = Strategy::ALL
        .iter()
        .zip(&outs)
        .filter(|(s, _)| {
            matches!(
                s,
                Strategy::Compiled | Strategy::Interpreted | Strategy::AppelPerFn
            )
        })
        .map(|(s, o)| row(depth, *s, o))
        .collect();
    // …and deep rows under the forward strategies: ≥10⁴ frames on the
    // stack at collection time, with routine construction per
    // collection O(distinct sites).
    let deep_depth = 50_000u64;
    let dc = compile(&programs::poly_deep_alloc(deep_depth as usize));
    for s in [Strategy::Compiled, Strategy::Interpreted] {
        let out = run(&dc, s, 1 << 21, Some(deep_depth / 2));
        rows.push(row(deep_depth, s, &out));
    }
    doc(
        "E9",
        "GC-time metadata cache on deep polymorphic recursion",
        "poly_deep_alloc(2000) / poly_deep_alloc(50000)",
        rows,
        profiles,
        vec![("deep_depth", Json::from(deep_depth))],
    )
}

fn e10_json() -> Json {
    // Outcome classes of the fault-injection matrix are pure functions
    // of (seed, strategy, workload): this whole document is
    // deterministic, down to the serve-mode completed/failed counts.
    let seeds: Vec<u64> = (0..6).collect();
    let report = tfgc::torture(&seeds);
    let serve_cases = tfgc::torture_serve(&seeds[..3], false);
    let (rows, profiles): (Vec<_>, Vec<_>) = Strategy::ALL
        .iter()
        .map(|s| {
            let mine: Vec<_> = report.cases.iter().filter(|c| c.strategy == *s).collect();
            let count =
                |kind: &str| Json::from(mine.iter().filter(|c| c.outcome.kind() == kind).count());
            let matrix = vec![
                ("strategy", Json::str(s.name())),
                ("cases", Json::from(mine.len())),
                ("completed", count("completed")),
                ("structured_errors", count("error")),
                ("fail_fast", count("fail-fast")),
                ("raw_panics", count("raw-panic")),
            ];
            let serve: Vec<_> = serve_cases.iter().filter(|c| c.strategy == *s).collect();
            let served = [
                ("serve_cases", Json::from(serve.len())),
                (
                    "serve_requests_completed",
                    Json::from(serve.iter().map(|c| c.completed).sum::<u64>()),
                ),
                (
                    "serve_requests_quarantined",
                    Json::from(serve.iter().map(|c| c.failed).sum::<u64>()),
                ),
                (
                    "serve_violations",
                    Json::from(serve.iter().map(|c| c.violations.len()).sum::<usize>()),
                ),
            ];
            let mut profile = matrix.clone();
            if !serve.is_empty() {
                let block = served
                    .iter()
                    .map(|(k, v)| (k.trim_start_matches("serve_"), v.clone()));
                profile.push(("serve", Json::obj(block)));
            }
            (
                Json::obj(matrix.into_iter().chain(served)),
                Json::obj(profile),
            )
        })
        .unzip();
    doc(
        "E10",
        "graceful degradation: fault-injection matrix + serve-mode torture",
        "seeded faults over the torture workloads and the request server",
        rows,
        Json::Arr(profiles),
        vec![
            ("seeds", Json::from(seeds.len())),
            ("total_cases", Json::from(report.cases.len())),
            ("raw_panics", Json::from(report.raw_panics().len())),
        ],
    )
}

/// One service run per strategy, each under `cfg(strategy)`.
fn serve_all(cfg: impl Fn(Strategy) -> ServeConfig) -> Vec<ServeRun> {
    Strategy::ALL
        .iter()
        .map(|s| tfgc::serve(&cfg(*s)).expect("experiment serve run"))
        .collect()
}

fn e11_json() -> Json {
    // The two configurations CI serves: the single-generation heap, and
    // a quarter-semispace nursery (`tfml serve --generational`).
    let mut runs = serve_all(ServeConfig::new);
    runs.extend(serve_all(|s| {
        let mut cfg = ServeConfig::new(s);
        cfg.task.nursery_words = Some(cfg.task.heap_words / 4);
        cfg
    }));
    doc(
        "E11",
        "steady-state request service: latency, pauses, utilization",
        "400 seeded requests over 4 slots, 2Ki-word heap growable to 64Ki, without and with a 512-word nursery",
        tfgc::serve_rows(&runs),
        Json::arr(runs.iter().map(tfgc::serve_json)),
        vec![],
    )
}

fn e12_json() -> Json {
    let runs = serve_all(|s| tfgc::overload_scenario(s, 1));
    let violations = runs
        .iter()
        .flat_map(|run| tfgc::check_overload_slo(run, OverloadSlo::gate()));
    doc(
        "E12",
        "overload: deadlines, bounded admission, watermarks, circuit breaker",
        "burst: 160 requests (every 16th a runaway) over 3 slots",
        tfgc::serve_rows(&runs),
        Json::arr(runs.iter().map(tfgc::serve_json)),
        // The gate's verdict per strategy: every request resolved,
        // conservation, goodput floor, shed-rate ceiling. Empty = pass;
        // it is deterministic, so `check` fails on any violation the
        // committed file lacks.
        vec![("slo_violations", Json::arr(violations.map(Json::str)))],
    )
}

fn e13_json() -> Json {
    // Per-strategy profiles on moderate polymorphic recursion — the
    // counters show every strategy's plan traffic, including the tagged
    // baseline's zeros.
    let depth = 2_000u64;
    let c = compile(&programs::poly_deep_alloc(depth as usize));

    // Engine stress rows: a deep polymorphic stack (many frames, few
    // shapes) and a wide list spine (many objects, one shape), each
    // under Compiled (trace plans) and Interpreted (per-object
    // descriptor walk). Pause totals accumulate per engine so the
    // document can carry a regression verdict for CI.
    let mut plan_pause = 0u64;
    let mut walk_pause = 0u64;
    let mut per_object = true;
    let mut stress_row = |c: &Compiled, label: &str, s: Strategy, heap: usize, force: u64| {
        let out = run(c, s, heap, Some(force));
        if s == Strategy::Interpreted {
            walk_pause += out.gc.pause_nanos;
            per_object &= out.gc.desc_bytes_read >= out.heap.objects_copied;
        } else {
            plan_pause += out.gc.pause_nanos;
        }
        Json::obj([
            ("workload", Json::str(label)),
            ("strategy", Json::str(s.name())),
            ("result", Json::str(&out.result)),
            ("collections", Json::from(out.heap.collections)),
            ("words_copied", Json::from(out.heap.words_copied)),
            ("objects_copied", Json::from(out.heap.objects_copied)),
            ("desc_bytes_read", Json::from(out.gc.desc_bytes_read)),
            ("plan_hits", Json::from(out.gc.plan_hits)),
            ("plan_misses", Json::from(out.gc.plan_misses)),
            ("plans_compiled", Json::from(out.gc.plans_compiled)),
            ("pause_ns_total", Json::from(out.gc.pause_nanos)),
        ])
    };
    let deep_depth = 50_000u64;
    let dc = compile(&programs::poly_deep_alloc(deep_depth as usize));
    // The wide spine lives in a stack slot, so every collection after
    // it is built recopies it through the slot's tracing engine.
    let wc = compile(&programs::live_and_dead(3_000, 40, 50));
    let mut rows = Vec::new();
    for s in [Strategy::Compiled, Strategy::Interpreted] {
        rows.push(stress_row(&dc, "deep", s, 1 << 21, deep_depth / 2));
        rows.push(stress_row(&wc, "wide", s, 1 << 17, 500));
    }
    doc(
        "E13",
        "trace plans (compiled) vs per-object descriptor walks (interpreted) on deep and wide heaps",
        "poly_deep_alloc(2000) / poly_deep_alloc(50000) / live_and_dead(3000, 40, 50)",
        rows,
        profiles(&c, 1 << 19, Some(depth / 2)).1,
        vec![
            // True when the plan engine's accumulated stress pauses
            // exceed the descriptor walk's by more than 1.5× — the CI
            // gate greps a fresh export for
            // `"plan_pause_regression": false`. A generous margin:
            // single-run pause totals are noisy. It is a verdict on
            // one wall-clock sample per row, so it is one of
            // `WALL_CLOCK_KEYS` and `check` does not compare it.
            (
                "plan_pause_regression",
                Json::Bool(plan_pause * 2 > walk_pause * 3),
            ),
            // True when every Interpreted stress row parsed at least one
            // descriptor byte per object it copied: the interpreted
            // method decodes per object (§2.4), it does not lower once.
            ("interpreted_walks_per_object", Json::Bool(per_object)),
        ],
    )
}

/// The E15 service: a large persistent table (many short spines so no
/// single global init recursion gets deep) plus an allocation-churn
/// handler. Full flips recopy the whole tenured table every time; minor
/// collections stop at the tenured boundary and touch only the nursery
/// — that asymmetry is the entire point of the generational tier.
fn e15_service_src(tables: usize, table_len: usize) -> String {
    let mut s = String::from(
        "fun build n = if n = 0 then [] else n :: build (n - 1) ;\n\
         fun sum xs = case xs of [] => 0 | x :: r => x + sum r ;\n",
    );
    for i in 0..tables {
        s.push_str(&format!("val t{i} = build {table_len} ;\n"));
    }
    s.push_str("fun req_churn n = sum (build n) ;\n");
    s.push_str("fun req_heads n = n");
    for i in 0..tables {
        s.push_str(&format!(" + (case t{i} of [] => 0 | x :: _ => x)"));
    }
    s.push_str(" ;\n0");
    s
}

fn e15_json() -> Json {
    // Generational serve comparison: the same seeded traffic drained
    // with the classic single-generation semispace (every pause a full
    // flip over ~12Ki live tenured words) and with a 1Ki-word
    // bump-pointer nursery (most pauses minor: root set + nursery
    // survivors only, tracing stops at every tenured object because
    // immutability forbids tenured-to-nursery edges). Rows cover both
    // forward tracing methods; responses must be identical either way —
    // the generational tier changes *when* objects move, never what the
    // mutator computes.
    let c = compile(&e15_service_src(60, 100));
    let mix = [
        tfgc::MixEntry {
            name: "churn",
            entry: "req_churn",
            weight: 4,
            lo: 8,
            hi: 40,
        },
        tfgc::MixEntry {
            name: "heads",
            entry: "req_heads",
            weight: 1,
            lo: 1,
            hi: 8,
        },
    ];
    let traffic = tfgc::serve::build_traffic(&c.program, 1, 400, &mix);
    let run = |s: Strategy, nursery: Option<usize>| {
        let mut tc = VmConfig::new(s);
        tc.heap_words = 1 << 14;
        tc.heap_max_words = Some(1 << 14);
        tc.policy = SuspendPolicy::EveryCall;
        tc.quantum = 64;
        tc.nursery_words = nursery;
        let (report, obs) = serve_requests_overload(
            &c.program,
            &traffic,
            4,
            32,
            tc,
            OverloadConfig::none(),
            Obs::ring(RING),
        )
        .expect("E15 serve run");
        let rec = obs.into_recorder().expect("ring sink attached");
        (report, rec)
    };
    let mut rows = Vec::new();
    let mut regression = false;
    for s in [Strategy::Compiled, Strategy::Interpreted] {
        let (base_report, base_rec) = run(s, None);
        let (g, gen_rec) = run(s, Some(1 << 10));
        // Medians, not tails: the baseline flips only a few times, so
        // any high quantile of its pauses is just their maximum. The
        // sample counts are `baseline_collections` and
        // `minor_collections`.
        let full_p50 = base_rec.pause_hist().p50();
        let minor_p50 = gen_rec.pause_hist_of(CollectionKind::Minor).p50();
        regression |= minor_p50 >= full_p50;
        rows.push(Json::obj([
            ("strategy", Json::str(s.name())),
            (
                "responses_identical",
                Json::Bool(base_report.outcomes == g.outcomes),
            ),
            (
                "baseline_collections",
                Json::from(base_report.heap.collections),
            ),
            ("baseline_full_pause_p50_ns", Json::from(full_p50)),
            ("minor_collections", Json::from(g.gc.minor_collections)),
            ("major_collections", Json::from(g.gc.major_collections)),
            ("promoted_words", Json::from(g.gc.promoted_words)),
            ("died_young_words", Json::from(g.gc.died_young_words)),
            ("minor_pause_p50_ns", Json::from(minor_p50)),
            (
                "major_pause_p99_ns",
                Json::from(gen_rec.pause_hist_of(CollectionKind::Major).p99()),
            ),
            (
                "peak_nursery_words",
                Json::from(g.peak_nursery_words_sampled),
            ),
        ]));
    }

    // Per-handler-kind survival: drain single-kind traffic through a
    // generational heap and measure how much of each handler's nursery
    // allocation is promoted versus dying young. The weak generational
    // hypothesis in miniature: churn-style handlers should die young,
    // table scans barely allocate, tree builds tenure their spines.
    let c = compile(tfgc::SERVICE_SRC);
    let survival = tfgc::serve::MIX
        .iter()
        .map(|m| {
            let traffic = tfgc::serve::build_traffic(&c.program, 1, 120, std::slice::from_ref(m));
            let mut tc = VmConfig::new(Strategy::Compiled);
            tc.heap_words = 1 << 11;
            tc.heap_max_words = Some(1 << 16);
            tc.policy = SuspendPolicy::EveryCall;
            tc.quantum = 64;
            tc.nursery_words = Some(1 << 9);
            let (r, _) = serve_requests_overload(
                &c.program,
                &traffic,
                4,
                0,
                tc,
                OverloadConfig::none(),
                Obs::null(),
            )
            .expect("single-kind survival run");
            let promoted = r.gc.promoted_words;
            let died = r.gc.died_young_words;
            Json::obj([
                ("kind", Json::str(m.name)),
                ("minor_collections", Json::from(r.gc.minor_collections)),
                ("promoted_words", Json::from(promoted)),
                ("died_young_words", Json::from(died)),
                (
                    "survival_rate",
                    Json::Num(promoted as f64 / (promoted + died).max(1) as f64),
                ),
            ])
        })
        .collect();
    doc(
        "E15",
        "generational collection: minor pauses vs full semispace flips",
        "seeded serve traffic; single-kind mixes for survival rates",
        rows.clone(),
        Json::Arr(rows),
        vec![
            ("survival", Json::Arr(survival)),
            // True when any strategy's median minor pause fails to land
            // strictly below its median full-flip pause — the CI gate
            // greps a fresh export for
            // `"minor_pause_regression": false`. Minor pauses touch a
            // quarter-semispace nursery plus the root set, so the
            // margin over a full flip of the live heap is wide enough
            // to hold through single-run noise. It is a verdict on one
            // run's wall-clock medians, so it is one of
            // `WALL_CLOCK_KEYS` and `check` does not compare it.
            ("minor_pause_regression", Json::Bool(regression)),
        ],
    )
}

/// The JSON document of one experiment.
///
/// # Panics
///
/// Panics on an unknown id or a failing experiment run (the suite is
/// fixed and correct by construction).
pub fn bench_json(id: &str) -> Json {
    match id {
        "E1" => e1_json(),
        "E2" => e2_json(),
        "E3" => e3_json(),
        "E4" => e4_json(),
        "E5" => e5_json(),
        "E6" => e6_json(),
        "E7" => e7_json(),
        "E8" => e8_json(),
        "E9" => e9_json(),
        "E10" => e10_json(),
        "E11" => e11_json(),
        "E12" => e12_json(),
        "E13" => e13_json(),
        "E15" => e15_json(),
        other => panic!("unknown experiment `{other}`"),
    }
}

/// Writes one `BENCH_E<n>.json` per [`EXPERIMENTS`] entry into `dir`,
/// returning the paths written.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_all(dir: &Path) -> io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut paths = Vec::new();
    for id in EXPERIMENTS {
        let path = dir.join(format!("BENCH_{id}.json"));
        std::fs::write(&path, bench_json(id).to_json_pretty())?;
        paths.push(path);
    }
    Ok(paths)
}

/// Reads and parses the committed document `dir/BENCH_<id>.json`.
///
/// # Errors
///
/// Names the file, and why it could not be read or parsed.
pub fn read_doc(dir: &Path, id: &str) -> Result<Json, String> {
    let path = dir.join(format!("BENCH_{id}.json"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    tfgc::obs::json::parse(&text).map_err(|e| format!("{}: not JSON: {e}", path.display()))
}

/// The path of the first place two documents differ — object keys and
/// array indices from the root, like `profiles[2].words_copied` — or
/// `None` when they are equal.
pub fn first_difference(a: &Json, b: &Json) -> Option<String> {
    match (a, b) {
        (Json::Obj(xs), Json::Obj(ys)) => {
            for (i, (k, x)) in xs.iter().enumerate() {
                match ys.get(i) {
                    Some((yk, y)) if yk == k => {
                        if let Some(rest) = first_difference(x, y) {
                            return Some(join_path(k, &rest));
                        }
                    }
                    _ => return Some(k.clone()),
                }
            }
            ys.get(xs.len()).map(|(k, _)| k.clone())
        }
        (Json::Arr(xs), Json::Arr(ys)) => {
            for (i, (x, y)) in xs.iter().zip(ys).enumerate() {
                if let Some(rest) = first_difference(x, y) {
                    return Some(join_path(&format!("[{i}]"), &rest));
                }
            }
            (xs.len() != ys.len()).then(|| format!("[{}]", xs.len().min(ys.len())))
        }
        _ => (a != b).then(String::new),
    }
}

fn join_path(head: &str, rest: &str) -> String {
    match rest.chars().next() {
        None => head.to_string(),
        Some('[') => format!("{head}{rest}"),
        Some(_) => format!("{head}.{rest}"),
    }
}

/// Checks the committed `BENCH_<id>.json` in `dir` against a fresh run of
/// the experiment: the [`deterministic_view`] of both must be equal. The
/// fresh document passes through the same JSON text form as the file, so
/// only a change in behaviour can make them differ.
///
/// # Errors
///
/// Names the file, and either why it could not be read or the key path
/// of the first difference.
pub fn check(dir: &Path, id: &str) -> Result<(), String> {
    let committed = read_doc(dir, id)?;
    let fresh = tfgc::obs::json::parse(&deterministic_view(&bench_json(id)).to_json_pretty())
        .expect("the writer emits JSON the parser reads");
    match first_difference(&deterministic_view(&committed), &fresh) {
        None => Ok(()),
        Some(at) => Err(format!(
            "{}: deterministic output differs from a fresh run at `{}`",
            dir.join(format!("BENCH_{id}.json")).display(),
            if at.is_empty() { "(root)" } else { &at }
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e3_document_has_per_strategy_histograms_and_sites() {
        let d = bench_json("E3");
        let text = d.to_json_pretty();
        let back = tfgc::obs::json::parse(&text).expect("well-formed");
        let profiles = back.get("profiles").unwrap().as_arr().unwrap();
        assert_eq!(profiles.len(), Strategy::ALL.len());
        for p in profiles {
            let m = p.get("metrics").unwrap();
            let pause = m.get("pause_ns").unwrap();
            for q in ["p50", "p90", "p99", "max"] {
                assert!(pause.get(q).is_some(), "missing {q}");
            }
            let sites = m.get("sites").unwrap().as_arr().unwrap();
            assert!(!sites.is_empty(), "per-site allocation counts present");
            assert!(sites[0].get("allocs").is_some());
            assert!(sites[0].get("label").is_some());
        }
        // Forced collections mean real pauses were histogrammed.
        let pause0 = profiles[0].get("metrics").unwrap().get("pause_ns").unwrap();
        assert!(pause0.get("count").unwrap().as_f64().unwrap() > 0.0);
    }

    #[test]
    fn deterministic_view_diffs_clean_across_runs() {
        for id in ["E1", "E4"] {
            let a = deterministic_view(&bench_json(id)).to_json_pretty();
            let b = deterministic_view(&bench_json(id)).to_json_pretty();
            assert_eq!(a, b, "{id}: projection must be byte-identical across runs");
            // The projection actually removed the wall-clock subtrees…
            assert!(!a.contains("\"pause_ns\""), "{id}");
            // …and kept the deterministic ones.
            assert!(a.contains("\"words_allocated\""), "{id}");
        }
        // E4's rows carry a wall-clock pause column per engine; the
        // projection drops both and keeps the metadata sizes.
        let first_row = |d: &Json| d.get("rows").unwrap().as_arr().unwrap()[0].clone();
        let full = bench_json("E4");
        assert!(first_row(&full).get("compiled_pause_ns").is_some());
        let det = first_row(&deterministic_view(&full));
        assert!(det.get("compiled_pause_ns").is_none());
        assert!(det.get("interp_pause_ns").is_none());
        assert!(det.get("compiled_meta_bytes").is_some());
    }

    #[test]
    fn e13_compares_plans_against_descriptor_walks() {
        let d = bench_json("E13");
        let profiles = d.get("profiles").unwrap().as_arr().unwrap();
        assert_eq!(profiles.len(), Strategy::ALL.len());
        for p in profiles {
            let s = p.get("strategy").unwrap();
            let compiled = p.get("plans_compiled").and_then(Json::as_f64).unwrap();
            if matches!(s, Json::Str(name) if name == "tagged") {
                assert_eq!(compiled, 0.0, "the tagged baseline lowers no plans");
            } else {
                assert!(compiled > 0.0, "plans must actually be lowered: {s:?}");
            }
        }
        let rows = d.get("rows").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 4, "2 workloads × 2 strategies");
        for row in rows {
            let num = |k: &str| row.get(k).and_then(Json::as_f64).unwrap();
            if matches!(row.get("strategy"), Some(Json::Str(s)) if s == "interpreted") {
                assert!(
                    num("desc_bytes_read") >= num("objects_copied"),
                    "the descriptor walk parses per object: {row:?}"
                );
            } else {
                assert_eq!(num("desc_bytes_read"), 0.0, "plans parse no descriptors");
                assert!(num("plans_compiled") > 0.0);
                assert!(
                    num("plan_hits") > num("plans_compiled"),
                    "plans are reused across collections"
                );
            }
        }
        assert!(d.get("plan_pause_regression").is_some());
        assert_eq!(
            d.get("interpreted_walks_per_object"),
            Some(&Json::Bool(true))
        );
        // Everything but the pause rows and the verdict on them is
        // deterministic.
        let a = deterministic_view(&bench_json("E13"));
        let b = deterministic_view(&d);
        let a = a.to_json_pretty();
        assert!(!a.contains("pause_ns_total"));
        assert!(!a.contains("plan_pause_regression"));
        assert_eq!(a, b.to_json_pretty());
    }

    #[test]
    fn e15_gates_minor_pauses_below_full_flips() {
        let d = bench_json("E15");
        let profiles = d.get("profiles").unwrap().as_arr().unwrap();
        assert_eq!(profiles.len(), 2, "compiled and interpreted rows");
        for p in profiles {
            let num = |k: &str| p.get(k).and_then(Json::as_f64).unwrap();
            assert_eq!(
                p.get("responses_identical"),
                Some(&Json::Bool(true)),
                "generational collection must not change any response: {p:?}"
            );
            assert!(num("baseline_collections") > 0.0, "the baseline must flip");
            assert!(
                num("minor_collections") > 0.0,
                "the default serve heap must trigger minors"
            );
            assert!(
                num("promoted_words") > 0.0,
                "the persistent table must tenure"
            );
            assert!(
                num("died_young_words") > 0.0,
                "request churn must die young"
            );
        }
        assert_eq!(
            d.get("minor_pause_regression"),
            Some(&Json::Bool(false)),
            "the minor median must land strictly below the full-flip median"
        );
        assert!(
            deterministic_view(&d)
                .get("minor_pause_regression")
                .is_none(),
            "a verdict on timed medians is not compared by `check`"
        );
        let survival = d.get("survival").unwrap().as_arr().unwrap();
        assert_eq!(survival.len(), 5, "one row per traffic class");
        for row in survival {
            let rate = row.get("survival_rate").and_then(Json::as_f64).unwrap();
            assert!((0.0..=1.0).contains(&rate), "{row:?}");
        }
        // Survival must differentiate the classes: churn dies young
        // far more than it tenures.
        let churn = survival
            .iter()
            .find(|r| matches!(r.get("kind"), Some(Json::Str(s)) if s == "churn"))
            .unwrap();
        assert!(
            churn.get("survival_rate").and_then(Json::as_f64).unwrap() < 0.5,
            "churn allocations are short-lived by construction: {churn:?}"
        );
        // Everything but the pause quantiles is deterministic.
        let a = deterministic_view(&bench_json("E15")).to_json_pretty();
        assert!(!a.contains("pause_p50_ns") && !a.contains("pause_p99_ns"));
        assert_eq!(a, deterministic_view(&d).to_json_pretty());
    }

    #[test]
    fn first_difference_names_the_key_path() {
        let doc = |n: f64, extra: bool| {
            let mut row = vec![("objects_copied", Json::Num(n))];
            if extra {
                row.push(("extra", Json::Null));
            }
            Json::obj([
                ("id", Json::str("E0")),
                ("rows", Json::arr([Json::obj([]), Json::obj(row)])),
            ])
        };
        assert_eq!(first_difference(&doc(3.0, false), &doc(3.0, false)), None);
        assert_eq!(
            first_difference(&doc(3.0, false), &doc(4.0, false)).as_deref(),
            Some("rows[1].objects_copied")
        );
        assert_eq!(
            first_difference(&doc(3.0, false), &doc(3.0, true)).as_deref(),
            Some("rows[1].extra")
        );
        assert_eq!(
            first_difference(&Json::arr([]), &Json::arr([Json::Null])).as_deref(),
            Some("[0]")
        );
        assert_eq!(
            first_difference(&Json::Num(1.0), &Json::Null).as_deref(),
            Some("")
        );
    }

    #[test]
    fn check_accepts_a_fresh_export_and_names_a_stale_one() {
        let dir = std::env::temp_dir().join(format!("tfgc-check-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // E10 is one of the quickest experiments. The full document is
        // written, as the committed baselines are.
        std::fs::write(
            dir.join("BENCH_E10.json"),
            bench_json("E10").to_json_pretty(),
        )
        .unwrap();
        assert_eq!(check(&dir, "E10"), Ok(()));
        let stale = bench_json("E10").to_json_pretty().replacen(
            "\"raw_panics\": 0",
            "\"raw_panics\": 1",
            1,
        );
        std::fs::write(dir.join("BENCH_E10.json"), stale).unwrap();
        let err = check(&dir, "E10").unwrap_err();
        assert!(
            err.contains("BENCH_E10.json") && err.contains("raw_panics"),
            "{err}"
        );
        let err = check(&dir, "E1").unwrap_err();
        assert!(
            err.contains("BENCH_E1.json"),
            "a missing file is named: {err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn serve_experiments_replay_and_conserve_every_request() {
        let rows = |d: &Json| d.get("rows").unwrap().as_arr().unwrap().to_vec();
        let num = |row: &Json, k: &str| row.get(k).and_then(Json::as_f64).unwrap();
        let (e11, e12) = (bench_json("E11"), bench_json("E12"));
        for (id, d) in [("E11", &e11), ("E12", &e12)] {
            let projection = deterministic_view(d).to_json_pretty();
            assert_eq!(
                projection,
                deterministic_view(&bench_json(id)).to_json_pretty(),
                "{id}: projection must be byte-identical across runs"
            );
            assert!(!projection.contains("\"timing\""), "{id}");
            assert!(!projection.contains("\"latency_p99_ns\""), "{id}");
            for p in d.get("profiles").unwrap().as_arr().unwrap() {
                assert_eq!(
                    p.get("overload").and_then(|o| o.get("conservation")),
                    Some(&Json::Bool(true)),
                    "{id}: {p:?}"
                );
            }
        }
        // E11: every request completes under both configurations, and
        // only the nursery rows run minors.
        let e11 = rows(&e11);
        assert_eq!(e11.len(), 2 * Strategy::ALL.len());
        for row in &e11 {
            assert_eq!(num(row, "completed"), 400.0, "{row:?}");
            let minors = num(row, "minor_collections");
            match row.get("nursery_words") {
                Some(Json::Null) => assert_eq!(minors, 0.0, "{row:?}"),
                _ => assert!(minors > 0.0, "a nursery row must run minors: {row:?}"),
            }
        }
        // E12: the gate passes, and the mechanisms it gates actually bit.
        assert_eq!(e12.get("slo_violations"), Some(&Json::arr([])));
        let e12 = rows(&e12);
        assert_eq!(e12.len(), Strategy::ALL.len());
        assert!(e12.iter().all(|r| num(r, "shed") > 0.0), "{e12:?}");
        assert!(e12.iter().all(|r| num(r, "breaker_trips") > 0.0), "{e12:?}");
    }

    #[test]
    fn check_names_a_stale_e12_breaker_count() {
        let dir = std::env::temp_dir().join(format!("tfgc-check-e12-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let text = bench_json("E12").to_json_pretty();
        let key = "\"breaker_trips\": ";
        let at = text.find(key).unwrap() + key.len();
        // Prefixing a digit makes the first count stale.
        let stale = format!("{}9{}", &text[..at], &text[at..]);
        std::fs::write(dir.join("BENCH_E12.json"), stale).unwrap();
        let err = check(&dir, "E12").unwrap_err();
        assert!(
            err.contains("BENCH_E12.json") && err.contains("breaker_trips"),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn e10_reports_a_clean_fault_matrix() {
        let d = bench_json("E10");
        assert_eq!(d.get("raw_panics").and_then(Json::as_f64), Some(0.0));
        let profiles = d.get("profiles").unwrap().as_arr().unwrap();
        assert_eq!(profiles.len(), Strategy::ALL.len());
        for p in profiles {
            let cases = p.get("cases").and_then(Json::as_f64).unwrap();
            let completed = p.get("completed").and_then(Json::as_f64).unwrap();
            assert!(cases > 0.0);
            assert!(completed > 0.0, "some cases must absorb their fault");
            assert_eq!(p.get("raw_panics").and_then(Json::as_f64), Some(0.0));
        }
        // The serve block rides on the two serve-torture strategies.
        let with_serve = profiles.iter().filter(|p| p.get("serve").is_some()).count();
        assert_eq!(with_serve, 2);
        // Deterministic end to end: E10 carries no wall-clock keys at all.
        let a = bench_json("E10").to_json_pretty();
        assert_eq!(a, d.to_json_pretty());
    }
}
