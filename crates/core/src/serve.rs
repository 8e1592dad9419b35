//! `tfml serve` — a request-server harness over the cooperative task
//! pool.
//!
//! The paper's experiments are batch runs: one program, one heap, one
//! exit. A server is the opposite regime — a persistent heap serving an
//! open-ended stream of small computations — and it is the regime where
//! pause behavior (E6) and suspension latency (E7) actually bite. This
//! module drives a deterministic, seeded traffic mix of handler
//! invocations through [`tfgc_tasking::serve_requests_overload`] against one
//! shared heap per strategy and reports steady-state telemetry:
//!
//! * per-request latency and GC pause histograms (log₂ buckets),
//! * windowed rates (allocations, collections, completions per window),
//! * minimum-mutator-utilization figures derived from pause intervals,
//!   and
//! * the engine's deterministic counts: responses, sheds by reason,
//!   deadline breaches, breaker transitions, and heap-occupancy and
//!   backlog peaks sampled at deterministic scheduler points.
//!
//! [`serve_json`] is one run's profile and [`serve_rows`] its table
//! row; E11 and E12 (`BENCH_E11.json`, `BENCH_E12.json`) are built from
//! them. Every count comes from the engine's [`ServeReport`] and every
//! wall-clock value from the [`ServeRecorder`] sink, under the shared
//! [`tfgc_obs::WALL_CLOCK_KEYS`]; the report's part is a pure function
//! of the config and seed, and [`tfgc_obs::deterministic_view`] keeps
//! exactly that part. [`check_slo`] is the gate: p99 request latency
//! and p99 pause under fixed thresholds, zero failed requests.
//!
//! Overload is a first-class regime, not a failure: [`ServeConfig`]
//! embeds an [`OverloadConfig`] (deadline/fuel budgets, bounded-queue
//! admission with backpressure, heap-pressure watermarks, per-kind
//! circuit breakers) and `runaway_every` injects handlers that never
//! terminate on their own — the budgets must catch them. The
//! degradation contract is checked two ways: [`check_overload_slo`]
//! gates the canonical burst scenario ([`overload_scenario`]) on
//! conservation, goodput, and shed rate, and [`torture_overload`] races
//! the mechanisms through seeded burst / deadline-storm / runaway-hog /
//! watermark-flap cases that must never raw-panic.

use crate::pipeline::Compiled;
use tfgc_gc::Strategy;
use tfgc_obs::{Json, Obs, ServeRecorder};
use tfgc_tasking::{
    find_fn, serve_requests_overload, AdmissionPolicy, OverloadConfig, Request, ServeReport,
    TaskConfig,
};
use tfgc_vm::{capture_panics_mut, with_quiet_panics, FaultPlan, VmError};
use tfgc_workloads::{fnv1a64, SmallRng};

/// The service program: a persistent global table (the shared heap
/// state every request sees) plus one handler per traffic class. Each
/// handler takes exactly one int argument — the request engine's
/// calling convention.
pub const SERVICE_SRC: &str = "
    datatype 'a tree = Leaf | Node of 'a tree * 'a * 'a tree ;
    fun build n = if n = 0 then [] else n :: build (n - 1) ;
    fun sum xs = case xs of [] => 0 | x :: r => x + sum r ;
    fun map f xs = case xs of [] => [] | x :: r => f x :: map f r ;
    fun insert t x = case t of
        Leaf => Node (Leaf, x, Leaf)
      | Node (l, v, r) => if x < v then Node (insert l x, v, r)
                          else Node (l, v, insert r x) ;
    fun tbuild lo hi t = if lo > hi then t else tbuild (lo + 1) hi (insert t ((lo * 37) mod hi)) ;
    fun tsize t = case t of Leaf => 0 | Node (l, _, r) => 1 + tsize l + tsize r ;
    fun spin n = if n = 0 then 0 else (let val x = n * n in spin (n - 1) end) ;
    val table = build 48 ;
    fun req_churn n = sum (build n) ;
    fun req_scan n = sum table + n ;
    fun req_tree n = tsize (tbuild 1 n Leaf) ;
    fun req_close n = sum (map (fn x => x * 2) (build n)) ;
    fun req_spin n = (spin (n * 4); n) ;
    fun req_hog n = sum (build (n * 32)) ;
    fun req_runaway n = if n = 0 then 0 else req_runaway (n + 1) ;
    0";

/// One traffic class in the service mix.
#[derive(Debug, Clone, Copy)]
pub struct MixEntry {
    /// Class name (JSON key in the exported mix counts).
    pub name: &'static str,
    /// Handler function in [`SERVICE_SRC`].
    pub entry: &'static str,
    /// Relative weight in the seeded draw.
    pub weight: u64,
    /// Argument range `[lo, hi)` drawn per request.
    pub lo: i64,
    pub hi: i64,
}

/// The default traffic mix: allocation churn dominates, with steady
/// shared-table scans, tree builds, closure pipelines, and a
/// low-allocation compute class that stresses suspension latency.
pub const MIX: [MixEntry; 5] = [
    MixEntry {
        name: "churn",
        entry: "req_churn",
        weight: 4,
        lo: 8,
        hi: 40,
    },
    MixEntry {
        name: "scan",
        entry: "req_scan",
        weight: 3,
        lo: 1,
        hi: 100,
    },
    MixEntry {
        name: "tree",
        entry: "req_tree",
        weight: 2,
        lo: 4,
        hi: 16,
    },
    MixEntry {
        name: "close",
        entry: "req_close",
        weight: 2,
        lo: 4,
        hi: 24,
    },
    MixEntry {
        name: "spin",
        entry: "req_spin",
        weight: 1,
        lo: 16,
        hi: 64,
    },
];

/// Raw events retained per run (what `tfml serve --trace` writes; the
/// aggregates are exact regardless).
const RING: usize = 1 << 14;

/// Service-run configuration (`tfml serve` flags map 1:1 onto this).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The shared heap and scheduler every request runs on: strategy,
    /// heap size and growth ceiling, quantum, fault plan, nursery.
    pub task: TaskConfig,
    /// Total requests to drain.
    pub requests: usize,
    /// Concurrent pool slots.
    pub pool: usize,
    /// Traffic-mix seed (same seed → same request sequence).
    pub seed: u64,
    /// Steady-state metrics window, in milliseconds of wall clock.
    pub window_ms: u64,
    /// Occupancy and backlog sample period, in scheduling quanta (0 =
    /// off); the report keeps the sampled peaks.
    pub sample_every: u64,
    /// Replace every `hog_every`-th request with a `req_hog` whose live
    /// set dwarfs a torture-sized heap (0 = no hogs). Hogs report as
    /// kind [`MIX`]`.len()` ("hog" in the exported mix counts).
    pub hog_every: usize,
    /// Replace every `runaway_every`-th request with a `req_runaway`
    /// that never terminates on its own (0 = no runaways). Pair it with
    /// a deadline or fuel budget in [`ServeConfig::overload`] — without
    /// one the run only ends at the whole-machine step limit. Runaways
    /// report as kind [`MIX`]`.len() + 1` ("runaway" in the exported mix
    /// counts).
    pub runaway_every: usize,
    /// Overload management: budgets, bounded-queue admission,
    /// watermarks, circuit breakers, drain. [`OverloadConfig::none`]
    /// reproduces the plain engine exactly. The jitter seed is
    /// overridden with [`ServeConfig::seed`] at run time so one seed
    /// determines the whole run.
    pub overload: OverloadConfig,
}

impl ServeConfig {
    /// Defaults: 400 requests over 4 slots, seed 1, 2Ki-word semispaces
    /// growable to 64Ki words (tight enough that steady-state traffic
    /// collects repeatedly — a server that never collects measures
    /// nothing), and otherwise [`TaskConfig::new`]'s every-call
    /// suspension and 64-instruction quantum; 10 ms windows, occupancy
    /// sampled every 32 quanta.
    pub fn new(strategy: Strategy) -> ServeConfig {
        let mut task = TaskConfig::new(strategy);
        task.heap_words = 1 << 11;
        task.heap_max_words = Some(1 << 16);
        ServeConfig {
            task,
            requests: 400,
            pool: 4,
            seed: 1,
            window_ms: 10,
            sample_every: 32,
            hog_every: 0,
            runaway_every: 0,
            overload: OverloadConfig::none(),
        }
    }
}

/// Draws `n` requests from `mix` with the seeded generator: class by
/// weight, argument uniform in the class range. `kind` is the mix
/// index. Pure function of `(seed, n, mix)`.
pub fn build_traffic(
    prog: &tfgc_ir::IrProgram,
    seed: u64,
    n: usize,
    mix: &[MixEntry],
) -> Vec<Request> {
    let entries: Vec<_> = mix
        .iter()
        .map(|m| find_fn(prog, m.entry).unwrap_or_else(|| panic!("no handler {}", m.entry)))
        .collect();
    let total: u64 = mix.iter().map(|m| m.weight).sum();
    assert!(total > 0, "traffic mix needs at least one positive weight");
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let mut draw = rng.gen_range(0, total as i64) as u64;
            let mut k = 0;
            while draw >= mix[k].weight {
                draw -= mix[k].weight;
                k += 1;
            }
            Request::new(entries[k], rng.gen_range(mix[k].lo, mix[k].hi), k as u32)
        })
        .collect()
}

/// One completed service run: the engine's report (every count), the
/// serve-mode recorder (every wall-clock value), and the per-class
/// request counts of the generated traffic.
#[derive(Debug)]
pub struct ServeRun {
    pub config: ServeConfig,
    pub report: ServeReport,
    pub rec: ServeRecorder,
    /// Requests drawn per mix class (index = kind).
    pub mix_counts: Vec<u64>,
}

/// Compiles [`SERVICE_SRC`], draws the seeded traffic, and drains it
/// through the request engine with a [`ServeRecorder`] attached.
///
/// # Errors
///
/// Compile errors and whole-machine VM errors render as strings.
pub fn serve(cfg: &ServeConfig) -> Result<ServeRun, String> {
    let c = Compiled::compile(SERVICE_SRC).map_err(|e| format!("service program: {e}"))?;
    let mut traffic = build_traffic(&c.program, cfg.seed, cfg.requests, &MIX);
    if cfg.hog_every > 0 {
        let hog = find_fn(&c.program, "req_hog").expect("service program has req_hog");
        for (i, r) in traffic.iter_mut().enumerate() {
            if (i + 1) % cfg.hog_every == 0 {
                // ~64-96 * 32 live cons cells: far past a torture-sized
                // heap ceiling, deterministic per (seed, position).
                let arg = 64 + ((cfg.seed + i as u64) % 32) as i64;
                *r = Request::new(hog, arg, MIX.len() as u32);
            }
        }
    }
    if cfg.runaway_every > 0 {
        let runaway = find_fn(&c.program, "req_runaway").expect("service program has req_runaway");
        for (i, r) in traffic.iter_mut().enumerate() {
            if (i + 1) % cfg.runaway_every == 0 {
                *r = Request::new(runaway, 1, MIX.len() as u32 + 1);
            }
        }
    }
    let mut mix_counts = vec![0u64; MIX.len() + 2];
    for r in &traffic {
        mix_counts[r.kind as usize] += 1;
    }
    let obs = Obs::serve(RING, cfg.window_ms.max(1) * 1_000_000);
    let mut overload = cfg.overload;
    overload.seed = cfg.seed;
    let (report, obs) = serve_requests_overload(
        &c.program,
        &traffic,
        cfg.pool,
        cfg.sample_every,
        cfg.task.clone(),
        overload,
        obs,
    )
    .map_err(|e| format!("{} serve: {e}", cfg.task.strategy))?;
    let rec = obs.into_serve_recorder().expect("serve sink attached");
    Ok(ServeRun {
        config: cfg.clone(),
        report,
        rec,
        mix_counts,
    })
}

/// FNV-1a over each outcome's kind (four little-endian bytes) and
/// rendered result (`<error: …>` or `<shed: …>` when it did not
/// complete), each closed by a zero byte: one order-sensitive digest
/// standing for the full response stream.
fn results_digest(report: &ServeReport) -> u64 {
    let mut bytes = Vec::new();
    for o in &report.outcomes {
        bytes.extend_from_slice(&o.kind.to_le_bytes());
        bytes.extend_from_slice(o.result.as_bytes());
        bytes.push(0);
    }
    fnv1a64(&bytes)
}

/// One run's profile: the config it ran under, its request and heap
/// counters, the overload decisions, and the wall-clock telemetry
/// under `"timing"` (histograms, windows, utilization). Every field but
/// `timing` comes from the report and is a pure function of the config
/// and seed.
pub fn serve_json(run: &ServeRun) -> Json {
    let r = &run.report;
    // The digest is a hex *string*: JSON numbers are f64 and would
    // silently round a 64-bit hash above 2^53.
    let digest = format!("{:016x}", results_digest(r));
    let mix = Json::Obj(
        MIX.iter()
            .map(|m| m.name)
            .chain(["hog", "runaway"])
            .zip(&run.mix_counts)
            .map(|(name, n)| (name.to_string(), Json::from(*n)))
            .collect(),
    );
    let overload = Json::obj([
        ("shed", Json::from(r.shed)),
        (
            "shed_by_reason",
            Json::Obj(
                r.shed_by_reason()
                    .into_iter()
                    .map(|(reason, n)| (reason.to_string(), Json::from(n)))
                    .collect(),
            ),
        ),
        ("deadline_exceeded", Json::from(r.deadline_exceeded())),
        ("breaker_trips", Json::from(r.breaker_trips)),
        ("breaker_half_opens", Json::from(r.breaker_half_opens)),
        ("breaker_closes", Json::from(r.breaker_closes)),
        (
            "breaker_final",
            Json::arr(r.breaker_final.iter().map(|(kind, state)| {
                Json::obj([("kind", Json::from(*kind)), ("state", Json::str(*state))])
            })),
        ),
        ("max_queued", Json::from(r.max_queued)),
        ("max_waiting", Json::from(r.max_waiting)),
        ("goodput", Json::Num(r.goodput())),
        ("shed_rate", Json::Num(r.shed_rate())),
        (
            "conservation",
            Json::Bool(r.completed + r.failed + r.shed == r.outcomes.len() as u64),
        ),
    ]);
    Json::obj([
        ("strategy", Json::str(run.config.task.strategy.name())),
        ("nursery_words", nursery_words(run)),
        (
            "requests",
            Json::obj([
                ("total", Json::from(r.outcomes.len())),
                ("completed", Json::from(r.completed)),
                ("failed", Json::from(r.failed)),
                ("shed", Json::from(r.shed)),
            ]),
        ),
        ("mix", mix),
        ("results_digest", Json::str(digest)),
        ("collections", Json::from(r.heap.collections)),
        ("minor_collections", Json::from(r.gc.minor_collections)),
        ("major_collections", Json::from(r.gc.major_collections)),
        ("promoted_words", Json::from(r.gc.promoted_words)),
        ("died_young_words", Json::from(r.gc.died_young_words)),
        ("allocations", Json::from(r.heap.allocations)),
        ("words_allocated", Json::from(r.heap.words_allocated)),
        ("words_copied", Json::from(r.heap.words_copied)),
        ("peak_live_words", Json::from(r.heap.peak_live_words)),
        ("heap_grows", Json::from(r.heap.grows)),
        (
            "peak_heap_words_sampled",
            Json::from(r.peak_heap_words_sampled),
        ),
        (
            "peak_live_words_sampled",
            Json::from(r.peak_live_words_sampled),
        ),
        (
            "peak_nursery_words_sampled",
            Json::from(r.peak_nursery_words_sampled),
        ),
        ("max_in_flight", Json::from(r.max_in_flight)),
        ("suspension_checks", Json::from(r.suspension_checks)),
        ("suspension_events", Json::from(r.suspension_events)),
        (
            "max_suspension_latency",
            Json::from(r.max_suspension_latency),
        ),
        ("overload", overload),
        ("timing", run.rec.serve_json()),
    ])
}

/// The run's nursery size, `null` for the single-generation heap.
fn nursery_words(run: &ServeRun) -> Json {
    run.config.task.nursery_words.map_or(Json::Null, Json::from)
}

/// One table row per run: E11's and E12's `rows`, and what `tfml serve`
/// prints. The latency, pause and utilization cells are wall-clock and
/// carry [`tfgc_obs::WALL_CLOCK_KEYS`] names; latencies and pauses are
/// log₂-bucket upper bounds in nanoseconds.
pub fn serve_rows(runs: &[ServeRun]) -> Vec<Json> {
    runs.iter()
        .map(|run| {
            let r = &run.report;
            let latency = run.rec.latency_hist();
            Json::obj([
                ("strategy", Json::str(run.config.task.strategy.name())),
                ("nursery_words", nursery_words(run)),
                ("completed", Json::from(r.completed)),
                ("failed", Json::from(r.failed)),
                ("shed", Json::from(r.shed)),
                ("goodput", Json::Num(r.goodput())),
                ("breaker_trips", Json::from(r.breaker_trips)),
                ("collections", Json::from(r.heap.collections)),
                ("minor_collections", Json::from(r.gc.minor_collections)),
                ("latency_p50_ns", Json::from(latency.p50())),
                ("latency_p99_ns", Json::from(latency.p99())),
                ("pause_p99_ns", Json::from(run.rec.pause_hist().p99())),
                ("utilization", Json::Num(run.rec.utilization())),
                ("mmu_1ms", Json::Num(run.rec.mmu(1_000_000))),
                ("peak_heap_words", Json::from(r.peak_heap_words_sampled)),
            ])
        })
        .collect()
}

/// The integrity every served run owes, whatever else its caller gates
/// on: every request resolved, and each exactly one way (`completed +
/// failed + shed == total`). Empty = intact.
fn request_integrity(r: &ServeReport, requests: usize) -> Vec<String> {
    let mut violations = Vec::new();
    if r.outcomes.len() != requests {
        violations.push(format!(
            "{} of {requests} requests resolved",
            r.outcomes.len()
        ));
    }
    if r.completed + r.failed + r.shed != r.outcomes.len() as u64 {
        violations.push(format!(
            "conservation violated: {} completed + {} failed + {} shed != {} total",
            r.completed,
            r.failed,
            r.shed,
            r.outcomes.len()
        ));
    }
    violations
}

/// Service-level objectives for the CI gate.
#[derive(Debug, Clone, Copy)]
pub struct Slo {
    /// Ceiling on p99 request latency, nanoseconds.
    pub max_p99_latency_ns: u64,
    /// Ceiling on p99 GC pause, nanoseconds.
    pub max_p99_pause_ns: u64,
}

/// Checks one run against the objectives. Empty = pass. Beyond the two
/// latency ceilings, service integrity itself is an objective: every
/// request resolved exactly one way (`completed + failed + shed ==
/// total`), and none failed — except that when the run configures a
/// deadline or fuel budget, budget breaches are the mechanism working
/// as intended and do not count as failures.
pub fn check_slo(run: &ServeRun, slo: Slo) -> Vec<String> {
    let r = &run.report;
    let mut violations = request_integrity(r, run.config.requests);
    if r.completed == 0 {
        violations.push("zero requests completed".to_string());
    }
    let budgeted =
        run.config.overload.deadline_quanta.is_some() || run.config.overload.fuel.is_some();
    let unexpected_failures = r
        .outcomes
        .iter()
        .filter(|o| match &o.error {
            None => false,
            Some(VmError::DeadlineExceeded { .. }) => !budgeted,
            Some(_) => true,
        })
        .count();
    if unexpected_failures > 0 {
        violations.push(format!("{unexpected_failures} requests failed"));
    }
    let p99_latency = run.rec.latency_hist().p99();
    if p99_latency > slo.max_p99_latency_ns {
        violations.push(format!(
            "p99 request latency {p99_latency}ns > {}ns",
            slo.max_p99_latency_ns
        ));
    }
    let p99_pause = run.rec.pause_hist().p99();
    if p99_pause > slo.max_p99_pause_ns {
        violations.push(format!(
            "p99 pause {p99_pause}ns > {}ns",
            slo.max_p99_pause_ns
        ));
    }
    named(run, violations)
}

/// Prefixes each violation with the run's strategy.
fn named(run: &ServeRun, violations: Vec<String>) -> Vec<String> {
    let name = run.config.task.strategy.name();
    violations
        .into_iter()
        .map(|v| format!("{name}: {v}"))
        .collect()
}

/// Objectives for a run that is *supposed* to be overloaded: the
/// service must degrade (shed, quarantine) without collapsing.
#[derive(Debug, Clone, Copy)]
pub struct OverloadSlo {
    /// Ceiling on the shed fraction of submitted work.
    pub max_shed_rate: f64,
    /// Floor on goodput (completed / submitted).
    pub min_goodput: f64,
}

impl OverloadSlo {
    /// The CI gate for [`overload_scenario`]: bounded shedding, nonzero
    /// goodput. Deliberately loose — the gate is about degradation shape
    /// (conserve every request, keep completing work), not throughput.
    pub fn gate() -> OverloadSlo {
        OverloadSlo {
            max_shed_rate: 0.9,
            min_goodput: 0.05,
        }
    }
}

/// Checks an overload run: every request resolved, conservation holds,
/// goodput above the floor, shed rate below the ceiling. Empty = pass.
pub fn check_overload_slo(run: &ServeRun, slo: OverloadSlo) -> Vec<String> {
    let mut violations = request_integrity(&run.report, run.config.requests);
    let goodput = run.report.goodput();
    if goodput < slo.min_goodput {
        violations.push(format!("goodput {goodput:.3} < {:.3}", slo.min_goodput));
    }
    let shed_rate = run.report.shed_rate();
    if shed_rate > slo.max_shed_rate {
        violations.push(format!(
            "shed rate {shed_rate:.3} > {:.3}",
            slo.max_shed_rate
        ));
    }
    named(run, violations)
}

/// The canonical overload scenario, E12: a burst
/// of 160 requests (every 16th a runaway) against 3 slots behind a
/// bounded queue with backoff, watermarks, and a circuit breaker over
/// the runaway kind. Deadlines catch the runaways; the breaker
/// fast-rejects the kind once it proves itself hostile.
pub fn overload_scenario(strategy: Strategy, seed: u64) -> ServeConfig {
    let mut cfg = ServeConfig::new(strategy);
    cfg.seed = seed;
    cfg.requests = 160;
    cfg.pool = 3;
    cfg.runaway_every = 16;
    cfg.overload = OverloadConfig {
        queue_cap: 8,
        admission: AdmissionPolicy::RetryBackoff {
            max_attempts: 8,
            base: 16,
        },
        deadline_quanta: Some(1_500),
        fuel: None,
        soft_watermark_pct: Some(70),
        hard_watermark_pct: Some(95),
        breaker_threshold: 3,
        breaker_cooldown: 384,
        drain_after: None,
        seed,
    };
    cfg
}

/// One serve-torture case: a seeded scenario served on a torture-sized
/// heap under one strategy.
#[derive(Debug)]
pub struct ServeTortureCase {
    /// Scenario name: one of [`OVERLOAD_SCENARIOS`], or `exhaust` /
    /// `exhaust-nursery` for [`torture_serve`]'s refused growth.
    pub scenario: &'static str,
    pub strategy: Strategy,
    pub seed: u64,
    pub completed: u64,
    pub failed: u64,
    pub shed: u64,
    /// Invariant violations (empty = graceful degradation held).
    pub violations: Vec<String>,
}

/// Serves `cfg` with panics captured and checks the contract every
/// serve-torture case owes: no panic of any kind escapes, every request
/// resolves exactly one way (conservation), and the service keeps
/// completing work. With `oom_only`, a request may fail only by running
/// out of memory.
fn serve_case(scenario: &'static str, cfg: &ServeConfig, oom_only: bool) -> ServeTortureCase {
    let mut case = ServeTortureCase {
        scenario,
        strategy: cfg.task.strategy,
        seed: cfg.seed,
        completed: 0,
        failed: 0,
        shed: 0,
        violations: Vec::new(),
    };
    let context = format!("{scenario} under {} seed {}", cfg.task.strategy, cfg.seed);
    match capture_panics_mut(&context, || serve(cfg)) {
        Ok(Ok(run)) => {
            let r = &run.report;
            case.violations = request_integrity(r, cfg.requests);
            if r.completed == 0 {
                case.violations
                    .push("service collapsed: nothing completed".to_string());
            }
            for (i, o) in r.outcomes.iter().enumerate() {
                match &o.error {
                    Some(e) if oom_only && !matches!(e, VmError::OutOfMemory { .. }) => {
                        case.violations
                            .push(format!("request {i}: non-OOM error {e}"));
                    }
                    _ => {}
                }
            }
            (case.completed, case.failed, case.shed) = (r.completed, r.failed, r.shed);
        }
        Ok(Err(e)) => case.violations.push(format!("service dropped: {e}")),
        Err(p) => case.violations.push(format!("panic: {}", p.describe())),
    }
    case
}

/// Seeded overload-torture configurations. Every scenario keeps the
/// torture-sized heap of [`torture_serve`]; each stresses one mechanism:
///
/// * `burst` — 60 requests hit a 4-deep queue at once; backoff must
///   either drain or shed them, never lose one.
/// * `deadline-storm` — a service-wide deadline tight enough to kill the
///   long tail of the mix while short requests still complete.
/// * `runaway-hog` — runaways and heap hogs interleaved; deadlines
///   quarantine the former, the breaker learns to fast-reject the kind.
/// * `watermark-flap` — a heap squeezed by hogs and a refused-growth
///   fault, with watermarks throttling and degrading admissions as
///   occupancy crosses the thresholds both ways.
fn overload_torture_config(scenario: &'static str, strategy: Strategy, seed: u64) -> ServeConfig {
    let mut cfg = ServeConfig::new(strategy);
    cfg.seed = seed;
    cfg.requests = 60;
    cfg.pool = 3;
    cfg.task.heap_words = 1 << 10;
    cfg.task.heap_max_words = Some(1 << 14);
    cfg.sample_every = 16;
    match scenario {
        "burst" => {
            cfg.overload.queue_cap = 4;
            cfg.overload.admission = AdmissionPolicy::RetryBackoff {
                max_attempts: 4,
                base: 8 + seed % 8,
            };
        }
        "deadline-storm" => {
            // Unbounded queue: the deadline is the only mechanism under
            // test, and it must kill the mix's long tail while short
            // requests still complete.
            cfg.overload.deadline_quanta = Some(60 + seed % 90);
        }
        "runaway-hog" => {
            cfg.runaway_every = 6;
            cfg.hog_every = 7;
            cfg.overload.deadline_quanta = Some(800);
            cfg.overload.breaker_threshold = 2;
            cfg.overload.breaker_cooldown = 200 + seed % 200;
            cfg.overload.queue_cap = 6;
            cfg.overload.admission = AdmissionPolicy::RetryBackoff {
                max_attempts: 6,
                base: 16,
            };
        }
        "watermark-flap" => {
            cfg.task.heap_max_words = Some(1 << 12);
            cfg.hog_every = 5;
            cfg.overload.soft_watermark_pct = Some(50);
            cfg.overload.hard_watermark_pct = Some(85);
            cfg.overload.queue_cap = 4;
            cfg.overload.admission = AdmissionPolicy::Degrade { low_kind_min: 2 };
            cfg.overload.deadline_quanta = Some(4_000);
            cfg.task.fault_plan = Some(FaultPlan {
                exhaust_at: Some(300 + seed % 300),
                ..FaultPlan::none()
            });
        }
        other => unreachable!("unknown overload scenario {other}"),
    }
    cfg
}

/// Scenario names for [`torture_overload`].
pub const OVERLOAD_SCENARIOS: [&str; 4] =
    ["burst", "deadline-storm", "runaway-hog", "watermark-flap"];

/// Races the overload mechanisms: for each seed, every scenario under
/// the compiled and tagged strategies, each a [`serve_case`]. Panic
/// output is suppressed for the duration (the hook is restored before
/// returning).
pub fn torture_overload(seeds: &[u64]) -> Vec<ServeTortureCase> {
    with_quiet_panics(|| {
        let mut cases = Vec::new();
        for &seed in seeds {
            for scenario in OVERLOAD_SCENARIOS {
                for strategy in [Strategy::Compiled, Strategy::Tagged] {
                    let cfg = overload_torture_config(scenario, strategy, seed);
                    cases.push(serve_case(scenario, &cfg, false));
                }
            }
        }
        cases
    })
}

/// Runs the service under seeded mid-traffic fault injection: a tight
/// heap whose growth is refused partway through the run. The graceful-
/// degradation contract is that faults quarantine individual requests —
/// they never drop the service: every request resolves, only by running
/// out of memory if it fails, and requests *behind* a quarantined one
/// still complete on the recycled slot. `generational` reruns the
/// matrix with a quarter-semispace nursery: refused growth must
/// quarantine just as gracefully when minors are absorbing the churn.
/// Panic output is suppressed for the duration.
pub fn torture_serve(seeds: &[u64], generational: bool) -> Vec<ServeTortureCase> {
    let scenario = if generational {
        "exhaust-nursery"
    } else {
        "exhaust"
    };
    with_quiet_panics(|| {
        let mut cases = Vec::new();
        for &seed in seeds {
            for strategy in [Strategy::Compiled, Strategy::Tagged] {
                let mut cfg = ServeConfig::new(strategy);
                cfg.seed = seed;
                cfg.requests = 60;
                cfg.pool = 3;
                cfg.task.heap_words = 1 << 10;
                cfg.task.heap_max_words = Some(1 << 12);
                cfg.sample_every = 16;
                cfg.hog_every = 7;
                if generational {
                    cfg.task.nursery_words = Some(cfg.task.heap_words / 4);
                }
                // Exhaustion strikes mid-traffic at a seed-determined
                // allocation count; growth is refused from then on.
                cfg.task.fault_plan = Some(FaultPlan {
                    exhaust_at: Some(200 + seed % 400),
                    ..FaultPlan::none()
                });
                cases.push(serve_case(scenario, &cfg, true));
            }
        }
        cases
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfgc_obs::deterministic_view;

    /// The deterministic projection of a run's profile, as text.
    fn projection(run: &ServeRun) -> String {
        deterministic_view(&serve_json(run)).to_json_pretty()
    }

    #[test]
    fn traffic_is_seeded_and_weighted() {
        let c = Compiled::compile(SERVICE_SRC).unwrap();
        let a = build_traffic(&c.program, 7, 500, &MIX);
        let b = build_traffic(&c.program, 7, 500, &MIX);
        assert_eq!(a, b, "same seed, same traffic");
        let other = build_traffic(&c.program, 8, 500, &MIX);
        assert_ne!(a, other, "different seed, different traffic");
        let churn = a.iter().filter(|r| r.kind == 0).count();
        let spin = a.iter().filter(|r| r.kind == 4).count();
        assert!(churn > spin, "weight 4 class must outdraw weight 1");
        for r in &a {
            let m = &MIX[r.kind as usize];
            assert!((m.lo..m.hi).contains(&r.arg));
        }
    }

    #[test]
    fn serve_runs_deterministically_per_seed() {
        let mut cfg = ServeConfig::new(Strategy::Compiled);
        cfg.requests = 40;
        cfg.pool = 3;
        cfg.seed = 11;
        let a = serve(&cfg).unwrap();
        let b = serve(&cfg).unwrap();
        assert_eq!(a.report.outcomes, b.report.outcomes);
        assert_eq!(a.report.heap, b.report.heap);
        assert_eq!(a.mix_counts, b.mix_counts);
        assert_eq!(
            results_digest(&a.report),
            results_digest(&b.report),
            "digest is a pure function of the outcomes"
        );
        // Sampled peaks come from deterministic sample points.
        assert!(a.report.peak_heap_words_sampled > 0);
        assert_eq!(
            a.report.peak_heap_words_sampled,
            b.report.peak_heap_words_sampled
        );
        assert_eq!(a.report.max_in_flight, b.report.max_in_flight);
    }

    #[test]
    fn all_strategies_serve_the_same_responses() {
        let mut digests = Vec::new();
        for s in Strategy::ALL {
            let mut cfg = ServeConfig::new(s);
            cfg.requests = 40;
            cfg.pool = 3;
            let run = serve(&cfg).unwrap_or_else(|e| panic!("{s}: {e}"));
            assert_eq!(run.report.completed, 40, "{s}");
            assert_eq!(run.report.failed, 0, "{s}");
            digests.push(results_digest(&run.report));
        }
        assert!(
            digests.windows(2).all(|w| w[0] == w[1]),
            "strategies must agree on every response: {digests:x?}"
        );
    }

    #[test]
    fn serve_json_separates_deterministic_from_timing() {
        let mut cfg = ServeConfig::new(Strategy::Compiled);
        cfg.requests = 30;
        let run = serve(&cfg).unwrap();
        let j = serve_json(&run);
        assert_eq!(
            j.get("requests")
                .and_then(|r| r.get("completed"))
                .and_then(Json::as_f64),
            Some(30.0)
        );
        let digest = j.get("results_digest").expect("digest");
        assert!(
            matches!(digest, Json::Str(s) if s.len() == 16),
            "digest must be a 16-hex-char string, got {digest:?}"
        );
        let Some(Json::Obj(timing)) = j.get("timing") else {
            panic!("timing must be an object");
        };
        let keys: Vec<&str> = timing.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "latency_ns",
                "pause_ns",
                "minor_pause_ns",
                "major_pause_ns",
                "utilization",
                "window_ns",
                "windows"
            ],
            "timing holds wall-clock data only"
        );
        let det = deterministic_view(&j);
        assert!(det.get("timing").is_none(), "the projection drops timing");
        assert!(det.get("results_digest").is_some());
        let a = serve(&cfg).unwrap();
        assert_eq!(
            projection(&a),
            det.to_json_pretty(),
            "the projection must diff clean across same-seed runs"
        );
    }

    #[test]
    fn generational_serve_matches_baseline_responses() {
        let mut base = ServeConfig::new(Strategy::Compiled);
        base.requests = 40;
        base.pool = 3;
        let a = serve(&base).unwrap();
        let mut generational = base.clone();
        generational.task.nursery_words = Some(base.task.heap_words / 4);
        let b = serve(&generational).unwrap();
        assert_eq!(
            a.report.outcomes, b.report.outcomes,
            "generational collection must not change any response"
        );
        assert_eq!(results_digest(&a.report), results_digest(&b.report));
        assert!(
            b.report.gc.minor_collections > 0,
            "a tight serve heap must trigger minors: {:?}",
            b.report.gc
        );
        assert!(
            b.report.gc.promoted_words > 0,
            "the persistent table must survive into the tenured generation"
        );
        assert_eq!(
            a.report.gc.minor_collections, 0,
            "the baseline heap has no nursery"
        );
        let det = deterministic_view(&serve_json(&b));
        assert!(det.get("minor_collections").and_then(Json::as_f64).unwrap() > 0.0);
        assert_eq!(det.get("nursery_words").and_then(Json::as_f64), Some(512.0));
        let again = serve(&generational).unwrap();
        assert_eq!(
            projection(&again),
            det.to_json_pretty(),
            "generational runs must diff clean across same-seed runs"
        );
    }

    /// A quantum is one burst of the interpreter, so an instruction
    /// dropped or repeated at a burst's edge would change a response or
    /// lose a request here.
    #[test]
    fn responses_do_not_depend_on_the_quantum() {
        for nursery in [None, Some(128)] {
            let mut first: Option<Vec<tfgc_tasking::RequestOutcome>> = None;
            for quantum in [1, 7, 64, 4096] {
                let mut cfg = ServeConfig::new(Strategy::Compiled);
                cfg.requests = 40;
                cfg.pool = 3;
                cfg.task.heap_words = 512;
                cfg.task.quantum = quantum;
                cfg.task.nursery_words = nursery;
                let what = format!("quantum {quantum}, nursery {nursery:?}");
                let r = serve(&cfg).unwrap_or_else(|e| panic!("{what}: {e}")).report;
                assert_eq!(r.completed + r.failed + r.shed, 40, "{what}: conservation");
                assert_eq!(r.completed, 40, "{what}");
                assert!(r.suspension_events > 0, "{what}: the heap must collect");
                match &first {
                    None => first = Some(r.outcomes),
                    Some(f) => assert_eq!(&r.outcomes, f, "{what}"),
                }
            }
        }
    }

    #[test]
    fn slo_gate_passes_sane_runs_and_fails_absurd_ones() {
        let mut cfg = ServeConfig::new(Strategy::Compiled);
        cfg.requests = 30;
        let run = serve(&cfg).unwrap();
        let lenient = Slo {
            max_p99_latency_ns: u64::MAX,
            max_p99_pause_ns: u64::MAX,
        };
        assert!(check_slo(&run, lenient).is_empty());
        let absurd = Slo {
            max_p99_latency_ns: 0,
            max_p99_pause_ns: 0,
        };
        let v = check_slo(&run, absurd);
        assert!(v.iter().any(|s| s.contains("p99 request latency")), "{v:?}");
    }

    #[test]
    fn runaways_are_quarantined_by_deadline_while_siblings_complete() {
        let mut cfg = ServeConfig::new(Strategy::Compiled);
        cfg.requests = 32;
        cfg.pool = 3;
        cfg.runaway_every = 8;
        cfg.overload.deadline_quanta = Some(1_200);
        let run = serve(&cfg).unwrap();
        let r = &run.report;
        let runaway_kind = MIX.len() as u32 + 1;
        assert_eq!(run.mix_counts[runaway_kind as usize], 4);
        for (i, o) in r.outcomes.iter().enumerate() {
            if o.kind == runaway_kind {
                assert!(
                    matches!(o.error, Some(VmError::DeadlineExceeded { .. })),
                    "runaway {i} must breach its deadline: {o:?}"
                );
            }
        }
        assert_eq!(r.failed, 4, "exactly the runaways fail");
        assert_eq!(r.completed, 28, "every sibling completes");
        assert_eq!(r.completed + r.failed + r.shed, r.outcomes.len() as u64);
    }

    #[test]
    fn overload_scenario_degrades_without_collapsing() {
        let run = serve(&overload_scenario(Strategy::Compiled, 1)).unwrap();
        let v = check_overload_slo(&run, OverloadSlo::gate());
        assert!(v.is_empty(), "{v:?}");
        assert!(run.report.failed > 0, "no runaway was ever quarantined");
        assert!(
            run.report.deadline_exceeded() > 0,
            "runaways must breach their deadline"
        );
        let again = serve(&overload_scenario(Strategy::Compiled, 1)).unwrap();
        assert_eq!(
            projection(&run),
            projection(&again),
            "the overload block must diff clean across same-seed runs"
        );
    }

    #[test]
    fn overload_torture_conserves_every_request() {
        let cases = torture_overload(&[0, 1, 2]);
        assert_eq!(cases.len(), 3 * OVERLOAD_SCENARIOS.len() * 2);
        for c in &cases {
            assert!(
                c.violations.is_empty(),
                "{} under {} seed {}: {:?}",
                c.scenario,
                c.strategy,
                c.seed,
                c.violations
            );
        }
        // The matrix proves nothing unless the mechanisms actually bit.
        assert!(cases.iter().any(|c| c.shed > 0), "no case ever shed");
        assert!(
            cases.iter().any(|c| c.failed > 0),
            "no case ever quarantined"
        );
    }

    #[test]
    fn generational_torture_quarantines_gracefully() {
        let cases = torture_serve(&[0, 1], true);
        assert_eq!(cases.len(), 4);
        for c in &cases {
            assert!(
                c.violations.is_empty(),
                "{} seed {}: {:?}",
                c.strategy,
                c.seed,
                c.violations
            );
            assert_eq!(c.scenario, "exhaust-nursery");
            assert!(c.completed > 0, "{} seed {}", c.strategy, c.seed);
        }
    }

    #[test]
    fn torture_survives_mid_traffic_exhaustion() {
        let cases = torture_serve(&[0, 1, 2], false);
        assert_eq!(cases.len(), 6);
        for c in &cases {
            assert!(
                c.violations.is_empty(),
                "{} seed {}: {:?}",
                c.strategy,
                c.seed,
                c.violations
            );
            assert!(c.completed > 0, "{} seed {}", c.strategy, c.seed);
        }
        // The tight heap with refused growth must actually bite
        // somewhere in the matrix, or the case proves nothing.
        assert!(
            cases.iter().any(|c| c.failed > 0),
            "no case exercised quarantine: {cases:?}"
        );
    }
}
