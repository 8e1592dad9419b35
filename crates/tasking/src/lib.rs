//! # tfgc-tasking — tag-free GC for languages with tasking (§4)
//!
//! The paper's model: Ada-style tasks in shared memory, all suspended
//! during collection, with the invariant that "a process can only be
//! suspended for garbage collection purposes when the process makes a
//! procedure call". This crate provides the cooperative scheduler over
//! the multi-threaded [`tfgc_vm::Vm`]:
//!
//! * a deterministic round-robin scheduler with a configurable quantum,
//!   preempting only between instructions: each quantum is one
//!   interpreter burst ([`Vm::burst`]);
//! * heap exhaustion in any task raises a GC request; tasks then park at
//!   their next *safe point* per the chosen [`SuspendPolicy`] — §4's two
//!   situations ("the process calls an allocation routine" vs "the
//!   process makes any procedure call") plus the `Rgc` register variant
//!   that makes the every-call test free by folding it into the call's
//!   target address;
//! * when every live task is parked at a call/allocation site, the
//!   collector runs over all stacks, and everyone resumes. Where a task
//!   is parked is the VM's record ([`Vm::parked_at`]): the burst that
//!   stopped it leaves it there until the task's next burst or the end
//!   of the suspension ([`Vm::resume_all`]).
//!
//! Experiment E7 reports the trade-off the paper describes: checking at
//! every call suspends the system quickly but pays a per-call test;
//! checking only at allocations is free until a collection is needed, but
//! lets allocation-free tasks "run for a long time while others are
//! suspended".
//!
//! The scheduler is a *request engine*: a fixed pool of thread slots
//! drains a queue of [`Request`]s against one persistent shared heap.
//! A slot is idle or holds one request, with the quantum it was
//! dispatched at, its start time, the fuel it has spent and, while it is
//! blocked, its allocation site.
//! [`serve_requests_overload`] is the one entry point: it recycles each
//! slot for the next queued request the moment its current one
//! completes. Every deterministic count of a run (outcomes, sheds,
//! breaker transitions, suspension accounting, sampled occupancy and
//! backlog peaks) lands in its [`ServeReport`]; the attached [`Obs`]
//! sink sees the same run as request-lifecycle, occupancy and overload
//! events with wall-clock timestamps. [`run_tasks`] is its
//! one-request-per-slot special case (the original batch mode).
//!
//! ## Overload management
//!
//! [`serve_requests_overload`] layers load protection over the engine,
//! all of it keyed to the deterministic quantum clock (never wall time):
//!
//! * **budgets** — every request runs under the service's deadline in
//!   scheduler quanta and instruction-fuel budget ([`OverloadConfig`]),
//!   both checked at the quantum boundary (the same safe-point cadence
//!   §4's suspension protocol uses); a breach quarantines the request with
//!   [`VmError::DeadlineExceeded`], so a runaway handler can never
//!   starve the pool;
//! * **admission control** — a bounded admission queue with a seeded
//!   [`AdmissionPolicy`] (`Reject` sheds, `RetryBackoff` re-offers with
//!   deterministic exponential backoff plus seeded jitter, `Degrade`
//!   sheds only low-priority kinds);
//! * **heap-pressure watermarks** — crossing the soft watermark fires
//!   one proactive collection and throttles admissions to
//!   direct-to-slot; at the hard watermark new admissions are refused
//!   while in-flight requests finish;
//! * **circuit breakers** — per request kind, K consecutive quarantines
//!   open the breaker (fast-reject) for a deterministic cooldown, then a
//!   half-open probe decides whether to close it;
//! * **drain** — after [`OverloadConfig::drain_after`] quanta the engine
//!   stops admitting and lets in-flight requests finish within their
//!   deadlines.
//!
//! Every transition is counted in the [`ServeReport`] and emits a
//! [`GcEvent`] through the zero-cost [`Obs::emit`] path; none of the
//! decisions read the sink, so shed decisions are bit-identical between
//! null-sink and recording runs.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::fmt;
use tfgc_gc::{GcStats, Strategy};
use tfgc_ir::{CallSiteId, FnId, IrProgram};
use tfgc_obs::{GcEvent, Obs};
use tfgc_runtime::HeapStats;
use tfgc_vm::{BurstEnd, FaultPlan, MutatorStats, SafePoints, Vm, VmConfig, VmError, VmResult};
use tfgc_workloads::rng::SmallRng;

/// When may a task be parked for collection? (§4.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuspendPolicy {
    /// "The heap is exhausted and the process calls an allocation
    /// routine": only allocation sites are safe points. No per-call
    /// overhead, potentially long suspension latency.
    AllocationOnly,
    /// "The heap is exhausted and the process makes any procedure call":
    /// calls and allocations are safe points; a test executes at every
    /// call.
    EveryCall,
    /// Same protocol as [`SuspendPolicy::EveryCall`], but the test is the
    /// paper's `Rgc` register trick — the register is added to every call
    /// target, so the check costs nothing ("it may be possible to utilize
    /// the addressing modes of some processors to make the test
    /// inexpensive").
    EveryCallRgc,
}

impl SuspendPolicy {
    /// Suspension tests executed at `calls` calls and `allocs`
    /// allocations under this policy's cost model: one per safe point,
    /// and none at all with the `Rgc` register.
    fn tests(self, calls: u64, allocs: u64) -> u64 {
        match self {
            SuspendPolicy::AllocationOnly => allocs,
            SuspendPolicy::EveryCall => calls + allocs,
            SuspendPolicy::EveryCallRgc => 0,
        }
    }

    /// The instructions a task stops before while a collection is
    /// pending.
    fn safe_points(self) -> SafePoints {
        match self {
            SuspendPolicy::AllocationOnly => SafePoints::Allocations,
            SuspendPolicy::EveryCall | SuspendPolicy::EveryCallRgc => {
                SafePoints::CallsAndAllocations
            }
        }
    }
}

impl fmt::Display for SuspendPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SuspendPolicy::AllocationOnly => "alloc-only",
            SuspendPolicy::EveryCall => "every-call",
            SuspendPolicy::EveryCallRgc => "every-call-rgc",
        };
        write!(f, "{s}")
    }
}

/// Scheduler configuration.
#[derive(Debug, Clone)]
pub struct TaskConfig {
    pub strategy: Strategy,
    pub heap_words: usize,
    pub policy: SuspendPolicy,
    /// Instructions per scheduling quantum.
    pub quantum: u64,
    /// Total instruction budget across all tasks.
    pub max_steps: u64,
    /// Bounded growth policy: grow each semispace up to this many words
    /// when a collection cannot satisfy an allocation (`None` = fixed
    /// heap).
    pub heap_max_words: Option<usize>,
    /// Run the post-collection heap verifier after every collection.
    pub verify_heap: bool,
    /// Deterministic fault schedule injected into the VM.
    pub fault_plan: Option<FaultPlan>,
    /// Generational tier: nursery size in words (`None` = classic
    /// single-generation heap). See `VmConfig::nursery_words`.
    pub nursery_words: Option<usize>,
    /// Minor survivals before promotion (see `VmConfig::promote_after`).
    pub promote_after: u32,
}

impl TaskConfig {
    /// Defaults: 64Ki-word semispaces, every-call policy, quantum 64.
    pub fn new(strategy: Strategy) -> TaskConfig {
        TaskConfig {
            strategy,
            heap_words: 1 << 16,
            policy: SuspendPolicy::EveryCall,
            quantum: 64,
            max_steps: 500_000_000,
            heap_max_words: None,
            verify_heap: false,
            fault_plan: None,
            nursery_words: None,
            promote_after: 0,
        }
    }
}

/// One unit of service work: run `entry(arg)` to completion on some
/// pool slot, within the service's budgets ([`OverloadConfig`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    pub entry: FnId,
    pub arg: i64,
    /// Caller-assigned request class (e.g. an index into a traffic
    /// mix); carried through to the outcome and the `RequestStart`
    /// event. The engine itself only consults it for per-kind circuit
    /// breakers and the `Degrade` admission policy.
    pub kind: u32,
}

impl Request {
    /// A request to run `entry(arg)` as class `kind`.
    pub fn new(entry: FnId, arg: i64, kind: u32) -> Request {
        Request { entry, arg, kind }
    }
}

/// What to do with an arrival the service cannot take right now (queue
/// full, hard watermark). All policies are pure functions of the quantum
/// clock and the [`OverloadConfig::seed`], never of wall time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Shed immediately (recorded as a shed outcome, not an error).
    Reject,
    /// Re-offer with deterministic exponential backoff: attempt `k`
    /// waits `base << k` quanta plus seeded jitter in `[0, base)`; after
    /// `max_attempts` refusals the request is shed (`backoff-exhausted`).
    RetryBackoff { max_attempts: u32, base: u64 },
    /// Shed only low-priority kinds (`kind >= low_kind_min`); higher
    /// priority arrivals wait for room instead.
    Degrade { low_kind_min: u32 },
}

/// Overload-management configuration for [`serve_requests_overload`].
/// [`OverloadConfig::none`] disables every mechanism and leaves the plain
/// engine.
#[derive(Debug, Clone, Copy)]
pub struct OverloadConfig {
    /// Admission-queue capacity beyond the idle pool slots (0 =
    /// unbounded, the historical behavior).
    pub queue_cap: usize,
    /// What to do with refused arrivals.
    pub admission: AdmissionPolicy,
    /// Every request's deadline in scheduler quanta from its dispatch
    /// (`None` = unbounded).
    pub deadline_quanta: Option<u64>,
    /// Every request's instruction-fuel budget (`None` = unbounded).
    pub fuel: Option<u64>,
    /// Soft heap-pressure watermark in percent of semispace capacity:
    /// crossing it fires one proactive collection and throttles
    /// admissions to direct-to-slot until pressure falls below it again.
    pub soft_watermark_pct: Option<u32>,
    /// Hard heap-pressure watermark in percent: while at or above it (and
    /// work is in flight), new admissions are refused via the policy.
    pub hard_watermark_pct: Option<u32>,
    /// Consecutive quarantines of one kind that open its circuit breaker
    /// (0 = breakers disabled).
    pub breaker_threshold: u32,
    /// Quanta an open breaker fast-rejects before admitting a half-open
    /// probe.
    pub breaker_cooldown: u64,
    /// Graceful drain: from this quantum on, stop admitting (every
    /// not-yet-dispatched request is shed with reason `drain`) while
    /// in-flight requests finish within their deadlines.
    pub drain_after: Option<u64>,
    /// Seed for backoff jitter (`tfgc_workloads::rng`).
    pub seed: u64,
}

impl OverloadConfig {
    /// Everything off: unbounded queue, no budgets, no watermarks, no
    /// breakers, no drain.
    pub fn none() -> OverloadConfig {
        OverloadConfig {
            queue_cap: 0,
            admission: AdmissionPolicy::Reject,
            deadline_quanta: None,
            fuel: None,
            soft_watermark_pct: None,
            hard_watermark_pct: None,
            breaker_threshold: 0,
            breaker_cooldown: 0,
            drain_after: None,
            seed: 0,
        }
    }
}

/// What became of one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestOutcome {
    /// The [`Request::kind`] it was submitted with.
    pub kind: u32,
    /// The rendered result value, `"<error: …>"` when the request was
    /// quarantined, or `"<shed: …>"` when admission shed it. Rendered
    /// eagerly at completion: a finished thread's value is not a GC
    /// root, so the words behind it are only guaranteed intact until the
    /// next collection.
    pub result: String,
    /// The error that quarantined it (`None` = completed normally or
    /// shed).
    pub error: Option<VmError>,
    /// `Some(reason)` when admission control shed the request instead of
    /// dispatching it (`queue-full`, `hard-watermark`, `breaker-open`,
    /// `backoff-exhausted`, `degrade`, `drain`).
    pub shed: Option<&'static str>,
}

impl RequestOutcome {
    /// Completed normally (not quarantined, not shed).
    pub fn is_completed(&self) -> bool {
        self.error.is_none() && self.shed.is_none()
    }
}

/// Result of a service run ([`serve_requests_overload`], [`run_tasks`]):
/// every deterministic count the run produced. Each is a function of
/// the quantum clock and the seed, identical whatever sink is attached.
#[derive(Debug, Clone, Default)]
pub struct ServeReport {
    /// Per request, in submission order.
    pub outcomes: Vec<RequestOutcome>,
    /// Requests that completed normally.
    pub completed: u64,
    /// Requests quarantined with an error.
    pub failed: u64,
    /// Requests shed by admission control. The conservation invariant
    /// `completed + failed + shed == outcomes.len()` always holds: the
    /// engine resolves every request exactly one way.
    pub shed: u64,
    /// Circuit-breaker open transitions across the run.
    pub breaker_trips: u64,
    /// Breaker half-open transitions (cooldown over, probe awaited).
    pub breaker_half_opens: u64,
    /// Breaker close transitions (a half-open probe succeeded).
    pub breaker_closes: u64,
    /// Final breaker state per request kind that ever tripped or was
    /// tracked: `(kind, "closed" | "open" | "half-open")`, sorted by
    /// kind.
    pub breaker_final: Vec<(u32, &'static str)>,
    /// Peak from-space words in use over the occupancy samples, which
    /// are taken every `sample_every` quanta, at every request end and
    /// after every collection. Every peak is 0 when `sample_every` is 0.
    pub peak_heap_words_sampled: u64,
    /// Peak live words after a collection, over the same samples.
    pub peak_live_words_sampled: u64,
    /// Peak nursery words in use, over the same samples.
    pub peak_nursery_words_sampled: u64,
    /// Most pool slots holding a request, over the same samples.
    pub max_in_flight: u32,
    /// Deepest queue of admitted requests waiting for a slot, over the
    /// backlog samples taken every `sample_every` quanta.
    pub max_queued: u32,
    /// Most arrivals deferred by backoff or throttling, over the same
    /// backlog samples.
    pub max_waiting: u32,
    /// Interleaved `print` output across requests.
    pub printed: Vec<i64>,
    pub heap: HeapStats,
    pub gc: GcStats,
    pub mutator: MutatorStats,
    /// Suspension tests executed (per the policy's cost model; the Rgc
    /// variant counts zero).
    pub suspension_checks: u64,
    /// Collections performed with all tasks suspended.
    pub suspension_events: u64,
    /// Instructions executed between heap exhaustion and the moment all
    /// tasks were parked, summed over events.
    pub total_suspension_latency: u64,
    /// Worst single suspension latency.
    pub max_suspension_latency: u64,
}

impl ServeReport {
    /// Completed requests as a fraction of all submitted work
    /// (completed + failed + shed). 1.0 with no traffic.
    pub fn goodput(&self) -> f64 {
        self.fraction(self.completed, 1.0)
    }

    /// Shed requests as a fraction of all submitted work. 0.0 with no
    /// traffic.
    pub fn shed_rate(&self) -> f64 {
        self.fraction(self.shed, 0.0)
    }

    fn fraction(&self, part: u64, idle: f64) -> f64 {
        match self.completed + self.failed + self.shed {
            0 => idle,
            submitted => part as f64 / submitted as f64,
        }
    }

    /// Shed requests by reason, sorted by reason name.
    pub fn shed_by_reason(&self) -> BTreeMap<&'static str, u64> {
        let mut by_reason = BTreeMap::new();
        for reason in self.outcomes.iter().filter_map(|o| o.shed) {
            *by_reason.entry(reason).or_insert(0) += 1;
        }
        by_reason
    }

    /// Requests quarantined for breaching a deadline or fuel budget.
    pub fn deadline_exceeded(&self) -> u64 {
        self.outcomes
            .iter()
            .filter(|o| matches!(o.error, Some(VmError::DeadlineExceeded { .. })))
            .count() as u64
    }
}

/// Looks up a top-level function by its source name (alpha renaming
/// appends `#u<n>`).
pub fn find_fn(prog: &IrProgram, name: &str) -> Option<FnId> {
    prog.funs
        .iter()
        .position(|f| f.name == name || f.name.split("#u").next() == Some(name))
        .map(|i| FnId(i as u32))
}

/// Runs `main` (initializing globals), then runs each `(function, arg)`
/// task to completion under the cooperative scheduler. Task `i`'s value
/// is `outcomes[i].result` and the error that quarantined it, if any, is
/// `outcomes[i].error`; one failing task does not stop its siblings.
///
/// # Errors
///
/// Propagates VM errors; reports OOM when a collection frees nothing.
///
/// # Panics
///
/// Panics if an entry function does not take exactly one argument.
pub fn run_tasks(
    prog: &IrProgram,
    entries: &[(FnId, i64)],
    cfg: TaskConfig,
) -> VmResult<ServeReport> {
    // Batch mode is the one-request-per-slot special case of the serve
    // engine: pool width = request count, so no slot is ever recycled.
    let requests: Vec<Request> = entries
        .iter()
        .enumerate()
        .map(|(i, (f, a))| Request::new(*f, *a, i as u32))
        .collect();
    let pool = requests.len().max(1);
    serve_requests_overload(
        prog,
        &requests,
        pool,
        0,
        cfg,
        OverloadConfig::none(),
        Obs::null(),
    )
    .map(|(report, _)| report)
}

/// Runs `main` (initializing globals), then drains `requests` through a
/// pool of `pool` cooperative thread slots sharing one persistent heap.
/// Each slot picks up the next queued request the moment its current one
/// completes (the stack is respawned in place, so the collector's root
/// scan stays proportional to the pool, not the request count). One
/// quarantined request does not stop service: its slot is recycled like
/// any other.
///
/// `overload` layers load protection over the engine: service-wide
/// deadline/fuel budgets enforced at quantum boundaries, a bounded
/// admission queue with backpressure, heap-pressure watermarks,
/// per-kind circuit breakers, and graceful drain. See the module docs
/// for the state machines; [`OverloadConfig::none`] turns all of it off.
///
/// When `sample_every > 0`, the engine samples heap occupancy once at
/// the start, every `sample_every` scheduling quanta, at every request
/// end and after every collection, and the admission backlog at the
/// start and every `sample_every` quanta. The report keeps each
/// sample's peak whatever the sink; an enabled `obs` also receives it
/// as a `HeapSample` or `BacklogSample` event. Sample *points* are
/// deterministic (quantum counts), so the peaks are reproducible across
/// runs. When `obs` is enabled, the engine emits
/// `RequestStart`/`RequestEnd` events (with wall-clock latency) at
/// every request boundary.
///
/// # Errors
///
/// Propagates whole-machine VM errors (budget exhaustion, heap
/// verification, engine-invariant violations); per-request errors are
/// quarantined into the outcomes and shed requests are recorded, never
/// errors.
///
/// # Panics
///
/// Panics if `pool` or `cfg.quantum` is zero (with a non-empty queue) or
/// a request entry does not take exactly one argument.
pub fn serve_requests_overload(
    prog: &IrProgram,
    requests: &[Request],
    pool: usize,
    sample_every: u64,
    cfg: TaskConfig,
    overload: OverloadConfig,
    obs: Obs,
) -> VmResult<(ServeReport, Obs)> {
    let mut vm_cfg = VmConfig::new(cfg.strategy).heap_words(cfg.heap_words);
    vm_cfg.cooperative = true;
    vm_cfg.max_steps = Some(cfg.max_steps);
    vm_cfg.heap_max_words = cfg.heap_max_words;
    vm_cfg.verify_heap = cfg.verify_heap;
    vm_cfg.fault_plan = cfg.fault_plan;
    vm_cfg.nursery_words = cfg.nursery_words;
    vm_cfg.promote_after = cfg.promote_after;
    let mut vm = Vm::new(prog, vm_cfg);
    vm.obs = obs;

    // Phase 1: run main alone (it initializes globals — the persistent
    // shared heap the whole service runs against).
    run_single(&mut vm)?;

    if requests.is_empty() {
        return Ok(seal(ServeReport::default(), vm));
    }
    assert!(pool > 0, "serving needs at least one pool slot");
    assert!(
        cfg.quantum > 0,
        "a zero quantum runs no instruction, so no request could finish"
    );
    let pool = pool.min(requests.len());

    // Every request starts as a pending offer at quantum 0 (burst
    // arrival); the admission pump in `run` decides its fate.
    let waiting: BinaryHeap<Reverse<(u64, usize, u32)>> =
        (0..requests.len()).map(|ix| Reverse((0, ix, 0))).collect();

    let mut sched = Scheduler {
        vm,
        prog,
        pool,
        slots: Vec::with_capacity(pool),
        requests,
        outcomes: vec![None; requests.len()],
        resolved: 0,
        sample_every,
        quanta: 0,
        policy: cfg.policy,
        quantum: cfg.quantum,
        gc_pending: false,
        proactive_gc: false,
        latency: 0,
        allocs_at_last_gc: None,
        waiting,
        queue: VecDeque::new(),
        rng: SmallRng::seed_from_u64(overload.seed),
        breakers: BTreeMap::new(),
        soft_armed: true,
        overload,
        report: ServeReport::default(),
    };
    sched.run()?;

    let Scheduler {
        vm,
        outcomes,
        breakers,
        mut report,
        ..
    } = sched;

    report.outcomes.reserve_exact(outcomes.len());
    for (ix, o) in outcomes.into_iter().enumerate() {
        match o {
            Some(o) => report.outcomes.push(o),
            None => {
                return Err(VmError::Internal {
                    detail: format!("request {ix} left unresolved by the serve engine"),
                })
            }
        }
    }
    report.failed = report.outcomes.iter().filter(|o| o.error.is_some()).count() as u64;
    report.shed = report.outcomes.iter().filter(|o| o.shed.is_some()).count() as u64;
    report.completed = report.outcomes.len() as u64 - report.failed - report.shed;
    report.breaker_final = breakers.iter().map(|(k, b)| (*k, b.state.name())).collect();
    Ok(seal(report, vm))
}

/// Completes `report` with the machine's output and final statistics,
/// and hands back the observation sink.
fn seal(mut report: ServeReport, mut vm: Vm<'_>) -> (ServeReport, Obs) {
    report.printed = std::mem::take(&mut vm.printed);
    report.heap = vm.heap.stats;
    report.gc = vm.gc_stats;
    report.mutator = vm.mutator;
    (report, std::mem::take(&mut vm.obs))
}

/// Runs the current thread to completion in one unbounded burst,
/// collecting whenever it blocks (single-task mode for the main/global
/// phase).
fn run_single(vm: &mut Vm<'_>) -> VmResult<()> {
    let mut retried = false;
    loop {
        let b = vm.burst(u64::MAX, SafePoints::None);
        match b.end? {
            BurstEnd::Done(_) => return Ok(()),
            BurstEnd::AllocBlocked(site) => {
                if retried && b.completed == 0 {
                    // The collection freed nothing and the allocation
                    // already retried once: growing is the only way
                    // forward.
                    if !vm.grow_parked(site)? {
                        return Err(VmError::OutOfMemory {
                            requested: 0,
                            live: vm.heap.used(),
                            site: site.0,
                            strategy: vm.strategy_name(),
                        });
                    }
                } else {
                    vm.collect_parked(site)?;
                }
                retried = true;
            }
            BurstEnd::Budget => {}
            BurstEnd::SafePoint(_) => unreachable!("a burst with no safe points stopped at one"),
        }
    }
}

/// The request engine: a fixed pool of thread slots draining a request
/// queue. Where each slot's task is parked is the VM's to say
/// ([`Vm::parked_at`]).
struct Scheduler<'p> {
    vm: Vm<'p>,
    prog: &'p IrProgram,
    /// Pool width: slots `0..pool` exist, activated or not.
    pool: usize,
    /// The activated slots, in index order. A slot activates when its
    /// first request is dispatched, and the lowest idle slot is always
    /// taken first, so the slots activate in index order; a slot past
    /// the end of this vector is idle.
    slots: Vec<Slot>,
    /// The full submission queue.
    requests: &'p [Request],
    /// Per request: its outcome, filled as requests resolve.
    outcomes: Vec<Option<RequestOutcome>>,
    /// Requests resolved so far (completed + failed + shed); the run
    /// ends when every request is resolved.
    resolved: usize,
    /// Sample occupancy and backlog every this many quanta (0 = never).
    sample_every: u64,
    /// Scheduling quanta executed (the deterministic sample clock).
    quanta: u64,
    policy: SuspendPolicy,
    quantum: u64,
    gc_pending: bool,
    /// The pending collection was requested by the soft watermark, not a
    /// blocked allocation: skip the no-progress exhaustion accounting.
    proactive_gc: bool,
    /// Instructions executed since the pending collection was requested.
    latency: u64,
    /// Successful allocation count at the previous collection: if no
    /// allocation succeeds between two collections, the heap is
    /// genuinely exhausted.
    allocs_at_last_gc: Option<u64>,
    /// Pending offers: `(due_quantum, request_index, attempts)`,
    /// min-ordered so arrivals pump in deterministic `(due, index)`
    /// order. Initially every request is due at quantum 0.
    waiting: BinaryHeap<Reverse<(u64, usize, u32)>>,
    /// Admitted requests waiting for an idle slot.
    queue: VecDeque<usize>,
    /// Backoff jitter source, seeded from [`OverloadConfig::seed`];
    /// drawn only on admission decisions, so the stream is independent
    /// of the observation sink.
    rng: SmallRng,
    /// Per request kind: circuit-breaker state.
    breakers: BTreeMap<u32, Breaker>,
    /// Soft watermark is edge-triggered: armed below the line, fires one
    /// proactive collection on crossing.
    soft_armed: bool,
    overload: OverloadConfig,
    /// The counts and peaks accumulated as the run goes; outcomes and
    /// final statistics are filled in when it ends.
    report: ServeReport,
}

/// One activated pool slot.
struct Slot {
    /// The VM thread it runs its requests on, respawned in place
    /// between requests.
    thread: usize,
    /// The request it holds; `None` while idle.
    run: Option<Run>,
}

/// A request running in a slot.
#[derive(Clone, Copy)]
struct Run {
    /// Index into the submission queue.
    req: usize,
    /// The quantum it was dispatched at (the deadline clock's zero).
    quantum: u64,
    /// `Obs` timestamp of its start (0 unless observation is enabled).
    started_ns: u64,
    /// Instructions it has executed (the fuel clock).
    fuel: u64,
    /// The allocation site it is blocked on, until the pending
    /// collection resumes it. Tells a task starving for memory from one
    /// merely parked at a safe point, so OOM lands on the right task.
    blocked: Option<CallSiteId>,
}

/// Per-kind circuit-breaker state machine: `Closed` (counting
/// consecutive quarantines) → `Open` (fast-reject until a quantum
/// deadline) → `HalfOpen` (one probe admitted) → `Closed` on probe
/// success or back to `Open` on probe failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    Closed,
    Open { until: u64 },
    HalfOpen { probe: Option<usize> },
}

impl BreakerState {
    fn name(&self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open { .. } => "open",
            BreakerState::HalfOpen { .. } => "half-open",
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Breaker {
    /// Consecutive quarantines since the last success.
    consecutive: u32,
    state: BreakerState,
}

impl Default for Breaker {
    fn default() -> Breaker {
        Breaker {
            consecutive: 0,
            state: BreakerState::Closed,
        }
    }
}

/// What the breaker says about an arrival of some kind.
enum BreakerGate {
    Admit,
    FastReject,
}

impl Scheduler<'_> {
    fn run(&mut self) -> VmResult<()> {
        let n = self.pool;
        let mut rr = 0usize;
        // Initial burst: pump admissions, fill the pool, take the
        // opening occupancy sample.
        self.pump();
        self.dispatch();
        self.sample_heap();
        self.sample_backlog();
        while self.resolved < self.requests.len() {
            self.pump();
            self.dispatch();
            if self.resolved == self.requests.len() {
                break;
            }
            let mut ran = false;
            for off in 0..n {
                let i = (rr + off) % n;
                let runnable = self.slots.get(i).is_some_and(|s| {
                    s.run.is_some() && !(self.gc_pending && self.vm.parked_at(s.thread).is_some())
                });
                if !runnable {
                    continue;
                }
                rr = (i + 1) % n;
                self.run_quantum(i)?;
                self.quanta += 1;
                if self.sample_every != 0 && self.quanta.is_multiple_of(self.sample_every) {
                    self.sample_heap();
                    self.sample_backlog();
                }
                ran = true;
                break;
            }
            // §4: the collection runs once every task is parked.
            let idle_or_parked =
                |s: &Slot| s.run.is_none() || self.vm.parked_at(s.thread).is_some();
            if self.gc_pending && self.slots.iter().all(idle_or_parked) {
                self.do_collection()?;
            }
            if !ran && !self.gc_pending {
                // Nothing runnable: every unresolved request is a
                // deferred/backoff offer. Jump the quantum clock to the
                // next offer instead of spinning.
                match self.waiting.peek() {
                    Some(&Reverse((due, _, _))) => self.quanta = self.quanta.max(due),
                    None => {
                        return Err(VmError::Internal {
                            detail: format!(
                                "{} requests unresolved with no runnable slot and no \
                                 pending offers",
                                self.requests.len() - self.resolved
                            ),
                        })
                    }
                }
            }
        }
        Ok(())
    }

    // ---- admission control ---------------------------------------------

    /// Moves every due pending offer through admission control.
    fn pump(&mut self) {
        while let Some(&Reverse((due, ix, attempts))) = self.waiting.peek() {
            if due > self.quanta {
                break;
            }
            self.waiting.pop();
            self.offer(ix, attempts);
        }
        self.check_soft_watermark();
    }

    /// One arrival at the admission gate: drain, breaker, watermarks,
    /// queue capacity — in that order — then admit or refuse.
    fn offer(&mut self, ix: usize, attempts: u32) {
        let kind = self.requests[ix].kind;
        if self.overload.drain_after.is_some_and(|q| self.quanta >= q) {
            self.shed(ix, "drain");
            return;
        }
        if let BreakerGate::FastReject = self.breaker_gate(kind) {
            self.shed(ix, "breaker-open");
            return;
        }
        // Watermarks gate admissions only while work is in flight or
        // queued; with an idle service, shedding would serve nobody and
        // only the admitted mutator can relieve the pressure.
        let busy = self.in_flight() > 0 || !self.queue.is_empty();
        let level = self.watermark_level();
        if busy && level >= 2 {
            self.refuse(ix, attempts, "hard-watermark");
            return;
        }
        let idle = self.pool - self.in_flight();
        if busy && level == 1 && !(self.queue.is_empty() && idle > 0) {
            // Soft throttle: admit direct-to-slot only; everyone else
            // waits a beat.
            self.defer(ix, attempts);
            return;
        }
        if self.overload.queue_cap > 0 && self.queue.len() >= self.overload.queue_cap + idle {
            self.refuse(ix, attempts, "queue-full");
            return;
        }
        self.mark_probe(kind, ix);
        self.queue.push_back(ix);
    }

    /// Applies the admission policy to a refused arrival.
    fn refuse(&mut self, ix: usize, attempts: u32, reason: &'static str) {
        match self.overload.admission {
            AdmissionPolicy::Reject => self.shed(ix, reason),
            AdmissionPolicy::RetryBackoff { max_attempts, base } => {
                if attempts >= max_attempts {
                    self.shed(ix, "backoff-exhausted");
                } else {
                    let base = base.max(1);
                    let delay = base << attempts.min(16);
                    let jitter = self.rng.next_u64() % base;
                    self.waiting
                        .push(Reverse((self.quanta + delay + jitter, ix, attempts + 1)));
                }
            }
            AdmissionPolicy::Degrade { low_kind_min } => {
                if self.requests[ix].kind >= low_kind_min {
                    self.shed(ix, "degrade");
                } else {
                    self.defer(ix, attempts);
                }
            }
        }
    }

    /// Re-offers an arrival next quantum without burning an attempt
    /// (soft throttle / high-priority wait).
    fn defer(&mut self, ix: usize, attempts: u32) {
        self.waiting.push(Reverse((self.quanta + 1, ix, attempts)));
    }

    /// Resolves a request as shed: an outcome, never an error.
    fn shed(&mut self, ix: usize, reason: &'static str) {
        let kind = self.requests[ix].kind;
        self.outcomes[ix] = Some(RequestOutcome {
            kind,
            result: format!("<shed: {reason}>"),
            error: None,
            shed: Some(reason),
        });
        self.resolved += 1;
        let req = ix as u64;
        self.vm.obs.emit(|t_ns| GcEvent::RequestShed {
            t_ns,
            req,
            kind,
            reason,
        });
    }

    /// Fills idle slots from the admitted queue, lowest slot first.
    fn dispatch(&mut self) {
        while !self.queue.is_empty() {
            let idle = self.slots.iter().position(|s| s.run.is_none());
            let fresh = (self.slots.len() < self.pool).then_some(self.slots.len());
            let Some(slot) = idle.or(fresh) else {
                break;
            };
            let Some(ix) = self.queue.pop_front() else {
                break;
            };
            self.start_in_slot(slot, ix);
        }
    }

    /// Pool slots currently holding a request.
    fn in_flight(&self) -> usize {
        self.slots.iter().filter(|s| s.run.is_some()).count()
    }

    // ---- heap-pressure watermarks --------------------------------------

    /// Current heap-pressure level: 0 = normal, 1 = at/above the soft
    /// watermark, 2 = at/above the hard watermark. A pure function of
    /// heap occupancy, so identical across observed and unobserved runs.
    fn watermark_level(&self) -> u8 {
        let cap = self.vm.heap.capacity();
        if cap == 0 {
            return 0;
        }
        let pct = (self.vm.heap.used() * 100 / cap) as u32;
        if self.overload.hard_watermark_pct.is_some_and(|h| pct >= h) {
            2
        } else if self.overload.soft_watermark_pct.is_some_and(|s| pct >= s) {
            1
        } else {
            0
        }
    }

    /// Edge-triggered soft watermark: on crossing, request one proactive
    /// collection (the §4 park-everyone protocol, minus the blocked
    /// allocation) so pressure is relieved *before* allocation fails.
    fn check_soft_watermark(&mut self) {
        if self.overload.soft_watermark_pct.is_none() {
            return;
        }
        if self.watermark_level() >= 1 {
            if self.soft_armed && self.in_flight() > 0 {
                self.soft_armed = false;
                self.gc_pending = true;
                self.proactive_gc = true;
            }
        } else {
            self.soft_armed = true;
        }
    }

    // ---- circuit breakers ----------------------------------------------

    /// Consults (and transitions) `kind`'s breaker for one arrival.
    fn breaker_gate(&mut self, kind: u32) -> BreakerGate {
        if self.overload.breaker_threshold == 0 {
            return BreakerGate::Admit;
        }
        let quanta = self.quanta;
        let Some(b) = self.breakers.get_mut(&kind) else {
            return BreakerGate::Admit;
        };
        if let BreakerState::Open { until } = b.state {
            if quanta < until {
                return BreakerGate::FastReject;
            }
            // Cooldown elapsed: this arrival becomes the half-open
            // probe candidate.
            b.state = BreakerState::HalfOpen { probe: None };
            self.report.breaker_half_opens += 1;
            self.vm
                .obs
                .emit(|t_ns| GcEvent::BreakerHalfOpen { t_ns, kind });
        }
        if let BreakerState::HalfOpen { probe: Some(_) } = b.state {
            // One probe at a time; everyone else fast-rejects until it
            // resolves.
            return BreakerGate::FastReject;
        }
        BreakerGate::Admit
    }

    /// Marks an admitted request as the half-open probe if its kind's
    /// breaker is waiting for one.
    fn mark_probe(&mut self, kind: u32, ix: usize) {
        if let Some(b) = self.breakers.get_mut(&kind) {
            if b.state == (BreakerState::HalfOpen { probe: None }) {
                b.state = BreakerState::HalfOpen { probe: Some(ix) };
            }
        }
    }

    /// Folds one resolution (quarantine or completion) into the
    /// breaker of the request's kind.
    fn breaker_note(&mut self, kind: u32, req_ix: usize, ok: bool) {
        let threshold = self.overload.breaker_threshold;
        if threshold == 0 {
            return;
        }
        let cooldown = self.overload.breaker_cooldown;
        let quanta = self.quanta;
        let b = self.breakers.entry(kind).or_default();
        match b.state {
            BreakerState::HalfOpen { probe: Some(p) } if p == req_ix => {
                if ok {
                    b.state = BreakerState::Closed;
                    b.consecutive = 0;
                    self.report.breaker_closes += 1;
                    self.vm
                        .obs
                        .emit(|t_ns| GcEvent::BreakerClose { t_ns, kind });
                } else {
                    b.consecutive += 1;
                    b.state = BreakerState::Open {
                        until: quanta + cooldown,
                    };
                    self.report.breaker_trips += 1;
                    let consecutive = b.consecutive;
                    self.vm.obs.emit(|t_ns| GcEvent::BreakerOpen {
                        t_ns,
                        kind,
                        consecutive,
                    });
                }
            }
            _ => {
                if ok {
                    b.consecutive = 0;
                } else {
                    b.consecutive += 1;
                    if b.state == BreakerState::Closed && b.consecutive >= threshold {
                        b.state = BreakerState::Open {
                            until: quanta + cooldown,
                        };
                        self.report.breaker_trips += 1;
                        let consecutive = b.consecutive;
                        self.vm.obs.emit(|t_ns| GcEvent::BreakerOpen {
                            t_ns,
                            kind,
                            consecutive,
                        });
                    }
                }
            }
        }
    }

    /// Dispatches request `req_ix` into slot `i`, activating the slot's
    /// VM thread on first use, and emits its `RequestStart` event. The
    /// slot's previous request must already be resolved (its thread
    /// finished or killed).
    fn start_in_slot(&mut self, i: usize, req_ix: usize) {
        let req = self.requests[req_ix];
        let fun = self.prog.fun(req.entry);
        assert_eq!(
            fun.n_params, 1,
            "request entry `{}` must take exactly one int argument",
            fun.name
        );
        let w = self.vm.encode_int(req.arg);
        if i == self.slots.len() {
            let thread = self.vm.spawn_thread(req.entry, &[w]);
            self.slots.push(Slot { thread, run: None });
        } else {
            self.vm
                .respawn_thread(self.slots[i].thread, req.entry, &[w]);
        }
        let obs = &self.vm.obs;
        let started_ns = if obs.enabled() { obs.now_ns() } else { 0 };
        self.slots[i].run = Some(Run {
            req: req_ix,
            quantum: self.quanta,
            started_ns,
            fuel: 0,
            blocked: None,
        });
        let (req, kind, task) = (req_ix as u64, req.kind, i as u32);
        self.vm.obs.emit(|t_ns| GcEvent::RequestStart {
            t_ns,
            req,
            task,
            kind,
        });
    }

    /// Resolves slot `i`'s current request — rendering its result (or
    /// formatting its quarantine error), noting the breaker, emitting
    /// `RequestEnd` — and idles the slot; the run loop's dispatch
    /// refills it from the admitted queue.
    fn finish(&mut self, i: usize, error: Option<VmError>) {
        let slot = &mut self.slots[i];
        let run = slot.run.take().expect("only a busy slot finishes");
        let req_ix = run.req;
        let req = self.requests[req_ix];
        let mut error = error;
        let result = match &error {
            Some(e) => format!("<error: {e}>"),
            None => match self.vm.thread_result(slot.thread) {
                Some(w) => self.vm.render(w, &self.prog.fun(req.entry).ret_ty),
                None => {
                    let e = VmError::Internal {
                        detail: format!("slot {i} finished with no thread result"),
                    };
                    let rendered = format!("<error: {e}>");
                    error = Some(e);
                    rendered
                }
            },
        };
        let ok = error.is_none();
        self.breaker_note(req.kind, req_ix, ok);
        self.outcomes[req_ix] = Some(RequestOutcome {
            kind: req.kind,
            result,
            error,
            shed: None,
        });
        self.resolved += 1;
        if self.vm.obs.enabled() {
            let started = run.started_ns;
            let req = req_ix as u64;
            let task = i as u32;
            self.vm.obs.emit(|t_ns| GcEvent::RequestEnd {
                t_ns,
                req,
                task,
                latency_ns: t_ns.saturating_sub(started),
                ok,
            });
        }
        self.sample_heap();
    }

    /// Takes one heap-occupancy sample into the report's peaks and emits
    /// it as a `HeapSample` (a no-op unless sampling is on). The
    /// occupancy fields are functions of the instruction stream, so the
    /// sampled values are deterministic.
    fn sample_heap(&mut self) {
        if self.sample_every == 0 {
            return;
        }
        let occ = self.vm.heap.occupancy();
        let in_flight = self.in_flight() as u32;
        let r = &mut self.report;
        r.peak_heap_words_sampled = r.peak_heap_words_sampled.max(occ.heap_words);
        r.peak_live_words_sampled = r.peak_live_words_sampled.max(occ.live_words);
        r.peak_nursery_words_sampled = r.peak_nursery_words_sampled.max(occ.nursery_words);
        r.max_in_flight = r.max_in_flight.max(in_flight);
        self.vm.obs.emit(|t_ns| GcEvent::HeapSample {
            t_ns,
            heap_words: occ.heap_words,
            live_words: occ.live_words,
            nursery_words: occ.nursery_words,
            in_flight,
        });
    }

    /// Takes one backlog-depth sample into the report's peaks and emits
    /// it as a `BacklogSample`, on the quantum cadence of
    /// [`Scheduler::sample_heap`].
    fn sample_backlog(&mut self) {
        if self.sample_every == 0 {
            return;
        }
        let queued = self.queue.len() as u32;
        let waiting = self.waiting.len() as u32;
        self.report.max_queued = self.report.max_queued.max(queued);
        self.report.max_waiting = self.report.max_waiting.max(waiting);
        let watermark = self.watermark_level();
        self.vm.obs.emit(|t_ns| GcEvent::BacklogSample {
            t_ns,
            queued,
            waiting,
            watermark,
        });
    }

    /// Quarantines slot `i`'s request for breaching its deadline or fuel
    /// budget (checked at the quantum boundary — the same safe-point
    /// cadence the suspension protocol uses, so no preemption is
    /// needed).
    fn quarantine_budget(
        &mut self,
        i: usize,
        spent: u64,
        budget: u64,
        unit: &'static str,
    ) -> VmResult<()> {
        let req = self.busy(i).req as u64;
        let task = i as u32;
        self.vm.obs.emit(|t_ns| GcEvent::DeadlineExceeded {
            t_ns,
            req,
            task,
            spent,
            budget,
            unit,
        });
        self.quarantine(
            i,
            VmError::DeadlineExceeded {
                spent,
                budget,
                unit,
            },
        )
    }

    /// Runs task `i` for one quantum: one burst of up to `quantum`
    /// instructions. Budgets are checked first: a request past its
    /// deadline (quanta) or out of fuel (instructions) is quarantined
    /// before it runs again.
    ///
    /// The burst reports the instructions it completed (the request's
    /// fuel) and the calls and allocations it dispatched, from which the
    /// policy's suspension tests are counted ([`SuspendPolicy::tests`]).
    /// While a collection is pending, the burst stops before the task's
    /// next safe point (§4) and the task parks there; the test that
    /// found the collection pending counts as one more.
    fn run_quantum(&mut self, i: usize) -> VmResult<()> {
        let run = *self.busy(i);
        let elapsed = self.quanta.saturating_sub(run.quantum);
        if let Some(d) = self.overload.deadline_quanta.filter(|d| elapsed >= *d) {
            return self.quarantine_budget(i, elapsed, d, "quanta");
        }
        if let Some(f) = self.overload.fuel.filter(|f| run.fuel >= *f) {
            return self.quarantine_budget(i, run.fuel, f, "instructions");
        }
        self.vm.set_current_thread(self.slots[i].thread);
        let pending = self.gc_pending;
        let stop = if pending {
            self.policy.safe_points()
        } else {
            SafePoints::None
        };
        let b = self.vm.burst(self.quantum, stop);
        self.report.suspension_checks += self.policy.tests(b.calls, b.allocs);
        self.busy(i).fuel += b.completed;
        // Suspension latency counts the instructions that ran on while
        // the collection waited; the one that finishes a request is not
        // among them.
        let finished = matches!(b.end, Ok(BurstEnd::Done(_)));
        if pending {
            self.latency += b.completed - u64::from(finished);
        }
        match b.end {
            Ok(BurstEnd::Budget) => Ok(()),
            Ok(BurstEnd::SafePoint(site)) => {
                // The test that found the collection pending; the `Rgc`
                // register makes it free.
                if self.policy != SuspendPolicy::EveryCallRgc {
                    self.report.suspension_checks += 1;
                }
                self.announce_park(i, site);
                Ok(())
            }
            Ok(BurstEnd::Done(_)) => {
                self.finish(i, None);
                Ok(())
            }
            Ok(BurstEnd::AllocBlocked(site)) => {
                self.gc_pending = true;
                self.busy(i).blocked = Some(site);
                self.announce_park(i, site);
                Ok(())
            }
            Err(e) => self.quarantine(i, e),
        }
    }

    /// The request slot `i` holds.
    fn busy(&mut self, i: usize) -> &mut Run {
        let run = self.slots[i].run.as_mut();
        run.expect("the scheduler runs busy slots only")
    }

    /// Announces that the burst of task `i` left it parked at `site`
    /// until the pending collection has run.
    fn announce_park(&mut self, i: usize, site: CallSiteId) {
        let task = i as u32;
        self.vm.obs.emit(|t_ns| GcEvent::TaskParked {
            t_ns,
            task,
            site: site.0,
        });
    }

    /// Records a per-request error, kills the slot's stack (its heap
    /// data dies at the next collection), and lets the siblings run on —
    /// the slot is recycled for the next queued request like any normal
    /// completion. Whole-machine errors — budget exhaustion and
    /// heap-verification failures — propagate instead: no task can make
    /// progress past them.
    fn quarantine(&mut self, i: usize, e: VmError) -> VmResult<()> {
        if matches!(
            e,
            VmError::StepLimit { .. }
                | VmError::VerificationFailed { .. }
                | VmError::Internal { .. }
        ) {
            return Err(e);
        }
        self.vm.kill_thread(self.slots[i].thread);
        self.finish(i, Some(e));
        Ok(())
    }

    /// All tasks parked: collect (growing if a previous collection freed
    /// nothing and the growth policy allows it), account, resume.
    ///
    /// When the heap is genuinely exhausted by live data and cannot
    /// grow, the tasks starving for memory are quarantined with a
    /// structured [`VmError::OutOfMemory`] — each blocked allocation has
    /// by then parked and retried exactly once after a full collection —
    /// and the surviving tasks resume.
    fn do_collection(&mut self) -> VmResult<()> {
        // Any live parked task can stand for the trigger (no operands are
        // pending: blocked allocations re-execute after the collection).
        let Some(i) = self.slots.iter().position(|s| s.run.is_some()) else {
            // Every slot drained before the pending collection ran (the
            // triggering task was quarantined). Nothing to collect for.
            self.gc_pending = false;
            self.proactive_gc = false;
            self.report.total_suspension_latency += self.latency;
            self.report.max_suspension_latency =
                self.report.max_suspension_latency.max(self.latency);
            self.latency = 0;
            return Ok(());
        };
        let thread = self.slots[i].thread;
        self.vm.set_current_thread(thread);
        let Some(site) = self.vm.parked_at(thread) else {
            return Err(VmError::Internal {
                detail: format!("parked slot {i} holds no call/alloc site"),
            });
        };
        let proactive = std::mem::replace(&mut self.proactive_gc, false);
        let allocs_now = self.vm.heap.stats.allocations;
        let mut collected = true;
        if proactive {
            // Watermark-triggered collection: the heap is under pressure
            // but nobody is starving, so skip the no-progress/exhaustion
            // accounting — this cycle is advisory, not a last resort.
            self.allocs_at_last_gc = Some(allocs_now);
            self.vm.collect_parked(site)?;
        } else if self.allocs_at_last_gc == Some(allocs_now) {
            // No allocation succeeded since the previous collection: the
            // heap is exhausted by live data. Grow within the bounded
            // policy (this collects internally) or degrade by
            // quarantining the starving tasks.
            if self.vm.grow_parked(site)? {
                self.allocs_at_last_gc = Some(allocs_now);
            } else {
                self.quarantine_starving(site)?;
                // The killed tasks' data is garbage now; let the next
                // exhaustion collect it rather than declaring
                // no-progress again.
                self.allocs_at_last_gc = None;
                collected = false;
            }
        } else {
            self.allocs_at_last_gc = Some(allocs_now);
            self.vm.collect_parked(site)?;
        }
        if collected {
            self.report.suspension_events += 1;
        }
        self.report.total_suspension_latency += self.latency;
        self.report.max_suspension_latency = self.report.max_suspension_latency.max(self.latency);
        self.latency = 0;
        // Everyone resumes: every slot still holding a request was parked.
        self.gc_pending = false;
        self.vm.resume_all();
        for (ix, slot) in self.slots.iter_mut().enumerate() {
            if let Some(run) = &mut slot.run {
                run.blocked = None;
                let task = ix as u32;
                self.vm.obs.emit(|t_ns| GcEvent::TaskResumed { t_ns, task });
            }
        }
        self.sample_heap();
        Ok(())
    }

    /// Quarantines ONE task blocked on an allocation (the lowest-index
    /// starving task, for determinism) with a structured OOM carrying its
    /// own failing site. Killing its stack turns its data into garbage,
    /// so the surviving blocked tasks get a fresh collection and retry
    /// before any of them is condemned in turn. At least one task must be
    /// blocked — only a blocked allocation raises a collection request.
    fn quarantine_starving(&mut self, trigger: CallSiteId) -> VmResult<()> {
        let live = self.vm.heap.used();
        let strategy = self.vm.strategy_name();
        let victim = self
            .slots
            .iter()
            .enumerate()
            .find_map(|(j, s)| Some((j, s.run?.blocked?)));
        let Some((j, bsite)) = victim else {
            // Defensive: nobody is waiting on memory yet nothing was
            // freed — surface the exhaustion globally.
            return Err(VmError::OutOfMemory {
                requested: 0,
                live,
                site: trigger.0,
                strategy,
            });
        };
        self.vm.kill_thread(self.slots[j].thread);
        self.finish(
            j,
            Some(VmError::OutOfMemory {
                requested: 0,
                live,
                site: bsite.0,
                strategy,
            }),
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfgc_ir::lower;
    use tfgc_syntax::parse_program;
    use tfgc_types::elaborate;

    fn compile(src: &str) -> IrProgram {
        lower(&elaborate(&parse_program(src).unwrap()).unwrap()).unwrap()
    }

    const WORKLOAD: &str = "
        fun build n = if n = 0 then [] else n :: build (n - 1) ;
        fun sum xs = case xs of [] => 0 | x :: r => x + sum r ;
        fun worker n = if n = 0 then 0 else (sum (build 20) + worker (n - 1)) - sum (build 20) ;
        fun spin n = if n = 0 then 0 else (let val x = n * n in spin (n - 1) end) ;
        0";

    fn results(report: &ServeReport) -> Vec<&str> {
        report.outcomes.iter().map(|o| o.result.as_str()).collect()
    }

    fn entries(prog: &IrProgram, names: &[(&str, i64)]) -> Vec<(FnId, i64)> {
        names
            .iter()
            .map(|(n, a)| (find_fn(prog, n).unwrap_or_else(|| panic!("no fn {n}")), *a))
            .collect()
    }

    #[test]
    fn two_allocating_tasks_share_the_heap() {
        let prog = compile(WORKLOAD);
        let es = entries(&prog, &[("worker", 30), ("worker", 30)]);
        for strategy in Strategy::ALL {
            let mut cfg = TaskConfig::new(strategy);
            // The no-liveness strategies retain each frame's dead lists,
            // so they need headroom.
            cfg.heap_words = 1 << 12;
            let report = run_tasks(&prog, &es, cfg).unwrap_or_else(|e| panic!("{strategy}: {e}"));
            assert_eq!(results(&report), vec!["0", "0"], "{strategy}");
            assert!(report.suspension_events > 0, "{strategy}: no collections");
        }
    }

    #[test]
    fn policies_agree_on_results() {
        let prog = compile(WORKLOAD);
        let es = entries(&prog, &[("worker", 20), ("worker", 25), ("worker", 15)]);
        let mut baseline: Option<Vec<RequestOutcome>> = None;
        for policy in [
            SuspendPolicy::AllocationOnly,
            SuspendPolicy::EveryCall,
            SuspendPolicy::EveryCallRgc,
        ] {
            let mut cfg = TaskConfig::new(Strategy::Compiled);
            cfg.heap_words = 1 << 11;
            cfg.policy = policy;
            let report = run_tasks(&prog, &es, cfg).unwrap_or_else(|e| panic!("{policy}: {e}"));
            match &baseline {
                None => baseline = Some(report.outcomes),
                Some(b) => assert_eq!(&report.outcomes, b, "{policy}"),
            }
        }
    }

    #[test]
    fn every_call_pays_checks_rgc_does_not() {
        let prog = compile(WORKLOAD);
        let es = entries(&prog, &[("worker", 20), ("worker", 20)]);
        let mut every = TaskConfig::new(Strategy::Compiled);
        every.heap_words = 1 << 11;
        every.policy = SuspendPolicy::EveryCall;
        let r_every = run_tasks(&prog, &es, every).unwrap();

        let mut rgc = TaskConfig::new(Strategy::Compiled);
        rgc.heap_words = 1 << 11;
        rgc.policy = SuspendPolicy::EveryCallRgc;
        let r_rgc = run_tasks(&prog, &es, rgc).unwrap();

        assert!(r_every.suspension_checks > 0);
        assert_eq!(r_rgc.suspension_checks, 0);
        assert_eq!(r_every.outcomes, r_rgc.outcomes);
    }

    #[test]
    fn alloc_only_has_higher_latency_than_every_call() {
        // One allocating worker plus one compute-heavy spinner that calls
        // but rarely allocates: under alloc-only the spinner keeps
        // running after exhaustion; under every-call it parks at its next
        // call.
        let prog = compile(WORKLOAD);
        let es = entries(&prog, &[("worker", 40), ("spin", 3000)]);
        let mk = |policy| {
            let mut cfg = TaskConfig::new(Strategy::Compiled);
            cfg.heap_words = 1 << 11;
            cfg.policy = policy;
            cfg.quantum = 32;
            cfg
        };
        let alloc_only = run_tasks(&prog, &es, mk(SuspendPolicy::AllocationOnly)).unwrap();
        let every_call = run_tasks(&prog, &es, mk(SuspendPolicy::EveryCall)).unwrap();
        assert_eq!(alloc_only.outcomes, every_call.outcomes);
        assert!(
            alloc_only.suspension_events > 0 && every_call.suspension_events > 0,
            "both policies must collect"
        );
        assert!(
            alloc_only.max_suspension_latency >= every_call.max_suspension_latency,
            "alloc-only {} < every-call {}",
            alloc_only.max_suspension_latency,
            every_call.max_suspension_latency
        );
    }

    #[test]
    fn tasks_see_globals() {
        let prog = compile(
            "val base = [100, 200] ;
             fun hd xs = case xs of [] => 0 | x :: _ => x ;
             fun taskf n = hd base + n ;
             0",
        );
        let es = entries(&prog, &[("taskf", 1), ("taskf", 2)]);
        let report = run_tasks(&prog, &es, TaskConfig::new(Strategy::Compiled)).unwrap();
        assert_eq!(results(&report), vec!["101", "102"]);
    }

    #[test]
    fn many_tasks_interleave_prints_deterministically() {
        let prog = compile(
            "fun chatty n = if n = 0 then 0 else (print n; chatty (n - 1)) ;
             0",
        );
        let es = entries(&prog, &[("chatty", 3), ("chatty", 3)]);
        let a = run_tasks(&prog, &es, TaskConfig::new(Strategy::Compiled)).unwrap();
        let b = run_tasks(&prog, &es, TaskConfig::new(Strategy::Compiled)).unwrap();
        assert_eq!(a.printed, b.printed, "scheduler must be deterministic");
        let mut sorted = a.printed.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 1, 2, 2, 3, 3]);
    }

    /// Satellite: cooperative-tasking OOM. The exhausted allocation must
    /// park, collect via the scheduler, and retry exactly once before
    /// the task is quarantined with a structured error.
    #[test]
    fn exhausted_heap_parks_collects_and_retries_once_before_error() {
        let prog = compile(
            "fun build n = if n = 0 then [] else n :: build (n - 1) ;
             fun len xs = case xs of [] => 0 | _ :: r => 1 + len r ;
             fun hog n = len (build n) ;
             0",
        );
        let es = entries(&prog, &[("hog", 2000)]);
        let mut cfg = TaskConfig::new(Strategy::Compiled);
        cfg.heap_words = 1 << 9; // far too small for 2000 live cons cells
        let report = run_tasks(&prog, &es, cfg).unwrap();
        let err = report.outcomes[0]
            .error
            .as_ref()
            .expect("starving task must be quarantined");
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
        // The failing allocation's own site is recorded.
        let VmError::OutOfMemory { site, .. } = err else {
            unreachable!()
        };
        assert!(
            prog.sites.len() > *site as usize,
            "site {site} out of range"
        );
        assert!(report.outcomes[0]
            .result
            .starts_with("<error: out of memory"));
        // The block parked and a collection ran before the error: the
        // no-progress check only fires after a full collect + retry.
        assert!(report.suspension_events >= 1);
    }

    #[test]
    fn oom_task_is_quarantined_while_siblings_finish() {
        let prog = compile(
            "fun build n = if n = 0 then [] else n :: build (n - 1) ;
             fun len xs = case xs of [] => 0 | _ :: r => 1 + len r ;
             fun hog n = len (build n) ;
             fun sum xs = case xs of [] => 0 | x :: r => x + sum r ;
             fun worker n = if n = 0 then 0 else (sum (build 20) + worker (n - 1)) - sum (build 20) ;
             0",
        );
        let es = entries(&prog, &[("hog", 4000), ("worker", 25)]);
        for strategy in Strategy::ALL {
            let mut cfg = TaskConfig::new(strategy);
            // Headroom for the no-liveness strategies' retained dead
            // lists, yet far below hog's ~8000-word live set.
            cfg.heap_words = 1 << 12;
            let report = run_tasks(&prog, &es, cfg).unwrap_or_else(|e| panic!("{strategy}: {e}"));
            assert!(
                matches!(report.outcomes[0].error, Some(VmError::OutOfMemory { .. })),
                "{strategy}: hog must starve"
            );
            assert_eq!(
                report.outcomes[1].error, None,
                "{strategy}: worker must run on"
            );
            assert_eq!(report.outcomes[1].result, "0", "{strategy}");
        }
    }

    #[test]
    fn per_task_error_is_quarantined_not_fatal() {
        let prog = compile(
            "fun crash n = n div (n - n) ;
             fun ok n = n + 1 ;
             0",
        );
        let es = entries(&prog, &[("crash", 7), ("ok", 41)]);
        let report = run_tasks(&prog, &es, TaskConfig::new(Strategy::Compiled)).unwrap();
        assert!(
            matches!(report.outcomes[0].error, Some(VmError::DivideByZero { .. })),
            "{:?}",
            report.outcomes[0].error
        );
        assert!(report.outcomes[0]
            .result
            .starts_with("<error: division by zero"));
        assert_eq!(report.outcomes[1].result, "42");
    }

    #[test]
    fn bounded_growth_rescues_oversized_live_set() {
        let prog = compile(
            "fun build n = if n = 0 then [] else n :: build (n - 1) ;
             fun len xs = case xs of [] => 0 | _ :: r => 1 + len r ;
             fun hog n = len (build n) ;
             0",
        );
        let es = entries(&prog, &[("hog", 2000)]);
        let mut cfg = TaskConfig::new(Strategy::Compiled);
        cfg.heap_words = 1 << 9;
        cfg.heap_max_words = Some(1 << 15);
        cfg.verify_heap = true;
        let report = run_tasks(&prog, &es, cfg).unwrap();
        assert_eq!(report.outcomes[0].error, None);
        assert_eq!(report.outcomes[0].result, "2000");
        assert!(report.heap.grows > 0, "growth policy must have engaged");
    }

    /// Builds a request queue cycling through `(name, arg, kind)`
    /// triples.
    fn requests(prog: &IrProgram, specs: &[(&str, i64, u32)]) -> Vec<Request> {
        specs
            .iter()
            .map(|(n, a, k)| {
                Request::new(
                    find_fn(prog, n).unwrap_or_else(|| panic!("no fn {n}")),
                    *a,
                    *k,
                )
            })
            .collect()
    }

    #[test]
    fn pool_smaller_than_queue_drains_every_request() {
        let prog = compile(WORKLOAD);
        let q: Vec<Request> = (0..12)
            .map(|i| Request::new(find_fn(&prog, "worker").unwrap(), 5 + (i % 3), i as u32))
            .collect();
        for strategy in Strategy::ALL {
            let mut cfg = TaskConfig::new(strategy);
            cfg.heap_words = 1 << 12;
            let (report, _) =
                serve_requests_overload(&prog, &q, 3, 0, cfg, OverloadConfig::none(), Obs::null())
                    .unwrap_or_else(|e| panic!("{strategy}: {e}"));
            assert_eq!(report.outcomes.len(), 12, "{strategy}");
            assert_eq!(report.completed, 12, "{strategy}");
            assert_eq!(report.failed, 0, "{strategy}");
            for (i, o) in report.outcomes.iter().enumerate() {
                assert_eq!(o.kind, i as u32, "{strategy}: kinds ride along");
                assert_eq!(o.result, "0", "{strategy}: request {i}");
            }
        }
    }

    #[test]
    fn serve_is_deterministic_and_observation_neutral() {
        let prog = compile(WORKLOAD);
        let q = requests(
            &prog,
            &[
                ("worker", 20, 0),
                ("spin", 500, 1),
                ("worker", 15, 0),
                ("worker", 10, 0),
                ("spin", 300, 1),
                ("worker", 25, 0),
            ],
        );
        let mut cfg = TaskConfig::new(Strategy::Compiled);
        cfg.heap_words = 1 << 11;
        let (a, _) = serve_requests_overload(
            &prog,
            &q,
            2,
            0,
            cfg.clone(),
            OverloadConfig::none(),
            Obs::null(),
        )
        .unwrap();
        let (b, _) = serve_requests_overload(
            &prog,
            &q,
            2,
            8,
            cfg,
            OverloadConfig::none(),
            Obs::ring(1 << 10),
        )
        .unwrap();
        assert_eq!(a.outcomes, b.outcomes, "telemetry must not steer requests");
        assert_eq!(a.printed, b.printed);
        assert_eq!(a.heap, b.heap);
        assert_eq!(a.mutator, b.mutator);
        assert_eq!(a.suspension_events, b.suspension_events);
    }

    #[test]
    fn quarantined_request_does_not_drop_service() {
        let prog = compile(
            "fun crash n = n div (n - n) ;
             fun ok n = n + 1 ;
             0",
        );
        let q = requests(
            &prog,
            &[
                ("ok", 1, 0),
                ("crash", 7, 1),
                ("ok", 2, 0),
                ("ok", 3, 0),
                ("crash", 9, 1),
                ("ok", 4, 0),
            ],
        );
        let (report, _) = serve_requests_overload(
            &prog,
            &q,
            2,
            0,
            TaskConfig::new(Strategy::Compiled),
            OverloadConfig::none(),
            Obs::null(),
        )
        .unwrap();
        assert_eq!(report.completed, 4);
        assert_eq!(report.failed, 2);
        assert!(
            matches!(report.outcomes[1].error, Some(VmError::DivideByZero { .. })),
            "{:?}",
            report.outcomes[1].error
        );
        // Requests queued *behind* the crash still ran on the recycled
        // slot.
        assert_eq!(report.outcomes[5].result, "5");
        assert_eq!(report.outcomes[3].result, "4");
    }

    #[test]
    fn serve_emits_request_lifecycle_and_occupancy_events() {
        let prog = compile(WORKLOAD);
        let q = requests(&prog, &[("worker", 10, 3), ("worker", 12, 4)]);
        let mut cfg = TaskConfig::new(Strategy::Compiled);
        cfg.heap_words = 1 << 12;
        let (report, obs) = serve_requests_overload(
            &prog,
            &q,
            1,
            4,
            cfg,
            OverloadConfig::none(),
            Obs::ring(1 << 12),
        )
        .unwrap();
        assert_eq!((report.completed, report.failed), (2, 0));
        assert!(report.peak_heap_words_sampled > 0);
        let rec = obs.into_recorder().expect("ring sink");
        assert_eq!(rec.latency_hist().count(), 2);
        let events = rec.events();
        let starts = events
            .iter()
            .filter(|e| matches!(e, GcEvent::RequestStart { .. }))
            .count();
        assert_eq!(starts, 2);
        assert!(
            events
                .iter()
                .any(|e| matches!(e, GcEvent::HeapSample { .. })),
            "quantum sampling must emit occupancy events"
        );
    }

    #[test]
    fn shared_heap_structures_survive_collections() {
        let prog = compile(
            "val keep = [1, 2, 3, 4, 5] ;
             fun sum xs = case xs of [] => 0 | x :: r => x + sum r ;
             fun build n = if n = 0 then [] else n :: build (n - 1) ;
             fun churner n = if n = 0 then sum keep else (churner (n - 1); (build 15; sum keep)) ;
             0",
        );
        let es = entries(&prog, &[("churner", 40), ("churner", 40)]);
        for strategy in Strategy::ALL {
            let mut cfg = TaskConfig::new(strategy);
            cfg.heap_words = 1 << 11;
            let report = run_tasks(&prog, &es, cfg).unwrap_or_else(|e| panic!("{strategy}: {e}"));
            assert_eq!(results(&report), vec!["15", "15"], "{strategy}");
            assert!(report.suspension_events > 0, "{strategy}");
        }
    }

    // ---- overload management -------------------------------------------

    const RUNAWAY: &str = "
        fun runaway n = if n = 0 then 0 else runaway (n + 1) ;
        fun ok n = n + 1 ;
        0";

    fn conservation(report: &ServeReport) {
        assert_eq!(
            report.completed + report.failed + report.shed,
            report.outcomes.len() as u64,
            "conservation: completed + failed + shed == submitted"
        );
    }

    /// Acceptance: a seeded runaway request is quarantined with a
    /// structured `DeadlineExceeded` within the service's deadline while
    /// sibling requests complete normally.
    #[test]
    fn service_wide_default_deadline_applies_to_plain_requests() {
        let prog = compile(RUNAWAY);
        for (deadline, oks) in [(25, &[1][..]), (40, &[41, 1][..])] {
            let mut specs = vec![("runaway", 1, 0)];
            specs.extend(oks.iter().map(|a| ("ok", *a, 1)));
            let q = requests(&prog, &specs);
            let cfg = TaskConfig::new(Strategy::Compiled);
            let over = OverloadConfig {
                deadline_quanta: Some(deadline),
                ..OverloadConfig::none()
            };
            let (report, _) =
                serve_requests_overload(&prog, &q, 2, 0, cfg, over, Obs::null()).unwrap();
            assert!(
                matches!(
                    report.outcomes[0].error,
                    Some(VmError::DeadlineExceeded {
                        unit: "quanta",
                        budget,
                        ..
                    }) if budget == deadline
                ),
                "{:?}",
                report.outcomes[0].error
            );
            assert!(report.outcomes[0]
                .result
                .starts_with("<error: deadline exceeded"));
            for (o, a) in report.outcomes[1..].iter().zip(oks) {
                assert_eq!(o.result, (a + 1).to_string());
            }
            let counts = (report.completed, report.failed, report.shed);
            assert_eq!(counts, (oks.len() as u64, 1, 0));
            conservation(&report);
        }
    }

    #[test]
    fn fuel_budget_quarantines_in_instructions() {
        let prog = compile(RUNAWAY);
        let q = requests(&prog, &[("runaway", 1, 0), ("ok", 6, 1)]);
        let cfg = TaskConfig::new(Strategy::Compiled);
        let over = OverloadConfig {
            fuel: Some(500),
            ..OverloadConfig::none()
        };
        let (report, _) = serve_requests_overload(&prog, &q, 2, 0, cfg, over, Obs::null()).unwrap();
        let Some(VmError::DeadlineExceeded {
            spent,
            budget: 500,
            unit: "instructions",
        }) = report.outcomes[0].error
        else {
            panic!("{:?}", report.outcomes[0].error);
        };
        assert!(spent >= 500, "quarantined only once past the budget");
        assert_eq!(report.outcomes[1].result, "7");
        conservation(&report);
    }

    #[test]
    fn bounded_queue_with_reject_sheds_overflow() {
        let prog = compile(
            "fun crash n = n div (n - n) ;
             0",
        );
        let q: Vec<Request> = (0..6)
            .map(|_| Request::new(find_fn(&prog, "crash").unwrap(), 1, 0))
            .collect();
        let cfg = TaskConfig::new(Strategy::Compiled);
        let over = OverloadConfig {
            queue_cap: 1,
            ..OverloadConfig::none()
        };
        let (report, _) = serve_requests_overload(&prog, &q, 1, 0, cfg, over, Obs::null()).unwrap();
        assert_eq!((report.completed, report.failed, report.shed), (0, 2, 4));
        for o in report.outcomes.iter().filter(|o| o.shed.is_some()) {
            assert_eq!(o.shed, Some("queue-full"));
            assert_eq!(o.result, "<shed: queue-full>");
            assert!(o.error.is_none(), "shed is an outcome, not an error");
        }
        conservation(&report);
    }

    /// Backpressure: with retry-backoff, refused arrivals come back and
    /// are admitted as the pool drains — nothing is lost.
    #[test]
    fn retry_backoff_drains_everything_under_pressure() {
        let prog = compile(RUNAWAY);
        let q: Vec<Request> = (0..6)
            .map(|i| Request::new(find_fn(&prog, "ok").unwrap(), i, 0))
            .collect();
        let cfg = TaskConfig::new(Strategy::Compiled);
        let over = OverloadConfig {
            queue_cap: 1,
            admission: AdmissionPolicy::RetryBackoff {
                max_attempts: 10,
                base: 2,
            },
            seed: 7,
            ..OverloadConfig::none()
        };
        let (report, _) =
            serve_requests_overload(&prog, &q, 1, 0, cfg.clone(), over, Obs::null()).unwrap();
        assert_eq!(
            (report.completed, report.shed),
            (6, 0),
            "{:?}",
            report.outcomes
        );
        conservation(&report);
        // Seeded determinism: the identical run resolves identically.
        let (again, _) = serve_requests_overload(&prog, &q, 1, 0, cfg, over, Obs::null()).unwrap();
        assert_eq!(report.outcomes, again.outcomes);
    }

    #[test]
    fn exhausted_backoff_sheds_with_its_own_reason() {
        let prog = compile(
            "fun crash n = n div (n - n) ;
             0",
        );
        let q: Vec<Request> = (0..5)
            .map(|_| Request::new(find_fn(&prog, "crash").unwrap(), 1, 0))
            .collect();
        let cfg = TaskConfig::new(Strategy::Compiled);
        let over = OverloadConfig {
            queue_cap: 1,
            admission: AdmissionPolicy::RetryBackoff {
                max_attempts: 0,
                base: 1,
            },
            ..OverloadConfig::none()
        };
        let (report, _) = serve_requests_overload(&prog, &q, 1, 0, cfg, over, Obs::null()).unwrap();
        assert!(report.shed >= 1);
        for o in report.outcomes.iter().filter(|o| o.shed.is_some()) {
            assert_eq!(o.shed, Some("backoff-exhausted"));
        }
        conservation(&report);
    }

    /// Degrade sheds only low-priority kinds; high-priority arrivals
    /// wait for room instead.
    #[test]
    fn degrade_sheds_low_priority_kinds_only() {
        let prog = compile(RUNAWAY);
        let specs = [0u32, 5, 0, 5, 0, 5];
        let q: Vec<Request> = specs
            .iter()
            .map(|k| Request::new(find_fn(&prog, "ok").unwrap(), 1, *k))
            .collect();
        let cfg = TaskConfig::new(Strategy::Compiled);
        let over = OverloadConfig {
            queue_cap: 1,
            admission: AdmissionPolicy::Degrade { low_kind_min: 1 },
            ..OverloadConfig::none()
        };
        let (report, _) = serve_requests_overload(&prog, &q, 1, 0, cfg, over, Obs::null()).unwrap();
        for o in &report.outcomes {
            if o.kind == 0 {
                assert!(o.is_completed(), "high priority must complete: {o:?}");
            }
            if let Some(reason) = o.shed {
                assert_eq!(reason, "degrade");
                assert!(o.kind >= 1, "only low-priority kinds degrade");
            }
        }
        assert!(
            report.shed >= 1,
            "pressure must shed some low-priority work"
        );
        conservation(&report);
    }

    /// Acceptance: at the hard watermark the service sheds *new*
    /// admissions; requests already in flight run to completion and are
    /// never quarantined by pressure.
    #[test]
    fn hard_watermark_sheds_admissions_not_in_flight_work() {
        let prog = compile(RUNAWAY);
        let q: Vec<Request> = (0..4)
            .map(|i| Request::new(find_fn(&prog, "ok").unwrap(), i, 0))
            .collect();
        let cfg = TaskConfig::new(Strategy::Compiled);
        let over = OverloadConfig {
            // Degenerate 0% hard watermark: pressure is permanent, so
            // only the first arrival (idle service) is admitted.
            hard_watermark_pct: Some(0),
            ..OverloadConfig::none()
        };
        let (report, _) = serve_requests_overload(&prog, &q, 2, 0, cfg, over, Obs::null()).unwrap();
        assert!(
            report.outcomes[0].is_completed(),
            "{:?}",
            report.outcomes[0]
        );
        assert_eq!(report.outcomes[0].result, "1");
        for o in report.outcomes.iter().filter(|o| o.shed.is_some()) {
            assert_eq!(o.shed, Some("hard-watermark"));
        }
        assert!(report.shed >= 1);
        assert_eq!(report.failed, 0, "in-flight work is never quarantined");
        conservation(&report);
    }

    /// Soft watermark: crossing it triggers a proactive collection while
    /// requests still complete normally.
    #[test]
    fn soft_watermark_collects_proactively() {
        let prog = compile(WORKLOAD);
        let q = requests(&prog, &[("worker", 30, 0), ("worker", 30, 1)]);
        let mut cfg = TaskConfig::new(Strategy::Compiled);
        cfg.heap_words = 1 << 11;
        let baseline_cfg = cfg.clone();
        let (baseline, _) = serve_requests_overload(
            &prog,
            &q,
            2,
            0,
            baseline_cfg,
            OverloadConfig::none(),
            Obs::null(),
        )
        .unwrap();
        let over = OverloadConfig {
            soft_watermark_pct: Some(20),
            ..OverloadConfig::none()
        };
        let (report, _) = serve_requests_overload(&prog, &q, 2, 0, cfg, over, Obs::null()).unwrap();
        assert_eq!(report.completed, 2, "{:?}", report.outcomes);
        assert!(
            report.gc.collections > baseline.gc.collections,
            "proactive cycles must add collections: {} vs {}",
            report.gc.collections,
            baseline.gc.collections
        );
        conservation(&report);
    }

    /// Breaker opens after K consecutive quarantines of one kind.
    #[test]
    fn breaker_opens_after_consecutive_quarantines() {
        let prog = compile(
            "fun crash n = n div (n - n) ;
             0",
        );
        let q: Vec<Request> = (0..6)
            .map(|_| Request::new(find_fn(&prog, "crash").unwrap(), 1, 0))
            .collect();
        let cfg = TaskConfig::new(Strategy::Compiled);
        let over = OverloadConfig {
            queue_cap: 1,
            breaker_threshold: 2,
            breaker_cooldown: 64,
            ..OverloadConfig::none()
        };
        let (report, _) = serve_requests_overload(&prog, &q, 1, 0, cfg, over, Obs::null()).unwrap();
        assert_eq!(report.breaker_trips, 1);
        assert_eq!(report.breaker_final, vec![(0, "open")]);
        assert_eq!(report.failed, 2, "exactly threshold quarantines ran");
        conservation(&report);
    }

    /// Open breaker fast-rejects re-offered arrivals, then the half-open
    /// probe closes it on success.
    #[test]
    fn breaker_fast_rejects_then_probe_closes() {
        let prog = compile(
            "fun crash n = n div (n - n) ;
             fun ok n = n + 1 ;
             0",
        );
        let crash = find_fn(&prog, "crash").unwrap();
        let ok = find_fn(&prog, "ok").unwrap();
        let q = vec![
            Request::new(crash, 1, 0),
            Request::new(crash, 1, 0),
            Request::new(ok, 1, 0),
            Request::new(ok, 2, 0),
        ];
        let cfg = TaskConfig::new(Strategy::Compiled);
        let mk = |cooldown| OverloadConfig {
            queue_cap: 1,
            admission: AdmissionPolicy::RetryBackoff {
                max_attempts: 10,
                base: 1,
            },
            breaker_threshold: 2,
            breaker_cooldown: cooldown,
            ..OverloadConfig::none()
        };
        // Long cooldown: the re-offered ok arrival hits the open breaker
        // and fast-rejects.
        let (rejecting, _) =
            serve_requests_overload(&prog, &q, 1, 0, cfg.clone(), mk(1_000), Obs::null()).unwrap();
        assert_eq!(rejecting.breaker_trips, 1);
        assert!(
            rejecting
                .outcomes
                .iter()
                .any(|o| o.shed == Some("breaker-open")),
            "{:?}",
            rejecting.outcomes
        );
        conservation(&rejecting);
        // Zero cooldown: the same arrival becomes the half-open probe,
        // succeeds, and closes the breaker.
        let (closing, _) =
            serve_requests_overload(&prog, &q, 1, 0, cfg, mk(0), Obs::null()).unwrap();
        assert_eq!(
            closing.breaker_final,
            vec![(0, "closed")],
            "{:?}",
            closing.outcomes
        );
        assert_eq!(closing.shed, 0, "{:?}", closing.outcomes);
        conservation(&closing);
    }

    /// Graceful drain: once the drain quantum passes, re-offered
    /// arrivals are shed while admitted work finishes.
    #[test]
    fn drain_sheds_pending_offers_and_finishes_in_flight() {
        let prog = compile(WORKLOAD);
        let q: Vec<Request> = (0..5)
            .map(|i| Request::new(find_fn(&prog, "worker").unwrap(), 8, i))
            .collect();
        let mut cfg = TaskConfig::new(Strategy::Compiled);
        cfg.heap_words = 1 << 12;
        let over = OverloadConfig {
            queue_cap: 1,
            admission: AdmissionPolicy::RetryBackoff {
                max_attempts: 10,
                base: 4,
            },
            drain_after: Some(1),
            ..OverloadConfig::none()
        };
        let (report, _) = serve_requests_overload(&prog, &q, 1, 0, cfg, over, Obs::null()).unwrap();
        assert!(report.completed >= 1, "admitted work finishes");
        assert!(report.shed >= 1, "pending offers are shed");
        for o in report.outcomes.iter().filter(|o| o.shed.is_some()) {
            assert_eq!(o.shed, Some("drain"));
        }
        conservation(&report);
    }

    /// The overload engine is observation-neutral: shed decisions,
    /// breaker transitions, and outcomes are bit-identical between the
    /// null sink and a recorder.
    #[test]
    fn overload_decisions_are_observation_neutral() {
        let prog = compile(WORKLOAD);
        let q: Vec<Request> = (0..8)
            .map(|i| Request::new(find_fn(&prog, "worker").unwrap(), 6 + (i % 3), i as u32 % 2))
            .collect();
        let mut cfg = TaskConfig::new(Strategy::Compiled);
        cfg.heap_words = 1 << 12;
        let over = OverloadConfig {
            queue_cap: 1,
            admission: AdmissionPolicy::RetryBackoff {
                max_attempts: 6,
                base: 2,
            },
            deadline_quanta: Some(2_000),
            soft_watermark_pct: Some(60),
            hard_watermark_pct: Some(95),
            breaker_threshold: 2,
            breaker_cooldown: 16,
            seed: 11,
            ..OverloadConfig::none()
        };
        let (a, _) =
            serve_requests_overload(&prog, &q, 2, 0, cfg.clone(), over, Obs::null()).unwrap();
        let (b, _) =
            serve_requests_overload(&prog, &q, 2, 8, cfg, over, Obs::ring(1 << 10)).unwrap();
        assert_eq!(a.outcomes, b.outcomes, "telemetry must not steer admission");
        assert_eq!(a.breaker_trips, b.breaker_trips);
        assert_eq!(a.breaker_final, b.breaker_final);
        assert_eq!(a.heap, b.heap);
        assert_eq!(a.mutator, b.mutator);
        conservation(&a);
    }

    /// An overload run in which every mechanism fires: runaways breach
    /// their deadline, two in a row trip kind 1's breaker, a half-open
    /// probe closes it again, and a tight queue with backoff sheds and
    /// defers arrivals while a generational heap is sampled.
    fn stormy_serve(obs: Obs) -> (ServeReport, Obs) {
        let prog = compile(
            "fun build n = if n = 0 then [] else n :: build (n - 1) ;
             fun sum xs = case xs of [] => 0 | x :: r => x + sum r ;
             fun worker n = if n = 0 then 0 else (sum (build 20) + worker (n - 1)) - sum (build 20) ;
             fun runaway n = if n = 0 then 0 else runaway (n + 1) ;
             fun ok n = n + 1 ;
             0",
        );
        let (worker, runaway, ok) = (
            find_fn(&prog, "worker").unwrap(),
            find_fn(&prog, "runaway").unwrap(),
            find_fn(&prog, "ok").unwrap(),
        );
        let q: Vec<Request> = (0..48)
            .map(|i| match (i % 3, (i / 3) % 4) {
                (0, 0 | 1) => Request::new(runaway, 1, 1),
                (0, _) => Request::new(ok, i, 1),
                _ => Request::new(worker, 4 + i % 5, 0),
            })
            .collect();
        let mut cfg = TaskConfig::new(Strategy::Compiled);
        cfg.heap_words = 1 << 10;
        cfg.heap_max_words = Some(1 << 12);
        cfg.nursery_words = Some(1 << 8);
        let over = OverloadConfig {
            queue_cap: 2,
            admission: AdmissionPolicy::RetryBackoff {
                max_attempts: 10,
                base: 4,
            },
            deadline_quanta: Some(200),
            soft_watermark_pct: Some(60),
            hard_watermark_pct: Some(90),
            breaker_threshold: 2,
            breaker_cooldown: 64,
            seed: 5,
            ..OverloadConfig::none()
        };
        serve_requests_overload(&prog, &q, 2, 4, cfg, over, obs).unwrap()
    }

    /// The report's sampled peaks, in field order.
    fn peaks(r: &ServeReport) -> [u64; 6] {
        [
            r.peak_heap_words_sampled,
            r.peak_live_words_sampled,
            r.peak_nursery_words_sampled,
            u64::from(r.max_in_flight),
            u64::from(r.max_queued),
            u64::from(r.max_waiting),
        ]
    }

    /// The report is the one owner of the run's counts: folding the
    /// complete event stream by hand reproduces every shed reason,
    /// deadline breach, breaker transition and sampled peak in it.
    #[test]
    fn report_equals_the_folded_event_stream() {
        let (report, obs) = stormy_serve(Obs::ring(1 << 16));
        let ring = obs.into_recorder().expect("ring sink");
        assert_eq!(ring.dropped(), 0, "the ring must keep every event");
        let mut shed = BTreeMap::new();
        let mut deadlines = 0;
        let mut breaker = [0u64; 3];
        let mut folded = [0u64; 6];
        for e in ring.events() {
            match *e {
                GcEvent::RequestShed { reason, .. } => *shed.entry(reason).or_insert(0) += 1,
                GcEvent::DeadlineExceeded { .. } => deadlines += 1,
                GcEvent::BreakerOpen { .. } => breaker[0] += 1,
                GcEvent::BreakerHalfOpen { .. } => breaker[1] += 1,
                GcEvent::BreakerClose { .. } => breaker[2] += 1,
                GcEvent::HeapSample {
                    heap_words,
                    live_words,
                    nursery_words,
                    in_flight,
                    ..
                } => {
                    let sample = [heap_words, live_words, nursery_words, in_flight.into()];
                    for (peak, v) in folded.iter_mut().zip(sample) {
                        *peak = (*peak).max(v);
                    }
                }
                GcEvent::BacklogSample {
                    queued, waiting, ..
                } => {
                    folded[4] = folded[4].max(queued.into());
                    folded[5] = folded[5].max(waiting.into());
                }
                _ => {}
            }
        }
        assert_eq!(report.shed_by_reason(), shed);
        assert_eq!(report.deadline_exceeded(), deadlines);
        let transitions = [
            report.breaker_trips,
            report.breaker_half_opens,
            report.breaker_closes,
        ];
        assert_eq!(transitions, breaker);
        assert_eq!(peaks(&report), folded);
        // The fold proves nothing unless every mechanism fired.
        assert!(shed.len() >= 2, "{shed:?}");
        assert!(deadlines > 0);
        assert!(breaker.iter().all(|n| *n > 0), "{breaker:?}");
        assert!(folded.iter().all(|p| *p > 0), "{folded:?}");
        conservation(&report);
    }

    /// Sampling feeds the report whatever the sink: the same
    /// `sample_every` gives the same peaks with no sink at all.
    #[test]
    fn sampled_peaks_do_not_depend_on_the_sink() {
        let (plain, _) = stormy_serve(Obs::null());
        let (observed, _) = stormy_serve(Obs::ring(1 << 10));
        assert_eq!(peaks(&plain), peaks(&observed));
        assert!(peaks(&plain).iter().all(|p| *p > 0), "{:?}", peaks(&plain));
    }

    /// The seeded stall fault arms on a task thread and is then caught
    /// by the deadline budget — the per-class detection path.
    #[test]
    fn stall_fault_is_detected_by_deadline_budget() {
        let prog = compile(WORKLOAD);
        let q = requests(&prog, &[("worker", 20, 0), ("worker", 20, 1)]);
        let mut cfg = TaskConfig::new(Strategy::Compiled);
        cfg.heap_words = 1 << 12;
        cfg.fault_plan = Some(FaultPlan {
            stall_at: Some(8),
            ..FaultPlan::none()
        });
        let over = OverloadConfig {
            deadline_quanta: Some(2_000),
            ..OverloadConfig::none()
        };
        let (report, _) = serve_requests_overload(&prog, &q, 2, 0, cfg, over, Obs::null()).unwrap();
        assert!(
            report
                .outcomes
                .iter()
                .any(|o| matches!(o.error, Some(VmError::DeadlineExceeded { .. }))),
            "the stalled handler must breach its deadline: {:?}",
            report.outcomes
        );
        assert!(
            report.outcomes.iter().any(|o| o.is_completed()),
            "the sibling must complete: {:?}",
            report.outcomes
        );
        conservation(&report);
    }
}
