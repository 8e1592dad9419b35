//! The TFML virtual machine.
//!
//! Executes the bytecode of [`tfgc_ir`] over the heap of
//! [`tfgc_runtime`], triggering the configured collector at allocation
//! sites — and only there: "garbage collection can only be initiated by a
//! call to a procedure that allocates memory" (§2.1). Activation records
//! live in one word array per thread, laid out per [`tfgc_gc::stack`]
//! (Figure 1); the return word pushed at each call is the gc_word key the
//! collector uses.
//!
//! The machine supports multiple threads of control over one shared heap
//! (§4's tasks); the cooperative scheduler lives in `tfgc-tasking`. A
//! single-task program uses thread 0 only.
//!
//! There is one instruction body, the dispatch loop behind
//! [`Vm::burst`]. A burst runs the current thread for up to a budget of
//! instructions with the thread's `pc`, frame pointer, code slice and
//! stack `Vec` held in locals: they are moved out of the thread's state
//! on entry and written back on exit and around each out-of-line path
//! that needs the whole machine (an allocation that collects, grows the
//! heap, blocks or meets a fault hook). The step limit is folded into the
//! budget and a halted thread is caught once, at entry. Every entry point runs
//! this body: [`Vm::run`] is an unbounded burst, [`Vm::step`] a burst of
//! one, and the task scheduler runs a burst per quantum, which stops
//! before the next safe point while a collection is pending. The body
//! builds no Rust heap value on the common path: a call writes the
//! callee frame in place from the caller's slots, an allocation bumps the
//! heap and copies its payload from the frame, and `EvalDesc` reads its
//! template and the frame's descriptor slots where they lie.
//!
//! Each thread also keeps a *floor* for the collector: no frame based
//! below it has run or been popped since the last collection. `Return`
//! lowers it to the caller's base with one `min`, a collection raises it
//! to the top frame's base, and spawning, respawning or killing the
//! thread resets it to 0 with the thread's walk record. The collector
//! decodes and keys only the frames at or above it, and replays the
//! rest from the record of its last walk ([`tfgc_gc::WalkRecord`]).

use crate::error::{VmError, VmResult};
use crate::render::render_value;
use crate::stats::MutatorStats;
use std::fmt;
use std::ops::Deref;
use tfgc_gc::{
    collect, pack_ret, Analyses, DescArena, GcMeta, GcStats, MachineRoots, StackRoots, Strategy,
    WalkRecord, FRAME_HDR, MAIN_RET, NO_FP,
};
use tfgc_ir::{ArithOp, CallSiteId, CmpOp, CtorRep, FnId, Instr, IrProgram, Slot};
use tfgc_obs::{GcEvent, Obs};
use tfgc_runtime::{Addr, ArithKind, Encoding, Heap, HeapStats, Word};
use tfgc_verify::{
    snapshot_tagfree, snapshot_tagged, verify_tagfree, verify_tagged, CanonHeap, FaultPlan,
    RootsView, StackView,
};

/// VM configuration.
#[derive(Debug, Clone)]
pub struct VmConfig {
    /// Collection strategy (decides heap encoding and metadata).
    pub strategy: Strategy,
    /// Words per semispace.
    pub heap_words: usize,
    /// Force a collection every `n` allocations (used by the liveness
    /// precision experiment to compare retained bytes at identical
    /// program points). See [`VmConfig::force_gc_every`] for the
    /// contract on `n`.
    pub force_gc_every: Option<u64>,
    /// Instruction budget (`None` = unlimited).
    pub max_steps: Option<u64>,
    /// Maximum stack size in words (per thread).
    pub max_stack_words: usize,
    /// Cooperative mode (§4 tasking): an exhausted heap does not collect
    /// inline; the burst ends with [`BurstEnd::AllocBlocked`] and the
    /// scheduler decides when every task is suspended.
    pub cooperative: bool,
    /// Walk and check the whole reachable graph after every collection
    /// (`tfml run --verify-heap`).
    pub verify_heap: bool,
    /// Deterministic fault schedule (`None` = no faults).
    pub fault_plan: Option<FaultPlan>,
    /// Bounded growth policy: grow each semispace up to this many words
    /// when a collection cannot satisfy an allocation (`None` = fixed
    /// heap, the historical behavior).
    pub heap_max_words: Option<usize>,
    /// Generational tier: bump-pointer nursery size in words (`None` =
    /// classic single-generation semispace heap). Nursery exhaustion
    /// triggers a *minor* collection — roots only, tenured untouched —
    /// which is sound without write barriers because the heap is
    /// immutable (no tenured→nursery edge can exist).
    pub nursery_words: Option<usize>,
    /// Minor collections an object survives in the nursery before being
    /// promoted to tenured space (0 = promote on first survival; the
    /// nursery then has no survivor half).
    pub promote_after: u32,
    /// Where the task scheduler may suspend a task for collection (§4).
    /// Read only by the request engine in `tfgc-tasking`.
    pub policy: SuspendPolicy,
    /// Instructions per scheduling quantum. Read only by the request
    /// engine.
    pub quantum: u64,
}

impl VmConfig {
    /// A configuration with sensible defaults for `strategy`: 64Ki-word
    /// semispaces, a 200M-instruction step limit and, for the task
    /// scheduler, every-call suspension with a 64-instruction quantum.
    pub fn new(strategy: Strategy) -> VmConfig {
        VmConfig {
            strategy,
            heap_words: 1 << 16,
            force_gc_every: None,
            max_steps: Some(200_000_000),
            max_stack_words: 1 << 22,
            cooperative: false,
            verify_heap: false,
            fault_plan: None,
            heap_max_words: None,
            nursery_words: None,
            promote_after: 0,
            policy: SuspendPolicy::EveryCall,
            quantum: 64,
        }
    }

    /// Enables the generational tier: a `nursery_words` bump-pointer
    /// nursery with minor collections, promoting survivors after
    /// `promote_after` survivals (0 = first survival).
    pub fn generational(mut self, nursery_words: usize, promote_after: u32) -> VmConfig {
        self.nursery_words = Some(nursery_words);
        self.promote_after = promote_after;
        self
    }

    /// Sets the semispace size.
    pub fn heap_words(mut self, words: usize) -> VmConfig {
        self.heap_words = words;
        self
    }

    /// Forces a full collection every `n` allocations. `n` must be at
    /// least 1 (`tfml --force-gc 0` is a usage error); the VM reads a
    /// period of 0 as 1.
    pub fn force_gc_every(mut self, n: u64) -> VmConfig {
        self.force_gc_every = Some(n);
        self
    }

    /// Enables the post-collection heap verifier.
    pub fn verify_heap(mut self, on: bool) -> VmConfig {
        self.verify_heap = on;
        self
    }

    /// Installs a deterministic fault schedule.
    pub fn fault_plan(mut self, plan: FaultPlan) -> VmConfig {
        self.fault_plan = Some(plan);
        self
    }

    /// Allows the heap to grow up to `words` per semispace.
    pub fn heap_max_words(mut self, words: usize) -> VmConfig {
        self.heap_max_words = Some(words);
        self
    }
}

/// Everything observable about a finished run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Values printed by `print`, in order.
    pub printed: Vec<i64>,
    /// The main expression's value, rendered.
    pub result: String,
    pub heap: HeapStats,
    pub gc: GcStats,
    pub mutator: MutatorStats,
    /// Distinct runtime type descriptors interned (RTTI completion cost).
    pub descs_interned: usize,
    /// Metadata footprint of the strategy, in bytes.
    pub metadata_bytes: usize,
}

/// Compiles metadata and runs a program to completion (single thread).
///
/// # Errors
///
/// Returns a [`VmError`] on OOM, match failure, division by zero, or
/// exceeded limits.
pub fn run_program(prog: &IrProgram, config: VmConfig) -> VmResult<RunOutcome> {
    let mut vm = Vm::new(prog, config);
    vm.run()
}

/// One step's outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepEvent {
    /// Keep going.
    Continue,
    /// The current thread's bottom frame returned this word.
    Done(Word),
    /// Cooperative mode only: the heap is exhausted; the current thread
    /// is suspended at the allocation site and will re-execute the
    /// instruction after a collection.
    AllocBlocked(CallSiteId),
}

/// The instructions a burst stops before while a collection is pending:
/// the safe points of the task's suspension policy (§4: a task is
/// suspended for collection only when it "calls an allocation routine",
/// or, under the stricter policy, "makes any procedure call").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SafePoints {
    /// No collection is pending: stop before nothing.
    None,
    /// Stop before an allocation.
    Allocations,
    /// Stop before a call or an allocation.
    CallsAndAllocations,
}

/// When may a task be parked for collection? (§4.) The task scheduler
/// stops each task before its policy's [`SafePoints`] while a collection
/// is pending.
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
    pub fn tests(self, calls: u64, allocs: u64) -> u64 {
        match self {
            SuspendPolicy::AllocationOnly => allocs,
            SuspendPolicy::EveryCall => calls + allocs,
            SuspendPolicy::EveryCallRgc => 0,
        }
    }

    /// The instructions a task stops before while a collection is
    /// pending.
    pub fn safe_points(self) -> SafePoints {
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

/// How a burst ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BurstEnd {
    /// The budget ran out; the thread can run on.
    Budget,
    /// The thread stands before a safe point, the call or allocation at
    /// this site, which has not run.
    SafePoint(CallSiteId),
    /// The thread's bottom frame returned this word.
    Done(Word),
    /// Cooperative mode only: the heap is exhausted; the thread is
    /// suspended at this allocation site and re-executes the allocation
    /// after a collection.
    AllocBlocked(CallSiteId),
}

/// What one [`Vm::burst`] did.
#[derive(Debug)]
pub struct Burst {
    /// How it ended. An error ends it at the failing instruction.
    pub end: VmResult<BurstEnd>,
    /// Instructions completed (a task's fuel): every instruction the
    /// burst dispatched except one that blocked or failed.
    pub completed: u64,
    /// Calls dispatched, completed or not. A thread stalled on a call
    /// dispatches it again with every instruction it burns.
    pub calls: u64,
    /// Allocations dispatched, completed or not, counted the same way.
    pub allocs: u64,
}

/// Why the dispatch loop handed the thread back. Small enough to stay in
/// registers: a burst's exit path moves no large value until it builds
/// its [`Burst`].
enum Exit {
    Budget,
    SafePoint(CallSiteId),
    Done(Word),
    Blocked(CallSiteId),
    /// An allocation completed and stalled the thread
    /// ([`FaultPlan::stall_at`]).
    Stalled,
    Failed(Box<VmError>),
}

/// How a burst ended, with its error boxed (see [`Exit`]).
type Ended = Result<BurstEnd, Box<VmError>>;

/// Calls and allocations a stalled thread dispatched by spinning.
#[derive(Default)]
struct Spun {
    calls: u64,
    allocs: u64,
}

/// Why a thread does not execute its next instruction. A burst tests a
/// thread's `Option<Halt>` once, at entry, and leaves the dispatch loop
/// when it is set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Halt {
    /// Runaway fault ([`FaultPlan::stall_at`]): the thread spins — every
    /// instruction it runs is burnt without advancing — until a budget
    /// ends it.
    Stalled,
    /// The bottom frame returned this word; the stack is empty.
    Finished(Word),
    /// Quarantined by [`Vm::kill_thread`]; the stack is empty.
    Killed,
}

/// One thread of control (§4's task).
#[derive(Debug, Clone)]
struct ThreadState {
    stack: Vec<Word>,
    fp: usize,
    fn_id: FnId,
    pc: u32,
    /// The call or allocation site this thread is parked at: set when a
    /// burst of it stops before a safe point or blocks on an allocation,
    /// and cleared by its next burst or [`Vm::resume_all`].
    parked: Option<CallSiteId>,
    /// `None` while the thread executes normally.
    halt: Option<Halt>,
    /// No frame based below it has run or been popped since the last
    /// collection: `Return` lowers it to the caller's base, a collection
    /// raises it to the top frame's base.
    floor: usize,
    /// The collector's record of its last walk of `stack`, replayed
    /// below `floor`.
    record: WalkRecord,
}

impl ThreadState {
    /// True while the stack holds frames the collector must trace.
    fn is_live(&self) -> bool {
        matches!(self.halt, None | Some(Halt::Stalled))
    }
}

/// The running thread's registers while a burst holds them in locals.
struct Regs<'p> {
    stack: Vec<Word>,
    fp: usize,
    fn_id: FnId,
    pc: usize,
    code: &'p [Instr],
    floor: usize,
}

impl<'p> Regs<'p> {
    /// Moves the thread's registers and stack out of `t`.
    #[inline(always)]
    fn take(t: &mut ThreadState, prog: &'p IrProgram) -> Regs<'p> {
        Regs {
            stack: std::mem::take(&mut t.stack),
            fp: t.fp,
            fn_id: t.fn_id,
            pc: t.pc as usize,
            code: &prog.fun(t.fn_id).code,
            floor: t.floor,
        }
    }

    /// Writes the registers and stack back into `t`.
    #[inline(always)]
    fn put(self, t: &mut ThreadState) {
        t.stack = self.stack;
        t.fp = self.fp;
        t.fn_id = self.fn_id;
        t.pc = self.pc as u32;
        t.floor = self.floor;
    }

    #[inline(always)]
    fn get(&self, s: Slot) -> Word {
        self.stack[self.fp + FRAME_HDR + s.0 as usize]
    }

    #[inline(always)]
    fn set(&mut self, s: Slot, w: Word) {
        let i = self.fp + FRAME_HDR + s.0 as usize;
        self.stack[i] = w;
    }

    /// Makes the frame at `fp` in function `f`, at `pc`, current.
    #[inline(always)]
    fn jump_to(&mut self, prog: &'p IrProgram, fp: usize, f: FnId, pc: usize) {
        self.fp = fp;
        self.fn_id = f;
        self.code = &prog.fun(f).code;
        self.pc = pc;
    }
}

/// Per-run constants the dispatch loop reads, derived from the
/// configuration once, in [`Vm::with_meta`].
#[derive(Debug, Clone, Copy)]
struct Consts {
    /// [`VmConfig::max_steps`]; `u64::MAX` when unlimited.
    max_steps: u64,
    max_stack_words: usize,
    /// The strategy zero-initializes frame slots a call does not pass.
    init_frames: bool,
    /// The word those slots receive.
    fill: Word,
    /// Header words in front of every heap object (1 on the tagged
    /// heap, 0 tag-free).
    header_words: usize,
}

/// The virtual machine.
#[derive(Debug)]
pub struct Vm<'p> {
    prog: &'p IrProgram,
    pub meta: GcMeta,
    pub heap: Heap,
    enc: Encoding,
    threads: Vec<ThreadState>,
    cur: usize,
    globals: Vec<Word>,
    pub descs: DescArena,
    pub printed: Vec<i64>,
    pub gc_stats: GcStats,
    pub mutator: MutatorStats,
    /// Event sink: [`Obs::null`] by default (one branch per emission
    /// site); swap in [`Obs::ring`] to record.
    pub obs: Obs,
    cfg: VmConfig,
    consts: Consts,
    /// Monotone allocation sequence number (fault-plan trigger key).
    alloc_seq: u64,
    /// The next allocation sequence number at which a forced collection
    /// or a fault hook may fire; allocations before it take the inline
    /// bump path.
    next_hook: u64,
    /// Largest request a parked task is blocked on that a minor
    /// collection cannot satisfy (exceeds eden); forces the scheduler's
    /// next collection to be a major. Cleared by every major.
    pending_oversize: usize,
    /// Differential-oracle state, when snapshots are enabled.
    oracle: Option<Box<OracleState>>,
    /// Operand buffer of the allocation in progress, reused across
    /// allocations. While `alloc_object` runs it is taken out of the
    /// machine and handed to the collector as [`MachineRoots::operands`]
    /// (§2.4's "parameters of the allocation primitive").
    operands: Vec<Word>,
}

/// Pre-collection snapshots for the tagged-oracle differential check.
#[derive(Debug)]
struct OracleState {
    /// The tag-free strategy's metadata whose routine positions define
    /// the root set. The tagged run walks the *same* slots by tags.
    root_meta: GcMeta,
    snapshots: Vec<CanonHeap>,
}

impl<'p> Vm<'p> {
    /// Creates a VM for `prog`, compiling the strategy's metadata. Thread
    /// 0 is set up to run `main`.
    pub fn new(prog: &'p IrProgram, cfg: VmConfig) -> Vm<'p> {
        let analyses = Analyses::compute(prog);
        // Cooperative (multi-task) machines must keep every gc_word:
        // another task can trigger a collection anywhere.
        let meta = if cfg.cooperative {
            GcMeta::build_multi_task(prog, &analyses, cfg.strategy)
        } else {
            GcMeta::build(prog, &analyses, cfg.strategy)
        };
        Vm::with_meta(prog, cfg, meta)
    }

    /// Creates a VM with precompiled metadata (benchmarks reuse metadata
    /// across runs).
    pub fn with_meta(prog: &'p IrProgram, cfg: VmConfig, mut meta: GcMeta) -> Vm<'p> {
        // Truncated-stack-map fault: drop the function's frame
        // type-parameter sources so the first collection through one of
        // its polymorphic frames hits the fail-fast "type parameter N out
        // of range" panic instead of silently mistracing.
        if let Some(f) = cfg
            .fault_plan
            .as_ref()
            .and_then(|p| p.truncate_frame_params_of)
        {
            if let Some(fm) = meta.fns.get_mut(f as usize) {
                fm.frame_param_src.clear();
                // Recorded frame steps embed the old sources.
                meta.rt_cache.forget_frames();
            }
        }
        let enc = Encoding::new(cfg.strategy.heap_mode());
        let heap = match cfg.nursery_words {
            Some(n) => Heap::new_generational(cfg.heap_words, n, cfg.promote_after),
            None => Heap::new(cfg.heap_words),
        };
        let globals = vec![enc.int(0); prog.globals.len()];
        let init_frames = cfg.strategy.requires_frame_init();
        let consts = Consts {
            max_steps: cfg.max_steps.unwrap_or(u64::MAX),
            max_stack_words: cfg.max_stack_words,
            init_frames,
            // Safe under either encoding (tagged: int 0 is odd). Appel
            // and Tagged trace whole frames, so their slots must hold a
            // valid word from entry on. The other strategies' routines
            // trace a subset of the site's definitely-assigned slots
            // (`GcMeta::build_opts` intersects with `site_assigned`), so
            // they never read an unassigned slot; zero keeps runs
            // deterministic.
            fill: if init_frames { enc.int(0) } else { 0 },
            header_words: enc.mode.header_words(),
        };
        let mut vm = Vm {
            prog,
            meta,
            heap,
            enc,
            threads: Vec::new(),
            cur: 0,
            globals,
            descs: DescArena::new(),
            printed: Vec::new(),
            gc_stats: GcStats::default(),
            mutator: MutatorStats::default(),
            obs: Obs::null(),
            cfg,
            consts,
            alloc_seq: 0,
            next_hook: 0,
            pending_oversize: 0,
            oracle: None,
            operands: Vec::new(),
        };
        vm.next_hook = vm.hook_after(0);
        vm.spawn_thread(prog.main, &[]);
        vm
    }

    /// The first allocation sequence number after `seq` at which a
    /// forced collection or a fault hook can fire (`u64::MAX`: never).
    fn hook_after(&self, seq: u64) -> u64 {
        let mut next = u64::MAX;
        if let (false, Some(n)) = (self.cfg.cooperative, self.cfg.force_gc_every) {
            let n = n.max(1);
            next = (seq / n).saturating_add(1).saturating_mul(n);
        }
        if let Some(p) = self.cfg.fault_plan {
            for at in [p.stall_at, p.alloc_fail_at, p.corrupt_discriminant_at]
                .into_iter()
                .flatten()
            {
                if at > seq {
                    next = next.min(at);
                }
            }
        }
        next
    }

    /// Enables pre-collection canonical snapshots for the differential
    /// oracle. `root_meta` must be the *tag-free* strategy's metadata
    /// whose run this one is compared against (for a tag-free run, pass a
    /// clone of its own metadata).
    pub fn enable_snapshots(&mut self, root_meta: GcMeta) {
        self.oracle = Some(Box::new(OracleState {
            root_meta,
            snapshots: Vec::new(),
        }));
    }

    /// Takes the snapshots captured so far (empty if snapshots were never
    /// enabled).
    pub fn take_snapshots(&mut self) -> Vec<CanonHeap> {
        self.oracle
            .as_mut()
            .map(|o| std::mem::take(&mut o.snapshots))
            .unwrap_or_default()
    }

    /// Builds a fresh bottom frame running `f` with `args` already in
    /// its first slots, written into `stack` after emptying it, with the
    /// floor at 0 and `record` emptied (shared by spawn and respawn;
    /// accounts the frame init stores identically in both).
    fn make_thread(
        &mut self,
        mut stack: Vec<Word>,
        mut record: WalkRecord,
        f: FnId,
        args: &[Word],
    ) -> ThreadState {
        let n_slots = self.prog.fun(f).slots.len();
        stack.clear();
        record.clear();
        stack.reserve(FRAME_HDR + n_slots);
        stack.push(NO_FP);
        stack.push(MAIN_RET);
        stack.extend_from_slice(args);
        stack.resize(FRAME_HDR + n_slots, self.consts.fill);
        if self.consts.init_frames {
            self.mutator.frame_init_stores += (n_slots - args.len()) as u64;
        }
        ThreadState {
            stack,
            fp: 0,
            fn_id: f,
            pc: 0,
            parked: None,
            halt: None,
            floor: 0,
            record,
        }
    }

    /// Spawns a new thread whose bottom frame runs `f` with `args` already
    /// in its first slots. Returns the thread index.
    pub fn spawn_thread(&mut self, f: FnId, args: &[Word]) -> usize {
        let t = self.make_thread(Vec::new(), WalkRecord::default(), f, args);
        self.threads.push(t);
        self.threads.len() - 1
    }

    /// Reuses thread slot `i` for a fresh run of `f` (the serve
    /// scheduler's request-lifecycle hook): the previous request's result
    /// is replaced and its stack buffer refilled in place, so the
    /// collector's root scan stays proportional to the pool size rather
    /// than the total request count, and neither the thread vector nor a
    /// slot's stack is reallocated during a service run.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or the slot still holds a live
    /// (unfinished, unkilled) computation.
    pub fn respawn_thread(&mut self, i: usize, f: FnId, args: &[Word]) {
        assert!(i < self.threads.len(), "no thread {i}");
        assert!(
            !self.threads[i].is_live(),
            "thread {i} is still running; respawn would drop live frames"
        );
        let t = &mut self.threads[i];
        let (stack, record) = (std::mem::take(&mut t.stack), std::mem::take(&mut t.record));
        self.threads[i] = self.make_thread(stack, record, f, args);
    }

    /// Number of threads (including finished ones).
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// Switches execution to thread `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn set_current_thread(&mut self, i: usize) {
        assert!(i < self.threads.len(), "no thread {i}");
        self.cur = i;
    }

    /// The result of thread `i`, if it finished.
    pub fn thread_result(&self, i: usize) -> Option<Word> {
        match self.threads[i].halt {
            Some(Halt::Finished(w)) => Some(w),
            _ => None,
        }
    }

    /// Where thread `i` is parked: the call or allocation site its last
    /// burst stopped before ([`BurstEnd::SafePoint`]) or blocked at
    /// ([`BurstEnd::AllocBlocked`]), until its next burst or
    /// [`Vm::resume_all`]. §4 suspends a task only there, and a
    /// collection walks every other live thread's stack from its park.
    pub fn parked_at(&self, i: usize) -> Option<CallSiteId> {
        self.threads[i].parked
    }

    /// Ends every thread's park once a suspension is over. A resumed
    /// thread still stands at its site, so a collection requested before
    /// it runs again parks it there anew with its next burst.
    pub fn resume_all(&mut self) {
        for t in &mut self.threads {
            t.parked = None;
        }
    }

    /// Quarantines a failed thread: clears its stack so the collector
    /// stops tracing it (its heap data dies at the next collection) and
    /// drops its parked state, its floor and its walk record. The
    /// scheduler uses this to let sibling tasks run on after one task
    /// errors.
    ///
    /// Stepping a killed thread is an error ([`VmError::Internal`]) until
    /// [`Vm::respawn_thread`] gives it new work.
    pub fn kill_thread(&mut self, i: usize) {
        let t = &mut self.threads[i];
        t.stack.clear();
        t.floor = 0;
        t.record.clear();
        t.parked = None;
        t.halt = Some(Halt::Killed);
    }

    /// True while thread `i` is spinning under the `stall_at` runaway
    /// fault.
    pub fn thread_stalled(&self, i: usize) -> bool {
        self.threads[i].halt == Some(Halt::Stalled)
    }

    /// The configured strategy's name (for error reporting).
    pub fn strategy_name(&self) -> &'static str {
        self.cfg.strategy.name()
    }

    #[inline]
    fn th(&self) -> &ThreadState {
        &self.threads[self.cur]
    }

    /// Runs thread 0 to completion.
    pub fn run(&mut self) -> VmResult<RunOutcome> {
        let w = self.run_to_end()?;
        let result = render_value(self.prog, &self.heap, self.enc, w, &self.prog.main_ty);
        Ok(RunOutcome {
            printed: std::mem::take(&mut self.printed),
            result,
            heap: self.heap.stats,
            gc: self.gc_stats,
            mutator: self.mutator,
            descs_interned: self.descs.len(),
            metadata_bytes: self.meta.metadata_bytes(),
        })
    }

    /// Runs the current thread to its end in unbounded bursts, returning
    /// its result. A cooperative VM blocks on a full heap instead of
    /// collecting inline: it then collects and retries, and when the
    /// retry blocks again before running an instruction, it grows the
    /// heap or ends in [`VmError::OutOfMemory`].
    pub fn run_to_end(&mut self) -> VmResult<Word> {
        let mut retried = false;
        loop {
            let b = self.burst(u64::MAX, SafePoints::None);
            match b.end? {
                BurstEnd::Done(w) => return Ok(w),
                BurstEnd::AllocBlocked(site) => {
                    if retried && b.completed == 0 {
                        // The collection freed nothing and the allocation
                        // already retried once: growing is the only way
                        // forward.
                        if !self.grow_parked(site)? {
                            return Err(VmError::OutOfMemory {
                                requested: 0,
                                live: self.heap.used(),
                                site: site.0,
                                strategy: self.strategy_name(),
                            });
                        }
                    } else {
                        self.collect_parked(site)?;
                    }
                    retried = true;
                }
                BurstEnd::Budget => {}
                BurstEnd::SafePoint(_) => {
                    unreachable!("a burst with no safe points stopped at one")
                }
            }
        }
    }

    /// Executes one instruction of the current thread: a burst of one.
    ///
    /// A finished thread answers [`StepEvent::Done`] with its result
    /// again, and a killed one [`VmError::Internal`]; neither counts an
    /// instruction.
    #[inline]
    pub fn step(&mut self) -> VmResult<StepEvent> {
        Ok(match self.burst(1, SafePoints::None).end? {
            BurstEnd::Budget => StepEvent::Continue,
            BurstEnd::Done(w) => StepEvent::Done(w),
            BurstEnd::AllocBlocked(site) => StepEvent::AllocBlocked(site),
            BurstEnd::SafePoint(_) => unreachable!("a burst with no safe points stopped at one"),
        })
    }

    /// Runs the current thread for up to `budget` instructions, stopping
    /// early when it finishes, blocks on an allocation, fails, or, with
    /// `stop` other than [`SafePoints::None`], reaches a safe point.
    ///
    /// The step limit ([`VmConfig::max_steps`]) counts every instruction
    /// dispatched; a burst that reaches it fails with
    /// [`VmError::StepLimit`] after the last instruction the limit
    /// allows. A thread stalled by [`FaultPlan::stall_at`], before or
    /// during the burst, burns the rest of the budget without advancing.
    /// A finished thread ends the burst with [`BurstEnd::Done`] at once,
    /// and a killed one with [`VmError::Internal`]. A burst that ends at a
    /// safe point or blocked leaves the thread parked there
    /// ([`Vm::parked_at`]); any other end leaves it unparked.
    #[inline]
    pub fn burst(&mut self, budget: u64, stop: SafePoints) -> Burst {
        let calls = self.mutator.calls + self.mutator.closure_calls;
        let allocs = self.alloc_seq;
        let mut completed = 0;
        let mut spun = Spun::default();
        let end = match self.th().halt {
            None => self.run_burst(budget, stop, &mut completed, &mut spun),
            Some(halt) => self.halted(halt, budget, stop, &mut completed, &mut spun),
        };
        self.threads[self.cur].parked = match end {
            Ok(BurstEnd::SafePoint(site) | BurstEnd::AllocBlocked(site)) => Some(site),
            _ => None,
        };
        Burst {
            end: end.map_err(|e| *e),
            completed,
            calls: self.mutator.calls + self.mutator.closure_calls - calls + spun.calls,
            allocs: self.alloc_seq - allocs + spun.allocs,
        }
    }

    /// The running thread's part of a burst: dispatch, then account.
    #[inline(always)]
    fn run_burst(
        &mut self,
        budget: u64,
        stop: SafePoints,
        completed: &mut u64,
        spun: &mut Spun,
    ) -> Ended {
        let limit = self.consts.max_steps;
        let n = budget.min(limit.saturating_sub(self.mutator.instructions));
        let (exit, dispatched) = self.dispatch(n, stop);
        self.mutator.instructions += dispatched;
        *completed = dispatched;
        match exit {
            Exit::Budget if n < budget => Err(Box::new(VmError::StepLimit { limit })),
            Exit::Budget => Ok(BurstEnd::Budget),
            Exit::SafePoint(site) => Ok(BurstEnd::SafePoint(site)),
            Exit::Done(w) => Ok(BurstEnd::Done(w)),
            Exit::Blocked(site) => {
                *completed -= 1;
                Ok(BurstEnd::AllocBlocked(site))
            }
            Exit::Failed(e) => {
                *completed -= 1;
                Err(e)
            }
            Exit::Stalled => self.halted(Halt::Stalled, budget - dispatched, stop, completed, spun),
        }
    }

    /// A burst of a halted thread.
    #[cold]
    #[inline(never)]
    fn halted(
        &mut self,
        halt: Halt,
        budget: u64,
        stop: SafePoints,
        completed: &mut u64,
        spun: &mut Spun,
    ) -> Ended {
        match halt {
            // A stalled (runaway-fault) thread burns its instructions
            // without making progress; only a deadline/fuel budget or
            // the step limit can end it. It spins on the instruction at
            // its pc, so it meets that safe point, if it is one, with
            // every instruction it burns.
            Halt::Stalled => {
                if budget == 0 {
                    return Ok(BurstEnd::Budget);
                }
                let ins = self.current_instr();
                let (call, alloc) = match ins {
                    Instr::CallDirect { .. } | Instr::CallClosure { .. } => (true, false),
                    Instr::MakeTuple { .. }
                    | Instr::MakeData { .. }
                    | Instr::MakeClosure { .. } => (false, true),
                    _ => (false, false),
                };
                let parks = match stop {
                    SafePoints::None => false,
                    SafePoints::Allocations => alloc,
                    SafePoints::CallsAndAllocations => call || alloc,
                };
                if let (true, Some(site)) = (parks, ins.site()) {
                    return Ok(BurstEnd::SafePoint(site));
                }
                let limit = self.consts.max_steps;
                let burnt = budget.min(limit.saturating_sub(self.mutator.instructions));
                self.mutator.instructions += burnt;
                *completed += burnt;
                spun.calls += if call { burnt } else { 0 };
                spun.allocs += if alloc { burnt } else { 0 };
                if burnt < budget {
                    Err(Box::new(VmError::StepLimit { limit }))
                } else {
                    Ok(BurstEnd::Budget)
                }
            }
            Halt::Finished(w) => Ok(BurstEnd::Done(w)),
            Halt::Killed => Err(Box::new(VmError::Internal {
                detail: format!("thread {} was killed and has nothing to step", self.cur),
            })),
        }
    }

    /// The instruction body: runs up to `n` instructions of the current
    /// thread with its registers in locals. Returns why it stopped and
    /// how many instructions it dispatched: every one it began, including
    /// one that blocked or failed, but not a safe point it stopped
    /// before.
    #[inline(always)]
    fn dispatch(&mut self, n: u64, stop: SafePoints) -> (Exit, u64) {
        let prog = self.prog;
        let enc = self.enc;
        let cur = self.cur;
        let stop_calls = stop == SafePoints::CallsAndAllocations;
        let stop_allocs = stop != SafePoints::None;
        let mut r = Regs::take(&mut self.threads[cur], prog);
        let mut left = n;
        let exit = 'run: loop {
            if left == 0 {
                break Exit::Budget;
            }
            left -= 1;
            let code = r.code;
            // Every instruction but an allocation completes inside this
            // block; the three allocating instructions leave it with
            // their operands for the one allocation path below.
            let (dst, site, head, slots, head_is_discriminant) = 'alloc: {
                match &code[r.pc] {
                    Instr::LoadInt(d, v) => r.set(*d, enc.int(*v)),
                    Instr::LoadBool(d, v) => r.set(*d, enc.bool(*v)),
                    Instr::LoadUnit(d) => r.set(*d, enc.unit()),
                    Instr::LoadGlobal(d, g) => r.set(*d, self.globals[g.0 as usize]),
                    Instr::StoreGlobal(g, s) => self.globals[g.0 as usize] = r.get(*s),
                    Instr::Move(d, s) => r.set(*d, r.get(*s)),
                    Instr::Arith(d, op, a, b) => {
                        let x = enc.int_of(r.get(*a));
                        let y = enc.int_of(r.get(*b));
                        let (kind, val) = match op {
                            ArithOp::Add => (ArithKind::Add, Some(x.wrapping_add(y))),
                            ArithOp::Sub => (ArithKind::Sub, Some(x.wrapping_sub(y))),
                            ArithOp::Mul => (ArithKind::Mul, Some(x.wrapping_mul(y))),
                            ArithOp::Div => (ArithKind::Div, x.checked_div(y)),
                            ArithOp::Mod => (ArithKind::Mod, x.checked_rem(y)),
                        };
                        let Some(val) = val else {
                            break 'run Exit::Failed(Box::new(VmError::DivideByZero {
                                function: prog.fun(r.fn_id).name.clone(),
                            }));
                        };
                        self.mutator.tag_ops += enc.arith_tag_ops(kind);
                        r.set(*d, enc.int(val));
                    }
                    Instr::Cmp(d, op, a, b) => {
                        let x = enc.int_of(r.get(*a));
                        let y = enc.int_of(r.get(*b));
                        let v = match op {
                            CmpOp::Eq => x == y,
                            CmpOp::Ne => x != y,
                            CmpOp::Lt => x < y,
                            CmpOp::Le => x <= y,
                            CmpOp::Gt => x > y,
                            CmpOp::Ge => x >= y,
                        };
                        self.mutator.tag_ops += enc.arith_tag_ops(ArithKind::Cmp);
                        r.set(*d, enc.bool(v));
                    }
                    Instr::Neg(d, a) => {
                        let x = enc.int_of(r.get(*a));
                        self.mutator.tag_ops += enc.arith_tag_ops(ArithKind::Neg);
                        r.set(*d, enc.int(x.wrapping_neg()));
                    }
                    Instr::Not(d, a) => r.set(*d, enc.bool(!enc.bool_of(r.get(*a)))),
                    Instr::Jump(t) => {
                        r.pc = *t as usize;
                        continue 'run;
                    }
                    Instr::BranchFalse(s, t) => {
                        if !enc.bool_of(r.get(*s)) {
                            r.pc = *t as usize;
                            continue 'run;
                        }
                    }
                    Instr::BranchIntNe(s, v, t) => {
                        if enc.int_of(r.get(*s)) != *v {
                            r.pc = *t as usize;
                            continue 'run;
                        }
                    }
                    Instr::BranchTagNe {
                        obj,
                        data,
                        ctor,
                        target,
                    } => {
                        if !self.value_matches_ctor(r.get(*obj), prog.ctor_rep(*data, *ctor)) {
                            r.pc = *target as usize;
                            continue 'run;
                        }
                    }
                    Instr::GetField(d, o, i) => r.set(*d, self.heap_field(r.get(*o), *i)),
                    Instr::MakeTuple { dst, elems, site } => {
                        break 'alloc (*dst, *site, None, elems, false);
                    }
                    Instr::MakeData {
                        dst,
                        data,
                        ctor,
                        fields,
                        site,
                    } => {
                        let tag = match prog.ctor_rep(*data, *ctor) {
                            CtorRep::Ptr { tag, .. } => tag.map(|t| enc.int(i64::from(t))),
                            CtorRep::Imm(_) => {
                                unreachable!("immediate constructors lower to LoadInt")
                            }
                        };
                        break 'alloc (*dst, *site, tag, fields, tag.is_some());
                    }
                    Instr::MakeClosure {
                        dst,
                        f,
                        captures,
                        site,
                    } => {
                        let code = enc.int(i64::from(f.0));
                        break 'alloc (*dst, *site, Some(code), captures, false);
                    }
                    Instr::EvalDesc { dst, template } => {
                        self.mutator.desc_evals += 1;
                        // Resolve parameter descriptors from this frame's
                        // descriptor slots.
                        let slots = &prog.fun(r.fn_id).desc_param_slots;
                        let frame = &r.stack[r.fp + FRAME_HDR..];
                        let id = self.descs.eval_type(prog.desc_template(*template), &|p| {
                            slots.iter().find(|(q, _)| *q == p).map(|(_, s)| {
                                tfgc_gc::DescId(enc.int_of(frame[s.0 as usize]) as u32)
                            })
                        });
                        r.set(*dst, enc.int(i64::from(id.0)));
                    }
                    Instr::CallDirect { dst, f, args, site } => {
                        if stop_calls {
                            left += 1;
                            break 'run Exit::SafePoint(*site);
                        }
                        self.mutator.calls += 1;
                        if let Err(e) = self.enter(&mut r, *f, *site, *dst, args) {
                            break 'run Exit::Failed(Box::new(e));
                        }
                        continue 'run;
                    }
                    Instr::CallClosure {
                        dst,
                        clos,
                        arg,
                        site,
                    } => {
                        if stop_calls {
                            left += 1;
                            break 'run Exit::SafePoint(*site);
                        }
                        self.mutator.closure_calls += 1;
                        let f = FnId(enc.int_of(self.heap_field(r.get(*clos), 0)) as u32);
                        if let Err(e) = self.enter(&mut r, f, *site, *dst, &[*clos, *arg]) {
                            break 'run Exit::Failed(Box::new(e));
                        }
                        continue 'run;
                    }
                    Instr::Return(s) => {
                        let w = r.get(*s);
                        let saved = r.stack[r.fp];
                        if saved == NO_FP {
                            r.stack.clear();
                            break 'run Exit::Done(w);
                        }
                        let (site, dst) = tfgc_gc::unpack_ret(r.stack[r.fp + 1]);
                        r.stack.truncate(r.fp);
                        // The caller runs again: it and everything above
                        // it must be decoded at the next collection.
                        r.floor = r.floor.min(saved as usize);
                        // Resume after the call — the paper's `jmpl
                        // %o7+12` skipping the gc_word (ours lives in a
                        // side table keyed by the site).
                        let cs = prog.site(site);
                        r.jump_to(prog, saved as usize, cs.fn_id, cs.pc as usize + 1);
                        r.set(dst, w);
                        continue 'run;
                    }
                    Instr::Print(s) => self.printed.push(enc.int_of(r.get(*s))),
                    Instr::MatchFail => {
                        break 'run Exit::Failed(Box::new(VmError::MatchFailure {
                            function: prog.fun(r.fn_id).name.clone(),
                        }));
                    }
                }
                r.pc += 1;
                continue 'run;
            };
            if stop_allocs {
                left += 1;
                break Exit::SafePoint(site);
            }
            let total = self.consts.header_words + usize::from(head.is_some()) + slots.len();
            self.alloc_seq += 1;
            let bumped = if self.alloc_seq < self.next_hook {
                self.heap.alloc(total)
            } else {
                None
            };
            let addr = match bumped {
                Some(a) => {
                    self.init_object(a, site, total, head, slots.iter().map(|s| r.get(*s)), None);
                    a
                }
                None => {
                    r.put(&mut self.threads[cur]);
                    let res = self.alloc_object(site, head, slots, head_is_discriminant, total);
                    r = Regs::take(&mut self.threads[cur], prog);
                    match res {
                        Ok(Some(a)) => a,
                        Ok(None) => break Exit::Blocked(site),
                        Err(e) => break Exit::Failed(Box::new(e)),
                    }
                }
            };
            r.set(dst, enc.ptr(addr));
            r.pc += 1;
            if bumped.is_none() && self.threads[cur].halt.is_some() {
                break Exit::Stalled;
            }
        };
        r.put(&mut self.threads[cur]);
        if let Exit::Done(w) = exit {
            self.threads[cur].halt = Some(Halt::Finished(w));
        }
        (exit, n - left)
    }

    /// Pushes a callee frame in place on the running thread's stack:
    /// dynamic link, return word (the gc_word key), then the slots. The
    /// first `args.len()` slots receive the caller's slots `args`, copied
    /// directly; the rest receive the fill word.
    #[inline(always)]
    fn enter(
        &mut self,
        r: &mut Regs<'p>,
        callee: FnId,
        site: CallSiteId,
        dst: Slot,
        args: &[Slot],
    ) -> VmResult<()> {
        let k = self.consts;
        let n_slots = self.prog.fun(callee).slots.len();
        let new_fp = r.stack.len();
        let top = new_fp + FRAME_HDR + n_slots;
        if top > k.max_stack_words {
            return Err(VmError::StackOverflow { words: new_fp });
        }
        r.stack.reserve(FRAME_HDR + n_slots);
        r.stack.push(r.fp as Word);
        r.stack.push(pack_ret(site, dst));
        for s in args {
            let w = r.get(*s);
            r.stack.push(w);
        }
        r.stack.resize(top, k.fill);
        r.jump_to(self.prog, new_fp, callee, 0);
        if k.init_frames {
            self.mutator.frame_init_stores += (n_slots - args.len()) as u64;
        }
        self.mutator.max_stack_words = self.mutator.max_stack_words.max(top as u64);
        Ok(())
    }

    /// Writes a freshly allocated object — the tagged heap's header word,
    /// then the head word (discriminant or closure code pointer), then
    /// the payload — and reports the allocation. This is the one routine
    /// that fills an object, whether the payload comes from the frame
    /// (the inline path) or from the operand buffer a collection may
    /// have relocated (`alloc_object`). `corrupt` carries the sequence
    /// number of a discriminant-corruption fault to inject.
    #[inline(always)]
    fn init_object(
        &mut self,
        addr: Addr,
        site: CallSiteId,
        total: usize,
        head: Option<Word>,
        payload: impl Iterator<Item = Word>,
        corrupt: Option<u64>,
    ) {
        let mut off = 0u16;
        if self.consts.header_words == 1 {
            self.heap.write(addr, 0, (total - 1) as Word);
            off = 1;
        }
        if let Some(h) = head {
            self.heap.write(addr, off, h);
            off += 1;
        }
        for w in payload {
            self.heap.write(addr, off, w);
            off += 1;
        }
        // Discriminant-corruption fault: overwrite the freshly written
        // variant tag with a value matching no constructor. The next
        // trace through this object must fail fast, never mistrace.
        if let Some(seq) = corrupt {
            let bogus = self.enc.int(i64::from(u32::MAX));
            self.heap
                .write(addr, self.consts.header_words as u16, bogus);
            self.obs.emit(|t_ns| GcEvent::FaultInjected {
                t_ns,
                kind: "corrupt-discriminant",
                seq,
            });
        }
        self.obs.emit(|t_ns| GcEvent::Alloc {
            t_ns,
            site: site.0,
            words: total as u32,
            addr: addr.0,
        });
    }

    /// The out-of-line allocation path, for an allocation at a hook's
    /// sequence number or one the bump pointer could not serve. Gathers
    /// the current frame's `slots` into the machine's operand buffer,
    /// which is taken out of the machine for the allocation and put back
    /// afterwards, on the error path too. The caller has written the
    /// running thread back and numbered the allocation.
    #[cold]
    #[inline(never)]
    fn alloc_object(
        &mut self,
        site: CallSiteId,
        head: Option<Word>,
        slots: &[Slot],
        head_is_discriminant: bool,
        total: usize,
    ) -> VmResult<Option<Addr>> {
        let seq = self.alloc_seq;
        self.next_hook = self.hook_after(seq);
        let mut operands = std::mem::take(&mut self.operands);
        operands.clear();
        let t = self.th();
        let frame = &t.stack[t.fp + FRAME_HDR..];
        operands.extend(slots.iter().map(|s| frame[s.0 as usize]));
        let r = self.alloc_operands(site, head, &mut operands, head_is_discriminant, total, seq);
        self.operands = operands;
        r
    }

    /// Allocation `seq` of a `total`-word object with optional head word
    /// (discriminant or closure code pointer) and payload `operands`,
    /// with every hook. In cooperative mode an exhausted heap yields
    /// `Ok(None)` (the scheduler collects); otherwise it collects inline,
    /// growing under the bounded policy if configured. `operands` — the
    /// machine's reused operand buffer — is a root of every collection
    /// this triggers ([`MachineRoots::operands`]) and may be relocated by
    /// the collector before it is written into the object.
    fn alloc_operands(
        &mut self,
        site: CallSiteId,
        head: Option<Word>,
        operands: &mut [Word],
        head_is_discriminant: bool,
        total: usize,
        seq: u64,
    ) -> VmResult<Option<Addr>> {
        let plan = self.cfg.fault_plan.unwrap_or_default();
        // Runaway fault: the task thread that performs this allocation
        // starts spinning right after it completes. Task threads only —
        // stalling the main/globals phase (thread 0) or the batch
        // pipeline would hang setup instead of modeling a runaway
        // request handler.
        if self.cfg.cooperative && self.cur != 0 && plan.stall_at == Some(seq) {
            self.threads[self.cur].halt = Some(Halt::Stalled);
            self.obs.emit(|t_ns| GcEvent::FaultInjected {
                t_ns,
                kind: "stall",
                seq,
            });
        }
        if let (false, Some(n)) = (self.cfg.cooperative, self.cfg.force_gc_every) {
            if seq.is_multiple_of(n.max(1)) {
                // Forced collections are always full: the liveness
                // experiments compare retained bytes at identical
                // program points, which a nursery-only cycle would
                // understate.
                self.collect_now(site, operands, false)?;
            }
        }
        // Transient-failure fault: this allocation reports an exhausted
        // heap once even though space remains, forcing the
        // collect-and-retry path.
        let forced_fail = plan.alloc_fail_at == Some(seq);
        if forced_fail {
            self.obs.emit(|t_ns| GcEvent::FaultInjected {
                t_ns,
                kind: "alloc-fail",
                seq,
            });
        }
        let first = if forced_fail {
            None
        } else {
            self.heap.alloc(total)
        };
        let addr = match first {
            Some(a) => a,
            None if self.cfg.cooperative => {
                if self.heap.generational() && total > self.heap.eden_capacity() {
                    // A minor cannot satisfy this request (it exceeds
                    // the eden); the scheduler's next collection must
                    // be a full one.
                    self.pending_oversize = self.pending_oversize.max(total);
                }
                return Ok(None);
            }
            None => {
                let minor = self.next_collection_is_minor(total);
                self.collect_now(site, operands, minor)?;
                match self.alloc_with_growth(site, operands, total, minor)? {
                    Some(a) => a,
                    None => {
                        return Err(VmError::OutOfMemory {
                            requested: total,
                            live: self.heap.used(),
                            site: site.0,
                            strategy: self.cfg.strategy.name(),
                        })
                    }
                }
            }
        };
        let corrupt =
            (head_is_discriminant && plan.corrupt_discriminant_at == Some(seq)).then_some(seq);
        self.init_object(addr, site, total, head, operands.iter().copied(), corrupt);
        Ok(Some(addr))
    }

    /// True when the next collection can be a nursery-only (minor)
    /// cycle: the heap is generational, the blocked request fits the
    /// eden (a minor empties it), and tenured from-space has headroom
    /// for the worst case where every nursery word is promoted.
    fn next_collection_is_minor(&self, requested: usize) -> bool {
        self.heap.generational()
            && requested <= self.heap.eden_capacity()
            && self.heap.available() >= self.heap.nursery_used()
    }

    /// Retries a post-collection allocation under the bounded growth
    /// policy: grow the to-space, collect again (the flip relocates into
    /// the larger space — growth itself never moves an object), bring the
    /// new to-space up to the same capacity, retry. `after_minor` says
    /// the preceding collection was a nursery-only cycle: if the retry
    /// still fails, escalate to a full collection before growing.
    fn alloc_with_growth(
        &mut self,
        site: CallSiteId,
        operands: &mut [Word],
        total: usize,
        after_minor: bool,
    ) -> VmResult<Option<Addr>> {
        if let Some(a) = self.heap.alloc(total) {
            return Ok(Some(a));
        }
        if after_minor {
            self.collect_now(site, operands, false)?;
            if let Some(a) = self.heap.alloc(total) {
                return Ok(Some(a));
            }
        }
        while self.try_grow(total) {
            self.collect_now(site, operands, false)?;
            let cap = self.heap.capacity();
            self.heap.reserve_to_space(cap);
            if let Some(a) = self.heap.alloc(total) {
                return Ok(Some(a));
            }
        }
        Ok(None)
    }

    /// One step of the bounded growth policy: the semispace doubles, or
    /// grows further when `needed` words would not fit, up to the cap.
    /// Refused when growth is not configured, the hard cap is reached, or
    /// the exhaustion fault is active.
    fn try_grow(&mut self, needed: usize) -> bool {
        let Some(max) = self.cfg.heap_max_words else {
            return false;
        };
        let seq = self.alloc_seq;
        if self
            .cfg
            .fault_plan
            .is_some_and(|p| p.exhaust_at.is_some_and(|n| seq >= n))
        {
            self.obs.emit(|t_ns| GcEvent::FaultInjected {
                t_ns,
                kind: "exhaust",
                seq,
            });
            return false;
        }
        let cur = self.heap.capacity();
        if cur >= max {
            return false;
        }
        let mut target = cur.saturating_mul(2).clamp(cur + 1, max);
        let want = self.heap.used() + needed;
        if target < want {
            target = want.min(max);
        }
        if !self.heap.reserve_to_space(target) {
            return false;
        }
        self.heap.stats.grows += 1;
        self.obs.emit(|t_ns| GcEvent::HeapGrown {
            t_ns,
            from_words: cur as u64,
            to_words: target as u64,
        });
        true
    }

    /// Invokes the collector with every thread's stack as roots; captures
    /// an oracle snapshot first and verifies the heap afterwards when
    /// configured.
    ///
    /// # Errors
    ///
    /// [`VmError::VerificationFailed`] when a snapshot or post-collection
    /// walk finds a heap-invariant violation.
    ///
    /// # Panics
    ///
    /// Panics (structured: "collection while task …") if another live
    /// task is not parked at a call site — a scheduler invariant
    /// violation, not a recoverable error.
    fn collect_now(
        &mut self,
        site: CallSiteId,
        operands: &mut [Word],
        minor: bool,
    ) -> VmResult<()> {
        self.capture_snapshot(site, operands)?;
        self.run_collection(site, operands, minor);
        let mut major_ran = !minor;
        if minor && self.heap.minor_survivor_overflowed() {
            // The survivor half overflowed and a young object was
            // tenured out of age order, which can leave tenured→nursery
            // edges behind. Restore the barrier-free invariant before
            // the mutator (and the verifier) sees the heap: a full
            // collection in the same pause evacuates the whole nursery.
            self.run_collection(site, operands, false);
            major_ran = true;
        }
        if major_ran {
            // A major emptied the nursery; any blocked oversize request
            // can now take the direct-tenured path.
            self.pending_oversize = 0;
        }
        self.verify_now(site, operands)
    }

    /// Gathers every live thread's stack as roots and runs one
    /// collection cycle, after which no frame below a live thread's top
    /// frame has run: its floor rises there. Factored out of
    /// [`Vm::collect_now`] so a minor whose survivor half overflowed can
    /// escalate to a major within the same pause.
    fn run_collection(&mut self, site: CallSiteId, operands: &mut [Word], minor: bool) {
        let (stacks, operand_stack) = live_stacks(
            self.threads.iter_mut(),
            self.prog,
            self.cur,
            site,
            |t, current_site| StackRoots {
                top_fp: t.fp,
                stack: &mut t.stack,
                current_site,
                floor: t.floor,
                record: &mut t.record,
            },
        );
        collect(
            &mut self.meta,
            self.prog,
            &mut self.heap,
            &self.descs,
            &mut self.gc_stats,
            &mut self.obs,
            MachineRoots {
                stacks,
                globals: &mut self.globals,
                operands,
                operand_stack,
            },
            minor,
        );
        for t in self.threads.iter_mut().filter(|t| t.is_live()) {
            t.floor = t.fp;
        }
    }

    /// Oracle hook: renders everything reachable from the collector's
    /// roots as a canonical snapshot *before* the collection mutates
    /// anything.
    fn capture_snapshot(&mut self, site: CallSiteId, operands: &[Word]) -> VmResult<()> {
        if self.oracle.is_none() {
            return Ok(());
        }
        let roots = roots_view(
            &self.threads,
            self.prog,
            &self.globals,
            operands,
            self.cur,
            site,
        );
        let snap = if self.cfg.strategy == Strategy::Tagged {
            let o = self.oracle.as_ref().expect("oracle checked above");
            snapshot_tagged(&o.root_meta, self.prog, &self.heap, &roots)
        } else {
            snapshot_tagfree(&mut self.meta, self.prog, &self.heap, &self.descs, &roots)
        };
        match snap {
            Ok(s) => {
                self.oracle
                    .as_mut()
                    .expect("oracle checked above")
                    .snapshots
                    .push(s);
                Ok(())
            }
            Err(e) => Err(VmError::VerificationFailed {
                collection: self.gc_stats.collections,
                strategy: self.cfg.strategy.name(),
                detail: e.to_string(),
            }),
        }
    }

    /// Post-collection verifier: walks the surviving reachable graph from
    /// the same roots the collector used, checking every heap invariant.
    fn verify_now(&mut self, site: CallSiteId, operands: &[Word]) -> VmResult<()> {
        if !self.cfg.verify_heap {
            return Ok(());
        }
        let seq = self.gc_stats.collections.saturating_sub(1);
        // Cheap structural invariants first (bump bounds, survivor-to
        // empty, no leaked forwarding state); the walk below then checks
        // every surviving pointer, including that no tenured object
        // points into the nursery.
        if let Err(detail) = self.heap.check_generational_invariants() {
            return Err(VmError::VerificationFailed {
                collection: seq,
                strategy: self.cfg.strategy.name(),
                detail,
            });
        }
        let roots = roots_view(
            &self.threads,
            self.prog,
            &self.globals,
            operands,
            self.cur,
            site,
        );
        let res = if self.cfg.strategy == Strategy::Tagged {
            verify_tagged(self.prog, &self.heap, &roots)
        } else {
            verify_tagfree(&mut self.meta, self.prog, &self.heap, &self.descs, &roots)
        };
        let strategy = self.cfg.strategy.name();
        match res {
            Ok(r) => {
                self.obs.emit(|t_ns| GcEvent::VerificationEnd {
                    t_ns,
                    seq,
                    strategy,
                    objects: r.objects,
                    words: r.words,
                    ok: true,
                });
                Ok(())
            }
            Err(e) => {
                self.obs.emit(|t_ns| GcEvent::VerificationEnd {
                    t_ns,
                    seq,
                    strategy,
                    objects: 0,
                    words: 0,
                    ok: false,
                });
                Err(VmError::VerificationFailed {
                    collection: seq,
                    strategy,
                    detail: e.to_string(),
                })
            }
        }
    }

    /// Runs a collection with the current thread suspended at `site`
    /// (tasking: all tasks parked).
    ///
    /// # Errors
    ///
    /// Propagates [`VmError::VerificationFailed`] from the verifier or
    /// oracle, when enabled.
    pub fn collect_parked(&mut self, site: CallSiteId) -> VmResult<()> {
        let minor = self.pending_oversize == 0 && self.next_collection_is_minor(0);
        self.collect_now(site, &mut [], minor)
    }

    /// Tasking: one growth step with every task parked — grow the
    /// to-space, collect into it, then level the new to-space. Returns
    /// `Ok(false)` when the growth policy refuses (no cap configured, cap
    /// reached, or exhaustion fault active).
    pub fn grow_parked(&mut self, site: CallSiteId) -> VmResult<bool> {
        if !self.try_grow(0) {
            return Ok(false);
        }
        self.collect_now(site, &mut [], false)?;
        let cap = self.heap.capacity();
        self.heap.reserve_to_space(cap);
        Ok(true)
    }

    // ---- encoding helpers ----------------------------------------------

    #[inline]
    fn heap_field(&self, w: Word, i: u16) -> Word {
        let a = self.enc.addr_of(w);
        let hdr = self.enc.mode.header_words() as u16;
        self.heap.read(a, i + hdr)
    }

    #[inline]
    fn value_matches_ctor(&self, w: Word, rep: CtorRep) -> bool {
        let enc = self.enc;
        match rep {
            CtorRep::Imm(k) => enc.is_imm(w) && enc.int_of(w) as u32 == k,
            CtorRep::Ptr { .. } if enc.is_imm(w) => false,
            CtorRep::Ptr { tag: None, .. } => true,
            CtorRep::Ptr { tag: Some(t), .. } => enc.int_of(self.heap_field(w, 0)) as u32 == t,
        }
    }

    /// Encodes an integer under the VM's value encoding (for spawning
    /// tasks with arguments).
    pub fn encode_int(&self, i: i64) -> Word {
        self.enc.int(i)
    }

    /// Decodes an integer result word.
    pub fn decode_int(&self, w: Word) -> i64 {
        self.enc.int_of(w)
    }

    /// Current thread's stack depth in words.
    pub fn stack_words(&self) -> usize {
        self.th().stack.len()
    }

    /// The current instruction of the current thread, if any.
    #[inline]
    pub fn current_instr(&self) -> &Instr {
        let t = self.th();
        &self.prog.fun(t.fn_id).code[t.pc as usize]
    }

    /// The current instruction's call site, if it has one.
    pub fn current_site(&self) -> Option<CallSiteId> {
        self.current_instr().site()
    }

    /// True once the current thread has returned from its bottom frame.
    pub fn is_done(&self) -> bool {
        matches!(self.th().halt, Some(Halt::Finished(_)))
    }

    /// Renders a result word at the given type (task results).
    pub fn render(&self, w: Word, ty: &tfgc_types::Type) -> String {
        render_value(self.prog, &self.heap, self.enc, w, ty)
    }
}

/// Every live thread's stack roots, built by `root` from the thread and
/// the site its newest frame is suspended at: `site`, the trigger, for
/// the current thread and its park for every other. Returns them in
/// thread order with the current thread's position among them (the
/// stack the allocation's operands belong to).
///
/// # Panics
///
/// Panics (structured: "collection while task …") if another live
/// thread is not parked: a scheduler invariant violation, not a
/// recoverable error.
fn live_stacks<T: Deref<Target = ThreadState>, R>(
    threads: impl IntoIterator<Item = T>,
    prog: &IrProgram,
    cur: usize,
    site: CallSiteId,
    mut root: impl FnMut(T, CallSiteId) -> R,
) -> (Vec<R>, usize) {
    let mut stacks = Vec::new();
    let mut operand_stack = 0;
    for (i, t) in threads.into_iter().enumerate() {
        if !t.is_live() {
            continue;
        }
        let current_site = if i == cur {
            operand_stack = stacks.len();
            site
        } else {
            t.parked.unwrap_or_else(|| {
                panic!(
                    "collection while task {i} (fn {} `{}`, pc {}) is not parked at a call \
                     site — scheduler invariant violated (trigger site {})",
                    t.fn_id.0,
                    prog.fun(t.fn_id).name,
                    t.pc,
                    site.0
                )
            })
        };
        stacks.push(root(t, current_site));
    }
    (stacks, operand_stack)
}

/// The verifier's read-only view of the roots the collector walks.
fn roots_view<'t>(
    threads: &'t [ThreadState],
    prog: &IrProgram,
    globals: &'t [Word],
    operands: &'t [Word],
    cur: usize,
    site: CallSiteId,
) -> RootsView<'t> {
    let (stacks, operand_stack) =
        live_stacks(threads, prog, cur, site, |t, current_site| StackView {
            stack: &t.stack,
            top_fp: t.fp,
            current_site,
        });
    RootsView {
        stacks,
        globals,
        operands,
        operand_stack,
    }
}
