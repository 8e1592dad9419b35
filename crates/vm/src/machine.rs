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
//! There is one instruction body, `Vm::exec`. It is `#[inline(always)]`:
//! [`Vm::run`] loops on it directly and [`Vm::step`] (`#[inline]`) wraps
//! it, so every stepping loop — `run`, the task scheduler's quanta, an
//! external driver — compiles the dispatch into its own loop rather than
//! calling out once per instruction. The body builds no Rust heap value
//! on the common path: a call writes the callee frame in place from the
//! caller's slots, an allocation gathers its operands into one reused
//! machine-owned buffer, and `EvalDesc` reads its template and the
//! frame's descriptor slots where they lie.

use crate::error::{VmError, VmResult};
use crate::render::render_value;
use crate::stats::MutatorStats;
use tfgc_gc::{
    collect, pack_ret, Analyses, DescArena, GcMeta, GcStats, MachineRoots, StackRoots, Strategy,
    FRAME_HDR, MAIN_RET, NO_FP,
};
use tfgc_ir::{ArithOp, CallSiteId, CmpOp, CtorRep, FnId, Instr, IrProgram, Slot};
use tfgc_obs::{GcEvent, Obs};
use tfgc_runtime::{ArithKind, Encoding, Heap, HeapStats, Word, HEAP_BASE};
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
    /// program points).
    pub force_gc_every: Option<u64>,
    /// Instruction budget (`None` = unlimited).
    pub max_steps: Option<u64>,
    /// Maximum stack size in words (per thread).
    pub max_stack_words: usize,
    /// Cooperative mode (§4 tasking): an exhausted heap does not collect
    /// inline; the step reports [`StepEvent::AllocBlocked`] and the
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
}

impl VmConfig {
    /// A configuration with sensible defaults for `strategy`.
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

    /// Forces a collection every `n` allocations.
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

/// Why a thread does not execute its next instruction. The dispatch loop
/// tests a thread's `Option<Halt>` once per step and leaves the common
/// path when it is set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Halt {
    /// Runaway fault ([`FaultPlan::stall_at`]): the thread spins — every
    /// step burns an instruction without advancing — until a budget ends
    /// it.
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
    /// Where the scheduler parked this thread (valid while suspended).
    parked_site: Option<CallSiteId>,
    /// `None` while the thread executes normally.
    halt: Option<Halt>,
}

impl ThreadState {
    /// True while the stack holds frames the collector must trace.
    fn is_live(&self) -> bool {
        matches!(self.halt, None | Some(Halt::Stalled))
    }
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
    allocs_since_force: u64,
    /// Monotone allocation sequence number (fault-plan trigger key).
    alloc_seq: u64,
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
            allocs_since_force: 0,
            alloc_seq: 0,
            pending_oversize: 0,
            oracle: None,
            operands: Vec::new(),
        };
        vm.spawn_thread(prog.main, &[]);
        vm
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
    /// its first slots, written into `stack` after emptying it (shared by
    /// spawn and respawn; accounts the frame init stores identically in
    /// both).
    fn make_thread(&mut self, mut stack: Vec<Word>, f: FnId, args: &[Word]) -> ThreadState {
        let n_slots = self.prog.fun(f).slots.len();
        stack.clear();
        stack.reserve(FRAME_HDR + n_slots);
        stack.push(NO_FP);
        stack.push(MAIN_RET);
        stack.extend_from_slice(args);
        stack.resize(FRAME_HDR + n_slots, self.frame_fill());
        if self.cfg.strategy.requires_frame_init() {
            self.mutator.frame_init_stores += (n_slots - args.len()) as u64;
        }
        ThreadState {
            stack,
            fp: 0,
            fn_id: f,
            pc: 0,
            parked_site: None,
            halt: None,
        }
    }

    /// Spawns a new thread whose bottom frame runs `f` with `args` already
    /// in its first slots. Returns the thread index.
    pub fn spawn_thread(&mut self, f: FnId, args: &[Word]) -> usize {
        let t = self.make_thread(Vec::new(), f, args);
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
        let stack = std::mem::take(&mut self.threads[i].stack);
        self.threads[i] = self.make_thread(stack, f, args);
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

    /// The currently executing thread.
    pub fn current_thread(&self) -> usize {
        self.cur
    }

    /// The result of thread `i`, if it finished.
    pub fn thread_result(&self, i: usize) -> Option<Word> {
        match self.threads[i].halt {
            Some(Halt::Finished(w)) => Some(w),
            _ => None,
        }
    }

    /// Records where the scheduler parked thread `i` (§4: tasks suspend
    /// only at procedure calls / allocation sites).
    pub fn park_thread(&mut self, i: usize, site: CallSiteId) {
        self.threads[i].parked_site = Some(site);
    }

    /// Clears a thread's parked state (on resume).
    pub fn unpark_thread(&mut self, i: usize) {
        self.threads[i].parked_site = None;
    }

    /// Quarantines a failed thread: clears its stack so the collector
    /// stops tracing it (its heap data dies at the next collection) and
    /// drops its parked state. The scheduler uses this to let sibling
    /// tasks run on after one task errors.
    ///
    /// Stepping a killed thread is an error ([`VmError::Internal`]) until
    /// [`Vm::respawn_thread`] gives it new work.
    pub fn kill_thread(&mut self, i: usize) {
        let t = &mut self.threads[i];
        t.stack.clear();
        t.parked_site = None;
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

    fn frame_fill(&self) -> Word {
        if self.cfg.strategy.requires_frame_init() {
            // Safe value under either encoding (tagged: int 0 is odd).
            self.enc.int(0)
        } else {
            // Never traced (live ⊆ assigned is validated at compile
            // time); zero keeps runs deterministic.
            0
        }
    }

    #[inline]
    fn th(&self) -> &ThreadState {
        &self.threads[self.cur]
    }

    #[inline]
    fn th_mut(&mut self) -> &mut ThreadState {
        &mut self.threads[self.cur]
    }

    #[inline]
    fn get(&self, s: Slot) -> Word {
        let t = self.th();
        t.stack[t.fp + FRAME_HDR + s.0 as usize]
    }

    #[inline]
    fn set(&mut self, s: Slot, w: Word) {
        let t = self.th_mut();
        let i = t.fp + FRAME_HDR + s.0 as usize;
        t.stack[i] = w;
    }

    fn fn_name(&self) -> String {
        self.prog.fun(self.th().fn_id).name.clone()
    }

    /// Runs thread 0 to completion.
    pub fn run(&mut self) -> VmResult<RunOutcome> {
        loop {
            match self.exec()? {
                StepEvent::Done(w) => {
                    let result =
                        render_value(self.prog, &self.heap, self.enc, w, &self.prog.main_ty);
                    return Ok(RunOutcome {
                        printed: std::mem::take(&mut self.printed),
                        result,
                        heap: self.heap.stats,
                        gc: self.gc_stats,
                        mutator: self.mutator,
                        descs_interned: self.descs.len(),
                        metadata_bytes: self.meta.metadata_bytes(),
                    });
                }
                StepEvent::AllocBlocked(_) => {
                    unreachable!("non-cooperative mode collects inline")
                }
                StepEvent::Continue => {}
            }
        }
    }

    /// Executes one instruction of the current thread.
    ///
    /// A finished thread answers [`StepEvent::Done`] with its result
    /// again, and a killed one [`VmError::Internal`]; neither counts an
    /// instruction.
    #[inline]
    pub fn step(&mut self) -> VmResult<StepEvent> {
        self.exec()
    }

    /// The one instruction body behind [`Vm::run`] and [`Vm::step`],
    /// inlined into each so that every loop over it dispatches without
    /// a call per instruction.
    #[inline(always)]
    fn exec(&mut self) -> VmResult<StepEvent> {
        if let Some(halt) = self.th().halt {
            return self.step_halted(halt);
        }
        self.count_instruction()?;
        let prog = self.prog;
        let (fn_id, pc) = {
            let t = self.th();
            (t.fn_id, t.pc)
        };
        let ins = &prog.fun(fn_id).code[pc as usize];
        match ins {
            Instr::LoadInt(d, n) => {
                let w = self.enc.int(*n);
                self.set(*d, w);
            }
            Instr::LoadBool(d, b) => {
                let w = self.enc.bool(*b);
                self.set(*d, w);
            }
            Instr::LoadUnit(d) => {
                let w = self.enc.unit();
                self.set(*d, w);
            }
            Instr::LoadGlobal(d, g) => {
                let w = self.globals[g.0 as usize];
                self.set(*d, w);
            }
            Instr::StoreGlobal(g, s) => {
                self.globals[g.0 as usize] = self.get(*s);
            }
            Instr::Move(d, s) => {
                let w = self.get(*s);
                self.set(*d, w);
            }
            Instr::Arith(d, op, a, b) => {
                let x = self.enc.int_of(self.get(*a));
                let y = self.enc.int_of(self.get(*b));
                let (kind, val) = match op {
                    ArithOp::Add => (ArithKind::Add, Some(x.wrapping_add(y))),
                    ArithOp::Sub => (ArithKind::Sub, Some(x.wrapping_sub(y))),
                    ArithOp::Mul => (ArithKind::Mul, Some(x.wrapping_mul(y))),
                    ArithOp::Div => (ArithKind::Div, x.checked_div(y)),
                    ArithOp::Mod => (ArithKind::Mod, x.checked_rem(y)),
                };
                let val = val.ok_or_else(|| VmError::DivideByZero {
                    function: self.fn_name(),
                })?;
                self.mutator.tag_ops += self.enc.arith_tag_ops(kind);
                let w = self.enc.int(val);
                self.set(*d, w);
            }
            Instr::Cmp(d, op, a, b) => {
                let x = self.enc.int_of(self.get(*a));
                let y = self.enc.int_of(self.get(*b));
                let r = match op {
                    CmpOp::Eq => x == y,
                    CmpOp::Ne => x != y,
                    CmpOp::Lt => x < y,
                    CmpOp::Le => x <= y,
                    CmpOp::Gt => x > y,
                    CmpOp::Ge => x >= y,
                };
                self.mutator.tag_ops += self.enc.arith_tag_ops(ArithKind::Cmp);
                let w = self.enc.bool(r);
                self.set(*d, w);
            }
            Instr::Neg(d, a) => {
                let x = self.enc.int_of(self.get(*a));
                self.mutator.tag_ops += self.enc.arith_tag_ops(ArithKind::Neg);
                let w = self.enc.int(x.wrapping_neg());
                self.set(*d, w);
            }
            Instr::Not(d, a) => {
                let x = self.enc.bool_of(self.get(*a));
                let w = self.enc.bool(!x);
                self.set(*d, w);
            }
            Instr::Jump(t) => {
                self.th_mut().pc = *t;
                return Ok(StepEvent::Continue);
            }
            Instr::BranchFalse(s, t) => {
                if !self.enc.bool_of(self.get(*s)) {
                    self.th_mut().pc = *t;
                    return Ok(StepEvent::Continue);
                }
            }
            Instr::BranchIntNe(s, n, t) => {
                if self.enc.int_of(self.get(*s)) != *n {
                    self.th_mut().pc = *t;
                    return Ok(StepEvent::Continue);
                }
            }
            Instr::BranchTagNe {
                obj,
                data,
                ctor,
                target,
            } => {
                let w = self.get(*obj);
                let rep = prog.ctor_rep(*data, *ctor);
                if !self.value_matches_ctor(w, rep) {
                    self.th_mut().pc = *target;
                    return Ok(StepEvent::Continue);
                }
            }
            Instr::GetField(d, o, i) => {
                let w = self.get(*o);
                let v = self.heap_field(w, *i);
                self.set(*d, v);
            }
            Instr::MakeTuple { dst, elems, site } => {
                match self.alloc_from_slots(*site, None, elems, false)? {
                    Some(ptr) => self.set(*dst, ptr),
                    None => return Ok(StepEvent::AllocBlocked(*site)),
                }
            }
            Instr::MakeData {
                dst,
                data,
                ctor,
                fields,
                site,
            } => {
                let rep = prog.ctor_rep(*data, *ctor);
                let tag_word = match rep {
                    CtorRep::Ptr { tag: Some(t), .. } => Some(self.encode_tag(t)),
                    CtorRep::Ptr { tag: None, .. } => None,
                    CtorRep::Imm(_) => {
                        unreachable!("immediate constructors lower to LoadInt")
                    }
                };
                match self.alloc_from_slots(*site, tag_word, fields, tag_word.is_some())? {
                    Some(ptr) => self.set(*dst, ptr),
                    None => return Ok(StepEvent::AllocBlocked(*site)),
                }
            }
            Instr::MakeClosure {
                dst,
                f,
                captures,
                site,
            } => {
                let fn_word = self.encode_fn_id(*f);
                match self.alloc_from_slots(*site, Some(fn_word), captures, false)? {
                    Some(ptr) => self.set(*dst, ptr),
                    None => return Ok(StepEvent::AllocBlocked(*site)),
                }
            }
            Instr::EvalDesc { dst, template } => {
                self.mutator.desc_evals += 1;
                // Resolve parameter descriptors from this frame's
                // descriptor slots.
                let slots = &prog.fun(fn_id).desc_param_slots;
                let t = &self.threads[self.cur];
                let frame = &t.stack[t.fp + FRAME_HDR..];
                let enc = self.enc;
                let id = self.descs.eval_type(prog.desc_template(*template), &|p| {
                    slots
                        .iter()
                        .find(|(q, _)| *q == p)
                        .map(|(_, s)| tfgc_gc::DescId(decode_desc_word(enc, frame[s.0 as usize])))
                });
                let w = self.encode_desc_word(id.0);
                self.set(*dst, w);
            }
            Instr::CallDirect { dst, f, args, site } => {
                self.mutator.calls += 1;
                self.push_frame(*f, *site, *dst, args)?;
                return Ok(StepEvent::Continue);
            }
            Instr::CallClosure {
                dst,
                clos,
                arg,
                site,
            } => {
                self.mutator.closure_calls += 1;
                let cw = self.get(*clos);
                let f = FnId(self.decode_fn_id(self.heap_field(cw, 0)));
                self.push_frame(f, *site, *dst, &[*clos, *arg])?;
                return Ok(StepEvent::Continue);
            }
            Instr::Return(s) => {
                let w = self.get(*s);
                return self.do_return(w);
            }
            Instr::Print(s) => {
                let v = self.enc.int_of(self.get(*s));
                self.printed.push(v);
            }
            Instr::MatchFail => {
                return Err(VmError::MatchFailure {
                    function: self.fn_name(),
                })
            }
        }
        self.th_mut().pc += 1;
        Ok(StepEvent::Continue)
    }

    /// Enforces the step limit, then counts one executed instruction.
    #[inline(always)]
    fn count_instruction(&mut self) -> VmResult<()> {
        if let Some(limit) = self.cfg.max_steps {
            if self.mutator.instructions >= limit {
                return Err(VmError::StepLimit { limit });
            }
        }
        self.mutator.instructions += 1;
        Ok(())
    }

    /// A step of a halted thread.
    #[cold]
    #[inline(never)]
    fn step_halted(&mut self, halt: Halt) -> VmResult<StepEvent> {
        match halt {
            // A stalled (runaway-fault) thread burns its instruction
            // without making progress; only a deadline/fuel budget or
            // the step limit can end it.
            Halt::Stalled => {
                self.count_instruction()?;
                Ok(StepEvent::Continue)
            }
            Halt::Finished(w) => Ok(StepEvent::Done(w)),
            Halt::Killed => Err(VmError::Internal {
                detail: format!("thread {} was killed and has nothing to step", self.cur),
            }),
        }
    }

    /// Pushes a callee frame in place on the current thread's stack:
    /// dynamic link, return word (the gc_word key), then the slots. The
    /// first `args.len()` slots receive the caller's slots `args`, copied
    /// directly; the rest receive the fill word.
    #[inline]
    fn push_frame(
        &mut self,
        callee: FnId,
        site: CallSiteId,
        dst: Slot,
        args: &[Slot],
    ) -> VmResult<()> {
        let n_slots = self.prog.fun(callee).slots.len();
        let init = self.frame_fill();
        let max = self.cfg.max_stack_words;
        let init_frames = self.cfg.strategy.requires_frame_init();
        let t = &mut self.threads[self.cur];
        let new_fp = t.stack.len();
        let top = new_fp + FRAME_HDR + n_slots;
        if top > max {
            return Err(VmError::StackOverflow { words: new_fp });
        }
        let caller = t.fp + FRAME_HDR;
        t.stack.reserve(FRAME_HDR + n_slots);
        t.stack.push(t.fp as Word);
        t.stack.push(pack_ret(site, dst));
        for s in args {
            let w = t.stack[caller + s.0 as usize];
            t.stack.push(w);
        }
        t.stack.resize(top, init);
        t.fp = new_fp;
        t.fn_id = callee;
        t.pc = 0;
        if init_frames {
            self.mutator.frame_init_stores += (n_slots - args.len()) as u64;
        }
        self.mutator.max_stack_words = self.mutator.max_stack_words.max(top as u64);
        Ok(())
    }

    fn do_return(&mut self, w: Word) -> VmResult<StepEvent> {
        let prog = self.prog;
        let t = self.th_mut();
        let saved = t.stack[t.fp];
        let ret = t.stack[t.fp + 1];
        if saved == NO_FP {
            t.halt = Some(Halt::Finished(w));
            t.stack.clear();
            return Ok(StepEvent::Done(w));
        }
        let (site, dst) = tfgc_gc::unpack_ret(ret);
        t.stack.truncate(t.fp);
        t.fp = saved as usize;
        let cs = prog.site(site);
        t.fn_id = cs.fn_id;
        // Resume after the call — the paper's `jmpl %o7+12` skipping the
        // gc_word (ours lives in a side table keyed by the site).
        t.pc = cs.pc + 1;
        self.set(dst, w);
        Ok(StepEvent::Continue)
    }

    /// Allocates an object whose payload is the current frame's `slots`:
    /// gathers them into the machine's operand buffer, which is taken out
    /// of the machine for the allocation and put back afterwards, on the
    /// error path too.
    #[inline]
    fn alloc_from_slots(
        &mut self,
        site: CallSiteId,
        head: Option<Word>,
        slots: &[Slot],
        head_is_discriminant: bool,
    ) -> VmResult<Option<Word>> {
        let mut operands = std::mem::take(&mut self.operands);
        operands.clear();
        operands.extend(slots.iter().map(|s| self.get(*s)));
        let r = self.alloc_object(site, head, &mut operands, head_is_discriminant);
        self.operands = operands;
        r
    }

    /// Allocates a heap object with optional head word (discriminant or
    /// closure code pointer) and the given payload. In cooperative mode an
    /// exhausted heap yields `Ok(None)` (the scheduler collects); otherwise
    /// it collects inline, growing under the bounded policy if configured.
    /// `operands` — the machine's reused operand buffer — is a root of
    /// every collection this triggers ([`MachineRoots::operands`]) and may
    /// be relocated by the collector before it is written into the
    /// object.
    fn alloc_object(
        &mut self,
        site: CallSiteId,
        head: Option<Word>,
        operands: &mut [Word],
        head_is_discriminant: bool,
    ) -> VmResult<Option<Word>> {
        let payload = operands.len() + usize::from(head.is_some());
        let total = payload + self.enc.mode.header_words();
        self.alloc_seq += 1;
        let seq = self.alloc_seq;

        // Runaway fault: the task thread that performs this allocation
        // starts spinning right after it completes. Task threads only —
        // stalling the main/globals phase (thread 0) or the batch
        // pipeline would hang setup instead of modeling a runaway
        // request handler.
        if self.cfg.cooperative
            && self.cur != 0
            && self.cfg.fault_plan.is_some_and(|p| p.stall_at == Some(seq))
        {
            self.threads[self.cur].halt = Some(Halt::Stalled);
            self.obs.emit(|t_ns| GcEvent::FaultInjected {
                t_ns,
                kind: "stall",
                seq,
            });
        }

        if !self.cfg.cooperative {
            if let Some(n) = self.cfg.force_gc_every {
                self.allocs_since_force += 1;
                if self.allocs_since_force >= n {
                    self.allocs_since_force = 0;
                    // Forced collections are always full: the liveness
                    // experiments compare retained bytes at identical
                    // program points, which a nursery-only cycle would
                    // understate.
                    self.collect_now(site, operands, false)?;
                }
            }
        }
        // Transient-failure fault: this allocation reports an exhausted
        // heap once even though space remains, forcing the
        // collect-and-retry path.
        let forced_fail = self
            .cfg
            .fault_plan
            .is_some_and(|p| p.alloc_fail_at == Some(seq));
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
        let mut off = 0u16;
        if self.enc.mode.header_words() == 1 {
            self.heap.write(addr, 0, payload as Word);
            off = 1;
        }
        if let Some(h) = head {
            self.heap.write(addr, off, h);
            off += 1;
        }
        for (i, w) in operands.iter().enumerate() {
            self.heap.write(addr, off + i as u16, *w);
        }
        // Discriminant-corruption fault: overwrite the freshly written
        // variant tag with a value matching no constructor. The next
        // trace through this object must fail fast, never mistrace.
        if head_is_discriminant
            && self
                .cfg
                .fault_plan
                .is_some_and(|p| p.corrupt_discriminant_at == Some(seq))
        {
            let tag_off = self.enc.mode.header_words() as u16;
            let bogus = self.encode_tag(u32::MAX);
            self.heap.write(addr, tag_off, bogus);
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
        Ok(Some(self.enc.ptr(addr)))
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
    ) -> VmResult<Option<tfgc_runtime::Addr>> {
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
    /// collection cycle. Factored out of [`Vm::collect_now`] so a minor
    /// whose survivor half overflowed can escalate to a major within
    /// the same pause.
    fn run_collection(&mut self, site: CallSiteId, operands: &mut [Word], minor: bool) {
        let prog = self.prog;
        let cur = self.cur;
        let mut stacks = Vec::new();
        let mut operand_stack = 0;
        for (i, t) in self.threads.iter_mut().enumerate() {
            if !t.is_live() {
                continue;
            }
            let current_site = if i == cur {
                site
            } else {
                match t.parked_site {
                    Some(s) => s,
                    None => panic!(
                        "collection while task {i} (fn {} `{}`, pc {}) is not parked at a \
                         call site — scheduler invariant violated (trigger site {})",
                        t.fn_id.0,
                        prog.fun(t.fn_id).name,
                        t.pc,
                        site.0
                    ),
                }
            };
            if i == cur {
                operand_stack = stacks.len();
            }
            stacks.push(StackRoots {
                stack: &mut t.stack,
                top_fp: t.fp,
                current_site,
            });
        }
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
    }

    /// Oracle hook: renders everything reachable from the collector's
    /// roots as a canonical snapshot *before* the collection mutates
    /// anything.
    fn capture_snapshot(&mut self, site: CallSiteId, operands: &[Word]) -> VmResult<()> {
        if self.oracle.is_none() {
            return Ok(());
        }
        let roots = build_roots_view(&self.threads, &self.globals, operands, self.cur, site);
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
        let roots = build_roots_view(&self.threads, &self.globals, operands, self.cur, site);
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

    fn heap_field(&self, w: Word, i: u16) -> Word {
        let a = self.enc.addr_of(w);
        let hdr = self.enc.mode.header_words() as u16;
        self.heap.read(a, i + hdr)
    }

    fn value_matches_ctor(&self, w: Word, rep: CtorRep) -> bool {
        let imm = match self.enc.mode {
            tfgc_runtime::HeapMode::TagFree => {
                if w < HEAP_BASE {
                    Some(w as u32)
                } else {
                    None
                }
            }
            tfgc_runtime::HeapMode::Tagged => {
                if self.enc.is_tagged_ptr(w) {
                    None
                } else {
                    Some(self.enc.int_of(w) as u32)
                }
            }
        };
        match (imm, rep) {
            (Some(k), CtorRep::Imm(i)) => k == i,
            (Some(_), CtorRep::Ptr { .. }) | (None, CtorRep::Imm(_)) => false,
            (None, CtorRep::Ptr { tag: None, .. }) => true,
            (None, CtorRep::Ptr { tag: Some(t), .. }) => {
                let stored = self.heap_field(w, 0);
                let raw = match self.enc.mode {
                    tfgc_runtime::HeapMode::TagFree => stored as u32,
                    tfgc_runtime::HeapMode::Tagged => self.enc.int_of(stored) as u32,
                };
                raw == t
            }
        }
    }

    fn encode_tag(&self, t: u32) -> Word {
        match self.enc.mode {
            tfgc_runtime::HeapMode::TagFree => Word::from(t),
            tfgc_runtime::HeapMode::Tagged => self.enc.int(i64::from(t)),
        }
    }

    fn encode_fn_id(&self, f: FnId) -> Word {
        match self.enc.mode {
            tfgc_runtime::HeapMode::TagFree => Word::from(f.0),
            tfgc_runtime::HeapMode::Tagged => self.enc.int(i64::from(f.0)),
        }
    }

    fn decode_fn_id(&self, w: Word) -> u32 {
        match self.enc.mode {
            tfgc_runtime::HeapMode::TagFree => w as u32,
            tfgc_runtime::HeapMode::Tagged => self.enc.int_of(w) as u32,
        }
    }

    fn encode_desc_word(&self, d: u32) -> Word {
        match self.enc.mode {
            tfgc_runtime::HeapMode::TagFree => Word::from(d),
            tfgc_runtime::HeapMode::Tagged => self.enc.int(i64::from(d)),
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

fn decode_desc_word(enc: Encoding, w: Word) -> u32 {
    match enc.mode {
        tfgc_runtime::HeapMode::TagFree => w as u32,
        tfgc_runtime::HeapMode::Tagged => enc.int_of(w) as u32,
    }
}

/// Builds the verifier's read-only view of the collector's roots — the
/// same thread filtering and operand attribution as `collect_now`.
fn build_roots_view<'t>(
    threads: &'t [ThreadState],
    globals: &'t [Word],
    operands: &'t [Word],
    cur: usize,
    site: CallSiteId,
) -> RootsView<'t> {
    let mut stacks = Vec::new();
    let mut operand_stack = 0;
    for (i, t) in threads.iter().enumerate() {
        if !t.is_live() {
            continue;
        }
        let current_site = if i == cur {
            site
        } else {
            match t.parked_site {
                Some(s) => s,
                None => panic!(
                    "collection while task {i} is not parked at a call site — scheduler \
                     invariant violated (trigger site {})",
                    site.0
                ),
            }
        };
        if i == cur {
            operand_stack = stacks.len();
        }
        stacks.push(StackView {
            stack: &t.stack,
            top_fp: t.fp,
            current_site,
        });
    }
    RootsView {
        stacks,
        globals,
        operands,
        operand_stack,
    }
}
