//! The tag-free copying collector.
//!
//! Implements Figure 2's loop: walk the dynamic chain, select each frame's
//! `frame_gc_routine` through the return-address → gc_word mapping, and
//! run it. Three strategy families share this module:
//!
//! * **Compiled / Interpreted** (§2, §2.4): monomorphic frames trace with
//!   precompiled ground routines (or byte descriptors); polymorphic frames
//!   use §3's scheme — the dynamic chain is decoded in one pass (the
//!   paper does this by pointer-reversing the links; collecting frame
//!   records is the equivalent traversal, see DESIGN.md) and then walked
//!   **oldest → newest**, each frame routine evaluating the static θ of
//!   its call site to hand the next routine its type_gc_routine arguments.
//! * **Appel** (§1.1.1): one routine per procedure, traversal newest →
//!   oldest, re-descending the chain for every frame's type resolution
//!   with no caching — the cost Goldberg's forward scheme avoids;
//!   [`GcStats::chain_steps`] counts it.
//!
//! Each strategy runs one tracing engine for its frame slots:
//!
//! * **Compiled, CompiledNoLiveness, AppelPerFn** evaluate each slot's
//!   routine and execute its lowered trace plan (`plan.rs`).
//! * **Interpreted** walks the slot's byte descriptor, parsing it afresh
//!   at every object it copies — §2.4's interpreted method, the space
//!   side of the trade-off E4 measures.
//!
//! Whatever is typed by an evaluated routine value — globals, pending
//! allocation operands, closure captures, and a descriptor `Param` bound
//! to a routine — runs that routine's plan under every strategy.
//!
//! Values are traced through a typed worklist (no recursion in data
//! depth), so million-element lists collect in constant Rust stack space.
//!
//! Template evaluation, Figure-3 path extraction, and descriptor
//! conversion all route through the metadata's [`RtCache`]. The forward
//! walk goes further: each frame is keyed on its call site and the
//! interned state its caller's routine hands it, and only the first
//! activation with a key evaluates anything. Later ones replay the
//! recorded frame step — the traced slots with their resolved plans (or
//! descriptor positions) and the outgoing state — so a deep chain of
//! activations costs one small-integer lookup per frame, not a θ
//! evaluation, an environment vector and plan lookups. Appel's walk is
//! never memoized. The worklist and the decoded-frame vector live in
//! [`CollectorScratch`] (owned by `GcMeta`) and are reused across
//! collections; the heap's forwarding bitmap is likewise allocated once
//! and only zeroed per collection (see `tfgc_runtime::Heap`).

use crate::bytes::{BytePool, DescView};
use crate::cache::{FrameStep, RtCache, SlotStep, StateId, NO_STATE};
use crate::desc::{DescArena, DescId};
use crate::ground::{GroundTable, TypeRt, TypeRtId};
use crate::meta::{CalleePlan, ClosParamSrc, FnGcMeta, FrameParamSrc, GcMeta, SiteMeta};
use crate::plan::{PlanId, PlanKind, PlanOp, PlanOps, VariantPlan, NOOP_PLAN};
use crate::routines::{RoutineTable, TraceOp};
use crate::rtval::{EvalCx, RtBuildStats, RtVal};
use crate::stack::{walk_frames_into, FrameInfo, FRAME_HDR};
use crate::stats::GcStats;
use crate::strategy::Strategy;
use crate::sx::{SxId, SxTable};
use std::rc::Rc;
use std::time::Instant;
use tfgc_ir::{CallSiteId, CtorRep, IrProgram};
use tfgc_obs::{CollectionKind, GcEvent, Obs};
use tfgc_runtime::{Addr, Encoding, Heap, HeapMode, Word, HEAP_BASE};
use tfgc_types::DataId;

/// One task's activation-record stack (a single-task program has exactly
/// one; §4's shared-memory tasks each contribute one).
#[derive(Debug)]
pub struct StackRoots<'m> {
    /// The whole activation-record stack.
    pub stack: &'m mut [Word],
    /// Base of the newest frame.
    pub top_fp: usize,
    /// Site the newest frame is suspended at (the allocation that
    /// triggered this collection, or the call a task is parked at — §4
    /// suspends tasks only at procedure calls).
    pub current_site: CallSiteId,
}

/// The mutator state handed to the collector.
#[derive(Debug)]
pub struct MachineRoots<'m> {
    /// All task stacks ("garbage collection starts and the stack of each
    /// process is traversed in turn", §4).
    pub stacks: Vec<StackRoots<'m>>,
    /// Global variable words.
    pub globals: &'m mut [Word],
    /// Pending operand words of the allocation in progress — "the
    /// parameters of the allocation primitive", traced by the collector
    /// itself (§2.4). Typed by `stacks[operand_stack]`'s current site.
    pub operands: &'m mut [Word],
    /// Index of the stack whose suspension site types the operands.
    pub operand_stack: usize,
}

/// A tracing type at collection time: an evaluated routine value (traced
/// through its plan), an interpreted byte descriptor under an
/// environment, or a lowered trace plan.
#[derive(Debug, Clone)]
pub(crate) enum WTy {
    Rt(RtVal),
    Bytes { pos: u32, env: Rc<Vec<WTy>> },
    Plan(PlanId),
}

/// Fail-fast lookup for byte-descriptor parameter environments: a
/// too-short environment is a torn stack map (e.g. truncated frame
/// parameter sources), and tracing must stop with a structured panic
/// rather than an anonymous index error or a silent mistrace.
fn byte_param(env: &[WTy], i: u16) -> &WTy {
    env.get(i as usize).unwrap_or_else(|| {
        panic!(
            "type parameter {i} out of range: environment carries {} byte descriptor(s)",
            env.len()
        )
    })
}

#[derive(Debug, Clone)]
pub(crate) struct WorkItem {
    addr: Addr,
    off: u16,
    ty: WTy,
    /// Root context the object was first reached from — reported by the
    /// heap-corruption panics so a bad word names its tracing origin.
    origin: EvalCx,
}

/// Persistent collector buffers, owned by `GcMeta` so one allocation
/// serves every collection of a run: the typed worklist and the decoded
/// dynamic-chain vector (a deep stack is decoded without growing a fresh
/// `Vec` each pause). The third reused structure — the forwarding side
/// bitmap — already lives in `tfgc_runtime::Heap`, sized once at heap
/// construction and zeroed (not reallocated) on each flip.
#[derive(Debug, Clone, Default)]
pub struct CollectorScratch {
    pub(crate) work: Vec<WorkItem>,
    pub(crate) frames: Vec<FrameInfo>,
}

/// Runs one tag-free collection. `minor` asks for a nursery-only cycle
/// on a generational heap: the same root walk and the same relocation
/// primitives run, but the heap's phase routes copies to the survivor
/// half (or tenured, on promotion) and treats every tenured address as
/// already relocated — tenured space is never touched, which is sound
/// precisely because the immutable heap has no tenured→nursery edges.
///
/// # Panics
///
/// Panics if a frame is suspended at a site whose gc_word was omitted —
/// that would falsify the §5.1 analysis — or on heap corruption.
#[allow(clippy::too_many_arguments)]
pub fn collect_tagfree(
    meta: &mut GcMeta,
    prog: &IrProgram,
    heap: &mut Heap,
    descs: &DescArena,
    stats: &mut GcStats,
    obs: &mut Obs,
    mut roots: MachineRoots<'_>,
    minor: bool,
) {
    assert_ne!(meta.strategy, Strategy::Tagged, "use collect_tagged");
    let strategy = meta.strategy;
    let kind = if minor {
        CollectionKind::Minor
    } else {
        CollectionKind::Major
    };
    let seq = stats.collections;
    // Snapshots so CollectionEnd reports this collection's work alone.
    let frames0 = stats.frames_visited;
    let routines0 = stats.routine_invocations;
    let nodes0 = stats.rt_nodes_built;
    let hits0 = meta.rt_cache.hits;
    let misses0 = meta.rt_cache.misses;
    let phits0 = meta.rt_cache.plans.hits;
    let pmisses0 = meta.rt_cache.plans.misses;
    let pcompiled0 = meta.rt_cache.plans.compiled;
    let copied0 = heap.stats.words_copied;
    let trigger_site = roots
        .stacks
        .get(roots.operand_stack)
        .map_or(0, |sr| sr.current_site.0);
    obs.emit(|t_ns| GcEvent::CollectionBegin {
        t_ns,
        seq,
        kind,
        strategy: strategy.name(),
        trigger_site,
        heap_used_before: heap.used() as u64,
    });
    // The pause clock starts *after* the begin event: sink time (snapshot
    // formatting, ring writes) is observer overhead, not collection work,
    // and must not skew pause statistics between sink configurations.
    let t0 = Instant::now();
    heap.begin_collection(minor);
    let frames_buf = &mut meta.scratch.frames;
    let mut cx = Collector {
        prog,
        heap,
        descs,
        ground: &mut meta.ground,
        routines: &meta.routines,
        pool: &meta.pool,
        sxs: &meta.sxs,
        sites: &meta.sites,
        fns: &meta.fns,
        data_variants: &meta.data_variants,
        cache: &mut meta.rt_cache,
        stats,
        obs,
        seq,
        strategy,
        cur: EvalCx::None,
        build: RtBuildStats::default(),
        work: &mut meta.scratch.work,
        enc: Encoding::new(HeapMode::TagFree),
    };

    // Globals first: their routines are known statically (§1.1).
    for (i, g) in meta.globals.iter().enumerate() {
        if let Some(sx) = g {
            cx.cur = EvalCx::Global(i as u32);
            let rt = cx.eval(*sx, &[]);
            roots.globals[i] = cx.reloc_rt_root(roots.globals[i], &rt);
        }
    }

    // Each task's stack is traversed in turn (§4).
    let mut operand_env: Vec<RtVal> = Vec::new();
    let mut operand_site = None;
    for (ti, sr) in roots.stacks.iter_mut().enumerate() {
        walk_frames_into(frames_buf, sr.stack, sr.top_fp, sr.current_site, prog);
        cx.stats.frames_visited += frames_buf.len() as u64;
        if cx.obs.enabled() {
            for fr in frames_buf.iter() {
                cx.obs.emit(|_| GcEvent::FrameVisit {
                    seq,
                    fn_id: fr.fn_id.0,
                    site: fr.site.0,
                });
            }
        }
        let newest_env = match strategy {
            Strategy::AppelPerFn => cx.appel_walk(frames_buf, sr.stack),
            _ => cx.forward_walk(frames_buf, sr.stack),
        };
        if ti == roots.operand_stack {
            operand_env = newest_env;
            operand_site = Some(sr.current_site);
        }
    }

    // Pending allocation operands, typed by the triggering task's site,
    // traced under its newest frame's environment.
    // (`operands` may be empty even at an allocation site: §4 tasks
    // re-execute a blocked allocation after the collection.)
    if let Some(site) = operand_site {
        cx.cur = EvalCx::Operands { site: site.0 };
        let sites = cx.sites;
        let ops = &sites[site.0 as usize].operands;
        for (op, w) in ops.iter().zip(roots.operands.iter_mut()) {
            if let Some(sx) = op {
                let rt = cx.eval(*sx, &operand_env);
                *w = cx.reloc_rt_root(*w, &rt);
            }
        }
    }

    cx.drain();
    let built = cx.build.nodes_built;
    stats.rt_nodes_built += built;
    stats.rt_cache_hits += meta.rt_cache.hits - hits0;
    stats.rt_cache_misses += meta.rt_cache.misses - misses0;
    stats.plan_hits += meta.rt_cache.plans.hits - phits0;
    stats.plan_misses += meta.rt_cache.plans.misses - pmisses0;
    stats.plans_compiled += meta.rt_cache.plans.compiled - pcompiled0;
    heap.finish_collection();
    stats.collections += 1;
    if minor {
        stats.minor_collections += 1;
        stats.promoted_words += heap.last_promoted_words();
        stats.died_young_words += heap.last_died_young_words();
    } else {
        stats.major_collections += 1;
    }
    let pause = t0.elapsed().as_nanos() as u64;
    stats.pause_nanos += pause;
    obs.emit(|t_ns| GcEvent::CollectionEnd {
        t_ns,
        seq,
        kind,
        pause_ns: pause,
        heap_used_after: heap.used() as u64,
        words_copied: heap.stats.words_copied - copied0,
        frames_visited: stats.frames_visited - frames0,
        routine_invocations: stats.routine_invocations - routines0,
        rt_nodes_built: stats.rt_nodes_built - nodes0,
        rt_cache_hits: meta.rt_cache.hits - hits0,
        rt_cache_misses: meta.rt_cache.misses - misses0,
        plan_hits: meta.rt_cache.plans.hits - phits0,
        plan_misses: meta.rt_cache.plans.misses - pmisses0,
        plans_compiled: meta.rt_cache.plans.compiled - pcompiled0,
    });
}

struct Collector<'c> {
    prog: &'c IrProgram,
    heap: &'c mut Heap,
    descs: &'c DescArena,
    ground: &'c mut GroundTable,
    routines: &'c RoutineTable,
    pool: &'c BytePool,
    sxs: &'c SxTable,
    sites: &'c [SiteMeta],
    fns: &'c [FnGcMeta],
    data_variants: &'c [Vec<Vec<SxId>>],
    cache: &'c mut RtCache,
    stats: &'c mut GcStats,
    obs: &'c mut Obs,
    seq: u64,
    strategy: Strategy,
    /// Context currently being traced from (frame, global, operand, …) —
    /// threaded into fail-fast panics and captured per work item.
    cur: EvalCx,
    build: RtBuildStats,
    work: &'c mut Vec<WorkItem>,
    enc: Encoding,
}

/// Head classification of a pointer-object relocation.
enum Head {
    /// Immediate value (or null-like): unchanged.
    Imm(Word),
    /// Already relocated: the new encoded word.
    Done(Word),
    /// Freshly copied to `new`; fields still need enqueueing.
    Copied(Addr),
}

impl Collector<'_> {
    /// Memoized template evaluation under the current tracing context.
    fn eval(&mut self, id: SxId, env: &[RtVal]) -> RtVal {
        self.cache
            .eval(self.sxs, id, env, &mut self.build, self.cur)
    }

    /// Memoized template evaluation under an explicit context (variant
    /// fields, closure captures — contexts finer than `self.cur`).
    fn eval_at(&mut self, id: SxId, env: &[RtVal], cx: EvalCx) -> RtVal {
        self.cache.eval(self.sxs, id, env, &mut self.build, cx)
    }

    /// Memoized Figure-3 path extraction.
    fn extract(&mut self, rt: &RtVal, path: &[u16], cx: EvalCx) -> RtVal {
        self.cache.extract(rt, path, self.prog, self.ground, cx)
    }

    /// Memoized descriptor → routine conversion.
    fn desc_rt(&mut self, id: DescId) -> RtVal {
        self.cache.desc(self.descs, id, &mut self.build)
    }

    /// §3's traversal: oldest to newest, propagating type routine
    /// environments through the recorded θ / closure-type plans, through
    /// the frame-step memo. Each frame is one `(site, incoming state)`
    /// lookup — skipped outright when the frame repeats the previous
    /// frame's key, as every frame of a recursion does — then one
    /// relocation per traced slot. A miss traces the frame on the plain
    /// path and records its step. Frames that read a type parameter from
    /// a descriptor slot depend on their own stack words, so they always
    /// take the plain path; their outgoing state is interned so the
    /// frames above them stay memoized. Returns the newest frame's
    /// environment.
    fn forward_walk(&mut self, frames: &[FrameInfo], stack: &mut [Word]) -> Vec<RtVal> {
        let mut state = NO_STATE;
        let mut last: Option<(CallSiteId, StateId, u32)> = None;
        let mut newest = self.cache.env_ix(&[]);
        for fr in frames.iter().rev() {
            self.cur = EvalCx::Frame {
                fn_id: fr.fn_id.0,
                site: fr.site.0,
            };
            let found = match last {
                Some((site, s, f)) if site == fr.site && s == state => {
                    self.cache.hits += 1;
                    Some(f)
                }
                _ if self.reads_desc_slot(fr) => {
                    let (step, _) = self.trace_plain(fr, state, stack);
                    (state, newest, last) = (step.out, step.env, None);
                    continue;
                }
                _ => self.cache.find_frame(fr.site.0, state),
            };
            let f = match found {
                Some(f) => {
                    self.replay_frame(fr, f, stack);
                    f
                }
                None => {
                    let (step, slots) = self.trace_plain(fr, state, stack);
                    self.cache.insert_frame(fr.site.0, state, step, &slots)
                }
            };
            last = Some((fr.site, state, f));
            let step = self.cache.frame(f);
            (state, newest) = (step.out, step.env);
        }
        self.cache.env(newest).to_vec()
    }

    /// True when the frame's function reads a type parameter from one of
    /// its own descriptor slots.
    fn reads_desc_slot(&self, fr: &FrameInfo) -> bool {
        self.fns[fr.fn_id.0 as usize]
            .frame_param_src
            .iter()
            .any(|s| matches!(s, FrameParamSrc::DescSlot(_)))
    }

    /// Traces a frame on the plain path from its incoming state. Returns
    /// the frame step this activation amounts to and its traced slots.
    fn trace_plain(
        &mut self,
        fr: &FrameInfo,
        state: StateId,
        stack: &mut [Word],
    ) -> (FrameStep, Vec<SlotStep>) {
        let (theta, clos) = self.cache.state(state);
        let env = self.frame_env(fr, stack, theta.as_deref(), clos.as_ref());
        let mut slots = Vec::new();
        let (ops, benv) = self.run_frame_routine(fr, &env, stack, Some(&mut slots));
        let (theta, clos) = self.eval_plan(fr.site, &env);
        let step = FrameStep {
            ops,
            steps: (0, 0),
            out: self.cache.intern_state(theta.as_deref(), clos.as_ref()),
            env: self.cache.env_ix(&env),
            benv,
        };
        (step, slots)
    }

    /// Traces a frame from its recorded step: the same routine run, the
    /// same relocations in the same order, with every plan already
    /// resolved.
    fn replay_frame(&mut self, fr: &FrameInfo, f: u32, stack: &mut [Word]) {
        let ops = self.cache.frame(f).ops;
        self.stats.routine_invocations += 1;
        self.stats.slots_traced += u64::from(ops);
        let seq = self.seq;
        self.obs.emit(|_| GcEvent::RoutineRun {
            seq,
            site: fr.site.0,
            ops,
        });
        for i in self.cache.frame_slots(f) {
            match self.cache.slot_step(i) {
                SlotStep::Plan { slot, plan } => {
                    let idx = fr.fp + FRAME_HDR + slot as usize;
                    stack[idx] = self.reloc_plan(stack[idx], plan, false);
                }
                SlotStep::Bytes { slot, pos } => {
                    let env = self
                        .cache
                        .frame(f)
                        .benv
                        .clone()
                        .expect("bytes step has an env");
                    let idx = fr.fp + FRAME_HDR + slot as usize;
                    stack[idx] = self.reloc(stack[idx], &WTy::Bytes { pos, env });
                }
            }
        }
    }

    /// Appel's traversal: newest to oldest, re-deriving each frame's
    /// environment by walking down the chain with no caching. Returns the
    /// newest frame's environment.
    fn appel_walk(&mut self, frames: &[FrameInfo], stack: &mut [Word]) -> Vec<RtVal> {
        let mut newest_env = Vec::new();
        for k in 0..frames.len() {
            let env = self.appel_env(frames, k, stack);
            self.cur = EvalCx::Frame {
                fn_id: frames[k].fn_id.0,
                site: frames[k].site.0,
            };
            self.run_frame_routine(&frames[k], &env, stack, None);
            if k == 0 {
                newest_env = env;
            }
        }
        newest_env
    }

    /// Re-derives frame `k`'s environment by descending to the bottom of
    /// the chain and evaluating plans back up — O(depth) per frame.
    fn appel_env(&mut self, frames: &[FrameInfo], k: usize, stack: &[Word]) -> Vec<RtVal> {
        let mut theta_rts: Option<Vec<RtVal>> = None;
        let mut clos_rt: Option<RtVal> = None;
        let mut env = Vec::new();
        for j in (k..frames.len()).rev() {
            self.stats.chain_steps += 1;
            let fr = &frames[j];
            self.cur = EvalCx::Frame {
                fn_id: fr.fn_id.0,
                site: fr.site.0,
            };
            env = self.frame_env(fr, stack, theta_rts.as_deref(), clos_rt.as_ref());
            if j == k {
                break;
            }
            (theta_rts, clos_rt) = self.eval_plan(fr.site, &env);
        }
        env
    }

    /// Evaluates a site's callee plan under the caller's environment —
    /// "the type_gc_routines passed to the next frame's frame_gc_routine
    /// correspond to the types of the arguments passed by f" (§3).
    fn eval_plan(
        &mut self,
        site: CallSiteId,
        env: &[RtVal],
    ) -> (Option<Vec<RtVal>>, Option<RtVal>) {
        let sites = self.sites;
        match &sites[site.0 as usize].plan {
            CalleePlan::Direct { theta } => (
                Some(theta.iter().map(|sx| self.eval(*sx, env)).collect()),
                None,
            ),
            CalleePlan::Closure { clos_ty } => (None, Some(self.eval(*clos_ty, env))),
            CalleePlan::None => (None, None),
        }
    }

    /// Builds a frame's type-routine environment from its parameter
    /// sources.
    fn frame_env(
        &mut self,
        fr: &FrameInfo,
        stack: &[Word],
        theta: Option<&[RtVal]>,
        clos_rt: Option<&RtVal>,
    ) -> Vec<RtVal> {
        let fns = self.fns;
        let fm = &fns[fr.fn_id.0 as usize];
        let cx = EvalCx::Frame {
            fn_id: fr.fn_id.0,
            site: fr.site.0,
        };
        fm.frame_param_src
            .iter()
            .enumerate()
            .map(|(i, src)| match src {
                FrameParamSrc::Opaque => RtVal::Const,
                FrameParamSrc::Theta => theta
                    .and_then(|t| t.get(i))
                    .cloned()
                    .unwrap_or(RtVal::Const),
                FrameParamSrc::ArrowPath(p) => match clos_rt {
                    Some(rt) => self.extract(rt, p, cx),
                    None => RtVal::Const,
                },
                FrameParamSrc::DescSlot(s) => {
                    let w = stack[fr.fp + FRAME_HDR + s.0 as usize];
                    self.desc_rt(DescId(w as u32))
                }
            })
            .collect()
    }

    /// Runs the frame routine selected by the frame's suspension site —
    /// the gc_word lookup of §2.1. With `record`, each traced slot's step
    /// is appended for the frame-step memo. Returns the routine's op
    /// count and the byte environment its descriptor ops ran under.
    fn run_frame_routine(
        &mut self,
        fr: &FrameInfo,
        env: &[RtVal],
        stack: &mut [Word],
        mut record: Option<&mut Vec<SlotStep>>,
    ) -> (u32, Option<Rc<Vec<WTy>>>) {
        let sites = self.sites;
        let rid = sites[fr.site.0 as usize].routine.unwrap_or_else(|| {
            panic!(
                "collection while suspended at site {} whose gc_word was omitted \
                 (GC-point analysis would be unsound)",
                fr.site.0
            )
        });
        self.stats.routine_invocations += 1;
        let routines = self.routines;
        let ops = &routines.routine(rid).ops;
        let seq = self.seq;
        self.obs.emit(|_| GcEvent::RoutineRun {
            seq,
            site: fr.site.0,
            ops: ops.len() as u32,
        });
        let mut benv: Option<Rc<Vec<WTy>>> = None;
        for op in ops {
            self.stats.slots_traced += 1;
            match *op {
                TraceOp::Slot { slot, sx } => {
                    let rt = self.eval(sx, env);
                    let idx = fr.fp + FRAME_HDR + slot.0 as usize;
                    let plan = self.plan_for_rt(&rt);
                    if let Some(steps) = record.as_deref_mut().filter(|_| plan != NOOP_PLAN) {
                        steps.push(SlotStep::Plan { slot: slot.0, plan });
                    }
                    stack[idx] = self.reloc_plan(stack[idx], plan, false);
                }
                TraceOp::SlotBytes { slot, pos } => {
                    let env = benv
                        .get_or_insert_with(|| Rc::new(env.iter().cloned().map(WTy::Rt).collect()))
                        .clone();
                    let idx = fr.fp + FRAME_HDR + slot.0 as usize;
                    if let Some(steps) = record.as_deref_mut() {
                        steps.push(SlotStep::Bytes { slot: slot.0, pos });
                    }
                    stack[idx] = self.reloc(stack[idx], &WTy::Bytes { pos, env });
                }
            }
        }
        (ops.len() as u32, benv)
    }

    /// Relocates a root word typed by an evaluated routine value.
    fn reloc_rt_root(&mut self, w: Word, rt: &RtVal) -> Word {
        let p = self.plan_for_rt(rt);
        self.reloc_plan(w, p, false)
    }

    fn drain(&mut self) {
        while let Some(item) = self.work.pop() {
            self.cur = item.origin;
            let w = self.heap.read(item.addr, item.off);
            let nw = self.reloc(w, &item.ty);
            self.heap.write(item.addr, item.off, nw);
        }
    }

    /// Relocates one value of the given tracing type, returning the new
    /// word and enqueueing the object's fields. Plans and routine values
    /// run the plan interpreter; byte descriptors are the interpreted
    /// method, parsed afresh at every object (§2.4).
    fn reloc(&mut self, w: Word, ty: &WTy) -> Word {
        match ty {
            // Plan items only enter the worklist from plan execution, so
            // a pop re-enters the plan interpreter — with the spine loop
            // enabled, because drain order is already the plan's order.
            WTy::Plan(p) => self.reloc_plan(w, *p, true),
            // A routine value reaches here only as a descriptor `Param`
            // bound to an evaluated θ or closure entry.
            WTy::Rt(rt) => {
                let p = self.plan_for_rt(rt);
                self.reloc_plan(w, p, true)
            }
            WTy::Bytes { pos, env } => {
                let env = env.clone();
                match self.pool.parse(*pos, &mut self.stats.desc_bytes_read) {
                    DescView::Prim => w,
                    DescView::Param(i) => {
                        let sub = byte_param(&env, i).clone();
                        self.reloc(w, &sub)
                    }
                    DescView::Tuple(fields) => match self.head(w, fields.len()) {
                        Head::Imm(w) | Head::Done(w) => w,
                        Head::Copied(new) => {
                            for (i, p) in fields.iter().enumerate() {
                                self.push(
                                    new,
                                    i as u16,
                                    WTy::Bytes {
                                        pos: *p,
                                        env: env.clone(),
                                    },
                                );
                            }
                            self.enc.ptr(new)
                        }
                    },
                    DescView::Data(d, arg_positions) => match self.data_head(w, d) {
                        DataHead::Imm(w) | DataHead::Done(w) => w,
                        DataHead::Copied { ctor, rep, new } => {
                            let arg_env: Rc<Vec<WTy>> = Rc::new(
                                arg_positions
                                    .iter()
                                    .map(|p| self.collapse(*p, &env))
                                    .collect(),
                            );
                            let pool = self.pool;
                            let fields = &pool.data_fields[d.0 as usize][ctor];
                            for (i, p) in fields.iter().enumerate() {
                                self.push(
                                    new,
                                    rep.field_offset(i as u16),
                                    WTy::Bytes {
                                        pos: *p,
                                        env: arg_env.clone(),
                                    },
                                );
                            }
                            self.enc.ptr(new)
                        }
                    },
                    DescView::Arrow(a, b) => {
                        let ra = self.wty_to_rt(&WTy::Bytes {
                            pos: a,
                            env: env.clone(),
                        });
                        let rb = self.wty_to_rt(&WTy::Bytes { pos: b, env });
                        self.reloc_closure(w, RtVal::Arrow(Rc::new(ra), Rc::new(rb)))
                    }
                }
            }
        }
    }

    /// Collapses `Param` indirection chains eagerly. Without this, a
    /// recursive datatype's argument environment re-wraps the parent
    /// environment once per heap node (the tail of a list adds a layer
    /// per element), and both `Param` resolution and the `Rc` drop of
    /// the chain recurse O(list length) deep — a stack overflow on deep
    /// structures. Substituting `env[i]` directly is exactly `Param`'s
    /// defined meaning, and it bounds environment depth by the static
    /// type structure instead.
    fn collapse(&mut self, pos: u32, env: &Rc<Vec<WTy>>) -> WTy {
        let mut pos = pos;
        let mut env = env.clone();
        loop {
            match self.pool.parse(pos, &mut self.stats.desc_bytes_read) {
                DescView::Param(i) => match byte_param(&env, i).clone() {
                    WTy::Bytes { pos: p, env: e } => {
                        pos = p;
                        env = e;
                    }
                    rt => return rt,
                },
                _ => return WTy::Bytes { pos, env },
            }
        }
    }

    /// Converts a tracing type to a routine value (used when the
    /// interpreted path meets a closure and needs Figure-3 extraction).
    fn wty_to_rt(&mut self, ty: &WTy) -> RtVal {
        match ty {
            WTy::Plan(_) => unreachable!("plan items never need routine conversion"),
            WTy::Rt(rt) => rt.clone(),
            WTy::Bytes { pos, env } => {
                let env = env.clone();
                match self.pool.parse(*pos, &mut self.stats.desc_bytes_read) {
                    DescView::Prim => RtVal::Const,
                    DescView::Param(i) => {
                        let sub = byte_param(&env, i).clone();
                        self.wty_to_rt(&sub)
                    }
                    DescView::Tuple(fields) => {
                        self.build.nodes_built += 1;
                        let fs = fields
                            .iter()
                            .map(|p| {
                                self.wty_to_rt(&WTy::Bytes {
                                    pos: *p,
                                    env: env.clone(),
                                })
                            })
                            .collect();
                        RtVal::Tuple(Rc::new(fs))
                    }
                    DescView::Data(d, args) => {
                        self.build.nodes_built += 1;
                        let xs = args
                            .iter()
                            .map(|p| {
                                self.wty_to_rt(&WTy::Bytes {
                                    pos: *p,
                                    env: env.clone(),
                                })
                            })
                            .collect();
                        RtVal::Data(d, Rc::new(xs))
                    }
                    DescView::Arrow(a, b) => {
                        self.build.nodes_built += 1;
                        let ra = self.wty_to_rt(&WTy::Bytes {
                            pos: a,
                            env: env.clone(),
                        });
                        let rb = self.wty_to_rt(&WTy::Bytes { pos: b, env });
                        RtVal::Arrow(Rc::new(ra), Rc::new(rb))
                    }
                }
            }
        }
    }

    fn push(&mut self, addr: Addr, off: u16, ty: WTy) {
        self.work.push(WorkItem {
            addr,
            off,
            ty,
            origin: self.cur,
        });
    }

    /// Head handling for fixed-size objects (tuples).
    fn head(&mut self, w: Word, size: usize) -> Head {
        if w < HEAP_BASE {
            return Head::Imm(w);
        }
        let a = self.enc.addr_of(w);
        if self.heap.in_to(a) {
            return Head::Done(w);
        }
        if let Some(n) = self.heap.forward_of(a) {
            return Head::Done(self.enc.ptr(n));
        }
        let new = self.heap.copy_out(a, size);
        self.heap.set_forward(a, new);
        self.copied(a, new, size);
        Head::Copied(new)
    }

    /// Head handling for datatype values: immediate test, discriminant
    /// read (§2.3), variant-sized copy.
    fn data_head(&mut self, w: Word, d: DataId) -> DataHead {
        if w < HEAP_BASE {
            return DataHead::Imm(w);
        }
        let a = self.enc.addr_of(w);
        if self.heap.in_to(a) {
            return DataHead::Done(w);
        }
        if let Some(n) = self.heap.forward_of(a) {
            return DataHead::Done(self.enc.ptr(n));
        }
        let reps = &self.prog.ctor_reps[d.0 as usize];
        let ctor = if reps
            .iter()
            .any(|r| matches!(r, CtorRep::Ptr { tag: Some(_), .. }))
        {
            let t = self.heap.read(a, 0) as u32;
            reps.iter()
                .position(|r| matches!(r, CtorRep::Ptr { tag: Some(tag), .. } if *tag == t))
                .unwrap_or_else(|| {
                    panic!(
                        "heap corruption: discriminant {} at address {} (word {:#x}) matches \
                         no variant of datatype {} — collection {}, strategy {}, reached \
                         tracing {}",
                        t,
                        a.0,
                        w,
                        d.0,
                        self.seq,
                        self.strategy.name(),
                        self.cur
                    )
                })
        } else {
            reps.iter()
                .position(|r| matches!(r, CtorRep::Ptr { .. }))
                .unwrap_or_else(|| {
                    panic!(
                        "heap corruption: pointer word {:#x} (address {}) typed as datatype {} \
                         whose variants are all pointerless — collection {}, strategy {}, \
                         reached tracing {}",
                        w,
                        a.0,
                        d.0,
                        self.seq,
                        self.strategy.name(),
                        self.cur
                    )
                })
        };
        let rep = reps[ctor];
        let new = self.heap.copy_out(a, rep.heap_words());
        self.heap.set_forward(a, new);
        self.copied(a, new, rep.heap_words());
        DataHead::Copied { ctor, rep, new }
    }

    /// Emits the per-object copy event (survivor attribution feeds on
    /// these).
    fn copied(&mut self, from: Addr, to: Addr, words: usize) {
        let seq = self.seq;
        self.obs.emit(|_| GcEvent::ObjectCopied {
            seq,
            from: from.0,
            to: to.0,
            words: words as u32,
        });
    }

    /// Relocates a closure value: follow the code pointer to the
    /// compiler-emitted closure routine (§2.2's word at `code − 4`),
    /// rebuild the environment's type routines (§3, Figure 4), trace the
    /// captures.
    fn reloc_closure(&mut self, w: Word, arrow_rt: RtVal) -> Word {
        if w < HEAP_BASE {
            return w;
        }
        let a = self.enc.addr_of(w);
        if self.heap.in_to(a) {
            return w;
        }
        if let Some(n) = self.heap.forward_of(a) {
            return self.enc.ptr(n);
        }
        let fn_id = self.heap.read(a, 0) as usize;
        let fns = self.fns;
        let fm = &fns[fn_id];
        let size = fm.closure_size as usize;
        let new = self.heap.copy_out(a, size);
        self.heap.set_forward(a, new);
        self.copied(a, new, size);

        if !fm.closure_param_src.is_empty() {
            self.stats.closure_envs_built += 1;
        }
        let cx = EvalCx::Closure {
            fn_id: fn_id as u32,
        };
        let mut env: Vec<RtVal> = Vec::with_capacity(fm.closure_param_src.len());
        for src in &fm.closure_param_src {
            let rt = match src {
                ClosParamSrc::Opaque => RtVal::Const,
                ClosParamSrc::Path(p) => self.extract(&arrow_rt, p, cx),
                ClosParamSrc::DescField(off) => {
                    let dw = self.heap.read(new, *off);
                    self.desc_rt(DescId(dw as u32))
                }
            };
            env.push(rt);
        }
        for (off, sx) in &fm.closure_fields {
            let rt = self.eval_at(*sx, &env, cx);
            let p = self.plan_for_rt(&rt);
            if p != NOOP_PLAN {
                self.push(new, *off, WTy::Plan(p));
            }
        }
        self.enc.ptr(new)
    }

    // --- the trace-plan tier: lowering ---

    /// The plan for an evaluated routine value, lowering on first sight.
    /// Keyed on the cache's injective identity, so a plan is only ever
    /// shared between structurally equal routines.
    fn plan_for_rt(&mut self, rt: &RtVal) -> PlanId {
        match rt {
            RtVal::Const => NOOP_PLAN,
            RtVal::Ground(g) => self.plan_for_ground(*g),
            _ => {
                let fp = self.cache.identity(rt);
                if let Some(p) = self.cache.plans.find_rt(fp) {
                    return p;
                }
                let pid = self.cache.plans.reserve_rt(fp);
                let kind = self.lower_rt(rt, pid);
                self.cache.plans.fill(pid, kind);
                pid
            }
        }
    }

    fn lower_rt(&mut self, rt: &RtVal, self_id: PlanId) -> PlanKind {
        match rt {
            RtVal::Tuple(fs) => {
                let fs = fs.clone();
                let mut ops = PlanOps::new();
                for (i, f) in fs.iter().enumerate() {
                    let p = self.plan_for_rt(f);
                    ops.push(i as u16, p);
                }
                PlanKind::Tuple {
                    size: fs.len() as u32,
                    ops: ops.finish(),
                }
            }
            RtVal::Data(d, args) => {
                let args = args.clone();
                let reps = self.prog.ctor_reps[d.0 as usize].clone();
                let tagged = reps
                    .iter()
                    .any(|r| matches!(r, CtorRep::Ptr { tag: Some(_), .. }));
                let cx = EvalCx::Data(d.0);
                let mut variants = Vec::new();
                for (ctor, rep) in reps.iter().enumerate() {
                    let CtorRep::Ptr { tag, .. } = rep else {
                        continue;
                    };
                    let templates = self.data_variants[d.0 as usize][ctor].clone();
                    let mut ops = PlanOps::new();
                    for (i, sx) in templates.iter().enumerate() {
                        let frt = self.eval_at(*sx, &args, cx);
                        let p = self.plan_for_rt(&frt);
                        ops.push(rep.field_offset(i as u16), p);
                    }
                    let (ops, self_tail) = ops.finish_with_tail(self_id);
                    variants.push(VariantPlan {
                        tag: *tag,
                        words: rep.heap_words() as u32,
                        ops,
                        self_tail,
                    });
                }
                PlanKind::Data {
                    data: d.0,
                    tagged,
                    variants: variants.into(),
                }
            }
            RtVal::Arrow(_, _) => PlanKind::Closure { rt: rt.clone() },
            RtVal::Const | RtVal::Ground(_) => unreachable!("leaves never reserve plans"),
        }
    }

    /// The plan for a compiled ground routine, lowering on first sight.
    fn plan_for_ground(&mut self, g: TypeRtId) -> PlanId {
        if self.ground.rt(g).is_prim() {
            return NOOP_PLAN;
        }
        if let Some(p) = self.cache.plans.find_ground(g.0) {
            return p;
        }
        let pid = self.cache.plans.reserve_ground(g.0);
        let kind = match self.ground.rt(g).clone() {
            TypeRt::Prim => PlanKind::Noop,
            TypeRt::Tuple(fields) => {
                let mut ops = PlanOps::new();
                for (i, f) in fields.iter().enumerate() {
                    let p = self.plan_for_ground(*f);
                    ops.push(i as u16, p);
                }
                PlanKind::Tuple {
                    size: fields.len() as u32,
                    ops: ops.finish(),
                }
            }
            TypeRt::Data { data, variants } => {
                let tagged = variants
                    .iter()
                    .any(|v| matches!(v.rep, CtorRep::Ptr { tag: Some(_), .. }));
                let mut vps = Vec::new();
                for v in variants.iter() {
                    let CtorRep::Ptr { tag, .. } = v.rep else {
                        continue;
                    };
                    let mut ops = PlanOps::new();
                    for (i, f) in v.fields.iter().enumerate() {
                        let p = self.plan_for_ground(*f);
                        ops.push(v.rep.field_offset(i as u16), p);
                    }
                    let (ops, self_tail) = ops.finish_with_tail(pid);
                    vps.push(VariantPlan {
                        tag,
                        words: v.rep.heap_words() as u32,
                        ops,
                        self_tail,
                    });
                }
                PlanKind::Data {
                    data: data.0,
                    tagged,
                    variants: vps.into(),
                }
            }
            TypeRt::Arrow(_) => PlanKind::Closure {
                rt: RtVal::Ground(g),
            },
        };
        self.cache.plans.fill(pid, kind);
        pid
    }

    // --- the trace-plan tier: execution ---

    /// The plan interpreter: relocates one word under a lowered plan.
    /// `spine` enables the iterative tail chase — true only when entered
    /// from the worklist, where drain order already matches loop order;
    /// at roots the first cell enqueues its tail like any field, so
    /// sibling roots interleave in worklist order.
    fn reloc_plan(&mut self, w: Word, pid: PlanId, spine: bool) -> Word {
        // Cheap head clone (payloads sit behind `Rc`) releasing the
        // store borrow before heap work.
        match self.cache.plans.kind(pid).clone() {
            PlanKind::Noop => w,
            PlanKind::Pending => unreachable!("executing a plan mid-lowering"),
            PlanKind::Tuple { size, ops } => match self.head(w, size as usize) {
                Head::Imm(w) | Head::Done(w) => w,
                Head::Copied(new) => {
                    self.push_plan_ops(new, &ops);
                    self.enc.ptr(new)
                }
            },
            PlanKind::Closure { rt } => self.reloc_closure(w, rt),
            PlanKind::Data {
                data,
                tagged,
                variants,
            } => self.reloc_plan_data(w, pid, data, tagged, &variants, spine),
        }
    }

    fn push_plan_ops(&mut self, new: Addr, ops: &[PlanOp]) {
        for op in ops {
            match *op {
                PlanOp::SlotAt { offset, plan } => self.push(new, offset, WTy::Plan(plan)),
                PlanOp::Fields { base, n, plan } => {
                    for k in 0..n {
                        self.push(new, base + k, WTy::Plan(plan));
                    }
                }
            }
        }
    }

    /// Datatype relocation under a pre-resolved variant table; with
    /// `spine`, a self-recursive tail field is chased iteratively — the
    /// list loop — instead of round-tripping the worklist per cell.
    fn reloc_plan_data(
        &mut self,
        w: Word,
        pid: PlanId,
        data: u32,
        tagged: bool,
        variants: &[VariantPlan],
        spine: bool,
    ) -> Word {
        let (mut vi, first) = match self.plan_data_head(w, data, tagged, variants) {
            PlanDataHead::Imm(w) | PlanDataHead::Done(w) => return w,
            PlanDataHead::Copied { vi, new } => (vi, new),
        };
        let result = self.enc.ptr(first);
        let mut new = first;
        loop {
            let vp = &variants[vi];
            let ops = vp.ops.clone();
            let tail = vp.self_tail;
            self.push_plan_ops(new, &ops);
            let Some(tail_off) = tail else { break };
            if !spine {
                // Root position: enqueue the tail like any field so the
                // drain interleaves identically with sibling roots; the
                // pop re-enters this plan with the loop enabled.
                self.push(new, tail_off, WTy::Plan(pid));
                break;
            }
            let tw = self.heap.read(new, tail_off);
            match self.plan_data_head(tw, data, tagged, variants) {
                PlanDataHead::Imm(x) | PlanDataHead::Done(x) => {
                    self.heap.write(new, tail_off, x);
                    break;
                }
                PlanDataHead::Copied { vi: nvi, new: nnew } => {
                    self.heap.write(new, tail_off, self.enc.ptr(nnew));
                    vi = nvi;
                    new = nnew;
                }
            }
        }
        result
    }

    /// Head classification under a pre-resolved variant table — the
    /// discriminant decode of `data_head` without touching `ctor_reps`.
    fn plan_data_head(
        &mut self,
        w: Word,
        data: u32,
        tagged: bool,
        variants: &[VariantPlan],
    ) -> PlanDataHead {
        if w < HEAP_BASE {
            return PlanDataHead::Imm(w);
        }
        let a = self.enc.addr_of(w);
        if self.heap.in_to(a) {
            return PlanDataHead::Done(w);
        }
        if let Some(n) = self.heap.forward_of(a) {
            return PlanDataHead::Done(self.enc.ptr(n));
        }
        let vi = if tagged {
            let t = self.heap.read(a, 0) as u32;
            variants
                .iter()
                .position(|v| v.tag == Some(t))
                .unwrap_or_else(|| {
                    panic!(
                        "heap corruption: discriminant {} at address {} (word {:#x}) matches \
                         no variant of datatype {} — collection {}, strategy {}, reached \
                         tracing {}",
                        t,
                        a.0,
                        w,
                        data,
                        self.seq,
                        self.strategy.name(),
                        self.cur
                    )
                })
        } else if variants.is_empty() {
            panic!(
                "heap corruption: pointer word {:#x} (address {}) typed as datatype {} \
                 whose variants are all pointerless — collection {}, strategy {}, \
                 reached tracing {}",
                w,
                a.0,
                data,
                self.seq,
                self.strategy.name(),
                self.cur
            )
        } else {
            0
        };
        let vp = &variants[vi];
        let words = vp.words as usize;
        let new = self.heap.copy_out(a, words);
        self.heap.set_forward(a, new);
        self.copied(a, new, words);
        PlanDataHead::Copied { vi, new }
    }
}

enum DataHead {
    Imm(Word),
    Done(Word),
    Copied {
        ctor: usize,
        rep: CtorRep,
        new: Addr,
    },
}

/// [`DataHead`]'s plan-tier twin: the variant is already resolved to an
/// index into the plan's variant table.
enum PlanDataHead {
    Imm(Word),
    Done(Word),
    Copied { vi: usize, new: Addr },
}
