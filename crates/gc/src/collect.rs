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
//! to a routine — runs that routine's plan under every strategy. Routine
//! values are [`RtId`]s of the metadata's [`RtCache`]: `Copy`, and equal
//! exactly when the routines are.
//!
//! Values are traced through a typed worklist (no recursion in data
//! depth), so million-element lists collect in constant Rust stack space.
//! Work items are `Copy`: an address, a field offset, and a [`PlanId`] or
//! a descriptor position under an environment of the collection's
//! `ByteEnvs` arena. Each root context — a global, a frame, the pending
//! operands — is drained before the next one starts, so a heap-corruption
//! panic names the root its tracing started from without every work item
//! carrying it. The copy order this produces moves to-space addresses but
//! no program output. On a minor whose survivor half overflows it also
//! decides which objects are promoted (the survivor half fills first-fit
//! in copy order), and so `promoted_words`.
//!
//! Each object costs one relocation check and one fused copy-and-forward
//! (`Heap::relocated`, `Heap::evacuate`). The plan executor reads a plan
//! by value and returns immediates and already-relocated words before it
//! looks at the plan; a datatype's self-recursive tail field is chased in
//! a loop wherever the value was reached.
//!
//! Template evaluation, Figure-3 path extraction, and descriptor
//! conversion all route through the metadata's [`RtCache`]. The forward
//! walk goes further: each frame is keyed on its call site and the
//! state its caller's routine hands it, and only the first
//! activation with a key evaluates anything. Later ones replay the
//! recorded frame step — the traced slots with their resolved plans (or
//! descriptor positions) and the outgoing state — so a deep chain of
//! activations costs one small-integer lookup per frame that ran since
//! the last collection, not a θ evaluation, an environment vector and
//! plan lookups. Frames below the stack's floor ran before it and cost
//! no lookup and no decoding: the walk replays them from the stack's
//! [`WalkRecord`], a run of activations at a time, and relocates a word
//! that repeats the last one a replayed slot held without looking at it
//! again. Appel's walk is never memoized and always decodes the whole
//! chain. The worklist, the decoded-frame vector and the
//! descriptor-environment arena live in [`CollectorScratch`] (owned by
//! `GcMeta`), and each walk record in its stack's thread; all are reused
//! across collections. The heap's forwarding bitmap is likewise
//! allocated once and only zeroed per collection (see
//! `tfgc_runtime::Heap`).

use crate::bytes::{BytePool, DescView};
use crate::cache::{EnvIx, FrameState, FrameStep, RtCache, RtId, RtNode, SlotStep};
use crate::desc::{DescArena, DescId};
use crate::ground::{GroundTable, TypeRt, TypeRtId};
use crate::meta::{CalleePlan, ClosParamSrc, FnGcMeta, FrameParamSrc, GcMeta, SiteMeta};
use crate::plan::{
    OpRange, PlanId, PlanKind, PlanOp, PlanOps, VariantPlan, VariantRange, NOOP_PLAN,
};
use crate::routines::{RoutineTable, TraceOp};
use crate::rtval::{EvalCx, RtBuildStats};
use crate::stack::{walk_frames_into, FrameInfo, Run, WalkRecord, FRAME_HDR};
use crate::stats::GcStats;
use crate::strategy::Strategy;
use crate::sx::{SxId, SxTable};
use tfgc_ir::{CallSiteId, CtorRep, IrProgram};
use tfgc_obs::{GcEvent, Obs};
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
    /// No frame based below it has run or been popped since `record`
    /// was written; 0 when that is not known, and at most `top_fp`.
    pub floor: usize,
    /// The stack's record of its last forward walk: the forward
    /// strategies replay its frames below `floor` and rewrite the rest.
    /// Appel's walk and the tagged collector leave it alone.
    pub record: &'m mut WalkRecord,
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

/// One entry of a byte-descriptor environment: an evaluated routine value
/// (an entry of a frame's type-routine environment), or a descriptor
/// under another environment of the arena.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum WTy {
    Rt(RtId),
    Bytes { pos: u32, env: u32 },
}

/// How a work item's word is traced: under a lowered plan, or by
/// decoding the byte descriptor at `pos` under environment `env` of the
/// collection's [`ByteEnvs`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum Ty {
    Plan(PlanId),
    Bytes { pos: u32, env: u32 },
}

/// A field of a copied object still to be traced.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WorkItem {
    addr: Addr,
    off: u16,
    ty: Ty,
}

// The worklist moves one of these per traced field.
const _: () = assert!(std::mem::size_of::<WorkItem>() <= 24);

/// The byte-descriptor environments of one collection, each a run of
/// `items` named by its index in `spans`. Interpreted's walk adds one per
/// copied datatype object whose argument environment differs from its
/// parent's, and one per traced frame; the arena is cleared when the
/// collection ends.
#[derive(Debug, Clone, Default)]
pub(crate) struct ByteEnvs {
    spans: Vec<(u32, u32)>,
    items: Vec<WTy>,
}

impl ByteEnvs {
    fn entries(&self, env: u32) -> &[WTy] {
        let (start, len) = self.spans[env as usize];
        &self.items[start as usize..(start + len) as usize]
    }

    /// Entry `i` of environment `env`. A too-short environment is a torn
    /// stack map (e.g. truncated frame parameter sources), and tracing
    /// must stop with a structured panic rather than an anonymous index
    /// error or a silent mistrace.
    fn get(&self, env: u32, i: u16) -> WTy {
        let entries = self.entries(env);
        *entries.get(i as usize).unwrap_or_else(|| {
            panic!(
                "type parameter {i} out of range: environment carries {} byte descriptor(s)",
                entries.len()
            )
        })
    }

    /// Adds an environment of evaluated routine values.
    fn add_rts(&mut self, env: &[RtId]) -> u32 {
        let start = self.items.len();
        self.items.extend(env.iter().copied().map(WTy::Rt));
        self.seal(start)
    }

    /// Names the entries pushed since `start` as one environment —
    /// `parent` itself when they repeat it, as a recursive datatype's
    /// fields do at every node.
    fn close(&mut self, start: usize, parent: u32) -> u32 {
        if self.items[start..] == *self.entries(parent) {
            self.items.truncate(start);
            return parent;
        }
        self.seal(start)
    }

    fn seal(&mut self, start: usize) -> u32 {
        self.spans
            .push((start as u32, (self.items.len() - start) as u32));
        self.spans.len() as u32 - 1
    }

    fn clear(&mut self) {
        self.spans.clear();
        self.items.clear();
    }
}

/// Persistent collector buffers, owned by `GcMeta` so one allocation
/// serves every collection of a run: the typed worklist, the decoded
/// dynamic-chain vector (a deep stack is decoded without growing a fresh
/// `Vec` each pause) and the byte-descriptor environment arena. The
/// fourth reused structure — the forwarding side bitmap — already lives
/// in `tfgc_runtime::Heap`, sized once at heap construction and zeroed
/// (not reallocated) on each flip.
#[derive(Debug, Clone, Default)]
pub struct CollectorScratch {
    pub(crate) work: Vec<WorkItem>,
    pub(crate) frames: Vec<FrameInfo>,
    pub(crate) envs: ByteEnvs,
}

/// Traces one tag-free collection `seq` inside the envelope
/// [`fn@crate::collect`] writes. On a generational heap whose phase is a
/// minor the same root walk and the same relocation primitives run, but
/// the heap routes copies to the survivor half (or tenured, on
/// promotion) and treats every tenured address as already relocated —
/// tenured space is never touched, which is sound precisely because the
/// immutable heap has no tenured→nursery edges.
///
/// # Panics
///
/// Panics if a frame is suspended at a site whose gc_word was omitted —
/// that would falsify the §5.1 analysis — or on heap corruption.
#[allow(clippy::too_many_arguments)]
pub(crate) fn collect_tagfree(
    meta: &mut GcMeta,
    prog: &IrProgram,
    heap: &mut Heap,
    descs: &DescArena,
    stats: &mut GcStats,
    obs: &mut Obs,
    seq: u64,
    mut roots: MachineRoots<'_>,
) {
    let strategy = meta.strategy;
    // Snapshots of the metadata cache's counters, for this collection's
    // share in `stats`.
    let hits0 = meta.rt_cache.hits;
    let misses0 = meta.rt_cache.misses;
    let phits0 = meta.rt_cache.plans.hits;
    let pmisses0 = meta.rt_cache.plans.misses;
    let pcompiled0 = meta.rt_cache.plans.compiled;
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
        envs: &mut meta.scratch.envs,
        frame_env: None,
        last_moved: (0, 0),
        enc: Encoding::new(HeapMode::TagFree),
    };

    // Globals first: their routines are known statically (§1.1).
    for (i, g) in meta.globals.iter().enumerate() {
        if let Some(sx) = g {
            cx.cur = EvalCx::Global(i as u32);
            let rt = cx.eval(*sx, &[]);
            roots.globals[i] = cx.reloc_rt(roots.globals[i], rt);
            cx.drain();
        }
    }

    // Each task's stack is traversed in turn (§4).
    let mut operands_under = None;
    for (ti, sr) in roots.stacks.iter_mut().enumerate() {
        let newest_env = match strategy {
            Strategy::AppelPerFn => cx.appel_walk(frames_buf, sr),
            _ => cx.forward_walk(frames_buf, sr),
        };
        if ti == roots.operand_stack {
            operands_under = Some((sr.current_site, newest_env));
        }
    }

    // Pending allocation operands, typed by the triggering task's site,
    // traced under its newest frame's environment.
    // (`operands` may be empty even at an allocation site: §4 tasks
    // re-execute a blocked allocation after the collection.)
    if let Some((site, env)) = operands_under {
        cx.cur = EvalCx::Operands { site: site.0 };
        let env = cx.cache.shared_env(env);
        let sites = cx.sites;
        let ops = &sites[site.0 as usize].operands;
        for (op, w) in ops.iter().zip(roots.operands.iter_mut()) {
            if let Some(sx) = op {
                let rt = cx.eval(*sx, &env);
                *w = cx.reloc_rt(*w, rt);
            }
        }
        cx.drain();
    }

    cx.envs.clear();
    stats.rt_nodes_built += cx.build.nodes_built;
    stats.rt_cache_hits += meta.rt_cache.hits - hits0;
    stats.rt_cache_misses += meta.rt_cache.misses - misses0;
    stats.plan_hits += meta.rt_cache.plans.hits - phits0;
    stats.plan_misses += meta.rt_cache.plans.misses - pmisses0;
    stats.plans_compiled += meta.rt_cache.plans.compiled - pcompiled0;
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
    /// The root context being traced (global, frame, operands) — named
    /// by fail-fast panics. Its worklist is drained before the next
    /// root context starts.
    cur: EvalCx,
    build: RtBuildStats,
    work: &'c mut Vec<WorkItem>,
    envs: &'c mut ByteEnvs,
    /// The byte environment a replayed frame step last decoded under, by
    /// its interned environment: a recursion replays one step per frame.
    frame_env: Option<(EnvIx, u32)>,
    /// The last `(old word, new word)` a replayed slot relocated. Within
    /// one collection a word relocates to the same word every time, so
    /// a recursion that passes one value down relocates it once. `(0,
    /// 0)` to start: an immediate relocates to itself.
    last_moved: (Word, Word),
    enc: Encoding,
}

impl Collector<'_> {
    /// Memoized template evaluation under the current tracing context.
    fn eval(&mut self, id: SxId, env: &[RtId]) -> RtId {
        self.cache
            .eval(self.sxs, id, env, &mut self.build, self.cur)
    }

    /// Memoized template evaluation under an explicit context (variant
    /// fields, closure captures — contexts finer than `self.cur`).
    fn eval_at(&mut self, id: SxId, env: &[RtId], cx: EvalCx) -> RtId {
        self.cache.eval(self.sxs, id, env, &mut self.build, cx)
    }

    /// Memoized Figure-3 path extraction.
    fn extract(&mut self, rt: RtId, path: &[u16], cx: EvalCx) -> RtId {
        self.cache.extract(rt, path, self.prog, self.ground, cx)
    }

    /// Memoized descriptor → routine conversion.
    fn desc_rt(&mut self, id: DescId) -> RtId {
        self.cache.desc(self.descs, id, &mut self.build)
    }

    /// Counts the frames of one stack's walk and reports each, newest
    /// first: `decoded` (newest first), then the record's `kept` runs
    /// below them.
    fn visit(&mut self, decoded: &[FrameInfo], kept: &[Run]) {
        let kept_frames: usize = kept.iter().map(|r| r.count).sum();
        self.stats.frames_visited += (decoded.len() + kept_frames) as u64;
        if self.obs.enabled() {
            let seq = self.seq;
            let kept = kept
                .iter()
                .rev()
                .flat_map(|r| std::iter::repeat_n((r.fn_id, r.site), r.count));
            for (fn_id, site) in decoded.iter().map(|fr| (fr.fn_id, fr.site)).chain(kept) {
                self.obs.emit(|_| GcEvent::FrameVisit {
                    seq,
                    fn_id: fn_id.0,
                    site: site.0,
                });
            }
        }
    }

    /// §3's traversal: oldest to newest, propagating type routine
    /// environments through the recorded θ / closure-type plans, through
    /// the frame-step memo. Only the frames at or above the stack's floor
    /// are decoded and keyed; the ones below it have not run since the
    /// last walk, so they replay their recorded runs first, with no
    /// lookup. A decoded frame is one `(site, incoming state)` lookup —
    /// skipped outright when the frame repeats the previous frame's key,
    /// as every frame of a recursion does — then one relocation per
    /// traced slot, then the drain of what those slots reached. A miss
    /// traces the frame on the plain path and records its step. Frames
    /// that read a type parameter from a descriptor slot depend on their
    /// own stack words, so they always take the plain path, kept or not;
    /// the state they hand on is a plain key, so the frames above them
    /// stay memoized. Every decoded frame is appended to the record.
    /// Returns the newest frame's environment.
    fn forward_walk(&mut self, frames: &mut Vec<FrameInfo>, sr: &mut StackRoots<'_>) -> EnvIx {
        let stop = walk_frames_into(
            frames,
            sr.stack,
            sr.top_fp,
            sr.current_site,
            sr.floor,
            self.prog,
        );
        let (stack, record) = (&mut *sr.stack, &mut *sr.record);
        record.keep_below(sr.floor);
        assert_eq!(
            record.newest_base(),
            stop,
            "walk record out of step with its stack: decoding stopped below floor {} at \
             the frame based at {stop:?}, but the record's newest frame below the floor \
             is based at {:?}",
            sr.floor,
            record.newest_base()
        );
        self.visit(frames, record.runs());
        let mut state = FrameState::None;
        let mut last: Option<(CallSiteId, FrameState, u32)> = None;
        let mut newest = self.cache.env_ix(&[]);
        for run in record.runs() {
            self.cur = EvalCx::Frame {
                fn_id: run.fn_id.0,
                site: run.site.0,
            };
            match run.step {
                Some(f) => {
                    self.cache.hits += run.count as u64;
                    self.replay(f, run.site, run.base, run.count, run.stride, stack);
                    let step = self.cache.frame(f);
                    (state, newest) = (step.out, step.env);
                }
                None => {
                    for k in 0..run.count {
                        let (step, _) = self.trace_plain(&run.frame(k), run.state, stack);
                        (state, newest) = (step.out, step.env);
                        if !self.work.is_empty() {
                            self.drain();
                        }
                    }
                }
            }
            last = run.step.map(|f| (run.site, run.state, f));
        }
        for fr in frames.iter().rev() {
            self.cur = EvalCx::Frame {
                fn_id: fr.fn_id.0,
                site: fr.site.0,
            };
            let memo = match last {
                Some((site, s, f)) if site == fr.site && s == state => {
                    self.cache.hits += 1;
                    self.replay(f, fr.site, fr.fp, 1, 0, stack);
                    Some(f)
                }
                _ if self.reads_desc_slot(fr) => {
                    let (step, _) = self.trace_plain(fr, state, stack);
                    record.push(fr, state, None);
                    (state, newest) = (step.out, step.env);
                    None
                }
                _ => Some(match self.cache.find_frame(fr.site.0, state) {
                    Some(f) => {
                        self.replay(f, fr.site, fr.fp, 1, 0, stack);
                        f
                    }
                    None => {
                        let (step, slots) = self.trace_plain(fr, state, stack);
                        self.cache.insert_frame(fr.site.0, state, step, &slots)
                    }
                }),
            };
            last = memo.map(|f| (fr.site, state, f));
            if let Some(f) = memo {
                record.push(fr, state, Some(f));
                let step = self.cache.frame(f);
                (state, newest) = (step.out, step.env);
            }
            if !self.work.is_empty() {
                self.drain();
            }
        }
        newest
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
        state: FrameState,
        stack: &mut [Word],
    ) -> (FrameStep, Vec<SlotStep>) {
        let env = self.frame_env(fr, stack, state);
        let mut slots = Vec::new();
        let ops = self.run_frame_routine(fr, &env, stack, Some(&mut slots));
        let step = FrameStep {
            ops,
            steps: (0, 0),
            out: self.eval_plan(fr.site, &env),
            env: self.cache.env_ix(&env),
        };
        (step, slots)
    }

    /// Traces `count` activations of frame step `f`'s call site, based
    /// `stride` words apart from `base` up, from the recorded step: for
    /// each, the same routine run and the same relocations in the same
    /// order as the plain path, with every plan already resolved, then
    /// the drain of what they reached.
    fn replay(
        &mut self,
        f: u32,
        site: CallSiteId,
        base: usize,
        count: usize,
        stride: usize,
        stack: &mut [Word],
    ) {
        let FrameStep { ops, env, .. } = *self.cache.frame(f);
        let slots = self.cache.frame_slots(f);
        self.stats.routine_invocations += count as u64;
        self.stats.slots_traced += count as u64 * u64::from(ops);
        let seq = self.seq;
        for k in 0..count {
            let fp = base + k * stride;
            self.obs.emit(|_| GcEvent::RoutineRun {
                seq,
                site: site.0,
                ops,
            });
            for i in slots.clone() {
                match self.cache.slot_step(i) {
                    SlotStep::Plan { slot, plan } => {
                        let idx = fp + FRAME_HDR + slot as usize;
                        let w = stack[idx];
                        stack[idx] = match self.last_moved {
                            (old, new) if old == w => new,
                            _ => {
                                let new = self.reloc_plan(w, plan);
                                self.last_moved = (w, new);
                                new
                            }
                        };
                    }
                    SlotStep::Bytes { slot, pos } => {
                        let benv = self.replayed_env(env);
                        let idx = fp + FRAME_HDR + slot as usize;
                        stack[idx] = self.reloc_bytes(stack[idx], pos, benv);
                    }
                }
            }
            if !self.work.is_empty() {
                self.drain();
            }
        }
    }

    /// The byte environment of a replayed frame step's interned
    /// environment, added to the arena once per run of frames sharing it.
    fn replayed_env(&mut self, ix: EnvIx) -> u32 {
        match self.frame_env {
            Some((k, env)) if k == ix => env,
            _ => {
                let env = self.envs.add_rts(self.cache.env(ix));
                self.frame_env = Some((ix, env));
                env
            }
        }
    }

    /// Appel's traversal: decodes the whole chain, then walks it newest
    /// to oldest, re-deriving each frame's environment by walking down
    /// the chain with no caching. It ignores the stack's floor and
    /// record. Returns the newest frame's environment.
    fn appel_walk(&mut self, frames: &mut Vec<FrameInfo>, sr: &mut StackRoots<'_>) -> EnvIx {
        walk_frames_into(frames, sr.stack, sr.top_fp, sr.current_site, 0, self.prog);
        self.visit(frames, &[]);
        let stack = &mut *sr.stack;
        let mut newest = self.cache.env_ix(&[]);
        for k in 0..frames.len() {
            let env = self.appel_env(frames, k, stack);
            self.cur = EvalCx::Frame {
                fn_id: frames[k].fn_id.0,
                site: frames[k].site.0,
            };
            self.run_frame_routine(&frames[k], &env, stack, None);
            self.drain();
            if k == 0 {
                newest = self.cache.env_ix(&env);
            }
        }
        newest
    }

    /// Re-derives frame `k`'s environment by descending to the bottom of
    /// the chain and evaluating plans back up — O(depth) per frame.
    fn appel_env(&mut self, frames: &[FrameInfo], k: usize, stack: &[Word]) -> Vec<RtId> {
        let mut state = FrameState::None;
        let mut env = Vec::new();
        for j in (k..frames.len()).rev() {
            self.stats.chain_steps += 1;
            let fr = &frames[j];
            self.cur = EvalCx::Frame {
                fn_id: fr.fn_id.0,
                site: fr.site.0,
            };
            env = self.frame_env(fr, stack, state);
            if j == k {
                break;
            }
            state = self.eval_plan(fr.site, &env);
        }
        env
    }

    /// Evaluates a site's callee plan under the caller's environment —
    /// "the type_gc_routines passed to the next frame's frame_gc_routine
    /// correspond to the types of the arguments passed by f" (§3).
    fn eval_plan(&mut self, site: CallSiteId, env: &[RtId]) -> FrameState {
        let sites = self.sites;
        match &sites[site.0 as usize].plan {
            CalleePlan::Direct { theta } => {
                let theta: Vec<RtId> = theta.iter().map(|sx| self.eval(*sx, env)).collect();
                FrameState::Theta(self.cache.env_ix(&theta))
            }
            CalleePlan::Closure { clos_ty } => FrameState::Clos(self.eval(*clos_ty, env)),
            CalleePlan::None => FrameState::None,
        }
    }

    /// Builds a frame's type-routine environment from its parameter
    /// sources and the state its caller's routine handed it.
    fn frame_env(&mut self, fr: &FrameInfo, stack: &[Word], state: FrameState) -> Vec<RtId> {
        let fns = self.fns;
        let fm = &fns[fr.fn_id.0 as usize];
        let cx = EvalCx::Frame {
            fn_id: fr.fn_id.0,
            site: fr.site.0,
        };
        fm.frame_param_src
            .iter()
            .enumerate()
            .map(|(i, src)| match (src, state) {
                (FrameParamSrc::Theta, FrameState::Theta(e)) => {
                    self.cache.env(e).get(i).copied().unwrap_or(RtId::CONST)
                }
                (FrameParamSrc::ArrowPath(p), FrameState::Clos(rt)) => self.extract(rt, p, cx),
                (FrameParamSrc::DescSlot(s), _) => {
                    let w = stack[fr.fp + FRAME_HDR + s.0 as usize];
                    self.desc_rt(DescId(w as u32))
                }
                _ => RtId::CONST,
            })
            .collect()
    }

    /// Runs the frame routine selected by the frame's suspension site —
    /// the gc_word lookup of §2.1. With `record`, each traced slot's step
    /// is appended for the frame-step memo. Returns the routine's op
    /// count.
    fn run_frame_routine(
        &mut self,
        fr: &FrameInfo,
        env: &[RtId],
        stack: &mut [Word],
        mut record: Option<&mut Vec<SlotStep>>,
    ) -> u32 {
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
        let mut benv: Option<u32> = None;
        for op in ops {
            self.stats.slots_traced += 1;
            match *op {
                TraceOp::Slot { slot, sx } => {
                    let rt = self.eval(sx, env);
                    let idx = fr.fp + FRAME_HDR + slot.0 as usize;
                    let plan = self.plan_for_rt(rt);
                    if let Some(steps) = record.as_deref_mut().filter(|_| plan != NOOP_PLAN) {
                        steps.push(SlotStep::Plan { slot: slot.0, plan });
                    }
                    stack[idx] = self.reloc_plan(stack[idx], plan);
                }
                TraceOp::SlotBytes { slot, pos } => {
                    let benv = *benv.get_or_insert_with(|| self.envs.add_rts(env));
                    let idx = fr.fp + FRAME_HDR + slot.0 as usize;
                    if let Some(steps) = record.as_deref_mut() {
                        steps.push(SlotStep::Bytes { slot: slot.0, pos });
                    }
                    stack[idx] = self.reloc_bytes(stack[idx], pos, benv);
                }
            }
        }
        ops.len() as u32
    }

    /// Relocates a word typed by an evaluated routine value.
    fn reloc_rt(&mut self, w: Word, rt: RtId) -> Word {
        let p = self.plan_for_rt(rt);
        self.reloc_plan(w, p)
    }

    /// Traces everything the current root context reached.
    fn drain(&mut self) {
        while let Some(WorkItem { addr, off, ty }) = self.work.pop() {
            let w = self.heap.read(addr, off);
            let nw = match ty {
                Ty::Plan(p) => self.reloc_plan(w, p),
                Ty::Bytes { pos, env } => self.reloc_bytes(w, pos, env),
            };
            if nw != w {
                self.heap.write(addr, off, nw);
            }
        }
    }

    fn push(&mut self, addr: Addr, off: u16, ty: Ty) {
        self.work.push(WorkItem { addr, off, ty });
    }

    /// The address of the object `w` points at when this collection has
    /// yet to copy it; otherwise the word `w` relocates to (an immediate
    /// is its own relocation).
    #[inline]
    fn unrelocated(&self, w: Word) -> Result<Addr, Word> {
        if w < HEAP_BASE {
            return Err(w);
        }
        let a = self.enc.addr_of(w);
        match self.heap.relocated(a) {
            Some(n) => Err(self.enc.ptr(n)),
            None => Ok(a),
        }
    }

    /// Copies and forwards the `words`-word object at `a`, emitting the
    /// per-object copy event (survivor attribution feeds on these).
    #[inline]
    fn evacuate(&mut self, a: Addr, words: usize) -> Addr {
        let new = self.heap.evacuate(a, words);
        let seq = self.seq;
        self.obs.emit(|_| GcEvent::ObjectCopied {
            seq,
            from: a.0,
            to: new.0,
            words: words as u32,
        });
        new
    }

    // --- the interpreted method: byte descriptors per object ---

    /// Relocates one value typed by the byte descriptor at `pos` under
    /// environment `env`, returning the new word and enqueueing the
    /// object's fields. The descriptor is parsed afresh at every object
    /// (§2.4); a `Param` bound to a routine value runs its plan.
    fn reloc_bytes(&mut self, w: Word, pos: u32, env: u32) -> Word {
        match self.pool.parse(pos, &mut self.stats.desc_bytes_read) {
            DescView::Prim => w,
            DescView::Param(i) => match self.envs.get(env, i) {
                WTy::Rt(rt) => self.reloc_rt(w, rt),
                WTy::Bytes { pos, env } => self.reloc_bytes(w, pos, env),
            },
            DescView::Tuple(fields) => {
                let a = match self.unrelocated(w) {
                    Ok(a) => a,
                    Err(nw) => return nw,
                };
                let new = self.evacuate(a, fields.len());
                let pool = self.pool;
                for (i, pos) in pool.children(fields).enumerate() {
                    self.push(new, i as u16, Ty::Bytes { pos, env });
                }
                self.enc.ptr(new)
            }
            DescView::Data(d, arg_positions) => {
                let a = match self.unrelocated(w) {
                    Ok(a) => a,
                    Err(nw) => return nw,
                };
                let (ctor, rep) = self.ctor_of(a, w, d);
                let new = self.evacuate(a, rep.heap_words());
                let start = self.envs.items.len();
                let pool = self.pool;
                for p in pool.children(arg_positions) {
                    let e = self.collapse(p, env);
                    self.envs.items.push(e);
                }
                let arg_env = self.envs.close(start, env);
                let fields = &pool.data_fields[d.0 as usize][ctor];
                for (i, p) in fields.iter().enumerate() {
                    self.push(
                        new,
                        rep.field_offset(i as u16),
                        Ty::Bytes {
                            pos: *p,
                            env: arg_env,
                        },
                    );
                }
                self.enc.ptr(new)
            }
            DescView::Arrow(a, b) => {
                let ra = self.bytes_to_rt(a, env);
                let rb = self.bytes_to_rt(b, env);
                let arrow_rt = self.cache.intern(RtNode::Arrow(ra, rb));
                match self.unrelocated(w) {
                    Ok(a) => {
                        let new = self.copy_closure(a, arrow_rt);
                        self.enc.ptr(new)
                    }
                    Err(nw) => nw,
                }
            }
        }
    }

    /// Collapses `Param` indirection chains eagerly. Without this, a
    /// recursive datatype's argument environment would refer to its
    /// parent's once per heap node (the tail of a list adds a layer per
    /// element), and `Param` resolution would recurse O(list length)
    /// deep — a stack overflow on deep structures. Substituting `env[i]`
    /// directly is exactly `Param`'s defined meaning, and it bounds
    /// environment depth by the static type structure instead.
    fn collapse(&mut self, mut pos: u32, mut env: u32) -> WTy {
        loop {
            match self.pool.parse(pos, &mut self.stats.desc_bytes_read) {
                DescView::Param(i) => match self.envs.get(env, i) {
                    WTy::Bytes { pos: p, env: e } => (pos, env) = (p, e),
                    rt => return rt,
                },
                _ => return WTy::Bytes { pos, env },
            }
        }
    }

    /// Converts a byte descriptor under an environment to a routine value
    /// (used when the interpreted path meets a closure and needs Figure-3
    /// extraction). Every composite node counts as built: the
    /// interpreted method re-derives the routine at every closure object.
    fn bytes_to_rt(&mut self, pos: u32, env: u32) -> RtId {
        let node = match self.pool.parse(pos, &mut self.stats.desc_bytes_read) {
            DescView::Prim => return RtId::CONST,
            DescView::Param(i) => {
                return match self.envs.get(env, i) {
                    WTy::Rt(rt) => rt,
                    WTy::Bytes { pos, env } => self.bytes_to_rt(pos, env),
                }
            }
            DescView::Tuple(fields) => {
                let pool = self.pool;
                RtNode::Tuple(
                    pool.children(fields)
                        .map(|p| self.bytes_to_rt(p, env))
                        .collect(),
                )
            }
            DescView::Data(d, args) => {
                let pool = self.pool;
                RtNode::Data(
                    d,
                    pool.children(args)
                        .map(|p| self.bytes_to_rt(p, env))
                        .collect(),
                )
            }
            DescView::Arrow(a, b) => {
                RtNode::Arrow(self.bytes_to_rt(a, env), self.bytes_to_rt(b, env))
            }
        };
        self.build.nodes_built += 1;
        self.cache.intern(node)
    }

    /// The constructor of the unrelocated datatype object at `a`: the
    /// discriminant read of §2.3, against the program's constructor
    /// representations.
    fn ctor_of(&self, a: Addr, w: Word, d: DataId) -> (usize, CtorRep) {
        let reps = &self.prog.ctor_reps[d.0 as usize];
        let ctor = if reps
            .iter()
            .any(|r| matches!(r, CtorRep::Ptr { tag: Some(_), .. }))
        {
            let t = self.heap.read(a, 0) as u32;
            reps.iter()
                .position(|r| matches!(r, CtorRep::Ptr { tag: Some(tag), .. } if *tag == t))
                .unwrap_or_else(|| self.bad_discriminant(t, a, w, d.0))
        } else {
            reps.iter()
                .position(|r| matches!(r, CtorRep::Ptr { .. }))
                .unwrap_or_else(|| self.pointerless(a, w, d.0))
        };
        (ctor, reps[ctor])
    }

    fn bad_discriminant(&self, t: u32, a: Addr, w: Word, data: u32) -> ! {
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
    }

    fn pointerless(&self, a: Addr, w: Word, data: u32) -> ! {
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
    }

    /// Copies an unrelocated closure object: follow the code pointer to
    /// the compiler-emitted closure routine (§2.2's word at `code − 4`),
    /// rebuild the environment's type routines (§3, Figure 4), enqueue
    /// the captures.
    fn copy_closure(&mut self, a: Addr, arrow_rt: RtId) -> Addr {
        let fn_id = self.heap.read(a, 0) as usize;
        let fns = self.fns;
        let fm = &fns[fn_id];
        let new = self.evacuate(a, fm.closure_size as usize);

        if !fm.closure_param_src.is_empty() {
            self.stats.closure_envs_built += 1;
        }
        let cx = EvalCx::Closure {
            fn_id: fn_id as u32,
        };
        let mut env: Vec<RtId> = Vec::with_capacity(fm.closure_param_src.len());
        for src in &fm.closure_param_src {
            let rt = match src {
                ClosParamSrc::Opaque => RtId::CONST,
                ClosParamSrc::Path(p) => self.extract(arrow_rt, p, cx),
                ClosParamSrc::DescField(off) => {
                    let dw = self.heap.read(new, *off);
                    self.desc_rt(DescId(dw as u32))
                }
            };
            env.push(rt);
        }
        for (off, sx) in &fm.closure_fields {
            let rt = self.eval_at(*sx, &env, cx);
            let p = self.plan_for_rt(rt);
            if p != NOOP_PLAN {
                self.push(new, *off, Ty::Plan(p));
            }
        }
        new
    }

    // --- the trace-plan tier: lowering ---

    /// The plan for an evaluated routine value, lowering on first sight.
    /// Keyed on the routine's id, so a plan is only ever shared between
    /// structurally equal routines.
    fn plan_for_rt(&mut self, rt: RtId) -> PlanId {
        let node = match self.cache.get(rt) {
            RtNode::Const => return NOOP_PLAN,
            RtNode::Ground(g) => return self.plan_for_ground(*g),
            node => node.clone(),
        };
        if let Some(p) = self.cache.plans.find_rt(rt) {
            return p;
        }
        let pid = self.cache.plans.reserve_rt(rt);
        let kind = match node {
            RtNode::Tuple(fs) => {
                let mut ops = PlanOps::new();
                for (i, f) in fs.iter().enumerate() {
                    let p = self.plan_for_rt(*f);
                    ops.push(i as u16, p);
                }
                PlanKind::Tuple {
                    size: fs.len() as u32,
                    ops: ops.finish(&mut self.cache.plans),
                }
            }
            RtNode::Data(d, args) => {
                let prog = self.prog;
                let reps = &prog.ctor_reps[d.0 as usize];
                let tagged = reps
                    .iter()
                    .any(|r| matches!(r, CtorRep::Ptr { tag: Some(_), .. }));
                let cx = EvalCx::Data(d.0);
                let data_variants = self.data_variants;
                let mut variants = Vec::new();
                for (ctor, rep) in reps.iter().enumerate() {
                    let CtorRep::Ptr { tag, .. } = rep else {
                        continue;
                    };
                    let mut ops = PlanOps::new();
                    for (i, sx) in data_variants[d.0 as usize][ctor].iter().enumerate() {
                        let frt = self.eval_at(*sx, &args, cx);
                        let p = self.plan_for_rt(frt);
                        ops.push(rep.field_offset(i as u16), p);
                    }
                    let (ops, self_tail) = ops.finish_with_tail(&mut self.cache.plans, pid);
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
                    variants: self.cache.plans.add_variants(&variants),
                }
            }
            RtNode::Arrow(_, _) => PlanKind::Closure { rt },
            RtNode::Const | RtNode::Ground(_) => unreachable!("leaves never reserve plans"),
        };
        self.cache.plans.fill(pid, kind);
        pid
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
                    ops: ops.finish(&mut self.cache.plans),
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
                    let (ops, self_tail) = ops.finish_with_tail(&mut self.cache.plans, pid);
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
                    variants: self.cache.plans.add_variants(&vps),
                }
            }
            TypeRt::Arrow => PlanKind::Closure {
                rt: self.cache.intern(RtNode::Ground(g)),
            },
        };
        self.cache.plans.fill(pid, kind);
        pid
    }

    // --- the trace-plan tier: execution ---

    /// The plan interpreter: relocates one word under a lowered plan.
    /// Immediates and already-relocated words return before the plan is
    /// read.
    fn reloc_plan(&mut self, w: Word, pid: PlanId) -> Word {
        if pid == NOOP_PLAN {
            return w;
        }
        let a = match self.unrelocated(w) {
            Ok(a) => a,
            Err(nw) => return nw,
        };
        match self.cache.plans.kind(pid) {
            PlanKind::Noop => w,
            PlanKind::Pending => unreachable!("executing a plan mid-lowering"),
            PlanKind::Tuple { size, ops } => {
                let new = self.evacuate(a, size as usize);
                self.push_ops(new, ops);
                self.enc.ptr(new)
            }
            PlanKind::Closure { rt } => {
                let new = self.copy_closure(a, rt);
                self.enc.ptr(new)
            }
            PlanKind::Data {
                data,
                tagged,
                variants,
            } => self.reloc_data(a, w, data, tagged, variants),
        }
    }

    fn push_ops(&mut self, new: Addr, ops: OpRange) {
        for op in self.cache.plans.ops(ops) {
            match *op {
                PlanOp::SlotAt { offset, plan } => self.work.push(WorkItem {
                    addr: new,
                    off: offset,
                    ty: Ty::Plan(plan),
                }),
                PlanOp::Fields { base, n, plan } => {
                    for k in 0..n {
                        self.work.push(WorkItem {
                            addr: new,
                            off: base + k,
                            ty: Ty::Plan(plan),
                        });
                    }
                }
            }
        }
    }

    /// Datatype relocation under a pre-resolved variant table of the
    /// unrelocated object at `a`: a self-recursive tail field is chased
    /// iteratively — the list loop — instead of round-tripping the
    /// worklist per cell.
    fn reloc_data(
        &mut self,
        a: Addr,
        w: Word,
        data: u32,
        tagged: bool,
        variants: VariantRange,
    ) -> Word {
        let (mut vp, first) = self.evacuate_data(a, w, data, tagged, variants);
        let mut new = first;
        loop {
            self.push_ops(new, vp.ops);
            let Some(tail_off) = vp.self_tail else { break };
            let tw = self.heap.read(new, tail_off);
            let ta = match self.unrelocated(tw) {
                Ok(ta) => ta,
                Err(x) => {
                    if x != tw {
                        self.heap.write(new, tail_off, x);
                    }
                    break;
                }
            };
            let (tvp, tnew) = self.evacuate_data(ta, tw, data, tagged, variants);
            self.heap.write(new, tail_off, self.enc.ptr(tnew));
            (vp, new) = (tvp, tnew);
        }
        self.enc.ptr(first)
    }

    /// Decodes the variant of the unrelocated datatype object at `a` —
    /// the discriminant read of §2.3 against the plan's variant table —
    /// and evacuates it.
    fn evacuate_data(
        &mut self,
        a: Addr,
        w: Word,
        data: u32,
        tagged: bool,
        variants: VariantRange,
    ) -> (VariantPlan, Addr) {
        let table = self.cache.plans.variants(variants);
        let vp = if tagged {
            let t = self.heap.read(a, 0) as u32;
            *table
                .iter()
                .find(|v| v.tag == Some(t))
                .unwrap_or_else(|| self.bad_discriminant(t, a, w, data))
        } else {
            *table
                .first()
                .unwrap_or_else(|| self.pointerless(a, w, data))
        };
        (vp, self.evacuate(a, vp.words as usize))
    }
}
