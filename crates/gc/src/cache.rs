//! GC-time metadata cache: routine values as hash-consed ids, and
//! memoized template evaluation over them.
//!
//! §3's type_gc_routine closures (Figures 3–4) are values a collection
//! builds, hands from frame to frame, extracts parameters from and keys
//! trace plans on. Here each one is an [`RtId`]: a node of the cache
//! (`Const`, `Ground`, `Tuple`, `Data` or `Arrow`) hash-consed over its
//! children's ids, so equal ids are equal routines and unequal ids are
//! unequal routines. Every memo key, frame state and plan key is then a
//! plain `Copy` id. The [`RtVal`] trees of `rtval.rs` stay the heap
//! verifier's independent form; [`RtCache::intern_value`] and
//! [`RtCache::value`] convert between the two.
//!
//! A deep recursive chain *evaluates the same θ* at every activation of
//! the same call site. The cache makes that cost proportional to the
//! number of **distinct (template, environment) pairs** instead of the
//! number of frames:
//!
//! * **Hash-consed nodes** — structurally equal routines are one node,
//!   and a node counts in `rt_nodes_built` only the first time template
//!   evaluation or descriptor conversion creates it.
//! * **Interned environments** — an environment (a frame's, a datatype
//!   instance's arguments, a callee's θ) is interned by its entries' ids
//!   into a small `EnvIx`; a lookup hashes the id slice it is given, so
//!   a hit allocates nothing.
//! * **Evaluation memo** — [`RtCache::eval`] keys on `(SxId, EnvIx)`.
//! * **Extraction / descriptor memos** — Figure-3 path extraction and
//!   descriptor conversion ([`RtCache::extract`], [`RtCache::desc`]) are
//!   pure given their inputs and memoize the same way (paths are interned
//!   once, so an extraction hit allocates nothing either).
//! * **Frame-step memo** — the forward walk's unit of work. A frame's
//!   environment is a pure function of its call site and of the
//!   `FrameState` its caller's routine handed it (the evaluated θ or
//!   closure routine, §3). One `FrameStep` per `(site, state)` records
//!   the frame's slot plans, its routine's op count and the state it hands
//!   on, so tracing a chain of activations costs one small-integer lookup
//!   per frame that ran since the last collection. A frame below its
//!   stack's floor is replayed from the stack's walk record (`stack.rs`)
//!   with no lookup, and counts the hit its lookup would have scored.
//!   Each frame-step lookup counts in [`RtCache::hits`]/[`RtCache::misses`]
//!   like any other memo lookup.
//!
//! Correctness: `eval_sx` is a pure function of the template and the
//! environment, so memoization cannot change any collection outcome. The
//! cache is always on; its independent references are Appel's unmemoized
//! backward walk, Interpreted's descriptor walk and the tagged oracle,
//! which the workspace's differential tests compare every tag-free
//! strategy against; the heap verifier evaluates with the plain
//! `eval_sx`/`desc_to_rt` builders. The cache is owned by `GcMeta` and
//! persists across collections of a run (results only ever reference
//! immutable metadata).

use crate::desc::{DescArena, DescId, DescNode};
use crate::ground::{GroundTable, TypeRtId};
use crate::plan::{PlanId, PlanStore};
use crate::rtval::{bad_path, extract_ground, param_lookup, EvalCx, RtBuildStats, RtVal};
use crate::sx::{SxId, SxTable, TypeSx};
use std::collections::HashMap;
use std::rc::Rc;
use tfgc_ir::IrProgram;
use tfgc_types::DataId;

/// A type routine value: a node of its [`RtCache`]. Ids are hash-consed,
/// so two ids of one cache are equal exactly when their routines are.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RtId(u32);

impl RtId {
    /// `const_gc`, preinstalled in every cache.
    pub const CONST: RtId = RtId(0);
}

/// One routine node, its children by id — the shape of
/// [`RtVal`](crate::rtval::RtVal).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum RtNode {
    /// `const_gc`: single-word, never a pointer.
    Const,
    /// A precompiled ground routine.
    Ground(TypeRtId),
    /// Tuple with per-field routines.
    Tuple(Rc<[RtId]>),
    /// Datatype instance with per-argument routines.
    Data(DataId, Rc<[RtId]>),
    /// Function value: argument and result routines.
    Arrow(RtId, RtId),
}

/// Interned environment id: an environment by the ids of its entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct EnvIx(u32);

/// What a frame routine hands the next (newer) frame (§3): nothing, an
/// evaluated θ, or the entered closure's routine. It is `Copy` and
/// compares by content, so it keys the frame-step memo directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FrameState {
    /// The oldest frame, which no routine calls, or a call that passes
    /// nothing.
    None,
    /// A direct call's evaluated θ.
    Theta(EnvIx),
    /// The routine of the closure a call enters.
    Clos(RtId),
}

/// One traced slot of a memoized frame step.
#[derive(Debug, Clone, Copy)]
pub(crate) enum SlotStep {
    /// Relocate the slot under an already-lowered plan.
    Plan { slot: u16, plan: PlanId },
    /// Interpreted method: decode the descriptor at `pos` under the
    /// step's environment, as every activation must (§2.4).
    Bytes { slot: u16, pos: u32 },
}

/// A memoized frame step: everything the forward walk needs to trace one
/// activation of a call site entered with one incoming state.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FrameStep {
    /// Op count of the site's frame routine (`RoutineRun`,
    /// `slots_traced`); no-op slots are absent from the step list.
    pub ops: u32,
    /// `(start, len)` of the slot steps; set by [`RtCache::insert_frame`].
    pub steps: (u32, u32),
    /// The state this frame's routine hands the next (newer) frame.
    pub out: FrameState,
    /// The frame's own environment (the newest frame's environment types
    /// the pending allocation operands, and [`SlotStep::Bytes`] steps
    /// decode under it).
    pub env: EnvIx,
}

/// The collector's memoization state. One per [`crate::meta::GcMeta`].
#[derive(Debug, Clone)]
pub struct RtCache {
    /// Memo lookups that returned a previously computed result.
    pub hits: u64,
    /// Memo lookups that had to evaluate.
    pub misses: u64,
    /// Node per id; `index` hash-conses them.
    nodes: Vec<RtNode>,
    index: HashMap<RtNode, RtId>,
    envs: HashMap<Rc<[RtId]>, EnvIx>,
    env_list: Vec<Rc<[RtId]>>,
    eval_memo: HashMap<(SxId, EnvIx), RtId>,
    desc_memo: HashMap<DescId, RtId>,
    paths: HashMap<Box<[u16]>, u32>,
    extract_memo: HashMap<(RtId, u32), RtId>,
    /// Per call site, the recorded `(incoming state, frame step)` pairs:
    /// a site meets few distinct states, so a short scan beats hashing.
    frame_ix: Vec<Vec<(FrameState, u32)>>,
    frames: Vec<FrameStep>,
    slot_steps: Vec<SlotStep>,
    /// Flat trace plans lowered from routine ids (the fast execution tier
    /// on top of this cache — see `plan.rs`).
    pub plans: PlanStore,
}

impl RtCache {
    /// An empty cache holding only [`RtId::CONST`].
    pub fn new() -> RtCache {
        RtCache {
            hits: 0,
            misses: 0,
            nodes: vec![RtNode::Const],
            index: HashMap::from([(RtNode::Const, RtId::CONST)]),
            envs: HashMap::new(),
            env_list: Vec::new(),
            eval_memo: HashMap::new(),
            desc_memo: HashMap::new(),
            paths: HashMap::new(),
            extract_memo: HashMap::new(),
            frame_ix: Vec::new(),
            frames: Vec::new(),
            slot_steps: Vec::new(),
            plans: PlanStore::new(),
        }
    }

    /// The node behind an id.
    pub(crate) fn get(&self, id: RtId) -> &RtNode {
        &self.nodes[id.0 as usize]
    }

    /// The id of a node, adding it on first sight.
    pub(crate) fn intern(&mut self, node: RtNode) -> RtId {
        if let Some(id) = self.index.get(&node) {
            return *id;
        }
        let id = RtId(self.nodes.len() as u32);
        self.nodes.push(node.clone());
        self.index.insert(node, id);
        id
    }

    /// Interns a node built by template evaluation or descriptor
    /// conversion. It counts toward `rt_nodes_built` only when it did not
    /// already exist — this is what turns the per-collection node count
    /// from O(frames) into O(distinct shapes).
    fn intern_built(&mut self, node: RtNode, stats: &mut RtBuildStats) -> RtId {
        let known = self.nodes.len();
        let id = self.intern(node);
        if self.nodes.len() > known {
            stats.nodes_built += 1;
        }
        id
    }

    /// Interns a routine tree built outside the cache.
    pub fn intern_value(&mut self, v: &RtVal) -> RtId {
        let node = match v {
            RtVal::Const => return RtId::CONST,
            RtVal::Ground(g) => RtNode::Ground(*g),
            RtVal::Tuple(fs) => RtNode::Tuple(fs.iter().map(|f| self.intern_value(f)).collect()),
            RtVal::Data(d, fs) => {
                RtNode::Data(*d, fs.iter().map(|f| self.intern_value(f)).collect())
            }
            RtVal::Arrow(a, b) => RtNode::Arrow(self.intern_value(a), self.intern_value(b)),
        };
        self.intern(node)
    }

    /// The routine behind an id as a tree.
    pub fn value(&self, id: RtId) -> RtVal {
        let tree = |fs: &[RtId]| Rc::new(fs.iter().map(|f| self.value(*f)).collect());
        match self.get(id) {
            RtNode::Const => RtVal::Const,
            RtNode::Ground(g) => RtVal::Ground(*g),
            RtNode::Tuple(fs) => RtVal::Tuple(tree(fs)),
            RtNode::Data(d, fs) => RtVal::Data(*d, tree(fs)),
            RtNode::Arrow(a, b) => RtVal::Arrow(Rc::new(self.value(*a)), Rc::new(self.value(*b))),
        }
    }

    /// Evaluates template `id` under `env`, memoized per
    /// `(id, interned env)`.
    ///
    /// # Panics
    ///
    /// Same contract as [`eval_sx`](crate::rtval::eval_sx): out-of-range
    /// parameters fail fast.
    pub fn eval(
        &mut self,
        sxs: &SxTable,
        id: SxId,
        env: &[RtId],
        stats: &mut RtBuildStats,
        cx: EvalCx,
    ) -> RtId {
        // Leaf templates never build and never consult the memo.
        let sx = sxs.get(id);
        if let TypeSx::Prim | TypeSx::Ground(_) | TypeSx::Param(_) = sx {
            return self.build(sx, env, stats, cx);
        }
        let key = (id, self.env_ix(env));
        if let Some(v) = self.eval_memo.get(&key) {
            self.hits += 1;
            return *v;
        }
        self.misses += 1;
        let v = self.build(sx, env, stats, cx);
        self.eval_memo.insert(key, v);
        v
    }

    /// Bottom-up template evaluation.
    fn build(&mut self, sx: &TypeSx, env: &[RtId], stats: &mut RtBuildStats, cx: EvalCx) -> RtId {
        let node = match sx {
            TypeSx::Prim => return RtId::CONST,
            TypeSx::Ground(g) => return self.intern(RtNode::Ground(*g)),
            TypeSx::Param(i) => return param_lookup(*i, env, cx),
            TypeSx::Tuple(ts) => {
                RtNode::Tuple(ts.iter().map(|t| self.build(t, env, stats, cx)).collect())
            }
            TypeSx::Data(d, ts) => RtNode::Data(
                *d,
                ts.iter().map(|t| self.build(t, env, stats, cx)).collect(),
            ),
            TypeSx::Arrow(a, b) => {
                RtNode::Arrow(self.build(a, env, stats, cx), self.build(b, env, stats, cx))
            }
        };
        self.intern_built(node, stats)
    }

    /// Interns an environment. Allocates only the first time an
    /// environment is seen.
    pub(crate) fn env_ix(&mut self, env: &[RtId]) -> EnvIx {
        if let Some(ix) = self.envs.get(env) {
            return *ix;
        }
        let ix = EnvIx(self.env_list.len() as u32);
        let env: Rc<[RtId]> = env.into();
        self.envs.insert(Rc::clone(&env), ix);
        self.env_list.push(env);
        ix
    }

    /// The environment behind an interned id.
    pub(crate) fn env(&self, ix: EnvIx) -> &[RtId] {
        &self.env_list[ix.0 as usize]
    }

    /// The environment behind an interned id, shared: it stays readable
    /// while the cache evaluates under it.
    pub(crate) fn shared_env(&self, ix: EnvIx) -> Rc<[RtId]> {
        Rc::clone(&self.env_list[ix.0 as usize])
    }

    /// Looks up the frame step of `site` entered with `state`, counting
    /// the lookup as a hit or a miss.
    pub(crate) fn find_frame(&mut self, site: u32, state: FrameState) -> Option<u32> {
        let f = self
            .frame_ix
            .get(site as usize)
            .and_then(|steps| steps.iter().find(|(s, _)| *s == state))
            .map(|&(_, f)| f);
        if f.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        f
    }

    /// Records the frame step of `site` entered with `state`.
    pub(crate) fn insert_frame(
        &mut self,
        site: u32,
        state: FrameState,
        mut step: FrameStep,
        slots: &[SlotStep],
    ) -> u32 {
        step.steps = (self.slot_steps.len() as u32, slots.len() as u32);
        self.slot_steps.extend_from_slice(slots);
        let f = self.frames.len() as u32;
        self.frames.push(step);
        let site = site as usize;
        if self.frame_ix.len() <= site {
            self.frame_ix.resize_with(site + 1, Vec::new);
        }
        self.frame_ix[site].push((state, f));
        f
    }

    /// A recorded frame step.
    pub(crate) fn frame(&self, f: u32) -> &FrameStep {
        &self.frames[f as usize]
    }

    /// Indices of frame step `f`'s slot steps, for [`RtCache::slot_step`].
    pub(crate) fn frame_slots(&self, f: u32) -> std::ops::Range<usize> {
        let (start, len) = self.frames[f as usize].steps;
        start as usize..(start + len) as usize
    }

    /// One recorded slot step.
    pub(crate) fn slot_step(&self, i: usize) -> SlotStep {
        self.slot_steps[i]
    }

    /// Drops every frame step, for when the frames' parameter sources
    /// change under a live cache (fault injection truncates them).
    pub fn forget_frames(&mut self) {
        self.frame_ix.clear();
        self.frames.clear();
        self.slot_steps.clear();
    }

    /// Extracts the sub-routine at `path` (§3, Figure 3), memoized per
    /// (routine, path).
    ///
    /// # Panics
    ///
    /// Same contract as [`extract_path`](crate::rtval::extract_path).
    pub fn extract(
        &mut self,
        rt: RtId,
        path: &[u16],
        prog: &IrProgram,
        ground: &mut GroundTable,
        cx: EvalCx,
    ) -> RtId {
        if path.is_empty() {
            return rt;
        }
        let path_ix = match self.paths.get(path) {
            Some(p) => *p,
            None => {
                let p = self.paths.len() as u32;
                self.paths.insert(path.into(), p);
                p
            }
        };
        let key = (rt, path_ix);
        if let Some(v) = self.extract_memo.get(&key) {
            self.hits += 1;
            return *v;
        }
        self.misses += 1;
        // GroundTable::make is itself memoized per type, so re-running
        // the extraction later would produce the same routine ids — the
        // memoized result is exact.
        let v = self.walk_path(rt, path, prog, ground, cx);
        self.extract_memo.insert(key, v);
        v
    }

    /// [`extract_path`](crate::rtval::extract_path) over ids.
    fn walk_path(
        &mut self,
        mut cur: RtId,
        path: &[u16],
        prog: &IrProgram,
        ground: &mut GroundTable,
        cx: EvalCx,
    ) -> RtId {
        for (k, step) in path.iter().enumerate() {
            cur = match self.get(cur) {
                RtNode::Tuple(fs) | RtNode::Data(_, fs) => match fs.get(*step as usize) {
                    Some(sub) => *sub,
                    None => bad_path(path, k, fs.len(), "structural routine", cx),
                },
                RtNode::Arrow(a, b) => match step {
                    0 => *a,
                    1 => *b,
                    _ => bad_path(path, k, 2, "arrow routine", cx),
                },
                RtNode::Ground(g) => {
                    return match extract_ground(*g, path, k, prog, ground, cx) {
                        Some(sub) => self.intern(RtNode::Ground(sub)),
                        None => RtId::CONST,
                    }
                }
                RtNode::Const => return RtId::CONST,
            };
        }
        cur
    }

    /// Converts a descriptor, memoized per [`DescId`] (descriptors are
    /// interned and immutable once created).
    pub fn desc(&mut self, arena: &DescArena, id: DescId, stats: &mut RtBuildStats) -> RtId {
        if let Some(v) = self.desc_memo.get(&id) {
            self.hits += 1;
            return *v;
        }
        self.misses += 1;
        self.desc_build(arena, id, stats)
    }

    /// Recursive descriptor conversion with per-node memoization (no
    /// hit/miss accounting below the top level).
    fn desc_build(&mut self, arena: &DescArena, id: DescId, stats: &mut RtBuildStats) -> RtId {
        if let Some(v) = self.desc_memo.get(&id) {
            return *v;
        }
        let node = match arena.node(id) {
            DescNode::Prim | DescNode::Opaque => None,
            DescNode::Tuple(ds) => Some(RtNode::Tuple(
                ds.iter()
                    .map(|d| self.desc_build(arena, *d, stats))
                    .collect(),
            )),
            DescNode::Data(data, ds) => Some(RtNode::Data(
                *data,
                ds.iter()
                    .map(|d| self.desc_build(arena, *d, stats))
                    .collect(),
            )),
            DescNode::Arrow(a, b) => Some(RtNode::Arrow(
                self.desc_build(arena, *a, stats),
                self.desc_build(arena, *b, stats),
            )),
        };
        let v = node.map_or(RtId::CONST, |n| self.intern_built(n, stats));
        self.desc_memo.insert(id, v);
        v
    }
}

impl Default for RtCache {
    fn default() -> Self {
        RtCache::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rtval::{eval_sx, extract_path};
    use tfgc_types::{Type, LIST_DATA};

    fn prog(src: &str) -> IrProgram {
        use tfgc_ir::lower;
        use tfgc_syntax::parse_program;
        use tfgc_types::elaborate;
        lower(&elaborate(&parse_program(src).unwrap()).unwrap()).unwrap()
    }

    fn table_with(sx: TypeSx) -> (SxTable, SxId) {
        let mut t = SxTable::new();
        let id = t.intern(sx);
        (t, id)
    }

    fn list(cache: &mut RtCache, elem: RtId) -> RtId {
        cache.intern(RtNode::Data(LIST_DATA, Rc::from([elem])))
    }

    #[test]
    fn memoized_eval_matches_unmemoized() {
        let sx = TypeSx::Data(
            LIST_DATA,
            vec![TypeSx::Tuple(vec![TypeSx::Param(0), TypeSx::Prim])],
        );
        let mut plain = RtBuildStats::default();
        let expected = eval_sx(&sx, &[RtVal::Const], &mut plain, EvalCx::None);

        let (t, id) = table_with(sx);
        let mut cache = RtCache::new();
        let mut stats = RtBuildStats::default();
        for _ in 0..3 {
            let got = cache.eval(&t, id, &[RtId::CONST], &mut stats, EvalCx::None);
            assert_eq!(cache.value(got), expected);
        }
    }

    #[test]
    fn repeat_evaluations_hit_and_build_nothing() {
        let sx = TypeSx::Data(LIST_DATA, vec![TypeSx::Param(0)]);
        let (t, id) = table_with(sx);
        let mut cache = RtCache::new();
        let mut stats = RtBuildStats::default();
        let env = [RtId::CONST];
        cache.eval(&t, id, &env, &mut stats, EvalCx::None);
        assert_eq!((cache.hits, cache.misses), (0, 1));
        let built_once = stats.nodes_built;
        for _ in 0..10 {
            cache.eval(&t, id, &env, &mut stats, EvalCx::None);
        }
        assert_eq!((cache.hits, cache.misses), (10, 1));
        assert_eq!(stats.nodes_built, built_once, "hits build no nodes");
    }

    #[test]
    fn structurally_equal_routines_share_one_id() {
        // Two different templates that evaluate to the same routine.
        let mut t = SxTable::new();
        let a = t.intern(TypeSx::Data(LIST_DATA, vec![TypeSx::Param(0)]));
        let b = t.intern(TypeSx::Data(LIST_DATA, vec![TypeSx::Prim]));
        assert_ne!(a, b);
        let mut cache = RtCache::new();
        let mut stats = RtBuildStats::default();
        let ra = cache.eval(&t, a, &[RtId::CONST], &mut stats, EvalCx::None);
        let rb = cache.eval(&t, b, &[], &mut stats, EvalCx::None);
        assert_eq!(ra, rb, "hash-consed nodes share one id");
        assert_eq!(stats.nodes_built, 1, "the shared node is built once");
    }

    #[test]
    fn distinct_envs_do_not_alias() {
        let sx = TypeSx::Data(LIST_DATA, vec![TypeSx::Param(0)]);
        let (t, id) = table_with(sx);
        let mut cache = RtCache::new();
        let mut stats = RtBuildStats::default();
        let inner = RtVal::Data(LIST_DATA, Rc::new(vec![RtVal::Const]));
        let inner_id = cache.intern_value(&inner);
        let ra = cache.eval(&t, id, &[RtId::CONST], &mut stats, EvalCx::None);
        let rb = cache.eval(&t, id, &[inner_id], &mut stats, EvalCx::None);
        assert_ne!(ra, rb);
        assert_eq!(
            cache.value(rb),
            RtVal::Data(LIST_DATA, Rc::new(vec![inner])),
            "environment distinguishes memo entries"
        );
    }

    #[test]
    fn equal_envs_and_paths_hit_across_allocations() {
        let sx = TypeSx::Data(LIST_DATA, vec![TypeSx::Param(0)]);
        let (t, id) = table_with(sx);
        let mut cache = RtCache::new();
        let mut stats = RtBuildStats::default();
        // Two separately allocated, equal trees intern to one environment.
        let env = || vec![RtVal::Data(LIST_DATA, Rc::new(vec![RtVal::Const]))];
        let e1: Vec<RtId> = env().iter().map(|v| cache.intern_value(v)).collect();
        let e2: Vec<RtId> = env().iter().map(|v| cache.intern_value(v)).collect();
        let a = cache.eval(&t, id, &e1, &mut stats, EvalCx::None);
        let b = cache.eval(&t, id, &e2, &mut stats, EvalCx::None);
        assert_eq!(a, b);
        assert_eq!((cache.hits, cache.misses), (1, 1), "a fresh equal env hits");

        let p = prog("0");
        let mut g = GroundTable::new();
        let rt = cache.intern(RtNode::Tuple(Rc::from([a, RtId::CONST])));
        let (p1, p2): (Vec<u16>, Vec<u16>) = (vec![0, 0], vec![0, 0]);
        let x = cache.extract(rt, &p1, &p, &mut g, EvalCx::None);
        let y = cache.extract(rt, &p2, &p, &mut g, EvalCx::None);
        assert_eq!(x, e1[0]);
        assert_eq!(x, y);
        assert_eq!(
            (cache.hits, cache.misses),
            (2, 2),
            "a fresh equal path hits"
        );
    }

    #[test]
    fn frame_states_compare_by_content() {
        let mut cache = RtCache::new();
        let ints = list(&mut cache, RtId::CONST);
        let nested_rt = list(&mut cache, ints);
        let theta = |cache: &mut RtCache, env: &[RtId]| FrameState::Theta(cache.env_ix(env));
        let ints_state = theta(&mut cache, &[ints]);
        let again = list(&mut cache, RtId::CONST);
        let again = theta(&mut cache, &[again]);
        let nested = theta(&mut cache, &[nested_rt]);
        let clos = FrameState::Clos(ints);
        let empty = theta(&mut cache, &[]);
        assert_eq!(ints_state, again, "equal θ, one state");
        let all = [FrameState::None, ints_state, nested, clos, empty];
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a, b, "distinct incoming states never alias");
            }
        }
        let FrameState::Theta(e) = nested else {
            unreachable!()
        };
        assert_eq!(cache.env(e), &[nested_rt]);
    }

    #[test]
    fn unmemoized_eval_builds_per_call_the_cache_once() {
        let sx = TypeSx::Data(LIST_DATA, vec![TypeSx::Param(0)]);
        let mut plain = RtBuildStats::default();
        for _ in 0..3 {
            eval_sx(&sx, &[RtVal::Const], &mut plain, EvalCx::None);
        }
        assert_eq!(
            plain.nodes_built, 3,
            "unmemoized evaluation builds per call"
        );

        let (t, id) = table_with(sx);
        let mut cache = RtCache::new();
        let mut stats = RtBuildStats::default();
        for _ in 0..3 {
            cache.eval(&t, id, &[RtId::CONST], &mut stats, EvalCx::None);
        }
        assert_eq!((cache.hits, cache.misses), (2, 1));
        assert_eq!(stats.nodes_built, 1, "the cache builds the node once");
    }

    #[test]
    #[should_panic(expected = "type parameter 0 out of range")]
    fn cached_eval_keeps_the_fail_fast_contract() {
        let sx = TypeSx::Data(LIST_DATA, vec![TypeSx::Param(0)]);
        let (t, id) = table_with(sx);
        let mut cache = RtCache::new();
        let mut stats = RtBuildStats::default();
        cache.eval(&t, id, &[], &mut stats, EvalCx::Frame { fn_id: 1, site: 2 });
    }

    #[test]
    fn cached_extraction_descends_into_ground_data() {
        // `(int * int) list * 'b -> (int * int) list`: the path to the
        // list's element meets the ground list routine part-way.
        let p = prog("0");
        let mut g = GroundTable::new();
        let pair = Type::Tuple(vec![Type::Int, Type::Int]);
        let pairs = g.make(&p, &Type::list(pair.clone()));
        let v = RtVal::Arrow(
            Rc::new(RtVal::Tuple(Rc::new(vec![
                RtVal::Ground(pairs),
                RtVal::Const,
            ]))),
            Rc::new(RtVal::Ground(pairs)),
        );
        let mut cache = RtCache::new();
        let rt = cache.intern_value(&v);
        let got = cache.extract(rt, &[0, 0, 0], &p, &mut g, EvalCx::None);
        assert_eq!(cache.value(got), RtVal::Ground(g.make(&p, &pair)));
        assert_eq!(
            cache.value(got),
            extract_path(&v, &[0, 0, 0], &p, &mut g, EvalCx::None)
        );
    }

    // --- identity is injective: an id shared by unequal routines would
    // hand the collector a wrong memoized routine or plan ---

    #[test]
    fn arrows_sharing_a_domain_rc_get_distinct_ids() {
        // Figure-3 extraction on trees rebuilds `Arrow(a, b')` around an
        // existing domain `Rc`; sharing a component must not merge ids.
        let mut cache = RtCache::new();
        let a = Rc::new(RtVal::Const);
        let b1 = Rc::new(RtVal::Const);
        let b2 = Rc::new(RtVal::Data(LIST_DATA, Rc::new(vec![RtVal::Const])));
        let f1 = RtVal::Arrow(a.clone(), b1);
        let f2 = RtVal::Arrow(a, b2);
        let (i1, i2) = (cache.intern_value(&f1), cache.intern_value(&f2));
        assert_ne!(i1, i2, "arrows sharing a domain Rc must not alias");
        assert_eq!(cache.value(i1), f1);
        assert_eq!(cache.value(i2), f2);
    }

    #[test]
    fn data_wrappers_sharing_a_field_rc_get_distinct_ids() {
        let mut cache = RtCache::new();
        let fs = Rc::new(vec![RtVal::Const]);
        let d1 = RtVal::Data(LIST_DATA, fs.clone());
        let d2 = RtVal::Data(DataId(LIST_DATA.0 + 1), fs.clone());
        let t = RtVal::Tuple(fs);
        let (i1, i2, i3) = (
            cache.intern_value(&d1),
            cache.intern_value(&d2),
            cache.intern_value(&t),
        );
        assert_ne!(i1, i2, "distinct datatypes sharing fields must not alias");
        assert_ne!(i1, i3, "Data and Tuple sharing fields must not alias");
        assert_ne!(i2, i3);
    }

    #[test]
    fn identity_is_stable_for_equal_values() {
        let mut cache = RtCache::new();
        let v1 = RtVal::Tuple(Rc::new(vec![RtVal::Const, RtVal::Const]));
        let v2 = RtVal::Tuple(Rc::new(vec![RtVal::Const, RtVal::Const]));
        assert_eq!(
            cache.intern_value(&v1),
            cache.intern_value(&v2),
            "structural equality implies one id"
        );
    }
}
