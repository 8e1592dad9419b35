//! GC-time metadata cache: memoized template evaluation over hash-consed
//! routine values.
//!
//! §3's forward traversal already avoids re-deriving type information per
//! frame, but a deep recursive chain still *evaluates the same θ* at every
//! activation of the same call site: a million-frame `pdown` chain builds
//! a million structurally identical [`RtVal`] trees. This cache makes that
//! cost proportional to the number of **distinct (template, environment)
//! pairs** instead of the number of frames:
//!
//! * **Hash-consed nodes** — every composite [`RtVal`] built through the
//!   cache is interned, so structurally equal routines share one `Rc` and
//!   a node is counted in `rt_nodes_built` only the first time it exists.
//! * **Interned environments** — an environment (a frame's, a datatype
//!   instance's arguments, a callee's θ) is interned by the ids of its
//!   entries into a small [`EnvIx`]. Lookups compute the entry ids into a
//!   reused buffer, so a hit allocates nothing.
//! * **Evaluation memo** — [`RtCache::eval`] keys on `(SxId, EnvIx)`.
//! * **Extraction / descriptor memos** — Figure-3 path extraction and
//!   descriptor conversion ([`RtCache::extract`], [`RtCache::desc`]) are
//!   pure given their inputs and memoize the same way (paths are interned
//!   once, so an extraction hit allocates nothing either).
//! * **Frame-step memo** — the forward walk's unit of work. A frame's
//!   environment is a pure function of its call site and of what its
//!   caller's routine handed it (the evaluated θ or closure routine, §3),
//!   interned as a [`StateId`]. One [`FrameStep`] per `(site, state)`
//!   records the frame's slot plans, its routine's op count and the
//!   interned state it hands on, so tracing a chain of activations costs
//!   one small-integer lookup per frame. Each frame-step lookup counts in
//!   [`RtCache::hits`]/[`RtCache::misses`] like any other memo lookup.
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
use crate::ground::GroundTable;
use crate::plan::{PlanId, PlanStore};
use crate::rtval::{extract_path, param_lookup, EvalCx, RtBuildStats, RtVal};
use crate::sx::{SxId, SxTable, TypeSx};
use std::collections::HashMap;
use std::rc::Rc;
use tfgc_ir::IrProgram;

/// Interned-node id, private to the cache: a compact fingerprint for
/// memo keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct RtId(u32);

/// Interned environment id: an environment by the ids of its entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct EnvIx(u32);

/// Interned incoming state of a frame: what its caller's frame routine
/// passes on (§3) — nothing, an evaluated θ, or a closure routine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct StateId(u32);

/// The state of the oldest frame, which no routine calls.
pub(crate) const NO_STATE: StateId = StateId(0);

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum StateKey {
    None,
    Theta(EnvIx),
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
    pub out: StateId,
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
    /// Canonical node per id. Holding a clone of every interned value
    /// keeps each registered `Rc` allocation alive, which is what makes
    /// the pointer fast-path in [`RtCache::rt_id`] sound.
    nodes: Vec<RtVal>,
    interned: HashMap<RtVal, RtId>,
    /// Full-identity pointer key → id, valid because `nodes` pins every
    /// registered allocation for the cache's lifetime.
    by_ptr: HashMap<PtrKey, RtId>,
    envs: HashMap<Box<[RtId]>, EnvIx>,
    env_vals: Vec<Rc<[RtVal]>>,
    /// Reused buffer for computing an environment's entry ids.
    ids_buf: Vec<RtId>,
    eval_memo: HashMap<(SxId, EnvIx), RtVal>,
    desc_memo: HashMap<DescId, RtVal>,
    paths: HashMap<Box<[u16]>, u32>,
    extract_memo: HashMap<(RtId, u32), RtVal>,
    states: Vec<StateKey>,
    state_ix: HashMap<StateKey, StateId>,
    /// Per call site, the recorded `(incoming state, frame step)` pairs:
    /// a site meets few distinct states, so a short scan beats hashing.
    frame_ix: Vec<Vec<(StateId, u32)>>,
    frames: Vec<FrameStep>,
    slot_steps: Vec<SlotStep>,
    /// Flat trace plans lowered from interned routine values (the fast
    /// execution tier on top of this identity layer — see `plan.rs`).
    pub plans: PlanStore,
}

/// Full identity key for the pointer fast-path: the variant tag, the
/// datatype discriminant, and **every** component pointer.
///
/// Keying on a single component pointer is not injective: two distinct
/// wrappers can share a sub-`Rc` (`Arrow(a, b1)` / `Arrow(a, b2)` built by
/// Figure-3 extraction, or `Data(d, fs)` / `Tuple(fs)` rewrapping one
/// field vector), and collapsing them to one `RtId` hands the collector a
/// wrong memoized routine — heap corruption. With the variant and all
/// components in the key, equal keys imply the components are the *same*
/// allocations, hence the values are structurally equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum PtrKey {
    Tuple(usize),
    Data(u32, usize),
    Arrow(usize, usize),
}

/// The identity key of a composite node (identity fast-path).
fn ptr_key(v: &RtVal) -> Option<PtrKey> {
    match v {
        RtVal::Const | RtVal::Ground(_) => None,
        RtVal::Tuple(fs) => Some(PtrKey::Tuple(Rc::as_ptr(fs) as usize)),
        RtVal::Data(d, fs) => Some(PtrKey::Data(d.0, Rc::as_ptr(fs) as usize)),
        RtVal::Arrow(a, b) => Some(PtrKey::Arrow(
            Rc::as_ptr(a) as usize,
            Rc::as_ptr(b) as usize,
        )),
    }
}

impl RtCache {
    /// An empty cache.
    pub fn new() -> RtCache {
        RtCache {
            hits: 0,
            misses: 0,
            nodes: Vec::new(),
            interned: HashMap::new(),
            by_ptr: HashMap::new(),
            envs: HashMap::new(),
            env_vals: Vec::new(),
            ids_buf: Vec::new(),
            eval_memo: HashMap::new(),
            desc_memo: HashMap::new(),
            paths: HashMap::new(),
            extract_memo: HashMap::new(),
            states: vec![StateKey::None],
            state_ix: HashMap::from([(StateKey::None, NO_STATE)]),
            frame_ix: Vec::new(),
            frames: Vec::new(),
            slot_steps: Vec::new(),
            plans: PlanStore::new(),
        }
    }

    /// Number of distinct interned nodes (the O(distinct sites) bound E9
    /// demonstrates).
    pub fn nodes_interned(&self) -> usize {
        self.nodes.len()
    }

    /// Evaluates template `id` under `env`, memoized per
    /// `(id, interned env)`.
    ///
    /// # Panics
    ///
    /// Same contract as [`eval_sx`]: out-of-range parameters fail fast.
    pub fn eval(
        &mut self,
        sxs: &SxTable,
        id: SxId,
        env: &[RtVal],
        stats: &mut RtBuildStats,
        cx: EvalCx,
    ) -> RtVal {
        // Leaf templates never allocate and never consult the memo.
        match sxs.get(id) {
            TypeSx::Prim => return RtVal::Const,
            TypeSx::Ground(g) => return RtVal::Ground(*g),
            TypeSx::Param(i) => return param_lookup(*i, env, cx),
            _ => {}
        }
        let key = (id, self.env_ix(env));
        if let Some(v) = self.eval_memo.get(&key) {
            self.hits += 1;
            return v.clone();
        }
        self.misses += 1;
        let v = self.build(sxs.get(id), env, stats, cx);
        self.eval_memo.insert(key, v.clone());
        v
    }

    /// Interns an environment. Allocates only the first time an
    /// environment is seen.
    pub(crate) fn env_ix(&mut self, env: &[RtVal]) -> EnvIx {
        let mut ids = std::mem::take(&mut self.ids_buf);
        ids.clear();
        ids.extend(env.iter().map(|v| self.rt_id(v)));
        let ix = match self.envs.get(ids.as_slice()) {
            Some(ix) => *ix,
            None => {
                let ix = EnvIx(self.env_vals.len() as u32);
                self.envs.insert(ids.as_slice().into(), ix);
                self.env_vals.push(env.into());
                ix
            }
        };
        self.ids_buf = ids;
        ix
    }

    /// The environment behind an interned id.
    pub(crate) fn env(&self, ix: EnvIx) -> &Rc<[RtVal]> {
        &self.env_vals[ix.0 as usize]
    }

    /// Interns the state a frame routine hands the next frame.
    pub(crate) fn intern_state(
        &mut self,
        theta: Option<&[RtVal]>,
        clos: Option<&RtVal>,
    ) -> StateId {
        let key = match (theta, clos) {
            (Some(t), _) => StateKey::Theta(self.env_ix(t)),
            (None, Some(rt)) => StateKey::Clos(self.rt_id(rt)),
            (None, None) => StateKey::None,
        };
        if let Some(s) = self.state_ix.get(&key) {
            return *s;
        }
        let s = StateId(self.states.len() as u32);
        self.states.push(key);
        self.state_ix.insert(key, s);
        s
    }

    /// The θ and closure routine behind an interned state.
    pub(crate) fn state(&self, s: StateId) -> (Option<Rc<[RtVal]>>, Option<RtVal>) {
        match self.states[s.0 as usize] {
            StateKey::None => (None, None),
            StateKey::Theta(e) => (Some(self.env(e).clone()), None),
            StateKey::Clos(r) => (None, Some(self.nodes[r.0 as usize].clone())),
        }
    }

    /// Looks up the frame step of `site` entered with `state`, counting
    /// the lookup as a hit or a miss.
    pub(crate) fn find_frame(&mut self, site: u32, state: StateId) -> Option<u32> {
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
        state: StateId,
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

    /// Extracts the sub-routine at `path`, memoized per (value, path).
    ///
    /// # Panics
    ///
    /// Same contract as [`extract_path`].
    pub fn extract(
        &mut self,
        rt: &RtVal,
        path: &[u16],
        prog: &IrProgram,
        ground: &mut GroundTable,
        cx: EvalCx,
    ) -> RtVal {
        if path.is_empty() {
            return extract_path(rt, path, prog, ground, cx);
        }
        let path_ix = match self.paths.get(path) {
            Some(p) => *p,
            None => {
                let p = self.paths.len() as u32;
                self.paths.insert(path.into(), p);
                p
            }
        };
        let key = (self.rt_id(rt), path_ix);
        if let Some(v) = self.extract_memo.get(&key) {
            self.hits += 1;
            return v.clone();
        }
        self.misses += 1;
        // GroundTable::make is itself memoized per type, so re-running
        // the extraction later would produce the same routine ids — the
        // memoized result is exact.
        let v = extract_path(rt, path, prog, ground, cx);
        let v = self.canon(v);
        self.extract_memo.insert(key, v.clone());
        v
    }

    /// Converts a descriptor, memoized per [`DescId`] (descriptors are
    /// interned and immutable once created).
    pub fn desc(&mut self, arena: &DescArena, id: DescId, stats: &mut RtBuildStats) -> RtVal {
        if let Some(v) = self.desc_memo.get(&id) {
            self.hits += 1;
            return v.clone();
        }
        self.misses += 1;
        self.desc_build(arena, id, stats)
    }

    /// Recursive descriptor conversion with per-node memoization (no
    /// hit/miss accounting below the top level).
    fn desc_build(&mut self, arena: &DescArena, id: DescId, stats: &mut RtBuildStats) -> RtVal {
        if let Some(v) = self.desc_memo.get(&id) {
            return v.clone();
        }
        let v = match arena.node(id) {
            DescNode::Prim | DescNode::Opaque => RtVal::Const,
            DescNode::Tuple(ds) => {
                let ds = ds.clone();
                let fs = ds
                    .iter()
                    .map(|d| self.desc_build(arena, *d, stats))
                    .collect();
                self.intern_node(RtVal::Tuple(Rc::new(fs)), stats)
            }
            DescNode::Data(data, ds) => {
                let (data, ds) = (*data, ds.clone());
                let fs = ds
                    .iter()
                    .map(|d| self.desc_build(arena, *d, stats))
                    .collect();
                self.intern_node(RtVal::Data(data, Rc::new(fs)), stats)
            }
            DescNode::Arrow(a, b) => {
                let (a, b) = (*a, *b);
                let ra = self.desc_build(arena, a, stats);
                let rb = self.desc_build(arena, b, stats);
                self.intern_node(RtVal::Arrow(Rc::new(ra), Rc::new(rb)), stats)
            }
        };
        self.desc_memo.insert(id, v.clone());
        v
    }

    /// Bottom-up template evaluation, interning every composite node.
    fn build(&mut self, sx: &TypeSx, env: &[RtVal], stats: &mut RtBuildStats, cx: EvalCx) -> RtVal {
        match sx {
            TypeSx::Prim => RtVal::Const,
            TypeSx::Ground(g) => RtVal::Ground(*g),
            TypeSx::Param(i) => param_lookup(*i, env, cx),
            TypeSx::Tuple(ts) => {
                let fs = ts.iter().map(|t| self.build(t, env, stats, cx)).collect();
                self.intern_node(RtVal::Tuple(Rc::new(fs)), stats)
            }
            TypeSx::Data(d, ts) => {
                let fs = ts.iter().map(|t| self.build(t, env, stats, cx)).collect();
                self.intern_node(RtVal::Data(*d, Rc::new(fs)), stats)
            }
            TypeSx::Arrow(a, b) => {
                let ra = self.build(a, env, stats, cx);
                let rb = self.build(b, env, stats, cx);
                self.intern_node(RtVal::Arrow(Rc::new(ra), Rc::new(rb)), stats)
            }
        }
    }

    /// Interns a freshly built composite node. A node counts toward
    /// `rt_nodes_built` only when it did not already exist — this is what
    /// turns the per-collection node count from O(frames) into
    /// O(distinct shapes).
    fn intern_node(&mut self, v: RtVal, stats: &mut RtBuildStats) -> RtVal {
        if let Some(id) = self.interned.get(&v) {
            return self.nodes[id.0 as usize].clone();
        }
        stats.nodes_built += 1;
        let id = RtId(self.nodes.len() as u32);
        // Pin first, register second: a pointer key must never exist in
        // `by_ptr` without `nodes` holding the allocations it names alive
        // (a dropped-and-reused address would resurrect a stale
        // fingerprint — ABA).
        self.nodes.push(v.clone());
        self.interned.insert(v.clone(), id);
        if let Some(p) = ptr_key(&v) {
            self.by_ptr.insert(p, id);
        }
        v
    }

    /// The interned id of a value, adopting foreign nodes (values built
    /// outside the cache, e.g. by tests) as canonical.
    fn rt_id(&mut self, v: &RtVal) -> RtId {
        if let Some(p) = ptr_key(v) {
            if let Some(id) = self.by_ptr.get(&p) {
                return *id;
            }
        }
        if let Some(id) = self.interned.get(v) {
            // Structurally known under a different allocation: do NOT
            // register this pointer — its allocation is not pinned by
            // `nodes`, so the address could be reused after a drop.
            return *id;
        }
        let id = RtId(self.nodes.len() as u32);
        // Adoption pins a clone in `nodes` *before* the pointer key is
        // registered; the clone shares every component `Rc`, so each
        // address in the key stays alive for the cache's lifetime.
        self.nodes.push(v.clone());
        self.interned.insert(v.clone(), id);
        if let Some(p) = ptr_key(v) {
            self.by_ptr.insert(p, id);
        }
        id
    }

    /// The canonical (shared) form of a value.
    fn canon(&mut self, v: RtVal) -> RtVal {
        let id = self.rt_id(&v);
        self.nodes[id.0 as usize].clone()
    }

    /// The stable fingerprint of `v` within this cache — the same
    /// identity every memo key and trace-plan key uses. Structurally
    /// equal values always map to one fingerprint; structurally unequal
    /// values never collide (the aliasing property tests drive this).
    pub fn identity(&mut self, v: &RtVal) -> u32 {
        self.rt_id(v).0
    }

    /// The canonical interned node behind a fingerprint returned by
    /// [`RtCache::identity`].
    pub fn node(&self, fingerprint: u32) -> &RtVal {
        &self.nodes[fingerprint as usize]
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
    use crate::rtval::eval_sx;
    use tfgc_types::LIST_DATA;

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

    #[test]
    fn memoized_eval_matches_unmemoized() {
        let sx = TypeSx::Data(
            LIST_DATA,
            vec![TypeSx::Tuple(vec![TypeSx::Param(0), TypeSx::Prim])],
        );
        let env = [RtVal::Const];
        let mut plain = RtBuildStats::default();
        let expected = eval_sx(&sx, &env, &mut plain, EvalCx::None);

        let (t, id) = table_with(sx);
        let mut cache = RtCache::new();
        let mut stats = RtBuildStats::default();
        for _ in 0..3 {
            let got = cache.eval(&t, id, &env, &mut stats, EvalCx::None);
            assert_eq!(got, expected);
        }
    }

    #[test]
    fn repeat_evaluations_hit_and_build_nothing() {
        let sx = TypeSx::Data(LIST_DATA, vec![TypeSx::Param(0)]);
        let (t, id) = table_with(sx);
        let mut cache = RtCache::new();
        let mut stats = RtBuildStats::default();
        let env = [RtVal::Const];
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
    fn structurally_equal_routines_share_one_rc() {
        // Two different templates that evaluate to the same routine.
        let mut t = SxTable::new();
        let a = t.intern(TypeSx::Data(LIST_DATA, vec![TypeSx::Param(0)]));
        let b = t.intern(TypeSx::Data(LIST_DATA, vec![TypeSx::Prim]));
        assert_ne!(a, b);
        let mut cache = RtCache::new();
        let mut stats = RtBuildStats::default();
        let ra = cache.eval(&t, a, &[RtVal::Const], &mut stats, EvalCx::None);
        let rb = cache.eval(&t, b, &[], &mut stats, EvalCx::None);
        match (&ra, &rb) {
            (RtVal::Data(_, fa), RtVal::Data(_, fb)) => {
                assert!(Rc::ptr_eq(fa, fb), "hash-consed nodes share one Rc");
            }
            other => panic!("expected data routines, got {other:?}"),
        }
        assert_eq!(stats.nodes_built, 1, "the shared node is built once");
    }

    #[test]
    fn distinct_envs_do_not_alias() {
        let sx = TypeSx::Data(LIST_DATA, vec![TypeSx::Param(0)]);
        let (t, id) = table_with(sx);
        let mut cache = RtCache::new();
        let mut stats = RtBuildStats::default();
        let inner = RtVal::Data(LIST_DATA, Rc::new(vec![RtVal::Const]));
        let ra = cache.eval(&t, id, &[RtVal::Const], &mut stats, EvalCx::None);
        let rb = cache.eval(
            &t,
            id,
            std::slice::from_ref(&inner),
            &mut stats,
            EvalCx::None,
        );
        assert_ne!(ra, rb);
        assert_eq!(
            rb,
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
        let env = || vec![RtVal::Data(LIST_DATA, Rc::new(vec![RtVal::Const]))];
        let a = cache.eval(&t, id, &env(), &mut stats, EvalCx::None);
        let b = cache.eval(&t, id, &env(), &mut stats, EvalCx::None);
        assert_eq!(a, b);
        assert_eq!((cache.hits, cache.misses), (1, 1), "a fresh equal env hits");

        let p = prog("0");
        let mut g = GroundTable::new();
        let rt = RtVal::Tuple(Rc::new(vec![a.clone(), RtVal::Const]));
        let (p1, p2): (Vec<u16>, Vec<u16>) = (vec![0, 0], vec![0, 0]);
        let x = cache.extract(&rt, &p1, &p, &mut g, EvalCx::None);
        let y = cache.extract(&rt, &p2, &p, &mut g, EvalCx::None);
        assert_eq!(x, env()[0]);
        assert_eq!(x, y);
        assert_eq!(
            (cache.hits, cache.misses),
            (2, 2),
            "a fresh equal path hits"
        );
    }

    #[test]
    fn frame_states_intern_by_content() {
        let mut cache = RtCache::new();
        let list = |v| RtVal::Data(LIST_DATA, Rc::new(vec![v]));
        assert_eq!(cache.intern_state(None, None), NO_STATE);
        let ints = cache.intern_state(Some(&[list(RtVal::Const)]), None);
        let again = cache.intern_state(Some(&[list(RtVal::Const)]), None);
        let nested = cache.intern_state(Some(&[list(list(RtVal::Const))]), None);
        let clos = cache.intern_state(None, Some(&list(RtVal::Const)));
        let empty = cache.intern_state(Some(&[]), None);
        assert_eq!(ints, again, "equal θ, one state");
        let all = [NO_STATE, ints, nested, clos, empty];
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a, b, "distinct incoming states never alias");
            }
        }
        let (theta, c) = cache.state(nested);
        assert_eq!(theta.as_deref(), Some(&[list(list(RtVal::Const))][..]));
        assert_eq!(c, None);
        assert_eq!(cache.state(clos), (None, Some(list(RtVal::Const))));
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
            cache.eval(&t, id, &[RtVal::Const], &mut stats, EvalCx::None);
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

    // --- identity-fingerprint injectivity (the PR 8 headline bug) ---

    #[test]
    fn arrows_sharing_a_domain_rc_get_distinct_ids() {
        // Figure-3 extraction routinely rebuilds `Arrow(a, b')` around an
        // existing domain `Rc`. Keyed on `Rc::as_ptr(a)` alone these
        // collapsed to one fingerprint — a wrong memo hit that hands the
        // collector the wrong routine.
        let mut cache = RtCache::new();
        let a = Rc::new(RtVal::Const);
        let b1 = Rc::new(RtVal::Const);
        let b2 = Rc::new(RtVal::Data(LIST_DATA, Rc::new(vec![RtVal::Const])));
        let f1 = RtVal::Arrow(a.clone(), b1);
        let f2 = RtVal::Arrow(a, b2);
        assert_ne!(
            cache.identity(&f1),
            cache.identity(&f2),
            "arrows sharing a domain Rc must not alias"
        );
        let (i1, i2) = (cache.identity(&f1), cache.identity(&f2));
        assert_eq!(cache.node(i1), &f1);
        assert_eq!(cache.node(i2), &f2);
    }

    #[test]
    fn data_wrappers_sharing_a_field_rc_get_distinct_ids() {
        use tfgc_types::DataId;
        let mut cache = RtCache::new();
        let fs = Rc::new(vec![RtVal::Const]);
        let d1 = RtVal::Data(LIST_DATA, fs.clone());
        let d2 = RtVal::Data(DataId(LIST_DATA.0 + 1), fs.clone());
        let t = RtVal::Tuple(fs);
        let (i1, i2, i3) = (cache.identity(&d1), cache.identity(&d2), cache.identity(&t));
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
            cache.identity(&v1),
            cache.identity(&v2),
            "structural equality implies one fingerprint"
        );
    }

    #[test]
    fn dropped_foreign_nodes_cannot_resurrect_stale_fingerprints() {
        // ABA audit: adopt a foreign value, drop the caller's Rc, then
        // allocate many fresh values (the allocator is free to reuse the
        // dropped address). Every fingerprint must keep resolving to the
        // value it was issued for, because adoption pinned a clone in
        // `nodes` before registering any pointer key.
        let mut cache = RtCache::new();
        let mut issued: Vec<(u32, RtVal)> = Vec::new();
        for round in 0..64u32 {
            let v = RtVal::Tuple(Rc::new(vec![
                RtVal::Const,
                RtVal::Data(
                    LIST_DATA,
                    Rc::new(vec![RtVal::Ground(crate::ground::TypeRtId(round))]),
                ),
            ]));
            let id = cache.identity(&v);
            issued.push((id, v.clone()));
            drop(v); // the foreign Rc dies; the cache's pin must not
        }
        for (id, v) in &issued {
            assert_eq!(
                cache.node(*id),
                v,
                "fingerprint {id} resurrected a different value after drops"
            );
            assert_eq!(cache.identity(v), *id, "re-lookup must be stable");
        }
    }
}
