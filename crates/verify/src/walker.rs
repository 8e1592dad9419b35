//! Reachable-graph walkers.
//!
//! Two independent read-only traversals of the runtime state:
//!
//! * `TypedWalker` re-derives the collector's typed view — frame
//!   routines selected by gc_words, type-routine environments propagated
//!   oldest → newest through θ/closure plans (§3), Figure-3 path
//!   extraction, byte descriptors — directly from the public metadata,
//!   *without* the collector's cache or its mutating relocation. It
//!   checks every invariant a correct collection must preserve and
//!   renders the reachable set as a [`CanonHeap`].
//! * `TaggedWalker` walks the same roots using only tag bits and
//!   header words, exactly as `collect_tagged` would.
//!
//! Both discover objects breadth-first and enumerate payloads in layout
//! order, so a tag-free run and a tagged run of the same program at the
//! same collection produce snapshots that compare word-for-word.

use crate::canon::{CanonHeap, CanonObj, CanonWord};
use crate::RootsView;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::rc::Rc;
use tfgc_gc::bytes::{BytePool, DescView};
use tfgc_gc::desc::{DescArena, DescId};
use tfgc_gc::ground::{GroundTable, TypeRt, VariantRt};
use tfgc_gc::meta::{CalleePlan, ClosParamSrc, FnGcMeta, FrameParamSrc, GcMeta, SiteMeta};
use tfgc_gc::routines::{RoutineTable, TraceOp};
use tfgc_gc::rtval::{desc_to_rt, eval_sx, extract_path, EvalCx, RtBuildStats, RtVal};
use tfgc_gc::stack::{walk_frames, FrameInfo, FRAME_HDR};
use tfgc_gc::strategy::Strategy;
use tfgc_gc::sx::{SxId, SxTable};
use tfgc_ir::{CallSiteId, CtorRep, IrProgram};
use tfgc_runtime::{Addr, Encoding, Heap, HeapMode, Word, HEAP_BASE};
use tfgc_types::DataId;

/// A heap invariant violation found by a walker. Every variant carries
/// enough context (address, tracing origin) to localize the corruption.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// A traced pointer does not land in the current from-space — either
    /// out of heap bounds entirely or a to-space/forwarding address that
    /// survived a flip.
    NotInFromSpace { addr: u64, origin: String },
    /// An object's extent runs past the live span of from-space.
    OutOfBounds {
        addr: u64,
        size: usize,
        live_end: u64,
        origin: String,
    },
    /// The same address was reached with two different object sizes.
    SizeMismatch {
        addr: u64,
        expected: usize,
        found: usize,
    },
    /// Two reachable objects overlap.
    Overlap {
        addr: u64,
        size: usize,
        other: u64,
        other_size: usize,
    },
    /// A datatype discriminant names no variant (or a pointer was typed
    /// as an all-immediate datatype).
    BadDiscriminant {
        addr: u64,
        data: u32,
        found: u64,
        origin: String,
    },
    /// A closure's code-pointer word is not a valid function id.
    BadCodePointer {
        addr: u64,
        fn_word: u64,
        fn_count: usize,
        origin: String,
    },
    /// A descriptor word (frame slot or closure field) is not a valid
    /// descriptor-arena id.
    BadDescriptor {
        id: u64,
        arena_len: usize,
        origin: String,
    },
    /// A byte descriptor's `Param` index exceeds its environment.
    BadByteParam {
        index: u16,
        env_len: usize,
        origin: String,
    },
    /// A tenured object holds a pointer into the nursery. The
    /// generational design is barrier-free *because* this edge cannot
    /// exist (the heap is immutable and the nursery is younger than
    /// every tenured object); finding one after a collection means a
    /// minor mistraced.
    TenuredToNursery {
        from: u64,
        addr: u64,
        origin: String,
    },
    /// A frame is suspended at a site whose gc_word was omitted.
    MissingGcWord { site: u32 },
    /// A tagged object's header length word is implausible.
    BadHeader { addr: u64, len: u64, live_end: u64 },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::NotInFromSpace { addr, origin } => write!(
                f,
                "pointer {addr:#x} is not in from-space (out of bounds, or a \
                 to-space/forwarding address survived the flip) — reached tracing {origin}"
            ),
            VerifyError::OutOfBounds {
                addr,
                size,
                live_end,
                origin,
            } => write!(
                f,
                "object at {addr:#x} ({size} words) extends past the live span end \
                 {live_end:#x} — reached tracing {origin}"
            ),
            VerifyError::SizeMismatch {
                addr,
                expected,
                found,
            } => write!(
                f,
                "object at {addr:#x} reached with conflicting sizes {expected} and {found}"
            ),
            VerifyError::Overlap {
                addr,
                size,
                other,
                other_size,
            } => write!(
                f,
                "object at {addr:#x} ({size} words) overlaps object at {other:#x} \
                 ({other_size} words)"
            ),
            VerifyError::BadDiscriminant {
                addr,
                data,
                found,
                origin,
            } => write!(
                f,
                "discriminant {found} at address {addr:#x} matches no variant of \
                 datatype {data} — reached tracing {origin}"
            ),
            VerifyError::BadCodePointer {
                addr,
                fn_word,
                fn_count,
                origin,
            } => write!(
                f,
                "closure at {addr:#x} holds code pointer {fn_word} but the program has \
                 {fn_count} function(s) — reached tracing {origin}"
            ),
            VerifyError::BadDescriptor {
                id,
                arena_len,
                origin,
            } => write!(
                f,
                "descriptor word {id} exceeds the arena ({arena_len} descriptors) — \
                 reached tracing {origin}"
            ),
            VerifyError::BadByteParam {
                index,
                env_len,
                origin,
            } => write!(
                f,
                "byte descriptor parameter {index} exceeds its environment of {env_len} \
                 routine(s) — reached tracing {origin}"
            ),
            VerifyError::TenuredToNursery { from, addr, origin } => write!(
                f,
                "tenured object at {from:#x} holds pointer {addr:#x} into the nursery — \
                 the barrier-free invariant is violated — reached tracing {origin}"
            ),
            VerifyError::MissingGcWord { site } => write!(
                f,
                "frame suspended at site {site} whose gc_word was omitted"
            ),
            VerifyError::BadHeader {
                addr,
                len,
                live_end,
            } => write!(
                f,
                "tagged object at {addr:#x} has implausible header length {len} \
                 (live span ends at {live_end:#x})"
            ),
        }
    }
}

/// Summary of a successful verification walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VerifyReport {
    /// Reachable objects visited.
    pub objects: u64,
    /// Reachable payload words visited.
    pub words: u64,
}

// ---------------------------------------------------------------------
// Typed (tag-free) walker
// ---------------------------------------------------------------------

/// A tracing type, mirroring the collector's internal `WTy`.
#[derive(Debug, Clone)]
enum VTy {
    Rt(RtVal),
    Bytes { pos: u32, env: Rc<Vec<VTy>> },
}

/// How the fields of a pending datatype object are typed.
#[derive(Debug, Clone)]
enum DataFields {
    /// Ground: per-variant field routines from the ground table.
    Ground(Rc<Vec<VariantRt>>),
    /// Evaluated: per-variant field templates under the instance's
    /// argument routines.
    Rt { d: DataId, args: Rc<Vec<RtVal>> },
    /// Interpreted: per-variant field descriptors under a byte
    /// environment.
    Bytes { d: DataId, env: Rc<Vec<VTy>> },
}

/// The pointer-object shapes a typed classification can request.
enum Shape {
    Tuple(Vec<VTy>),
    Data { d: DataId, fields: DataFields },
    Closure(RtVal),
}

/// A discovered object whose fields are still to be enumerated.
enum Resolved {
    Tuple(Vec<VTy>),
    Data {
        ctor: usize,
        rep: CtorRep,
        fields: DataFields,
    },
    Closure {
        fn_id: usize,
        arrow: RtVal,
    },
}

struct QueueItem {
    idx: u32,
    addr: Addr,
    resolved: Resolved,
    origin: EvalCx,
}

struct TypedWalker<'a> {
    prog: &'a IrProgram,
    heap: &'a Heap,
    descs: &'a DescArena,
    ground: &'a mut GroundTable,
    routines: &'a RoutineTable,
    pool: &'a BytePool,
    sxs: &'a SxTable,
    sites: &'a [SiteMeta],
    fns: &'a [FnGcMeta],
    globals_meta: &'a [Option<SxId>],
    data_variants: &'a [Vec<Vec<SxId>>],
    build: RtBuildStats,
    cur: EvalCx,
    /// Address of the object whose fields are being enumerated (`None`
    /// while walking roots) — the source end of the tenured→nursery
    /// edge check.
    container: Option<Addr>,
    visited: HashMap<u64, u32>,
    extents: BTreeMap<u64, usize>,
    sizes: Vec<usize>,
    queue: VecDeque<QueueItem>,
    out: CanonHeap,
}

impl<'a> TypedWalker<'a> {
    fn new(
        meta: &'a mut GcMeta,
        prog: &'a IrProgram,
        heap: &'a Heap,
        descs: &'a DescArena,
    ) -> TypedWalker<'a> {
        assert_ne!(
            meta.strategy,
            Strategy::Tagged,
            "typed walker requires a tag-free strategy"
        );
        let GcMeta {
            ground,
            routines,
            pool,
            sxs,
            sites,
            fns,
            globals,
            data_variants,
            ..
        } = meta;
        TypedWalker {
            prog,
            heap,
            descs,
            ground,
            routines,
            pool,
            sxs,
            sites,
            fns,
            globals_meta: globals,
            data_variants,
            build: RtBuildStats::default(),
            cur: EvalCx::None,
            container: None,
            visited: HashMap::new(),
            extents: BTreeMap::new(),
            sizes: Vec::new(),
            queue: VecDeque::new(),
            out: CanonHeap::default(),
        }
    }

    fn eval(&mut self, id: SxId, env: &[RtVal]) -> RtVal {
        eval_sx(self.sxs.get(id), env, &mut self.build, self.cur)
    }

    fn eval_at(&mut self, id: SxId, env: &[RtVal], cx: EvalCx) -> RtVal {
        eval_sx(self.sxs.get(id), env, &mut self.build, cx)
    }

    fn extract(&mut self, rt: &RtVal, path: &[u16], cx: EvalCx) -> RtVal {
        extract_path(rt, path, self.prog, self.ground, cx)
    }

    /// Descriptor word → routine, with an arena bounds check (the
    /// collector trusts the word; the verifier does not).
    fn desc_checked(&mut self, raw: Word, cx: EvalCx) -> Result<RtVal, VerifyError> {
        if raw >= self.descs.len() as u64 {
            return Err(VerifyError::BadDescriptor {
                id: raw,
                arena_len: self.descs.len(),
                origin: cx.to_string(),
            });
        }
        Ok(desc_to_rt(self.descs, DescId(raw as u32), &mut self.build))
    }

    // ---- roots --------------------------------------------------------

    fn walk_roots(&mut self, roots: &RootsView) -> Result<(), VerifyError> {
        let globals_meta = self.globals_meta;
        for (i, g) in globals_meta.iter().enumerate() {
            if let Some(sx) = g {
                self.cur = EvalCx::Global(i as u32);
                let rt = self.eval(*sx, &[]);
                let cw = self.classify(roots.globals[i], &VTy::Rt(rt))?;
                self.out.roots.push(cw);
            }
        }
        let mut operand_env: Vec<RtVal> = Vec::new();
        let mut operand_site = None;
        for (ti, sv) in roots.stacks.iter().enumerate() {
            let frames = walk_frames(sv.stack, sv.top_fp, sv.current_site, self.prog);
            let mut theta: Option<Vec<RtVal>> = None;
            let mut clos: Option<RtVal> = None;
            let mut env: Vec<RtVal> = Vec::new();
            for fr in frames.iter().rev() {
                self.cur = EvalCx::Frame {
                    fn_id: fr.fn_id.0,
                    site: fr.site.0,
                };
                env = self.frame_env(fr, sv.stack, theta.as_deref(), clos.as_ref())?;
                self.trace_frame(fr, &env, sv.stack)?;
                (theta, clos) = self.eval_plan(fr.site, &env);
            }
            if ti == roots.operand_stack {
                operand_env = env;
                operand_site = Some(sv.current_site);
            }
        }
        if let Some(site) = operand_site {
            self.cur = EvalCx::Operands { site: site.0 };
            let sites = self.sites;
            let ops = &sites[site.0 as usize].operands;
            for (op, w) in ops.iter().zip(roots.operands.iter()) {
                if let Some(sx) = op {
                    let rt = self.eval(*sx, &operand_env);
                    let cw = self.classify(*w, &VTy::Rt(rt))?;
                    self.out.roots.push(cw);
                }
            }
        }
        Ok(())
    }

    fn frame_env(
        &mut self,
        fr: &FrameInfo,
        stack: &[Word],
        theta: Option<&[RtVal]>,
        clos: Option<&RtVal>,
    ) -> Result<Vec<RtVal>, VerifyError> {
        let fns = self.fns;
        let fm = &fns[fr.fn_id.0 as usize];
        let cx = EvalCx::Frame {
            fn_id: fr.fn_id.0,
            site: fr.site.0,
        };
        fm.frame_param_src
            .iter()
            .enumerate()
            .map(|(i, src)| {
                Ok(match src {
                    FrameParamSrc::Opaque => RtVal::Const,
                    FrameParamSrc::Theta => theta
                        .and_then(|t| t.get(i))
                        .cloned()
                        .unwrap_or(RtVal::Const),
                    FrameParamSrc::ArrowPath(p) => match clos {
                        Some(rt) => self.extract(rt, p, cx),
                        None => RtVal::Const,
                    },
                    FrameParamSrc::DescSlot(s) => {
                        let w = stack[fr.fp + FRAME_HDR + s.0 as usize];
                        self.desc_checked(w, cx)?
                    }
                })
            })
            .collect()
    }

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

    fn trace_frame(
        &mut self,
        fr: &FrameInfo,
        env: &[RtVal],
        stack: &[Word],
    ) -> Result<(), VerifyError> {
        let sites = self.sites;
        let rid = sites[fr.site.0 as usize]
            .routine
            .ok_or(VerifyError::MissingGcWord { site: fr.site.0 })?;
        let routines = self.routines;
        let ops = &routines.routine(rid).ops;
        for op in ops {
            let cw = match *op {
                TraceOp::Slot { slot, sx } => {
                    let rt = self.eval(sx, env);
                    let w = stack[fr.fp + FRAME_HDR + slot.0 as usize];
                    self.classify(w, &VTy::Rt(rt))?
                }
                TraceOp::SlotBytes { slot, pos } => {
                    let benv: Rc<Vec<VTy>> = Rc::new(env.iter().cloned().map(VTy::Rt).collect());
                    let w = stack[fr.fp + FRAME_HDR + slot.0 as usize];
                    self.classify(w, &VTy::Bytes { pos, env: benv })?
                }
            };
            self.out.roots.push(cw);
        }
        Ok(())
    }

    // ---- values -------------------------------------------------------

    /// Classifies one word under a tracing type: a decoded immediate, or
    /// a reference to a (newly discovered or already visited) object.
    fn classify(&mut self, w: Word, ty: &VTy) -> Result<CanonWord, VerifyError> {
        match ty {
            VTy::Rt(RtVal::Const) => Ok(CanonWord::Imm(w as i64)),
            VTy::Rt(RtVal::Ground(id)) => {
                let rt = self.ground.rt(*id).clone();
                match rt {
                    TypeRt::Prim => Ok(CanonWord::Imm(w as i64)),
                    TypeRt::Tuple(fields) => {
                        let ftys = fields.iter().map(|f| VTy::Rt(RtVal::Ground(*f))).collect();
                        self.object(w, Shape::Tuple(ftys))
                    }
                    TypeRt::Data { data, variants } => self.object(
                        w,
                        Shape::Data {
                            d: data,
                            fields: DataFields::Ground(variants),
                        },
                    ),
                    TypeRt::Arrow => self.object(w, Shape::Closure(RtVal::Ground(*id))),
                }
            }
            VTy::Rt(RtVal::Tuple(fields)) => {
                let ftys = fields.iter().cloned().map(VTy::Rt).collect();
                self.object(w, Shape::Tuple(ftys))
            }
            VTy::Rt(RtVal::Data(d, args)) => self.object(
                w,
                Shape::Data {
                    d: *d,
                    fields: DataFields::Rt {
                        d: *d,
                        args: args.clone(),
                    },
                },
            ),
            VTy::Rt(rt @ RtVal::Arrow(_, _)) => self.object(w, Shape::Closure(rt.clone())),
            VTy::Bytes { pos, env } => {
                let env = env.clone();
                let mut br = 0u64;
                match self.pool.parse(*pos, &mut br) {
                    DescView::Prim => Ok(CanonWord::Imm(w as i64)),
                    DescView::Param(i) => {
                        let sub = env.get(i as usize).cloned().ok_or_else(|| {
                            VerifyError::BadByteParam {
                                index: i,
                                env_len: env.len(),
                                origin: self.cur.to_string(),
                            }
                        })?;
                        self.classify(w, &sub)
                    }
                    DescView::Tuple(fields) => {
                        let ftys = self
                            .pool
                            .children(fields)
                            .map(|pos| VTy::Bytes {
                                pos,
                                env: env.clone(),
                            })
                            .collect();
                        self.object(w, Shape::Tuple(ftys))
                    }
                    DescView::Data(d, arg_positions) => {
                        let pool = self.pool;
                        let arg_env: Rc<Vec<VTy>> = Rc::new(
                            pool.children(arg_positions)
                                .map(|p| self.collapse(p, &env))
                                .collect::<Result<_, _>>()?,
                        );
                        self.object(
                            w,
                            Shape::Data {
                                d,
                                fields: DataFields::Bytes { d, env: arg_env },
                            },
                        )
                    }
                    DescView::Arrow(a, b) => {
                        let ra = self.vty_to_rt(&VTy::Bytes {
                            pos: a,
                            env: env.clone(),
                        })?;
                        let rb = self.vty_to_rt(&VTy::Bytes { pos: b, env })?;
                        self.object(w, Shape::Closure(RtVal::Arrow(Rc::new(ra), Rc::new(rb))))
                    }
                }
            }
        }
    }

    /// Collapses `Param` indirection chains (mirrors the collector — see
    /// its `collapse` for why this must be eager).
    fn collapse(&mut self, pos: u32, env: &Rc<Vec<VTy>>) -> Result<VTy, VerifyError> {
        let mut pos = pos;
        let mut env = env.clone();
        let mut br = 0u64;
        loop {
            match self.pool.parse(pos, &mut br) {
                DescView::Param(i) => {
                    let sub =
                        env.get(i as usize)
                            .cloned()
                            .ok_or_else(|| VerifyError::BadByteParam {
                                index: i,
                                env_len: env.len(),
                                origin: self.cur.to_string(),
                            })?;
                    match sub {
                        VTy::Bytes { pos: p, env: e } => {
                            pos = p;
                            env = e;
                        }
                        rt => return Ok(rt),
                    }
                }
                _ => return Ok(VTy::Bytes { pos, env }),
            }
        }
    }

    fn vty_to_rt(&mut self, ty: &VTy) -> Result<RtVal, VerifyError> {
        match ty {
            VTy::Rt(rt) => Ok(rt.clone()),
            VTy::Bytes { pos, env } => {
                let env = env.clone();
                let mut br = 0u64;
                match self.pool.parse(*pos, &mut br) {
                    DescView::Prim => Ok(RtVal::Const),
                    DescView::Param(i) => {
                        let sub = env.get(i as usize).cloned().ok_or_else(|| {
                            VerifyError::BadByteParam {
                                index: i,
                                env_len: env.len(),
                                origin: self.cur.to_string(),
                            }
                        })?;
                        self.vty_to_rt(&sub)
                    }
                    DescView::Tuple(fields) => {
                        let pool = self.pool;
                        let fs = pool
                            .children(fields)
                            .map(|pos| {
                                self.vty_to_rt(&VTy::Bytes {
                                    pos,
                                    env: env.clone(),
                                })
                            })
                            .collect::<Result<_, _>>()?;
                        Ok(RtVal::Tuple(Rc::new(fs)))
                    }
                    DescView::Data(d, args) => {
                        let pool = self.pool;
                        let xs = pool
                            .children(args)
                            .map(|pos| {
                                self.vty_to_rt(&VTy::Bytes {
                                    pos,
                                    env: env.clone(),
                                })
                            })
                            .collect::<Result<_, _>>()?;
                        Ok(RtVal::Data(d, Rc::new(xs)))
                    }
                    DescView::Arrow(a, b) => {
                        let ra = self.vty_to_rt(&VTy::Bytes {
                            pos: a,
                            env: env.clone(),
                        })?;
                        let rb = self.vty_to_rt(&VTy::Bytes { pos: b, env })?;
                        Ok(RtVal::Arrow(Rc::new(ra), Rc::new(rb)))
                    }
                }
            }
        }
    }

    /// Admits one pointer object: bounds/overlap checks, dedup, queueing.
    fn object(&mut self, w: Word, shape: Shape) -> Result<CanonWord, VerifyError> {
        if w < HEAP_BASE {
            return Ok(CanonWord::Imm(w as i64));
        }
        let a = Addr(w);
        // `span_of` admits exactly the regions a surviving pointer may
        // land in: tenured from-space, the eden prefix, or the occupied
        // survivor half of a generational nursery.
        let Some((_, live_end)) = self.heap.span_of(a) else {
            return Err(VerifyError::NotInFromSpace {
                addr: w,
                origin: self.cur.to_string(),
            });
        };
        if let Some(c) = self.container {
            if self.heap.in_nursery(a) && !self.heap.in_nursery(c) {
                return Err(VerifyError::TenuredToNursery {
                    from: c.0,
                    addr: w,
                    origin: self.cur.to_string(),
                });
            }
        }
        let (size, resolved) = match shape {
            Shape::Tuple(ftys) => (ftys.len(), Resolved::Tuple(ftys)),
            Shape::Data { d, fields } => {
                let (ctor, rep) = self.resolve_ctor(a, w, d)?;
                (rep.heap_words(), Resolved::Data { ctor, rep, fields })
            }
            Shape::Closure(arrow) => {
                let fw = self.heap.read(a, 0);
                if fw >= self.fns.len() as u64 {
                    return Err(VerifyError::BadCodePointer {
                        addr: w,
                        fn_word: fw,
                        fn_count: self.fns.len(),
                        origin: self.cur.to_string(),
                    });
                }
                (
                    self.fns[fw as usize].closure_size as usize,
                    Resolved::Closure {
                        fn_id: fw as usize,
                        arrow,
                    },
                )
            }
        };
        if let Some(&idx) = self.visited.get(&a.0) {
            let known = self.sizes[idx as usize];
            if known != size {
                return Err(VerifyError::SizeMismatch {
                    addr: a.0,
                    expected: known,
                    found: size,
                });
            }
            return Ok(CanonWord::Ref(idx));
        }
        if a.0 + size as u64 > live_end {
            return Err(VerifyError::OutOfBounds {
                addr: a.0,
                size,
                live_end,
                origin: self.cur.to_string(),
            });
        }
        check_overlap(&self.extents, a.0, size)?;
        let idx = self.out.objects.len() as u32;
        self.out.objects.push(CanonObj::default());
        self.sizes.push(size);
        self.visited.insert(a.0, idx);
        self.extents.insert(a.0, size);
        self.queue.push_back(QueueItem {
            idx,
            addr: a,
            resolved,
            origin: self.cur,
        });
        Ok(CanonWord::Ref(idx))
    }

    fn resolve_ctor(
        &mut self,
        a: Addr,
        w: Word,
        d: DataId,
    ) -> Result<(usize, CtorRep), VerifyError> {
        let prog = self.prog;
        let reps = &prog.ctor_reps[d.0 as usize];
        let ctor = if reps
            .iter()
            .any(|r| matches!(r, CtorRep::Ptr { tag: Some(_), .. }))
        {
            let t = self.heap.read(a, 0) as u32;
            reps.iter()
                .position(|r| matches!(r, CtorRep::Ptr { tag: Some(tag), .. } if tag == &t))
                .ok_or_else(|| VerifyError::BadDiscriminant {
                    addr: a.0,
                    data: d.0,
                    found: self.heap.read(a, 0),
                    origin: self.cur.to_string(),
                })?
        } else {
            reps.iter()
                .position(|r| matches!(r, CtorRep::Ptr { .. }))
                .ok_or_else(|| VerifyError::BadDiscriminant {
                    addr: a.0,
                    data: d.0,
                    found: w,
                    origin: self.cur.to_string(),
                })?
        };
        Ok((ctor, reps[ctor]))
    }

    fn drain(&mut self) -> Result<(), VerifyError> {
        while let Some(item) = self.queue.pop_front() {
            self.cur = item.origin;
            let addr = item.addr;
            self.container = Some(addr);
            let fields = match item.resolved {
                Resolved::Tuple(ftys) => {
                    let mut out = Vec::with_capacity(ftys.len());
                    for (i, fty) in ftys.iter().enumerate() {
                        let w = self.heap.read(addr, i as u16);
                        out.push(self.classify(w, fty)?);
                    }
                    out
                }
                Resolved::Data { ctor, rep, fields } => {
                    let size = rep.heap_words();
                    let mut out = vec![CanonWord::Imm(0); size];
                    if matches!(rep, CtorRep::Ptr { tag: Some(_), .. }) {
                        out[0] = CanonWord::Imm(self.heap.read(addr, 0) as i64);
                    }
                    let ftys: Vec<VTy> = match &fields {
                        DataFields::Ground(variants) => variants[ctor]
                            .fields
                            .iter()
                            .map(|f| VTy::Rt(RtVal::Ground(*f)))
                            .collect(),
                        DataFields::Rt { d, args } => {
                            let dv = self.data_variants;
                            let templates = &dv[d.0 as usize][ctor];
                            let args = args.clone();
                            let cx = EvalCx::Data(d.0);
                            templates
                                .iter()
                                .map(|sx| VTy::Rt(self.eval_at(*sx, &args, cx)))
                                .collect()
                        }
                        DataFields::Bytes { d, env } => {
                            let pool = self.pool;
                            pool.data_fields[d.0 as usize][ctor]
                                .iter()
                                .map(|p| VTy::Bytes {
                                    pos: *p,
                                    env: env.clone(),
                                })
                                .collect()
                        }
                    };
                    for (i, fty) in ftys.iter().enumerate() {
                        let off = rep.field_offset(i as u16);
                        let w = self.heap.read(addr, off);
                        out[off as usize] = self.classify(w, fty)?;
                    }
                    out
                }
                Resolved::Closure { fn_id, arrow } => {
                    let fns = self.fns;
                    let fm = &fns[fn_id];
                    let size = fm.closure_size as usize;
                    let cx = EvalCx::Closure {
                        fn_id: fn_id as u32,
                    };
                    let mut env: Vec<RtVal> = Vec::with_capacity(fm.closure_param_src.len());
                    for src in &fm.closure_param_src {
                        let rt = match src {
                            ClosParamSrc::Opaque => RtVal::Const,
                            ClosParamSrc::Path(p) => self.extract(&arrow, p, cx),
                            ClosParamSrc::DescField(off) => {
                                let dw = self.heap.read(addr, *off);
                                self.desc_checked(dw, cx)?
                            }
                        };
                        env.push(rt);
                    }
                    let mut typed: Vec<Option<RtVal>> = vec![None; size];
                    for (off, sx) in &fm.closure_fields {
                        typed[*off as usize] = Some(self.eval_at(*sx, &env, cx));
                    }
                    let mut out = Vec::with_capacity(size);
                    out.push(CanonWord::Imm(fn_id as i64));
                    for (off, slot) in typed.iter().enumerate().skip(1) {
                        let w = self.heap.read(addr, off as u16);
                        out.push(match slot {
                            Some(rt) => self.classify(w, &VTy::Rt(rt.clone()))?,
                            // Untraced capture words (primitives, opaque
                            // descriptor ids) are payload in both
                            // encodings: decode raw.
                            None => CanonWord::Imm(w as i64),
                        });
                    }
                    out
                }
            };
            self.out.objects[item.idx as usize].fields = fields;
        }
        Ok(())
    }
}

/// Shared overlap check against previously admitted extents.
fn check_overlap(
    extents: &BTreeMap<u64, usize>,
    addr: u64,
    size: usize,
) -> Result<(), VerifyError> {
    if let Some((&pa, &ps)) = extents.range(..=addr).next_back() {
        if pa + ps as u64 > addr {
            return Err(VerifyError::Overlap {
                addr,
                size,
                other: pa,
                other_size: ps,
            });
        }
    }
    if let Some((&na, &ns)) = extents.range(addr + 1..).next() {
        if addr + size as u64 > na {
            return Err(VerifyError::Overlap {
                addr,
                size,
                other: na,
                other_size: ns,
            });
        }
    }
    Ok(())
}

/// Walks the reachable graph of a tag-free heap from the collector's own
/// roots, returning a canonical snapshot. Fails on any heap-invariant
/// violation. `meta` is only mutated through its ground-type table
/// (Figure-3 extraction may intern new ground routines).
pub fn snapshot_tagfree(
    meta: &mut GcMeta,
    prog: &IrProgram,
    heap: &Heap,
    descs: &DescArena,
    roots: &RootsView,
) -> Result<CanonHeap, VerifyError> {
    let mut w = TypedWalker::new(meta, prog, heap, descs);
    w.walk_roots(roots)?;
    w.drain()?;
    Ok(w.out)
}

/// Post-collection heap verification for tag-free strategies: the
/// snapshot walk with the canonical output discarded.
pub fn verify_tagfree(
    meta: &mut GcMeta,
    prog: &IrProgram,
    heap: &Heap,
    descs: &DescArena,
    roots: &RootsView,
) -> Result<VerifyReport, VerifyError> {
    let h = snapshot_tagfree(meta, prog, heap, descs, roots)?;
    Ok(VerifyReport {
        objects: h.objects.len() as u64,
        words: h.words(),
    })
}

// ---------------------------------------------------------------------
// Tagged walker
// ---------------------------------------------------------------------

struct TaggedWalker<'a> {
    prog: &'a IrProgram,
    heap: &'a Heap,
    enc: Encoding,
    /// Source object of the fields being enumerated (see `TypedWalker`).
    container: Option<Addr>,
    visited: HashMap<u64, u32>,
    extents: BTreeMap<u64, usize>,
    queue: VecDeque<(u32, Addr, usize)>,
    out: CanonHeap,
}

impl<'a> TaggedWalker<'a> {
    fn new(prog: &'a IrProgram, heap: &'a Heap) -> TaggedWalker<'a> {
        TaggedWalker {
            prog,
            heap,
            enc: Encoding::new(HeapMode::Tagged),
            container: None,
            visited: HashMap::new(),
            extents: BTreeMap::new(),
            queue: VecDeque::new(),
            out: CanonHeap::default(),
        }
    }

    fn classify(&mut self, w: Word) -> Result<CanonWord, VerifyError> {
        if !self.enc.is_tagged_ptr(w) {
            return Ok(CanonWord::Imm(self.enc.int_of(w)));
        }
        let a = self.enc.addr_of(w);
        let Some((_, live_end)) = self.heap.span_of(a) else {
            return Err(VerifyError::NotInFromSpace {
                addr: a.0,
                origin: "tagged walk".to_string(),
            });
        };
        if let Some(c) = self.container {
            if self.heap.in_nursery(a) && !self.heap.in_nursery(c) {
                return Err(VerifyError::TenuredToNursery {
                    from: c.0,
                    addr: a.0,
                    origin: "tagged walk".to_string(),
                });
            }
        }
        if let Some(&idx) = self.visited.get(&a.0) {
            return Ok(CanonWord::Ref(idx));
        }
        let len = self.heap.read(a, 0);
        if len >= (1 << 16) || a.0 + 1 + len > live_end {
            return Err(VerifyError::BadHeader {
                addr: a.0,
                len,
                live_end,
            });
        }
        check_overlap(&self.extents, a.0, len as usize + 1)?;
        let idx = self.out.objects.len() as u32;
        self.out.objects.push(CanonObj::default());
        self.visited.insert(a.0, idx);
        self.extents.insert(a.0, len as usize + 1);
        self.queue.push_back((idx, a, len as usize));
        Ok(CanonWord::Ref(idx))
    }

    fn drain(&mut self) -> Result<(), VerifyError> {
        while let Some((idx, a, len)) = self.queue.pop_front() {
            self.container = Some(a);
            let mut fields = Vec::with_capacity(len);
            for i in 0..len {
                let w = self.heap.read(a, (i + 1) as u16);
                fields.push(self.classify(w)?);
            }
            self.out.objects[idx as usize].fields = fields;
        }
        Ok(())
    }

    /// Roots restricted to the slots a tag-free strategy's metadata would
    /// trace (the differential-oracle root set).
    fn walk_roots_meta(&mut self, meta: &GcMeta, roots: &RootsView) -> Result<(), VerifyError> {
        for (i, g) in meta.globals.iter().enumerate() {
            if g.is_some() {
                let cw = self.classify(roots.globals[i])?;
                self.out.roots.push(cw);
            }
        }
        for sv in &roots.stacks {
            let frames = walk_frames(sv.stack, sv.top_fp, sv.current_site, self.prog);
            for fr in frames.iter().rev() {
                let rid = meta.sites[fr.site.0 as usize]
                    .routine
                    .ok_or(VerifyError::MissingGcWord { site: fr.site.0 })?;
                for op in &meta.routines.routine(rid).ops {
                    let slot = match op {
                        TraceOp::Slot { slot, .. } | TraceOp::SlotBytes { slot, .. } => *slot,
                    };
                    let cw = self.classify(sv.stack[fr.fp + FRAME_HDR + slot.0 as usize])?;
                    self.out.roots.push(cw);
                }
            }
        }
        if let Some(sv) = roots.stacks.get(roots.operand_stack) {
            let ops = &meta.sites[sv.current_site.0 as usize].operands;
            for (op, w) in ops.iter().zip(roots.operands.iter()) {
                if op.is_some() {
                    let cw = self.classify(*w)?;
                    self.out.roots.push(cw);
                }
            }
        }
        Ok(())
    }

    /// Every slot of every frame plus all globals and operands — exactly
    /// the root set `collect_tagged` traces.
    fn walk_roots_all(&mut self, roots: &RootsView) -> Result<(), VerifyError> {
        for w in roots.globals {
            let cw = self.classify(*w)?;
            self.out.roots.push(cw);
        }
        for sv in &roots.stacks {
            let frames = walk_frames(sv.stack, sv.top_fp, sv.current_site, self.prog);
            for fr in frames.iter().rev() {
                let slots = self.prog.fun(fr.fn_id).slots.len();
                for i in 0..slots {
                    let cw = self.classify(sv.stack[fr.fp + FRAME_HDR + i])?;
                    self.out.roots.push(cw);
                }
            }
        }
        for w in roots.operands {
            let cw = self.classify(*w)?;
            self.out.roots.push(cw);
        }
        Ok(())
    }
}

/// Walks a tagged heap from the root slots `root_meta` (a *tag-free*
/// strategy's metadata) would trace, using only tag bits and headers.
/// This is the oracle side of the differential check: same roots, no
/// type information.
pub fn snapshot_tagged(
    root_meta: &GcMeta,
    prog: &IrProgram,
    heap: &Heap,
    roots: &RootsView,
) -> Result<CanonHeap, VerifyError> {
    let mut w = TaggedWalker::new(prog, heap);
    w.walk_roots_meta(root_meta, roots)?;
    w.drain()?;
    Ok(w.out)
}

/// Post-collection heap verification for the tagged strategy: walk every
/// slot/global/operand by tags and headers, checking bounds and overlap.
pub fn verify_tagged(
    prog: &IrProgram,
    heap: &Heap,
    roots: &RootsView,
) -> Result<VerifyReport, VerifyError> {
    let mut w = TaggedWalker::new(prog, heap);
    w.walk_roots_all(roots)?;
    w.drain()?;
    Ok(VerifyReport {
        objects: w.out.objects.len() as u64,
        words: w.out.words(),
    })
}
