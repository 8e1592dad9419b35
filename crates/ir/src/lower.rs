//! Lowering from the typed AST to bytecode.
//!
//! Responsibilities:
//!
//! * **Closure conversion / lambda lifting.** `let fun`s become direct
//!   functions with their free variables appended as extra parameters;
//!   lambdas become closure-entered functions whose environment is unpacked
//!   at entry; partially applied or first-class uses of direct functions go
//!   through generated curry wrappers.
//! * **Pattern compilation.** `case` arms compile to discriminant tests
//!   (§2.3), field loads, and branches.
//! * **Call-site bookkeeping.** Every call/allocation instruction registers
//!   a [`CallSite`]; direct sites record the static instantiation θ of the
//!   callee's frame parameters — what the caller's frame GC routine
//!   evaluates at collection time (§3).
//! * **Hidden descriptor plumbing** (see [`crate::rtti`]): lowering runs
//!   twice; the first pass produces the call/creation graph, the fixpoint
//!   decides which functions carry runtime type descriptors, and the second
//!   pass emits `EvalDesc` instructions and descriptor fields.
//!
//! Both passes borrow the typed program. They resolve variables by name,
//! which is exact because `elaborate` leaves every binder with a unique
//! name (see `tfgc_types::alpha`).

use crate::instr::*;
use crate::program::*;
use crate::rtti::{Creation, RttiInfo};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use tfgc_syntax::Span;
use tfgc_types::{
    ParamId, SchemeId, TExpr, TExprKind, TFun, TLetBind, TPat, TPatKind, TProgram, Type,
};

/// An error produced during lowering (capacity limits or internal
/// invariant violations surfaced as errors rather than panics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LowerError {
    pub span: Span,
    pub message: String,
}

impl LowerError {
    fn new(span: Span, message: impl Into<String>) -> Self {
        LowerError {
            span,
            message: message.into(),
        }
    }
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lowering error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for LowerError {}

/// Result alias for lowering.
pub type LowerResult<T> = Result<T, LowerError>;

const DUMMY_SCHEME: SchemeId = SchemeId(u32::MAX);

/// Lowers a typed program to bytecode (two-pass; see module docs).
///
/// # Errors
///
/// Returns a [`LowerError`] on capacity limits (too many slots) or
/// internal invariant violations.
pub fn lower(tp: &TProgram) -> LowerResult<IrProgram> {
    Ok(lower_full(tp)?.0)
}

/// Like [`lower`], also returning the RTTI analysis (for experiment
/// metrics). `tp` must come from `elaborate`, whose binder names are
/// unique.
pub fn lower_full(tp: &TProgram) -> LowerResult<(IrProgram, RttiInfo)> {
    debug_assert!(
        tfgc_types::binders_unique(tp),
        "lowering resolves names and needs `elaborate`'s unique binders"
    );
    let opaque = collect_opaque_schemes(tp);
    let (p1, creations) = Lowerer::new(tp, None, &opaque).run()?;
    let rtti = RttiInfo::compute(&p1, &creations, &opaque);
    let (p2, _) = Lowerer::new(tp, Some(&rtti), &opaque).run()?;
    debug_assert_eq!(p2.validate(), Ok(()));
    Ok((p2, rtti))
}

/// Schemes whose parameters are *locally quantified values* (generalized
/// `val` bindings and globals): by parametricity no reachable heap value
/// sits at such a parameter's type, so GC treats them as opaque.
fn collect_opaque_schemes(tp: &TProgram) -> HashSet<SchemeId> {
    fn walk(e: &TExpr, out: &mut HashSet<SchemeId>) {
        match &e.kind {
            TExprKind::Let { binds, body } => {
                for b in binds {
                    match b {
                        TLetBind::Val { rhs, scheme, .. } => {
                            if let Some(s) = scheme {
                                out.insert(s.id);
                            }
                            walk(rhs, out);
                        }
                        TLetBind::Fun(funs) => {
                            for f in funs {
                                walk(&f.body, out);
                            }
                        }
                    }
                }
                walk(body, out);
            }
            TExprKind::Tuple(es) | TExprKind::Ctor { args: es, .. } => {
                for x in es {
                    walk(x, out);
                }
            }
            TExprKind::Proj { tuple, .. } => walk(tuple, out),
            TExprKind::App { f, arg } => {
                walk(f, out);
                walk(arg, out);
            }
            TExprKind::BinOp { lhs, rhs, .. } => {
                walk(lhs, out);
                walk(rhs, out);
            }
            TExprKind::UnOp { operand, .. } => walk(operand, out),
            TExprKind::If { cond, then, els } => {
                walk(cond, out);
                walk(then, out);
                walk(els, out);
            }
            TExprKind::Case { scrut, arms } => {
                walk(scrut, out);
                for a in arms {
                    walk(&a.body, out);
                }
            }
            TExprKind::Lambda { body, .. } => walk(body, out),
            TExprKind::Seq(a, b) => {
                walk(a, out);
                walk(b, out);
            }
            _ => {}
        }
    }
    let mut out = HashSet::new();
    for g in &tp.globals {
        out.insert(g.scheme.id);
    }
    for f in &tp.funs {
        walk(&f.body, &mut out);
    }
    for g in &tp.globals {
        walk(&g.init, &mut out);
    }
    walk(&tp.main, &mut out);
    out
}

/// Per-function metadata available before the body is compiled.
#[derive(Debug, Clone)]
struct FnMeta {
    scheme_id: SchemeId,
    scheme_params: u32,
    user_arity: u16,
    /// User-visible parameter types, over the scheme's parameters.
    user_param_tys: Vec<Type>,
    ret_ty: Type,
    /// Lifted free variables (`let fun` only): unique names + types.
    extras: Vec<(String, Type)>,
}

/// Where a name resolves during lowering.
#[derive(Debug, Clone, Copy)]
enum Loc {
    Global(GlobalId),
    Fun(FnId),
}

struct Lowerer<'a> {
    tp: &'a TProgram,
    rtti: Option<&'a RttiInfo>,
    opaque: &'a HashSet<SchemeId>,
    ctor_reps: Vec<Vec<CtorRep>>,
    funs: Vec<Option<IrFun>>,
    metas: Vec<FnMeta>,
    sites: Vec<CallSite>,
    /// (creator, target, scheme instantiation) — expanded in `finalize`.
    raw_creations: Vec<(FnId, FnId, Vec<Type>)>,
    desc_templates: Vec<Type>,
    desc_index: HashMap<Type, DescTemplateId>,
    globals: Vec<GlobalInfo>,
    global_locs: HashMap<String, Loc>,
    wrappers: HashMap<(FnId, u16), FnId>,
    print_fn: Option<FnId>,
}

/// Builder for one function's code.
struct Fb {
    id: FnId,
    name: String,
    kind: FnKind,
    code: Vec<Instr>,
    slots: Vec<SlotTy>,
    n_params: u16,
    locals: HashMap<String, Slot>,
    labels: Vec<Option<u32>>,
    /// (pc, label) pairs to patch.
    patches: Vec<(usize, u32)>,
    desc_map: Vec<(ParamId, Slot)>,
    arrow_ty: Type,
    captures: Vec<SlotTy>,
    desc_fields: Vec<ParamId>,
    ret_ty: Type,
    span: Span,
}

impl Fb {
    fn new(id: FnId, name: String, kind: FnKind, arrow_ty: Type, ret_ty: Type, span: Span) -> Fb {
        Fb {
            id,
            name,
            kind,
            code: Vec::new(),
            slots: Vec::new(),
            n_params: 0,
            locals: HashMap::new(),
            labels: Vec::new(),
            patches: Vec::new(),
            desc_map: Vec::new(),
            arrow_ty,
            captures: Vec::new(),
            desc_fields: Vec::new(),
            ret_ty,
            span,
        }
    }

    fn new_slot(&mut self, ty: SlotTy) -> LowerResult<Slot> {
        if self.slots.len() >= u16::MAX as usize {
            return Err(LowerError::new(
                self.span,
                format!("function `{}` needs too many frame slots", self.name),
            ));
        }
        let s = Slot(self.slots.len() as u16);
        self.slots.push(ty);
        Ok(s)
    }

    fn val_slot(&mut self, ty: Type) -> LowerResult<Slot> {
        self.new_slot(SlotTy::Val(ty))
    }

    fn emit(&mut self, i: Instr) -> usize {
        self.code.push(i);
        self.code.len() - 1
    }

    fn new_label(&mut self) -> u32 {
        self.labels.push(None);
        (self.labels.len() - 1) as u32
    }

    fn bind_label(&mut self, l: u32) {
        debug_assert!(self.labels[l as usize].is_none(), "label bound twice");
        self.labels[l as usize] = Some(self.code.len() as u32);
    }

    fn emit_jump(&mut self, l: u32) {
        let pc = self.emit(Instr::Jump(0));
        self.patches.push((pc, l));
    }

    fn emit_branch_false(&mut self, s: Slot, l: u32) {
        let pc = self.emit(Instr::BranchFalse(s, 0));
        self.patches.push((pc, l));
    }

    fn emit_branch_int_ne(&mut self, s: Slot, imm: i64, l: u32) {
        let pc = self.emit(Instr::BranchIntNe(s, imm, 0));
        self.patches.push((pc, l));
    }

    fn emit_branch_tag_ne(&mut self, obj: Slot, data: tfgc_types::DataId, ctor: u32, l: u32) {
        let pc = self.emit(Instr::BranchTagNe {
            obj,
            data,
            ctor,
            target: 0,
        });
        self.patches.push((pc, l));
    }

    /// The slot bound to `name`, if local.
    fn local(&self, name: &str) -> Option<Slot> {
        self.locals.get(name).copied()
    }

    fn slot_val_ty(&self, s: Slot) -> LowerResult<Type> {
        match &self.slots[s.0 as usize] {
            SlotTy::Val(t) => Ok(t.clone()),
            SlotTy::Desc => Err(LowerError::new(
                self.span,
                "internal error: expected value slot, found descriptor slot",
            )),
        }
    }

    /// Patches labels; the caller assembles the final `IrFun`.
    fn patch(&mut self) -> LowerResult<()> {
        for (pc, l) in std::mem::take(&mut self.patches) {
            let target = self.labels[l as usize]
                .ok_or_else(|| LowerError::new(self.span, "internal error: unbound label"))?;
            match &mut self.code[pc] {
                Instr::Jump(t)
                | Instr::BranchFalse(_, t)
                | Instr::BranchIntNe(_, _, t)
                | Instr::BranchTagNe { target: t, .. } => *t = target,
                other => {
                    return Err(LowerError::new(
                        self.span,
                        format!("internal error: patching non-branch {other:?}"),
                    ))
                }
            }
        }
        Ok(())
    }
}

impl<'a> Lowerer<'a> {
    fn new(tp: &'a TProgram, rtti: Option<&'a RttiInfo>, opaque: &'a HashSet<SchemeId>) -> Self {
        Lowerer {
            tp,
            rtti,
            opaque,
            ctor_reps: compute_ctor_reps(&tp.data_env),
            funs: Vec::new(),
            metas: Vec::new(),
            sites: Vec::new(),
            raw_creations: Vec::new(),
            desc_templates: Vec::new(),
            desc_index: HashMap::new(),
            globals: Vec::new(),
            global_locs: HashMap::new(),
            wrappers: HashMap::new(),
            print_fn: None,
        }
    }

    fn reserve(&mut self, meta: FnMeta) -> FnId {
        let id = FnId(self.funs.len() as u32);
        self.funs.push(None);
        self.metas.push(meta);
        id
    }

    /// Hidden descriptor fields/arguments of `f` per the RTTI analysis
    /// (empty in pass 1).
    fn desc_fields_of(&self, f: FnId) -> Vec<ParamId> {
        match self.rtti {
            Some(r) => r.desc_fields[f.0 as usize].clone(),
            None => Vec::new(),
        }
    }

    fn intern_template(&mut self, ty: Type) -> DescTemplateId {
        if let Some(id) = self.desc_index.get(&ty) {
            return *id;
        }
        let id = DescTemplateId(self.desc_templates.len() as u32);
        self.desc_templates.push(ty.clone());
        self.desc_index.insert(ty, id);
        id
    }

    fn run(mut self) -> LowerResult<(IrProgram, Vec<Creation>)> {
        let tp = self.tp;
        // Reserve ids: top funs, then main; everything else is discovered.
        for f in &tp.funs {
            let id = self.reserve(FnMeta {
                scheme_id: f.scheme.id,
                scheme_params: f.scheme.num_params,
                user_arity: f.params.len() as u16,
                user_param_tys: f.params.iter().map(|(_, t)| t.clone()).collect(),
                ret_ty: f.ret.clone(),
                extras: Vec::new(),
            });
            self.global_locs.insert(f.name.clone(), Loc::Fun(id));
        }
        let main_id = self.reserve(FnMeta {
            scheme_id: DUMMY_SCHEME,
            scheme_params: 0,
            user_arity: 0,
            user_param_tys: Vec::new(),
            ret_ty: tp.main.ty.clone(),
            extras: Vec::new(),
        });
        for (i, g) in tp.globals.iter().enumerate() {
            self.globals.push(GlobalInfo {
                name: g.name.clone(),
                ty: g.scheme.ty.clone(),
            });
            self.global_locs
                .insert(g.name.clone(), Loc::Global(GlobalId(i as u32)));
        }

        // Compile top-level function bodies.
        for (i, f) in tp.funs.iter().enumerate() {
            let fun = self.compile_direct(FnId(i as u32), f, &[])?;
            self.funs[i] = Some(fun);
        }

        // Compile main: global initializers then the main expression.
        {
            let main_ty = tp.main.ty.clone();
            let mut fb = Fb::new(
                main_id,
                "main".to_string(),
                FnKind::Direct,
                main_ty.clone(),
                main_ty,
                tp.main.span,
            );
            for (i, g) in tp.globals.iter().enumerate() {
                let r = self.lower_expr(&mut fb, &g.init)?;
                fb.emit(Instr::StoreGlobal(GlobalId(i as u32), r));
            }
            let r = self.lower_expr(&mut fb, &tp.main)?;
            fb.emit(Instr::Return(r));
            let fun = self.finish_fun(fb)?;
            self.funs[main_id.0 as usize] = Some(fun);
        }

        self.finalize(main_id)
    }

    /// Compiles a direct (named) function: top-level, or `let fun` with
    /// `extras` lifted parameters.
    fn compile_direct(
        &mut self,
        id: FnId,
        f: &TFun,
        extras: &[(String, Type)],
    ) -> LowerResult<IrFun> {
        let arrow = Type::arrow_n(f.params.iter().map(|(_, t)| t.clone()), f.ret.clone());
        let mut fb = Fb::new(
            id,
            f.name.clone(),
            FnKind::Direct,
            arrow,
            f.ret.clone(),
            f.span,
        );
        for (name, ty) in &f.params {
            let s = fb.val_slot(ty.clone())?;
            fb.locals.insert(name.clone(), s);
        }
        for (name, ty) in extras {
            let s = fb.val_slot(ty.clone())?;
            fb.locals.insert(name.clone(), s);
        }
        let descs = self.desc_fields_of(id);
        for q in &descs {
            let s = fb.new_slot(SlotTy::Desc)?;
            fb.desc_map.push((*q, s));
        }
        fb.n_params = fb.slots.len() as u16;
        fb.desc_fields = descs;
        let r = self.lower_expr(&mut fb, &f.body)?;
        fb.emit(Instr::Return(r));
        self.finish_fun(fb)
    }

    /// Assembles an `IrFun` from a finished builder: patch jumps, compute
    /// frame params and their GC-time sources.
    fn finish_fun(&mut self, mut fb: Fb) -> LowerResult<IrFun> {
        fb.patch()?;
        let mut params: BTreeSet<ParamId> = BTreeSet::new();
        for s in &fb.slots {
            if let SlotTy::Val(t) = s {
                t.params(&mut params);
            }
        }
        let frame_params: Vec<ParamId> = params.into_iter().collect();
        let mut param_source = Vec::with_capacity(frame_params.len());
        for q in &frame_params {
            let src = if self.opaque.contains(&q.scheme) {
                ParamSource::Opaque
            } else if fb.kind == FnKind::Direct {
                ParamSource::CallerTheta
            } else if let Some(path) = find_param_path(&fb.arrow_ty, *q) {
                ParamSource::ArrowPath(path)
            } else if let Some((_, s)) = fb.desc_map.iter().find(|(p, _)| p == q) {
                ParamSource::DescSlot(*s)
            } else if self.rtti.is_none() {
                // Pass 1: sources are recomputed in pass 2.
                ParamSource::CallerTheta
            } else {
                return Err(LowerError::new(
                    fb.span,
                    format!(
                        "internal error: no GC source for parameter of `{}`",
                        fb.name
                    ),
                ));
            };
            param_source.push(src);
        }
        Ok(IrFun {
            name: fb.name,
            kind: fb.kind,
            code: fb.code,
            slots: fb.slots,
            n_params: fb.n_params,
            frame_params,
            param_source,
            arrow_ty: fb.arrow_ty,
            captures: fb.captures,
            desc_fields: fb.desc_fields,
            desc_param_slots: fb.desc_map,
            ret_ty: fb.ret_ty,
            span: fb.span,
        })
    }

    fn new_site(&mut self, fb: &Fb, kind: SiteKind) -> CallSiteId {
        let id = CallSiteId(self.sites.len() as u32);
        self.sites.push(CallSite {
            id,
            fn_id: fb.id,
            pc: fb.code.len() as u32,
            kind,
        });
        id
    }

    /// Emits `EvalDesc` instructions for each parameter in `fields`,
    /// instantiated through `expand`. Returns the descriptor slots.
    fn emit_desc_args(
        &mut self,
        fb: &mut Fb,
        fields: &[ParamId],
        scheme: SchemeId,
        inst: &[Type],
    ) -> LowerResult<Vec<Slot>> {
        let mut out = Vec::with_capacity(fields.len());
        for q in fields {
            let ty = expand_inst(*q, scheme, inst);
            let template = self.intern_template(ty);
            let dst = fb.new_slot(SlotTy::Desc)?;
            fb.emit(Instr::EvalDesc { dst, template });
            out.push(dst);
        }
        Ok(out)
    }

    // ---- expressions ---------------------------------------------------

    fn lower_expr(&mut self, fb: &mut Fb, e: &TExpr) -> LowerResult<Slot> {
        match &e.kind {
            TExprKind::Int(n) => {
                let d = fb.val_slot(Type::Int)?;
                fb.emit(Instr::LoadInt(d, *n));
                Ok(d)
            }
            TExprKind::Bool(b) => {
                let d = fb.val_slot(Type::Bool)?;
                fb.emit(Instr::LoadBool(d, *b));
                Ok(d)
            }
            TExprKind::Unit => {
                let d = fb.val_slot(Type::Unit)?;
                fb.emit(Instr::LoadUnit(d));
                Ok(d)
            }
            TExprKind::Var { name, inst, .. } => {
                if let Some(s) = fb.local(name) {
                    return Ok(s);
                }
                match self.global_locs.get(name).copied() {
                    Some(Loc::Global(g)) => {
                        let d = fb.val_slot(e.ty.clone())?;
                        fb.emit(Instr::LoadGlobal(d, g));
                        Ok(d)
                    }
                    Some(Loc::Fun(g)) => {
                        let inst = inst.clone().unwrap_or_default();
                        self.make_fn_value(fb, g, &inst, &e.ty)
                    }
                    None if name == "print" => {
                        let pf = self.get_print_fn()?;
                        self.make_fn_value(fb, pf, &[], &e.ty)
                    }
                    _ => Err(LowerError::new(
                        e.span,
                        format!("internal error: unresolved variable `{name}`"),
                    )),
                }
            }
            TExprKind::Tuple(es) => {
                let mut elems = Vec::with_capacity(es.len());
                for x in es {
                    elems.push(self.lower_expr(fb, x)?);
                }
                let operand_tys = es.iter().map(|x| SlotTy::Val(x.ty.clone())).collect();
                let d = fb.val_slot(e.ty.clone())?;
                let site = self.new_site(fb, SiteKind::Alloc { operand_tys });
                fb.emit(Instr::MakeTuple {
                    dst: d,
                    elems,
                    site,
                });
                Ok(d)
            }
            TExprKind::Ctor { data, tag, args } => {
                let rep = self.ctor_reps[data.0 as usize][*tag as usize];
                match rep {
                    CtorRep::Imm(k) => {
                        let d = fb.val_slot(e.ty.clone())?;
                        fb.emit(Instr::LoadInt(d, k as i64));
                        Ok(d)
                    }
                    CtorRep::Ptr { .. } => {
                        let mut fields = Vec::with_capacity(args.len());
                        for a in args {
                            fields.push(self.lower_expr(fb, a)?);
                        }
                        let operand_tys = args.iter().map(|a| SlotTy::Val(a.ty.clone())).collect();
                        let d = fb.val_slot(e.ty.clone())?;
                        let site = self.new_site(fb, SiteKind::Alloc { operand_tys });
                        fb.emit(Instr::MakeData {
                            dst: d,
                            data: *data,
                            ctor: *tag,
                            fields,
                            site,
                        });
                        Ok(d)
                    }
                }
            }
            TExprKind::Proj { tuple, index } => {
                let t = self.lower_expr(fb, tuple)?;
                let d = fb.val_slot(e.ty.clone())?;
                fb.emit(Instr::GetField(d, t, *index as u16));
                Ok(d)
            }
            TExprKind::App { .. } => self.lower_app(fb, e),
            TExprKind::BinOp { op, lhs, rhs } => {
                let a = self.lower_expr(fb, lhs)?;
                let b = self.lower_expr(fb, rhs)?;
                let d = fb.val_slot(e.ty.clone())?;
                use tfgc_syntax::BinOp as B;
                let instr = match op {
                    B::Add => Instr::Arith(d, ArithOp::Add, a, b),
                    B::Sub => Instr::Arith(d, ArithOp::Sub, a, b),
                    B::Mul => Instr::Arith(d, ArithOp::Mul, a, b),
                    B::Div => Instr::Arith(d, ArithOp::Div, a, b),
                    B::Mod => Instr::Arith(d, ArithOp::Mod, a, b),
                    B::Eq => Instr::Cmp(d, CmpOp::Eq, a, b),
                    B::NotEq => Instr::Cmp(d, CmpOp::Ne, a, b),
                    B::Lt => Instr::Cmp(d, CmpOp::Lt, a, b),
                    B::Le => Instr::Cmp(d, CmpOp::Le, a, b),
                    B::Gt => Instr::Cmp(d, CmpOp::Gt, a, b),
                    B::Ge => Instr::Cmp(d, CmpOp::Ge, a, b),
                    B::And | B::Or => {
                        return Err(LowerError::new(
                            e.span,
                            "internal error: andalso/orelse must be desugared",
                        ))
                    }
                };
                fb.emit(instr);
                Ok(d)
            }
            TExprKind::UnOp { op, operand } => {
                let a = self.lower_expr(fb, operand)?;
                let d = fb.val_slot(e.ty.clone())?;
                match op {
                    tfgc_syntax::UnOp::Neg => fb.emit(Instr::Neg(d, a)),
                    tfgc_syntax::UnOp::Not => fb.emit(Instr::Not(d, a)),
                };
                Ok(d)
            }
            TExprKind::If { cond, then, els } => {
                let c = self.lower_expr(fb, cond)?;
                let d = fb.val_slot(e.ty.clone())?;
                let l_else = fb.new_label();
                let l_end = fb.new_label();
                fb.emit_branch_false(c, l_else);
                let t = self.lower_expr(fb, then)?;
                fb.emit(Instr::Move(d, t));
                fb.emit_jump(l_end);
                fb.bind_label(l_else);
                let f = self.lower_expr(fb, els)?;
                fb.emit(Instr::Move(d, f));
                fb.bind_label(l_end);
                Ok(d)
            }
            TExprKind::Case { scrut, arms } => {
                let s = self.lower_expr(fb, scrut)?;
                let d = fb.val_slot(e.ty.clone())?;
                let l_done = fb.new_label();
                for arm in arms {
                    let l_fail = fb.new_label();
                    self.compile_pat(fb, s, &arm.pat, l_fail)?;
                    let r = self.lower_expr(fb, &arm.body)?;
                    fb.emit(Instr::Move(d, r));
                    fb.emit_jump(l_done);
                    fb.bind_label(l_fail);
                }
                fb.emit(Instr::MatchFail);
                fb.bind_label(l_done);
                Ok(d)
            }
            TExprKind::Let { binds, body } => {
                for b in binds {
                    match b {
                        TLetBind::Val { pat, rhs, .. } => {
                            let r = self.lower_expr(fb, rhs)?;
                            if is_irrefutable(self.tp, pat) {
                                self.compile_pat(fb, r, pat, u32::MAX)?;
                            } else {
                                let l_fail = fb.new_label();
                                let l_ok = fb.new_label();
                                self.compile_pat(fb, r, pat, l_fail)?;
                                fb.emit_jump(l_ok);
                                fb.bind_label(l_fail);
                                fb.emit(Instr::MatchFail);
                                fb.bind_label(l_ok);
                            }
                        }
                        TLetBind::Fun(funs) => {
                            self.lower_let_funs(fb, funs)?;
                        }
                    }
                }
                self.lower_expr(fb, body)
            }
            TExprKind::Lambda {
                param,
                param_ty,
                body,
            } => self.lower_lambda(fb, param, param_ty, body, &e.ty, e.span),
            TExprKind::Seq(a, b) => {
                let _ = self.lower_expr(fb, a)?;
                self.lower_expr(fb, b)
            }
        }
    }

    /// Application spine: direct calls where the callee and full argument
    /// count are known, closure calls otherwise.
    fn lower_app(&mut self, fb: &mut Fb, e: &TExpr) -> LowerResult<Slot> {
        let (base, apps) = collect_spine(e);
        // Builtin print in call position.
        if let TExprKind::Var { name, .. } = &base.kind {
            if name == "print" && fb.local(name).is_none() && !self.global_locs.contains_key(name) {
                let (arg, _) = apps[0];
                let a = self.lower_expr(fb, arg)?;
                fb.emit(Instr::Print(a));
                let d = fb.val_slot(Type::Unit)?;
                fb.emit(Instr::LoadUnit(d));
                // `print x` has type unit; further application is impossible.
                return Ok(d);
            }
        }
        // Known function in call position?
        let direct = match &base.kind {
            TExprKind::Var { name, inst, .. } if fb.local(name).is_none() => {
                match self.global_locs.get(name) {
                    Some(Loc::Fun(g)) => Some((*g, inst.clone().unwrap_or_default())),
                    _ => None,
                }
            }
            _ => None,
        };
        let (mut cur, mut cur_ty, rest_start) = match direct {
            Some((g, inst)) if apps.len() >= self.metas[g.0 as usize].user_arity as usize => {
                let meta = self.metas[g.0 as usize].clone();
                let m = meta.user_arity as usize;
                let mut args = Vec::with_capacity(m + meta.extras.len());
                for (arg, _) in &apps[..m] {
                    args.push(self.lower_expr(fb, arg)?);
                }
                for (name, _) in &meta.extras {
                    let s = fb.local(name).ok_or_else(|| {
                        LowerError::new(
                            e.span,
                            format!("internal error: lifted extra `{name}` not in scope"),
                        )
                    })?;
                    args.push(s);
                }
                let fields = self.desc_fields_of(g);
                let descs = self.emit_desc_args(fb, &fields, meta.scheme_id, &inst)?;
                args.extend(descs);
                let result_ty = apps[m - 1].1.clone();
                let d = fb.val_slot(result_ty.clone())?;
                let site = self.new_site(
                    fb,
                    SiteKind::Direct {
                        callee: g,
                        theta: inst,
                    },
                );
                fb.emit(Instr::CallDirect {
                    dst: d,
                    f: g,
                    args,
                    site,
                });
                (d, result_ty, m)
            }
            _ => {
                let c = self.lower_expr(fb, base)?;
                (c, base.ty.clone(), 0)
            }
        };
        for (arg, res_ty) in &apps[rest_start..] {
            let a = self.lower_expr(fb, arg)?;
            let d = fb.val_slot((*res_ty).clone())?;
            let site = self.new_site(
                fb,
                SiteKind::Closure {
                    clos: cur,
                    clos_ty: cur_ty.clone(),
                },
            );
            fb.emit(Instr::CallClosure {
                dst: d,
                clos: cur,
                arg: a,
                site,
            });
            cur = d;
            cur_ty = (*res_ty).clone();
        }
        Ok(cur)
    }

    /// Materializes a first-class value for direct function `g` at
    /// instantiation `inst`: a closure over the 0-arguments curry wrapper.
    fn make_fn_value(
        &mut self,
        fb: &mut Fb,
        g: FnId,
        inst: &[Type],
        use_ty: &Type,
    ) -> LowerResult<Slot> {
        let meta = self.metas[g.0 as usize].clone();
        let w0 = self.get_wrapper(g, 0)?;
        let mut captures = Vec::new();
        let mut operand_tys = Vec::new();
        for (name, ty) in &meta.extras {
            let s = fb.local(name).ok_or_else(|| {
                LowerError::new(
                    fb.span,
                    format!("internal error: lifted extra `{name}` not in scope"),
                )
            })?;
            captures.push(s);
            operand_tys.push(SlotTy::Val(expand_inst_ty(ty, meta.scheme_id, inst)));
        }
        let fields = self.desc_fields_of(w0);
        let descs = self.emit_desc_args(fb, &fields, meta.scheme_id, inst)?;
        for _ in &descs {
            operand_tys.push(SlotTy::Desc);
        }
        captures.extend(descs);
        self.raw_creations.push((fb.id, w0, inst.to_vec()));
        let d = fb.val_slot(use_ty.clone())?;
        let site = self.new_site(fb, SiteKind::Alloc { operand_tys });
        fb.emit(Instr::MakeClosure {
            dst: d,
            f: w0,
            captures,
            site,
        });
        Ok(d)
    }

    /// The curry wrapper for direct function `g` with `k` user arguments
    /// already captured.
    fn get_wrapper(&mut self, g: FnId, k: u16) -> LowerResult<FnId> {
        if let Some(id) = self.wrappers.get(&(g, k)) {
            return Ok(*id);
        }
        let meta = self.metas[g.0 as usize].clone();
        let id = self.reserve(FnMeta {
            scheme_id: meta.scheme_id,
            scheme_params: meta.scheme_params,
            user_arity: 1,
            user_param_tys: vec![meta.user_param_tys[k as usize].clone()],
            ret_ty: meta.ret_ty.clone(),
            extras: Vec::new(),
        });
        self.wrappers.insert((g, k), id);

        let arity = meta.user_arity;
        let arrow = Type::arrow_n(
            meta.user_param_tys[k as usize..].iter().cloned(),
            meta.ret_ty.clone(),
        );
        let name = format!("wrap{}${k}", g.0);
        let mut fb = Fb::new(
            id,
            name,
            FnKind::ClosureEntered,
            arrow.clone(),
            if k + 1 == arity {
                meta.ret_ty.clone()
            } else {
                Type::arrow_n(
                    meta.user_param_tys[(k + 1) as usize..].iter().cloned(),
                    meta.ret_ty.clone(),
                )
            },
            Span::SYNTH,
        );
        let self_slot = fb.val_slot(arrow)?;
        let arg_slot = fb.val_slot(meta.user_param_tys[k as usize].clone())?;
        fb.n_params = 2;

        // Unpack environment: extras, previously captured args, descriptors.
        let mut field_idx: u16 = 1; // field 0 is the function id
        let mut extras_slots = Vec::new();
        for (_, ty) in &meta.extras {
            let s = fb.val_slot(ty.clone())?;
            fb.emit(Instr::GetField(s, self_slot, field_idx));
            fb.captures.push(SlotTy::Val(ty.clone()));
            extras_slots.push(s);
            field_idx += 1;
        }
        let mut arg_slots = Vec::new();
        for j in 0..k {
            let ty = meta.user_param_tys[j as usize].clone();
            let s = fb.val_slot(ty.clone())?;
            fb.emit(Instr::GetField(s, self_slot, field_idx));
            fb.captures.push(SlotTy::Val(ty));
            arg_slots.push(s);
            field_idx += 1;
        }
        let desc_fields = self.desc_fields_of(id);
        for q in &desc_fields {
            let s = fb.new_slot(SlotTy::Desc)?;
            fb.emit(Instr::GetField(s, self_slot, field_idx));
            fb.captures.push(SlotTy::Desc);
            fb.desc_map.push((*q, s));
            field_idx += 1;
        }
        fb.desc_fields = desc_fields;

        let identity: Vec<Type> = (0..meta.scheme_params)
            .map(|i| {
                Type::Param(ParamId {
                    scheme: meta.scheme_id,
                    index: i,
                })
            })
            .collect();

        if k + 1 == arity {
            // Full application: call g directly.
            let mut args = arg_slots;
            args.push(arg_slot);
            args.extend(extras_slots);
            let g_fields = self.desc_fields_of(g);
            let descs = self.emit_desc_args(&mut fb, &g_fields, meta.scheme_id, &identity)?;
            args.extend(descs);
            let d = fb.val_slot(meta.ret_ty.clone())?;
            let site = self.new_site(
                &fb,
                SiteKind::Direct {
                    callee: g,
                    theta: identity,
                },
            );
            fb.emit(Instr::CallDirect {
                dst: d,
                f: g,
                args,
                site,
            });
            fb.emit(Instr::Return(d));
        } else {
            // Partial: build the next wrapper's closure.
            let next = self.get_wrapper(g, k + 1)?;
            let mut captures = Vec::new();
            let mut operand_tys = Vec::new();
            for (s, (_, ty)) in extras_slots.iter().zip(&meta.extras) {
                captures.push(*s);
                operand_tys.push(SlotTy::Val(ty.clone()));
            }
            for (j, s) in arg_slots.iter().enumerate() {
                captures.push(*s);
                operand_tys.push(SlotTy::Val(meta.user_param_tys[j].clone()));
            }
            captures.push(arg_slot);
            operand_tys.push(SlotTy::Val(meta.user_param_tys[k as usize].clone()));
            let next_fields = self.desc_fields_of(next);
            let descs = self.emit_desc_args(&mut fb, &next_fields, meta.scheme_id, &identity)?;
            for _ in &descs {
                operand_tys.push(SlotTy::Desc);
            }
            captures.extend(descs);
            self.raw_creations.push((id, next, identity));
            let d = fb.val_slot(fb.ret_ty.clone())?;
            let site = self.new_site(&fb, SiteKind::Alloc { operand_tys });
            fb.emit(Instr::MakeClosure {
                dst: d,
                f: next,
                captures,
                site,
            });
            fb.emit(Instr::Return(d));
        }
        let fun = self.finish_fun(fb)?;
        self.funs[id.0 as usize] = Some(fun);
        Ok(id)
    }

    /// The direct function implementing builtin `print` when used as a
    /// first-class value.
    fn get_print_fn(&mut self) -> LowerResult<FnId> {
        if let Some(id) = self.print_fn {
            return Ok(id);
        }
        let id = self.reserve(FnMeta {
            scheme_id: DUMMY_SCHEME,
            scheme_params: 0,
            user_arity: 1,
            user_param_tys: vec![Type::Int],
            ret_ty: Type::Unit,
            extras: Vec::new(),
        });
        self.print_fn = Some(id);
        let mut fb = Fb::new(
            id,
            "print".to_string(),
            FnKind::Direct,
            Type::arrow(Type::Int, Type::Unit),
            Type::Unit,
            Span::SYNTH,
        );
        let a = fb.val_slot(Type::Int)?;
        fb.n_params = 1;
        fb.emit(Instr::Print(a));
        let d = fb.val_slot(Type::Unit)?;
        fb.emit(Instr::LoadUnit(d));
        fb.emit(Instr::Return(d));
        let fun = self.finish_fun(fb)?;
        self.funs[id.0 as usize] = Some(fun);
        Ok(id)
    }

    /// Compiles a `let fun` group: lifts free variables as extra
    /// parameters, registers the members, compiles their bodies.
    fn lower_let_funs(&mut self, fb: &mut Fb, funs: &[TFun]) -> LowerResult<()> {
        // Free names over all member bodies, resolvable in the current frame.
        let mut names: Vec<String> = Vec::new();
        for f in funs {
            self.collect_free(&f.body, fb, &mut names);
        }
        let extras: Vec<(String, Type)> = names
            .into_iter()
            .map(|n| {
                let s = fb.local(&n).expect("collected names are local");
                let ty = fb.slot_val_ty(s)?;
                Ok((n, ty))
            })
            .collect::<LowerResult<_>>()?;
        let ids: Vec<FnId> = funs
            .iter()
            .map(|f| {
                let id = self.reserve(FnMeta {
                    scheme_id: f.scheme.id,
                    scheme_params: f.scheme.num_params,
                    user_arity: f.params.len() as u16,
                    user_param_tys: f.params.iter().map(|(_, t)| t.clone()).collect(),
                    ret_ty: f.ret.clone(),
                    extras: extras.clone(),
                });
                self.global_locs.insert(f.name.clone(), Loc::Fun(id));
                id
            })
            .collect();
        for (f, id) in funs.iter().zip(&ids) {
            let fun = self.compile_direct(*id, f, &extras)?;
            self.funs[id.0 as usize] = Some(fun);
        }
        Ok(())
    }

    /// Collects names used in `e` that resolve to locals of the *current*
    /// frame (directly, or as lifted extras of referenced `let fun`s).
    /// Binder names are unique after `elaborate`, so no binder tracking
    /// is needed.
    fn collect_free(&self, e: &TExpr, fb: &Fb, out: &mut Vec<String>) {
        let push = |n: &str, out: &mut Vec<String>| {
            if !out.iter().any(|x| x == n) {
                out.push(n.to_string());
            }
        };
        match &e.kind {
            TExprKind::Var { name, .. } => {
                if fb.local(name).is_some() {
                    push(name, out);
                } else if let Some(Loc::Fun(g)) = self.global_locs.get(name) {
                    for (en, _) in &self.metas[g.0 as usize].extras {
                        if fb.local(en).is_some() {
                            push(en, out);
                        }
                    }
                }
            }
            TExprKind::Int(_) | TExprKind::Bool(_) | TExprKind::Unit => {}
            TExprKind::Tuple(es) | TExprKind::Ctor { args: es, .. } => {
                for x in es {
                    self.collect_free(x, fb, out);
                }
            }
            TExprKind::Proj { tuple, .. } => self.collect_free(tuple, fb, out),
            TExprKind::App { f, arg } => {
                self.collect_free(f, fb, out);
                self.collect_free(arg, fb, out);
            }
            TExprKind::BinOp { lhs, rhs, .. } => {
                self.collect_free(lhs, fb, out);
                self.collect_free(rhs, fb, out);
            }
            TExprKind::UnOp { operand, .. } => self.collect_free(operand, fb, out),
            TExprKind::If { cond, then, els } => {
                self.collect_free(cond, fb, out);
                self.collect_free(then, fb, out);
                self.collect_free(els, fb, out);
            }
            TExprKind::Case { scrut, arms } => {
                self.collect_free(scrut, fb, out);
                for a in arms {
                    self.collect_free(&a.body, fb, out);
                }
            }
            TExprKind::Let { binds, body } => {
                for b in binds {
                    match b {
                        TLetBind::Val { rhs, .. } => self.collect_free(rhs, fb, out),
                        TLetBind::Fun(fs) => {
                            for f in fs {
                                self.collect_free(&f.body, fb, out);
                            }
                        }
                    }
                }
                self.collect_free(body, fb, out);
            }
            TExprKind::Lambda { body, .. } => self.collect_free(body, fb, out),
            TExprKind::Seq(a, b) => {
                self.collect_free(a, fb, out);
                self.collect_free(b, fb, out);
            }
        }
    }

    /// Compiles a lambda to a closure-entered function and emits its
    /// creation in the current frame.
    fn lower_lambda(
        &mut self,
        fb: &mut Fb,
        param: &str,
        param_ty: &Type,
        body: &TExpr,
        node_ty: &Type,
        span: Span,
    ) -> LowerResult<Slot> {
        let mut cap_names: Vec<String> = Vec::new();
        self.collect_free(body, fb, &mut cap_names);
        let caps: Vec<(String, Type)> = cap_names
            .into_iter()
            .map(|n| {
                let s = fb.local(&n).expect("captures are local");
                let ty = fb.slot_val_ty(s)?;
                Ok((n, ty))
            })
            .collect::<LowerResult<_>>()?;

        let id = self.reserve(FnMeta {
            scheme_id: DUMMY_SCHEME,
            scheme_params: 0,
            user_arity: 1,
            user_param_tys: vec![param_ty.clone()],
            ret_ty: body.ty.clone(),
            extras: Vec::new(),
        });

        // Compile the lambda body in its own builder.
        {
            let mut lb = Fb::new(
                id,
                format!("lambda@{}", span.start),
                FnKind::ClosureEntered,
                node_ty.clone(),
                body.ty.clone(),
                span,
            );
            let self_slot = lb.val_slot(node_ty.clone())?;
            let arg_slot = lb.val_slot(param_ty.clone())?;
            lb.n_params = 2;
            lb.locals.insert(param.to_string(), arg_slot);
            let mut field_idx: u16 = 1;
            for (n, ty) in &caps {
                let s = lb.val_slot(ty.clone())?;
                lb.emit(Instr::GetField(s, self_slot, field_idx));
                lb.captures.push(SlotTy::Val(ty.clone()));
                lb.locals.insert(n.clone(), s);
                field_idx += 1;
            }
            let desc_fields = self.desc_fields_of(id);
            for q in &desc_fields {
                let s = lb.new_slot(SlotTy::Desc)?;
                lb.emit(Instr::GetField(s, self_slot, field_idx));
                lb.captures.push(SlotTy::Desc);
                lb.desc_map.push((*q, s));
                field_idx += 1;
            }
            lb.desc_fields = desc_fields;
            let r = self.lower_expr(&mut lb, body)?;
            lb.emit(Instr::Return(r));
            let fun = self.finish_fun(lb)?;
            self.funs[id.0 as usize] = Some(fun);
        }

        // Emit the creation in the parent.
        let mut captures = Vec::new();
        let mut operand_tys = Vec::new();
        for (n, ty) in &caps {
            let s = fb.local(n).expect("captures are local");
            captures.push(s);
            operand_tys.push(SlotTy::Val(ty.clone()));
        }
        let fields = self.desc_fields_of(id);
        let descs = self.emit_desc_args(fb, &fields, DUMMY_SCHEME, &[])?;
        for _ in &descs {
            operand_tys.push(SlotTy::Desc);
        }
        captures.extend(descs);
        self.raw_creations.push((fb.id, id, Vec::new()));
        let d = fb.val_slot(node_ty.clone())?;
        let site = self.new_site(fb, SiteKind::Alloc { operand_tys });
        fb.emit(Instr::MakeClosure {
            dst: d,
            f: id,
            captures,
            site,
        });
        Ok(d)
    }

    /// Compiles a pattern match against the value in `s`, jumping to
    /// `fail` on mismatch and binding pattern variables on success.
    /// `fail == u32::MAX` asserts the pattern is irrefutable.
    fn compile_pat(&mut self, fb: &mut Fb, s: Slot, pat: &TPat, fail: u32) -> LowerResult<()> {
        match &pat.kind {
            TPatKind::Wild | TPatKind::Unit => Ok(()),
            TPatKind::Var(v) => {
                fb.locals.insert(v.clone(), s);
                Ok(())
            }
            TPatKind::Int(n) => {
                fb.emit_branch_int_ne(s, *n, fail);
                Ok(())
            }
            TPatKind::Bool(b) => {
                fb.emit_branch_int_ne(s, i64::from(*b), fail);
                Ok(())
            }
            TPatKind::Tuple(ps) => {
                for (i, p) in ps.iter().enumerate() {
                    let d = fb.val_slot(p.ty.clone())?;
                    fb.emit(Instr::GetField(d, s, i as u16));
                    self.compile_pat(fb, d, p, fail)?;
                }
                Ok(())
            }
            TPatKind::Ctor { data, tag, args } => {
                let n_ctors = self.tp.data_env.def(*data).ctors.len();
                if n_ctors > 1 {
                    fb.emit_branch_tag_ne(s, *data, *tag, fail);
                }
                let rep = self.ctor_reps[data.0 as usize][*tag as usize];
                if let CtorRep::Ptr { .. } = rep {
                    for (i, p) in args.iter().enumerate() {
                        let d = fb.val_slot(p.ty.clone())?;
                        fb.emit(Instr::GetField(d, s, rep.field_offset(i as u16)));
                        self.compile_pat(fb, d, p, fail)?;
                    }
                }
                Ok(())
            }
        }
    }

    /// Expands raw instantiation vectors into frame-parameter-aligned θs
    /// and assembles the program.
    fn finalize(mut self, main: FnId) -> LowerResult<(IrProgram, Vec<Creation>)> {
        let funs: Vec<IrFun> = self
            .funs
            .into_iter()
            .map(|f| f.expect("all reserved functions compiled"))
            .collect();
        for site in &mut self.sites {
            if let SiteKind::Direct { callee, theta } = &mut site.kind {
                let meta = &self.metas[callee.0 as usize];
                let inst = std::mem::take(theta);
                *theta = funs[callee.0 as usize]
                    .frame_params
                    .iter()
                    .map(|q| expand_inst(*q, meta.scheme_id, &inst))
                    .collect();
            }
        }
        let creations: Vec<Creation> = self
            .raw_creations
            .iter()
            .map(|(creator, target, inst)| {
                let meta = &self.metas[target.0 as usize];
                Creation {
                    creator: *creator,
                    target: *target,
                    theta: funs[target.0 as usize]
                        .frame_params
                        .iter()
                        .map(|q| expand_inst(*q, meta.scheme_id, inst))
                        .collect(),
                }
            })
            .collect();
        let mut opaque: Vec<SchemeId> = self.opaque.iter().copied().collect();
        opaque.sort();
        let prog = IrProgram {
            data_env: self.tp.data_env.clone(),
            ctor_reps: compute_ctor_reps(&self.tp.data_env),
            funs,
            globals: self.globals,
            sites: self.sites,
            desc_templates: self.desc_templates,
            main,
            main_ty: self.tp.main.ty.clone(),
            opaque_schemes: opaque,
        };
        Ok((prog, creations))
    }
}

/// Instantiates parameter `q`: parameters of `scheme` map through `inst`,
/// everything else passes through.
fn expand_inst(q: ParamId, scheme: SchemeId, inst: &[Type]) -> Type {
    if q.scheme == scheme && (q.index as usize) < inst.len() {
        inst[q.index as usize].clone()
    } else {
        Type::Param(q)
    }
}

/// Applies [`expand_inst`] over a whole type.
fn expand_inst_ty(ty: &Type, scheme: SchemeId, inst: &[Type]) -> Type {
    ty.map_params(&mut |q| expand_inst(q, scheme, inst))
}

/// First-occurrence path of `q` in `ty` (child indices), if present.
fn find_param_path(ty: &Type, q: ParamId) -> Option<Vec<u16>> {
    fn go(ty: &Type, q: ParamId, path: &mut Vec<u16>) -> bool {
        match ty {
            Type::Param(p) => *p == q,
            Type::Tuple(ts) | Type::Data(_, ts) => {
                for (i, t) in ts.iter().enumerate() {
                    path.push(i as u16);
                    if go(t, q, path) {
                        return true;
                    }
                    path.pop();
                }
                false
            }
            Type::Arrow(a, b) => {
                path.push(0);
                if go(a, q, path) {
                    return true;
                }
                path.pop();
                path.push(1);
                if go(b, q, path) {
                    return true;
                }
                path.pop();
                false
            }
            _ => false,
        }
    }
    let mut path = Vec::new();
    if go(ty, q, &mut path) {
        Some(path)
    } else {
        None
    }
}

/// Is the pattern guaranteed to match any value of its type?
fn is_irrefutable(tp: &TProgram, pat: &TPat) -> bool {
    match &pat.kind {
        TPatKind::Wild | TPatKind::Var(_) | TPatKind::Unit => true,
        TPatKind::Int(_) | TPatKind::Bool(_) => false,
        TPatKind::Tuple(ps) => ps.iter().all(|p| is_irrefutable(tp, p)),
        TPatKind::Ctor { data, args, .. } => {
            tp.data_env.def(*data).ctors.len() == 1 && args.iter().all(|p| is_irrefutable(tp, p))
        }
    }
}

/// Splits an application spine: `f a b c` gives `(f, [(a, ty1), (b, ty2),
/// (c, ty3)])` where `tyN` is the result type after `N` applications.
fn collect_spine(e: &TExpr) -> (&TExpr, Vec<(&TExpr, &Type)>) {
    match &e.kind {
        TExprKind::App { f, arg } => {
            let (base, mut apps) = collect_spine(f);
            apps.push((arg, &e.ty));
            (base, apps)
        }
        _ => (e, Vec::new()),
    }
}
