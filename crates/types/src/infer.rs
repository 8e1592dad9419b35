//! Type inference and elaboration (Algorithm W with let-polymorphism and a
//! value restriction), producing the typed AST of [`crate::tast`].
//!
//! Design notes relevant to the GC reproduction:
//!
//! * Each generalized binding gets a fresh [`SchemeId`]; quantified
//!   unification variables are rewritten to [`Type::Param`]s owned by that
//!   binder **inside the binding's own body**. A function's frame slot
//!   types therefore mention exactly the generic parameters its frame
//!   routines must be parameterized by (Goldberg §3).
//! * Every use of a binding records its instantiation vector. Inside a
//!   function `f` those instantiations are types over `f`'s parameters —
//!   the static substitution θ evaluated during collection.
//! * Unconstrained types default to `int` after inference, so monomorphic
//!   programs elaborate to fully ground types.
//! * The last step renames every binder to a unique name
//!   ([`crate::alpha`]), so later passes can resolve variables by name.

use crate::alpha::alpha_rename;
use crate::datatypes::{data_param, CtorDef, DataDef, DataEnv};
use crate::error::{TypeError, TypeResult};
use crate::scheme::Scheme;
use crate::tast::*;
use crate::ty::{ParamId, SchemeId, TvId, Type};
use crate::unify::InferCtx;
use std::collections::{HashMap, HashSet};
use tfgc_syntax::ast as s;
use tfgc_syntax::{BinOp, Span};

/// Elaborates a parsed program into a typed program in which every binder
/// has a unique name.
///
/// # Errors
///
/// Returns the first type error encountered (unification failure, unknown
/// identifier, malformed constructor use, ...).
pub fn elaborate(program: &s::Program) -> TypeResult<TProgram> {
    Elab::new().run(program)
}

#[derive(Debug, Clone)]
struct Binding {
    scheme: Scheme,
    kind: VarKind,
    /// `Some(group)` while the binding is the monomorphic placeholder for a
    /// recursive `fun` group still being inferred.
    rec_group: Option<u32>,
}

struct Elab {
    cx: InferCtx,
    data: DataEnv,
    scopes: Vec<Vec<(String, Binding)>>,
    next_scheme: u32,
    next_group: u32,
    fresh_names: u32,
}

impl Elab {
    fn new() -> Self {
        let mut e = Elab {
            cx: InferCtx::new(),
            data: DataEnv::new(),
            scopes: vec![Vec::new()],
            next_scheme: 0,
            next_group: 0,
            fresh_names: 0,
        };
        // Builtins.
        let print_scheme = Scheme::mono(e.alloc_scheme(), Type::arrow(Type::Int, Type::Unit));
        e.bind(
            "print".into(),
            Binding {
                scheme: print_scheme,
                kind: VarKind::Builtin,
                rec_group: None,
            },
        );
        e
    }

    fn alloc_scheme(&mut self) -> SchemeId {
        let id = SchemeId(self.next_scheme);
        self.next_scheme += 1;
        id
    }

    fn fresh_name(&mut self, hint: &str) -> String {
        let n = self.fresh_names;
        self.fresh_names += 1;
        format!("{hint}#t{n}")
    }

    fn bind(&mut self, name: String, b: Binding) {
        self.scopes
            .last_mut()
            .expect("scope stack is never empty")
            .push((name, b));
    }

    fn push_scope(&mut self) {
        self.scopes.push(Vec::new());
    }

    fn pop_scope(&mut self) {
        self.scopes.pop().expect("unbalanced scope pop");
    }

    /// Unification variables free in the environment (excluding the
    /// placeholders of the group currently being generalized).
    fn env_free_vars(&self, exclude_group: Option<u32>) -> HashSet<TvId> {
        let mut set = HashSet::new();
        for scope in &self.scopes {
            for (_, b) in scope {
                if b.rec_group.is_some() && b.rec_group == exclude_group {
                    continue;
                }
                self.cx.visit_free_vars(&b.scheme.ty, &mut |v| {
                    set.insert(v);
                });
            }
        }
        set
    }

    // ---- driver ------------------------------------------------------

    fn run(mut self, prog: &s::Program) -> TypeResult<TProgram> {
        self.register_datatypes(prog)?;
        let mut funs = Vec::new();
        let mut globals = Vec::new();
        // Top-level names must be unique: downstream passes rely on a flat
        // top-level namespace.
        let mut top_names: HashSet<String> = HashSet::new();
        let mut check_top = |name: &str, span: Span| -> TypeResult<()> {
            if top_names.insert(name.to_string()) {
                Ok(())
            } else {
                Err(TypeError::new(
                    span,
                    format!("duplicate top-level binding `{name}`"),
                ))
            }
        };
        for decl in &prog.decls {
            match decl {
                s::Decl::Datatype(_) => {}
                s::Decl::Fun(group) => {
                    for f in group {
                        check_top(&f.name, f.span)?;
                    }
                    funs.extend(self.elab_fun_group(group, VarKind::TopFun)?);
                }
                s::Decl::Val(pat, rhs) => {
                    if let s::PatKind::Var(v) = &pat.kind {
                        check_top(v, pat.span)?;
                    }
                    globals.push(self.elab_global(pat, rhs)?);
                }
            }
        }
        let main = self.elab_expr(&prog.main)?;

        let mut out = TProgram {
            data_env: self.data.clone(),
            funs,
            globals,
            main,
        };
        // Final zonk; any leftover unification variable defaults to int.
        let cx = &self.cx;
        let mut finish = |t: &mut Type| cx.zonk_map_in_place(t, &mut |_| Type::Int);
        for f in &mut out.funs {
            f.map_types_mut(&mut finish);
        }
        for g in &mut out.globals {
            finish(&mut g.scheme.ty);
            g.init.map_types_mut(&mut finish);
        }
        out.main.map_types_mut(&mut finish);
        validate_insts(&mut out)?;
        alpha_rename(&mut out);
        Ok(out)
    }

    fn register_datatypes(&mut self, prog: &s::Program) -> TypeResult<()> {
        // Pass 1: allocate ids so that mutually recursive datatypes resolve.
        let mut ids = HashMap::new();
        for decl in &prog.decls {
            if let s::Decl::Datatype(dt) = decl {
                if self.data.data_by_name(&dt.name).is_some() || ids.contains_key(&dt.name) {
                    return Err(TypeError::new(
                        dt.span,
                        format!("duplicate datatype `{}`", dt.name),
                    ));
                }
                let id = self.data.insert(DataDef {
                    name: dt.name.clone(),
                    arity: dt.params.len() as u32,
                    ctors: Vec::new(),
                });
                ids.insert(dt.name.clone(), id);
            }
        }
        // Pass 2: elaborate constructor field types.
        for decl in &prog.decls {
            if let s::Decl::Datatype(dt) = decl {
                let id = ids[&dt.name];
                let mut tyvars: HashMap<String, Type> = dt
                    .params
                    .iter()
                    .enumerate()
                    .map(|(i, p)| (p.clone(), data_param(id, i as u32)))
                    .collect();
                let mut ctors = Vec::new();
                for (tag, c) in dt.ctors.iter().enumerate() {
                    if self.data.ctor(&c.name).is_some()
                        || ctors.iter().any(|cd: &CtorDef| cd.name == c.name)
                    {
                        return Err(TypeError::new(
                            c.span,
                            format!("duplicate constructor `{}`", c.name),
                        ));
                    }
                    let fields = c
                        .args
                        .iter()
                        .map(|t| self.conv_ty(t, &mut tyvars, false, c.span))
                        .collect::<TypeResult<Vec<_>>>()?;
                    ctors.push(CtorDef {
                        name: c.name.clone(),
                        tag: tag as u32,
                        fields,
                    });
                }
                self.data.set_ctors(id, ctors);
            }
        }
        Ok(())
    }

    /// Converts a surface type. Unknown type variables are errors when
    /// `rigid` (datatype declarations) and fresh unification variables
    /// otherwise (annotations).
    fn conv_ty(
        &mut self,
        t: &s::Ty,
        tyvars: &mut HashMap<String, Type>,
        flexible: bool,
        span: Span,
    ) -> TypeResult<Type> {
        Ok(match t {
            s::Ty::Int => Type::Int,
            s::Ty::Bool => Type::Bool,
            s::Ty::Unit => Type::Unit,
            s::Ty::Var(v) => match tyvars.get(v) {
                Some(ty) => ty.clone(),
                None if flexible => {
                    let fresh = self.cx.fresh();
                    tyvars.insert(v.clone(), fresh.clone());
                    fresh
                }
                None => {
                    return Err(TypeError::new(
                        span,
                        format!("unbound type variable `'{v}`"),
                    ))
                }
            },
            s::Ty::Tuple(ts) => Type::Tuple(
                ts.iter()
                    .map(|t| self.conv_ty(t, tyvars, flexible, span))
                    .collect::<TypeResult<_>>()?,
            ),
            s::Ty::List(inner) => Type::list(self.conv_ty(inner, tyvars, flexible, span)?),
            s::Ty::Arrow(a, b) => Type::arrow(
                self.conv_ty(a, tyvars, flexible, span)?,
                self.conv_ty(b, tyvars, flexible, span)?,
            ),
            s::Ty::Named(name, args) => {
                let id = self
                    .data
                    .data_by_name(name)
                    .ok_or_else(|| TypeError::new(span, format!("unknown type `{name}`")))?;
                let def = self.data.def(id);
                if def.arity as usize != args.len() {
                    return Err(TypeError::new(
                        span,
                        format!(
                            "type `{name}` expects {} arguments, got {}",
                            def.arity,
                            args.len()
                        ),
                    ));
                }
                Type::Data(
                    id,
                    args.iter()
                        .map(|t| self.conv_ty(t, tyvars, flexible, span))
                        .collect::<TypeResult<_>>()?,
                )
            }
        })
    }

    // ---- globals -------------------------------------------------------

    fn elab_global(&mut self, pat: &s::Pat, rhs: &s::Expr) -> TypeResult<TGlobal> {
        let name = match &pat.kind {
            s::PatKind::Var(v) => v.clone(),
            _ => {
                return Err(TypeError::new(
                    pat.span,
                    "top-level `val` must bind a single variable",
                ))
            }
        };
        let mut init = self.elab_expr(rhs)?;
        let scheme = if is_syntactic_value(rhs) {
            self.generalize_single(&mut init, None)?
        } else {
            Scheme::mono(self.alloc_scheme(), self.cx.zonk(&init.ty))
        };
        self.bind(
            name.clone(),
            Binding {
                scheme: scheme.clone(),
                kind: VarKind::Global,
                rec_group: None,
            },
        );
        Ok(TGlobal {
            name,
            scheme,
            init,
            span: pat.span,
        })
    }

    /// Generalizes the type of a single elaborated value, rewriting
    /// quantified variables to parameters inside it.
    fn generalize_single(
        &mut self,
        value: &mut TExpr,
        exclude_group: Option<u32>,
    ) -> TypeResult<Scheme> {
        let env_free = self.env_free_vars(exclude_group);
        let mut vs = Vec::new();
        self.cx.free_vars(&value.ty, &mut vs);
        let quant: Vec<TvId> = vs.into_iter().filter(|v| !env_free.contains(v)).collect();
        let id = self.alloc_scheme();
        let map: HashMap<TvId, ParamId> = quant
            .iter()
            .enumerate()
            .map(|(i, v)| {
                (
                    *v,
                    ParamId {
                        scheme: id,
                        index: i as u32,
                    },
                )
            })
            .collect();
        let cx = &self.cx;
        value.map_types_mut(&mut |t| cx.zonk_map_in_place(t, &mut |v| param_of(&map, v)));
        Ok(Scheme {
            id,
            num_params: quant.len() as u32,
            ty: value.ty.clone(),
        })
    }

    // ---- functions -------------------------------------------------------

    fn elab_fun_group(&mut self, group: &[s::FunBind], kind: VarKind) -> TypeResult<Vec<TFun>> {
        let group_id = self.next_group;
        self.next_group += 1;

        // 1. Bind placeholders.
        let mut placeholder_tys = Vec::new();
        for f in group {
            let ty = self.cx.fresh();
            placeholder_tys.push(ty.clone());
            self.bind(
                f.name.clone(),
                Binding {
                    scheme: Scheme::mono(SchemeId(u32::MAX), ty),
                    kind,
                    rec_group: Some(group_id),
                },
            );
        }

        // 2. Infer bodies.
        let mut partial: Vec<TFun> = Vec::new();
        for (f, placeholder) in group.iter().zip(&placeholder_tys) {
            if f.params.is_empty() {
                return Err(TypeError::new(f.span, "function must take a parameter"));
            }
            self.push_scope();
            let mut params = Vec::new();
            for p in &f.params {
                let ty = self.cx.fresh();
                self.bind(
                    p.clone(),
                    Binding {
                        scheme: Scheme::mono(SchemeId(u32::MAX), ty.clone()),
                        kind: VarKind::Local,
                        rec_group: None,
                    },
                );
                params.push((p.clone(), ty));
            }
            let body = self.elab_expr(&f.body)?;
            self.pop_scope();
            let arrow = Type::arrow_n(params.iter().map(|(_, t)| t.clone()), body.ty.clone());
            self.cx.unify(placeholder, &arrow, f.span)?;
            let ret = body.ty.clone();
            partial.push(TFun {
                name: f.name.clone(),
                scheme: Scheme::mono(SchemeId(u32::MAX), Type::Unit), // patched below
                params,
                ret,
                body,
                span: f.span,
            });
        }

        // 3. Generalize each member.
        let env_free = self.env_free_vars(Some(group_id));
        struct MemberInfo {
            scheme: Scheme,
            quant: Vec<TvId>,
            map: HashMap<TvId, ParamId>,
        }
        let mut infos = Vec::new();
        for placeholder in &placeholder_tys {
            let mut vs = Vec::new();
            self.cx.free_vars(placeholder, &mut vs);
            let quant: Vec<TvId> = vs.into_iter().filter(|v| !env_free.contains(v)).collect();
            let id = self.alloc_scheme();
            let map: HashMap<TvId, ParamId> = quant
                .iter()
                .enumerate()
                .map(|(i, v)| {
                    (
                        *v,
                        ParamId {
                            scheme: id,
                            index: i as u32,
                        },
                    )
                })
                .collect();
            let sty = self.cx.zonk_map(placeholder, &mut |v| param_of(&map, v));
            infos.push(MemberInfo {
                scheme: Scheme {
                    id,
                    num_params: quant.len() as u32,
                    ty: sty,
                },
                quant,
                map,
            });
        }

        // 3a. Fix monomorphic recursive uses: give them the identity
        // instantiation (as raw vars; the rewrite below parameterizes them
        // under each enclosing member's own map).
        let group_names: HashMap<&str, usize> = group
            .iter()
            .enumerate()
            .map(|(i, f)| (f.name.as_str(), i))
            .collect();
        for tf in &mut partial {
            tf.body.visit_vars_mut(&mut |name, _, inst| {
                if inst.is_none() {
                    if let Some(&i) = group_names.get(name) {
                        *inst = Some(infos[i].quant.iter().map(|v| Type::Var(*v)).collect());
                    }
                }
            });
        }

        // 3b. Rewrite each member's types under its own map.
        for (tf, info) in partial.iter_mut().zip(&infos) {
            let cx = &self.cx;
            tf.map_types_mut(&mut |t| cx.zonk_map_in_place(t, &mut |v| param_of(&info.map, v)));
            tf.scheme = info.scheme.clone();
        }

        // 4. Rebind with generalized schemes.
        for (f, info) in group.iter().zip(&infos) {
            self.bind(
                f.name.clone(),
                Binding {
                    scheme: info.scheme.clone(),
                    kind,
                    rec_group: None,
                },
            );
        }
        Ok(partial)
    }

    // ---- expressions ---------------------------------------------------

    fn elab_expr(&mut self, e: &s::Expr) -> TypeResult<TExpr> {
        let span = e.span;
        match &e.kind {
            s::ExprKind::Int(n) => Ok(TExpr {
                kind: TExprKind::Int(*n),
                ty: Type::Int,
                span,
            }),
            s::ExprKind::Bool(b) => Ok(TExpr {
                kind: TExprKind::Bool(*b),
                ty: Type::Bool,
                span,
            }),
            s::ExprKind::Unit => Ok(TExpr {
                kind: TExprKind::Unit,
                ty: Type::Unit,
                span,
            }),
            s::ExprKind::Var(name) => self.elab_var(name, span),
            s::ExprKind::Ctor(name) => self.elab_bare_ctor(name, span),
            s::ExprKind::Tuple(es) => {
                let elems = es
                    .iter()
                    .map(|e| self.elab_expr(e))
                    .collect::<TypeResult<Vec<_>>>()?;
                let ty = Type::Tuple(elems.iter().map(|e| e.ty.clone()).collect());
                Ok(TExpr {
                    kind: TExprKind::Tuple(elems),
                    ty,
                    span,
                })
            }
            s::ExprKind::List(es) => {
                let elem_ty = self.cx.fresh();
                let mut elems = Vec::new();
                for e in es {
                    let te = self.elab_expr(e)?;
                    self.cx.unify(&te.ty, &elem_ty, e.span)?;
                    elems.push(te);
                }
                let list_ty = Type::list(elem_ty);
                let mut acc = TExpr {
                    kind: TExprKind::Ctor {
                        data: crate::ty::LIST_DATA,
                        tag: crate::ty::NIL_TAG,
                        args: Vec::new(),
                    },
                    ty: list_ty.clone(),
                    span,
                };
                for te in elems.into_iter().rev() {
                    acc = TExpr {
                        kind: TExprKind::Ctor {
                            data: crate::ty::LIST_DATA,
                            tag: crate::ty::CONS_TAG,
                            args: vec![te, acc],
                        },
                        ty: list_ty.clone(),
                        span,
                    };
                }
                Ok(acc)
            }
            s::ExprKind::Cons(h, t) => {
                let th = self.elab_expr(h)?;
                let tt = self.elab_expr(t)?;
                let list_ty = Type::list(th.ty.clone());
                self.cx.unify(&tt.ty, &list_ty, span)?;
                Ok(TExpr {
                    kind: TExprKind::Ctor {
                        data: crate::ty::LIST_DATA,
                        tag: crate::ty::CONS_TAG,
                        args: vec![th, tt],
                    },
                    ty: list_ty,
                    span,
                })
            }
            s::ExprKind::App(f, arg) => {
                if let s::ExprKind::Ctor(name) = &f.kind {
                    return self.elab_ctor_app(name, arg, span);
                }
                let tf = self.elab_expr(f)?;
                let ta = self.elab_expr(arg)?;
                let res = self.cx.fresh();
                self.cx
                    .unify(&tf.ty, &Type::arrow(ta.ty.clone(), res.clone()), span)?;
                Ok(TExpr {
                    kind: TExprKind::App {
                        f: Box::new(tf),
                        arg: Box::new(ta),
                    },
                    ty: res,
                    span,
                })
            }
            s::ExprKind::BinOp(op, a, b) => self.elab_binop(*op, a, b, span),
            s::ExprKind::UnOp(op, a) => {
                let ta = self.elab_expr(a)?;
                let ty = match op {
                    s::UnOp::Neg => Type::Int,
                    s::UnOp::Not => Type::Bool,
                };
                self.cx.unify(&ta.ty, &ty, span)?;
                Ok(TExpr {
                    kind: TExprKind::UnOp {
                        op: *op,
                        operand: Box::new(ta),
                    },
                    ty,
                    span,
                })
            }
            s::ExprKind::If(c, t, f) => {
                let tc = self.elab_expr(c)?;
                self.cx.unify(&tc.ty, &Type::Bool, c.span)?;
                let tt = self.elab_expr(t)?;
                let tf = self.elab_expr(f)?;
                self.cx.unify(&tt.ty, &tf.ty, span)?;
                let ty = tt.ty.clone();
                Ok(TExpr {
                    kind: TExprKind::If {
                        cond: Box::new(tc),
                        then: Box::new(tt),
                        els: Box::new(tf),
                    },
                    ty,
                    span,
                })
            }
            s::ExprKind::Lambda(param, body) => {
                let pty = self.cx.fresh();
                self.push_scope();
                self.bind(
                    param.clone(),
                    Binding {
                        scheme: Scheme::mono(SchemeId(u32::MAX), pty.clone()),
                        kind: VarKind::Local,
                        rec_group: None,
                    },
                );
                let tbody = self.elab_expr(body)?;
                self.pop_scope();
                let ty = Type::arrow(pty.clone(), tbody.ty.clone());
                Ok(TExpr {
                    kind: TExprKind::Lambda {
                        param: param.clone(),
                        param_ty: pty,
                        body: Box::new(tbody),
                    },
                    ty,
                    span,
                })
            }
            s::ExprKind::Case(scrut, arms) => {
                let tscrut = self.elab_expr(scrut)?;
                let result = self.cx.fresh();
                let mut tarms = Vec::new();
                for arm in arms {
                    self.push_scope();
                    let tpat = self.elab_pat(&arm.pat, &tscrut.ty)?;
                    let tbody = self.elab_expr(&arm.body)?;
                    self.pop_scope();
                    self.cx.unify(&tbody.ty, &result, arm.body.span)?;
                    tarms.push(TArm {
                        pat: tpat,
                        body: tbody,
                    });
                }
                if tarms.is_empty() {
                    return Err(TypeError::new(span, "case expression has no arms"));
                }
                Ok(TExpr {
                    kind: TExprKind::Case {
                        scrut: Box::new(tscrut),
                        arms: tarms,
                    },
                    ty: result,
                    span,
                })
            }
            s::ExprKind::Let(binds, body) => {
                self.push_scope();
                let mut tbinds = Vec::new();
                for b in binds {
                    match b {
                        s::LetBind::Val(pat, rhs) => {
                            let mut trhs = self.elab_expr(rhs)?;
                            let single_var = matches!(&pat.kind, s::PatKind::Var(_));
                            if single_var && is_syntactic_value(rhs) {
                                let scheme = self.generalize_single(&mut trhs, None)?;
                                let name = match &pat.kind {
                                    s::PatKind::Var(v) => v.clone(),
                                    _ => unreachable!("checked single_var"),
                                };
                                self.bind(
                                    name.clone(),
                                    Binding {
                                        scheme: scheme.clone(),
                                        kind: VarKind::Local,
                                        rec_group: None,
                                    },
                                );
                                let tpat = TPat {
                                    kind: TPatKind::Var(name),
                                    ty: trhs.ty.clone(),
                                    span: pat.span,
                                };
                                tbinds.push(TLetBind::Val {
                                    pat: tpat,
                                    rhs: trhs,
                                    scheme: Some(scheme),
                                });
                            } else {
                                let tpat = self.elab_pat(pat, &trhs.ty)?;
                                tbinds.push(TLetBind::Val {
                                    pat: tpat,
                                    rhs: trhs,
                                    scheme: None,
                                });
                            }
                        }
                        s::LetBind::Fun(group) => {
                            let funs = self.elab_fun_group(group, VarKind::LetFun)?;
                            tbinds.push(TLetBind::Fun(funs));
                        }
                    }
                }
                let tbody = self.elab_expr(body)?;
                self.pop_scope();
                let ty = tbody.ty.clone();
                Ok(TExpr {
                    kind: TExprKind::Let {
                        binds: tbinds,
                        body: Box::new(tbody),
                    },
                    ty,
                    span,
                })
            }
            s::ExprKind::Ann(inner, surface_ty) => {
                let te = self.elab_expr(inner)?;
                let mut tyvars = HashMap::new();
                let ann = self.conv_ty(surface_ty, &mut tyvars, true, span)?;
                self.cx.unify(&te.ty, &ann, span)?;
                Ok(te)
            }
            s::ExprKind::Seq(a, b) => {
                let ta = self.elab_expr(a)?;
                let tb = self.elab_expr(b)?;
                let ty = tb.ty.clone();
                Ok(TExpr {
                    kind: TExprKind::Seq(Box::new(ta), Box::new(tb)),
                    ty,
                    span,
                })
            }
        }
    }

    fn elab_var(&mut self, name: &str, span: Span) -> TypeResult<TExpr> {
        let binding = lookup(&self.scopes, name)
            .ok_or_else(|| TypeError::new(span, format!("unbound variable `{name}`")))?;
        if binding.rec_group.is_some() {
            // Monomorphic recursive use; instantiation patched at
            // generalization time.
            return Ok(TExpr {
                kind: TExprKind::Var {
                    name: name.to_string(),
                    kind: binding.kind,
                    inst: None,
                },
                ty: binding.scheme.ty.clone(),
                span,
            });
        }
        let (ty, inst) = binding.scheme.instantiate(&mut self.cx);
        Ok(TExpr {
            kind: TExprKind::Var {
                name: name.to_string(),
                kind: binding.kind,
                inst: Some(inst),
            },
            ty,
            span,
        })
    }

    fn ctor_info(
        &mut self,
        name: &str,
        span: Span,
    ) -> TypeResult<(crate::ty::DataId, u32, Vec<Type>, Vec<Type>)> {
        let (data, tag) = self
            .data
            .ctor(name)
            .ok_or_else(|| TypeError::new(span, format!("unknown constructor `{name}`")))?;
        let arity = self.data.def(data).arity;
        let args: Vec<Type> = (0..arity).map(|_| self.cx.fresh()).collect();
        let fields = self.data.def(data).fields_at(data, tag, &args);
        Ok((data, tag, args, fields))
    }

    fn elab_bare_ctor(&mut self, name: &str, span: Span) -> TypeResult<TExpr> {
        let (data, tag, ty_args, fields) = self.ctor_info(name, span)?;
        let data_ty = Type::Data(data, ty_args);
        match fields.len() {
            0 => Ok(TExpr {
                kind: TExprKind::Ctor {
                    data,
                    tag,
                    args: Vec::new(),
                },
                ty: data_ty,
                span,
            }),
            1 => {
                // Eta-expand: `C` becomes `fn x => C x`.
                let param = self.fresh_name("eta");
                let field = fields.into_iter().next().expect("one field");
                let body = TExpr {
                    kind: TExprKind::Ctor {
                        data,
                        tag,
                        args: vec![TExpr {
                            kind: TExprKind::Var {
                                name: param.clone(),
                                kind: VarKind::Local,
                                inst: Some(Vec::new()),
                            },
                            ty: field.clone(),
                            span,
                        }],
                    },
                    ty: data_ty.clone(),
                    span,
                };
                Ok(TExpr {
                    ty: Type::arrow(field.clone(), data_ty),
                    kind: TExprKind::Lambda {
                        param,
                        param_ty: field,
                        body: Box::new(body),
                    },
                    span,
                })
            }
            _ => {
                // Eta-expand over the field tuple: `fn t => C (#1 t, ...)`.
                let param = self.fresh_name("eta");
                let tup_ty = Type::Tuple(fields.clone());
                let args = fields
                    .iter()
                    .enumerate()
                    .map(|(i, fty)| TExpr {
                        kind: TExprKind::Proj {
                            tuple: Box::new(TExpr {
                                kind: TExprKind::Var {
                                    name: param.clone(),
                                    kind: VarKind::Local,
                                    inst: Some(Vec::new()),
                                },
                                ty: tup_ty.clone(),
                                span,
                            }),
                            index: i as u32,
                        },
                        ty: fty.clone(),
                        span,
                    })
                    .collect();
                let body = TExpr {
                    kind: TExprKind::Ctor { data, tag, args },
                    ty: data_ty.clone(),
                    span,
                };
                Ok(TExpr {
                    ty: Type::arrow(tup_ty.clone(), data_ty),
                    kind: TExprKind::Lambda {
                        param,
                        param_ty: tup_ty,
                        body: Box::new(body),
                    },
                    span,
                })
            }
        }
    }

    fn elab_ctor_app(&mut self, name: &str, arg: &s::Expr, span: Span) -> TypeResult<TExpr> {
        let (data, tag, ty_args, fields) = self.ctor_info(name, span)?;
        let data_ty = Type::Data(data, ty_args);
        match fields.len() {
            0 => Err(TypeError::new(
                span,
                format!("constructor `{name}` takes no argument"),
            )),
            1 => {
                let ta = self.elab_expr(arg)?;
                self.cx.unify(&ta.ty, &fields[0], span)?;
                Ok(TExpr {
                    kind: TExprKind::Ctor {
                        data,
                        tag,
                        args: vec![ta],
                    },
                    ty: data_ty,
                    span,
                })
            }
            n => {
                if let s::ExprKind::Tuple(es) = &arg.kind {
                    if es.len() == n {
                        let mut targs = Vec::new();
                        for (e, fty) in es.iter().zip(&fields) {
                            let te = self.elab_expr(e)?;
                            self.cx.unify(&te.ty, fty, e.span)?;
                            targs.push(te);
                        }
                        return Ok(TExpr {
                            kind: TExprKind::Ctor {
                                data,
                                tag,
                                args: targs,
                            },
                            ty: data_ty,
                            span,
                        });
                    }
                }
                // General case: bind the tuple, project each field.
                let ta = self.elab_expr(arg)?;
                let tup_ty = Type::Tuple(fields.clone());
                self.cx.unify(&ta.ty, &tup_ty, span)?;
                let tmp = self.fresh_name("ctorarg");
                let args = fields
                    .iter()
                    .enumerate()
                    .map(|(i, fty)| TExpr {
                        kind: TExprKind::Proj {
                            tuple: Box::new(TExpr {
                                kind: TExprKind::Var {
                                    name: tmp.clone(),
                                    kind: VarKind::Local,
                                    inst: Some(Vec::new()),
                                },
                                ty: tup_ty.clone(),
                                span,
                            }),
                            index: i as u32,
                        },
                        ty: fty.clone(),
                        span,
                    })
                    .collect();
                let body = TExpr {
                    kind: TExprKind::Ctor { data, tag, args },
                    ty: data_ty.clone(),
                    span,
                };
                Ok(TExpr {
                    ty: data_ty,
                    kind: TExprKind::Let {
                        binds: vec![TLetBind::Val {
                            pat: TPat {
                                kind: TPatKind::Var(tmp),
                                ty: tup_ty,
                                span,
                            },
                            rhs: ta,
                            scheme: None,
                        }],
                        body: Box::new(body),
                    },
                    span,
                })
            }
        }
    }

    fn elab_binop(&mut self, op: BinOp, a: &s::Expr, b: &s::Expr, span: Span) -> TypeResult<TExpr> {
        // Short-circuit operators desugar to `if`.
        if op == BinOp::And || op == BinOp::Or {
            let ta = self.elab_expr(a)?;
            self.cx.unify(&ta.ty, &Type::Bool, a.span)?;
            let tb = self.elab_expr(b)?;
            self.cx.unify(&tb.ty, &Type::Bool, b.span)?;
            let lit = |v: bool| TExpr {
                kind: TExprKind::Bool(v),
                ty: Type::Bool,
                span,
            };
            let (then, els) = if op == BinOp::And {
                (tb, lit(false))
            } else {
                (lit(true), tb)
            };
            return Ok(TExpr {
                kind: TExprKind::If {
                    cond: Box::new(ta),
                    then: Box::new(then),
                    els: Box::new(els),
                },
                ty: Type::Bool,
                span,
            });
        }
        let ta = self.elab_expr(a)?;
        let tb = self.elab_expr(b)?;
        // All remaining binary operators work on integers (structural
        // equality on aggregates is intentionally out of scope).
        self.cx.unify(&ta.ty, &Type::Int, a.span)?;
        self.cx.unify(&tb.ty, &Type::Int, b.span)?;
        let ty = if op.is_compare() {
            Type::Bool
        } else {
            Type::Int
        };
        Ok(TExpr {
            kind: TExprKind::BinOp {
                op,
                lhs: Box::new(ta),
                rhs: Box::new(tb),
            },
            ty,
            span,
        })
    }

    fn elab_pat(&mut self, pat: &s::Pat, expected: &Type) -> TypeResult<TPat> {
        let mut seen = HashSet::new();
        for v in pat.bound_vars() {
            if !seen.insert(v) {
                return Err(TypeError::new(
                    pat.span,
                    format!("variable `{v}` bound twice in pattern"),
                ));
            }
        }
        self.elab_pat_inner(pat, expected)
    }

    fn elab_pat_inner(&mut self, pat: &s::Pat, expected: &Type) -> TypeResult<TPat> {
        let span = pat.span;
        match &pat.kind {
            s::PatKind::Wild => Ok(TPat {
                kind: TPatKind::Wild,
                ty: expected.clone(),
                span,
            }),
            s::PatKind::Var(v) => {
                self.bind(
                    v.clone(),
                    Binding {
                        scheme: Scheme::mono(SchemeId(u32::MAX), expected.clone()),
                        kind: VarKind::Local,
                        rec_group: None,
                    },
                );
                Ok(TPat {
                    kind: TPatKind::Var(v.clone()),
                    ty: expected.clone(),
                    span,
                })
            }
            s::PatKind::Int(n) => {
                self.cx.unify(expected, &Type::Int, span)?;
                Ok(TPat {
                    kind: TPatKind::Int(*n),
                    ty: Type::Int,
                    span,
                })
            }
            s::PatKind::Bool(b) => {
                self.cx.unify(expected, &Type::Bool, span)?;
                Ok(TPat {
                    kind: TPatKind::Bool(*b),
                    ty: Type::Bool,
                    span,
                })
            }
            s::PatKind::Unit => {
                self.cx.unify(expected, &Type::Unit, span)?;
                Ok(TPat {
                    kind: TPatKind::Unit,
                    ty: Type::Unit,
                    span,
                })
            }
            s::PatKind::Tuple(ps) => {
                let tys: Vec<Type> = ps.iter().map(|_| self.cx.fresh()).collect();
                self.cx.unify(expected, &Type::Tuple(tys.clone()), span)?;
                let tps = ps
                    .iter()
                    .zip(&tys)
                    .map(|(p, t)| self.elab_pat_inner(p, t))
                    .collect::<TypeResult<Vec<_>>>()?;
                Ok(TPat {
                    kind: TPatKind::Tuple(tps),
                    ty: Type::Tuple(tys),
                    span,
                })
            }
            s::PatKind::Nil => {
                let elem = self.cx.fresh();
                self.cx.unify(expected, &Type::list(elem), span)?;
                Ok(TPat {
                    kind: TPatKind::Ctor {
                        data: crate::ty::LIST_DATA,
                        tag: crate::ty::NIL_TAG,
                        args: Vec::new(),
                    },
                    ty: self.cx.zonk(expected),
                    span,
                })
            }
            s::PatKind::Cons(h, t) => {
                let elem = self.cx.fresh();
                let list_ty = Type::list(elem.clone());
                self.cx.unify(expected, &list_ty, span)?;
                let th = self.elab_pat_inner(h, &elem)?;
                let tt = self.elab_pat_inner(t, &list_ty)?;
                Ok(TPat {
                    kind: TPatKind::Ctor {
                        data: crate::ty::LIST_DATA,
                        tag: crate::ty::CONS_TAG,
                        args: vec![th, tt],
                    },
                    ty: list_ty,
                    span,
                })
            }
            s::PatKind::Ascribe(inner, surface_ty) => {
                let mut tyvars = HashMap::new();
                let ann = self.conv_ty(surface_ty, &mut tyvars, true, span)?;
                self.cx.unify(expected, &ann, span)?;
                self.elab_pat_inner(inner, &ann)
            }
            s::PatKind::Ctor(name, arg) => {
                let (data, tag, ty_args, fields) = self.ctor_info(name, span)?;
                let data_ty = Type::Data(data, ty_args);
                self.cx.unify(expected, &data_ty, span)?;
                let args = match (fields.len(), arg) {
                    (0, None) => Vec::new(),
                    (0, Some(_)) => {
                        return Err(TypeError::new(
                            span,
                            format!("constructor `{name}` takes no argument"),
                        ))
                    }
                    (_, None) => {
                        return Err(TypeError::new(
                            span,
                            format!(
                                "constructor `{name}` expects {} field(s)",
                                fields.len()
                            ),
                        ))
                    }
                    (1, Some(p)) => vec![self.elab_pat_inner(p, &fields[0])?],
                    (n, Some(p)) => match &p.kind {
                        s::PatKind::Tuple(ps) if ps.len() == n => ps
                            .iter()
                            .zip(&fields)
                            .map(|(p, t)| self.elab_pat_inner(p, t))
                            .collect::<TypeResult<Vec<_>>>()?,
                        s::PatKind::Wild => fields
                            .iter()
                            .map(|t| {
                                Ok(TPat {
                                    kind: TPatKind::Wild,
                                    ty: t.clone(),
                                    span: p.span,
                                })
                            })
                            .collect::<TypeResult<Vec<_>>>()?,
                        _ => {
                            return Err(TypeError::new(
                                span,
                                format!(
                                    "constructor `{name}` pattern must destructure {n} fields with a tuple pattern"
                                ),
                            ))
                        }
                    },
                };
                Ok(TPat {
                    kind: TPatKind::Ctor { data, tag, args },
                    ty: data_ty,
                    span,
                })
            }
        }
    }
}

/// The innermost binding of `name`. A free function rather than a method,
/// so that the binding can stay borrowed while the inference context
/// instantiates it.
fn lookup<'s>(scopes: &'s [Vec<(String, Binding)>], name: &str) -> Option<&'s Binding> {
    scopes
        .iter()
        .rev()
        .flat_map(|scope| scope.iter().rev())
        .find(|(n, _)| n == name)
        .map(|(_, b)| b)
}

/// The generic parameter a quantified variable becomes; other variables
/// stay as they are.
fn param_of(map: &HashMap<TvId, ParamId>, v: TvId) -> Type {
    match map.get(&v) {
        Some(p) => Type::Param(*p),
        None => Type::Var(v),
    }
}

/// The value restriction: only these right-hand sides generalize.
fn is_syntactic_value(e: &s::Expr) -> bool {
    match &e.kind {
        s::ExprKind::Int(_)
        | s::ExprKind::Bool(_)
        | s::ExprKind::Unit
        | s::ExprKind::Var(_)
        | s::ExprKind::Ctor(_)
        | s::ExprKind::Lambda(_, _) => true,
        s::ExprKind::Tuple(es) | s::ExprKind::List(es) => es.iter().all(is_syntactic_value),
        s::ExprKind::Cons(h, t) => is_syntactic_value(h) && is_syntactic_value(t),
        s::ExprKind::App(f, arg) => {
            matches!(&f.kind, s::ExprKind::Ctor(_)) && is_syntactic_value(arg)
        }
        s::ExprKind::Ann(inner, _) => is_syntactic_value(inner),
        _ => false,
    }
}

/// Defensive check: no `inst: None` markers survive elaboration.
fn validate_insts(p: &mut TProgram) -> TypeResult<()> {
    fn check(e: &mut TExpr) -> TypeResult<()> {
        let mut bad: Option<Span> = None;
        e.visit_vars_mut(&mut |_, _, inst| {
            if inst.is_none() && bad.is_none() {
                bad = Some(Span::SYNTH);
            }
        });
        match bad {
            Some(span) => Err(TypeError::new(
                span,
                "internal error: unresolved recursive instantiation",
            )),
            None => Ok(()),
        }
    }
    for f in &mut p.funs {
        check(&mut f.body)?;
    }
    for g in &mut p.globals {
        check(&mut g.init)?;
    }
    check(&mut p.main)
}
