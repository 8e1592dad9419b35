//! Unification engine.
//!
//! The substitution is shared rather than copied: a bound variable holds
//! an `Rc<Type>`, following a binding hands out a reference into it, and
//! binding a variable to a head that was itself reached through a binding
//! shares that head. Only [`InferCtx::zonk`] and
//! [`InferCtx::zonk_map_in_place`] build new types, and the latter
//! rebuilds only the nodes that contain a variable.

use crate::error::{TypeError, TypeResult};
use crate::ty::{TvId, Type};
use std::rc::Rc;
use tfgc_syntax::Span;

/// Inference context: allocates unification variables and maintains the
/// global substitution.
#[derive(Debug, Default)]
pub struct InferCtx {
    bindings: Vec<Option<Rc<Type>>>,
}

impl InferCtx {
    /// Creates an empty context.
    pub fn new() -> Self {
        InferCtx::default()
    }

    /// Allocates a fresh unification variable.
    pub fn fresh(&mut self) -> Type {
        let id = TvId(self.bindings.len() as u32);
        self.bindings.push(None);
        Type::Var(id)
    }

    /// Follows bindings until the head of `t` is not a bound variable.
    pub fn shallow_resolve<'a>(&'a self, t: &'a Type) -> &'a Type {
        self.last_binding(t).map_or(t, Rc::as_ref)
    }

    /// The binding that the chain of bound variables from `t` ends in;
    /// `None` unless `t` is a bound variable.
    fn last_binding<'a>(&'a self, t: &'a Type) -> Option<&'a Rc<Type>> {
        let mut last = None;
        let mut cur = t;
        while let Type::Var(v) = cur {
            match &self.bindings[v.0 as usize] {
                Some(bound) => {
                    last = Some(bound);
                    cur = bound;
                }
                None => break,
            }
        }
        last
    }

    /// Fully applies the substitution to `t`.
    pub fn zonk(&self, t: &Type) -> Type {
        self.zonk_map(t, &mut Type::Var)
    }

    /// Fully applies the substitution to `t` and replaces each variable
    /// left unbound by `f(var)`.
    pub fn zonk_map(&self, t: &Type, f: &mut impl FnMut(TvId) -> Type) -> Type {
        match self.shallow_resolve(t) {
            Type::Var(v) => f(*v),
            Type::Tuple(ts) => Type::Tuple(ts.iter().map(|t| self.zonk_map(t, f)).collect()),
            Type::Data(d, ts) => Type::Data(*d, ts.iter().map(|t| self.zonk_map(t, f)).collect()),
            Type::Arrow(a, b) => Type::arrow(self.zonk_map(a, f), self.zonk_map(b, f)),
            leaf => leaf.clone(),
        }
    }

    /// [`InferCtx::zonk_map`] in place: nodes without a variable are left
    /// as they are.
    pub fn zonk_map_in_place(&self, t: &mut Type, f: &mut impl FnMut(TvId) -> Type) {
        match t {
            Type::Var(_) => *t = self.zonk_map(t, f),
            Type::Tuple(ts) | Type::Data(_, ts) => {
                for t in ts {
                    self.zonk_map_in_place(t, f);
                }
            }
            Type::Arrow(a, b) => {
                self.zonk_map_in_place(a, f);
                self.zonk_map_in_place(b, f);
            }
            Type::Int | Type::Bool | Type::Unit | Type::Param(_) => {}
        }
    }

    /// Calls `f` on every variable left unbound in `t` under the
    /// substitution, in the order of [`InferCtx::zonk`]'s result.
    pub fn visit_free_vars(&self, t: &Type, f: &mut impl FnMut(TvId)) {
        match self.shallow_resolve(t) {
            Type::Var(v) => f(*v),
            Type::Tuple(ts) | Type::Data(_, ts) => {
                for t in ts {
                    self.visit_free_vars(t, f);
                }
            }
            Type::Arrow(a, b) => {
                self.visit_free_vars(a, f);
                self.visit_free_vars(b, f);
            }
            _ => {}
        }
    }

    /// Collects the variables left unbound in `t` into `out`, in
    /// first-occurrence order.
    pub fn free_vars(&self, t: &Type, out: &mut Vec<TvId>) {
        self.visit_free_vars(t, &mut |v| {
            if !out.contains(&v) {
                out.push(v);
            }
        });
    }

    fn occurs(&self, v: TvId, t: &Type) -> bool {
        match self.shallow_resolve(t) {
            Type::Var(w) => v == *w,
            Type::Tuple(ts) | Type::Data(_, ts) => ts.iter().any(|t| self.occurs(v, t)),
            Type::Arrow(a, b) => self.occurs(v, a) || self.occurs(v, b),
            _ => false,
        }
    }

    /// Unifies `a` with `b`, extending the substitution.
    ///
    /// # Errors
    ///
    /// Returns a [`TypeError`] at `span` on constructor clash, arity
    /// mismatch, or occurs-check failure.
    pub fn unify(&mut self, a: &Type, b: &Type, span: Span) -> TypeResult<()> {
        // Owning the heads' `Rc`s lets the match read them while it
        // extends the substitution.
        let bound_a = self.last_binding(a).cloned();
        let bound_b = self.last_binding(b).cloned();
        let a = bound_a.as_deref().unwrap_or(a);
        let b = bound_b.as_deref().unwrap_or(b);
        match (a, b) {
            (Type::Var(v), Type::Var(w)) if v == w => Ok(()),
            (Type::Var(v), other) | (other, Type::Var(v)) => {
                if self.occurs(*v, other) {
                    return Err(TypeError::new(
                        span,
                        format!(
                            "occurs check: cannot construct infinite type ?{} = {other}",
                            v.0
                        ),
                    ));
                }
                // Share `other` when it was itself reached through a
                // binding.
                let other_bound = if matches!(a, Type::Var(_)) {
                    &bound_b
                } else {
                    &bound_a
                };
                let shared = other_bound
                    .clone()
                    .unwrap_or_else(|| Rc::new(other.clone()));
                self.bindings[v.0 as usize] = Some(shared);
                Ok(())
            }
            (Type::Int, Type::Int) | (Type::Bool, Type::Bool) | (Type::Unit, Type::Unit) => Ok(()),
            (Type::Param(p), Type::Param(q)) if p == q => Ok(()),
            (Type::Tuple(xs), Type::Tuple(ys)) if xs.len() == ys.len() => {
                for (x, y) in xs.iter().zip(ys) {
                    self.unify(x, y, span)?;
                }
                Ok(())
            }
            (Type::Arrow(a1, r1), Type::Arrow(a2, r2)) => {
                self.unify(a1, a2, span)?;
                self.unify(r1, r2, span)
            }
            (Type::Data(d1, xs), Type::Data(d2, ys)) if d1 == d2 && xs.len() == ys.len() => {
                for (x, y) in xs.iter().zip(ys) {
                    self.unify(x, y, span)?;
                }
                Ok(())
            }
            _ => Err(TypeError::new(
                span,
                format!("type mismatch: expected {a}, found {b}"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfgc_syntax::Span;

    const S: Span = Span::SYNTH;

    #[test]
    fn unify_var_binds() {
        let mut cx = InferCtx::new();
        let v = cx.fresh();
        cx.unify(&v, &Type::Int, S).unwrap();
        assert_eq!(cx.zonk(&v), Type::Int);
    }

    #[test]
    fn unify_through_chains() {
        let mut cx = InferCtx::new();
        let a = cx.fresh();
        let b = cx.fresh();
        cx.unify(&a, &b, S).unwrap();
        cx.unify(&b, &Type::Bool, S).unwrap();
        assert_eq!(cx.zonk(&a), Type::Bool);
    }

    #[test]
    fn unify_structural() {
        let mut cx = InferCtx::new();
        let a = cx.fresh();
        let t1 = Type::list(a.clone());
        let t2 = Type::list(Type::Int);
        cx.unify(&t1, &t2, S).unwrap();
        assert_eq!(cx.zonk(&a), Type::Int);
    }

    #[test]
    fn occurs_check_fails() {
        let mut cx = InferCtx::new();
        let a = cx.fresh();
        let t = Type::list(a.clone());
        assert!(cx.unify(&a, &t, S).is_err());
    }

    #[test]
    fn free_vars_first_occurrence_order() {
        let mut cx = InferCtx::new();
        let vars: Vec<Type> = (0..4).map(|_| cx.fresh()).collect();
        let t = Type::Tuple(vec![
            Type::Var(TvId(3)),
            Type::Var(TvId(1)),
            Type::Var(TvId(3)),
        ]);
        let mut vs = Vec::new();
        cx.free_vars(&t, &mut vs);
        assert_eq!(vs, vec![TvId(3), TvId(1)]);
        // Read through bindings: ?0 := ?2 list puts ?2 where ?0 was.
        cx.unify(&vars[0], &Type::list(vars[2].clone()), S).unwrap();
        let mut vs = Vec::new();
        cx.free_vars(
            &Type::Tuple(vec![vars[0].clone(), vars[1].clone()]),
            &mut vs,
        );
        assert_eq!(vs, vec![TvId(2), TvId(1)]);
    }

    #[test]
    fn zonk_map_in_place_rewrites_only_variables() {
        let mut cx = InferCtx::new();
        let a = cx.fresh();
        let b = cx.fresh();
        cx.unify(&a, &Type::arrow(Type::Int, b.clone()), S).unwrap();
        let mut t = Type::Tuple(vec![a.clone(), Type::list(Type::Bool), b.clone()]);
        cx.zonk_map_in_place(&mut t, &mut |_| Type::Unit);
        assert_eq!(
            t,
            Type::Tuple(vec![
                Type::arrow(Type::Int, Type::Unit),
                Type::list(Type::Bool),
                Type::Unit
            ])
        );
        assert_eq!(
            cx.zonk_map(&a, &mut |_| Type::Unit),
            Type::arrow(Type::Int, Type::Unit)
        );
    }

    #[test]
    fn mismatch_reports_zonked_types() {
        let mut cx = InferCtx::new();
        let err = cx.unify(&Type::Int, &Type::Bool, S).unwrap_err();
        assert!(err.message.contains("int"));
        assert!(err.message.contains("bool"));
    }

    #[test]
    fn arrow_unification() {
        let mut cx = InferCtx::new();
        let a = cx.fresh();
        let b = cx.fresh();
        let f1 = Type::arrow(a.clone(), b.clone());
        let f2 = Type::arrow(Type::Int, Type::Bool);
        cx.unify(&f1, &f2, S).unwrap();
        assert_eq!(cx.zonk(&a), Type::Int);
        assert_eq!(cx.zonk(&b), Type::Bool);
    }
}
