//! Alpha-renaming, the last step of [`crate::elaborate`].
//!
//! Rewrites a typed program so every binder introduces a globally unique
//! name (`x` becomes `x#u3`). Lowering then resolves variables, lambda
//! captures, and lifted `let fun` extra parameters by name with no
//! shadowing hazards. Unresolved names (builtins such as `print`) are
//! left untouched.
//!
//! Binders are numbered in a fixed order: global names, function names,
//! global initialisers, function bodies, then `main`. The numbers appear
//! in IR function names and so in allocation-site labels. Renaming an
//! already renamed program changes nothing.

use crate::tast::{TExpr, TExprKind, TFun, TLetBind, TPat, TPatKind, TProgram};
use std::collections::{HashMap, HashSet};

/// Renames every binder in the program to a unique name.
pub fn alpha_rename(p: &mut TProgram) {
    let mut ren = Renamer::default();
    // Top-level names are unique (the elaborator rejects redefinition), so
    // a flat scope containing every top-level binding is exact regardless
    // of the original fun/val interleaving.
    for g in &mut p.globals {
        ren.bind(&mut g.name);
    }
    for f in &mut p.funs {
        ren.bind(&mut f.name);
    }
    for g in &mut p.globals {
        ren.rename_expr(&mut g.init);
    }
    for f in &mut p.funs {
        let mark = ren.mark();
        for (name, _) in &mut f.params {
            ren.bind(name);
        }
        ren.rename_expr(&mut f.body);
        ren.restore(mark);
    }
    ren.rename_expr(&mut p.main);
}

/// True when no two binders of the program share a name, as
/// [`alpha_rename`] guarantees.
pub fn binders_unique(p: &TProgram) -> bool {
    fn pat<'p>(pat: &'p TPat, seen: &mut HashSet<&'p str>) -> bool {
        pat.bindings().into_iter().all(|(v, _)| seen.insert(v))
    }
    fn fun<'p>(f: &'p TFun, seen: &mut HashSet<&'p str>) -> bool {
        seen.insert(&f.name) && f.params.iter().all(|(n, _)| seen.insert(n)) && expr(&f.body, seen)
    }
    fn expr<'p>(e: &'p TExpr, seen: &mut HashSet<&'p str>) -> bool {
        match &e.kind {
            TExprKind::Var { .. } | TExprKind::Int(_) | TExprKind::Bool(_) | TExprKind::Unit => {
                true
            }
            TExprKind::Tuple(es) | TExprKind::Ctor { args: es, .. } => {
                es.iter().all(|x| expr(x, seen))
            }
            TExprKind::Proj { tuple, .. } => expr(tuple, seen),
            TExprKind::App { f, arg } => expr(f, seen) && expr(arg, seen),
            TExprKind::BinOp { lhs, rhs, .. } => expr(lhs, seen) && expr(rhs, seen),
            TExprKind::UnOp { operand, .. } => expr(operand, seen),
            TExprKind::If { cond, then, els } => {
                expr(cond, seen) && expr(then, seen) && expr(els, seen)
            }
            TExprKind::Case { scrut, arms } => {
                expr(scrut, seen)
                    && arms
                        .iter()
                        .all(|arm| pat(&arm.pat, seen) && expr(&arm.body, seen))
            }
            TExprKind::Let { binds, body } => {
                binds.iter().all(|b| match b {
                    TLetBind::Val { pat: p, rhs, .. } => expr(rhs, seen) && pat(p, seen),
                    TLetBind::Fun(funs) => funs.iter().all(|f| fun(f, seen)),
                }) && expr(body, seen)
            }
            TExprKind::Lambda { param, body, .. } => seen.insert(param) && expr(body, seen),
            TExprKind::Seq(a, b) => expr(a, seen) && expr(b, seen),
        }
    }
    let mut seen = HashSet::new();
    p.globals
        .iter()
        .all(|g| seen.insert(g.name.as_str()) && expr(&g.init, &mut seen))
        && p.funs.iter().all(|f| fun(f, &mut seen))
        && expr(&p.main, &mut seen)
}

/// The renaming state. `scope` maps each source name in scope to its
/// unique name; `undo` records what each binding shadowed, so leaving a
/// scope restores the enclosing one without copying the map.
#[derive(Default)]
struct Renamer {
    counter: u32,
    scope: HashMap<String, String>,
    undo: Vec<(String, Option<String>)>,
}

impl Renamer {
    fn fresh(&mut self, base: &str) -> String {
        let n = self.counter;
        self.counter += 1;
        // Strip any previous uniquing suffix to keep names readable.
        let stem = base.split("#u").next().unwrap_or(base);
        format!("{stem}#u{n}")
    }

    /// Renames the binder `name` and brings it into scope.
    fn bind(&mut self, name: &mut String) {
        let fresh = self.fresh(name);
        let source = std::mem::replace(name, fresh.clone());
        let shadowed = self.scope.insert(source.clone(), fresh);
        self.undo.push((source, shadowed));
    }

    fn mark(&self) -> usize {
        self.undo.len()
    }

    /// Drops every binding made since `mark`.
    fn restore(&mut self, mark: usize) {
        for (source, shadowed) in self.undo.drain(mark..).rev() {
            match shadowed {
                Some(outer) => self.scope.insert(source, outer),
                None => self.scope.remove(&source),
            };
        }
    }

    fn rename_pat(&mut self, pat: &mut TPat) {
        match &mut pat.kind {
            TPatKind::Var(v) => self.bind(v),
            TPatKind::Tuple(ps) | TPatKind::Ctor { args: ps, .. } => {
                for p in ps {
                    self.rename_pat(p);
                }
            }
            _ => {}
        }
    }

    /// Renames the uses and binders of `e`; leaves the scope as it found
    /// it.
    fn rename_expr(&mut self, e: &mut TExpr) {
        match &mut e.kind {
            TExprKind::Var { name, .. } => {
                if let Some(new) = self.scope.get(name) {
                    name.clone_from(new);
                }
            }
            TExprKind::Int(_) | TExprKind::Bool(_) | TExprKind::Unit => {}
            TExprKind::Tuple(es) | TExprKind::Ctor { args: es, .. } => {
                for x in es {
                    self.rename_expr(x);
                }
            }
            TExprKind::Proj { tuple, .. } => self.rename_expr(tuple),
            TExprKind::App { f, arg } => {
                self.rename_expr(f);
                self.rename_expr(arg);
            }
            TExprKind::BinOp { lhs, rhs, .. } => {
                self.rename_expr(lhs);
                self.rename_expr(rhs);
            }
            TExprKind::UnOp { operand, .. } => self.rename_expr(operand),
            TExprKind::If { cond, then, els } => {
                self.rename_expr(cond);
                self.rename_expr(then);
                self.rename_expr(els);
            }
            TExprKind::Case { scrut, arms } => {
                self.rename_expr(scrut);
                for arm in arms {
                    let mark = self.mark();
                    self.rename_pat(&mut arm.pat);
                    self.rename_expr(&mut arm.body);
                    self.restore(mark);
                }
            }
            TExprKind::Let { binds, body } => {
                let mark = self.mark();
                for b in binds {
                    match b {
                        TLetBind::Val { pat, rhs, .. } => {
                            self.rename_expr(rhs);
                            self.rename_pat(pat);
                        }
                        TLetBind::Fun(funs) => {
                            for f in funs.iter_mut() {
                                self.bind(&mut f.name);
                            }
                            for f in funs.iter_mut() {
                                let fmark = self.mark();
                                for (name, _) in &mut f.params {
                                    self.bind(name);
                                }
                                self.rename_expr(&mut f.body);
                                self.restore(fmark);
                            }
                        }
                    }
                }
                self.rename_expr(body);
                self.restore(mark);
            }
            TExprKind::Lambda { param, body, .. } => {
                let mark = self.mark();
                self.bind(param);
                self.rename_expr(body);
                self.restore(mark);
            }
            TExprKind::Seq(a, b) => {
                self.rename_expr(a);
                self.rename_expr(b);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elaborate;
    use tfgc_syntax::parse_program;

    /// `elaborate` renames as its last step.
    fn renamed(src: &str) -> TProgram {
        elaborate(&parse_program(src).unwrap()).unwrap()
    }

    fn collect_names(e: &TExpr, out: &mut Vec<String>) {
        let mut c = e.clone();
        c.visit_vars_mut(&mut |name, _, _| out.push(name.to_string()));
    }

    #[test]
    fn shadowed_locals_get_distinct_names() {
        let p = renamed("let val x = 1 in let val x = 2 in x end end");
        // The inner use must reference the inner binder.
        let mut names = Vec::new();
        collect_names(&p.main, &mut names);
        assert_eq!(names.len(), 1);
        assert!(names[0].contains("#u"), "renamed: {names:?}");
    }

    #[test]
    fn builtin_print_is_untouched() {
        let p = renamed("(print 1; 0)");
        let mut names = Vec::new();
        collect_names(&p.main, &mut names);
        assert!(names.contains(&"print".to_string()));
    }

    #[test]
    fn function_params_renamed_consistently() {
        let p = renamed("fun f x = x + x ; f 3");
        let f = &p.funs[0];
        let pname = f.params[0].0.clone();
        let mut names = Vec::new();
        collect_names(&f.body, &mut names);
        assert!(names.iter().all(|n| *n == pname));
    }

    #[test]
    fn recursive_use_tracks_renamed_function() {
        let p = renamed("fun loop n = if n = 0 then 0 else loop (n - 1) ; loop 3");
        let fname = p.funs[0].name.clone();
        assert!(fname.contains("#u"));
        let mut names = Vec::new();
        collect_names(&p.funs[0].body, &mut names);
        assert!(names.contains(&fname));
    }

    #[test]
    fn binders_unique_detects_a_shared_name() {
        let mut p = renamed("fun f x = x ; fun g x = x ; f (g 1)");
        assert!(binders_unique(&p));
        p.funs[1].params[0].0 = p.funs[0].params[0].0.clone();
        assert!(!binders_unique(&p));
    }
}
