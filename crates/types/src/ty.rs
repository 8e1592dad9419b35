//! Semantic types.
//!
//! During inference types contain unification variables ([`Type::Var`]).
//! When a `let`/`fun` binding is generalized, the quantified variables are
//! rewritten to *generic parameters* ([`Type::Param`]), each identified by
//! the [`SchemeId`] of the binding that introduced it. Generic parameters
//! are what Goldberg's polymorphic GC scheme (§3) must resolve at collection
//! time: a frame whose slot types mention `Param(p)` receives a
//! type_gc_routine for `p` from its caller's frame routine.

use std::collections::BTreeSet;
use std::fmt;

/// A unification variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TvId(pub u32);

/// Identifies the generalization point (a `fun` or polymorphic `val`
/// binding) that owns a set of generic parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SchemeId(pub u32);

/// A generic type parameter: the `index`-th quantified variable of the
/// binding `scheme`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ParamId {
    pub scheme: SchemeId,
    pub index: u32,
}

/// Identifies a datatype declaration. `DataId(0)` is always the builtin
/// `'a list`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DataId(pub u32);

/// The builtin list datatype.
pub const LIST_DATA: DataId = DataId(0);
/// Tag of the `[]` constructor of the builtin list.
pub const NIL_TAG: u32 = 0;
/// Tag of the `::` constructor of the builtin list.
pub const CONS_TAG: u32 = 1;

/// A semantic type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Type {
    Int,
    Bool,
    Unit,
    /// Unification variable (inference-time only; none survive elaboration).
    Var(TvId),
    /// Generic parameter of an enclosing generalized binding.
    Param(ParamId),
    /// Tuple of arity ≥ 2.
    Tuple(Vec<Type>),
    /// Function type.
    Arrow(Box<Type>, Box<Type>),
    /// A datatype applied to its arguments (`list` is `Data(LIST_DATA, _)`).
    Data(DataId, Vec<Type>),
}

impl Type {
    /// `t list`.
    pub fn list(elem: Type) -> Type {
        Type::Data(LIST_DATA, vec![elem])
    }

    /// `a -> b`.
    pub fn arrow(a: Type, b: Type) -> Type {
        Type::Arrow(Box::new(a), Box::new(b))
    }

    /// Curried arrow `t1 -> t2 -> ... -> ret`.
    pub fn arrow_n(params: impl IntoIterator<Item = Type>, ret: Type) -> Type {
        let params: Vec<Type> = params.into_iter().collect();
        params
            .into_iter()
            .rev()
            .fold(ret, |acc, p| Type::arrow(p, acc))
    }

    /// True when the type contains no [`Type::Var`] and no [`Type::Param`].
    pub fn is_ground(&self) -> bool {
        match self {
            Type::Int | Type::Bool | Type::Unit => true,
            Type::Var(_) | Type::Param(_) => false,
            Type::Tuple(ts) | Type::Data(_, ts) => ts.iter().all(Type::is_ground),
            Type::Arrow(a, b) => a.is_ground() && b.is_ground(),
        }
    }

    /// Collects generic parameters appearing in the type.
    pub fn params(&self, out: &mut BTreeSet<ParamId>) {
        match self {
            Type::Param(p) => {
                out.insert(*p);
            }
            Type::Tuple(ts) | Type::Data(_, ts) => {
                for t in ts {
                    t.params(out);
                }
            }
            Type::Arrow(a, b) => {
                a.params(out);
                b.params(out);
            }
            _ => {}
        }
    }

    /// Applies `f` to every [`Type::Param`] leaf, rebuilding the type.
    pub fn map_params(&self, f: &mut impl FnMut(ParamId) -> Type) -> Type {
        match self {
            Type::Param(p) => f(*p),
            Type::Int | Type::Bool | Type::Unit | Type::Var(_) => self.clone(),
            Type::Tuple(ts) => Type::Tuple(ts.iter().map(|t| t.map_params(f)).collect()),
            Type::Data(d, ts) => Type::Data(*d, ts.iter().map(|t| t.map_params(f)).collect()),
            Type::Arrow(a, b) => Type::arrow(a.map_params(f), b.map_params(f)),
        }
    }

    /// Splits a curried arrow into (argument types, final result).
    pub fn uncurry(&self) -> (Vec<&Type>, &Type) {
        let mut args = Vec::new();
        let mut cur = self;
        while let Type::Arrow(a, b) = cur {
            args.push(a.as_ref());
            cur = b;
        }
        (args, cur)
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_prec(self, 0, f)
    }
}

fn fmt_prec(t: &Type, prec: u8, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    match t {
        Type::Int => write!(f, "int"),
        Type::Bool => write!(f, "bool"),
        Type::Unit => write!(f, "unit"),
        Type::Var(TvId(n)) => write!(f, "?{n}"),
        Type::Param(p) => write!(f, "'p{}_{}", p.scheme.0, p.index),
        Type::Tuple(ts) => {
            if prec >= 1 {
                write!(f, "(")?;
            }
            for (i, t) in ts.iter().enumerate() {
                if i > 0 {
                    write!(f, " * ")?;
                }
                fmt_prec(t, 2, f)?;
            }
            if prec >= 1 {
                write!(f, ")")?;
            }
            Ok(())
        }
        Type::Arrow(a, b) => {
            if prec >= 1 {
                write!(f, "(")?;
            }
            fmt_prec(a, 1, f)?;
            write!(f, " -> ")?;
            fmt_prec(b, 0, f)?;
            if prec >= 1 {
                write!(f, ")")?;
            }
            Ok(())
        }
        Type::Data(d, args) => {
            if *d == LIST_DATA {
                fmt_prec(&args[0], 2, f)?;
                return write!(f, " list");
            }
            match args.len() {
                0 => write!(f, "data{}", d.0),
                1 => {
                    fmt_prec(&args[0], 2, f)?;
                    write!(f, " data{}", d.0)
                }
                _ => {
                    write!(f, "(")?;
                    for (i, a) in args.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        fmt_prec(a, 0, f)?;
                    }
                    write!(f, ") data{}", d.0)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrow_n_builds_curried_type() {
        let t = Type::arrow_n([Type::Int, Type::Bool], Type::Unit);
        assert_eq!(
            t,
            Type::arrow(Type::Int, Type::arrow(Type::Bool, Type::Unit))
        );
        let (args, ret) = t.uncurry();
        assert_eq!(args.len(), 2);
        assert_eq!(*ret, Type::Unit);
    }

    #[test]
    fn groundness() {
        assert!(Type::list(Type::Int).is_ground());
        assert!(!Type::list(Type::Var(TvId(0))).is_ground());
        let p = Type::Param(ParamId {
            scheme: SchemeId(0),
            index: 0,
        });
        assert!(!p.is_ground());
    }

    #[test]
    fn display_is_readable() {
        let t = Type::arrow(
            Type::list(Type::Int),
            Type::Tuple(vec![Type::Int, Type::Bool]),
        );
        assert_eq!(t.to_string(), "int list -> int * bool");
    }

    #[test]
    fn map_params_substitutes() {
        let p = ParamId {
            scheme: SchemeId(7),
            index: 0,
        };
        let t = Type::list(Type::Param(p));
        let s = t.map_params(&mut |q| {
            assert_eq!(q, p);
            Type::Bool
        });
        assert_eq!(s, Type::list(Type::Bool));
    }
}
