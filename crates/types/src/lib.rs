//! # tfgc-types — Hindley–Milner inference for TFML
//!
//! Elaborates parsed TFML ([`tfgc_syntax`]) into a typed AST whose every
//! node carries its type, whose every use of a polymorphic binding
//! carries the static instantiation vector θ, and whose every binder has
//! a unique name ([`alpha`]). In Goldberg's polymorphic
//! tag-free collector (PLDI 1991, §3), θ is exactly what a caller's
//! `frame_gc_routine` evaluates — under its own type_gc_routine
//! environment — to parameterize the callee's frame routine.
//!
//! ```
//! use tfgc_syntax::parse_program;
//! use tfgc_types::{elaborate, is_monomorphic, Type};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ast = parse_program(
//!     "fun append [] ys = ys
//!        | append (x :: xs) ys = x :: append xs ys ;
//!      append [1, 2] [3]",
//! )?;
//! let typed = elaborate(&ast)?;
//! // `append` is polymorphic: forall 'a. 'a list -> 'a list -> 'a list
//! assert_eq!(typed.funs[0].scheme.num_params, 1);
//! assert!(!is_monomorphic(&typed));
//! assert_eq!(typed.main.ty, Type::list(Type::Int));
//! # Ok(())
//! # }
//! ```

pub mod alpha;
pub mod datatypes;
pub mod error;
pub mod infer;
pub mod mono;
pub mod scheme;
pub mod tast;
pub mod ty;
pub mod unify;

pub use alpha::{alpha_rename, binders_unique};
pub use datatypes::{data_param, data_scheme, CtorDef, DataDef, DataEnv};
pub use error::{TypeError, TypeResult};
pub use infer::elaborate;
pub use mono::is_monomorphic;
pub use scheme::Scheme;
pub use tast::{
    TArm, TExpr, TExprKind, TFun, TGlobal, TLetBind, TPat, TPatKind, TProgram, VarKind,
};
pub use ty::{DataId, ParamId, SchemeId, TvId, Type, CONS_TAG, LIST_DATA, NIL_TAG};
pub use unify::InferCtx;

#[cfg(test)]
mod tests {
    use super::*;
    use tfgc_syntax::parse_program;

    fn typed(src: &str) -> TProgram {
        elaborate(&parse_program(src).expect("parse")).expect("elaborate")
    }

    fn typed_err(src: &str) -> TypeError {
        elaborate(&parse_program(src).expect("parse")).expect_err("expected type error")
    }

    #[test]
    fn literals_and_arith() {
        let p = typed("1 + 2 * 3");
        assert_eq!(p.main.ty, Type::Int);
    }

    #[test]
    fn monomorphic_function() {
        let p = typed("fun double x = x + x ; double 21");
        assert_eq!(p.funs[0].scheme.num_params, 0);
        assert_eq!(p.funs[0].arrow_ty(), Type::arrow(Type::Int, Type::Int));
        assert!(is_monomorphic(&p));
    }

    #[test]
    fn polymorphic_identity() {
        let p = typed("fun id x = x ; id 1");
        assert_eq!(p.funs[0].scheme.num_params, 1);
        assert_eq!(p.main.ty, Type::Int);
        assert!(!is_monomorphic(&p));
    }

    #[test]
    fn instantiations_recorded_at_use() {
        let p = typed("fun id x = x ; (id 1, id true)");
        // The two uses of `id` carry distinct ground instantiations.
        let mut insts = Vec::new();
        let mut main = p.main.clone();
        main.visit_vars_mut(&mut |name, _, inst| {
            // Binders are renamed `id#u<n>`; match the source stem.
            if name.split("#u").next() == Some("id") {
                insts.push(inst.clone().expect("resolved"));
            }
        });
        assert_eq!(insts.len(), 2);
        assert_eq!(insts[0], vec![Type::Int]);
        assert_eq!(insts[1], vec![Type::Bool]);
    }

    #[test]
    fn paper_append_is_polymorphic() {
        let p = typed(
            "fun append [] ys = ys | append (x :: xs) ys = x :: append xs ys ;
             append [1] [2]",
        );
        let f = &p.funs[0];
        assert_eq!(f.scheme.num_params, 1);
        // 'a list -> 'a list -> 'a list
        let (args, ret) = f.scheme.ty.uncurry();
        assert_eq!(args.len(), 2);
        assert_eq!(args[0], args[1]);
        assert_eq!(args[0], ret);
    }

    #[test]
    fn monomorphic_append_with_annotation() {
        let p = typed(
            "fun append [] (ys : int list) = ys
               | append (x :: xs) ys = x :: append xs ys ;
             append [1] [2]",
        );
        assert_eq!(p.funs[0].scheme.num_params, 0);
        assert!(is_monomorphic(&p));
    }

    #[test]
    fn recursive_use_gets_identity_instantiation() {
        let p = typed("fun len xs = case xs of [] => 0 | _ :: t => 1 + len t ; len [true]");
        let f = &p.funs[0];
        assert_eq!(f.scheme.num_params, 1);
        let mut rec_inst = None;
        let mut body = f.body.clone();
        body.visit_vars_mut(&mut |name, _, inst| {
            if name.split("#u").next() == Some("len") {
                rec_inst = inst.clone();
            }
        });
        let inst = rec_inst.expect("recursive use present").clone();
        assert_eq!(inst.len(), 1);
        // Identity: the instantiation is the function's own parameter.
        assert_eq!(
            inst[0],
            Type::Param(ParamId {
                scheme: f.scheme.id,
                index: 0
            })
        );
    }

    #[test]
    fn datatype_and_case() {
        let p = typed(
            "datatype 'a tree = Leaf | Node of 'a tree * 'a * 'a tree ;
             fun size t = case t of Leaf => 0 | Node (l, _, r) => 1 + size l + size r ;
             size (Node (Leaf, 5, Leaf))",
        );
        assert_eq!(p.main.ty, Type::Int);
        assert_eq!(p.funs[0].scheme.num_params, 1);
    }

    #[test]
    fn higher_order_map() {
        let p = typed(
            "fun map f xs = case xs of [] => [] | x :: rest => f x :: map f rest ;
             map (fn x => x + 1) [1, 2, 3]",
        );
        assert_eq!(p.funs[0].scheme.num_params, 2);
        assert_eq!(p.main.ty, Type::list(Type::Int));
    }

    #[test]
    fn mutual_recursion_types() {
        let p = typed(
            "fun even n = if n = 0 then true else odd (n - 1)
             and odd n = if n = 0 then false else even (n - 1) ;
             even 10",
        );
        assert_eq!(p.funs.len(), 2);
        assert_eq!(p.main.ty, Type::Bool);
        assert!(is_monomorphic(&p));
    }

    #[test]
    fn value_restriction_blocks_generalization() {
        // `id id` is not a syntactic value, so `f` stays monomorphic; using
        // it at two types must fail.
        let err = typed_err(
            "fun id x = x ;
             let val f = id id in (f 1, f true) end",
        );
        assert!(err.message.contains("mismatch"));
    }

    #[test]
    fn let_polymorphism_with_value_rhs() {
        let p = typed("let val f = fn x => x in (f 1, f true) end");
        assert_eq!(p.main.ty, Type::Tuple(vec![Type::Int, Type::Bool]));
    }

    #[test]
    fn paper_polymorphic_f_example() {
        // §3: fun f x = let val y = [x, x] in (y, [3]) end ... (f [true], f 7)
        let p = typed(
            "fun f x = let val y = [x, x] in (y, [3]) end ;
             (f [true], f 7)",
        );
        assert_eq!(p.funs[0].scheme.num_params, 1);
        assert_eq!(
            p.main.ty,
            Type::Tuple(vec![
                Type::Tuple(vec![
                    Type::list(Type::list(Type::Bool)),
                    Type::list(Type::Int)
                ]),
                Type::Tuple(vec![Type::list(Type::Int), Type::list(Type::Int)]),
            ])
        );
    }

    #[test]
    fn unconstrained_defaults_to_int() {
        let p = typed("let val xs = [] in xs end");
        assert_eq!(p.main.ty, Type::list(Type::Int));
    }

    #[test]
    fn rejects_unbound_variable() {
        let err = typed_err("x + 1");
        assert!(err.message.contains("unbound variable"));
    }

    #[test]
    fn rejects_bad_ctor_arity() {
        let err = typed_err(
            "datatype t = C of int * int ;
             case C (1, 2) of C x => x",
        );
        assert!(err.message.contains("destructure"));
    }

    #[test]
    fn rejects_duplicate_pattern_variable() {
        let err = typed_err("case (1, 2) of (x, x) => x");
        assert!(err.message.contains("bound twice"));
    }

    #[test]
    fn rejects_if_branch_mismatch() {
        let err = typed_err("if true then 1 else false");
        assert!(err.message.contains("mismatch"));
    }

    #[test]
    fn rejects_occurs_check() {
        let err = typed_err("fun f x = x x ; 0");
        assert!(err.message.contains("infinite type"));
    }

    #[test]
    fn globals_elaborate() {
        let p = typed(
            "val base = 10 ;
             fun add x = x + base ;
             add 5",
        );
        assert_eq!(p.globals.len(), 1);
        assert_eq!(p.globals[0].scheme.ty, Type::Int);
        assert!(is_monomorphic(&p));
    }

    #[test]
    fn polymorphic_global_value() {
        let p = typed(
            "val empty = [] ;
             fun one x = x :: empty ;
             (one 1, one true)",
        );
        assert_eq!(p.globals[0].scheme.num_params, 1);
    }

    #[test]
    fn ctor_used_as_function_value() {
        let p = typed(
            "datatype box = B of int ;
             fun map f xs = case xs of [] => [] | x :: rest => f x :: map f rest ;
             map B [1, 2]",
        );
        match &p.main.ty {
            Type::Data(LIST_DATA, args) => {
                assert!(matches!(args[0], Type::Data(_, _)));
            }
            other => panic!("expected box list, got {other}"),
        }
    }

    #[test]
    fn print_is_builtin() {
        let p = typed("(print 1; print 2; 0)");
        assert_eq!(p.main.ty, Type::Int);
    }

    #[test]
    fn nested_polymorphic_lets() {
        let p = typed(
            "fun outer x =
               let fun inner y = (x, y) in (inner 1, inner true) end ;
             outer 9",
        );
        // outer is polymorphic in x; inner is polymorphic in y but fixed
        // in x.
        assert_eq!(p.funs[0].scheme.num_params, 1);
    }

    #[test]
    fn seq_keeps_rhs_type() {
        let p = typed("(print 5; [1])");
        assert_eq!(p.main.ty, Type::list(Type::Int));
    }

    #[test]
    fn variant_record_paper_2_3() {
        // §2.3: ML datatypes are the variant records of Pascal/Ada.
        let p = typed(
            "datatype shape = Circle of int | Rect of int * int | Point ;
             fun area s = case s of Circle r => 3 * r * r | Rect (w, h) => w * h | Point => 0 ;
             area (Rect (3, 4))",
        );
        assert_eq!(p.main.ty, Type::Int);
        assert!(is_monomorphic(&p));
    }
}
