//! # tfgc-ir — bytecode and lowering for the tag-free GC reproduction
//!
//! Compiles the typed AST of [`tfgc_types`] into a slot-machine bytecode
//! whose activation records are fully described at every call site: slot
//! types, the callee instantiation θ, and (for the polymorphic cases the
//! 1991 paper leaves open) hidden runtime type descriptors. The GC
//! metadata generators in `tfgc-gc` are driven entirely by this
//! representation.
//!
//! ```
//! use tfgc_syntax::parse_program;
//! use tfgc_types::elaborate;
//! use tfgc_ir::lower;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let typed = elaborate(&parse_program(
//!     "fun double x = x + x ; double 21",
//! )?)?;
//! let prog = lower(&typed)?;
//! assert!(prog.validate().is_ok());
//! // `double` plus `main`.
//! assert_eq!(prog.funs.len(), 2);
//! # Ok(())
//! # }
//! ```

pub mod display;
pub mod instr;
pub mod lower;
pub mod program;
pub mod rtti;

pub use instr::{ArithOp, CallSiteId, CmpOp, DescTemplateId, FnId, GlobalId, Instr, Slot, SlotTy};
pub use lower::{lower, lower_full, LowerError, LowerResult};
pub use program::{
    compute_ctor_reps, CallSite, CtorRep, FnKind, GlobalInfo, IrFun, IrProgram, ParamSource,
    SiteKind, IMM_LIMIT,
};
pub use rtti::{Creation, RttiInfo};

#[cfg(test)]
mod tests {
    use super::*;
    use tfgc_syntax::parse_program;
    use tfgc_types::{elaborate, Type};

    fn compile(src: &str) -> IrProgram {
        let typed = elaborate(&parse_program(src).expect("parse")).expect("types");
        let prog = lower(&typed).expect("lower");
        prog.validate().expect("valid program");
        prog
    }

    fn fun_by_name<'p>(p: &'p IrProgram, prefix: &str) -> &'p IrFun {
        p.funs
            .iter()
            .find(|f| f.name.starts_with(prefix))
            .unwrap_or_else(|| panic!("no function starting with `{prefix}`"))
    }

    #[test]
    fn lowers_arithmetic_program() {
        let p = compile("1 + 2 * 3");
        assert_eq!(p.funs.len(), 1); // just main
        let main = p.fun(p.main);
        assert!(main
            .code
            .iter()
            .any(|i| matches!(i, Instr::Arith(_, ArithOp::Mul, _, _))));
    }

    #[test]
    fn direct_call_with_known_arity() {
        let p = compile("fun add x y = x + y ; add 1 2");
        let main = p.fun(p.main);
        assert!(main
            .code
            .iter()
            .any(|i| matches!(i, Instr::CallDirect { args, .. } if args.len() == 2)));
        // No wrappers needed for a saturated call.
        assert_eq!(p.funs.len(), 2);
    }

    #[test]
    fn partial_application_generates_wrappers() {
        let p = compile("fun add x y = x + y ; let val inc = add 1 in inc 41 end");
        // add, main, wrap$0, wrap$1.
        assert!(p.funs.len() >= 4, "expected wrappers, got {}", p.funs.len());
        let main = p.fun(p.main);
        assert!(main
            .code
            .iter()
            .any(|i| matches!(i, Instr::MakeClosure { .. })));
        assert!(main
            .code
            .iter()
            .any(|i| matches!(i, Instr::CallClosure { .. })));
    }

    #[test]
    fn list_literal_lowered_to_conses() {
        let p = compile("[1, 2]");
        let main = p.fun(p.main);
        let conses = main
            .code
            .iter()
            .filter(|i| matches!(i, Instr::MakeData { .. }))
            .count();
        assert_eq!(conses, 2);
        // Nil is an immediate load, not an allocation.
        assert!(main.code.iter().any(|i| matches!(i, Instr::LoadInt(_, 0))));
    }

    #[test]
    fn case_compiles_to_tag_tests() {
        let p = compile("fun len xs = case xs of [] => 0 | _ :: t => 1 + len t ; len [1, 2, 3]");
        let len = fun_by_name(&p, "len");
        assert!(len
            .code
            .iter()
            .any(|i| matches!(i, Instr::BranchTagNe { .. })));
        assert!(len
            .code
            .iter()
            .any(|i| matches!(i, Instr::GetField(_, _, 1))));
    }

    #[test]
    fn paper_append_is_monomorphic_with_annotation() {
        // §2.4's `append` on int lists: no frame type parameters at all.
        let p = compile(
            "fun append [] (ys : int list) = ys
               | append (x :: xs) ys = x :: append xs ys ;
             append [1] [2]",
        );
        let append = fun_by_name(&p, "append");
        assert_eq!(append.frame_params.len(), 0, "monomorphic");
        assert!(append
            .code
            .iter()
            .any(|i| matches!(i, Instr::CallDirect { .. })));
    }

    #[test]
    fn polymorphic_callee_gets_theta() {
        let p = compile("fun id x = x ; id [1]");
        let id = fun_by_name(&p, "id");
        assert_eq!(id.frame_params.len(), 1);
        // The main->id site records θ = [int list].
        let theta = p
            .sites
            .iter()
            .find_map(|s| match &s.kind {
                SiteKind::Direct { callee, theta }
                    if p.funs[callee.0 as usize].name.starts_with("id") =>
                {
                    Some(theta.clone())
                }
                _ => None,
            })
            .expect("call site to id");
        assert_eq!(theta, vec![Type::list(Type::Int)]);
    }

    #[test]
    fn recursive_theta_is_identity() {
        let p = compile("fun len xs = case xs of [] => 0 | _ :: t => 1 + len t ; len [true]");
        let len = fun_by_name(&p, "len");
        let q = len.frame_params[0];
        let rec_theta = p
            .sites
            .iter()
            .find_map(|s| match &s.kind {
                SiteKind::Direct { callee, theta }
                    if s.fn_id != p.main && p.funs[callee.0 as usize].name.starts_with("len") =>
                {
                    Some(theta.clone())
                }
                _ => None,
            })
            .expect("recursive site");
        assert_eq!(rec_theta, vec![Type::Param(q)]);
    }

    #[test]
    fn lambda_captures_are_unpacked_at_entry() {
        let p = compile("let val n = 10 in (fn x => x + n) 5 end");
        let lam = fun_by_name(&p, "lambda@");
        assert_eq!(lam.kind, FnKind::ClosureEntered);
        assert_eq!(lam.captures.len(), 1);
        // Entry code loads the capture from field 1 of the closure.
        assert!(matches!(lam.code[0], Instr::GetField(_, Slot(0), 1)));
    }

    #[test]
    fn let_fun_free_vars_become_extras() {
        let p = compile(
            "fun outer n =
               let fun add x = x + n in add 1 + add 2 end ;
             outer 40",
        );
        let add = fun_by_name(&p, "add");
        // One user param plus the lifted `n`.
        assert_eq!(add.n_params, 2);
        let outer = fun_by_name(&p, "outer");
        assert!(outer
            .code
            .iter()
            .any(|i| matches!(i, Instr::CallDirect { args, .. } if args.len() == 2)));
    }

    #[test]
    fn immediate_ctors_do_not_allocate() {
        let p = compile(
            "datatype color = R | G | B ;
             fun pick c = case c of R => 1 | G => 2 | B => 3 ;
             pick G",
        );
        let main = p.fun(p.main);
        assert!(!main
            .code
            .iter()
            .any(|i| matches!(i, Instr::MakeData { .. })));
    }

    #[test]
    fn variant_records_get_discriminants() {
        let p = compile(
            "datatype shape = Circle of int | Rect of int * int ;
             fun area s = case s of Circle r => 3 * r * r | Rect (w, h) => w * h ;
             area (Rect (2, 3))",
        );
        assert_eq!(
            p.ctor_rep(tfgc_types::DataId(1), 0),
            CtorRep::Ptr {
                tag: Some(0),
                n_fields: 1
            }
        );
        let area = fun_by_name(&p, "area");
        // Field reads skip the discriminant word.
        assert!(area
            .code
            .iter()
            .any(|i| matches!(i, Instr::GetField(_, _, 1))));
    }

    #[test]
    fn print_lowers_to_instruction() {
        let p = compile("(print 7; 0)");
        let main = p.fun(p.main);
        assert!(main.code.iter().any(|i| matches!(i, Instr::Print(_))));
    }

    #[test]
    fn globals_are_initialized_in_main() {
        let p = compile("val base = 10 ; fun f x = x + base ; f 1");
        assert_eq!(p.globals.len(), 1);
        let main = p.fun(p.main);
        assert!(main
            .code
            .iter()
            .any(|i| matches!(i, Instr::StoreGlobal(GlobalId(0), _))));
        let f = fun_by_name(&p, "f#");
        assert!(f
            .code
            .iter()
            .any(|i| matches!(i, Instr::LoadGlobal(_, GlobalId(0)))));
    }

    #[test]
    fn hidden_descriptor_for_escaping_polymorphic_capture() {
        // The §3 gap: the inner closure captures `x : 'a` but has type
        // int -> int, so `'a` is unrecoverable from the arrow — it needs a
        // hidden descriptor.
        let src = "fun k x = fn u => (let val ignored = [x] in u end) ;
                   let val f = k [1, 2] in f 5 end";
        let typed = elaborate(&parse_program(src).unwrap()).unwrap();
        let (p, rtti) = lower_full(&typed).expect("lower");
        p.validate().unwrap();
        assert!(
            rtti.total_desc_fields() > 0,
            "expected hidden descriptors for the escaping capture"
        );
        let k = fun_by_name(&p, "k#");
        assert!(k.code.iter().any(|i| matches!(i, Instr::EvalDesc { .. })));
    }

    #[test]
    fn plain_polymorphism_needs_no_descriptors() {
        // Paper-style polymorphism: everything recoverable at GC time.
        let src = "fun append [] ys = ys | append (x :: xs) ys = x :: append xs ys ;
                   append [1] [2]";
        let typed = elaborate(&parse_program(src).unwrap()).unwrap();
        let (_, rtti) = lower_full(&typed).expect("lower");
        assert_eq!(rtti.total_desc_fields(), 0);
    }

    #[test]
    fn disassembly_is_nonempty_and_mentions_functions() {
        let p = compile("fun f x = x + 1 ; f 1");
        let text = display::disasm(&p);
        assert!(text.contains("fn main"));
        assert!(text.contains("call"));
    }

    #[test]
    fn alloc_sites_record_operand_types() {
        let p = compile("(1, true)");
        let site = p
            .sites
            .iter()
            .find(|s| matches!(s.kind, SiteKind::Alloc { .. }))
            .expect("tuple allocation site");
        match &site.kind {
            SiteKind::Alloc { operand_tys } => {
                assert_eq!(
                    operand_tys,
                    &vec![SlotTy::Val(Type::Int), SlotTy::Val(Type::Bool)]
                );
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn closure_call_sites_record_static_type() {
        let p = compile("let val f = fn x => x + 1 in f 3 end");
        let site = p
            .sites
            .iter()
            .find(|s| matches!(s.kind, SiteKind::Closure { .. }))
            .expect("closure call site");
        match &site.kind {
            SiteKind::Closure { clos_ty, .. } => {
                assert_eq!(*clos_ty, Type::arrow(Type::Int, Type::Int));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn higher_order_map_compiles() {
        let p = compile(
            "fun map f xs = case xs of [] => [] | x :: rest => f x :: map f rest ;
             map (fn x => x * 2) [1, 2, 3]",
        );
        let map = fun_by_name(&p, "map#");
        assert_eq!(map.frame_params.len(), 2);
        assert!(map
            .code
            .iter()
            .any(|i| matches!(i, Instr::CallClosure { .. })));
    }

    #[test]
    fn mutual_recursion_compiles() {
        let p = compile(
            "fun even n = if n = 0 then true else odd (n - 1)
             and odd n = if n = 0 then false else even (n - 1) ;
             even 4",
        );
        let even = fun_by_name(&p, "even#");
        let odd = fun_by_name(&p, "odd#");
        assert!(even
            .code
            .iter()
            .any(|i| matches!(i, Instr::CallDirect { .. })));
        assert!(odd
            .code
            .iter()
            .any(|i| matches!(i, Instr::CallDirect { .. })));
    }
}
