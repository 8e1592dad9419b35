//! Human-readable disassembly of compiled programs (debugging aid; also
//! exercised by tests to keep instruction coverage honest).

use crate::instr::{Instr, SlotTy};
use crate::program::{FnKind, IrProgram};
use std::fmt::Write as _;

/// Renders one function as assembly-style text.
pub fn disasm_fun(p: &IrProgram, idx: usize) -> String {
    let f = &p.funs[idx];
    let mut out = String::new();
    let kind = match f.kind {
        FnKind::Direct => "direct",
        FnKind::ClosureEntered => "closure",
    };
    let _ = writeln!(
        out,
        "fn {} [{kind}] params={} slots={} frame_params={}",
        f.name,
        f.n_params,
        f.slots.len(),
        f.frame_params.len()
    );
    for (i, s) in f.slots.iter().enumerate() {
        let t = match s {
            SlotTy::Val(t) => t.to_string(),
            SlotTy::Desc => "<desc>".to_string(),
        };
        let _ = writeln!(out, "  s{i}: {t}");
    }
    for (pc, ins) in f.code.iter().enumerate() {
        let _ = writeln!(out, "  {pc:4}: {}", disasm_instr(p, ins));
    }
    out
}

/// Renders the whole program.
pub fn disasm(p: &IrProgram) -> String {
    let mut out = String::new();
    for i in 0..p.funs.len() {
        out.push_str(&disasm_fun(p, i));
        out.push('\n');
    }
    out
}

fn disasm_instr(p: &IrProgram, ins: &Instr) -> String {
    match ins {
        Instr::LoadInt(d, n) => format!("s{} <- {n}", d.0),
        Instr::LoadBool(d, b) => format!("s{} <- {b}", d.0),
        Instr::LoadUnit(d) => format!("s{} <- ()", d.0),
        Instr::LoadGlobal(d, g) => format!("s{} <- global {}", d.0, p.globals[g.0 as usize].name),
        Instr::StoreGlobal(g, s) => {
            format!("global {} <- s{}", p.globals[g.0 as usize].name, s.0)
        }
        Instr::Move(d, s) => format!("s{} <- s{}", d.0, s.0),
        Instr::Arith(d, op, a, b) => format!("s{} <- s{} {op:?} s{}", d.0, a.0, b.0),
        Instr::Cmp(d, op, a, b) => format!("s{} <- s{} {op:?} s{}", d.0, a.0, b.0),
        Instr::Neg(d, a) => format!("s{} <- neg s{}", d.0, a.0),
        Instr::Not(d, a) => format!("s{} <- not s{}", d.0, a.0),
        Instr::Jump(t) => format!("jump {t}"),
        Instr::BranchFalse(s, t) => format!("if !s{} jump {t}", s.0),
        Instr::BranchIntNe(s, n, t) => format!("if s{} != {n} jump {t}", s.0),
        Instr::BranchTagNe {
            obj,
            data,
            ctor,
            target,
        } => {
            let name = &p.data_env.def(*data).ctors[*ctor as usize].name;
            format!("if s{} not {name} jump {target}", obj.0)
        }
        Instr::GetField(d, o, i) => format!("s{} <- s{}[{i}]", d.0, o.0),
        Instr::MakeTuple { dst, elems, site } => {
            format!("s{} <- tuple({}) @site{}", dst.0, slots(elems), site.0)
        }
        Instr::MakeData {
            dst,
            data,
            ctor,
            fields,
            site,
        } => {
            let name = &p.data_env.def(*data).ctors[*ctor as usize].name;
            format!("s{} <- {name}({}) @site{}", dst.0, slots(fields), site.0)
        }
        Instr::MakeClosure {
            dst,
            f,
            captures,
            site,
        } => format!(
            "s{} <- closure {} [{}] @site{}",
            dst.0,
            p.funs[f.0 as usize].name,
            slots(captures),
            site.0
        ),
        Instr::EvalDesc { dst, template } => {
            format!(
                "s{} <- desc {}",
                dst.0, p.desc_templates[template.0 as usize]
            )
        }
        Instr::CallDirect { dst, f, args, site } => format!(
            "s{} <- call {}({}) @site{}",
            dst.0,
            p.funs[f.0 as usize].name,
            slots(args),
            site.0
        ),
        Instr::CallClosure {
            dst,
            clos,
            arg,
            site,
        } => format!(
            "s{} <- callclos s{}(s{}) @site{}",
            dst.0, clos.0, arg.0, site.0
        ),
        Instr::Return(s) => format!("return s{}", s.0),
        Instr::Print(s) => format!("print s{}", s.0),
        Instr::MatchFail => "matchfail".to_string(),
    }
}

fn slots(ss: &[crate::instr::Slot]) -> String {
    ss.iter()
        .map(|s| format!("s{}", s.0))
        .collect::<Vec<_>>()
        .join(", ")
}
