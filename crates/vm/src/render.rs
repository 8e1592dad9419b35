//! Rendering runtime values back to surface syntax (for program output
//! and differential testing across strategies).

use tfgc_ir::{CtorRep, IrProgram};
use tfgc_runtime::{Encoding, Heap, Word};
use tfgc_types::{Type, CONS_TAG, LIST_DATA, NIL_TAG};

/// Renders `w` at type `ty` as TFML-ish text. Lists print as `[a, b]`,
/// datatypes as `Ctor (fields)`, functions as `<fn>`.
pub fn render_value(prog: &IrProgram, heap: &Heap, enc: Encoding, w: Word, ty: &Type) -> String {
    render(prog, heap, enc, w, ty, 64)
}

fn field(heap: &Heap, enc: Encoding, w: Word, i: u16) -> Word {
    let base = enc.addr_of(w);
    let hdr = enc.mode.header_words() as u16;
    heap.read(base, i + hdr)
}

fn render(prog: &IrProgram, heap: &Heap, enc: Encoding, w: Word, ty: &Type, depth: u32) -> String {
    if depth == 0 {
        return "...".to_string();
    }
    match ty {
        Type::Int => enc.int_of(w).to_string(),
        Type::Bool => enc.bool_of(w).to_string(),
        Type::Unit => "()".to_string(),
        Type::Var(_) | Type::Param(_) => "?".to_string(),
        Type::Arrow(_, _) => "<fn>".to_string(),
        Type::Tuple(ts) => {
            let parts: Vec<String> = ts
                .iter()
                .enumerate()
                .map(|(i, t)| render(prog, heap, enc, field(heap, enc, w, i as u16), t, depth - 1))
                .collect();
            format!("({})", parts.join(", "))
        }
        Type::Data(d, args) if *d == LIST_DATA => {
            // Lists print with bracket syntax.
            let mut items = Vec::new();
            let mut cur = w;
            let mut fuel = 1_000_000u32;
            loop {
                if enc.is_imm(cur) {
                    break;
                }
                items.push(render(
                    prog,
                    heap,
                    enc,
                    field(heap, enc, cur, 0),
                    &args[0],
                    depth - 1,
                ));
                cur = field(heap, enc, cur, 1);
                fuel -= 1;
                if fuel == 0 {
                    items.push("...".into());
                    break;
                }
            }
            let _ = (NIL_TAG, CONS_TAG);
            format!("[{}]", items.join(", "))
        }
        Type::Data(d, args) => {
            let def = prog.data_env.def(*d);
            let reps = &prog.ctor_reps[d.0 as usize];
            let ctor_idx = if enc.is_imm(w) {
                let k = enc.int_of(w) as u32;
                reps.iter()
                    .position(|r| matches!(r, CtorRep::Imm(i) if *i == k))
                    .unwrap_or(0)
            } else if reps
                .iter()
                .any(|r| matches!(r, CtorRep::Ptr { tag: Some(_), .. }))
            {
                let t = enc.int_of(field(heap, enc, w, 0)) as u32;
                reps.iter()
                    .position(|r| matches!(r, CtorRep::Ptr { tag: Some(tag), .. } if *tag == t))
                    .unwrap_or(0)
            } else {
                reps.iter()
                    .position(|r| matches!(r, CtorRep::Ptr { .. }))
                    .unwrap_or(0)
            };
            let ctor = &def.ctors[ctor_idx];
            let rep = reps[ctor_idx];
            match rep {
                CtorRep::Imm(_) => ctor.name.clone(),
                CtorRep::Ptr { .. } => {
                    let ftys = def.fields_at(*d, ctor.tag, args);
                    let parts: Vec<String> = ftys
                        .iter()
                        .enumerate()
                        .map(|(i, t)| {
                            render(
                                prog,
                                heap,
                                enc,
                                field(heap, enc, w, rep.field_offset(i as u16)),
                                t,
                                depth - 1,
                            )
                        })
                        .collect();
                    if parts.is_empty() {
                        ctor.name.clone()
                    } else {
                        format!("{} ({})", ctor.name, parts.join(", "))
                    }
                }
            }
        }
    }
}
