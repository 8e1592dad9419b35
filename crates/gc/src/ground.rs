//! Compiled ground type routines.
//!
//! The "compiled method" of §2: for every ground (fully monomorphic) type
//! that can appear in a frame slot or heap field, the metadata compiler
//! emits a [`TypeRt`] — the in-memory analog of a generated
//! `type_gc_routine`. Tracing a value of a ground type never inspects a
//! type expression at collection time: variants resolve through
//! precomputed [`CtorRep`]s and field routine ids.
//!
//! Recursive datatypes produce cyclic routine graphs, which is why
//! routines are identified by [`TypeRtId`] and memoized per ground type.
//! The table keeps the type each routine was compiled from: Figure-3
//! extraction ([`crate::rtval`]) that reaches a ground routine part-way
//! along its path continues down that type, whatever the routine's shape.

use std::collections::HashMap;
use std::rc::Rc;
use tfgc_ir::{CtorRep, IrProgram};
use tfgc_types::{DataId, Type};

/// Identifies a compiled ground routine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TypeRtId(pub u32);

/// One variant's tracing plan.
#[derive(Debug, Clone, PartialEq)]
pub struct VariantRt {
    pub rep: CtorRep,
    /// Field routines, in field order (offsets account for the
    /// discriminant via `rep.field_offset`).
    pub fields: Vec<TypeRtId>,
}

/// A compiled ground routine. Structured payloads sit behind `Rc` so the
/// collector can take a cheap owned copy per traced object instead of
/// cloning whole variant tables (the GC-time hot path).
#[derive(Debug, Clone, PartialEq)]
pub enum TypeRt {
    /// No pointers: integers, booleans, unit, opaque parameters.
    Prim,
    /// Heap tuple: field routines in order (object size = field count).
    Tuple(Rc<Vec<TypeRtId>>),
    /// Datatype instance: immediate test, then per-variant plan (§2.3's
    /// discriminant check compiled in).
    Data {
        data: DataId,
        variants: Rc<Vec<VariantRt>>,
    },
    /// Function value at a ground arrow type: traced through the
    /// closure's own layout (the word at `code − 4`, §2.2).
    Arrow,
}

impl TypeRt {
    /// True when values of this type never contain heap pointers.
    pub fn is_prim(&self) -> bool {
        matches!(self, TypeRt::Prim)
    }
}

/// Memoizing builder/owner of ground routines.
#[derive(Debug, Default, Clone)]
pub struct GroundTable {
    rts: Vec<TypeRt>,
    /// The type each routine was compiled from, shared with its memo key.
    types: Vec<Rc<Type>>,
    memo: HashMap<Rc<Type>, TypeRtId>,
}

impl GroundTable {
    /// An empty table.
    pub fn new() -> Self {
        GroundTable::default()
    }

    /// The routine behind `id`.
    pub fn rt(&self, id: TypeRtId) -> &TypeRt {
        &self.rts[id.0 as usize]
    }

    /// The ground type routine `id` was compiled from.
    pub fn ty(&self, id: TypeRtId) -> &Rc<Type> {
        &self.types[id.0 as usize]
    }

    /// Number of compiled routines (metadata-size metric for E4/E6).
    pub fn len(&self) -> usize {
        self.rts.len()
    }

    /// True when no routine has been compiled.
    pub fn is_empty(&self) -> bool {
        self.rts.is_empty()
    }

    /// Approximate size of the compiled routines in bytes (the "code
    /// size" of the compiled method for E4): each routine node costs one
    /// word plus one word per field/variant reference.
    pub fn approx_bytes(&self) -> usize {
        self.rts
            .iter()
            .map(|rt| {
                8 + match rt {
                    TypeRt::Prim => 0,
                    TypeRt::Tuple(fs) => fs.len() * 8,
                    TypeRt::Data { variants, .. } => variants
                        .iter()
                        .map(|v| 8 + v.fields.len() * 8)
                        .sum::<usize>(),
                    TypeRt::Arrow => 8,
                }
            })
            .sum()
    }

    /// Compiles (or reuses) the routine for ground type `ty`.
    ///
    /// Parameters and unification variables are treated as opaque
    /// (callers pre-substitute; remaining parameters are locally
    /// quantified and thus uninhabited at pointer positions).
    ///
    /// # Panics
    ///
    /// Panics if a datatype id is out of range for `prog`.
    pub fn make(&mut self, prog: &IrProgram, ty: &Type) -> TypeRtId {
        if let Some(id) = self.memo.get(ty) {
            return *id;
        }
        // Reserve the id before recursing: `'a list` refers to itself
        // (tuples cannot, but one discipline for all shapes is simpler).
        let id = TypeRtId(self.rts.len() as u32);
        let key = Rc::new(ty.clone());
        self.rts.push(TypeRt::Prim);
        self.types.push(Rc::clone(&key));
        self.memo.insert(key, id);
        let rt = match ty {
            Type::Int | Type::Bool | Type::Unit | Type::Param(_) | Type::Var(_) => TypeRt::Prim,
            Type::Tuple(ts) => {
                TypeRt::Tuple(Rc::new(ts.iter().map(|t| self.make(prog, t)).collect()))
            }
            Type::Arrow(_, _) => TypeRt::Arrow,
            Type::Data(d, args) => {
                let def = prog.data_env.def(*d);
                let variants = def
                    .ctors
                    .iter()
                    .map(|c| {
                        let rep = prog.ctor_rep(*d, c.tag);
                        let fields = def
                            .fields_at(*d, c.tag, args)
                            .iter()
                            .map(|ft| self.make(prog, ft))
                            .collect();
                        VariantRt { rep, fields }
                    })
                    .collect();
                TypeRt::Data {
                    data: *d,
                    variants: Rc::new(variants),
                }
            }
        };
        self.rts[id.0 as usize] = rt;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfgc_ir::lower;
    use tfgc_syntax::parse_program;
    use tfgc_types::elaborate;

    fn prog(src: &str) -> IrProgram {
        lower(&elaborate(&parse_program(src).unwrap()).unwrap()).unwrap()
    }

    #[test]
    fn prim_types_share_one_routine() {
        let p = prog("0");
        let mut t = GroundTable::new();
        let a = t.make(&p, &Type::Int);
        let b = t.make(&p, &Type::Int);
        assert_eq!(a, b);
        assert!(t.rt(a).is_prim());
    }

    #[test]
    fn int_list_routine_is_recursive() {
        let p = prog("[1]");
        let mut t = GroundTable::new();
        let id = t.make(&p, &Type::list(Type::Int));
        match t.rt(id) {
            TypeRt::Data { variants, .. } => {
                assert_eq!(variants.len(), 2);
                // Cons: [elem, self].
                let cons = &variants[1];
                assert_eq!(cons.fields.len(), 2);
                assert!(t.rt(cons.fields[0]).is_prim());
                assert_eq!(cons.fields[1], id, "tail routine is the list itself");
            }
            other => panic!("expected data routine, got {other:?}"),
        }
    }

    #[test]
    fn simple_programs_have_simple_routines() {
        // §1: "Programs manipulating simple types will generate simple
        // garbage collection routines."
        let p = prog("[1]");
        let mut t = GroundTable::new();
        t.make(&p, &Type::list(Type::Int));
        // int, int list — a handful of nodes, not a general-purpose
        // collector.
        assert!(t.len() <= 3, "expected tiny routine set, got {}", t.len());
    }

    #[test]
    fn tuple_routine_lists_fields() {
        let p = prog("0");
        let mut t = GroundTable::new();
        let id = t.make(&p, &Type::Tuple(vec![Type::Int, Type::list(Type::Int)]));
        match t.rt(id) {
            TypeRt::Tuple(fs) => {
                assert_eq!(fs.len(), 2);
                assert!(t.rt(fs[0]).is_prim());
                assert!(!t.rt(fs[1]).is_prim());
            }
            other => panic!("expected tuple routine, got {other:?}"),
        }
    }

    #[test]
    fn approx_bytes_grows_with_structure() {
        let p = prog("0");
        let mut t = GroundTable::new();
        t.make(&p, &Type::Int);
        let small = t.approx_bytes();
        t.make(&p, &Type::list(Type::Tuple(vec![Type::Int, Type::Bool])));
        assert!(t.approx_bytes() > small);
    }
}
