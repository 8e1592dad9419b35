//! The TFML bytecode instruction set.
//!
//! A register-style slot machine: every operand names a slot of the current
//! activation record, so at any call site the compiler knows exactly which
//! slots hold live heap references and of what type — the property
//! Goldberg's compiled frame GC routines (§2.1) depend on.
//!
//! Every instruction that can trigger a collection (a call, or an
//! allocation — "garbage collection can only be initiated by a call to a
//! procedure that allocates memory", §2.1) carries a [`CallSiteId`]. The
//! side table from call site to frame GC routine is the moral equivalent of
//! the paper's **gc_word at `return address + 8`**: the return address our
//! VM stores is the `(function, pc)` of the call instruction, and the
//! collector indexes the gc_word table with it.

use tfgc_types::{DataId, Type};

/// Index of a slot in the current activation record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Slot(pub u16);

/// Identifies a compiled function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FnId(pub u32);

/// Identifies a global variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GlobalId(pub u32);

/// Identifies a call site (an entry in the program's gc_word table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CallSiteId(pub u32);

/// Identifies a runtime type-descriptor template (see
/// [`crate::program::IrProgram::desc_templates`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DescTemplateId(pub u32);

/// Arithmetic operators (operate on `int`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

/// Comparison operators (`int * int -> bool`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// One bytecode instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// `dst <- n`
    LoadInt(Slot, i64),
    /// `dst <- b`
    LoadBool(Slot, bool),
    /// `dst <- ()`
    LoadUnit(Slot),
    /// `dst <- globals[g]`
    LoadGlobal(Slot, GlobalId),
    /// `globals[g] <- src` (only in the program's initialization prefix)
    StoreGlobal(GlobalId, Slot),
    /// `dst <- src`
    Move(Slot, Slot),
    /// `dst <- a op b` — in the tagged encoding this strips and reinstates
    /// tags (the mutator overhead of §1's second advantage).
    Arith(Slot, ArithOp, Slot, Slot),
    /// `dst <- a cmp b`
    Cmp(Slot, CmpOp, Slot, Slot),
    /// `dst <- -a`
    Neg(Slot, Slot),
    /// `dst <- not a`
    Not(Slot, Slot),
    /// Unconditional jump to `pc`.
    Jump(u32),
    /// Jump to `pc` when the slot holds `false`.
    BranchFalse(Slot, u32),
    /// Jump to `pc` when the slot's integer differs from the immediate.
    BranchIntNe(Slot, i64, u32),
    /// Jump to `pc` when the datatype value in the slot was not built by
    /// constructor `ctor` of `data` (discriminant test, §2.3).
    BranchTagNe {
        obj: Slot,
        data: DataId,
        ctor: u32,
        target: u32,
    },
    /// `dst <- obj[offset]` — field read (tuple element, variant payload
    /// field, or closure capture). The offset already accounts for any
    /// discriminant word.
    GetField(Slot, Slot, u16),
    /// Allocate a tuple. May trigger a collection.
    MakeTuple {
        dst: Slot,
        elems: Vec<Slot>,
        site: CallSiteId,
    },
    /// Allocate (or form immediately) a datatype value. May trigger a
    /// collection when the constructor has fields.
    MakeData {
        dst: Slot,
        data: DataId,
        ctor: u32,
        fields: Vec<Slot>,
        site: CallSiteId,
    },
    /// Allocate a closure over function `f`. `captures` are copied into the
    /// environment (hidden runtime-type descriptors, when `f` needs them,
    /// are ordinary `Desc`-typed slots in this list).
    MakeClosure {
        dst: Slot,
        f: FnId,
        captures: Vec<Slot>,
        site: CallSiteId,
    },
    /// `dst <- intern(template)` — build the runtime type descriptor for a
    /// template, reading the current frame's descriptor slots for generic
    /// parameters. Never allocates on the TFML heap (descriptors are
    /// interned), so it has no call site.
    EvalDesc { dst: Slot, template: DescTemplateId },
    /// Direct call of a known function.
    CallDirect {
        dst: Slot,
        f: FnId,
        args: Vec<Slot>,
        site: CallSiteId,
    },
    /// Call through a closure value with a single argument (TFML closures
    /// are curried).
    CallClosure {
        dst: Slot,
        clos: Slot,
        arg: Slot,
        site: CallSiteId,
    },
    /// Return `src` to the caller.
    Return(Slot),
    /// Print the integer in the slot (observable output).
    Print(Slot),
    /// Pattern-match failure (no arm matched a refutable pattern).
    MatchFail,
}

impl Instr {
    /// The call site carried by this instruction, if it can trigger GC.
    pub fn site(&self) -> Option<CallSiteId> {
        match self {
            Instr::MakeTuple { site, .. }
            | Instr::MakeData { site, .. }
            | Instr::MakeClosure { site, .. }
            | Instr::CallDirect { site, .. }
            | Instr::CallClosure { site, .. } => Some(*site),
            _ => None,
        }
    }

    /// Slots read by this instruction, in operand order.
    pub fn uses(&self) -> impl Iterator<Item = Slot> + '_ {
        let (fixed, rest): ([Option<Slot>; 2], &[Slot]) = match self {
            Instr::LoadInt(..)
            | Instr::LoadBool(..)
            | Instr::LoadUnit(..)
            | Instr::LoadGlobal(..)
            | Instr::Jump(_)
            | Instr::EvalDesc { .. }
            | Instr::MatchFail => ([None, None], &[]),
            Instr::StoreGlobal(_, s)
            | Instr::Move(_, s)
            | Instr::Neg(_, s)
            | Instr::Not(_, s)
            | Instr::BranchFalse(s, _)
            | Instr::BranchIntNe(s, _, _)
            | Instr::GetField(_, s, _)
            | Instr::Return(s)
            | Instr::Print(s)
            | Instr::BranchTagNe { obj: s, .. } => ([Some(*s), None], &[]),
            Instr::Arith(_, _, a, b)
            | Instr::Cmp(_, _, a, b)
            | Instr::CallClosure {
                clos: a, arg: b, ..
            } => ([Some(*a), Some(*b)], &[]),
            Instr::MakeTuple { elems: ss, .. }
            | Instr::MakeData { fields: ss, .. }
            | Instr::MakeClosure { captures: ss, .. }
            | Instr::CallDirect { args: ss, .. } => ([None, None], ss),
        };
        fixed.into_iter().flatten().chain(rest.iter().copied())
    }

    /// The slot written by this instruction, if any.
    pub fn def(&self) -> Option<Slot> {
        match self {
            Instr::LoadInt(d, _)
            | Instr::LoadBool(d, _)
            | Instr::LoadUnit(d)
            | Instr::LoadGlobal(d, _)
            | Instr::Move(d, _)
            | Instr::Arith(d, _, _, _)
            | Instr::Cmp(d, _, _, _)
            | Instr::Neg(d, _)
            | Instr::Not(d, _)
            | Instr::GetField(d, _, _)
            | Instr::EvalDesc { dst: d, .. } => Some(*d),
            Instr::MakeTuple { dst, .. }
            | Instr::MakeData { dst, .. }
            | Instr::MakeClosure { dst, .. }
            | Instr::CallDirect { dst, .. }
            | Instr::CallClosure { dst, .. } => Some(*dst),
            _ => None,
        }
    }

    /// Successor program counters of the instruction at `pc`.
    /// `Return`/`MatchFail` have none.
    pub fn successors(&self, pc: u32) -> impl Iterator<Item = u32> {
        let succs = match self {
            Instr::Jump(t) => [Some(*t), None],
            Instr::BranchFalse(_, t)
            | Instr::BranchIntNe(_, _, t)
            | Instr::BranchTagNe { target: t, .. } => [Some(pc + 1), Some(*t)],
            Instr::Return(_) | Instr::MatchFail => [None, None],
            _ => [Some(pc + 1), None],
        };
        succs.into_iter().flatten()
    }
}

/// The type of a frame slot.
#[derive(Debug, Clone, PartialEq)]
pub enum SlotTy {
    /// An ordinary TFML value of the given type.
    Val(Type),
    /// A runtime type descriptor (an interned index; never a heap pointer,
    /// so the collector treats it like an integer — `const_gc` in the
    /// paper's terms).
    Desc,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uses_and_defs() {
        let i = Instr::Arith(Slot(0), ArithOp::Add, Slot(1), Slot(2));
        assert_eq!(i.uses().collect::<Vec<_>>(), vec![Slot(1), Slot(2)]);
        assert_eq!(i.def(), Some(Slot(0)));
    }

    #[test]
    fn call_excludes_dst_from_uses() {
        let i = Instr::CallDirect {
            dst: Slot(0),
            f: FnId(1),
            args: vec![Slot(2)],
            site: CallSiteId(0),
        };
        assert_eq!(i.uses().collect::<Vec<_>>(), vec![Slot(2)]);
        assert_eq!(i.def(), Some(Slot(0)));
        assert_eq!(i.site(), Some(CallSiteId(0)));
    }

    #[test]
    fn successors_of_branches() {
        let b = Instr::BranchFalse(Slot(0), 9);
        assert_eq!(b.successors(3).collect::<Vec<_>>(), vec![4, 9]);
        let r = Instr::Return(Slot(0));
        assert!(r.successors(3).collect::<Vec<_>>().is_empty());
        let j = Instr::Jump(7);
        assert_eq!(j.successors(0).collect::<Vec<_>>(), vec![7]);
    }

    #[test]
    fn non_gc_instrs_have_no_site() {
        assert_eq!(Instr::Move(Slot(0), Slot(1)).site(), None);
        assert_eq!(
            Instr::EvalDesc {
                dst: Slot(0),
                template: DescTemplateId(0)
            }
            .site(),
            None
        );
    }
}
