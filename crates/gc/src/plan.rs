//! Flat **trace plans** — branch-free lowering of GC routines, the
//! tracing engine of the Compiled, CompiledNoLiveness and AppelPerFn
//! strategies (Interpreted walks byte descriptors per object instead, and
//! runs plans only for values typed by evaluated routines).
//!
//! Each routine value — identified by its injective [`RtCache`]
//! fingerprint — and each ground routine is lowered **once** into a
//! compact linear plan with every field offset and discriminant table
//! pre-resolved. Collection-time execution is then a tight interpreter
//! loop over [`PlanOp`]s feeding the typed worklist directly, with no
//! per-object dispatch on routine variants.
//!
//! [`RtCache`]: crate::cache::RtCache
//!
//! The op set:
//!
//! * [`PlanOp::SlotAt`]`{offset, plan}` — enqueue the word at `offset` of
//!   the freshly copied object under `plan`.
//! * [`PlanOp::Fields`]`{base, n, plan}` — a coalesced run of `n`
//!   consecutive same-planned words (homogeneous tuple fields).
//! * Non-pointer fields are simply absent from the op array — the
//!   implicit `Skip{n}`.
//! * Sub-plans are referenced by [`PlanId`] — the plan-call that shares
//!   substructure, and what makes recursive datatypes finite: the list
//!   plan's tail op points back at the list plan itself.
//! * [`VariantPlan::self_tail`] — when a variant's final op traces a field
//!   with the variant's own data plan, the executor chases that field in a
//!   loop (`TraceListLoop`): a million-cons spine relocates in one loop
//!   instead of a million worklist round-trips.
//!
//! Soundness leans on the fingerprint fix shipped in the same change: a
//! plan is cached per `RtCache` identity, so plans can only be shared
//! between *structurally equal* routines. Before the `PtrKey` fix two
//! distinct routines sharing a sub-`Rc` could collapse to one fingerprint
//! — caching plans on that identity would have executed the wrong plan,
//! exactly the wrong-memo-hit corruption the headline bugfix closes.

use crate::rtval::RtVal;
use std::collections::HashMap;
use std::rc::Rc;

/// Index of a compiled plan in its [`PlanStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanId(pub u32);

/// The no-op plan (primitive / opaque values): every store holds it at
/// index 0, so prim lookups never touch a map.
pub const NOOP_PLAN: PlanId = PlanId(0);

/// One step of a plan: which word(s) of a freshly copied object to trace,
/// and with which plan. Ops are stored in field order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanOp {
    /// Trace the single word at `offset`.
    SlotAt { offset: u16, plan: PlanId },
    /// Trace `n` consecutive words starting at `base` — a run of
    /// same-planned fields collapsed into one op.
    Fields { base: u16, n: u16, plan: PlanId },
}

/// Pre-resolved trace table for one pointer constructor of a datatype.
#[derive(Debug, Clone)]
pub struct VariantPlan {
    /// Discriminant stored in word 0, or `None` in the untagged
    /// single-pointer-variant representation.
    pub tag: Option<u32>,
    /// Heap words to copy (discriminant word included).
    pub words: u32,
    /// Field ops in push order; the self-recursive tail op is *excluded*
    /// when [`VariantPlan::self_tail`] is set.
    pub ops: Rc<[PlanOp]>,
    /// Offset of a final field whose plan is this datatype's own plan:
    /// the executor chases it iteratively (the list-spine loop).
    pub self_tail: Option<u16>,
}

/// The body of a compiled plan. Payloads sit behind `Rc` so the executor
/// takes a cheap owned head per relocation, exactly like [`TypeRt`].
///
/// [`TypeRt`]: crate::ground::TypeRt
#[derive(Debug, Clone)]
pub enum PlanKind {
    /// No pointers: relocation is the identity.
    Noop,
    /// Fixed-size heap object (tuple).
    Tuple { size: u32, ops: Rc<[PlanOp]> },
    /// Datatype: discriminant table pre-resolved per pointer variant.
    /// `tagged` mirrors the representation choice — when true, word 0
    /// holds the discriminant; when false there is exactly one pointer
    /// variant.
    Data {
        data: u32,
        tagged: bool,
        variants: Rc<[VariantPlan]>,
    },
    /// Closure: layout is per-object (the fn id sits in word 0), so
    /// execution routes through the shared closure relocator with the
    /// retained arrow routine.
    Closure { rt: RtVal },
    /// Reserved during recursive lowering; never observed once the
    /// compiler returns (recursive references resolve to the reserved
    /// id, not the kind).
    Pending,
}

/// Owner of every compiled plan plus the keying maps. One per
/// [`RtCache`](crate::cache::RtCache), persisting across collections —
/// plans only reference immutable program metadata.
#[derive(Debug, Clone)]
pub struct PlanStore {
    /// Plan lookups that found a compiled (or in-compilation) plan.
    pub hits: u64,
    /// Plan lookups that had to lower.
    pub misses: u64,
    /// Plans lowered (reservations), including sub-plans.
    pub compiled: u64,
    plans: Vec<PlanKind>,
    by_rt: HashMap<u32, PlanId>,
    by_ground: HashMap<u32, PlanId>,
}

impl PlanStore {
    /// An empty store holding only [`NOOP_PLAN`].
    pub fn new() -> PlanStore {
        PlanStore {
            hits: 0,
            misses: 0,
            compiled: 0,
            plans: vec![PlanKind::Noop],
            by_rt: HashMap::new(),
            by_ground: HashMap::new(),
        }
    }

    /// The body of plan `id`.
    pub fn kind(&self, id: PlanId) -> &PlanKind {
        &self.plans[id.0 as usize]
    }

    /// Number of plans in the store (the noop plan included).
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// True when only the noop plan exists.
    pub fn is_empty(&self) -> bool {
        self.plans.len() <= 1
    }

    /// Looks up the plan for an `RtCache` fingerprint, counting the hit.
    pub fn find_rt(&mut self, fp: u32) -> Option<PlanId> {
        let p = self.by_rt.get(&fp).copied();
        if p.is_some() {
            self.hits += 1;
        }
        p
    }

    /// Reserves a plan id for an `RtCache` fingerprint (counts the miss;
    /// recursive references resolve to the reserved id).
    pub fn reserve_rt(&mut self, fp: u32) -> PlanId {
        let id = self.reserve();
        self.by_rt.insert(fp, id);
        id
    }

    /// Looks up the plan for a ground routine id, counting the hit.
    pub fn find_ground(&mut self, g: u32) -> Option<PlanId> {
        let p = self.by_ground.get(&g).copied();
        if p.is_some() {
            self.hits += 1;
        }
        p
    }

    /// Reserves a plan id for a ground routine (counts the miss).
    pub fn reserve_ground(&mut self, g: u32) -> PlanId {
        let id = self.reserve();
        self.by_ground.insert(g, id);
        id
    }

    /// Fills a reserved plan with its lowered body.
    pub fn fill(&mut self, id: PlanId, kind: PlanKind) {
        self.plans[id.0 as usize] = kind;
    }

    fn reserve(&mut self) -> PlanId {
        self.misses += 1;
        self.compiled += 1;
        let id = PlanId(self.plans.len() as u32);
        self.plans.push(PlanKind::Pending);
        id
    }
}

impl Default for PlanStore {
    fn default() -> Self {
        PlanStore::new()
    }
}

/// Builder that collects `(offset, plan)` pairs in push order, drops
/// no-op fields (the implicit `Skip`), detects the self-recursive tail,
/// and coalesces consecutive same-planned runs into [`PlanOp::Fields`].
#[derive(Debug, Default)]
pub struct PlanOps {
    raw: Vec<(u16, PlanId)>,
}

impl PlanOps {
    /// An empty builder.
    pub fn new() -> PlanOps {
        PlanOps::default()
    }

    /// Appends one field unless its plan is the no-op.
    pub fn push(&mut self, offset: u16, plan: PlanId) {
        if plan != NOOP_PLAN {
            self.raw.push((offset, plan));
        }
    }

    /// Finishes a plain (tuple) op array.
    pub fn finish(self) -> Rc<[PlanOp]> {
        coalesce(&self.raw)
    }

    /// Finishes a variant op array: when the final field's plan is
    /// `self_id` (the enclosing data plan), it is split out as the
    /// iterative tail. Loop order matches the worklist exactly because
    /// the tail would have been pushed last, hence popped first.
    pub fn finish_with_tail(mut self, self_id: PlanId) -> (Rc<[PlanOp]>, Option<u16>) {
        let tail = match self.raw.last() {
            Some(&(off, p)) if p == self_id => {
                self.raw.pop();
                Some(off)
            }
            _ => None,
        };
        (coalesce(&self.raw), tail)
    }
}

fn coalesce(raw: &[(u16, PlanId)]) -> Rc<[PlanOp]> {
    let mut ops: Vec<PlanOp> = Vec::with_capacity(raw.len());
    for &(offset, plan) in raw {
        let joined = match ops.last_mut() {
            Some(op) => match *op {
                PlanOp::SlotAt { offset: o, plan: p } if p == plan && offset == o + 1 => {
                    *op = PlanOp::Fields {
                        base: o,
                        n: 2,
                        plan: p,
                    };
                    true
                }
                PlanOp::Fields { base, n, plan: p } if p == plan && offset == base + n => {
                    *op = PlanOp::Fields {
                        base,
                        n: n + 1,
                        plan: p,
                    };
                    true
                }
                _ => false,
            },
            None => false,
        };
        if !joined {
            ops.push(PlanOp::SlotAt { offset, plan });
        }
    }
    ops.into()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_fields_are_skipped() {
        let mut b = PlanOps::new();
        b.push(0, NOOP_PLAN);
        b.push(1, PlanId(3));
        b.push(2, NOOP_PLAN);
        let ops = b.finish();
        assert_eq!(
            &*ops,
            &[PlanOp::SlotAt {
                offset: 1,
                plan: PlanId(3)
            }]
        );
    }

    #[test]
    fn consecutive_same_plan_fields_coalesce() {
        let mut b = PlanOps::new();
        for i in 0..4 {
            b.push(i, PlanId(7));
        }
        b.push(5, PlanId(7)); // gap at 4: must not join the run
        let ops = b.finish();
        assert_eq!(
            &*ops,
            &[
                PlanOp::Fields {
                    base: 0,
                    n: 4,
                    plan: PlanId(7)
                },
                PlanOp::SlotAt {
                    offset: 5,
                    plan: PlanId(7)
                }
            ]
        );
    }

    #[test]
    fn final_self_field_becomes_the_loop_tail() {
        let me = PlanId(9);
        let mut b = PlanOps::new();
        b.push(1, PlanId(2));
        b.push(2, me);
        let (ops, tail) = b.finish_with_tail(me);
        assert_eq!(tail, Some(2));
        assert_eq!(
            &*ops,
            &[PlanOp::SlotAt {
                offset: 1,
                plan: PlanId(2)
            }]
        );
    }

    #[test]
    fn non_final_self_field_is_not_a_tail() {
        // A self-recursive field that is *not* pushed last (popped last,
        // not first) cannot loop without reordering the worklist.
        let me = PlanId(9);
        let mut b = PlanOps::new();
        b.push(1, me);
        b.push(2, PlanId(2));
        let (ops, tail) = b.finish_with_tail(me);
        assert_eq!(tail, None);
        assert_eq!(ops.len(), 2);
    }

    #[test]
    fn store_reserves_fills_and_finds() {
        let mut s = PlanStore::new();
        assert!(s.is_empty());
        assert_eq!(s.find_rt(42), None);
        let id = s.reserve_rt(42);
        assert_eq!(s.find_rt(42), Some(id), "reserved plans are findable");
        s.fill(
            id,
            PlanKind::Tuple {
                size: 2,
                ops: Vec::new().into(),
            },
        );
        assert!(matches!(s.kind(id), PlanKind::Tuple { size: 2, .. }));
        assert_eq!((s.hits, s.misses, s.compiled), (1, 1, 1));
        assert_eq!(s.len(), 2);
    }
}
