//! Flat **trace plans** — branch-free lowering of GC routines, the
//! tracing engine of the Compiled, CompiledNoLiveness and AppelPerFn
//! strategies (Interpreted walks byte descriptors per object instead, and
//! runs plans only for values typed by evaluated routines).
//!
//! Each routine value — an [`RtId`] of the [`RtCache`] — and each ground
//! routine is lowered **once** into a compact linear plan with every field
//! offset and discriminant table pre-resolved. Collection-time execution
//! is then a tight interpreter loop over [`PlanOp`]s feeding the typed
//! worklist directly, with no per-object dispatch on routine variants.
//!
//! [`RtCache`]: crate::cache::RtCache
//! [`RtId`]: crate::cache::RtId
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
//! * [`VariantPlan::self_tail`] — a field traced with the variant's own
//!   data plan is chased by the executor in a loop (`TraceListLoop`): a
//!   million-cons spine relocates in one loop instead of a million
//!   worklist round-trips.
//!
//! Plans are plain `Copy` data. A [`PlanStore`] keeps every plan's ops
//! and every datatype's variant table in two arenas, so a plan names its
//! ops by [`OpRange`] and its variants by [`VariantRange`], and a closure
//! plan names its arrow routine by id. The executor reads a plan by value
//! and never clones a payload per object.
//!
//! Soundness: a plan is keyed by its routine's id, and ids are
//! hash-consed — a node is found by its variant, datatype and children's
//! ids — so one id, and so one plan, is only ever shared by structurally
//! equal routines.

use crate::cache::RtId;
use std::collections::HashMap;

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

/// A plan's ops: a run of its [`PlanStore`]'s op arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpRange {
    start: u32,
    len: u32,
}

/// A datatype plan's variant table: a run of its [`PlanStore`]'s variant
/// arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VariantRange {
    start: u32,
    len: u32,
}

/// Pre-resolved trace table for one pointer constructor of a datatype.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VariantPlan {
    /// Discriminant stored in word 0, or `None` in the untagged
    /// single-pointer-variant representation.
    pub tag: Option<u32>,
    /// Heap words to copy (discriminant word included).
    pub words: u32,
    /// Field ops in field order; the self-recursive tail op is *excluded*
    /// when [`VariantPlan::self_tail`] is set.
    pub ops: OpRange,
    /// Offset of a field whose plan is this datatype's own plan: the
    /// executor chases it iteratively (the list-spine loop).
    pub self_tail: Option<u16>,
}

/// The body of a compiled plan: plain data, read by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanKind {
    /// No pointers: relocation is the identity.
    Noop,
    /// Fixed-size heap object (tuple).
    Tuple { size: u32, ops: OpRange },
    /// Datatype: discriminant table pre-resolved per pointer variant.
    /// `tagged` mirrors the representation choice — when true, word 0
    /// holds the discriminant; when false there is exactly one pointer
    /// variant.
    Data {
        data: u32,
        tagged: bool,
        variants: VariantRange,
    },
    /// Closure: layout is per-object (the fn id sits in word 0), so
    /// execution routes through the shared closure relocator with the
    /// arrow routine `rt`.
    Closure { rt: RtId },
    /// Reserved during recursive lowering; never observed once the
    /// compiler returns (recursive references resolve to the reserved
    /// id, not the kind).
    Pending,
}

/// Owner of every compiled plan, the op and variant arenas, and the
/// keying maps. One per [`RtCache`](crate::cache::RtCache), persisting
/// across collections — plans only reference immutable program metadata.
#[derive(Debug, Clone)]
pub struct PlanStore {
    /// Plan lookups that found a compiled (or in-compilation) plan.
    pub hits: u64,
    /// Plan lookups that had to lower.
    pub misses: u64,
    /// Plans lowered (reservations), including sub-plans.
    pub compiled: u64,
    plans: Vec<PlanKind>,
    ops: Vec<PlanOp>,
    variants: Vec<VariantPlan>,
    by_rt: HashMap<RtId, PlanId>,
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
            ops: Vec::new(),
            variants: Vec::new(),
            by_rt: HashMap::new(),
            by_ground: HashMap::new(),
        }
    }

    /// The body of plan `id`.
    #[inline]
    pub fn kind(&self, id: PlanId) -> PlanKind {
        self.plans[id.0 as usize]
    }

    /// The ops behind a range.
    #[inline]
    pub fn ops(&self, r: OpRange) -> &[PlanOp] {
        &self.ops[r.start as usize..(r.start + r.len) as usize]
    }

    /// The variant table behind a range.
    #[inline]
    pub fn variants(&self, r: VariantRange) -> &[VariantPlan] {
        &self.variants[r.start as usize..(r.start + r.len) as usize]
    }

    /// Number of plans in the store (the noop plan included).
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// True when only the noop plan exists.
    pub fn is_empty(&self) -> bool {
        self.plans.len() <= 1
    }

    /// Looks up the plan for a routine id, counting the hit.
    pub fn find_rt(&mut self, rt: RtId) -> Option<PlanId> {
        let p = self.by_rt.get(&rt).copied();
        if p.is_some() {
            self.hits += 1;
        }
        p
    }

    /// Reserves a plan id for a routine id (counts the miss; recursive
    /// references resolve to the reserved id).
    pub fn reserve_rt(&mut self, rt: RtId) -> PlanId {
        let id = self.reserve();
        self.by_rt.insert(rt, id);
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

    /// Appends a datatype's variant table to the arena.
    pub fn add_variants(&mut self, vs: &[VariantPlan]) -> VariantRange {
        let start = self.variants.len() as u32;
        self.variants.extend_from_slice(vs);
        VariantRange {
            start,
            len: vs.len() as u32,
        }
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

/// Builder that collects `(offset, plan)` pairs in field order, drops
/// no-op fields (the implicit `Skip`), detects the self-recursive tail,
/// and coalesces consecutive same-planned runs into [`PlanOp::Fields`]
/// in the store's op arena.
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
    pub fn finish(self, store: &mut PlanStore) -> OpRange {
        coalesce(&self.raw, store)
    }

    /// Finishes a variant op array: the last field whose plan is
    /// `self_id` (the enclosing data plan) is split out as the iterative
    /// tail.
    pub fn finish_with_tail(
        mut self,
        store: &mut PlanStore,
        self_id: PlanId,
    ) -> (OpRange, Option<u16>) {
        let tail = self
            .raw
            .iter()
            .rposition(|&(_, p)| p == self_id)
            .map(|k| self.raw.remove(k).0);
        (coalesce(&self.raw, store), tail)
    }
}

fn coalesce(raw: &[(u16, PlanId)], store: &mut PlanStore) -> OpRange {
    let start = store.ops.len();
    for &(offset, plan) in raw {
        let joined = match store.ops[start..].last_mut() {
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
            store.ops.push(PlanOp::SlotAt { offset, plan });
        }
    }
    OpRange {
        start: start as u32,
        len: (store.ops.len() - start) as u32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_fields_are_skipped() {
        let mut s = PlanStore::new();
        let mut b = PlanOps::new();
        b.push(0, NOOP_PLAN);
        b.push(1, PlanId(3));
        b.push(2, NOOP_PLAN);
        let ops = b.finish(&mut s);
        assert_eq!(
            s.ops(ops),
            &[PlanOp::SlotAt {
                offset: 1,
                plan: PlanId(3)
            }]
        );
    }

    #[test]
    fn consecutive_same_plan_fields_coalesce() {
        let mut s = PlanStore::new();
        // A plan lowered earlier owns the arena's first ops; a new run
        // must not coalesce into them.
        let mut first = PlanOps::new();
        first.push(3, PlanId(7));
        let first = first.finish(&mut s);
        let mut b = PlanOps::new();
        for i in 4..8 {
            b.push(i, PlanId(7));
        }
        b.push(9, PlanId(7)); // gap at 8: must not join the run
        let ops = b.finish(&mut s);
        assert_eq!(s.ops(first).len(), 1);
        assert_eq!(
            s.ops(ops),
            &[
                PlanOp::Fields {
                    base: 4,
                    n: 4,
                    plan: PlanId(7)
                },
                PlanOp::SlotAt {
                    offset: 9,
                    plan: PlanId(7)
                }
            ]
        );
    }

    #[test]
    fn final_self_field_becomes_the_loop_tail() {
        let mut s = PlanStore::new();
        let me = PlanId(9);
        let mut b = PlanOps::new();
        b.push(1, PlanId(2));
        b.push(2, me);
        let (ops, tail) = b.finish_with_tail(&mut s, me);
        assert_eq!(tail, Some(2));
        assert_eq!(
            s.ops(ops),
            &[PlanOp::SlotAt {
                offset: 1,
                plan: PlanId(2)
            }]
        );
    }

    #[test]
    fn non_final_self_field_is_chased_too() {
        // Execution order is free, so the tail need not be the last
        // field: the last self-planned field is chased, the others stay
        // ops.
        let mut s = PlanStore::new();
        let me = PlanId(9);
        let mut b = PlanOps::new();
        b.push(0, me);
        b.push(1, me);
        b.push(2, PlanId(2));
        let (ops, tail) = b.finish_with_tail(&mut s, me);
        assert_eq!(tail, Some(1));
        assert_eq!(
            s.ops(ops),
            &[
                PlanOp::SlotAt {
                    offset: 0,
                    plan: me
                },
                PlanOp::SlotAt {
                    offset: 2,
                    plan: PlanId(2)
                }
            ]
        );
    }

    #[test]
    fn store_reserves_fills_and_finds() {
        let mut s = PlanStore::new();
        assert!(s.is_empty());
        let rt = RtId::CONST;
        assert_eq!(s.find_rt(rt), None);
        let id = s.reserve_rt(rt);
        assert_eq!(s.find_rt(rt), Some(id), "reserved plans are findable");
        let variants = s.add_variants(&[VariantPlan {
            tag: Some(1),
            words: 3,
            ops: OpRange::default(),
            self_tail: Some(2),
        }]);
        s.fill(
            id,
            PlanKind::Data {
                data: 0,
                tagged: true,
                variants,
            },
        );
        let PlanKind::Data { variants, .. } = s.kind(id) else {
            panic!("filled plan reads back as data");
        };
        assert_eq!(s.variants(variants)[0].words, 3);
        assert_eq!((s.hits, s.misses, s.compiled), (1, 1, 1));
        assert_eq!(s.len(), 2);
    }
}
