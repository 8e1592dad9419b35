//! Frame GC routines.
//!
//! A [`FrameRoutine`] is the in-memory analog of one compiler-generated
//! `frame_gc_routine` (§2.1): the exact sequence of slot-tracing steps for
//! one call site. Routines are hash-consed, so the empty routine —
//! `no_trace` (§2.4) — is a single shared entry that "many gc_words point
//! to", and identical routines at different sites share one body.

use crate::sx::SxId;
use std::collections::HashMap;
use tfgc_ir::Slot;

/// Identifies a frame routine. `FrameRoutineId(0)` is always `no_trace`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FrameRoutineId(pub u32);

/// The shared empty routine (§2.4's `no_trace`).
pub const NO_TRACE: FrameRoutineId = FrameRoutineId(0);

/// One tracing step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceOp {
    /// Compiled method: trace the slot with an evaluated template
    /// (interned in the metadata's [`SxTable`](crate::SxTable)).
    Slot { slot: Slot, sx: SxId },
    /// Interpreted method: trace the slot by walking the byte descriptor
    /// at `pos` in the program's descriptor pool.
    SlotBytes { slot: Slot, pos: u32 },
}

/// One frame routine.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct FrameRoutine {
    pub ops: Vec<TraceOp>,
}

/// Hash-consing routine table.
#[derive(Debug, Clone)]
pub struct RoutineTable {
    routines: Vec<FrameRoutine>,
    index: HashMap<FrameRoutine, FrameRoutineId>,
}

impl RoutineTable {
    /// A table with `no_trace` preinstalled at id 0.
    pub fn new() -> Self {
        let mut t = RoutineTable {
            routines: Vec::new(),
            index: HashMap::new(),
        };
        let id = t.intern(FrameRoutine::default());
        debug_assert_eq!(id, NO_TRACE);
        t
    }

    /// Interns a routine, sharing identical bodies.
    pub fn intern(&mut self, r: FrameRoutine) -> FrameRoutineId {
        if let Some(id) = self.index.get(&r) {
            return *id;
        }
        let id = FrameRoutineId(self.routines.len() as u32);
        self.routines.push(r.clone());
        self.index.insert(r, id);
        id
    }

    /// The routine behind `id`.
    pub fn routine(&self, id: FrameRoutineId) -> &FrameRoutine {
        &self.routines[id.0 as usize]
    }

    /// Number of distinct routines (E6's sharing metric).
    pub fn len(&self) -> usize {
        self.routines.len()
    }

    /// Never true: `no_trace` always exists.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Approximate size of all routines in bytes — the compiled method's
    /// "code size" (E4). Each op costs two words (slot + template/pos
    /// reference); the shared template trees themselves are accounted
    /// once by [`SxTable::approx_bytes`](crate::SxTable::approx_bytes).
    pub fn approx_bytes(&self) -> usize {
        self.routines.iter().map(|r| 8 + r.ops.len() * 16).sum()
    }
}

impl Default for RoutineTable {
    fn default() -> Self {
        RoutineTable::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_trace_is_id_zero() {
        let mut t = RoutineTable::new();
        assert_eq!(t.intern(FrameRoutine::default()), NO_TRACE);
        assert!(t.routine(NO_TRACE).ops.is_empty());
    }

    #[test]
    fn identical_routines_share() {
        let mut t = RoutineTable::new();
        let r = FrameRoutine {
            ops: vec![TraceOp::Slot {
                slot: Slot(3),
                sx: SxId(1),
            }],
        };
        let a = t.intern(r.clone());
        let b = t.intern(r);
        assert_eq!(a, b);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn different_routines_are_distinct() {
        let mut t = RoutineTable::new();
        let a = t.intern(FrameRoutine {
            ops: vec![TraceOp::SlotBytes {
                slot: Slot(0),
                pos: 0,
            }],
        });
        let b = t.intern(FrameRoutine {
            ops: vec![TraceOp::SlotBytes {
                slot: Slot(0),
                pos: 4,
            }],
        });
        assert_ne!(a, b);
    }
}
