//! # tfgc-gc — tag-free garbage collection (the paper's contribution)
//!
//! Everything Goldberg's PLDI 1991 paper describes, as executable Rust:
//!
//! * [`meta`] — the compiler pass that generates per-call-site
//!   `frame_gc_routine`s (§2.1), per-type routines ([`ground`]),
//!   per-function closure routines (§2.2), variant-record discriminant
//!   plans (§2.3), and the instantiation templates the polymorphic
//!   collector evaluates (§3).
//! * [`routines`] — hash-consed frame routines; the shared empty routine
//!   is §2.4's `no_trace`.
//! * [`bytes`] — the **interpreted method**'s byte descriptors (§1.1,
//!   §2.4's space/time trade-off).
//! * [`mod@collect`] — Figure 2's collector loop; §3's oldest→newest
//!   traversal with type_gc_routine closures (Figures 3–4) as hash-consed
//!   ids of the memoizing [`cache`]; Appel's backward-resolution
//!   comparator (§1.1.1). [`rtval`] holds the same closures as trees, the
//!   heap verifier's independent form.
//! * [`collect_tagged`] — the tagged ML baseline (§1).
//! * [`plan`] — flat trace plans: routines and descriptors lowered once
//!   into linear op arrays with offsets and discriminant tables
//!   pre-resolved, executed by a tight interpreter loop.
//! * [`desc`] — interned runtime type descriptors: the completion
//!   mechanism for polymorphic captures the 1991 scheme cannot recover
//!   (see DESIGN.md).
//! * [`stack`] — Figure 1's activation-record layout: the return word *is*
//!   the gc_word key; each stack's floor and walk record let a collection
//!   decode only the frames that ran since the last one.
//!
//! The entry point a VM uses is [`fn@collect`]:
//!
//! ```no_run
//! use tfgc_gc::{
//!     collect, Analyses, DescArena, GcMeta, GcStats, MachineRoots, StackRoots, Strategy, WalkRecord,
//! };
//! # fn demo(prog: &tfgc_ir::IrProgram, heap: &mut tfgc_runtime::Heap,
//! #         stack: &mut [u64], globals: &mut [u64], operands: &mut [u64],
//! #         site: tfgc_ir::CallSiteId) {
//! let analyses = Analyses::compute(prog);
//! let mut meta = GcMeta::build(prog, &analyses, Strategy::Compiled);
//! let descs = DescArena::new();
//! let mut stats = GcStats::default();
//! let mut obs = tfgc_obs::Obs::null(); // or Obs::ring(n) to record events
//! // Kept with the stack: floor 0 and an empty record walk all of it.
//! let mut record = WalkRecord::default();
//! collect(&mut meta, prog, heap, &descs, &mut stats, &mut obs, MachineRoots {
//!     stacks: vec![StackRoots { stack, top_fp: 0, current_site: site, floor: 0, record: &mut record }],
//!     globals, operands, operand_stack: 0,
//! }, false); // `true` = minor (nursery-only) cycle on a generational heap
//! # }
//! ```

pub mod bytes;
pub mod cache;
pub mod collect;
pub mod collect_tagged;
pub mod desc;
pub mod ground;
pub mod meta;
pub mod plan;
pub mod routines;
pub mod rtval;
pub mod stack;
pub mod stats;
pub mod strategy;
pub mod sx;

pub use cache::{RtCache, RtId};
pub use collect::{CollectorScratch, MachineRoots, StackRoots};
pub use desc::{DescArena, DescId, DescNode};
pub use ground::{GroundTable, TypeRt, TypeRtId};
pub use meta::{Analyses, CalleePlan, FnGcMeta, GcMeta, SiteMeta};
pub use plan::{
    OpRange, PlanId, PlanKind, PlanOp, PlanOps, PlanStore, VariantPlan, VariantRange, NOOP_PLAN,
};
pub use routines::{FrameRoutine, FrameRoutineId, RoutineTable, TraceOp, NO_TRACE};
pub use rtval::{EvalCx, RtVal};
pub use stack::{
    pack_ret, unpack_ret, walk_frames, walk_frames_into, FrameInfo, WalkRecord, FRAME_HDR,
    MAIN_RET, NO_FP,
};
pub use stats::GcStats;
pub use strategy::Strategy;
pub use sx::{SxId, SxTable, TypeSx};

use std::time::Instant;
use tfgc_ir::IrProgram;
use tfgc_obs::{CollectionKind, GcEvent, Obs};
use tfgc_runtime::Heap;

/// Runs one collection under the metadata's strategy. Collection events
/// (begin/end, frame visits, routine runs, object copies) flow into
/// `obs`; pass [`Obs::null`] for an unobserved collection. `minor`
/// requests a nursery-only cycle on a generational heap; pass `false`
/// for the classic full semispace flip (the only legal value on a
/// single-generation heap).
///
/// Every strategy shares the envelope written here: the begin event,
/// the pause clock, the heap's collection phase, the counts in `stats`
/// and the end event with this collection's own work. The strategy's
/// collector only traces.
#[allow(clippy::too_many_arguments)]
pub fn collect(
    meta: &mut GcMeta,
    prog: &IrProgram,
    heap: &mut Heap,
    descs: &DescArena,
    stats: &mut GcStats,
    obs: &mut Obs,
    roots: MachineRoots<'_>,
    minor: bool,
) {
    let seq = stats.collections;
    let kind = if minor {
        CollectionKind::Minor
    } else {
        CollectionKind::Major
    };
    // Snapshots so CollectionEnd reports this collection's work alone.
    let before = *stats;
    let copied0 = heap.stats.words_copied;
    let trigger_site = roots
        .stacks
        .get(roots.operand_stack)
        .map_or(0, |sr| sr.current_site.0);
    obs.emit(|t_ns| GcEvent::CollectionBegin {
        t_ns,
        seq,
        kind,
        strategy: meta.strategy.name(),
        trigger_site,
        heap_used_before: heap.used() as u64,
    });
    // The pause clock starts *after* the begin event: sink time (snapshot
    // formatting, ring writes) is observer overhead, not collection work,
    // and must not skew pause statistics between sink configurations.
    let t0 = Instant::now();
    heap.begin_collection(minor);
    match meta.strategy {
        Strategy::Tagged => collect_tagged::collect_tagged(prog, heap, stats, obs, seq, roots),
        _ => collect::collect_tagfree(meta, prog, heap, descs, stats, obs, seq, roots),
    }
    heap.finish_collection();
    stats.collections += 1;
    if minor {
        stats.minor_collections += 1;
        stats.promoted_words += heap.last_promoted_words();
        stats.died_young_words += heap.last_died_young_words();
    } else {
        stats.major_collections += 1;
    }
    let pause = t0.elapsed().as_nanos() as u64;
    stats.pause_nanos += pause;
    obs.emit(|t_ns| GcEvent::CollectionEnd {
        t_ns,
        seq,
        kind,
        pause_ns: pause,
        heap_used_after: heap.used() as u64,
        words_copied: heap.stats.words_copied - copied0,
        frames_visited: stats.frames_visited - before.frames_visited,
        routine_invocations: stats.routine_invocations - before.routine_invocations,
        rt_nodes_built: stats.rt_nodes_built - before.rt_nodes_built,
        rt_cache_hits: stats.rt_cache_hits - before.rt_cache_hits,
        rt_cache_misses: stats.rt_cache_misses - before.rt_cache_misses,
        plan_hits: stats.plan_hits - before.plan_hits,
        plan_misses: stats.plan_misses - before.plan_misses,
        plans_compiled: stats.plans_compiled - before.plans_compiled,
    });
}
