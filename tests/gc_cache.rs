//! GC-time metadata cache: memoization must be invisible.
//!
//! The cache ([`tfgc::gc::RtCache`]) memoizes template evaluation,
//! Figure-3 extraction, and descriptor conversion during collection.
//! `eval_sx` is a pure function of (template, environment), so a cached
//! collection must be **bit-identical** to an uncached one in every
//! mutator-observable way — results, printed output, heap statistics,
//! and the cache-insensitive part of the GC statistics — under all five
//! strategies. The deep-recursion tests then check the point of the
//! cache: routine-construction work per collection is proportional to
//! the number of distinct (site, environment) shapes, not to the number
//! of frames on the stack.

use tfgc::workloads::programs::poly_deep_alloc;
use tfgc::{Compiled, Strategy, VmConfig};

/// Runs `src` with the cache on and off under every strategy and insists
/// on bit-identical observable behavior. Returns the number of
/// collections observed (identical between the two runs).
fn cached_uncached_differential(name: &str, src: &str, heap_words: usize, force: u64) -> u64 {
    let c = Compiled::compile(src).unwrap_or_else(|e| panic!("{name}: {e}"));
    let mut collections = u64::MAX;
    for s in Strategy::ALL {
        let base = VmConfig::new(s)
            .heap_words(heap_words)
            .force_gc_every(force);
        let cached = c
            .run_with(base.clone().rt_cache(true))
            .unwrap_or_else(|e| panic!("{name} under {s} (cached): {e}"));
        let uncached = c
            .run_with(base.rt_cache(false))
            .unwrap_or_else(|e| panic!("{name} under {s} (uncached): {e}"));

        collections = collections.min(cached.heap.collections);
        assert_eq!(cached.result, uncached.result, "{name} under {s}: result");
        assert_eq!(
            cached.printed, uncached.printed,
            "{name} under {s}: printed"
        );
        assert_eq!(
            cached.heap, uncached.heap,
            "{name} under {s}: HeapStats (copies, allocations, collections)"
        );
        assert_eq!(
            cached.mutator, uncached.mutator,
            "{name} under {s}: MutatorStats"
        );
        assert_eq!(
            cached.gc.cache_insensitive(),
            uncached.gc.cache_insensitive(),
            "{name} under {s}: GcStats minus cache accounting"
        );
        if s != Strategy::Tagged {
            assert_eq!(
                uncached.gc.rt_cache_hits + uncached.gc.rt_cache_misses,
                0,
                "{name} under {s}: disabled cache reports no traffic"
            );
        }
    }
    collections
}

#[test]
fn cached_collections_are_bit_identical_polymorphic() {
    let n = cached_uncached_differential("poly_deep", &poly_deep_alloc(150), 1 << 14, 40);
    assert!(n > 0, "workload must collect for the comparison to bite");
}

#[test]
fn cached_collections_are_bit_identical_closures() {
    use tfgc::workloads::paper_examples as pe;
    let a = cached_uncached_differential("map_closure", &pe::map_closure(60), 1 << 13, 30);
    let b =
        cached_uncached_differential("higher_order_poly", &pe::higher_order_poly(20), 1 << 13, 25);
    let c = cached_uncached_differential("variant_records", &pe::variant_records(40), 1 << 13, 30);
    assert!(a > 0 && b > 0 && c > 0, "closure workloads must collect");
}

#[test]
fn cached_collections_are_bit_identical_suite() {
    for (name, src) in tfgc::workloads::suite() {
        cached_uncached_differential(name, &src, 1 << 15, 200);
    }
}

/// Deep recursion under the forward (§3) strategies: ≥10⁵ frames on the
/// stack during collections, yet routine construction stays bounded by
/// the number of distinct shapes.
#[test]
fn deep_recursion_builds_o_sites_not_o_frames() {
    const DEPTH: usize = 100_000;
    let c = Compiled::compile(&poly_deep_alloc(DEPTH)).expect("compiles");
    for s in [Strategy::Compiled, Strategy::Interpreted] {
        let out = c
            .run_with(VmConfig::new(s).heap_words(1 << 21).force_gc_every(60_000))
            .unwrap_or_else(|e| panic!("{s}: {e}"));
        assert!(out.heap.collections > 0, "{s}: must collect");
        assert!(
            out.gc.frames_visited >= DEPTH as u64,
            "{s}: a collection saw the deep stack (visited {})",
            out.gc.frames_visited
        );
        assert!(
            out.gc.rt_cache_hits > 0,
            "{s}: repeated activations hit the cache"
        );
        // The headline bound: evaluating the same θ at 10⁵ activations
        // of the same call sites must not build 10⁵ routine trees.
        assert!(
            out.gc.rt_nodes_built * 100 < out.gc.frames_visited,
            "{s}: built {} nodes for {} frame visits — O(frames), not O(sites)",
            out.gc.rt_nodes_built,
            out.gc.frames_visited
        );
        // The frame-step memo: every frame is one memo lookup, and only
        // the first activation of each (site, incoming state) misses.
        assert!(
            out.gc.rt_cache_misses * 100 < out.gc.frames_visited,
            "{s}: {} cache misses for {} frame visits — misses must be per shape",
            out.gc.rt_cache_misses,
            out.gc.frames_visited
        );
    }
}

/// Same check for Appel's backward scheme at a depth its O(depth²) chain
/// re-walking can afford. The cache memoizes each frame's θ evaluation,
/// so even the quadratic traversal builds O(distinct shapes) nodes.
#[test]
fn deep_recursion_appel_backward_scheme() {
    const DEPTH: usize = 2_000;
    let c = Compiled::compile(&poly_deep_alloc(DEPTH)).expect("compiles");
    let out = c
        .run_with(
            VmConfig::new(Strategy::AppelPerFn)
                .heap_words(1 << 18)
                .force_gc_every(1_500),
        )
        .expect("runs");
    assert!(out.heap.collections > 0);
    assert!(out.gc.chain_steps > out.gc.frames_visited, "quadratic term");
    assert!(out.gc.rt_cache_hits > 0);
    assert!(
        out.gc.rt_nodes_built * 100 < out.gc.chain_steps,
        "built {} nodes for {} chain steps",
        out.gc.rt_nodes_built,
        out.gc.chain_steps
    );
}

/// Strips wall-clock timestamps and implementation-accounting counters
/// from an event, leaving exactly the part that must be bit-identical
/// between a plan-executed and a closure-walked collection.
fn normalize_event(ev: &tfgc::obs::GcEvent) -> tfgc::obs::GcEvent {
    use tfgc::obs::GcEvent;
    let mut e = ev.clone();
    match &mut e {
        GcEvent::CollectionBegin { t_ns, .. }
        | GcEvent::Alloc { t_ns, .. }
        | GcEvent::TaskParked { t_ns, .. }
        | GcEvent::TaskResumed { t_ns, .. }
        | GcEvent::VerificationEnd { t_ns, .. }
        | GcEvent::FaultInjected { t_ns, .. }
        | GcEvent::HeapGrown { t_ns, .. }
        | GcEvent::RequestStart { t_ns, .. }
        | GcEvent::RequestEnd { t_ns, .. }
        | GcEvent::HeapSample { t_ns, .. }
        | GcEvent::RequestShed { t_ns, .. }
        | GcEvent::DeadlineExceeded { t_ns, .. }
        | GcEvent::BreakerOpen { t_ns, .. }
        | GcEvent::BreakerHalfOpen { t_ns, .. }
        | GcEvent::BreakerClose { t_ns, .. }
        | GcEvent::BacklogSample { t_ns, .. } => *t_ns = 0,
        GcEvent::CollectionEnd {
            t_ns,
            pause_ns,
            rt_nodes_built,
            rt_cache_hits,
            rt_cache_misses,
            plan_hits,
            plan_misses,
            plans_compiled,
            ..
        } => {
            *t_ns = 0;
            *pause_ns = 0;
            *rt_nodes_built = 0;
            *rt_cache_hits = 0;
            *rt_cache_misses = 0;
            *plan_hits = 0;
            *plan_misses = 0;
            *plans_compiled = 0;
        }
        GcEvent::Phase {
            start_ns, dur_ns, ..
        } => {
            *start_ns = 0;
            *dur_ns = 0;
        }
        GcEvent::FrameVisit { .. } | GcEvent::RoutineRun { .. } | GcEvent::ObjectCopied { .. } => {}
    }
    e
}

/// Runs `src` with trace plans on and off under every strategy and
/// insists on bit-identical observable behavior — results, printed
/// output, heap/mutator statistics, the plan-insensitive part of the GC
/// statistics, and the complete normalized event stream (every object
/// copy in the same order, to the same addresses). Returns the total
/// plans compiled across strategies so callers can assert the fast path
/// actually engaged.
fn plans_closures_differential(name: &str, src: &str, heap_words: usize, force: u64) -> u64 {
    let c = Compiled::compile(src).unwrap_or_else(|e| panic!("{name}: {e}"));
    let mut compiled_total = 0;
    for s in Strategy::ALL {
        let base = VmConfig::new(s)
            .heap_words(heap_words)
            .force_gc_every(force);
        let (planned, prec) = c
            .run_profiled(base.clone().trace_plans(true), 1 << 20)
            .unwrap_or_else(|e| panic!("{name} under {s} (plans): {e}"));
        let (walked, wrec) = c
            .run_profiled(base.trace_plans(false), 1 << 20)
            .unwrap_or_else(|e| panic!("{name} under {s} (closures): {e}"));

        assert_eq!(planned.result, walked.result, "{name} under {s}: result");
        assert_eq!(planned.printed, walked.printed, "{name} under {s}: printed");
        assert_eq!(planned.heap, walked.heap, "{name} under {s}: HeapStats");
        assert_eq!(
            planned.mutator, walked.mutator,
            "{name} under {s}: MutatorStats"
        );
        assert_eq!(
            planned.gc.plan_insensitive(),
            walked.gc.plan_insensitive(),
            "{name} under {s}: GcStats minus plan accounting"
        );
        assert_eq!(
            walked.gc.plan_hits + walked.gc.plan_misses + walked.gc.plans_compiled,
            0,
            "{name} under {s}: disabled plans report no traffic"
        );
        assert_eq!(prec.dropped(), 0, "{name} under {s}: ring large enough");
        assert_eq!(wrec.dropped(), 0, "{name} under {s}: ring large enough");
        let pe: Vec<_> = prec.events().iter().map(normalize_event).collect();
        let we: Vec<_> = wrec.events().iter().map(normalize_event).collect();
        assert_eq!(
            pe, we,
            "{name} under {s}: normalized event streams (copy order, addresses)"
        );
        compiled_total += planned.gc.plans_compiled;
    }
    compiled_total
}

#[test]
fn planned_collections_are_bit_identical_polymorphic() {
    let n = plans_closures_differential("poly_deep", &poly_deep_alloc(150), 1 << 14, 40);
    assert!(n > 0, "polymorphic workload must lower plans");
}

#[test]
fn planned_collections_are_bit_identical_closures() {
    use tfgc::workloads::paper_examples as pe;
    let a = plans_closures_differential("map_closure", &pe::map_closure(60), 1 << 13, 30);
    let b =
        plans_closures_differential("higher_order_poly", &pe::higher_order_poly(20), 1 << 13, 25);
    let c = plans_closures_differential("variant_records", &pe::variant_records(40), 1 << 13, 30);
    assert!(
        a > 0 && b > 0 && c > 0,
        "closure workloads must lower plans"
    );
}

#[test]
fn planned_collections_are_bit_identical_suite() {
    let mut total = 0;
    for (name, src) in tfgc::workloads::suite() {
        total += plans_closures_differential(name, &src, 1 << 15, 200);
    }
    assert!(total > 0, "the suite must lower plans somewhere");
}

/// The frame-step memo keys each frame on (call site, incoming state).
/// `tests/corpus/frame_memo_alternating.tfml` repeats one polymorphic
/// call site down the stack with alternating `int list` / `bool list
/// list` environments, interleaved with closure frames whose type
/// parameters come from the entered closure's arrow routine and from a
/// hidden descriptor slot, and collects at every depth. With the heap
/// verifier on, the memoized collection must match the uncached one
/// event for event and the tagged collector result for result.
#[test]
fn frame_memo_is_exact_on_adjacent_frames_that_differ() {
    use tfgc::gc::meta::FrameParamSrc;
    use tfgc::obs::GcEvent;

    let src = include_str!("corpus/frame_memo_alternating.tfml");
    let c = Compiled::compile(src).expect("compiles");
    let fn_named = |prefix: &str| {
        c.program
            .funs
            .iter()
            .position(|f| f.name.starts_with(prefix))
            .unwrap_or_else(|| panic!("no function {prefix}")) as u32
    };
    let via = fn_named("via");
    let fns_with = |pred: fn(&FrameParamSrc) -> bool| -> Vec<u32> {
        let meta = c.metadata(Strategy::Compiled);
        (0..meta.fns.len() as u32)
            .filter(|f| meta.fns[*f as usize].frame_param_src.iter().any(pred))
            .collect()
    };
    let desc_fns = fns_with(|s| matches!(s, FrameParamSrc::DescSlot(_)));
    let arrow_fns = fns_with(|s| matches!(s, FrameParamSrc::ArrowPath(_)));
    assert!(
        !desc_fns.is_empty(),
        "the program has descriptor-slot frames"
    );
    assert!(
        !arrow_fns.is_empty(),
        "the program has closure-entered frames"
    );

    let base = |s: Strategy| {
        VmConfig::new(s)
            .heap_words(1 << 10)
            .heap_max_words(1 << 16)
            .force_gc_every(3)
            .verify_heap(true)
    };
    let tagged = c.run_with(base(Strategy::Tagged)).expect("tagged run");
    for s in Strategy::ALL {
        let (memo, mrec) = c
            .run_profiled(base(s).rt_cache(true), 1 << 20)
            .unwrap_or_else(|e| panic!("{s} (cached): {e}"));
        let (plain, prec) = c
            .run_profiled(base(s).rt_cache(false), 1 << 20)
            .unwrap_or_else(|e| panic!("{s} (uncached): {e}"));
        assert_eq!(memo.result, tagged.result, "{s}: result vs tagged");
        assert_eq!(memo.printed, tagged.printed, "{s}: printed vs tagged");
        assert_eq!(memo.result, plain.result, "{s}: result vs uncached");
        assert_eq!(memo.printed, plain.printed, "{s}: printed vs uncached");
        assert_eq!(memo.heap, plain.heap, "{s}: HeapStats");
        assert_eq!(memo.mutator, plain.mutator, "{s}: MutatorStats");
        assert_eq!(
            memo.gc.cache_insensitive(),
            plain.gc.cache_insensitive(),
            "{s}: GcStats minus cache accounting"
        );
        assert_eq!(mrec.dropped() + prec.dropped(), 0, "{s}: ring large enough");
        let me: Vec<_> = mrec.events().iter().map(normalize_event).collect();
        let pe: Vec<_> = prec.events().iter().map(normalize_event).collect();
        assert_eq!(me, pe, "{s}: normalized event streams");
        if s == Strategy::Tagged {
            continue;
        }
        assert!(
            memo.heap.collections > 10,
            "{s}: collections strike at depth"
        );

        // Every shape the test is about was on the stack when a
        // collection struck, and one collection saw `via` more than once.
        let mut visits: std::collections::HashMap<u64, Vec<u32>> = Default::default();
        for ev in mrec.events() {
            if let GcEvent::FrameVisit { seq, fn_id, .. } = ev {
                visits.entry(*seq).or_default().push(*fn_id);
            }
        }
        let seen = |f: &u32| visits.values().any(|v| v.contains(f));
        assert!(
            desc_fns.iter().any(seen),
            "{s}: a descriptor-slot frame was traced"
        );
        assert!(
            arrow_fns.iter().any(seen),
            "{s}: a closure-entered frame was traced"
        );
        assert!(
            visits
                .values()
                .any(|v| v.iter().filter(|f| **f == via).count() >= 4),
            "{s}: one collection traced several `via` frames"
        );
        assert!(memo.gc.rt_cache_hits > 0, "{s}: the memo served frames");
    }
}

/// Plans are lowered per distinct routine shape, then hit: across a deep
/// recursion the hit count dwarfs compilation.
#[test]
fn plan_compilation_is_o_shapes_not_o_objects() {
    let c = Compiled::compile(&poly_deep_alloc(5_000)).expect("compiles");
    for s in [Strategy::Compiled, Strategy::Interpreted] {
        let out = c
            .run_with(VmConfig::new(s).heap_words(1 << 18).force_gc_every(3_000))
            .unwrap_or_else(|e| panic!("{s}: {e}"));
        assert!(out.heap.collections > 0, "{s}: must collect");
        assert!(out.gc.plans_compiled > 0, "{s}: plans lowered");
        assert_eq!(
            out.gc.plan_misses, out.gc.plans_compiled,
            "{s}: every miss compiles exactly one plan"
        );
        // Repeated collections re-trace the same shapes: lookups must
        // keep resolving from the store, not re-lowering.
        assert!(
            out.gc.plan_hits > out.gc.plans_compiled,
            "{s}: hits ({}) must exceed compilations ({}) — plans are per-shape",
            out.gc.plan_hits,
            out.gc.plans_compiled
        );
    }
}

/// The plan counters surface in the per-collection event stream.
#[test]
fn plan_counters_reach_the_event_stream() {
    let c = Compiled::compile(&poly_deep_alloc(150)).expect("compiles");
    let (out, rec) = c
        .run_profiled(
            VmConfig::new(Strategy::Compiled)
                .heap_words(1 << 14)
                .force_gc_every(40),
            1 << 12,
        )
        .expect("runs");
    assert!(out.heap.collections > 1);
    let hits: u64 = rec.collections().iter().map(|c| c.plan_hits).sum();
    let misses: u64 = rec.collections().iter().map(|c| c.plan_misses).sum();
    let comp: u64 = rec.collections().iter().map(|c| c.plans_compiled).sum();
    assert_eq!(hits, out.gc.plan_hits, "summaries sum to the total");
    assert_eq!(misses, out.gc.plan_misses);
    assert_eq!(comp, out.gc.plans_compiled);
    assert!(comp > 0, "a collecting polymorphic run lowers plans");
}

/// Suite-wide property test for the fingerprint fix: across randomized
/// `RtVal` graphs that aggressively share sub-`Rc`s (the `extract_path`
/// recombination shape), `RtCache::identity` aliases two values iff they
/// are structurally equal.
#[test]
fn identity_never_aliases_structurally_unequal_values() {
    use std::rc::Rc;
    use tfgc::gc::{RtCache, RtVal, TypeRtId};
    use tfgc::types::DataId;

    // Deterministic xorshift — no RNG dependencies.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };

    let mut cache = RtCache::new();
    let mut pool: Vec<RtVal> = vec![RtVal::Const, RtVal::Ground(TypeRtId(0))];
    for _ in 0..600 {
        let r = next();
        let pick = |n: u64, pool: &[RtVal]| pool[(n % pool.len() as u64) as usize].clone();
        let v = match r % 4 {
            0 => RtVal::Arrow(Rc::new(pick(r >> 8, &pool)), Rc::new(pick(r >> 24, &pool))),
            1 => {
                // Recombine: reuse an existing Arrow's domain Rc under a
                // new codomain — the shape the old single-pointer key
                // collapsed.
                let donor = pool.iter().rev().find_map(|v| match v {
                    RtVal::Arrow(a, _) => Some(a.clone()),
                    _ => None,
                });
                match donor {
                    Some(a) => RtVal::Arrow(a, Rc::new(pick(r >> 16, &pool))),
                    None => RtVal::Tuple(Rc::new(vec![pick(r >> 16, &pool)])),
                }
            }
            2 => {
                let n = (r >> 8) % 3 + 1;
                let fs: Vec<RtVal> = (0..n).map(|i| pick(r >> (16 + i), &pool)).collect();
                RtVal::Tuple(Rc::new(fs))
            }
            _ => {
                // Rewrap: the same fields Rc under rotating datatype ids.
                let fields = pool.iter().rev().find_map(|v| match v {
                    RtVal::Tuple(fs) => Some(fs.clone()),
                    _ => None,
                });
                let d = DataId((r >> 8) as u32 % 5);
                match fields {
                    Some(fs) => RtVal::Data(d, fs),
                    None => RtVal::Data(d, Rc::new(vec![pick(r >> 16, &pool)])),
                }
            }
        };
        pool.push(v);
    }

    let ids: Vec<u32> = pool.iter().map(|v| cache.identity(v)).collect();
    for i in 0..pool.len() {
        for j in (i + 1)..pool.len() {
            assert_eq!(
                ids[i] == ids[j],
                pool[i] == pool[j],
                "identity aliases iff structurally equal (values {i} and {j}: {:?} vs {:?})",
                pool[i],
                pool[j]
            );
        }
    }
}

/// The cache's hit counters surface in the per-collection event stream.
#[test]
fn cache_counters_reach_the_event_stream() {
    let c = Compiled::compile(&poly_deep_alloc(150)).expect("compiles");
    let (out, rec) = c
        .run_profiled(
            VmConfig::new(Strategy::Compiled)
                .heap_words(1 << 14)
                .force_gc_every(40),
            1 << 12,
        )
        .expect("runs");
    assert!(out.heap.collections > 1);
    let summed: u64 = rec.collections().iter().map(|c| c.rt_cache_hits).sum();
    assert_eq!(summed, out.gc.rt_cache_hits, "summaries sum to the total");
    let summed_misses: u64 = rec.collections().iter().map(|c| c.rt_cache_misses).sum();
    assert_eq!(summed_misses, out.gc.rt_cache_misses);
    assert!(summed > 0, "a collecting polymorphic run hits the cache");
}
