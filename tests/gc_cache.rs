//! GC-time metadata cache and the two tracing engines.
//!
//! The cache ([`tfgc::gc::RtCache`]) memoizes template evaluation,
//! Figure-3 extraction, descriptor conversion and whole frame steps
//! during collection. The deep-recursion tests check the point of the
//! cache: routine-construction work per collection is proportional to
//! the number of distinct (site, environment) shapes, not to the number
//! of frames on the stack. The memoized forward walk is checked against
//! two independent references: Appel's unmemoized backward walk and the
//! tagged collector. The remaining tests pin each strategy to its
//! engine: Compiled lowers routines into trace plans once per shape,
//! Interpreted parses a byte descriptor at every object it copies.

use tfgc::workloads::programs::poly_deep_alloc;
use tfgc::{Compiled, Strategy, VmConfig};

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
        // A frame kept below its thread's floor is replayed with no
        // lookup, and still counts the hit its lookup would have scored.
        assert!(
            out.gc.rt_cache_hits + out.gc.rt_cache_misses >= out.gc.frames_visited,
            "{s}: {} hits and {} misses for {} frame visits — one lookup per frame",
            out.gc.rt_cache_hits,
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

/// The frame-step memo keys each frame on (call site, incoming state).
/// `tests/corpus/frame_memo_alternating.tfml` repeats one polymorphic
/// call site down the stack with alternating `int list` / `bool list
/// list` environments, interleaved with closure frames whose type
/// parameters come from the entered closure's arrow routine and from a
/// hidden descriptor slot, and collects at every depth. With the heap
/// verifier on, every memoized forward walk (plans under Compiled and
/// CompiledNoLiveness, the descriptor walk under Interpreted) must match
/// Appel's unmemoized backward walk and the tagged collector result for
/// result.
#[test]
fn frame_memo_is_exact_on_adjacent_frames_that_differ() {
    use std::cell::RefCell;
    use std::rc::Rc;
    use tfgc::gc::meta::FrameParamSrc;
    use tfgc::obs::{GcEvent, GcEventSink, Obs};

    /// The functions of the frames each collection visited.
    type Visits = std::collections::HashMap<u64, Vec<u32>>;
    struct FrameVisits(Rc<RefCell<Visits>>);
    impl GcEventSink for FrameVisits {
        fn record(&mut self, ev: GcEvent) {
            if let GcEvent::FrameVisit { seq, fn_id, .. } = ev {
                self.0.borrow_mut().entry(seq).or_default().push(fn_id);
            }
        }
    }

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
    let references = [Strategy::AppelPerFn, Strategy::Tagged].map(|s| {
        let out = c.run_with(base(s)).unwrap_or_else(|e| panic!("{s}: {e}"));
        (s, out)
    });
    for s in [
        Strategy::Compiled,
        Strategy::CompiledNoLiveness,
        Strategy::Interpreted,
    ] {
        let visits = Rc::new(RefCell::new(Visits::default()));
        let obs = Obs::custom(Box::new(FrameVisits(Rc::clone(&visits))));
        let (memo, _) = c
            .run_observed(base(s), c.metadata(s), obs)
            .unwrap_or_else(|e| panic!("{s}: {e}"));
        for (r, out) in &references {
            assert_eq!(memo.result, out.result, "{s}: result vs {r}");
            assert_eq!(memo.printed, out.printed, "{s}: printed vs {r}");
        }
        assert!(
            memo.heap.collections > 10,
            "{s}: collections strike at depth"
        );

        // Every shape the test is about was on the stack when a
        // collection struck, and one collection saw `via` more than once.
        let visits = visits.borrow();
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

/// Interpreted is §2.4's interpreted method: it parses the descriptor of
/// every object it copies instead of lowering the descriptor once. A live
/// list held only in a stack slot is recopied by every forced
/// collection, so the descriptor bytes read must keep pace with the
/// objects copied. Compiled traces the same slot with a plan and reads
/// no descriptor at all.
#[test]
fn interpreted_parses_a_descriptor_per_copied_object() {
    let src = "fun build n = if n = 0 then [] else n :: build (n - 1) ;
               fun len xs = case xs of [] => 0 | _ :: t => 1 + len t ;
               fun churn k = if k = 0 then 0 else (churn (k - 1); (build 10; 0)) ;
               let val xs = build 200 in (churn 40; len xs) end";
    let c = Compiled::compile(src).expect("compiles");
    let run = |s: Strategy| {
        c.run_with(VmConfig::new(s).heap_words(1 << 12).force_gc_every(25))
            .unwrap_or_else(|e| panic!("{s}: {e}"))
    };
    let interp = run(Strategy::Interpreted);
    assert_eq!(interp.result, "200");
    assert!(
        interp.heap.collections > 10,
        "forced collections recopy the list"
    );
    assert!(
        interp.gc.desc_bytes_read >= interp.heap.objects_copied,
        "interpreted read {} descriptor bytes for {} objects copied",
        interp.gc.desc_bytes_read,
        interp.heap.objects_copied
    );
    let compiled = run(Strategy::Compiled);
    assert_eq!(compiled.result, "200");
    assert_eq!(compiled.heap.objects_copied, interp.heap.objects_copied);
    assert_eq!(compiled.gc.desc_bytes_read, 0, "plans parse no descriptors");
}

/// Plans are lowered per distinct routine shape, then hit: across a deep
/// recursion the hit count dwarfs compilation.
#[test]
fn plan_compilation_is_o_shapes_not_o_objects() {
    let c = Compiled::compile(&poly_deep_alloc(5_000)).expect("compiles");
    for s in [Strategy::Compiled, Strategy::CompiledNoLiveness] {
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

/// Suite-wide property test for routine identity: across randomized
/// `RtVal` graphs that aggressively share sub-`Rc`s (the `extract_path`
/// recombination shape), `RtCache::intern_value` gives two values one id
/// iff they are structurally equal, and each id reads back as its value.
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

    let ids: Vec<_> = pool.iter().map(|v| cache.intern_value(v)).collect();
    for (id, v) in ids.iter().zip(&pool) {
        assert_eq!(&cache.value(*id), v, "an id reads back as its value");
    }
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
