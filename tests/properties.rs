//! Randomized property tests on the core data structures and
//! invariants, driven by the in-repo deterministic
//! [`SmallRng`](tfgc::workloads::SmallRng) (the external `proptest`
//! dependency is unavailable in offline builds; seeds are fixed so
//! every run checks the same cases).

use std::collections::HashSet;
use tfgc::analysis::SlotSet;
use tfgc::gc::{pack_ret, unpack_ret};
use tfgc::ir::{CallSiteId, Slot};
use tfgc::runtime::{Addr, Encoding, Heap, HeapMode, HEAP_BASE};
use tfgc::workloads::SmallRng;

/// Tag-free integer encoding is the identity on all of i64.
#[test]
fn tagfree_int_roundtrip() {
    let e = Encoding::new(HeapMode::TagFree);
    let mut r = SmallRng::seed_from_u64(0x01);
    for i in [0, 1, -1, i64::MIN, i64::MAX]
        .into_iter()
        .chain((0..2000).map(|_| r.next_u64() as i64))
    {
        assert_eq!(e.int_of(e.int(i)), i);
    }
}

/// Tagged integers roundtrip on the 63-bit range the encoding claims.
#[test]
fn tagged_int_roundtrip() {
    let e = Encoding::new(HeapMode::Tagged);
    let mut r = SmallRng::seed_from_u64(0x02);
    for i in [0, 1, -1, -(1i64 << 62), (1i64 << 62) - 2]
        .into_iter()
        .chain((0..2000).map(|_| r.gen_range(-(1i64 << 62), (1i64 << 62) - 1)))
    {
        assert_eq!(e.int_of(e.int(i)), i);
        // Tagged ints are always odd — never mistaken for pointers.
        assert!(!e.is_tagged_ptr(e.int(i)));
    }
}

/// Tagged integer ordering is preserved by the raw word comparison the
/// VM relies on.
#[test]
fn tagged_int_order() {
    let e = Encoding::new(HeapMode::Tagged);
    let mut r = SmallRng::seed_from_u64(0x03);
    for _ in 0..2000 {
        let a = r.gen_range(-(1i64 << 62), (1i64 << 62) - 1);
        let b = r.gen_range(-(1i64 << 62), (1i64 << 62) - 1);
        assert_eq!((e.int(a) as i64) < (e.int(b) as i64), a < b);
    }
}

/// Pointer encodings roundtrip in both modes.
#[test]
fn pointer_roundtrip() {
    let mut r = SmallRng::seed_from_u64(0x04);
    for _ in 0..2000 {
        let a = Addr(HEAP_BASE + r.gen_range(0, 1 << 40) as u64);
        for mode in [HeapMode::TagFree, HeapMode::Tagged] {
            let e = Encoding::new(mode);
            assert_eq!(e.addr_of(e.ptr(a)), a);
        }
        let t = Encoding::new(HeapMode::Tagged);
        assert!(t.is_tagged_ptr(t.ptr(a)));
    }
}

/// Return-word packing roundtrips for every site/slot pair.
#[test]
fn ret_word_roundtrip() {
    let mut r = SmallRng::seed_from_u64(0x05);
    for _ in 0..2000 {
        let site = (r.next_u64() % u64::from(u32::MAX - 1)) as u32;
        let slot = (r.next_u64() % u64::from(u16::MAX)) as u16;
        let w = pack_ret(CallSiteId(site), Slot(slot));
        assert_eq!(unpack_ret(w), (CallSiteId(site), Slot(slot)));
    }
}

/// SlotSet agrees with a HashSet model under arbitrary operations.
#[test]
fn slotset_models_hashset() {
    let mut r = SmallRng::seed_from_u64(0x06);
    for _ in 0..100 {
        let mut s = SlotSet::new(200);
        let mut m: HashSet<u16> = HashSet::new();
        for _ in 0..r.gen_range(0, 120) {
            let slot = r.gen_range(0, 200) as u16;
            if r.gen_bool() {
                s.insert(Slot(slot));
                m.insert(slot);
            } else {
                s.remove(Slot(slot));
                m.remove(&slot);
            }
        }
        assert_eq!(s.count(), m.len());
        for i in 0..200u16 {
            assert_eq!(s.contains(Slot(i)), m.contains(&i));
        }
    }
}

/// Heap write/read roundtrip over arbitrary allocation patterns, and
/// bump allocation never hands out overlapping objects.
#[test]
fn heap_alloc_no_overlap() {
    let mut r = SmallRng::seed_from_u64(0x07);
    for _ in 0..60 {
        let mut heap = Heap::new(1024);
        let mut objs: Vec<(Addr, usize, u64)> = Vec::new();
        for k in 0..r.gen_range(1, 40) {
            let n = r.gen_range(1, 16) as usize;
            match heap.alloc(n) {
                None => break,
                Some(a) => {
                    let stamp = 0xABCD_0000 + k as u64;
                    for i in 0..n {
                        heap.write(a, i as u16, stamp + i as u64);
                    }
                    objs.push((a, n, stamp));
                }
            }
        }
        // Every object still holds its own stamps: no overlap.
        for (a, n, stamp) in &objs {
            for i in 0..*n {
                assert_eq!(heap.read(*a, i as u16), stamp + i as u64);
            }
        }
    }
}

/// Copying GC mechanics: copy + forward + flip preserves contents for
/// arbitrary object sets, and forwarding is stable.
#[test]
fn heap_copy_preserves_contents() {
    let mut r = SmallRng::seed_from_u64(0x08);
    for _ in 0..60 {
        let mut heap = Heap::new(512);
        let mut objs = Vec::new();
        for k in 0..r.gen_range(1, 20) as usize {
            let n = r.gen_range(1, 8) as usize;
            if let Some(a) = heap.alloc(n) {
                for i in 0..n {
                    heap.write(a, i as u16, (k * 100 + i) as u64);
                }
                objs.push((a, n, k));
            }
        }
        // Copy every object out (as a collector would).
        let mut moved = Vec::new();
        for (a, n, k) in &objs {
            let new = heap.evacuate(*a, *n);
            assert_eq!(heap.relocated(*a), Some(new));
            moved.push((new, *n, *k));
        }
        heap.flip();
        for (a, n, k) in &moved {
            for i in 0..*n {
                assert_eq!(heap.read(*a, i as u16), (k * 100 + i) as u64);
            }
        }
    }
}

/// Generated well-typed programs run identically under the compiled
/// tag-free strategy and the tagged baseline (randomized differential
/// soundness).
#[test]
fn generated_programs_differential() {
    let mut r = SmallRng::seed_from_u64(0x09);
    for _ in 0..12 {
        let seed = r.gen_range(0, 500) as u64;
        let src = tfgc::workloads::generate(seed, &tfgc::workloads::GenConfig::default());
        let c = tfgc::Compiled::compile(&src).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
        let a = c
            .run_with(tfgc::VmConfig::new(tfgc::Strategy::Compiled).heap_words(1 << 14))
            .unwrap_or_else(|e| panic!("seed {seed} compiled: {e}\n{src}"));
        let b = c
            .run_with(tfgc::VmConfig::new(tfgc::Strategy::Tagged).heap_words(1 << 14))
            .unwrap_or_else(|e| panic!("seed {seed} tagged: {e}\n{src}"));
        assert_eq!(a.result, b.result, "seed {seed}");
        assert_eq!(a.printed, b.printed, "seed {seed}");
    }
}

/// The compiled-method safety invariant on random programs: every
/// live slot at every GC point is definitely assigned (the property
/// that lets tag-free frames skip zero-initialization).
#[test]
fn live_subset_assigned_on_generated() {
    let mut r = SmallRng::seed_from_u64(0x0A);
    for _ in 0..12 {
        let seed = r.gen_range(0, 400) as u64;
        let src = tfgc::workloads::generate(seed, &tfgc::workloads::GenConfig::default());
        let c = tfgc::Compiled::compile(&src).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
        c.analyses
            .init
            .validate_live_assigned(&c.program, &c.analyses.liveness)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
    }
}

/// `elaborate` ends with alpha-renaming: every binder of its output has a
/// name of its own, which lowering relies on, and renaming that output
/// again changes nothing. Inputs: the workload suite and generated
/// programs of the benchmark's compile-workload shape.
#[test]
fn elaborated_binders_are_unique_and_renaming_is_idempotent() {
    use tfgc::types::{alpha_rename, binders_unique, elaborate};
    use tfgc::workloads::{generate, suite, GenConfig};
    let cfg = GenConfig {
        fuel: 2000,
        n_funs: 8,
        max_depth: 6,
        ..GenConfig::default()
    };
    let generated = (1..=24u64).map(|seed| (format!("seed {seed}"), generate(seed, &cfg)));
    let suite = suite()
        .into_iter()
        .map(|(name, src)| (name.to_string(), src));
    for (name, src) in suite.chain(generated) {
        let parsed = tfgc::syntax::parse_program(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let typed = elaborate(&parsed).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(binders_unique(&typed), "{name}: two binders share a name");
        let mut again = typed.clone();
        alpha_rename(&mut again);
        assert!(
            again.funs == typed.funs && again.globals == typed.globals && again.main == typed.main,
            "{name}: renaming the elaborated program changed it"
        );
    }
}

/// Pretty-printed programs reparse to the same printed form
/// (parser/printer round-trip on generated sources).
#[test]
fn print_parse_roundtrip() {
    let mut r = SmallRng::seed_from_u64(0x0B);
    for _ in 0..12 {
        let seed = r.gen_range(0, 300) as u64;
        let src = tfgc::workloads::generate(seed, &tfgc::workloads::GenConfig::default());
        let p1 = tfgc::syntax::parse_program(&src).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let printed = tfgc::syntax::pretty::program_to_string(&p1);
        let p2 = tfgc::syntax::parse_program(&printed)
            .unwrap_or_else(|e| panic!("seed {seed} reparse: {e}\n{printed}"));
        assert_eq!(printed, tfgc::syntax::pretty::program_to_string(&p2));
    }
}

/// The IR's immediate/pointer boundary and the runtime heap base must
/// agree — the tag-free "pointer or immediate" test depends on it.
#[test]
fn imm_limit_matches_heap_base() {
    assert_eq!(tfgc::ir::IMM_LIMIT, HEAP_BASE);
}

/// Memoized template evaluation agrees with direct evaluation on random
/// template trees and environments. One [`RtCache`] is reused across
/// every query so the memo's hit path (and its hash-consed sharing) is
/// exercised as heavily as its miss path — `eval_sx` is pure, so the
/// cache must be observationally invisible. Environments enter the cache
/// through `intern_value`, and results leave it through `value`.
#[test]
fn memoized_eval_matches_direct() {
    use std::rc::Rc;
    use tfgc::gc::rtval::{eval_sx, RtBuildStats};
    use tfgc::gc::{EvalCx, RtCache, RtVal, SxTable, TypeRtId, TypeSx};
    use tfgc::types::LIST_DATA;

    const ARITY: u16 = 3;

    // Random template tree. `Ground` ids are never dereferenced by
    // evaluation (they pass through as `RtVal::Ground`), so small
    // arbitrary ids are safe.
    fn gen_sx(r: &mut SmallRng, depth: usize) -> TypeSx {
        let top = if depth == 0 { 3 } else { 6 };
        match r.gen_range(0, top) {
            0 => TypeSx::Prim,
            1 => TypeSx::Param(r.gen_range(0, i64::from(ARITY)) as u16),
            2 => TypeSx::Ground(TypeRtId(r.gen_range(0, 3) as u32)),
            3 => TypeSx::Tuple(
                (0..r.gen_range(1, 4))
                    .map(|_| gen_sx(r, depth - 1))
                    .collect(),
            ),
            4 => TypeSx::Data(LIST_DATA, vec![gen_sx(r, depth - 1)]),
            _ => TypeSx::Arrow(
                Box::new(gen_sx(r, depth - 1)),
                Box::new(gen_sx(r, depth - 1)),
            ),
        }
    }

    // Random routine value for the environment.
    fn gen_rt(r: &mut SmallRng, depth: usize) -> RtVal {
        let top = if depth == 0 { 2 } else { 5 };
        match r.gen_range(0, top) {
            0 => RtVal::Const,
            1 => RtVal::Ground(TypeRtId(r.gen_range(0, 3) as u32)),
            2 => RtVal::Tuple(Rc::new(
                (0..r.gen_range(1, 3))
                    .map(|_| gen_rt(r, depth - 1))
                    .collect(),
            )),
            3 => RtVal::Data(LIST_DATA, Rc::new(vec![gen_rt(r, depth - 1)])),
            _ => RtVal::Arrow(Rc::new(gen_rt(r, depth - 1)), Rc::new(gen_rt(r, depth - 1))),
        }
    }

    let mut r = SmallRng::seed_from_u64(0x0C);
    let mut table = SxTable::new();
    let mut cache = RtCache::new();
    // A modest template pool re-queried under a modest environment pool
    // makes both the exact-hit and the miss path fire.
    let ids: Vec<_> = (0..40).map(|_| table.intern(gen_sx(&mut r, 3))).collect();
    let envs: Vec<Vec<RtVal>> = (0..12)
        .map(|_| (0..ARITY).map(|_| gen_rt(&mut r, 2)).collect())
        .collect();
    for round in 0..400 {
        let id = ids[r.gen_range(0, ids.len() as i64) as usize];
        let env = envs[r.gen_range(0, envs.len() as i64) as usize].clone();
        let env_ids: Vec<_> = env.iter().map(|v| cache.intern_value(v)).collect();
        let mut s1 = RtBuildStats::default();
        let mut s2 = RtBuildStats::default();
        let memo = cache.eval(&table, id, &env_ids, &mut s1, EvalCx::None);
        let direct = eval_sx(table.get(id), &env, &mut s2, EvalCx::None);
        assert_eq!(
            cache.value(memo),
            direct,
            "round {round}: {:?}",
            table.get(id)
        );
    }
    assert!(cache.hits > 0, "reused cache must see repeat queries");
    assert!(cache.misses > 0, "fresh (template, env) pairs must miss");
}

/// Memoized Figure-3 extraction over routine ids agrees with the tree
/// reference `extract_path` on random routines and random paths. The
/// routines hold real `GroundTable` ids of random ground types — lists,
/// tuples, arrows and an option-like datatype — so paths run on into
/// ground subtrees of every shape, where extraction walks the type the
/// ground routine was compiled from.
#[test]
fn cached_extract_matches_extract_path() {
    use std::rc::Rc;
    use tfgc::gc::rtval::extract_path;
    use tfgc::gc::{EvalCx, GroundTable, RtCache, RtVal};
    use tfgc::types::{DataId, Type};

    let c = tfgc::Compiled::compile(
        "datatype 'a box = Empty | Full of 'a * int ; \
         fun get b = case b of Empty => 0 | Full (_, n) => n ; get (Full (true, 1))",
    )
    .expect("compiles");
    let prog = &c.program;
    let t_data = prog.data_env.data_by_name("box").expect("box is declared");

    fn gen_ty(r: &mut SmallRng, t_data: DataId, depth: usize) -> Type {
        let top = if depth == 0 { 2 } else { 8 };
        match r.gen_range(0, top) {
            0 => Type::Int,
            1 => Type::Bool,
            2 => Type::Data(t_data, vec![gen_ty(r, t_data, depth - 1)]),
            3 | 4 => Type::list(gen_ty(r, t_data, depth - 1)),
            5 | 6 => Type::Tuple(
                (0..r.gen_range(2, 4))
                    .map(|_| gen_ty(r, t_data, depth - 1))
                    .collect(),
            ),
            _ => Type::arrow(gen_ty(r, t_data, depth - 1), gen_ty(r, t_data, depth - 1)),
        }
    }

    fn gen_rt(
        r: &mut SmallRng,
        g: &mut GroundTable,
        prog: &tfgc::ir::IrProgram,
        t_data: DataId,
        depth: usize,
    ) -> RtVal {
        let top = if depth == 0 { 3 } else { 6 };
        match r.gen_range(0, top) {
            0 => RtVal::Const,
            1 | 2 => RtVal::Ground(g.make(prog, &gen_ty(r, t_data, 3))),
            3 => RtVal::Tuple(Rc::new(
                (0..r.gen_range(1, 4))
                    .map(|_| gen_rt(r, g, prog, t_data, depth - 1))
                    .collect(),
            )),
            4 => RtVal::Data(
                tfgc::types::LIST_DATA,
                Rc::new(vec![gen_rt(r, g, prog, t_data, depth - 1)]),
            ),
            _ => RtVal::Arrow(
                Rc::new(gen_rt(r, g, prog, t_data, depth - 1)),
                Rc::new(gen_rt(r, g, prog, t_data, depth - 1)),
            ),
        }
    }

    // A path valid for `v`: each step stays within the arity of the
    // routine, or of the ground type, it meets; past an opaque leaf any
    // step is legal (extraction yields const_gc).
    fn gen_path(r: &mut SmallRng, g: &GroundTable, v: &RtVal) -> Vec<u16> {
        let len = r.gen_range(0, 6) as usize;
        let mut path = Vec::with_capacity(len);
        let mut cur = v.clone();
        let mut ty: Option<Type> = None;
        while path.len() < len {
            if let RtVal::Ground(id) = cur {
                ty = Some((**g.ty(id)).clone());
                cur = RtVal::Const;
            }
            let arity = match (&ty, &cur) {
                (Some(Type::Tuple(ts) | Type::Data(_, ts)), _) => ts.len(),
                (Some(Type::Arrow(_, _)), _) => 2,
                (Some(_), _) => 3,
                (None, RtVal::Tuple(fs) | RtVal::Data(_, fs)) => fs.len(),
                (None, RtVal::Arrow(_, _)) => 2,
                (None, _) => 3,
            };
            if arity == 0 {
                break;
            }
            let step = r.gen_range(0, arity as i64) as usize;
            path.push(step as u16);
            match &mut ty {
                Some(t) => {
                    let next = match t {
                        Type::Tuple(ts) | Type::Data(_, ts) => ts[step].clone(),
                        Type::Arrow(a, b) => [a, b][step].as_ref().clone(),
                        _ => Type::Int,
                    };
                    *t = next;
                }
                None => {
                    cur = match &cur {
                        RtVal::Tuple(fs) | RtVal::Data(_, fs) => fs[step].clone(),
                        RtVal::Arrow(a, b) => [a, b][step].as_ref().clone(),
                        _ => RtVal::Const,
                    };
                }
            }
        }
        path
    }

    let mut r = SmallRng::seed_from_u64(0x3E);
    let mut ground = GroundTable::new();
    let mut cache = RtCache::new();
    let values: Vec<RtVal> = (0..60)
        .map(|_| gen_rt(&mut r, &mut ground, prog, t_data, 3))
        .collect();
    let mut through_ground = 0;
    for round in 0..1500 {
        let v = &values[r.gen_range(0, values.len() as i64) as usize];
        let path = gen_path(&mut r, &ground, v);
        let id = cache.intern_value(v);
        let got = cache.extract(id, &path, prog, &mut ground, EvalCx::None);
        let want = extract_path(v, &path, prog, &mut ground, EvalCx::None);
        assert_eq!(cache.value(got), want, "round {round}: {v:?} at {path:?}");
        if matches!(want, RtVal::Ground(_)) && !matches!(cache.value(id), RtVal::Ground(_)) {
            through_ground += 1;
        }
    }
    assert!(
        cache.hits > 0,
        "repeat (routine, path) queries hit the memo"
    );
    assert!(
        through_ground > 0,
        "some paths must reach a ground subtree part-way"
    );
}

/// Overload management is a pure function of `(seed, config)`: across a
/// seeds × strategies sweep of the canonical burst scenario, every
/// request resolves exactly one way (`completed + failed + shed ==
/// submitted`), and a same-seed replay reproduces the outcome stream,
/// the per-request shed reasons, and the circuit breaker's final states
/// bit-for-bit.
#[test]
fn overload_conserves_and_replays_across_seeds_and_strategies() {
    use tfgc::{overload_scenario, serve, Strategy};

    let mut total_shed = 0u64;
    let mut total_failed = 0u64;
    for seed in [2u64, 5, 11] {
        for s in [Strategy::Compiled, Strategy::Tagged] {
            let mut cfg = overload_scenario(s, seed);
            cfg.requests = 64; // keep the debug-build sweep quick
            let a = serve(&cfg).unwrap_or_else(|e| panic!("{s} seed {seed}: {e}"));
            let r = &a.report;
            assert_eq!(r.outcomes.len(), cfg.requests, "{s} seed {seed}");
            assert_eq!(
                r.completed + r.failed + r.shed,
                r.outcomes.len() as u64,
                "{s} seed {seed}: conservation"
            );
            let b = serve(&cfg).unwrap_or_else(|e| panic!("{s} seed {seed} replay: {e}"));
            assert_eq!(
                a.report.outcomes, b.report.outcomes,
                "{s} seed {seed}: outcome stream must replay bit-for-bit"
            );
            assert_eq!(
                a.report.breaker_trips, b.report.breaker_trips,
                "{s} seed {seed}"
            );
            assert_eq!(
                a.report.breaker_final, b.report.breaker_final,
                "{s} seed {seed}"
            );
            total_shed += r.shed;
            total_failed += r.failed;
        }
    }
    assert!(total_shed > 0, "the burst scenario must actually shed");
    assert!(
        total_failed > 0,
        "the runaways must actually be quarantined"
    );
}
