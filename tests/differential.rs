//! Cross-strategy differential testing.
//!
//! Every strategy must compute identical observable results on every
//! workload, under both roomy heaps and heaps small enough to force many
//! collections, and with collections forced at every allocation. Any
//! divergence is a collector soundness bug.

use tfgc::gc::GcStats;
use tfgc::vm::{BurstEnd, SafePoints, StepEvent, Vm};
use tfgc::{Compiled, Strategy, VmConfig};

fn differential(name: &str, src: &str, heap_words: usize) {
    let compiled = Compiled::compile(src).unwrap_or_else(|e| panic!("{name}: {e}"));
    let mut first: Option<(Strategy, String, Vec<i64>)> = None;
    for s in Strategy::ALL {
        let out = compiled
            .run_with(VmConfig::new(s).heap_words(heap_words))
            .unwrap_or_else(|e| panic!("{name} under {s}: {e}"));
        match &first {
            None => first = Some((s, out.result, out.printed)),
            Some((s0, r0, p0)) => {
                assert_eq!(&out.result, r0, "{name}: {s} vs {s0}");
                assert_eq!(&out.printed, p0, "{name}: {s} vs {s0}");
            }
        }
    }
}

#[test]
fn workload_suite_is_strategy_independent() {
    for (name, src) in tfgc::workloads::suite() {
        differential(name, &src, 1 << 15);
    }
}

/// Drives `vm` to completion through `Vm::step`, or through bursts of
/// `budget` instructions, and returns the result word.
fn drive(vm: &mut Vm<'_>, budget: Option<u64>, what: &str) -> u64 {
    loop {
        let end = match budget {
            None => vm.step().map(|ev| match ev {
                StepEvent::Continue => None,
                StepEvent::Done(w) => Some(w),
                StepEvent::AllocBlocked(site) => {
                    panic!("{what}: blocked at site {} outside tasking", site.0)
                }
            }),
            Some(n) => vm.burst(n, SafePoints::None).end.map(|end| match end {
                BurstEnd::Budget => None,
                BurstEnd::Done(w) => Some(w),
                other => panic!("{what}: {other:?} outside tasking"),
            }),
        };
        match end {
            Ok(Some(w)) => return w,
            Ok(None) => {}
            Err(e) => panic!("{what}: {e}"),
        }
    }
}

#[test]
fn run_and_a_step_loop_agree() {
    // `Vm::run`, `Vm::step` and a burst of any budget run one
    // instruction body. A fast path added to one entry alone, or an
    // instruction dropped or repeated at a burst's edge, would show here
    // as a differing output or counter, with collections and the
    // verifier interleaved. A budget of 64 is the benchmark's quantum.
    let untimed = |g: GcStats| GcStats {
        pause_nanos: 0,
        ..g
    };
    for (name, src) in tfgc::workloads::suite() {
        let compiled = Compiled::compile(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let prog = &compiled.program;
        for s in Strategy::ALL {
            let cfg = VmConfig::new(s).force_gc_every(7).verify_heap(true);
            let ran = Vm::new(prog, cfg.clone())
                .run()
                .unwrap_or_else(|e| panic!("{name} under {s}, run: {e}"));
            for budget in [None, Some(1), Some(7), Some(64)] {
                let what = format!("{name} under {s}, budget {budget:?}");
                let mut vm = Vm::new(prog, cfg.clone());
                let w = drive(&mut vm, budget, &what);
                assert_eq!(vm.printed, ran.printed, "{what}: printed");
                assert_eq!(vm.render(w, &prog.main_ty), ran.result, "{what}");
                assert_eq!(vm.heap.stats, ran.heap, "{what}: heap stats");
                assert_eq!(vm.mutator, ran.mutator, "{what}: mutator stats");
                assert_eq!(untimed(vm.gc_stats), untimed(ran.gc), "{what}: gc stats");
            }
        }
    }
}

#[test]
fn paper_examples_are_strategy_independent() {
    use tfgc::workloads::paper_examples as pe;
    differential("append_mono", &pe::append_mono(40), 1 << 13);
    differential("append_poly", &pe::append_poly(40), 1 << 13);
    differential("map_closure", &pe::map_closure(60), 1 << 13);
    differential("poly_f_main", pe::poly_f_main(), 1 << 13);
    differential("variant_records", &pe::variant_records(40), 1 << 13);
    differential("higher_order_poly", &pe::higher_order_poly(20), 1 << 13);
}

#[test]
fn forced_gc_at_every_allocation_agrees() {
    // The most hostile schedule: a collection before every allocation.
    let srcs = [
        (
            "rev",
            "fun append [] ys = ys | append (x :: xs) ys = x :: append xs ys ;
             fun rev xs = case xs of [] => [] | x :: r => append (rev r) [x] ;
             rev [1, 2, 3, 4, 5, 6]",
        ),
        (
            "tree",
            "datatype 'a tree = Leaf | Node of 'a tree * 'a * 'a tree ;
             fun insert t x = case t of Leaf => Node (Leaf, x, Leaf)
               | Node (l, v, r) => if x < v then Node (insert l x, v, r)
                 else Node (l, v, insert r x) ;
             fun build i n t = if i > n then t else build (i + 1) n (insert t ((i * 7) mod 13)) ;
             fun size t = case t of Leaf => 0 | Node (l, _, r) => 1 + size l + size r ;
             size (build 1 20 Leaf)",
        ),
        (
            "closures",
            "fun map f xs = case xs of [] => [] | x :: r => f x :: map f r ;
             fun sum xs = case xs of [] => 0 | x :: r => x + sum r ;
             let val k = 5 in sum (map (fn x => x * k) [1, 2, 3, 4]) end",
        ),
    ];
    for (name, src) in srcs {
        let compiled = Compiled::compile(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut first: Option<String> = None;
        for s in Strategy::ALL {
            let out = compiled
                .run_with(VmConfig::new(s).heap_words(1 << 13).force_gc_every(1))
                .unwrap_or_else(|e| panic!("{name} under {s}: {e}"));
            match &first {
                None => first = Some(out.result),
                Some(r) => assert_eq!(&out.result, r, "{name}: {s}"),
            }
        }
    }
}

#[test]
fn generated_programs_agree_across_strategies() {
    // Seeded random well-typed programs; every strategy must agree.
    let cfg = tfgc::workloads::GenConfig::default();
    for seed in 0..25u64 {
        let src = tfgc::workloads::generate(seed, &cfg);
        let compiled =
            Compiled::compile(&src).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
        let mut first: Option<(Strategy, String)> = None;
        for s in Strategy::ALL {
            let out = compiled
                .run_with(VmConfig::new(s).heap_words(1 << 14))
                .unwrap_or_else(|e| panic!("seed {seed} under {s}: {e}\n{src}"));
            match &first {
                None => first = Some((s, out.result)),
                Some((s0, r)) => {
                    assert_eq!(&out.result, r, "seed {seed}: {s} vs {s0}\n{src}")
                }
            }
        }
    }
}

#[test]
fn generated_programs_agree_under_pressure() {
    // Same generator, tiny heap: collections interleave with everything.
    let cfg = tfgc::workloads::GenConfig::default();
    for seed in 0..12u64 {
        let src = tfgc::workloads::generate(seed, &cfg);
        let compiled =
            Compiled::compile(&src).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
        let mut first: Option<String> = None;
        for s in Strategy::ALL {
            let out = compiled
                .run_with(VmConfig::new(s).heap_words(1 << 14).force_gc_every(3))
                .unwrap_or_else(|e| panic!("seed {seed} under {s}: {e}\n{src}"));
            match &first {
                None => first = Some(out.result),
                Some(r) => assert_eq!(&out.result, r, "seed {seed}: {s}\n{src}"),
            }
        }
    }
}

#[test]
fn refined_gc_points_are_sound() {
    // The closure-flow refinement omits strictly more gc_words; if it
    // omitted a wrong one, the collector would panic on encountering an
    // on-stack frame without a routine. Run the whole suite (plus the
    // closure-heavy programs) under refined metadata with forced
    // collections.
    for (name, src) in tfgc::workloads::suite() {
        let c = Compiled::compile(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let base = c
            .run_with(VmConfig::new(Strategy::Compiled).heap_words(1 << 15))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let meta = c.metadata_refined(Strategy::Compiled);
        let refined_omits = meta.omitted_gc_words();
        let first_order_omits = c.metadata(Strategy::Compiled).omitted_gc_words();
        assert!(
            refined_omits >= first_order_omits,
            "{name}: refinement must only remove gc_words"
        );
        let out = c
            .run_with_meta(
                VmConfig::new(Strategy::Compiled)
                    .heap_words(1 << 15)
                    .force_gc_every(25),
                meta,
            )
            .unwrap_or_else(|e| panic!("{name} refined: {e}"));
        assert_eq!(out.result, base.result, "{name}");
    }
}
