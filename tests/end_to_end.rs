//! End-to-end scenario tests: golden results for the workload suite,
//! deep-recursion behavior, error paths, and the experiment runners.

use tfgc::{Compiled, Strategy, VmConfig};

#[test]
fn workload_suite_golden_results() {
    // Exact expected values computed by independent reasoning about the
    // programs; any drift in the compiler or collectors shows up here.
    let expected = [
        ("fib", "2584"),     // fib(18)
        ("naive_rev", "60"), // length preserved by reversal
        ("churn", "0"),
        ("poly_depth", "200"), // copy preserves length
        ("nqueens", "4"),      // 6-queens has 4 solutions
        ("mergesort", "1"),    // output is sorted
        ("sieve", "22"),       // 22 primes up to 80
        ("church", "30"),      // church 30 applied to succ/0
    ];
    let suite = tfgc::workloads::suite();
    for (name, want) in expected {
        let (_, src) = suite
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("workload {name} missing"));
        let c = Compiled::compile(src).unwrap();
        let out = c
            .run_with(VmConfig::new(Strategy::Compiled).heap_words(1 << 15))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(out.result, want, "{name}");
    }
}

#[test]
fn tree_workload_result_is_tree_size() {
    let src = tfgc::workloads::programs::tree_insert(150);
    let c = Compiled::compile(&src).unwrap();
    let out = c
        .run_with(VmConfig::new(Strategy::Compiled).heap_words(1 << 15))
        .unwrap();
    // Every insert adds a node (duplicates descend right, still inserted).
    assert_eq!(out.result, "150");
}

#[test]
fn deep_recursion_with_small_heap_survives() {
    // A 2000-deep monomorphic recursion with GC pressure.
    let src = "fun build n = if n = 0 then [] else n :: build (n - 1) ;
               fun len xs = case xs of [] => 0 | _ :: t => 1 + len t ;
               len (build 2000)";
    let c = Compiled::compile(src).unwrap();
    for s in [Strategy::Compiled, Strategy::Tagged] {
        let out = c
            .run_with(VmConfig::new(s).heap_words(1 << 13))
            .unwrap_or_else(|e| panic!("{s}: {e}"));
        assert_eq!(out.result, "2000", "{s}");
    }
}

#[test]
fn million_element_list_collects_without_rust_stack_overflow() {
    // The collector's typed worklist must handle very deep structures,
    // under the plan engine and under the per-object descriptor walk
    // (whose `Param` collapsing keeps environments shallow on a spine).
    let src = "fun build n = if n = 0 then [] else n :: build (n - 1) ;
               fun churn n = if n = 0 then 0 else (churn (n - 1); (build 4000; 0)) ;
               fun last xs = case xs of [] => 0 | x :: t => (case t of [] => x | _ => last t) ;
               let val big = build 20000 in (churn 6; last big) end";
    let c = Compiled::compile(src).unwrap();
    for s in [Strategy::Compiled, Strategy::Interpreted] {
        let mut cfg = VmConfig::new(s).heap_words(1 << 16);
        cfg.max_stack_words = 1 << 23;
        let out = c.run_with(cfg).unwrap();
        assert_eq!(out.result, "1", "{s}");
        assert!(
            out.heap.collections > 0,
            "{s}: the churn must trigger GC with big live"
        );
    }
}

#[test]
fn oom_reports_live_words() {
    let src = "fun build n = if n = 0 then [] else n :: build (n - 1) ; build 5000";
    let c = Compiled::compile(src).unwrap();
    let err = c
        .run_with(VmConfig::new(Strategy::Compiled).heap_words(512))
        .unwrap_err();
    match err {
        tfgc::VmError::OutOfMemory { live, .. } => assert!(live > 0),
        other => panic!("expected OOM, got {other}"),
    }
}

#[test]
fn experiment_runners_produce_tables() {
    // The experiment harness itself is part of the deliverable; exercise
    // the cheap ones end to end.
    let e6 = run_in_subcrate::e6();
    assert!(e6.contains("fib"));
    assert!(e6.contains("no_trace"));
}

mod run_in_subcrate {
    // The bench crate isn't a dependency of the root tests; re-derive the
    // E6 numbers through the public API instead.
    use tfgc::gc::NO_TRACE;
    use tfgc::{Compiled, Strategy};

    pub fn e6() -> String {
        let mut out = String::from("workload sites omitted no_trace\n");
        for (name, src) in tfgc::workloads::suite() {
            let c = Compiled::compile(&src).expect("compiles");
            let meta = c.metadata(Strategy::Compiled);
            let no_trace = meta
                .sites
                .iter()
                .filter(|s| s.routine == Some(NO_TRACE))
                .count();
            out.push_str(&format!(
                "{name} {} {} {no_trace}\n",
                c.program.sites.len(),
                meta.omitted_gc_words()
            ));
        }
        out
    }
}

#[test]
fn paper_quote_simple_programs_simple_collectors() {
    // §1: "a program that manipulates mainly simple types will have very
    // simple and short garbage collection routines."
    let simple =
        Compiled::compile("fun build n = if n = 0 then [] else n :: build (n - 1) ; build 10")
            .unwrap();
    let complex = Compiled::compile(
        "datatype 'a rose = Rose of 'a * 'a rose list ;
         fun leaves r = case r of Rose (v, kids) =>
           (case kids of [] => 1 | _ => sumall kids)
         and sumall rs = case rs of [] => 0 | r :: rest => leaves r + sumall rest ;
         fun mk d = if d = 0 then Rose (1, []) else Rose (d, [mk (d - 1), mk (d - 1)]) ;
         leaves (mk 4)",
    )
    .unwrap();
    let simple_meta = simple.metadata(Strategy::Compiled);
    let complex_meta = complex.metadata(Strategy::Compiled);
    assert!(
        simple_meta.metadata_bytes() < complex_meta.metadata_bytes(),
        "simple programs get smaller collectors: {} vs {}",
        simple_meta.metadata_bytes(),
        complex_meta.metadata_bytes()
    );
}

#[test]
fn mutually_recursive_datatypes_work() {
    // Mutual recursion across datatypes: registration is two-pass, so
    // forward references between consecutive declarations resolve.
    let src = "datatype expr = Lit of int | Neg of expr | Sum of elist ;
               datatype elist = Nil2 | Cons2 of expr * elist ;
               fun eval e = case e of Lit n => n | Neg x => 0 - eval x | Sum es => evs es
               and evs es = case es of Nil2 => 0 | Cons2 (e, r) => eval e + evs r ;
               eval (Sum (Cons2 (Lit 1, Cons2 (Neg (Lit 2), Cons2 (Lit 4, Nil2)))))";
    let c = Compiled::compile(src).unwrap();
    for s in Strategy::ALL {
        let out = c
            .run_with(VmConfig::new(s).heap_words(1 << 12))
            .unwrap_or_else(|e| panic!("{s}: {e}"));
        assert_eq!(out.result, "3", "{s}");
    }
}

#[test]
fn rose_trees_under_forced_gc() {
    // Nested datatype (list of trees inside tree) with per-allocation GC.
    let src = "datatype 'a rose = Rose of 'a * 'a rose list ;
               fun count r = case r of Rose (_, kids) => 1 + countall kids
               and countall rs = case rs of [] => 0 | r :: rest => count r + countall rest ;
               fun mk d = if d = 0 then Rose (0, []) else Rose (d, [mk (d - 1), mk (d - 1)]) ;
               count (mk 5)";
    let c = Compiled::compile(src).unwrap();
    for s in Strategy::ALL {
        let out = c
            .run_with(VmConfig::new(s).heap_words(1 << 13).force_gc_every(2))
            .unwrap_or_else(|e| panic!("{s}: {e}"));
        assert_eq!(out.result, "63", "{s}");
    }
}
