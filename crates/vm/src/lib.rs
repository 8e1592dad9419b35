//! # tfgc-vm — the TFML virtual machine
//!
//! Runs compiled TFML programs under any of the five collection
//! strategies. The machine is the paper's "implementation substrate":
//! explicit activation records with return words (Figure 1), collections
//! triggered only at allocation sites (§2.1), tag arithmetic performed
//! for real in the tagged encoding (§1), and per-run statistics for every
//! experiment.
//!
//! ```
//! use tfgc_syntax::parse_program;
//! use tfgc_types::elaborate;
//! use tfgc_ir::lower;
//! use tfgc_vm::{run_program, VmConfig};
//! use tfgc_gc::Strategy;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let prog = lower(&elaborate(&parse_program(
//!     "fun append [] ys = ys | append (x :: xs) ys = x :: append xs ys ;
//!      append [1, 2] [3]",
//! )?)?)?;
//! let out = run_program(&prog, VmConfig::new(Strategy::Compiled))?;
//! assert_eq!(out.result, "[1, 2, 3]");
//! # Ok(())
//! # }
//! ```

pub mod case;
pub mod error;
pub mod machine;
pub mod render;
pub mod stats;

pub use case::{fault_case, oracle_check, run_case, CaseOutcome};
pub use error::{VmError, VmResult};
pub use machine::{
    run_program, Burst, BurstEnd, RunOutcome, SafePoints, StepEvent, SuspendPolicy, Vm, VmConfig,
};
pub use render::render_value;
pub use stats::MutatorStats;
/// Re-exported so VM embedders (scheduler, CLI, torture harness) can
/// configure fault schedules and consume oracle snapshots without a
/// direct tfgc-verify dependency.
pub use tfgc_verify::{
    capture_panics_mut, is_structured_panic, with_quiet_panics, CanonHeap, CapturedPanic, FaultPlan,
};

#[cfg(test)]
mod tests {
    use super::*;
    use tfgc_gc::Strategy;
    use tfgc_ir::{lower, IrProgram};
    use tfgc_syntax::parse_program;
    use tfgc_types::elaborate;

    fn compile(src: &str) -> IrProgram {
        lower(&elaborate(&parse_program(src).expect("parse")).expect("types")).expect("lower")
    }

    fn run(src: &str, strategy: Strategy) -> RunOutcome {
        let prog = compile(src);
        run_program(&prog, VmConfig::new(strategy)).expect("run")
    }

    fn run_cfg(src: &str, cfg: VmConfig) -> RunOutcome {
        let prog = compile(src);
        run_program(&prog, cfg).expect("run")
    }

    /// Runs under every strategy and asserts identical observable output —
    /// the core differential-testing invariant.
    fn differential(src: &str) -> RunOutcome {
        let prog = compile(src);
        let mut outs = Vec::new();
        for s in Strategy::ALL {
            let out = run_program(&prog, VmConfig::new(s).heap_words(1 << 14))
                .unwrap_or_else(|e| panic!("{s}: {e}\nprogram:\n{src}"));
            outs.push((s, out));
        }
        let (first_s, first) = outs[0].clone();
        for (s, o) in &outs[1..] {
            assert_eq!(
                o.result, first.result,
                "result differs: {s} vs {first_s}\nprogram:\n{src}"
            );
            assert_eq!(
                o.printed, first.printed,
                "printed differs: {s} vs {first_s}\nprogram:\n{src}"
            );
        }
        outs.remove(0).1
    }

    #[test]
    fn arithmetic_runs() {
        let out = run("1 + 2 * 3", Strategy::Compiled);
        assert_eq!(out.result, "7");
    }

    #[test]
    fn append_from_the_paper() {
        let out = differential(
            "fun append [] ys = ys | append (x :: xs) ys = x :: append xs ys ;
             append [1, 2] [3, 4]",
        );
        assert_eq!(out.result, "[1, 2, 3, 4]");
    }

    #[test]
    fn printing_is_ordered() {
        let out = differential("(print 1; print 2; print 3; 0)");
        assert_eq!(out.printed, vec![1, 2, 3]);
    }

    #[test]
    fn factorial() {
        let out = differential("fun fact n = if n = 0 then 1 else n * fact (n - 1) ; fact 10");
        assert_eq!(out.result, "3628800");
    }

    #[test]
    fn higher_order_map() {
        let out = differential(
            "fun map f xs = case xs of [] => [] | x :: r => f x :: map f r ;
             map (fn x => x * x) [1, 2, 3, 4]",
        );
        assert_eq!(out.result, "[1, 4, 9, 16]");
    }

    #[test]
    fn partial_application() {
        let out = differential(
            "fun add x y = x + y ;
             fun map f xs = case xs of [] => [] | x :: r => f x :: map f r ;
             map (add 10) [1, 2, 3]",
        );
        assert_eq!(out.result, "[11, 12, 13]");
    }

    #[test]
    fn datatype_tree_sum() {
        let out = differential(
            "datatype tree = Leaf | Node of tree * int * tree ;
             fun sum t = case t of Leaf => 0 | Node (l, v, r) => sum l + v + sum r ;
             sum (Node (Node (Leaf, 1, Leaf), 2, Node (Leaf, 3, Leaf)))",
        );
        assert_eq!(out.result, "6");
    }

    #[test]
    fn polymorphic_f_from_section_3() {
        // §3's example: fun f x = let val y = [x, x] in (y, [3]) end.
        let out = differential(
            "fun f x = let val y = [x, x] in (y, [3]) end ;
             (f [true], f 7)",
        );
        assert_eq!(out.result, "(([[true], [true]], [3]), ([7, 7], [3]))");
    }

    #[test]
    fn gc_triggers_and_preserves_live_data() {
        let src = "fun build n = if n = 0 then [] else n :: build (n - 1) ;
             fun sum xs = case xs of [] => 0 | x :: r => x + sum r ;
             fun churn n = if n = 0 then 0 else (sum (build 50) + churn (n - 1)) - sum (build 50) ;
             let val keep = build 10 in (churn 50; sum keep) end";
        let prog = compile(src);
        for s in Strategy::ALL {
            // No-liveness strategies retain dead structures (that is the
            // measured effect), so they need headroom.
            let out = run_program(&prog, VmConfig::new(s).heap_words(1 << 13))
                .unwrap_or_else(|e| panic!("{s}: {e}"));
            assert_eq!(out.result, "55", "{s}");
            assert!(out.heap.collections > 0, "{s}: expected collections");
        }
    }

    #[test]
    fn deep_list_survives_many_gcs() {
        let src = "fun build n = if n = 0 then [] else n :: build (n - 1) ;
             fun len xs = case xs of [] => 0 | _ :: r => 1 + len r ;
             fun churn n = if n = 0 then 0 else (churn (n - 1); (build 30; 0)) ;
             let val keep = build 200 in (churn 150; len keep) end";
        let prog = compile(src);
        for s in Strategy::ALL {
            let out = run_program(&prog, VmConfig::new(s).heap_words(1 << 11))
                .unwrap_or_else(|e| panic!("{s}: {e}"));
            assert_eq!(out.result, "200", "{s}");
            assert!(out.heap.collections > 3, "{s}");
        }
    }

    #[test]
    fn closures_survive_collection() {
        // Post-order churn: garbage is created after the recursive call
        // returns, so even the Appel strategy cannot pin it in live
        // frames.
        let src = "fun build n = if n = 0 then [] else n :: build (n - 1) ;
             fun churn n = if n = 0 then 0 else (churn (n - 1); (build 40; 0)) ;
             let val base = build 5
                 fun sum xs = case xs of [] => 0 | x :: r => x + sum r
                 val f = fn y => sum base + y in
               (churn 60; f 100)
             end";
        let prog = compile(src);
        for s in Strategy::ALL {
            let out = run_program(&prog, VmConfig::new(s).heap_words(1 << 11))
                .unwrap_or_else(|e| panic!("{s}: {e}"));
            assert_eq!(out.result, "115", "{s}");
            assert!(out.heap.collections > 0, "{s}");
        }
    }

    #[test]
    fn polymorphic_data_survives_forced_gcs() {
        // Force a collection at every allocation: the polymorphic frame
        // routines must reconstruct exact type information every time.
        let src = "fun append [] ys = ys | append (x :: xs) ys = x :: append xs ys ;
             fun rev xs = case xs of [] => [] | x :: r => append (rev r) [x] ;
             rev [1, 2, 3, 4, 5]";
        for s in Strategy::ALL {
            let prog = compile(src);
            let out = run_program(
                &prog,
                VmConfig::new(s).heap_words(1 << 12).force_gc_every(1),
            )
            .unwrap_or_else(|e| panic!("{s}: {e}"));
            assert_eq!(out.result, "[5, 4, 3, 2, 1]", "{s}");
            assert!(out.heap.collections > 10, "{s}");
        }
    }

    #[test]
    fn hidden_descriptor_closure_survives_gc() {
        // The §3 gap case: an int -> int closure capturing an `'a list`.
        // Only the hidden descriptor lets the collector trace `x`.
        let src = "fun konst x = fn u => (case x of [] => u | y :: _ => y + u) ;
             fun spin f n = if n = 0 then f 1 else let val r = spin f (n - 1) in ((n, n); r) end ;
             let val f = konst [41] in (spin f 1200; f 1) end";
        for s in Strategy::ALL {
            let prog = compile(src);
            let out = run_program(&prog, VmConfig::new(s).heap_words(1 << 11))
                .unwrap_or_else(|e| panic!("{s}: {e}"));
            assert_eq!(out.result, "42", "{s}");
            assert!(out.heap.collections > 0, "{s}");
        }
    }

    #[test]
    fn tagged_mode_counts_tag_ops() {
        let src = "fun fib n = if n < 2 then n else fib (n - 1) + fib (n - 2) ; fib 15";
        let tagged = run(src, Strategy::Tagged);
        let tagfree = run(src, Strategy::Compiled);
        assert_eq!(tagged.result, tagfree.result);
        assert!(tagged.mutator.tag_ops > 0);
        assert_eq!(tagfree.mutator.tag_ops, 0);
    }

    #[test]
    fn tagged_heap_uses_more_words() {
        // §1's first advantage: headers cost a word per object.
        let src = "fun build n = if n = 0 then [] else n :: build (n - 1) ; build 100";
        let tagged = run(src, Strategy::Tagged);
        let tagfree = run(src, Strategy::Compiled);
        // Cons cells: exactly 2 words tag-free (the paper's cons_cell),
        // 3 words tagged (header + fields).
        assert_eq!(tagfree.heap.words_allocated, 200);
        assert_eq!(tagged.heap.words_allocated, 300);
    }

    #[test]
    fn liveness_reclaims_dead_structures() {
        // A large dead list exists during `churn`; the liveness-aware
        // collector must not retain it.
        let src = "fun build n = if n = 0 then [] else n :: build (n - 1) ;
             fun len xs = case xs of [] => 0 | _ :: r => 1 + len r ;
             fun churn n = if n = 0 then 0 else (churn (n - 1); (build 20; 0)) ;
             let val dead = build 100
                 val n = len dead in
               (churn 80; n)
             end";
        let prog = compile(src);
        let live = run_program(&prog, VmConfig::new(Strategy::Compiled).heap_words(1 << 11))
            .expect("compiled");
        let appel = run_program(
            &prog,
            VmConfig::new(Strategy::AppelPerFn).heap_words(1 << 11),
        )
        .expect("appel");
        assert_eq!(live.result, appel.result);
        assert!(live.heap.collections > 0);
        // The Appel collector drags the dead list through every
        // collection; the liveness-aware one does not.
        assert!(
            appel.heap.words_copied > live.heap.words_copied,
            "appel copied {} <= compiled copied {}",
            appel.heap.words_copied,
            live.heap.words_copied
        );
    }

    #[test]
    fn interpreted_reads_descriptor_bytes() {
        let src = "fun build n = if n = 0 then [] else n :: build (n - 1) ;
             fun hold (xs : int list) n = if n = 0 then xs else (build 10; hold xs (n - 1)) ;
             case hold (build 5) 30 of [] => 0 | x :: _ => x";
        let prog = compile(src);
        let out = run_program(
            &prog,
            VmConfig::new(Strategy::Interpreted).heap_words(1 << 9),
        )
        .expect("interpreted");
        assert_eq!(out.result, "5");
        assert!(out.gc.collections > 0);
        assert!(out.gc.desc_bytes_read > 0);
    }

    #[test]
    fn appel_counts_chain_steps() {
        // Deep polymorphic recursion: Appel's backward resolution visits
        // O(depth) frames per frame.
        let src = "fun len xs = case xs of [] => 0 | _ :: t => 1 + len t ;
             fun build n = if n = 0 then [] else n :: build (n - 1) ;
             len (build 50)";
        let prog = compile(src);
        let fwd = run_program(
            &prog,
            VmConfig::new(Strategy::Compiled)
                .heap_words(1 << 9)
                .force_gc_every(40),
        )
        .expect("compiled");
        let bwd = run_program(
            &prog,
            VmConfig::new(Strategy::AppelPerFn)
                .heap_words(1 << 9)
                .force_gc_every(40),
        )
        .expect("appel");
        assert_eq!(fwd.result, bwd.result);
        assert_eq!(fwd.gc.chain_steps, 0);
        assert!(bwd.gc.chain_steps > bwd.gc.frames_visited);
    }

    #[test]
    fn out_of_memory_is_reported() {
        let src = "fun build n = if n = 0 then [] else n :: build (n - 1) ; build 10000";
        let prog = compile(src);
        let err = run_program(&prog, VmConfig::new(Strategy::Compiled).heap_words(256))
            .expect_err("should exhaust heap");
        assert!(matches!(err, VmError::OutOfMemory { .. }));
    }

    #[test]
    fn match_failure_is_reported() {
        let src = "case [] of x :: _ => x";
        let prog = compile(src);
        let err = run_program(&prog, VmConfig::new(Strategy::Compiled)).expect_err("no arm");
        assert!(matches!(err, VmError::MatchFailure { .. }));
    }

    #[test]
    fn divide_by_zero_is_reported() {
        let prog = compile("1 div 0");
        let err = run_program(&prog, VmConfig::new(Strategy::Compiled)).expect_err("div0");
        assert!(matches!(err, VmError::DivideByZero { .. }));
    }

    #[test]
    fn globals_work_across_strategies() {
        let out = differential(
            "val table = [10, 20, 30] ;
             fun nth xs n = case xs of [] => 0 | x :: r => if n = 0 then x else nth r (n - 1) ;
             nth table 1 + nth table 2",
        );
        assert_eq!(out.result, "50");
    }

    #[test]
    fn globals_survive_collection() {
        let src = "val keep = [1, 2, 3] ;
             fun build n = if n = 0 then [] else n :: build (n - 1) ;
             fun churn n = if n = 0 then 0 else (churn (n - 1); (build 30; 0)) ;
             fun sum xs = case xs of [] => 0 | x :: r => x + sum r ;
             (churn 80; sum keep)";
        let prog = compile(src);
        for s in Strategy::ALL {
            let out = run_program(&prog, VmConfig::new(s).heap_words(1 << 11))
                .unwrap_or_else(|e| panic!("{s}: {e}"));
            assert_eq!(out.result, "6", "{s}");
            assert!(out.heap.collections > 0, "{s}");
        }
    }

    #[test]
    fn variant_records_across_strategies() {
        let out = differential(
            "datatype shape = Circle of int | Rect of int * int | Point ;
             fun area s = case s of Circle r => 3 * r * r | Rect (w, h) => w * h | Point => 0 ;
             fun total xs = case xs of [] => 0 | s :: r => area s + total r ;
             total [Circle 2, Rect (3, 4), Point, Rect (1, 5)]",
        );
        assert_eq!(out.result, "29");
    }

    #[test]
    fn mutual_recursion_runs() {
        let out = differential(
            "fun even n = if n = 0 then true else odd (n - 1)
             and odd n = if n = 0 then false else even (n - 1) ;
             (even 10, odd 7)",
        );
        assert_eq!(out.result, "(true, true)");
    }

    #[test]
    fn nqueens_smoke() {
        let out = differential(
            "fun abs x = if x < 0 then ~x else x ;
             fun len xs = case xs of [] => 0 | _ :: t => 1 + len t ;
             fun safe q qs d = case qs of [] => true
               | x :: r => x <> q andalso abs (x - q) <> d andalso safe q r (d + 1) ;
             fun range i n = if i > n then [] else i :: range (i + 1) n ;
             fun count qs n =
               if len qs = n then 1
               else let fun try cols = case cols of [] => 0
                          | c :: rest => (if safe c qs 1 then count (c :: qs) n else 0) + try rest
                    in try (range 1 n) end ;
             count [] 5",
        );
        assert_eq!(out.result, "10");
    }

    #[test]
    fn rendered_values_cover_shapes() {
        assert_eq!(run("()", Strategy::Compiled).result, "()");
        assert_eq!(
            run("(1, (true, [2]))", Strategy::Compiled).result,
            "(1, (true, [2]))"
        );
        assert_eq!(run("fn x => x", Strategy::Compiled).result, "<fn>");
        assert_eq!(
            run("datatype t = A of int | B ; A 5", Strategy::Compiled).result,
            "A (5)"
        );
        assert_eq!(
            run("datatype t = A of int | B ; B", Strategy::Compiled).result,
            "B"
        );
    }

    #[test]
    fn step_limit_enforced() {
        let src = "fun loop n = loop n ; loop 1";
        let prog = compile(src);
        let mut cfg = VmConfig::new(Strategy::Compiled);
        cfg.max_steps = Some(10_000);
        let err = run_program(&prog, cfg).expect_err("must not terminate");
        assert!(matches!(
            err,
            VmError::StepLimit { .. } | VmError::StackOverflow { .. }
        ));
    }

    #[test]
    fn force_gc_every_allocation_is_sound() {
        let out = run_cfg(
            "fun rev xs acc = case xs of [] => acc | x :: r => rev r (x :: acc) ;
             rev [1, 2, 3, 4] []",
            VmConfig::new(Strategy::Compiled).force_gc_every(1),
        );
        assert_eq!(out.result, "[4, 3, 2, 1]");
        assert!(out.heap.collections >= 4);
    }

    #[test]
    fn metadata_bytes_reported() {
        let src = "fun id x = x ; id [1]";
        let compiled = run(src, Strategy::Compiled);
        let tagged = run(src, Strategy::Tagged);
        assert!(compiled.metadata_bytes > 0);
        assert_eq!(tagged.metadata_bytes, 0);
    }
}
