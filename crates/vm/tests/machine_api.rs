//! Tests of the VM's thread/step API and value rendering.

use tfgc_gc::Strategy;
use tfgc_ir::{lower, IrProgram};
use tfgc_syntax::parse_program;
use tfgc_types::elaborate;
use tfgc_vm::{FaultPlan, StepEvent, Vm, VmConfig, VmError};

fn compile(src: &str) -> IrProgram {
    lower(&elaborate(&parse_program(src).unwrap()).unwrap()).unwrap()
}

#[test]
fn single_stepping_reaches_done() {
    let prog = compile("1 + 2");
    let mut vm = Vm::new(&prog, VmConfig::new(Strategy::Compiled));
    let mut steps = 0;
    loop {
        match vm.step().unwrap() {
            StepEvent::Done(w) => {
                assert_eq!(vm.decode_int(w), 3);
                break;
            }
            StepEvent::Continue => steps += 1,
            StepEvent::AllocBlocked(_) => unreachable!(),
        }
        assert!(steps < 100, "tiny program must finish quickly");
    }
    assert!(vm.is_done());
}

#[test]
fn stepping_a_finished_thread_repeats_done() {
    let prog = compile("1 + 2");
    let mut vm = Vm::new(&prog, VmConfig::new(Strategy::Compiled));
    let w = loop {
        if let StepEvent::Done(w) = vm.step().unwrap() {
            break w;
        }
    };
    let executed = vm.mutator.instructions;
    for _ in 0..3 {
        assert_eq!(vm.step().unwrap(), StepEvent::Done(w));
    }
    assert_eq!(vm.mutator.instructions, executed, "nothing left to execute");
    assert_eq!(vm.decode_int(w), 3);
}

#[test]
fn stepping_a_killed_thread_is_an_internal_error() {
    let prog = compile(
        "fun work n = if n = 0 then 0 else n + work (n - 1) ;
         0",
    );
    let work = tfgc_ir::FnId(0);
    let mut vm = Vm::new(&prog, VmConfig::new(Strategy::Compiled));
    let arg = vm.encode_int(50);
    let t = vm.spawn_thread(work, &[arg]);
    vm.set_current_thread(t);
    for _ in 0..10 {
        assert_eq!(vm.step().unwrap(), StepEvent::Continue);
    }
    vm.kill_thread(t);
    let executed = vm.mutator.instructions;
    match vm.step() {
        Err(VmError::Internal { detail }) => {
            assert!(detail.contains(&format!("thread {t}")), "{detail}")
        }
        other => panic!("expected an internal error, got {other:?}"),
    }
    assert_eq!(
        vm.mutator.instructions, executed,
        "a killed thread executes nothing"
    );
    // Respawning gives the slot work again.
    vm.respawn_thread(t, work, &[arg]);
    let w = loop {
        if let StepEvent::Done(w) = vm.step().unwrap() {
            break w;
        }
    };
    assert_eq!(vm.decode_int(w), 1275);
}

#[test]
fn a_stalled_thread_burns_one_instruction_per_step() {
    let prog = compile(
        "fun build n = if n = 0 then [] else n :: build (n - 1) ;
         fun first n = case build n of [] => 0 | x :: _ => x ;
         0",
    );
    let first = tfgc_ir::FnId(1);
    assert!(prog.fun(first).name.starts_with("first"));
    let mut cfg = VmConfig::new(Strategy::Compiled).fault_plan(FaultPlan {
        stall_at: Some(1),
        ..FaultPlan::none()
    });
    cfg.cooperative = true;
    let mut vm = Vm::new(&prog, cfg);
    while vm.step().unwrap() == StepEvent::Continue {}
    let arg = vm.encode_int(4);
    let t = vm.spawn_thread(first, &[arg]);
    vm.set_current_thread(t);
    while !vm.thread_stalled(t) {
        assert_eq!(vm.step().unwrap(), StepEvent::Continue);
    }
    let (executed, depth) = (vm.mutator.instructions, vm.stack_words());
    for k in 1..=5 {
        assert_eq!(vm.step().unwrap(), StepEvent::Continue);
        assert_eq!(vm.mutator.instructions, executed + k);
    }
    assert_eq!(
        vm.stack_words(),
        depth,
        "a stalled thread makes no progress"
    );
}

#[test]
fn spawned_threads_run_independently() {
    let prog = compile(
        "fun work n = if n = 0 then 0 else n + work (n - 1) ;
         0",
    );
    let work = tfgc_ir::FnId(0);
    let mut vm = Vm::new(&prog, VmConfig::new(Strategy::Compiled));
    // Finish main (thread 0) first.
    loop {
        if let StepEvent::Done(_) = vm.step().unwrap() {
            break;
        }
    }
    let a1 = vm.encode_int(3);
    let a2 = vm.encode_int(5);
    let t1 = vm.spawn_thread(work, &[a1]);
    let t2 = vm.spawn_thread(work, &[a2]);
    assert_eq!(vm.thread_count(), 3);
    // Interleave them manually.
    let mut done = [false, false];
    while !done[0] || !done[1] {
        for (k, t) in [t1, t2].into_iter().enumerate() {
            if done[k] {
                continue;
            }
            vm.set_current_thread(t);
            for _ in 0..5 {
                if let StepEvent::Done(_) = vm.step().unwrap() {
                    done[k] = true;
                    break;
                }
            }
        }
    }
    assert_eq!(vm.decode_int(vm.thread_result(t1).unwrap()), 6);
    assert_eq!(vm.decode_int(vm.thread_result(t2).unwrap()), 15);
}

#[test]
fn cooperative_alloc_block_reexecutes_cleanly() {
    let prog = compile(
        "fun build n = if n = 0 then [] else n :: build (n - 1) ;
         fun churn n = if n = 0 then 0 else (churn (n - 1); (build 10; 0)) ;
         churn 30",
    );
    let mut cfg = VmConfig::new(Strategy::Compiled).heap_words(256);
    cfg.cooperative = true;
    let mut vm = Vm::new(&prog, cfg);
    let mut blocks = 0;
    loop {
        match vm.step().unwrap() {
            StepEvent::Done(w) => {
                assert_eq!(vm.decode_int(w), 0);
                break;
            }
            StepEvent::AllocBlocked(site) => {
                blocks += 1;
                assert!(blocks < 10_000, "must make progress");
                vm.collect_parked(site).unwrap();
            }
            StepEvent::Continue => {}
        }
    }
    assert!(blocks > 0, "tiny heap must block at least once");
    assert_eq!(vm.gc_stats.collections, blocks);
}

#[test]
fn render_deep_and_cyclic_free_structures() {
    let prog = compile(
        "fun build n = if n = 0 then [] else n :: build (n - 1) ;
         build 5",
    );
    let mut vm = Vm::new(&prog, VmConfig::new(Strategy::Compiled));
    let out = vm.run().unwrap();
    assert_eq!(out.result, "[5, 4, 3, 2, 1]");
}

#[test]
fn render_truncates_very_deep_nesting() {
    // Nested tuples beyond the render depth print "..." instead of
    // overflowing.
    let mut src = String::from("1");
    for _ in 0..80 {
        src = format!("({src}, 2)");
    }
    let prog = compile(&src);
    let mut vm = Vm::new(&prog, VmConfig::new(Strategy::Compiled));
    let out = vm.run().unwrap();
    assert!(out.result.contains("..."));
}

#[test]
fn max_stack_words_bounds_recursion() {
    let prog = compile("fun down n = if n = 0 then 0 else down (n - 1) ; down 100000");
    let mut cfg = VmConfig::new(Strategy::Compiled);
    cfg.max_stack_words = 4096;
    let mut vm = Vm::new(&prog, cfg);
    let err = vm.run().unwrap_err();
    assert!(matches!(err, tfgc_vm::VmError::StackOverflow { .. }));
}

#[test]
fn stats_track_calls_and_closure_calls() {
    let prog = compile(
        "fun apply f x = f x ;
         fun inc n = n + 1 ;
         apply (fn z => inc z) 1 + apply (fn z => z) 2",
    );
    let mut vm = Vm::new(&prog, VmConfig::new(Strategy::Compiled));
    let out = vm.run().unwrap();
    assert!(out.mutator.calls >= 3, "apply x2 + inc");
    assert_eq!(out.mutator.closure_calls, 2);
}

#[test]
fn desc_arena_stats_surface_in_outcome() {
    let src = "fun konst x = fn u => (let val probe = [x] in u end) ;
               (konst [1]) 5";
    let prog = compile(src);
    let mut vm = Vm::new(&prog, VmConfig::new(Strategy::Compiled));
    let out = vm.run().unwrap();
    assert!(out.descs_interned > 0, "hidden descriptors were interned");
    assert!(out.mutator.desc_evals > 0);
}
