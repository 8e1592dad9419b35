//! Tests of the VM's thread/step API and value rendering.

use tfgc_gc::Strategy;
use tfgc_ir::{lower, Instr, IrProgram};
use tfgc_syntax::parse_program;
use tfgc_types::elaborate;
use tfgc_vm::{
    capture_panics_mut, BurstEnd, FaultPlan, SafePoints, StepEvent, Vm, VmConfig, VmError,
};

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
    let mut vm = Vm::new(&prog, cfg.clone());
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

    // `Vm::run` on a fresh cooperative VM collects at each block too.
    let out = Vm::new(&prog, cfg).run().unwrap();
    assert_eq!(out.result, "0");
    assert_eq!(out.gc.collections, blocks);
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

/// The function whose name starts with `name`.
fn fn_named(prog: &IrProgram, name: &str) -> tfgc_ir::FnId {
    (0..prog.funs.len())
        .map(|i| tfgc_ir::FnId(i as u32))
        .find(|f| prog.fun(*f).name.starts_with(name))
        .unwrap_or_else(|| panic!("no fn {name}"))
}

/// Thread 1 of a cooperative machine whose main has finished, set up to
/// run `entry(arg)`.
fn task_vm<'p>(prog: &'p IrProgram, cfg: VmConfig, entry: &str, arg: i64) -> Vm<'p> {
    let f = fn_named(prog, entry);
    let mut cfg = cfg;
    cfg.cooperative = true;
    let mut vm = Vm::new(prog, cfg);
    while vm.step().unwrap() == StepEvent::Continue {}
    let arg = vm.encode_int(arg);
    let t = vm.spawn_thread(f, &[arg]);
    vm.set_current_thread(t);
    vm
}

const LISTS: &str = "fun build n = if n = 0 then [] else n :: build (n - 1) ;
                     fun len xs = case xs of [] => 0 | _ :: r => 1 + len r ;
                     fun work n = len (build n) ;
                     0";

#[test]
fn a_pending_collection_stops_a_burst_before_its_first_safe_point() {
    let prog = compile(LISTS);
    for stop in [SafePoints::Allocations, SafePoints::CallsAndAllocations] {
        let is_safe_point = |ins: &Instr| match ins {
            Instr::CallDirect { .. } | Instr::CallClosure { .. } => {
                stop == SafePoints::CallsAndAllocations
            }
            Instr::MakeTuple { .. } | Instr::MakeData { .. } | Instr::MakeClosure { .. } => true,
            _ => false,
        };
        // Reference: step until the next instruction is a safe point.
        let mut stepped = task_vm(&prog, VmConfig::new(Strategy::Compiled), "work", 5);
        let calls = |vm: &Vm| vm.mutator.calls + vm.mutator.closure_calls;
        let (start, calls_before) = (stepped.mutator.instructions, calls(&stepped));
        while !is_safe_point(stepped.current_instr()) {
            assert_eq!(stepped.step().unwrap(), StepEvent::Continue);
        }
        let ran = stepped.mutator.instructions - start;
        let site = stepped.current_site().unwrap();

        let mut vm = task_vm(&prog, VmConfig::new(Strategy::Compiled), "work", 5);
        let b = vm.burst(1_000, stop);
        assert_eq!(b.end, Ok(BurstEnd::SafePoint(site)), "{stop:?}");
        assert_eq!(
            b.completed, ran,
            "{stop:?}: the safe point itself did not run"
        );
        assert_eq!(vm.mutator.instructions - start, ran, "{stop:?}");
        assert_eq!(vm.current_site(), Some(site), "{stop:?}: pc stays on it");
        assert_eq!(vm.stack_words(), stepped.stack_words(), "{stop:?}");
        assert_eq!(b.allocs, 0, "{stop:?}: no allocation dispatched");
        assert_eq!(b.calls, calls(&stepped) - calls_before, "{stop:?}");
        // Still pending: the next burst stops at once and counts nothing.
        let again = vm.burst(1_000, stop);
        assert_eq!(again.end, Ok(BurstEnd::SafePoint(site)), "{stop:?}");
        assert_eq!((again.completed, again.calls, again.allocs), (0, 0, 0));
        assert_eq!(vm.mutator.instructions - start, ran, "{stop:?}");
        // Collected: the safe point runs first.
        let resumed = vm.burst(1, SafePoints::None);
        assert_eq!(resumed.end, Ok(BurstEnd::Budget), "{stop:?}");
        assert_eq!(resumed.calls + resumed.allocs, 1, "{stop:?}");
    }
}

#[test]
fn a_thread_that_stalls_mid_burst_burns_the_rest_of_its_budget() {
    let prog = compile(LISTS);
    let cfg = VmConfig::new(Strategy::Compiled).fault_plan(FaultPlan {
        stall_at: Some(1),
        ..FaultPlan::none()
    });
    // Reference: the instructions up to and including the allocation
    // that stalls the thread.
    let mut stepped = task_vm(&prog, cfg.clone(), "work", 5);
    let start = stepped.mutator.instructions;
    while !stepped.thread_stalled(1) {
        assert_eq!(stepped.step().unwrap(), StepEvent::Continue);
    }
    let to_stall = stepped.mutator.instructions - start;
    for budget in [to_stall, to_stall + 1, to_stall + 50] {
        let mut vm = task_vm(&prog, cfg.clone(), "work", 5);
        let b = vm.burst(budget, SafePoints::None);
        assert_eq!(b.end, Ok(BurstEnd::Budget), "budget {budget}");
        assert!(vm.thread_stalled(1), "budget {budget}");
        assert_eq!(b.completed, budget, "budget {budget}");
        assert_eq!(vm.mutator.instructions - start, budget, "budget {budget}");
        assert_eq!(vm.stack_words(), stepped.stack_words(), "no progress");
        assert_eq!(vm.current_site(), stepped.current_site(), "budget {budget}");
    }
}

#[test]
fn a_burst_fails_at_the_step_limit_where_a_step_loop_does() {
    let prog = compile("fun down n = if n = 0 then 0 else down (n - 1) ; down 1000");
    let mut cfg = VmConfig::new(Strategy::Compiled);
    cfg.max_steps = Some(2_500);
    let mut stepped = Vm::new(&prog, cfg.clone());
    let err = loop {
        match stepped.step() {
            Ok(StepEvent::Continue) => {}
            Ok(ev) => panic!("the step loop ended with {ev:?} under the limit"),
            Err(e) => break e,
        }
    };
    assert_eq!(err, VmError::StepLimit { limit: 2_500 });
    assert_eq!(stepped.mutator.instructions, 2_500);
    for budget in [1, 7, 64, 2_500, u64::MAX] {
        let mut vm = Vm::new(&prog, cfg.clone());
        let mut completed = 0;
        let err = loop {
            let b = vm.burst(budget, SafePoints::None);
            completed += b.completed;
            match b.end {
                Ok(BurstEnd::Budget) => {}
                Ok(end) => panic!("budget {budget}: {end:?}"),
                Err(e) => break e,
            }
        };
        assert_eq!(err, VmError::StepLimit { limit: 2_500 }, "budget {budget}");
        assert_eq!(vm.mutator, stepped.mutator, "budget {budget}");
        assert_eq!(completed, 2_500, "budget {budget}");
    }
}

#[test]
fn a_thread_stays_parked_at_its_site_until_its_next_burst() {
    let prog = compile(LISTS);
    let mut vm = task_vm(&prog, VmConfig::new(Strategy::Compiled), "work", 5);
    assert_eq!(vm.parked_at(1), None, "a fresh thread is not parked");
    let Ok(BurstEnd::SafePoint(site)) = vm.burst(1_000, SafePoints::CallsAndAllocations).end else {
        panic!("the burst must stop at a safe point");
    };
    assert_eq!(vm.parked_at(1), Some(site));
    assert_eq!(vm.burst(1, SafePoints::None).end, Ok(BurstEnd::Budget));
    assert_eq!(vm.parked_at(1), None, "the next burst clears the park");

    // A blocked allocation parks its thread too, across the collection,
    // until the suspension ends.
    let cfg = VmConfig::new(Strategy::Compiled).heap_words(64);
    let mut vm = task_vm(&prog, cfg, "work", 200);
    let site = loop {
        match vm.burst(u64::MAX, SafePoints::None).end {
            Ok(BurstEnd::AllocBlocked(site)) => break site,
            Ok(BurstEnd::Budget) => {}
            end => panic!("a 64-word heap must block: {end:?}"),
        }
    };
    assert_eq!(vm.parked_at(1), Some(site));
    vm.collect_parked(site).unwrap();
    assert_eq!(vm.parked_at(1), Some(site), "a collection moves no park");
    vm.resume_all();
    assert_eq!(vm.parked_at(1), None);
}

#[test]
fn a_collection_walks_parked_threads_and_refuses_one_stopped_by_its_budget() {
    let prog = compile(LISTS);
    let mut vm = task_vm(&prog, VmConfig::new(Strategy::Compiled), "work", 5);
    let stop = SafePoints::CallsAndAllocations;
    assert!(matches!(
        vm.burst(1_000, stop).end,
        Ok(BurstEnd::SafePoint(_))
    ));
    let arg = vm.encode_int(7);
    let t2 = vm.spawn_thread(fn_named(&prog, "work"), &[arg]);
    vm.set_current_thread(t2);
    let Ok(BurstEnd::SafePoint(site)) = vm.burst(1_000, stop).end else {
        panic!("the burst must stop at a safe point");
    };
    vm.collect_parked(site).unwrap();
    assert_eq!(vm.gc_stats.collections, 1, "both stacks were walked");

    // Thread 1 runs on and its budget stops it, off any safe point.
    vm.resume_all();
    vm.set_current_thread(1);
    assert_eq!(vm.burst(1, SafePoints::None).end, Ok(BurstEnd::Budget));
    assert_eq!(vm.parked_at(1), None);
    vm.set_current_thread(t2);
    let caught = capture_panics_mut("", || vm.collect_parked(site)).unwrap_err();
    assert!(caught.structured, "{}", caught.message);
    assert!(
        caught.message.starts_with("collection while task 1 (fn "),
        "{}",
        caught.message
    );
}

#[test]
fn a_respawned_thread_is_walked_whole_at_its_first_collection() {
    // A collection deep in a recursion leaves the thread's floor high and
    // its walk recorded. Killing the thread must forget both: its
    // successor allocates in its bottom frame before any return could
    // lower the floor, so the collection there must decode every frame.
    let prog = compile(
        "fun build n = if n = 0 then [] else n :: build (n - 1) ;
         fun len xs = case xs of [] => 0 | _ :: r => 1 + len r ;
         fun deep n = if n = 0 then len (build 3) else 1 + deep (n - 1) ;
         val keep = build 5 ;
         fun fresh n = len (n :: keep) ;
         0",
    );
    let cfg = VmConfig::new(Strategy::Compiled).verify_heap(true);
    let mut vm = task_vm(&prog, cfg, "deep", 300);
    let stop = SafePoints::Allocations;
    let Ok(BurstEnd::SafePoint(site)) = vm.burst(u64::MAX, stop).end else {
        panic!("the recursion must stop before its first allocation");
    };
    assert!(vm.stack_words() > 900, "{} words", vm.stack_words());
    vm.collect_parked(site).unwrap();

    vm.kill_thread(1);
    let arg = vm.encode_int(7);
    vm.respawn_thread(1, fn_named(&prog, "fresh"), &[arg]);
    let one_frame = vm.stack_words();
    let Ok(BurstEnd::SafePoint(site)) = vm.burst(u64::MAX, stop).end else {
        panic!("`fresh` must stop before its allocation");
    };
    assert_eq!(vm.stack_words(), one_frame, "still in the bottom frame");
    vm.collect_parked(site).unwrap();
    assert_eq!(vm.gc_stats.collections, 2);
    let w = loop {
        match vm.burst(u64::MAX, SafePoints::None).end {
            Ok(BurstEnd::Done(w)) => break w,
            Ok(BurstEnd::Budget) => {}
            end => panic!("`fresh` must finish: {end:?}"),
        }
    };
    assert_eq!(vm.decode_int(w), 6);
}
