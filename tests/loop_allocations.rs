//! The interpreter's dispatch loop makes no Rust heap allocation per
//! call, per TFML allocation or per `EvalDesc`: a whole `Vm::run` costs
//! a bounded handful of allocations (buffers reaching their high-water
//! marks, the rendered result), not one per executed instruction. A
//! steady-state collection makes one: the VM's vector of stack roots.
//!
//! This file installs a counting `#[global_allocator]`, so it is a test
//! binary of its own and the counter affects no other test. It counts
//! only on the thread that switched it on, and the `Vm` is built before
//! counting starts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tfgc::vm::Vm;
use tfgc::workloads::programs;
use tfgc::{Compiled, Strategy, VmConfig};

/// Forwards to [`System`], counting allocations made on threads whose
/// `COUNTING` flag is set.
struct CountingAlloc;

thread_local! {
    // `const`-initialised and without `Drop`: reading them from inside
    // the allocator neither allocates nor registers a destructor.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    // `try_with`: the allocator can run while this thread's locals are
    // being torn down.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping beside it
// touches only thread-local `Cell`s and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller's `layout` obligations pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: `ptr` came from this allocator, which is `System`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`'s.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Rust heap allocations (including reallocations) made on this thread
/// while `Vm::run` executes `src` under `cfg`, and the collections the
/// run made.
fn allocations_during_run(name: &str, src: &str, cfg: VmConfig) -> (u64, u64) {
    let strategy = cfg.strategy;
    let compiled = Compiled::compile(src).unwrap_or_else(|e| panic!("{name}: {e}"));
    let mut vm = Vm::new(&compiled.program, cfg);
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    let out = vm.run();
    COUNTING.with(|on| on.set(false));
    let out = out.unwrap_or_else(|e| panic!("{name} under {strategy}: {e}"));
    assert!(
        out.mutator.instructions > 10_000,
        "{name}: too small a run to show a per-instruction cost"
    );
    (ALLOCATIONS.with(Cell::get), out.gc.collections)
}

#[test]
fn run_allocates_independently_of_calls_allocations_and_desc_evals() {
    let cases = [
        ("fib", programs::fib(20)),
        ("naive_rev", programs::naive_rev(160)),
        ("mergesort", programs::mergesort(620)),
        ("closure_farm", programs::closure_farm(40, 360)),
        ("church", programs::church(4500)),
        ("interp", programs::interp(12)),
    ];
    for strategy in [Strategy::Compiled, Strategy::Tagged] {
        for (name, src) in &cases {
            let (n, _) = allocations_during_run(name, src, VmConfig::new(strategy));
            assert!(
                n < 64,
                "{name} under {strategy}: {n} Rust heap allocations during run(); the \
                 dispatch loop must not allocate per call, TFML allocation or EvalDesc"
            );
        }
    }
}

/// Deep polymorphic recursion: `pdeep` descends 2,000 frames carrying a
/// list that stays live in every frame, then allocates about 2,000 times
/// at the bottom, so every forced collection walks the whole stack.
const PDEEP: &str = "fun build n = if n = 0 then [] else n :: build (n - 1) ;
     fun work k = case build 4 of [] => 0 | x :: _ => x + k ;
     fun churn n = if n <= 1 then work n else churn (n div 2) + churn (n - n div 2) ;
     fun plen xs = case xs of [] => 0 | _ :: t => 1 + plen t ;
     fun pdeep xs n = if n = 0 then plen xs + churn 500 else pdeep xs (n - 1) + plen xs ;
     pdeep [(1, [true]), (2, [false, true])] 2000";

#[test]
fn a_steady_state_collection_allocates_only_its_root_vector() {
    // Twice the collections may cost one allocation more per extra
    // collection, the VM's vector of stack roots, and nothing per frame,
    // per walked run or per copied object: the walk record, the decoded
    // frames, the worklist and the descriptor environments reuse their
    // buffers, and a descriptor parse builds nothing.
    for strategy in [
        Strategy::Compiled,
        Strategy::CompiledNoLiveness,
        Strategy::Interpreted,
    ] {
        let run = |every| {
            let cfg = VmConfig::new(strategy).force_gc_every(every);
            allocations_during_run("pdeep", PDEEP, cfg)
        };
        let (fewer, fewer_gcs) = run(100);
        let (more, more_gcs) = run(50);
        assert!(
            fewer_gcs >= 20 && more_gcs >= 2 * fewer_gcs - 1,
            "{strategy}: {fewer_gcs} and {more_gcs} collections"
        );
        assert!(
            more <= fewer + (more_gcs - fewer_gcs),
            "{strategy}: {fewer} Rust heap allocations over {fewer_gcs} collections but \
             {more} over {more_gcs}; a steady-state collection may make one, its root vector"
        );
    }
}
