//! §4: tag-free collection with tasks.
//!
//! Runs two allocating workers and one compute-heavy spinner over a
//! shared heap, under the three suspension policies the paper discusses,
//! and prints the trade-off: per-call check cost vs suspension latency.
//!
//! ```sh
//! cargo run --example tasking_demo
//! ```

use tfgc::tasking::{find_fn, run_tasks, SuspendPolicy};
use tfgc::{Compiled, Strategy, Table, VmConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let source = "
        fun build n = if n = 0 then [] else n :: build (n - 1) ;
        fun sum xs = case xs of [] => 0 | x :: r => x + sum r ;
        fun worker n = if n = 0 then 0
                       else (sum (build 25) + worker (n - 1)) - sum (build 25) ;
        fun spin n = if n = 0 then 0 else (let val x = n * n in spin (n - 1) end) ;
        0";
    let compiled = Compiled::compile(source)?;
    let prog = &compiled.program;
    let worker = find_fn(prog, "worker").expect("worker exists");
    let spin = find_fn(prog, "spin").expect("spin exists");
    let entries = vec![(worker, 60), (worker, 60), (spin, 4000)];

    let mut table = Table::new(&[
        "policy",
        "GCs",
        "suspension checks",
        "total latency",
        "max latency",
        "results",
    ]);
    for policy in [
        SuspendPolicy::AllocationOnly,
        SuspendPolicy::EveryCall,
        SuspendPolicy::EveryCallRgc,
    ] {
        let mut cfg = VmConfig::new(Strategy::Compiled);
        cfg.heap_words = 1 << 11;
        cfg.policy = policy;
        cfg.quantum = 48;
        let report = run_tasks(prog, &entries, cfg)?;
        table.row(vec![
            policy.to_string(),
            report.suspension_events.to_string(),
            report.suspension_checks.to_string(),
            report.total_suspension_latency.to_string(),
            report.max_suspension_latency.to_string(),
            report
                .outcomes
                .iter()
                .map(|o| o.result.as_str())
                .collect::<Vec<_>>()
                .join(","),
        ]);
    }
    println!("{}", table.render());
    println!("alloc-only: free until exhaustion, but the spinner keeps running");
    println!("while the workers wait (high latency). every-call: low latency,");
    println!("one test per call. every-call-rgc: same latency, zero-cost test");
    println!("(the paper's Rgc register folded into the call's target address).");
    Ok(())
}
