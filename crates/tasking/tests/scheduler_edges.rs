//! Scheduler edge cases.

use tfgc_gc::Strategy;
use tfgc_ir::lower;
use tfgc_syntax::parse_program;
use tfgc_tasking::{find_fn, run_tasks, ServeReport, SuspendPolicy, TaskConfig};
use tfgc_types::elaborate;

fn compile(src: &str) -> tfgc_ir::IrProgram {
    lower(&elaborate(&parse_program(src).unwrap()).unwrap()).unwrap()
}

fn results(report: &ServeReport) -> Vec<String> {
    report.outcomes.iter().map(|o| o.result.clone()).collect()
}

#[test]
fn single_task_behaves_like_sequential() {
    let prog = compile(
        "fun build n = if n = 0 then [] else n :: build (n - 1) ;
         fun len xs = case xs of [] => 0 | _ :: t => 1 + len t ;
         fun taskf n = (build n; len (build n)) ;
         0",
    );
    let f = find_fn(&prog, "taskf").unwrap();
    let mut cfg = TaskConfig::new(Strategy::Compiled);
    cfg.heap_words = 1 << 9;
    let report = run_tasks(&prog, &[(f, 200)], cfg).unwrap();
    assert_eq!(results(&report), vec!["200"]);
    assert!(report.suspension_events > 0);
}

#[test]
fn quantum_size_does_not_change_results() {
    let prog = compile(
        "fun build n = if n = 0 then [] else n :: build (n - 1) ;
         fun sum xs = case xs of [] => 0 | x :: r => x + sum r ;
         fun worker n = if n = 0 then 0 else (sum (build 10) + worker (n - 1)) - sum (build 10) ;
         0",
    );
    let f = find_fn(&prog, "worker").unwrap();
    let entries = vec![(f, 15), (f, 10)];
    let mut results = Vec::new();
    for quantum in [1u64, 7, 64, 1000] {
        let mut cfg = TaskConfig::new(Strategy::Compiled);
        cfg.heap_words = 1 << 10;
        cfg.quantum = quantum;
        let r =
            run_tasks(&prog, &entries, cfg).unwrap_or_else(|e| panic!("quantum {quantum}: {e}"));
        results.push(r.outcomes);
    }
    for r in &results[1..] {
        assert_eq!(r, &results[0]);
    }
}

#[test]
fn oom_detected_when_live_exceeds_heap() {
    let prog = compile(
        "fun build n = if n = 0 then [] else n :: build (n - 1) ;
         fun hold n = case build n of xs => (build n; case xs of [] => 0 | x :: _ => x) ;
         0",
    );
    let f = find_fn(&prog, "hold").unwrap();
    let mut cfg = TaskConfig::new(Strategy::Compiled);
    cfg.heap_words = 128;
    let report = run_tasks(&prog, &[(f, 500)], cfg).unwrap();
    let err = report.outcomes[0]
        .error
        .as_ref()
        .expect("starving task is quarantined");
    assert!(matches!(err, tfgc_vm::VmError::OutOfMemory { .. }), "{err}");
    assert!(
        report.outcomes[0]
            .result
            .starts_with("<error: out of memory"),
        "{}",
        report.outcomes[0].result
    );
}

#[test]
fn eight_tasks_complete() {
    let prog = compile(
        "fun build n = if n = 0 then [] else n :: build (n - 1) ;
         fun len xs = case xs of [] => 0 | _ :: t => 1 + len t ;
         fun taskf n = len (build n) ;
         0",
    );
    let f = find_fn(&prog, "taskf").unwrap();
    let entries: Vec<_> = (1..=8).map(|i| (f, i * 10)).collect();
    let mut cfg = TaskConfig::new(Strategy::Compiled);
    cfg.heap_words = 1 << 11;
    let report = run_tasks(&prog, &entries, cfg).unwrap();
    let want: Vec<String> = (1..=8).map(|i| (i * 10).to_string()).collect();
    assert_eq!(results(&report), want);
}

#[test]
fn mixed_strategies_under_tasking_agree() {
    let prog = compile(
        "fun build n = if n = 0 then [] else n :: build (n - 1) ;
         fun sum xs = case xs of [] => 0 | x :: r => x + sum r ;
         fun worker n = if n = 0 then 0 else (sum (build 12) + worker (n - 1)) - sum (build 12) ;
         0",
    );
    let f = find_fn(&prog, "worker").unwrap();
    let entries = vec![(f, 12), (f, 18)];
    let mut base: Option<Vec<String>> = None;
    for s in Strategy::ALL {
        let mut cfg = TaskConfig::new(s);
        cfg.heap_words = 1 << 11;
        cfg.policy = SuspendPolicy::EveryCall;
        let r = run_tasks(&prog, &entries, cfg).unwrap_or_else(|e| panic!("{s}: {e}"));
        match &base {
            None => base = Some(results(&r)),
            Some(b) => assert_eq!(&results(&r), b, "{s}"),
        }
    }
}
