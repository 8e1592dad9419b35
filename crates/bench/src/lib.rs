//! # tfgc-bench — experiment runners
//!
//! One function per experiment (E1–E10 and E13, see EXPERIMENTS.md), each
//! returning a rendered text table. The wall-clock benches under
//! `benches/` ([`timing`]) time the same configurations; the
//! `experiments` binary prints every table — or, with `--json`, writes
//! the machine-readable [`export`] documents:
//!
//! ```sh
//! cargo run --release -p tfgc-bench --bin experiments
//! cargo run --release -p tfgc-bench --bin experiments -- --json
//! ```

use tfgc::gc::NO_TRACE;
use tfgc::tasking::{find_fn, run_tasks, SuspendPolicy, TaskConfig};
use tfgc::{ratio, Compiled, Strategy, Table, VmConfig};

pub mod export;
pub mod timing;

/// E1 — §1 "more efficient use of heap space": words allocated per
/// strategy across the workload suite (tagged pays one header word per
/// object).
pub fn e1_heap_space() -> String {
    let mut t = Table::new(&[
        "workload",
        "tagfree words",
        "tagged words",
        "overhead",
        "tagfree peak live",
        "tagged peak live",
    ]);
    for (name, src) in tfgc::workloads::suite() {
        let c = Compiled::compile(&src).expect("workload compiles");
        let tagfree = c
            .run_with(VmConfig::new(Strategy::Compiled).heap_words(1 << 13))
            .expect("tagfree run");
        let tagged = c
            .run_with(VmConfig::new(Strategy::Tagged).heap_words(1 << 13))
            .expect("tagged run");
        t.row(vec![
            name.to_string(),
            tagfree.heap.words_allocated.to_string(),
            tagged.heap.words_allocated.to_string(),
            ratio(
                tagged.heap.words_allocated as f64,
                tagfree.heap.words_allocated as f64,
            ),
            tagfree.heap.peak_live_words.to_string(),
            tagged.heap.peak_live_words.to_string(),
        ]);
    }
    format!("E1 — heap space (tag-free vs tagged)\n{}", t.render())
}

/// E2 — §1 "more efficient execution": tag strip/reinstate operations and
/// instruction counts on arithmetic-heavy workloads.
pub fn e2_mutator_overhead() -> String {
    let mut t = Table::new(&[
        "workload",
        "instructions",
        "tagged tag-ops",
        "tag-ops / instr",
        "tagfree tag-ops",
    ]);
    let loads = [
        ("fib", tfgc::workloads::programs::fib(20)),
        ("sumlist", tfgc::workloads::programs::sumlist(300, 80)),
        ("nqueens", tfgc::workloads::programs::nqueens(6)),
    ];
    for (name, src) in loads {
        let c = Compiled::compile(&src).expect("compiles");
        let tagged = c
            .run_with(VmConfig::new(Strategy::Tagged).heap_words(1 << 15))
            .expect("tagged");
        let tagfree = c
            .run_with(VmConfig::new(Strategy::Compiled).heap_words(1 << 15))
            .expect("tagfree");
        t.row(vec![
            name.to_string(),
            tagged.mutator.instructions.to_string(),
            tagged.mutator.tag_ops.to_string(),
            format!(
                "{:.3}",
                tagged.mutator.tag_ops as f64 / tagged.mutator.instructions as f64
            ),
            tagfree.mutator.tag_ops.to_string(),
        ]);
    }
    format!("E2 — mutator tag overhead\n{}", t.render())
}

/// E3 — §1/§1.1.1 liveness precision: words copied per collection when a
/// large dead structure sits in a live frame. Compiled+liveness skips it;
/// the per-procedure and tagged collectors drag it along.
pub fn e3_liveness_precision() -> String {
    let src = tfgc::workloads::programs::live_and_dead(150, 120, 25);
    let c = Compiled::compile(&src).expect("compiles");
    let mut t = Table::new(&[
        "strategy",
        "GCs",
        "words copied",
        "copied / GC",
        "slots traced",
        "vs compiled",
    ]);
    let mut base = 0f64;
    for s in [
        Strategy::Compiled,
        Strategy::CompiledNoLiveness,
        Strategy::Interpreted,
        Strategy::AppelPerFn,
        Strategy::Tagged,
    ] {
        let out = c
            .run_with(VmConfig::new(s).heap_words(1 << 13).force_gc_every(200))
            .expect("runs");
        let per_gc = out.heap.words_copied as f64 / out.heap.collections.max(1) as f64;
        if s == Strategy::Compiled {
            base = per_gc;
        }
        t.row(vec![
            s.to_string(),
            out.heap.collections.to_string(),
            out.heap.words_copied.to_string(),
            format!("{per_gc:.0}"),
            out.gc.slots_traced.to_string(),
            ratio(per_gc, base),
        ]);
    }
    format!(
        "E3 — liveness precision (live_and_dead workload, forced GC)\n{}",
        t.render()
    )
}

/// E4 — §2.4's open question: compiled routines vs interpreted
/// descriptors, metadata size vs collection work.
pub fn e4_compiled_vs_interpreted() -> String {
    let mut t = Table::new(&[
        "workload",
        "compiled meta B",
        "interp meta B",
        "size ratio",
        "compiled pause ns",
        "interp pause ns",
        "interp desc bytes read",
    ]);
    for (name, src) in tfgc::workloads::suite() {
        let c = Compiled::compile(&src).expect("compiles");
        let cfg = |s| VmConfig::new(s).heap_words(1 << 12).force_gc_every(300);
        let comp = c.run_with(cfg(Strategy::Compiled)).expect("compiled");
        let interp = c.run_with(cfg(Strategy::Interpreted)).expect("interp");
        if comp.gc.collections == 0 {
            continue;
        }
        t.row(vec![
            name.to_string(),
            comp.metadata_bytes.to_string(),
            interp.metadata_bytes.to_string(),
            ratio(interp.metadata_bytes as f64, comp.metadata_bytes as f64),
            format!("{:.0}", comp.gc.mean_pause_nanos()),
            format!("{:.0}", interp.gc.mean_pause_nanos()),
            interp.gc.desc_bytes_read.to_string(),
        ]);
    }
    format!(
        "E4 — compiled vs interpreted method (§2.4 trade-off)\n{}",
        t.render()
    )
}

/// E5 — §3: forward traversal vs Appel's backward resolution on deep
/// polymorphic stacks. Chain steps grow quadratically for Appel.
pub fn e5_polymorphic() -> String {
    let mut t = Table::new(&[
        "depth",
        "strategy",
        "GCs",
        "frames visited",
        "chain steps",
        "steps/frame",
        "rt closures",
    ]);
    for depth in [50usize, 100, 200, 400] {
        let src = tfgc::workloads::programs::poly_deep_alloc(depth);
        let c = Compiled::compile(&src).expect("compiles");
        for s in [Strategy::Compiled, Strategy::AppelPerFn] {
            let out = c
                .run_with(
                    VmConfig::new(s)
                        .heap_words(1 << 16)
                        .force_gc_every((depth / 3).max(1) as u64),
                )
                .expect("runs");
            t.row(vec![
                depth.to_string(),
                s.to_string(),
                out.gc.collections.to_string(),
                out.gc.frames_visited.to_string(),
                out.gc.chain_steps.to_string(),
                format!(
                    "{:.1}",
                    out.gc.chain_steps as f64 / out.gc.frames_visited.max(1) as f64
                ),
                out.gc.rt_nodes_built.to_string(),
            ]);
        }
    }
    format!(
        "E5 — polymorphic traversal: Goldberg forward vs Appel backward\n{}",
        t.render()
    )
}

/// E6 — §5.1 GC-point analysis and §2.4 routine sharing: how many
/// gc_words are omitted, how many share `no_trace`, how few distinct
/// routines exist; plus the hidden-descriptor count (the 1991 scheme's
/// completeness gap).
pub fn e6_gc_points() -> String {
    let mut t = Table::new(&[
        "workload",
        "sites",
        "omitted (§5.1)",
        "no_trace (§2.4)",
        "distinct routines",
        "meta bytes",
        "hidden descs",
    ]);
    for (name, src) in tfgc::workloads::suite() {
        let c = Compiled::compile(&src).expect("compiles");
        let meta = c.metadata(Strategy::Compiled);
        let no_trace = meta
            .sites
            .iter()
            .filter(|s| s.routine == Some(NO_TRACE))
            .count();
        t.row(vec![
            name.to_string(),
            c.program.sites.len().to_string(),
            meta.omitted_gc_words().to_string(),
            no_trace.to_string(),
            meta.distinct_routines().to_string(),
            meta.metadata_bytes().to_string(),
            c.rtti.total_desc_fields().to_string(),
        ]);
    }
    format!(
        "E6 — GC-point analysis, no_trace sharing, metadata footprint\n{}",
        t.render()
    )
}

/// E6b — ablation: the paper's first-order GC-point approximation vs the
/// higher-order closure-flow refinement (§5.1's "more difficult"
/// analysis). Reports the extra gc_words the refinement removes.
pub fn e6b_gc_points_refined() -> String {
    let mut t = Table::new(&[
        "workload",
        "sites",
        "omitted (first-order)",
        "omitted (refined)",
        "extra",
    ]);
    for (name, src) in tfgc::workloads::suite() {
        let c = Compiled::compile(&src).expect("compiles");
        let base = c.metadata(Strategy::Compiled);
        let refined = c.metadata_refined(Strategy::Compiled);
        let extra = refined.omitted_gc_words() - base.omitted_gc_words();
        t.row(vec![
            name.to_string(),
            c.program.sites.len().to_string(),
            base.omitted_gc_words().to_string(),
            refined.omitted_gc_words().to_string(),
            extra.to_string(),
        ]);
    }
    format!(
        "E6b — higher-order GC-point refinement (closure-flow 0-CFA)\n{}",
        t.render()
    )
}

/// E7 — §4 tasking: suspension-policy trade-off.
pub fn e7_tasking() -> String {
    let src = "
        fun build n = if n = 0 then [] else n :: build (n - 1) ;
        fun sum xs = case xs of [] => 0 | x :: r => x + sum r ;
        fun worker n = if n = 0 then 0
                       else (sum (build 25) + worker (n - 1)) - sum (build 25) ;
        fun spin n = if n = 0 then 0 else (let val x = n * n in spin (n - 1) end) ;
        0";
    let c = Compiled::compile(src).expect("compiles");
    let worker = find_fn(&c.program, "worker").expect("worker");
    let spin = find_fn(&c.program, "spin").expect("spin");
    let entries = vec![(worker, 60), (worker, 60), (spin, 4000)];
    let mut t = Table::new(&[
        "policy",
        "GCs",
        "checks",
        "total latency",
        "max latency",
        "instructions",
    ]);
    for policy in [
        SuspendPolicy::AllocationOnly,
        SuspendPolicy::EveryCall,
        SuspendPolicy::EveryCallRgc,
    ] {
        let mut cfg = TaskConfig::new(Strategy::Compiled);
        cfg.heap_words = 1 << 11;
        cfg.policy = policy;
        cfg.quantum = 48;
        let r = run_tasks(&c.program, &entries, cfg).expect("tasks run");
        t.row(vec![
            policy.to_string(),
            r.suspension_events.to_string(),
            r.suspension_checks.to_string(),
            r.total_suspension_latency.to_string(),
            r.max_suspension_latency.to_string(),
            r.mutator.instructions.to_string(),
        ]);
    }
    format!("E7 — tasking suspension policies (§4)\n{}", t.render())
}

/// E8 — §2.4's worked example, verified: append's activation records are
/// never traced.
pub fn e8_append() -> String {
    let src = tfgc::workloads::paper_examples::append_mono(500);
    let c = Compiled::compile(&src).expect("compiles");
    let meta = c.metadata(Strategy::Compiled);
    let append_fn = c
        .program
        .funs
        .iter()
        .position(|f| f.name.starts_with("append"))
        .expect("append");
    let mut sites = 0;
    let mut traced = 0;
    for s in &c.program.sites {
        if s.fn_id.0 as usize == append_fn {
            sites += 1;
            let m = &meta.sites[s.id.0 as usize];
            if m.routine.is_some() && m.routine != Some(NO_TRACE) {
                traced += 1;
            }
        }
    }
    let out = c
        .run_with(VmConfig::new(Strategy::Compiled).heap_words(1 << 11))
        .expect("runs");
    let mut t = Table::new(&["metric", "value"]);
    t.row(vec!["append call sites".into(), sites.to_string()]);
    t.row(vec!["append sites that trace".into(), traced.to_string()]);
    t.row(vec![
        "collections during run".into(),
        out.heap.collections.to_string(),
    ]);
    t.row(vec!["result".into(), out.result]);
    format!(
        "E8 — §2.4 append: 'garbage collection never needs to trace the \
         elements of an append activation record'\n{}",
        t.render()
    )
}

/// E9 — GC-time metadata cache on deep polymorphic recursion: per
/// collection, routine construction is O(distinct call sites), not
/// O(stack frames).
pub fn e9_deep_recursion() -> String {
    let mut t = Table::new(&[
        "depth",
        "strategy",
        "GCs",
        "frames visited",
        "rt closures",
        "closures/frame",
        "cache hits",
    ]);
    for depth in [2_000usize, 20_000] {
        let src = tfgc::workloads::programs::poly_deep_alloc(depth);
        let c = Compiled::compile(&src).expect("compiles");
        for s in [
            Strategy::Compiled,
            Strategy::Interpreted,
            Strategy::AppelPerFn,
        ] {
            // Appel's backward resolution is quadratic in depth; keep it
            // to the shallow configuration.
            if s == Strategy::AppelPerFn && depth > 2_000 {
                continue;
            }
            let out = c
                .run_with(
                    VmConfig::new(s)
                        .heap_words(1 << 19)
                        .force_gc_every((depth / 2).max(1) as u64),
                )
                .expect("runs");
            t.row(vec![
                depth.to_string(),
                s.to_string(),
                out.gc.collections.to_string(),
                out.gc.frames_visited.to_string(),
                out.gc.rt_nodes_built.to_string(),
                format!(
                    "{:.4}",
                    out.gc.rt_nodes_built as f64 / out.gc.frames_visited.max(1) as f64
                ),
                out.gc.rt_cache_hits.to_string(),
            ]);
        }
    }
    format!(
        "E9 — GC-time metadata cache: routine construction per collection \
         is O(sites), not O(frames)\n{}",
        t.render()
    )
}

/// E10 — steady-state service telemetry: the request server drained
/// under every strategy, with collection pressure, latency quantiles,
/// and mutator utilization side by side (`tfml serve` is the
/// interactive form; `BENCH_E10.json` exports the fault-matrix
/// summary).
pub fn e10_serve() -> String {
    let mut runs = Vec::new();
    for s in Strategy::ALL {
        let mut cfg = tfgc::ServeConfig::new(s);
        cfg.requests = 200;
        runs.push(tfgc::serve(&cfg).expect("service runs"));
    }
    format!(
        "E10 — request service under steady traffic (seed {}, {} requests, pool {})\n{}",
        runs[0].config.seed,
        runs[0].config.requests,
        runs[0].config.pool,
        tfgc::serve_table(&runs).render()
    )
}

/// E13 — the two tracing engines on deep and wide heaps: Compiled
/// lowers each routine once into a branch-free plan and reuses it across
/// collections (`plan hits ≫ plans compiled`); Interpreted parses a
/// byte descriptor at every object it copies (`desc bytes ≥ objects
/// copied`), §2.4's interpreted method.
pub fn e13_plans_vs_descriptors() -> String {
    let mut t = Table::new(&[
        "workload",
        "strategy",
        "GCs",
        "words copied",
        "objects copied",
        "desc bytes",
        "plans compiled",
        "plan hits",
    ]);
    let deep = tfgc::workloads::programs::poly_deep_alloc(20_000);
    let wide = tfgc::workloads::programs::live_and_dead(3_000, 40, 50);
    for (label, src, heap, force) in [
        ("deep", &deep, 1usize << 20, 10_000u64),
        ("wide", &wide, 1 << 17, 500),
    ] {
        let c = Compiled::compile(src).expect("compiles");
        for s in [Strategy::Compiled, Strategy::Interpreted] {
            let out = c
                .run_with(VmConfig::new(s).heap_words(heap).force_gc_every(force))
                .expect("runs");
            t.row(vec![
                label.to_string(),
                s.to_string(),
                out.heap.collections.to_string(),
                out.heap.words_copied.to_string(),
                out.heap.objects_copied.to_string(),
                out.gc.desc_bytes_read.to_string(),
                out.gc.plans_compiled.to_string(),
                out.gc.plan_hits.to_string(),
            ]);
        }
    }
    format!(
        "E13 — trace plans (compiled) vs per-object descriptor walks \
         (interpreted)\n{}",
        t.render()
    )
}

/// Every experiment, concatenated.
pub fn all_experiments() -> String {
    [
        e1_heap_space(),
        e2_mutator_overhead(),
        e3_liveness_precision(),
        e4_compiled_vs_interpreted(),
        e5_polymorphic(),
        e6_gc_points(),
        e6b_gc_points_refined(),
        e7_tasking(),
        e8_append(),
        e9_deep_recursion(),
        e10_serve(),
        e13_plans_vs_descriptors(),
    ]
    .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_reports_tagged_overhead() {
        let s = e1_heap_space();
        assert!(s.contains("churn"));
        // Every workload shows tagged >= tagfree (ratios >= 1).
        assert!(
            !s.contains("0.9"),
            "tagged must not allocate fewer words:\n{s}"
        );
    }

    #[test]
    fn e6_counts_are_consistent() {
        let s = e6_gc_points();
        assert!(s.contains("fib"));
    }

    #[test]
    fn e8_append_never_traces() {
        let s = e8_append();
        assert!(s.contains("append sites that trace  0"), "{s}");
    }
}
