//! The observability layer must be free when disabled and passive when
//! enabled: attaching the null sink or a ring recorder may not change
//! any observable behavior of a run — results, printed output, heap,
//! mutator, or (deterministic) GC statistics — under any strategy.

use tfgc::obs::{GcEvent, Obs};
use tfgc::{Compiled, Strategy, VmConfig};

fn churn() -> Compiled {
    Compiled::compile(
        "fun build n = if n = 0 then [] else n :: build (n - 1) ;
         fun sum xs = case xs of [] => 0 | x :: r => x + sum r ;
         fun go n = if n = 0 then 0 else sum (build 25) + go (n - 1) ;
         go 30",
    )
    .expect("compiles")
}

fn cfg(s: Strategy) -> VmConfig {
    // Small heap + forced collections so every strategy actually GCs
    // (large enough for the tagged encoding's header overhead).
    // one no-liveness frame per `go` level keeps its dead list alive.
    VmConfig::new(s).heap_words(1 << 13).force_gc_every(120)
}

/// A null-sink run is bit-identical to a plain (no-sink) run.
#[test]
fn null_sink_changes_nothing() {
    let c = churn();
    for s in Strategy::ALL {
        let meta = c.metadata(s);
        let plain = c.run_with_meta(cfg(s), meta.clone()).expect("plain run");
        let (nulled, obs) = c
            .run_observed(cfg(s), meta, Obs::null())
            .expect("null-sink run");
        assert!(!obs.enabled(), "{s}: null sink stays disabled");
        assert!(plain.heap.collections > 0, "{s}: workload collects");
        assert_eq!(nulled.result, plain.result, "{s}");
        assert_eq!(nulled.printed, plain.printed, "{s}");
        assert_eq!(nulled.heap, plain.heap, "{s}: HeapStats identical");
        assert_eq!(nulled.mutator, plain.mutator, "{s}: MutatorStats identical");
        assert_eq!(
            nulled.gc.deterministic(),
            plain.gc.deterministic(),
            "{s}: GcStats identical up to wall-clock pause"
        );
    }
}

/// A ring recorder observes without perturbing, under all five
/// strategies, and its aggregates agree with the VM's own counters.
#[test]
fn ring_recorder_is_passive_across_strategies() {
    let c = churn();
    for s in Strategy::ALL {
        let plain = c.run_with(cfg(s)).expect("plain run");
        let (recorded, rec) = c.run_profiled(cfg(s), 1 << 12).expect("recorded run");
        assert_eq!(recorded.result, plain.result, "{s}");
        assert_eq!(recorded.printed, plain.printed, "{s}");
        assert_eq!(recorded.heap, plain.heap, "{s}");
        assert_eq!(recorded.mutator, plain.mutator, "{s}");
        assert_eq!(recorded.gc.deterministic(), plain.gc.deterministic(), "{s}");

        assert_eq!(rec.strategy(), Some(s.name()), "{s}");
        assert_eq!(
            rec.collections().len() as u64,
            plain.heap.collections,
            "{s}: one summary per collection"
        );
        assert_eq!(
            rec.sites().total_allocs(),
            plain.heap.allocations,
            "{s}: every allocation attributed to a site"
        );
    }
}

/// Histogram totals equal the number of recorded events, and each
/// histogram's bucket counts sum back to its total (integration-level
/// check of the obs crate's property, on real event streams).
#[test]
fn histogram_buckets_sum_to_recorded_events() {
    let c = churn();
    let (out, rec) = c
        .run_profiled(cfg(Strategy::Compiled), 1 << 12)
        .expect("runs");

    let pauses = rec.pause_hist();
    assert_eq!(pauses.count(), out.heap.collections);
    assert_eq!(
        pauses.buckets().iter().map(|(_, n)| n).sum::<u64>(),
        pauses.count(),
        "pause buckets sum to pause count"
    );

    let allocs = rec.alloc_hist();
    assert_eq!(allocs.count(), out.heap.allocations);
    assert_eq!(
        allocs.buckets().iter().map(|(_, n)| n).sum::<u64>(),
        allocs.count(),
        "alloc buckets sum to alloc count"
    );

    // Allocations feed the histogram alone: the ring keeps only
    // timeline events, so none is retained.
    assert_eq!(rec.dropped(), 0);
    assert!(!rec
        .events()
        .iter()
        .any(|e| matches!(e, GcEvent::Alloc { .. })));
}

/// Serve-mode observation neutrality: driving the request engine with
/// a recorder attached (latency and pause histograms, occupancy
/// sampling) produces bit-identical
/// per-request results — and identical engine reports — to an `Obs::null`
/// run, across strategies. The request-lifecycle hooks sit on the
/// `Obs::emit` closure path, so the disabled run never even constructs
/// the events.
#[test]
fn serve_telemetry_is_observation_neutral() {
    use tfgc::tasking::{serve_requests_overload, Request, SuspendPolicy};
    use tfgc::OverloadConfig;

    let c = Compiled::compile(
        "fun build n = if n = 0 then [] else n :: build (n - 1) ;
         fun sum xs = case xs of [] => 0 | x :: r => x + sum r ;
         fun churn n = sum (build n) ;
         fun spin n = if n = 0 then 0 else (let val x = n * n in spin (n - 1) end) ;
         0",
    )
    .expect("compiles");
    let churn = tfgc::tasking::find_fn(&c.program, "churn").expect("churn");
    let spin = tfgc::tasking::find_fn(&c.program, "spin").expect("spin");
    let requests: Vec<Request> = (0..24)
        .map(|i| {
            Request::new(
                if i % 5 == 4 { spin } else { churn },
                if i % 5 == 4 { 200 } else { 25 + (i % 7) * 10 },
                (i % 5 == 4) as u32,
            )
        })
        .collect();

    for s in [Strategy::Compiled, Strategy::Tagged, Strategy::AppelPerFn] {
        let mk = || {
            let mut tc = VmConfig::new(s);
            tc.heap_words = 1 << 10;
            tc.policy = SuspendPolicy::EveryCall;
            tc
        };
        let (plain, obs) = serve_requests_overload(
            &c.program,
            &requests,
            3,
            0,
            mk(),
            OverloadConfig::none(),
            Obs::null(),
        )
        .expect("null run");
        assert!(!obs.enabled(), "{s}");
        let (observed, obs) = serve_requests_overload(
            &c.program,
            &requests,
            3,
            16,
            mk(),
            OverloadConfig::none(),
            Obs::ring(1 << 12),
        )
        .expect("observed run");
        assert!(
            plain.heap.collections > 0,
            "{s}: the differential must cover collections"
        );
        assert_eq!(
            observed.outcomes, plain.outcomes,
            "{s}: responses identical"
        );
        assert_eq!(observed.printed, plain.printed, "{s}");
        assert_eq!(observed.heap, plain.heap, "{s}: HeapStats identical");
        assert_eq!(
            observed.mutator, plain.mutator,
            "{s}: MutatorStats identical"
        );
        assert_eq!(
            observed.gc.deterministic(),
            plain.gc.deterministic(),
            "{s}: GcStats identical up to wall-clock pause"
        );
        assert_eq!(
            (observed.suspension_checks, observed.suspension_events),
            (plain.suspension_checks, plain.suspension_events),
            "{s}: suspension accounting identical"
        );

        // The telemetry itself is coherent: every request completed and
        // its latency was seen, and only the sampling run took samples.
        assert_eq!((observed.completed, observed.failed), (24, 0), "{s}");
        assert!(observed.peak_heap_words_sampled > 0, "{s}");
        assert_eq!(plain.peak_heap_words_sampled, 0, "{s}: sample_every 0");
        let rec = obs.into_recorder().expect("ring sink");
        assert_eq!(rec.latency_hist().count(), 24, "{s}");
    }

    // The batch adapter (run_tasks) rides the same engine: its reports
    // must also be sink-independent.
    let entries = vec![(churn, 12), (churn, 15), (spin, 200)];
    let cfg = || {
        let mut tc = VmConfig::new(Strategy::Compiled);
        tc.heap_words = 1 << 10;
        tc
    };
    let plain = tfgc::tasking::run_tasks(&c.program, &entries, cfg()).expect("plain tasks");
    let batch: Vec<Request> = entries
        .iter()
        .enumerate()
        .map(|(i, (f, a))| Request::new(*f, *a, i as u32))
        .collect();
    let (observed, obs) = serve_requests_overload(
        &c.program,
        &batch,
        batch.len(),
        0,
        cfg(),
        OverloadConfig::none(),
        Obs::ring(1 << 12),
    )
    .expect("observed tasks");
    assert!(obs.enabled());
    assert_eq!(observed.outcomes, plain.outcomes);
    assert_eq!(observed.heap, plain.heap);
    assert_eq!(observed.mutator, plain.mutator);
}

/// Overload decisions are observation-neutral and conserve every
/// request: the admission policy, deadline budgets, and circuit breaker
/// are driven by the quantum clock and the seeded jitter stream, never
/// by telemetry — so a null-sink run and a recorded run must
/// agree bit-for-bit on which requests were shed (and why), which were
/// quarantined, and the breaker's entire history. Checked across seeds
/// and strategies, with `completed + failed + shed == submitted` in
/// every configuration.
#[test]
fn overload_decisions_are_observation_neutral_and_conserved() {
    use tfgc::tasking::{
        serve_requests_overload, AdmissionPolicy, OverloadConfig, Request, SuspendPolicy,
    };

    let c = Compiled::compile(
        "fun build n = if n = 0 then [] else n :: build (n - 1) ;
         fun sum xs = case xs of [] => 0 | x :: r => x + sum r ;
         fun churn n = sum (build n) ;
         fun runaway n = if n = 0 then 0 else runaway (n + 1) ;
         0",
    )
    .expect("compiles");
    let churn = tfgc::tasking::find_fn(&c.program, "churn").expect("churn");
    let runaway = tfgc::tasking::find_fn(&c.program, "runaway").expect("runaway");
    let requests: Vec<Request> = (0..30)
        .map(|i| {
            if i % 6 == 5 {
                Request::new(runaway, 1, 1)
            } else {
                Request::new(churn, 20 + (i % 5) * 8, 0)
            }
        })
        .collect();

    let mut sheds = 0u64;
    let mut deadline_kills = 0usize;
    for s in [Strategy::Compiled, Strategy::Tagged] {
        for seed in [1u64, 9] {
            let overload = OverloadConfig {
                queue_cap: 2,
                admission: AdmissionPolicy::RetryBackoff {
                    max_attempts: 4,
                    base: 8,
                },
                deadline_quanta: Some(600),
                breaker_threshold: 2,
                breaker_cooldown: 150,
                seed,
                ..OverloadConfig::none()
            };
            let mk = || {
                let mut tc = VmConfig::new(s);
                tc.heap_words = 1 << 10;
                tc.policy = SuspendPolicy::EveryCall;
                tc
            };
            let run =
                |obs| serve_requests_overload(&c.program, &requests, 2, 16, mk(), overload, obs);
            let (plain, obs) = run(Obs::null()).expect("null run");
            assert!(!obs.enabled(), "{s} seed {seed}");
            let (observed, _) = run(Obs::ring(1 << 12)).expect("observed run");
            let (replayed, _) = run(Obs::null()).expect("replayed null run");

            assert_eq!(
                observed.outcomes, plain.outcomes,
                "{s} seed {seed}: shed/quarantine decisions must not depend on the sink"
            );
            assert_eq!(
                replayed.outcomes, plain.outcomes,
                "{s} seed {seed}: determinism"
            );
            assert_eq!(
                (
                    observed.shed,
                    observed.breaker_trips,
                    &observed.breaker_final
                ),
                (plain.shed, plain.breaker_trips, &plain.breaker_final),
                "{s} seed {seed}: breaker history identical"
            );
            assert_eq!(
                plain.completed + plain.failed + plain.shed,
                plain.outcomes.len() as u64,
                "{s} seed {seed}: conservation"
            );
            sheds += plain.shed;
            deadline_kills += plain
                .outcomes
                .iter()
                .filter(|o| matches!(o.error, Some(tfgc::VmError::DeadlineExceeded { .. })))
                .count();
        }
    }
    // The matrix proves nothing unless both mechanisms actually fired.
    assert!(sheds > 0, "no configuration ever shed");
    assert!(deadline_kills > 0, "no runaway was ever quarantined");
}

/// Reported pause time measures collection work, not observation setup:
/// the pause clock starts *after* the `CollectionBegin` event is
/// emitted, so a sink that pays per-emit cost cannot charge its
/// begin-of-collection bookkeeping to the collector. Per-event emits
/// *during* a collection (frame visits, copies) still legitimately
/// count, so the bound is deliberately loose — it catches the
/// order-of-magnitude regression of timing the sink itself, not
/// scheduling jitter.
#[test]
fn pause_excludes_sink_setup() {
    let c = churn();
    let meta = c.metadata(Strategy::Compiled);
    let (plain, _) = c
        .run_observed(cfg(Strategy::Compiled), meta, Obs::null())
        .expect("null-sink run");
    let (ringed, rec) = c
        .run_profiled(cfg(Strategy::Compiled), 1 << 12)
        .expect("ring run");
    assert!(plain.heap.collections > 0);
    assert_eq!(plain.heap.collections, ringed.heap.collections);

    let mean = |gc: &tfgc::gc::GcStats, n: u64| gc.pause_nanos as f64 / n as f64;
    let null_mean = mean(&plain.gc, plain.heap.collections);
    let ring_mean = mean(&ringed.gc, ringed.heap.collections);
    // Within noise: a generous multiplicative factor plus absolute
    // slack (debug builds on loaded CI machines jitter by tens of µs).
    assert!(
        ring_mean <= null_mean * 25.0 + 2_000_000.0,
        "ring-sink mean pause {ring_mean:.0}ns vs null-sink {null_mean:.0}ns — \
         observation overhead is being charged to the collector"
    );
    // The recorder's own histogram agrees with the VM's total.
    assert_eq!(
        rec.pause_hist().count(),
        ringed.heap.collections,
        "one pause sample per collection"
    );
}
