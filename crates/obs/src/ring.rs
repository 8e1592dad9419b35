//! The in-memory recorder: a bounded ring of timeline events plus exact
//! cumulative aggregates over every event. Batch and served runs attach
//! the same one; a served run also reads its request latencies and pause
//! intervals.

use crate::event::{CollectionKind, GcEvent};
use crate::hist::Histogram;
use crate::json::Json;
use crate::sink::GcEventSink;
use crate::sites::SiteTable;
use std::collections::VecDeque;

/// Everything one collection did (kept for all collections — runs have
/// few of them, unlike allocations).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CollectionSummary {
    pub seq: u64,
    /// True for a generational minor (nursery-only) collection.
    pub minor: bool,
    pub trigger_site: u32,
    pub heap_used_before: u64,
    pub heap_used_after: u64,
    pub words_copied: u64,
    pub pause_ns: u64,
    /// When the collection ended: it stopped every task for the
    /// preceding `pause_ns`. Wall clock, so `metrics_json` leaves it
    /// out.
    pub end_ns: u64,
    pub frames_visited: u64,
    pub routine_invocations: u64,
    pub rt_nodes_built: u64,
    pub rt_cache_hits: u64,
    pub rt_cache_misses: u64,
    pub plan_hits: u64,
    pub plan_misses: u64,
    pub plans_compiled: u64,
}

/// Records timeline events ([`GcEvent::is_timeline`]) into a bounded
/// ring and maintains aggregates over the complete event stream:
/// pause-time, allocation-size and request-latency histograms,
/// per-call-site allocation/survivor profiles, one summary per
/// collection, and the run's wall-clock extent.
#[derive(Debug, Clone, Default)]
pub struct RingRecorder {
    capacity: usize,
    events: VecDeque<GcEvent>,
    /// Timeline events discarded because the ring was full.
    dropped: u64,
    pause_hist: Histogram,
    alloc_hist: Histogram,
    latency_hist: Histogram,
    sites: SiteTable,
    collections: Vec<CollectionSummary>,
    /// Collection in progress (between Begin and End).
    open: Option<CollectionSummary>,
    strategy: Option<&'static str>,
    /// Largest event timestamp seen: the run's wall-clock extent.
    last_t_ns: u64,
}

impl RingRecorder {
    /// A recorder keeping at most `capacity` timeline events.
    pub fn new(capacity: usize) -> RingRecorder {
        RingRecorder {
            capacity,
            ..RingRecorder::default()
        }
    }

    /// Maximum timeline events retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The retained timeline events, oldest first.
    pub fn events(&self) -> &VecDeque<GcEvent> {
        &self.events
    }

    /// Timeline events discarded because the ring was full. Aggregates
    /// still include them.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Pause-time distribution in nanoseconds, one sample per
    /// collection.
    pub fn pause_hist(&self) -> &Histogram {
        &self.pause_hist
    }

    /// Pause-time distribution of one kind of collection alone (minors
    /// are absent from single-generation runs).
    pub fn pause_hist_of(&self, kind: CollectionKind) -> Histogram {
        let mut h = Histogram::new();
        let minor = kind == CollectionKind::Minor;
        for c in self.collections.iter().filter(|c| c.minor == minor) {
            h.record(c.pause_ns);
        }
        h
    }

    /// Allocation-size distribution in words, one sample per allocation.
    pub fn alloc_hist(&self) -> &Histogram {
        &self.alloc_hist
    }

    /// Request-latency distribution in nanoseconds, one sample per
    /// `RequestEnd` (empty outside serve mode).
    pub fn latency_hist(&self) -> &Histogram {
        &self.latency_hist
    }

    /// Per-call-site allocation/survivor profiles.
    pub fn sites(&self) -> &SiteTable {
        &self.sites
    }

    /// One summary per completed collection, in order.
    pub fn collections(&self) -> &[CollectionSummary] {
        &self.collections
    }

    /// The strategy name seen on collection events, if any collection
    /// ran.
    pub fn strategy(&self) -> Option<&'static str> {
        self.strategy
    }

    /// Overall mutator utilization: the fraction of the run's wall-clock
    /// extent not spent inside a stop-the-world pause. 1.0 for a run
    /// with no pauses (or no events at all).
    pub fn utilization(&self) -> f64 {
        if self.last_t_ns == 0 {
            return 1.0;
        }
        let total = u128::from(self.last_t_ns);
        1.0 - self.pause_hist.sum().min(total) as f64 / total as f64
    }

    /// Minimum mutator utilization for window size `w_ns`: over every
    /// wall-clock interval of length `w_ns` inside the run, the smallest
    /// fraction left to the mutator after subtracting pause overlap.
    /// The minimum is attained with a window edge on a pause boundary,
    /// so only those candidate placements are examined (O(P²) in the
    /// collection count, which is small). Returns 1.0 when there were no
    /// pauses; falls back to overall utilization when `w_ns` exceeds
    /// the run.
    pub fn mmu(&self, w_ns: u64) -> f64 {
        let total = self.last_t_ns;
        if self.collections.is_empty() || total == 0 || w_ns == 0 {
            return 1.0;
        }
        if w_ns >= total {
            return self.utilization();
        }
        let pauses = || {
            self.collections
                .iter()
                .map(|c| (c.end_ns.saturating_sub(c.pause_ns), c.end_ns))
        };
        let util_from = |start: u64| {
            let start = start.min(total - w_ns);
            let end = start + w_ns;
            let overlap: u64 = pauses()
                .map(|(lo, hi)| hi.min(end).saturating_sub(lo.max(start)))
                .sum();
            1.0 - overlap.min(w_ns) as f64 / w_ns as f64
        };
        std::iter::once(0)
            .chain(pauses().flat_map(|(lo, hi)| [lo, hi.saturating_sub(w_ns)]))
            .map(util_from)
            .fold(1.0, f64::min)
    }

    fn aggregate(&mut self, ev: &GcEvent) {
        match *ev {
            GcEvent::CollectionBegin {
                t_ns,
                seq,
                strategy,
                trigger_site,
                heap_used_before,
                ..
            } => {
                self.last_t_ns = self.last_t_ns.max(t_ns);
                self.strategy = Some(strategy);
                self.sites.on_collection_begin();
                self.open = Some(CollectionSummary {
                    seq,
                    trigger_site,
                    heap_used_before,
                    ..CollectionSummary::default()
                });
            }
            GcEvent::CollectionEnd {
                t_ns,
                seq,
                kind,
                pause_ns,
                heap_used_after,
                words_copied,
                frames_visited,
                routine_invocations,
                rt_nodes_built,
                rt_cache_hits,
                rt_cache_misses,
                plan_hits,
                plan_misses,
                plans_compiled,
                ..
            } => {
                self.last_t_ns = self.last_t_ns.max(t_ns);
                self.pause_hist.record(pause_ns);
                self.sites.on_collection_end();
                let mut s = self.open.take().unwrap_or(CollectionSummary {
                    seq,
                    ..CollectionSummary::default()
                });
                s.minor = kind == CollectionKind::Minor;
                s.pause_ns = pause_ns;
                s.end_ns = t_ns;
                s.heap_used_after = heap_used_after;
                s.words_copied = words_copied;
                s.frames_visited = frames_visited;
                s.routine_invocations = routine_invocations;
                s.rt_nodes_built = rt_nodes_built;
                s.rt_cache_hits = rt_cache_hits;
                s.rt_cache_misses = rt_cache_misses;
                s.plan_hits = plan_hits;
                s.plan_misses = plan_misses;
                s.plans_compiled = plans_compiled;
                self.collections.push(s);
            }
            GcEvent::ObjectCopied {
                from, to, words, ..
            } => {
                self.sites.on_copy(from, to, words);
            }
            GcEvent::Alloc {
                t_ns,
                site,
                words,
                addr,
            } => {
                self.last_t_ns = self.last_t_ns.max(t_ns);
                self.alloc_hist.record(u64::from(words));
                self.sites.on_alloc(site, words, addr);
            }
            GcEvent::RequestEnd {
                t_ns, latency_ns, ..
            } => {
                self.last_t_ns = self.last_t_ns.max(t_ns);
                self.latency_hist.record(latency_ns);
            }
            // The other timed events only extend the run.
            GcEvent::TaskParked { t_ns, .. }
            | GcEvent::TaskResumed { t_ns, .. }
            | GcEvent::VerificationEnd { t_ns, .. }
            | GcEvent::FaultInjected { t_ns, .. }
            | GcEvent::HeapGrown { t_ns, .. }
            | GcEvent::RequestStart { t_ns, .. }
            | GcEvent::HeapSample { t_ns, .. }
            | GcEvent::RequestShed { t_ns, .. }
            | GcEvent::DeadlineExceeded { t_ns, .. }
            | GcEvent::BreakerOpen { t_ns, .. }
            | GcEvent::BreakerHalfOpen { t_ns, .. }
            | GcEvent::BreakerClose { t_ns, .. }
            | GcEvent::BacklogSample { t_ns, .. } => self.last_t_ns = self.last_t_ns.max(t_ns),
            GcEvent::FrameVisit { .. } | GcEvent::RoutineRun { .. } | GcEvent::Phase { .. } => {}
        }
    }

    /// Renders the aggregates as a metrics document: histograms
    /// (p50/p90/p99/max plus raw buckets), per-site profiles, and
    /// per-collection summaries. Site/function naming is left to the
    /// caller, which knows the program.
    pub fn metrics_json(&self) -> Json {
        Json::obj([
            ("strategy", self.strategy.map_or(Json::Null, Json::from)),
            ("pause_ns", hist_json(&self.pause_hist)),
            ("alloc_words", hist_json(&self.alloc_hist)),
            (
                "sites",
                Json::Arr(
                    self.sites
                        .profiles()
                        .map(|(site, p)| {
                            Json::obj([
                                ("site", Json::from(site)),
                                ("allocs", Json::from(p.allocs)),
                                ("words", Json::from(p.words)),
                                ("survivors", Json::from(p.survivors)),
                                ("survivor_words", Json::from(p.survivor_words)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "collections",
                Json::Arr(
                    self.collections
                        .iter()
                        .map(|c| {
                            Json::obj([
                                ("seq", Json::from(c.seq)),
                                ("kind", Json::from(if c.minor { "minor" } else { "major" })),
                                ("trigger_site", Json::from(c.trigger_site)),
                                ("heap_used_before", Json::from(c.heap_used_before)),
                                ("heap_used_after", Json::from(c.heap_used_after)),
                                ("words_copied", Json::from(c.words_copied)),
                                ("pause_ns", Json::from(c.pause_ns)),
                                ("frames_visited", Json::from(c.frames_visited)),
                                ("routine_invocations", Json::from(c.routine_invocations)),
                                ("rt_nodes_built", Json::from(c.rt_nodes_built)),
                                ("rt_cache_hits", Json::from(c.rt_cache_hits)),
                                ("rt_cache_misses", Json::from(c.rt_cache_misses)),
                                ("plan_hits", Json::from(c.plan_hits)),
                                ("plan_misses", Json::from(c.plan_misses)),
                                ("plans_compiled", Json::from(c.plans_compiled)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("events_retained", Json::from(self.events.len())),
            ("events_dropped", Json::from(self.dropped)),
        ])
    }

    /// Renders the wall-clock aggregates, a served run's `timing`:
    /// request latency, the pauses of all, minor and major collections,
    /// and utilization with its MMU at 1, 10 and 100 ms windows.
    pub fn timing_json(&self) -> Json {
        Json::obj([
            ("latency_ns", hist_json(&self.latency_hist)),
            ("pause_ns", hist_json(&self.pause_hist)),
            (
                "minor_pause_ns",
                hist_json(&self.pause_hist_of(CollectionKind::Minor)),
            ),
            (
                "major_pause_ns",
                hist_json(&self.pause_hist_of(CollectionKind::Major)),
            ),
            (
                "utilization",
                Json::obj([
                    ("overall", Json::Num(self.utilization())),
                    ("mmu_1ms", Json::Num(self.mmu(1_000_000))),
                    ("mmu_10ms", Json::Num(self.mmu(10_000_000))),
                    ("mmu_100ms", Json::Num(self.mmu(100_000_000))),
                ]),
            ),
        ])
    }
}

/// Histogram as JSON: summary percentiles plus the raw log₂ buckets.
/// `count`/`sum`/`mean` expose the exact accumulators so rate metrics
/// (total pause time, utilization) need no parallel bookkeeping.
pub fn hist_json(h: &Histogram) -> Json {
    Json::obj([
        ("count", Json::from(h.count())),
        ("sum", Json::Num(h.sum() as f64)),
        ("p50", Json::from(h.p50())),
        ("p90", Json::from(h.p90())),
        ("p99", Json::from(h.p99())),
        ("max", Json::from(h.max())),
        ("mean", Json::from(h.mean())),
        (
            "buckets",
            Json::Arr(
                h.buckets()
                    .into_iter()
                    .map(|(le, n)| Json::obj([("le", Json::from(le)), ("count", Json::from(n))]))
                    .collect(),
            ),
        ),
    ])
}

impl GcEventSink for RingRecorder {
    fn record(&mut self, ev: GcEvent) {
        self.aggregate(&ev);
        if !ev.is_timeline() {
            return;
        }
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn begin(seq: u64) -> GcEvent {
        GcEvent::CollectionBegin {
            t_ns: 0,
            seq,
            kind: CollectionKind::Major,
            strategy: "compiled",
            trigger_site: 1,
            heap_used_before: 100,
        }
    }

    fn end(seq: u64, pause_ns: u64) -> GcEvent {
        end_at(seq, 0, CollectionKind::Major, pause_ns)
    }

    /// A collection of `kind` ending at `t_ns` after pausing `pause_ns`.
    fn end_at(seq: u64, t_ns: u64, kind: CollectionKind, pause_ns: u64) -> GcEvent {
        GcEvent::CollectionEnd {
            t_ns,
            seq,
            kind,
            pause_ns,
            heap_used_after: 40,
            words_copied: 40,
            frames_visited: 3,
            routine_invocations: 3,
            rt_nodes_built: 0,
            rt_cache_hits: 0,
            rt_cache_misses: 0,
            plan_hits: 0,
            plan_misses: 0,
            plans_compiled: 0,
        }
    }

    #[test]
    fn ring_drops_oldest_but_aggregates_all() {
        let mut r = RingRecorder::new(2);
        for seq in 0..3u64 {
            r.record(begin(seq));
            r.record(end(seq, 100 * (seq + 1)));
        }
        assert_eq!(r.events().len(), 2);
        assert_eq!(r.dropped(), 4);
        assert!(matches!(
            r.events()[0],
            GcEvent::CollectionBegin { seq: 2, .. }
        ));
        assert_eq!(r.collections().len(), 3, "aggregates see every event");
        assert_eq!(r.pause_hist().count(), 3);
    }

    /// Per-object records feed the aggregates but never the ring, so
    /// they can neither fill it nor push a timeline event out.
    #[test]
    fn ring_keeps_only_timeline_events() {
        let mut r = RingRecorder::new(2);
        r.record(begin(0));
        for i in 0..5u64 {
            r.record(GcEvent::Alloc {
                t_ns: i,
                site: 0,
                words: 2,
                addr: 0x1000 + i * 16,
            });
            r.record(GcEvent::FrameVisit {
                seq: 0,
                fn_id: 1,
                site: 0,
            });
        }
        r.record(end(0, 10));
        assert_eq!(r.events().len(), 2);
        assert_eq!(r.dropped(), 0);
        assert!(r.events().iter().all(GcEvent::is_timeline));
        assert_eq!(r.alloc_hist().count(), 5, "aggregates see every event");
        assert_eq!(r.sites().profile(0).allocs, 5);
    }

    #[test]
    fn collections_are_summarized_and_paused_histogrammed() {
        let mut r = RingRecorder::new(64);
        r.record(GcEvent::Alloc {
            t_ns: 0,
            site: 2,
            words: 4,
            addr: 0x1000,
        });
        r.record(begin(0));
        r.record(GcEvent::ObjectCopied {
            seq: 0,
            from: 0x1000,
            to: 0x9000,
            words: 4,
        });
        r.record(end(0, 1500));
        r.record(begin(1));
        r.record(end(1, 3000));

        assert_eq!(r.collections().len(), 2);
        assert_eq!(r.collections()[0].words_copied, 40);
        assert_eq!(r.pause_hist().count(), 2);
        assert_eq!(r.pause_hist().max(), 3000);
        assert_eq!(r.sites().profile(2).survivor_words, 4);
        assert_eq!(r.strategy(), Some("compiled"));
    }

    #[test]
    fn metrics_json_is_wellformed() {
        let mut r = RingRecorder::new(8);
        r.record(GcEvent::Alloc {
            t_ns: 0,
            site: 1,
            words: 3,
            addr: 0x1000,
        });
        r.record(begin(0));
        r.record(end(0, 2000));
        let doc = r.metrics_json();
        let text = doc.to_json_pretty();
        let back = crate::json::parse(&text).expect("metrics parse");
        assert_eq!(
            back.get("pause_ns").unwrap().get("count").unwrap().as_f64(),
            Some(1.0)
        );
        assert_eq!(back.get("sites").unwrap().as_arr().unwrap().len(), 1);
    }

    #[test]
    fn zero_capacity_keeps_aggregates_only() {
        let mut r = RingRecorder::new(0);
        r.record(begin(0));
        r.record(end(0, 10));
        assert_eq!(r.events().len(), 0);
        assert_eq!(r.dropped(), 2);
        assert_eq!(r.collections().len(), 1);
    }

    #[test]
    fn request_lifecycle_feeds_latency() {
        let mut r = RingRecorder::new(16);
        r.record(GcEvent::RequestStart {
            t_ns: 0,
            req: 0,
            task: 0,
            kind: 1,
        });
        r.record(GcEvent::RequestStart {
            t_ns: 10,
            req: 1,
            task: 1,
            kind: 0,
        });
        r.record(GcEvent::RequestEnd {
            t_ns: 5_000,
            req: 0,
            task: 0,
            latency_ns: 5_000,
            ok: true,
        });
        r.record(GcEvent::RequestEnd {
            t_ns: 9_000,
            req: 1,
            task: 1,
            latency_ns: 8_990,
            ok: false,
        });
        assert_eq!(r.latency_hist().count(), 2);
        assert_eq!(r.latency_hist().max(), 8_990);
    }

    #[test]
    fn pause_histograms_split_by_collection_kind() {
        let mut r = RingRecorder::new(16);
        r.record(end_at(0, 100, CollectionKind::Minor, 50));
        r.record(end_at(1, 200, CollectionKind::Minor, 70));
        r.record(end_at(2, 900, CollectionKind::Major, 400));
        let minor = r.pause_hist_of(CollectionKind::Minor);
        let major = r.pause_hist_of(CollectionKind::Major);
        assert_eq!((minor.count(), minor.max()), (2, 70));
        assert_eq!((major.count(), major.max()), (1, 400));
        assert_eq!(r.pause_hist().count(), 3);
        let back = crate::json::parse(&r.timing_json().to_json_pretty()).expect("parses");
        let count = |key: &str| back.get(key).and_then(|h| h.get("count"))?.as_f64();
        assert_eq!(count("minor_pause_ns"), Some(2.0));
        assert_eq!(count("major_pause_ns"), Some(1.0));
    }

    /// MMU on a constructed schedule: a 200ns pause ending at 500 inside
    /// a 1000ns run. Overall utilization is 0.8; a 200ns window placed
    /// exactly over the pause has utilization 0; a window as long as the
    /// run degenerates to the overall figure.
    #[test]
    fn mmu_finds_the_worst_window() {
        let mut r = RingRecorder::new(4);
        r.record(end_at(0, 500, CollectionKind::Major, 200));
        r.record(GcEvent::Alloc {
            t_ns: 1_000,
            site: 0,
            words: 1,
            addr: 0x1000,
        });
        assert!((r.utilization() - 0.8).abs() < 1e-9);
        assert_eq!(r.mmu(200), 0.0);
        // A 400ns window can at best overlap the whole 200ns pause.
        assert!((r.mmu(400) - 0.5).abs() < 1e-9);
        assert!((r.mmu(1_000) - 0.8).abs() < 1e-9);
        // No pauses → fully utilized.
        let clean = RingRecorder::new(4);
        assert_eq!(clean.mmu(100), 1.0);
        assert_eq!(clean.utilization(), 1.0);
    }

    /// Every timed event extends the run that utilization divides by,
    /// including the serve engine's shed and backlog events.
    #[test]
    fn shed_and_backlog_events_extend_the_run() {
        let mut r = RingRecorder::new(32);
        for (t_ns, req, reason) in [
            (100, 1, "queue-full"),
            (150, 2, "queue-full"),
            (1_200, 3, "breaker-open"),
        ] {
            r.record(GcEvent::RequestShed {
                t_ns,
                req,
                kind: 2,
                reason,
            });
        }
        r.record(end_at(0, 500, CollectionKind::Major, 200));
        r.record(GcEvent::BacklogSample {
            t_ns: 2_500,
            queued: 3,
            waiting: 5,
            watermark: 1,
        });
        assert_eq!(r.events().len(), 5);
        // The sample extends the run to 2500ns, of which the one pause
        // took 200ns.
        assert!((r.utilization() - 0.92).abs() < 1e-9);
    }

    #[test]
    fn timing_json_is_wellformed() {
        let mut r = RingRecorder::new(16);
        r.record(GcEvent::RequestStart {
            t_ns: 0,
            req: 0,
            task: 0,
            kind: 0,
        });
        r.record(end_at(0, 700, CollectionKind::Major, 100));
        r.record(GcEvent::RequestEnd {
            t_ns: 900,
            req: 0,
            task: 0,
            latency_ns: 900,
            ok: true,
        });
        r.record(GcEvent::HeapSample {
            t_ns: 950,
            heap_words: 64,
            live_words: 32,
            nursery_words: 0,
            in_flight: 1,
        });
        let back = crate::json::parse(&r.timing_json().to_json_pretty()).expect("parses");
        assert!(back.get("latency_ns").unwrap().get("sum").is_some());
        let util = back.get("utilization").unwrap();
        let overall = util.get("overall").unwrap().as_f64().unwrap();
        assert!((0.0..=1.0).contains(&overall));
        assert!(util.get("mmu_10ms").is_some());
        // The summaries keep each collection's end, but the metrics
        // document does not export it.
        assert_eq!(r.collections()[0].end_ns, 700);
        let metrics = r.metrics_json().to_json();
        assert!(!metrics.contains("end_ns"), "{metrics}");
    }
}
