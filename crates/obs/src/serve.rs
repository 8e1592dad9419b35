//! Steady-state service metrics (serve mode): the wall-clock half.
//!
//! One-shot runs answer "how much did the whole run cost"; a request
//! server has to answer "what does the *mutator* experience while the
//! collector runs underneath it". This module aggregates the serve-mode
//! event stream into that shape:
//!
//! * a per-request latency [`Histogram`] (from `RequestEnd` events);
//! * pause histograms for all, minor and major collections;
//! * windowed steady-state metrics — per fixed wall-clock window, the
//!   allocation rate, collection count, request completions and sheds,
//!   and the pause distribution inside the window;
//! * a minimum-mutator-utilization (MMU) metric computed from the pause
//!   intervals: for a window size `w`, the smallest fraction of any
//!   length-`w` wall-clock interval the mutator got to run.
//!
//! Everything here depends on wall-clock timestamps. The deterministic
//! counts of a service run (requests, sheds by reason, deadline
//! breaches, breaker transitions, sampled occupancy and backlog peaks)
//! belong to the request engine's own report, which counts them whatever
//! sink is attached.
//!
//! [`ServeRecorder`] wraps a [`RingRecorder`], so everything the ring
//! offers (raw events for Chrome export, pause/alloc histograms, site
//! profiles, collection summaries) stays available; the serve-specific
//! aggregates layer on top. Like every sink it is passive: it only reads
//! the event stream, never feeds anything back into the run.

use crate::event::{CollectionKind, GcEvent};
use crate::hist::Histogram;
use crate::json::Json;
use crate::ring::{hist_json, RingRecorder};
use crate::sink::GcEventSink;

/// Windows tracked per run; later events fold into the last window so
/// the recorder stays bounded even under a clock anomaly.
const MAX_WINDOWS: usize = 1 << 14;

/// Aggregates for one fixed wall-clock window of a service run.
#[derive(Debug, Clone, Default)]
pub struct ServeWindow {
    /// Successful allocations in the window.
    pub allocs: u64,
    /// Words allocated in the window (allocation rate = words / window).
    pub alloc_words: u64,
    /// Collections that *ended* in the window.
    pub collections: u64,
    /// Requests completed (ok or failed) in the window.
    pub requests_completed: u64,
    /// Requests shed by admission control in the window.
    pub requests_shed: u64,
    /// Pause distribution of the window's collections.
    pub pause: Histogram,
}

/// One stop-the-world interval: the collection ended at `end_ns` having
/// paused every task for the preceding `pause_ns`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PauseInterval {
    pub end_ns: u64,
    pub pause_ns: u64,
}

/// The serve-mode sink: a [`RingRecorder`] plus steady-state aggregates.
#[derive(Debug, Clone)]
pub struct ServeRecorder {
    ring: RingRecorder,
    window_ns: u64,
    windows: Vec<ServeWindow>,
    latency: Histogram,
    pauses: Vec<PauseInterval>,
    /// Pause distribution of minor (nursery-only) collections alone.
    minor_pause: Histogram,
    /// Pause distribution of major (full-flip) collections alone.
    major_pause: Histogram,
    /// Largest timestamp seen — the run's wall-clock extent.
    last_t_ns: u64,
}

impl ServeRecorder {
    /// A recorder retaining at most `ring_capacity` raw events and
    /// bucketing steady-state metrics into `window_ns` wall-clock
    /// windows.
    ///
    /// # Panics
    ///
    /// Panics if `window_ns` is 0.
    pub fn new(ring_capacity: usize, window_ns: u64) -> ServeRecorder {
        assert!(window_ns > 0, "window_ns must be positive");
        ServeRecorder {
            ring: RingRecorder::new(ring_capacity),
            window_ns,
            windows: Vec::new(),
            latency: Histogram::new(),
            pauses: Vec::new(),
            minor_pause: Histogram::new(),
            major_pause: Histogram::new(),
            last_t_ns: 0,
        }
    }

    /// The wrapped ring recorder (raw events and general aggregates).
    pub fn ring(&self) -> &RingRecorder {
        &self.ring
    }

    /// Consumes the recorder, returning the wrapped ring.
    pub fn into_ring(self) -> RingRecorder {
        self.ring
    }

    /// Per-request latency distribution in nanoseconds.
    pub fn latency_hist(&self) -> &Histogram {
        &self.latency
    }

    /// Whole-run pause distribution (delegates to the ring).
    pub fn pause_hist(&self) -> &Histogram {
        self.ring.pause_hist()
    }

    /// Pause distribution of minor (nursery-only) collections alone.
    /// Empty in single-generation runs.
    pub fn minor_pause_hist(&self) -> &Histogram {
        &self.minor_pause
    }

    /// Pause distribution of major (full-flip) collections alone.
    pub fn major_pause_hist(&self) -> &Histogram {
        &self.major_pause
    }

    /// The steady-state windows, oldest first. Window `i` covers
    /// `[i * window_ns, (i + 1) * window_ns)`.
    pub fn windows(&self) -> &[ServeWindow] {
        &self.windows
    }

    /// The configured window width in nanoseconds.
    pub fn window_ns(&self) -> u64 {
        self.window_ns
    }

    /// The stop-the-world intervals, in completion order.
    pub fn pauses(&self) -> &[PauseInterval] {
        &self.pauses
    }

    fn window_mut(&mut self, t_ns: u64) -> &mut ServeWindow {
        let ix = ((t_ns / self.window_ns) as usize).min(MAX_WINDOWS - 1);
        if ix >= self.windows.len() {
            self.windows.resize_with(ix + 1, ServeWindow::default);
        }
        &mut self.windows[ix]
    }

    fn touch(&mut self, t_ns: u64) {
        self.last_t_ns = self.last_t_ns.max(t_ns);
    }

    /// Overall mutator utilization: the fraction of the run's wall-clock
    /// extent not spent inside a stop-the-world pause. 1.0 for a run
    /// with no pauses (or no events at all).
    pub fn utilization(&self) -> f64 {
        if self.last_t_ns == 0 {
            return 1.0;
        }
        let paused: u128 = self.pauses.iter().map(|p| u128::from(p.pause_ns)).sum();
        let total = u128::from(self.last_t_ns);
        let frac = 1.0 - (paused.min(total) as f64 / total as f64);
        frac.clamp(0.0, 1.0)
    }

    /// Minimum mutator utilization for window size `w_ns`: over every
    /// wall-clock interval of length `w_ns` inside the run, the smallest
    /// fraction left to the mutator after subtracting pause overlap.
    /// The minimum is attained with a window edge on a pause boundary,
    /// so only those candidate placements are examined (O(P²) in the
    /// pause count, which is small). Returns 1.0 when there were no
    /// pauses; falls back to overall utilization when `w_ns` exceeds
    /// the run.
    pub fn mmu(&self, w_ns: u64) -> f64 {
        if self.pauses.is_empty() || self.last_t_ns == 0 || w_ns == 0 {
            return 1.0;
        }
        let total = self.last_t_ns;
        if w_ns >= total {
            return self.utilization();
        }
        let w = w_ns as f64;
        let mut min_util = 1.0f64;
        let mut consider = |start: u64| {
            let start = start.min(total - w_ns);
            let end = start + w_ns;
            let mut overlap = 0u64;
            for p in &self.pauses {
                let p_start = p.end_ns.saturating_sub(p.pause_ns);
                let lo = p_start.max(start);
                let hi = p.end_ns.min(end);
                if hi > lo {
                    overlap += hi - lo;
                }
            }
            let u = 1.0 - (overlap.min(w_ns) as f64 / w);
            if u < min_util {
                min_util = u;
            }
        };
        consider(0);
        for p in &self.pauses {
            let p_start = p.end_ns.saturating_sub(p.pause_ns);
            consider(p_start);
            consider(p.end_ns.saturating_sub(w_ns));
        }
        min_util.clamp(0.0, 1.0)
    }

    /// The serve metrics document. Every field here is wall-clock
    /// derived: the latency and pause histograms, utilization and MMU,
    /// and the windows.
    pub fn serve_json(&self) -> Json {
        let windows = Json::Arr(
            self.windows
                .iter()
                .enumerate()
                .filter(|(_, w)| {
                    w.allocs > 0
                        || w.collections > 0
                        || w.requests_completed > 0
                        || w.requests_shed > 0
                })
                .map(|(i, w)| {
                    Json::obj([
                        ("window", Json::from(i)),
                        ("allocs", Json::from(w.allocs)),
                        ("alloc_words", Json::from(w.alloc_words)),
                        ("collections", Json::from(w.collections)),
                        ("requests_completed", Json::from(w.requests_completed)),
                        ("requests_shed", Json::from(w.requests_shed)),
                        ("pause_p50", Json::from(w.pause.p50())),
                        ("pause_p90", Json::from(w.pause.p90())),
                        ("pause_p99", Json::from(w.pause.p99())),
                        ("pause_max", Json::from(w.pause.max())),
                    ])
                })
                .collect(),
        );
        Json::obj([
            ("latency_ns", hist_json(&self.latency)),
            ("pause_ns", hist_json(self.ring.pause_hist())),
            ("minor_pause_ns", hist_json(&self.minor_pause)),
            ("major_pause_ns", hist_json(&self.major_pause)),
            (
                "utilization",
                Json::obj([
                    ("overall", Json::Num(self.utilization())),
                    ("mmu_1ms", Json::Num(self.mmu(1_000_000))),
                    ("mmu_10ms", Json::Num(self.mmu(10_000_000))),
                    ("mmu_100ms", Json::Num(self.mmu(100_000_000))),
                ]),
            ),
            ("window_ns", Json::from(self.window_ns)),
            ("windows", windows),
        ])
    }
}

impl GcEventSink for ServeRecorder {
    fn record(&mut self, ev: GcEvent) {
        match ev {
            GcEvent::Alloc { t_ns, words, .. } => {
                self.touch(t_ns);
                let w = self.window_mut(t_ns);
                w.allocs += 1;
                w.alloc_words += u64::from(words);
            }
            GcEvent::CollectionEnd {
                t_ns,
                kind,
                pause_ns,
                ..
            } => {
                self.touch(t_ns);
                let w = self.window_mut(t_ns);
                w.collections += 1;
                w.pause.record(pause_ns);
                match kind {
                    CollectionKind::Minor => self.minor_pause.record(pause_ns),
                    CollectionKind::Major => self.major_pause.record(pause_ns),
                }
                self.pauses.push(PauseInterval {
                    end_ns: t_ns,
                    pause_ns,
                });
            }
            GcEvent::RequestEnd {
                t_ns, latency_ns, ..
            } => {
                self.touch(t_ns);
                self.latency.record(latency_ns);
                self.window_mut(t_ns).requests_completed += 1;
            }
            GcEvent::RequestShed { t_ns, .. } => {
                self.touch(t_ns);
                self.window_mut(t_ns).requests_shed += 1;
            }
            // The rest of the service's events only extend the run.
            GcEvent::RequestStart { t_ns, .. }
            | GcEvent::HeapSample { t_ns, .. }
            | GcEvent::DeadlineExceeded { t_ns, .. }
            | GcEvent::BreakerOpen { t_ns, .. }
            | GcEvent::BreakerHalfOpen { t_ns, .. }
            | GcEvent::BreakerClose { t_ns, .. }
            | GcEvent::BacklogSample { t_ns, .. } => self.touch(t_ns),
            _ => {}
        }
        self.ring.record(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn end(t_ns: u64, pause_ns: u64) -> GcEvent {
        GcEvent::CollectionEnd {
            t_ns,
            seq: 0,
            kind: CollectionKind::Major,
            pause_ns,
            heap_used_after: 0,
            words_copied: 0,
            frames_visited: 0,
            routine_invocations: 0,
            rt_nodes_built: 0,
            rt_cache_hits: 0,
            rt_cache_misses: 0,
            plan_hits: 0,
            plan_misses: 0,
            plans_compiled: 0,
        }
    }

    #[test]
    fn windows_bucket_by_timestamp() {
        let mut r = ServeRecorder::new(16, 1_000);
        r.record(GcEvent::Alloc {
            t_ns: 100,
            site: 0,
            words: 4,
            addr: 0x1000,
        });
        r.record(GcEvent::Alloc {
            t_ns: 2_500,
            site: 0,
            words: 2,
            addr: 0x1010,
        });
        r.record(end(2_700, 300));
        assert_eq!(r.windows().len(), 3);
        assert_eq!(r.windows()[0].allocs, 1);
        assert_eq!(r.windows()[0].alloc_words, 4);
        assert_eq!(r.windows()[1].allocs, 0);
        assert_eq!(r.windows()[2].allocs, 1);
        assert_eq!(r.windows()[2].collections, 1);
        assert_eq!(r.windows()[2].pause.max(), 300);
        // The ring saw everything too.
        assert_eq!(r.ring().alloc_hist().count(), 2);
        assert_eq!(r.pause_hist().count(), 1);
    }

    #[test]
    fn request_lifecycle_feeds_latency_and_counts() {
        let mut r = ServeRecorder::new(16, 1_000_000);
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
        assert_eq!(r.windows()[0].requests_completed, 2);
    }

    #[test]
    fn pause_histograms_split_by_collection_kind() {
        let mut r = ServeRecorder::new(16, 1_000);
        let minor_end = |t_ns, pause_ns| match end(t_ns, pause_ns) {
            GcEvent::CollectionEnd {
                t_ns,
                seq,
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
            } => GcEvent::CollectionEnd {
                t_ns,
                seq,
                kind: CollectionKind::Minor,
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
            },
            _ => unreachable!(),
        };
        r.record(minor_end(100, 50));
        r.record(minor_end(200, 70));
        r.record(end(900, 400));
        assert_eq!(r.minor_pause_hist().count(), 2);
        assert_eq!(r.minor_pause_hist().max(), 70);
        assert_eq!(r.major_pause_hist().count(), 1);
        assert_eq!(r.major_pause_hist().max(), 400);
        assert_eq!(r.pause_hist().count(), 3);
        let back = crate::json::parse(&r.serve_json().to_json_pretty()).expect("parses");
        assert_eq!(
            back.get("minor_pause_ns")
                .unwrap()
                .get("count")
                .unwrap()
                .as_f64(),
            Some(2.0)
        );
        assert_eq!(
            back.get("major_pause_ns")
                .unwrap()
                .get("count")
                .unwrap()
                .as_f64(),
            Some(1.0)
        );
    }

    /// MMU on a constructed schedule: a 200ns pause ending at 500 inside
    /// a 1000ns run. Overall utilization is 0.8; a 200ns window placed
    /// exactly over the pause has utilization 0; a window as long as the
    /// run degenerates to the overall figure.
    #[test]
    fn mmu_finds_the_worst_window() {
        let mut r = ServeRecorder::new(4, 100);
        r.record(end(500, 200));
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
        let clean = ServeRecorder::new(4, 100);
        assert_eq!(clean.mmu(100), 1.0);
        assert_eq!(clean.utilization(), 1.0);
    }

    #[test]
    fn shed_events_fold_into_windows() {
        let mut r = ServeRecorder::new(32, 1_000);
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
        r.record(end(500, 200));
        r.record(GcEvent::BacklogSample {
            t_ns: 2_500,
            queued: 3,
            waiting: 5,
            watermark: 1,
        });
        assert_eq!(r.windows()[0].requests_shed, 2);
        assert_eq!(r.windows()[1].requests_shed, 1);
        assert_eq!(r.ring().events().len(), 5);
        // The sample adds no window but extends the run to 2500ns, of
        // which the one pause took 200ns.
        assert_eq!(r.windows().len(), 2);
        assert!((r.utilization() - 0.92).abs() < 1e-9);
    }

    #[test]
    fn serve_json_is_wellformed() {
        let mut r = ServeRecorder::new(16, 1_000);
        r.record(GcEvent::RequestStart {
            t_ns: 0,
            req: 0,
            task: 0,
            kind: 0,
        });
        r.record(end(700, 100));
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
        let doc = r.serve_json();
        let back = crate::json::parse(&doc.to_json_pretty()).expect("parses");
        let windows = back.get("windows").unwrap().as_arr().unwrap();
        assert_eq!(
            windows[0].get("requests_completed").unwrap().as_f64(),
            Some(1.0)
        );
        assert!(back.get("latency_ns").unwrap().get("sum").is_some());
        let util = back.get("utilization").unwrap();
        let overall = util.get("overall").unwrap().as_f64().unwrap();
        assert!((0.0..=1.0).contains(&overall));
        assert!(util.get("mmu_10ms").is_some());
    }
}
