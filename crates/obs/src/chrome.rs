//! Chrome trace-event export.
//!
//! Produces the Trace Event JSON Array Format that `chrome://tracing`
//! and Perfetto load. Chrome's parser explicitly tolerates a missing
//! closing `]` and a trailing comma, so the writer emits the opening
//! bracket and then **one complete JSON object per line** — the file is
//! loadable as a trace and simultaneously consumable line-by-line
//! (strip the `[` header line and any trailing comma and each line
//! parses as JSON).
//!
//! Only timeline events ([`GcEvent::is_timeline`]) are written.
//! Mapping:
//! * collections and pipeline phases → complete (`"ph": "X"`) duration
//!   events on the GC/compile tracks;
//! * task park/resume, verifier passes, faults and heap growth →
//!   instant (`"ph": "i"`) events;
//! * serve-mode heap samples → counter (`"ph": "C"`) events on the
//!   `heap_words`, `live_words`, and `in_flight_requests` tracks, so
//!   occupancy and load render as timelines under the duration events;
//! * serve-mode backlog samples → counter events on the
//!   `backlog_queued`, `backlog_waiting`, and `watermark_level` tracks;
//! * circuit-breaker transitions → a `breaker_state_k{kind}` counter
//!   track (0 = closed, 1 = half-open, 2 = open) plus an instant event
//!   per transition;
//! * request sheds and deadline breaches → instant events;
//! * serve-mode request start/end → async (`"ph": "b"`/`"e"`) events
//!   keyed by request id, so each request renders as a span;
//! * allocations, frame visits, routine runs, and object copies are not
//!   exported (volume): their aggregates (per-site allocation counts,
//!   the allocation histogram, per-collection summaries) live in the
//!   metrics document.

use crate::event::GcEvent;
use crate::json::Json;
use std::collections::HashMap;

fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

fn trace_line(
    name: &str,
    cat: &str,
    ph: &str,
    ts_us: f64,
    dur_us: Option<f64>,
    args: Json,
) -> Json {
    let mut pairs = vec![
        ("name".to_string(), Json::str(name)),
        ("cat".to_string(), Json::str(cat)),
        ("ph".to_string(), Json::str(ph)),
        ("ts".to_string(), Json::Num(ts_us)),
        ("pid".to_string(), Json::Num(1.0)),
        ("tid".to_string(), Json::Num(1.0)),
    ];
    if let Some(d) = dur_us {
        pairs.insert(4, ("dur".to_string(), Json::Num(d)));
    }
    if ph == "i" {
        // Instant events need a scope; thread scope keeps them small.
        pairs.push(("s".to_string(), Json::str("t")));
    }
    pairs.push(("args".to_string(), args));
    Json::Obj(pairs)
}

/// A counter (`"ph": "C"`) event: one named series with one value.
fn counter_line(name: &str, ts_us: f64, value: u64) -> Json {
    trace_line(
        name,
        "serve",
        "C",
        ts_us,
        None,
        Json::obj([("value", Json::Num(value as f64))]),
    )
}

/// An async (`"ph": "b"`/`"e"`) event; `id` pairs begins with ends.
fn async_line(name: &str, cat: &str, ph: &str, ts_us: f64, id: u64, args: Json) -> Json {
    let mut l = trace_line(name, cat, ph, ts_us, None, args);
    if let Json::Obj(pairs) = &mut l {
        pairs.insert(3, ("id".to_string(), Json::Num(id as f64)));
    }
    l
}

/// Renders the timeline events among `events` as a Chrome-loadable
/// trace. Returns the full file contents.
pub fn write_chrome_trace(events: &[GcEvent]) -> String {
    let mut out = String::from("[\n");
    // Collection begin timestamps, for pairing with their ends.
    let mut begins: HashMap<u64, (u64, &'static str)> = HashMap::new();
    for ev in events.iter().filter(|e| e.is_timeline()) {
        // Heap samples expand to one counter line per series.
        if let GcEvent::HeapSample {
            t_ns,
            heap_words,
            live_words,
            nursery_words,
            in_flight,
        } = *ev
        {
            for (name, v) in [
                ("heap_words", heap_words),
                ("live_words", live_words),
                ("nursery_words", nursery_words),
                ("in_flight_requests", u64::from(in_flight)),
            ] {
                out.push_str(&counter_line(name, us(t_ns), v).to_json());
                out.push_str(",\n");
            }
            continue;
        }
        // Backlog samples likewise expand to one counter line per series.
        if let GcEvent::BacklogSample {
            t_ns,
            queued,
            waiting,
            watermark,
        } = *ev
        {
            for (name, v) in [
                ("backlog_queued", u64::from(queued)),
                ("backlog_waiting", u64::from(waiting)),
                ("watermark_level", u64::from(watermark)),
            ] {
                out.push_str(&counter_line(name, us(t_ns), v).to_json());
                out.push_str(",\n");
            }
            continue;
        }
        // Breaker transitions get a per-kind state counter track in
        // addition to the instant event the match below emits.
        if let Some((t_ns, kind, level)) = match *ev {
            GcEvent::BreakerOpen { t_ns, kind, .. } => Some((t_ns, kind, 2)),
            GcEvent::BreakerHalfOpen { t_ns, kind } => Some((t_ns, kind, 1)),
            GcEvent::BreakerClose { t_ns, kind } => Some((t_ns, kind, 0)),
            _ => None,
        } {
            let line = counter_line(&format!("breaker_state_k{kind}"), us(t_ns), level);
            out.push_str(&line.to_json());
            out.push_str(",\n");
        }
        let line = match *ev {
            GcEvent::CollectionBegin {
                t_ns,
                seq,
                strategy,
                ..
            } => {
                begins.insert(seq, (t_ns, strategy));
                None
            }
            GcEvent::CollectionEnd {
                t_ns,
                seq,
                kind,
                pause_ns,
                heap_used_after,
                words_copied,
                frames_visited,
                ..
            } => {
                let (start, strategy) = begins
                    .remove(&seq)
                    .unwrap_or((t_ns.saturating_sub(pause_ns), "?"));
                Some(trace_line(
                    &format!("gc #{seq}"),
                    "gc",
                    "X",
                    us(start),
                    Some(us(pause_ns)),
                    Json::obj([
                        ("strategy", Json::str(strategy)),
                        ("kind", Json::str(kind.name())),
                        ("words_copied", Json::from(words_copied)),
                        ("heap_used_after", Json::from(heap_used_after)),
                        ("frames_visited", Json::from(frames_visited)),
                    ]),
                ))
            }
            GcEvent::TaskParked { t_ns, task, site } => Some(trace_line(
                &format!("park t{task}"),
                "task",
                "i",
                us(t_ns),
                None,
                Json::obj([("task", Json::from(task)), ("site", Json::from(site))]),
            )),
            GcEvent::TaskResumed { t_ns, task } => Some(trace_line(
                &format!("resume t{task}"),
                "task",
                "i",
                us(t_ns),
                None,
                Json::obj([("task", Json::from(task))]),
            )),
            GcEvent::Phase {
                name,
                start_ns,
                dur_ns,
            } => Some(trace_line(
                name,
                "compile",
                "X",
                us(start_ns),
                Some(us(dur_ns)),
                Json::obj([]),
            )),
            GcEvent::VerificationEnd {
                t_ns,
                seq,
                strategy,
                objects,
                words,
                ok,
            } => Some(trace_line(
                &format!("verify #{seq}"),
                "verify",
                "i",
                us(t_ns),
                None,
                Json::obj([
                    ("strategy", Json::str(strategy)),
                    ("objects", Json::from(objects)),
                    ("words", Json::from(words)),
                    ("ok", Json::Bool(ok)),
                ]),
            )),
            GcEvent::FaultInjected { t_ns, kind, seq } => Some(trace_line(
                &format!("fault {kind}"),
                "fault",
                "i",
                us(t_ns),
                None,
                Json::obj([("kind", Json::str(kind)), ("seq", Json::from(seq))]),
            )),
            GcEvent::HeapGrown {
                t_ns,
                from_words,
                to_words,
            } => Some(trace_line(
                "heap grow",
                "gc",
                "i",
                us(t_ns),
                None,
                Json::obj([
                    ("from_words", Json::from(from_words)),
                    ("to_words", Json::from(to_words)),
                ]),
            )),
            GcEvent::RequestStart {
                t_ns, req, kind, ..
            } => Some(async_line(
                "req",
                "request",
                "b",
                us(t_ns),
                req,
                Json::obj([("req", Json::from(req)), ("kind", Json::from(kind))]),
            )),
            GcEvent::RequestEnd {
                t_ns,
                req,
                latency_ns,
                ok,
                ..
            } => Some(async_line(
                "req",
                "request",
                "e",
                us(t_ns),
                req,
                Json::obj([
                    ("latency_us", Json::Num(us(latency_ns))),
                    ("ok", Json::Bool(ok)),
                ]),
            )),
            GcEvent::RequestShed {
                t_ns, req, reason, ..
            } => Some(trace_line(
                "shed",
                "serve",
                "i",
                us(t_ns),
                None,
                Json::obj([("req", Json::from(req)), ("reason", Json::str(reason))]),
            )),
            GcEvent::DeadlineExceeded {
                t_ns,
                req,
                spent,
                budget,
                unit,
                ..
            } => Some(trace_line(
                "deadline exceeded",
                "serve",
                "i",
                us(t_ns),
                None,
                Json::obj([
                    ("req", Json::from(req)),
                    ("spent", Json::from(spent)),
                    ("budget", Json::from(budget)),
                    ("unit", Json::str(unit)),
                ]),
            )),
            GcEvent::BreakerOpen {
                t_ns,
                kind,
                consecutive,
            } => Some(trace_line(
                &format!("breaker open k{kind}"),
                "serve",
                "i",
                us(t_ns),
                None,
                Json::obj([
                    ("kind", Json::from(kind)),
                    ("consecutive", Json::from(consecutive)),
                ]),
            )),
            GcEvent::BreakerHalfOpen { t_ns, kind } => Some(trace_line(
                &format!("breaker half-open k{kind}"),
                "serve",
                "i",
                us(t_ns),
                None,
                Json::obj([("kind", Json::from(kind))]),
            )),
            GcEvent::BreakerClose { t_ns, kind } => Some(trace_line(
                &format!("breaker close k{kind}"),
                "serve",
                "i",
                us(t_ns),
                None,
                Json::obj([("kind", Json::from(kind))]),
            )),
            GcEvent::FrameVisit { .. }
            | GcEvent::RoutineRun { .. }
            | GcEvent::ObjectCopied { .. }
            | GcEvent::Alloc { .. }
            | GcEvent::HeapSample { .. }
            | GcEvent::BacklogSample { .. } => None,
        };
        if let Some(l) = line {
            out.push_str(&l.to_json());
            out.push_str(",\n");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn sample_events() -> Vec<GcEvent> {
        vec![
            GcEvent::Phase {
                name: "parse",
                start_ns: 0,
                dur_ns: 5_000,
            },
            GcEvent::Alloc {
                t_ns: 10_000,
                site: 3,
                words: 4,
                addr: 0x1000,
            },
            GcEvent::CollectionBegin {
                t_ns: 20_000,
                seq: 0,
                kind: crate::event::CollectionKind::Major,
                strategy: "compiled",
                trigger_site: 3,
                heap_used_before: 64,
            },
            GcEvent::ObjectCopied {
                seq: 0,
                from: 0x1000,
                to: 0x9000,
                words: 4,
            },
            GcEvent::CollectionEnd {
                t_ns: 45_000,
                seq: 0,
                kind: crate::event::CollectionKind::Major,
                pause_ns: 25_000,
                heap_used_after: 4,
                words_copied: 4,
                frames_visited: 2,
                routine_invocations: 2,
                rt_nodes_built: 0,
                rt_cache_hits: 0,
                rt_cache_misses: 0,
                plan_hits: 0,
                plan_misses: 0,
                plans_compiled: 0,
            },
            GcEvent::TaskParked {
                t_ns: 50_000,
                task: 1,
                site: 3,
            },
            GcEvent::TaskResumed {
                t_ns: 60_000,
                task: 1,
            },
        ]
    }

    #[test]
    fn every_line_is_json_and_the_array_loads() {
        let text = write_chrome_trace(&sample_events());
        assert!(text.starts_with("[\n"));
        // Line-wise: each non-bracket line is a complete JSON object.
        let mut n = 0;
        for line in text.lines().skip(1) {
            let line = line.trim_end_matches(',');
            if line.is_empty() {
                continue;
            }
            let v = json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
            assert!(v.get("ph").is_some());
            assert!(v.get("ts").is_some());
            n += 1;
        }
        // Phase + gc + park + resume (allocations and copies are not
        // timeline events).
        assert_eq!(n, 4);
        assert!(!text.contains("\"alloc\""), "{text}");
        // Whole-file: closing the array makes it strict JSON, as
        // Chrome's tolerant parser effectively does.
        let closed = format!("{}]", text.trim_end().trim_end_matches(','));
        let doc = json::parse(&closed).expect("array form parses");
        assert_eq!(doc.as_arr().unwrap().len(), 4);
    }

    /// Counter events: each heap sample expands to the three counter
    /// series, every counter line is well-formed `"ph": "C"` with a
    /// numeric value, and counters appear in non-decreasing timestamp
    /// order (the loading-order contract — Chrome sorts by `ts`, but a
    /// monotone file round-trips bit-identically and diffs cleanly).
    #[test]
    fn counter_events_are_ordered_and_complete() {
        let evs = vec![
            GcEvent::HeapSample {
                t_ns: 10_000,
                heap_words: 512,
                live_words: 128,
                nursery_words: 32,
                in_flight: 4,
            },
            GcEvent::RequestStart {
                t_ns: 12_000,
                req: 0,
                task: 1,
                kind: 2,
            },
            GcEvent::HeapSample {
                t_ns: 20_000,
                heap_words: 640,
                live_words: 130,
                nursery_words: 48,
                in_flight: 4,
            },
            GcEvent::RequestEnd {
                t_ns: 26_000,
                req: 0,
                task: 1,
                latency_ns: 14_000,
                ok: true,
            },
            GcEvent::HeapSample {
                t_ns: 30_000,
                heap_words: 64,
                live_words: 64,
                nursery_words: 0,
                in_flight: 3,
            },
        ];
        let text = write_chrome_trace(&evs);
        let mut counters: Vec<(String, f64, f64)> = Vec::new();
        let mut asyncs = 0;
        for line in text.lines().skip(1) {
            let line = line.trim_end_matches(',');
            if line.is_empty() {
                continue;
            }
            let v = json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
            match v.get("ph") {
                Some(Json::Str(ph)) if ph == "C" => {
                    let name = match v.get("name") {
                        Some(Json::Str(n)) => n.clone(),
                        other => panic!("counter without name: {other:?}"),
                    };
                    let ts = v.get("ts").unwrap().as_f64().unwrap();
                    let value = v
                        .get("args")
                        .and_then(|a| a.get("value"))
                        .and_then(Json::as_f64)
                        .expect("counter value is numeric");
                    counters.push((name, ts, value));
                }
                Some(Json::Str(ph)) if ph == "b" || ph == "e" => {
                    assert!(v.get("id").is_some(), "async events carry an id");
                    asyncs += 1;
                }
                _ => {}
            }
        }
        // Four series per sample, three samples.
        assert_eq!(counters.len(), 12);
        for series in [
            "heap_words",
            "live_words",
            "nursery_words",
            "in_flight_requests",
        ] {
            let ts: Vec<f64> = counters
                .iter()
                .filter(|(n, _, _)| n == series)
                .map(|(_, t, _)| *t)
                .collect();
            assert_eq!(ts.len(), 3, "{series}");
            assert!(
                ts.windows(2).all(|w| w[0] <= w[1]),
                "{series} counters out of loading order: {ts:?}"
            );
        }
        // The last sample's values made it through.
        let last_heap = counters
            .iter()
            .rfind(|(n, _, _)| n == "heap_words")
            .unwrap();
        assert_eq!(last_heap.2, 64.0);
        assert_eq!(asyncs, 2, "request start + end exported as async pair");
    }

    /// Overload tracks: backlog samples expand to their three counter
    /// series in loading order, breaker transitions produce both a
    /// per-kind state counter and an instant event, and sheds/deadline
    /// breaches export as instants.
    #[test]
    fn overload_counter_tracks_are_ordered_and_complete() {
        let evs = vec![
            GcEvent::BacklogSample {
                t_ns: 10_000,
                queued: 2,
                waiting: 4,
                watermark: 0,
            },
            GcEvent::RequestShed {
                t_ns: 12_000,
                req: 7,
                kind: 1,
                reason: "queue-full",
            },
            GcEvent::BreakerOpen {
                t_ns: 14_000,
                kind: 1,
                consecutive: 3,
            },
            GcEvent::BacklogSample {
                t_ns: 20_000,
                queued: 5,
                waiting: 1,
                watermark: 2,
            },
            GcEvent::DeadlineExceeded {
                t_ns: 22_000,
                req: 3,
                task: 0,
                spent: 40,
                budget: 32,
                unit: "quanta",
            },
            GcEvent::BreakerHalfOpen {
                t_ns: 24_000,
                kind: 1,
            },
            GcEvent::BreakerClose {
                t_ns: 26_000,
                kind: 1,
            },
            GcEvent::BacklogSample {
                t_ns: 30_000,
                queued: 0,
                waiting: 0,
                watermark: 0,
            },
        ];
        let text = write_chrome_trace(&evs);
        let mut counters: Vec<(String, f64, f64)> = Vec::new();
        let mut instants: Vec<String> = Vec::new();
        for line in text.lines().skip(1) {
            let line = line.trim_end_matches(',');
            if line.is_empty() {
                continue;
            }
            let v = json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
            let name = match v.get("name") {
                Some(Json::Str(n)) => n.clone(),
                other => panic!("line without name: {other:?}"),
            };
            match v.get("ph") {
                Some(Json::Str(ph)) if ph == "C" => {
                    let ts = v.get("ts").unwrap().as_f64().unwrap();
                    let value = v
                        .get("args")
                        .and_then(|a| a.get("value"))
                        .and_then(Json::as_f64)
                        .expect("counter value is numeric");
                    counters.push((name, ts, value));
                }
                Some(Json::Str(ph)) if ph == "i" => instants.push(name),
                _ => {}
            }
        }
        // Three series per backlog sample, three samples, plus three
        // breaker-state counter points.
        for series in ["backlog_queued", "backlog_waiting", "watermark_level"] {
            let pts: Vec<(f64, f64)> = counters
                .iter()
                .filter(|(n, _, _)| n == series)
                .map(|(_, t, v)| (*t, *v))
                .collect();
            assert_eq!(pts.len(), 3, "{series}");
            assert!(
                pts.windows(2).all(|w| w[0].0 <= w[1].0),
                "{series} counters out of loading order: {pts:?}"
            );
        }
        let breaker: Vec<(f64, f64)> = counters
            .iter()
            .filter(|(n, _, _)| n == "breaker_state_k1")
            .map(|(_, t, v)| (*t, *v))
            .collect();
        assert_eq!(
            breaker,
            vec![(14.0, 2.0), (24.0, 1.0), (26.0, 0.0)],
            "open → half-open → closed renders as 2 → 1 → 0"
        );
        // Watermark values survived the expansion.
        let wm: Vec<f64> = counters
            .iter()
            .filter(|(n, _, _)| n == "watermark_level")
            .map(|(_, _, v)| *v)
            .collect();
        assert_eq!(wm, vec![0.0, 2.0, 0.0]);
        for inst in [
            "shed",
            "deadline exceeded",
            "breaker open k1",
            "breaker half-open k1",
            "breaker close k1",
        ] {
            assert!(
                instants.iter().any(|n| n == inst),
                "missing instant {inst}: {instants:?}"
            );
        }
    }

    #[test]
    fn gc_duration_event_pairs_begin_end() {
        let text = write_chrome_trace(&sample_events());
        let gc_line = text
            .lines()
            .find(|l| l.contains("\"gc #0\""))
            .expect("gc event present");
        let v = json::parse(gc_line.trim_end_matches(',')).unwrap();
        assert_eq!(v.get("ph").unwrap(), &Json::str("X"));
        assert_eq!(v.get("ts").unwrap().as_f64(), Some(20.0)); // µs
        assert_eq!(v.get("dur").unwrap().as_f64(), Some(25.0)); // µs
    }
}
