//! Spans recorded by the benchmark around its calls into each layer,
//! kept in memory and written out once the run ends, plus the event
//! sinks the benchmark attaches to the program.
//!
//! The program itself has no span API: the benchmark wraps each public
//! call it makes (`parse_program`, `elaborate`, `lower_full`,
//! `Analyses::compute`, `GcMeta::build`, `Compiled::run_with_meta`,
//! `serve_requests_overload`) in a span, and turns the program's own
//! `GcEvent`s into child spans where a sink is attached.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;
use tfgc::obs::{CollectionKind, GcEvent, GcEventSink, Json};

/// One finished span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Request id, for spans of one served request.
    pub req: Option<u64>,
    /// Extra integer attributes (program index, words copied, …).
    pub args: Vec<(&'static str, u64)>,
}

/// Records spans when enabled; when disabled every call is one branch
/// and nothing is stored, so clean passes share the traced code path.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle for an open span; closing it records the duration.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    ix: Option<usize>,
}

impl Tracer {
    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn on() -> Tracer {
        Tracer {
            enabled: true,
            ..Tracer::off()
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open { ix: None };
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start_ns: self.now_ns(),
            dur_ns: 0,
            req: None,
            args: Vec::new(),
        });
        self.open.push(id);
        Open { ix: Some(id) }
    }

    /// Closes `span` (which must be the innermost open one).
    pub fn end(&mut self, span: Open) {
        let Some(ix) = span.ix else { return };
        let now = self.now_ns();
        debug_assert_eq!(self.open.last(), Some(&ix), "spans close in LIFO order");
        self.open.pop();
        let s = &mut self.spans[ix];
        s.dur_ns = now - s.start_ns;
    }

    /// Adds an attribute to an open or closed span.
    pub fn arg(&mut self, span: Open, key: &'static str, value: u64) {
        if let Some(ix) = span.ix {
            self.spans[ix].args.push((key, value));
        }
    }

    /// Records an already-measured span under `parent`.
    pub fn add(
        &mut self,
        parent: Open,
        name: &'static str,
        start_ns: u64,
        dur_ns: u64,
        req: Option<u64>,
        args: Vec<(&'static str, u64)>,
    ) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: parent.ix,
            name,
            start_ns,
            dur_ns,
            req,
            args,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Start and duration of a recorded span.
    pub fn span(&self, span: Open) -> Option<&Span> {
        span.ix.map(|ix| &self.spans[ix])
    }

    /// Chrome trace-event lines (`"ph": "X"` complete events, the format
    /// `tfml run --trace` writes) under process `pid`, led by a metadata
    /// event naming the process.
    pub fn chrome_lines(&self, pid: u64, process: &str) -> Vec<String> {
        let mut out = vec![Json::obj([
            ("name", Json::str("process_name")),
            ("ph", Json::str("M")),
            ("pid", Json::from(pid)),
            ("args", Json::obj([("name", Json::str(process))])),
        ])
        .to_json()];
        for s in &self.spans {
            let mut args = vec![("id".to_string(), Json::from(s.id))];
            if let Some(p) = s.parent {
                args.push(("parent".to_string(), Json::from(p)));
            }
            if let Some(r) = s.req {
                args.push(("req".to_string(), Json::from(r)));
            }
            for (k, v) in &s.args {
                args.push((k.to_string(), Json::from(*v)));
            }
            let line = Json::obj([
                ("name", Json::str(s.name)),
                ("cat", Json::str(layer_of(s.name))),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start_ns as f64 / 1000.0)),
                ("dur", Json::Num(s.dur_ns as f64 / 1000.0)),
                ("pid", Json::from(pid)),
                ("tid", Json::from(1u64)),
                ("args", Json::Obj(args)),
            ]);
            out.push(line.to_json());
        }
        out
    }
}

/// The layer a span name belongs to (its prefix before the first dot).
fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Keeps only `(request id, RequestEnd.latency_ns)`: the cheapest way to
/// see per-request latency, which the engine reports only through its
/// sink.
#[derive(Debug, Default)]
pub struct ProbeSink {
    pub latencies_ns: Rc<RefCell<Vec<(u64, u64)>>>,
}

impl GcEventSink for ProbeSink {
    fn record(&mut self, ev: GcEvent) {
        if let GcEvent::RequestEnd {
            req, latency_ns, ..
        } = ev
        {
            self.latencies_ns.borrow_mut().push((req, latency_ns));
        }
    }
}

/// Keeps the events that become spans and counts every event.
#[derive(Debug, Default)]
pub struct EventLog {
    pub kept: Vec<GcEvent>,
    pub seen: u64,
}

#[derive(Debug, Default)]
pub struct FullSink {
    pub log: Rc<RefCell<EventLog>>,
}

impl GcEventSink for FullSink {
    fn record(&mut self, ev: GcEvent) {
        let mut log = self.log.borrow_mut();
        log.seen += 1;
        if matches!(
            ev,
            GcEvent::CollectionEnd { .. }
                | GcEvent::RequestStart { .. }
                | GcEvent::RequestEnd { .. }
                | GcEvent::VerificationEnd { .. }
        ) {
            log.kept.push(ev);
        }
    }
}

/// Turns a run's kept events into child spans of `parent`. `epoch_ns` is
/// the tracer time at which the run's `Obs` was created (event
/// timestamps count from there).
pub fn event_spans(tr: &mut Tracer, parent: Open, epoch_ns: u64, events: &[GcEvent]) {
    let mut req_start = std::collections::HashMap::new();
    let mut last_end_ns = 0;
    for ev in events {
        match *ev {
            GcEvent::CollectionEnd {
                t_ns,
                seq,
                kind,
                pause_ns,
                words_copied,
                frames_visited,
                ..
            } => {
                // The pause clock starts after `CollectionBegin` is
                // emitted, so the pause ends at this event.
                tr.add(
                    parent,
                    "gc.collect",
                    epoch_ns + t_ns.saturating_sub(pause_ns),
                    pause_ns,
                    None,
                    vec![
                        ("seq", seq),
                        ("minor", u64::from(kind == CollectionKind::Minor)),
                        ("words_copied", words_copied),
                        ("frames_visited", frames_visited),
                    ],
                );
                last_end_ns = t_ns;
            }
            GcEvent::VerificationEnd {
                t_ns, seq, objects, ..
            } => tr.add(
                parent,
                "verify.heap",
                epoch_ns + last_end_ns,
                t_ns.saturating_sub(last_end_ns),
                None,
                vec![("seq", seq), ("objects", objects)],
            ),
            GcEvent::RequestStart { t_ns, req, .. } => {
                req_start.insert(req, t_ns);
            }
            GcEvent::RequestEnd {
                t_ns,
                req,
                latency_ns,
                ok,
                ..
            } => {
                let start = req_start
                    .get(&req)
                    .copied()
                    .unwrap_or(t_ns.saturating_sub(latency_ns));
                tr.add(
                    parent,
                    "tasking.request",
                    epoch_ns + start,
                    latency_ns,
                    Some(req),
                    vec![("ok", u64::from(ok))],
                );
            }
            _ => {}
        }
    }
}
