//! Event sinks and the [`Obs`] handle the runtime threads through.

use crate::event::GcEvent;
use crate::ring::RingRecorder;
use std::time::Instant;

/// Where runtime events go.
///
/// Implementations must not assume anything about event ordering beyond:
/// `CollectionBegin { seq }` precedes every event of that collection,
/// which precede its `CollectionEnd { seq }`.
pub trait GcEventSink {
    /// Accepts one event.
    fn record(&mut self, ev: GcEvent);
}

enum SinkKind {
    /// No observation: `emit` is one branch, the event closure never
    /// runs.
    Null,
    /// The in-memory recorder.
    Ring(Box<RingRecorder>),
    /// A caller-provided sink.
    Custom(Box<dyn GcEventSink>),
}

impl std::fmt::Debug for SinkKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SinkKind::Null => write!(f, "Null"),
            SinkKind::Ring(r) => write!(f, "Ring(cap {})", r.capacity()),
            SinkKind::Custom(_) => write!(f, "Custom"),
        }
    }
}

/// The observability handle owned by a VM (and lent to the collectors
/// and scheduler). Cheap to pass around; the null variant costs one
/// branch per emission site.
#[derive(Debug)]
pub struct Obs {
    sink: SinkKind,
    epoch: Instant,
}

impl Default for Obs {
    fn default() -> Self {
        Obs::null()
    }
}

impl Obs {
    /// No observation (the default for every run that doesn't ask).
    pub fn null() -> Obs {
        Obs {
            sink: SinkKind::Null,
            epoch: Instant::now(),
        }
    }

    /// Records into a [`RingRecorder`] keeping at most `capacity` raw
    /// events (aggregates are unbounded and exact).
    pub fn ring(capacity: usize) -> Obs {
        Obs {
            sink: SinkKind::Ring(Box::new(RingRecorder::new(capacity))),
            epoch: Instant::now(),
        }
    }

    /// Records into a caller-provided sink.
    pub fn custom(sink: Box<dyn GcEventSink>) -> Obs {
        Obs {
            sink: SinkKind::Custom(sink),
            epoch: Instant::now(),
        }
    }

    /// Is any sink attached? Emission sites with nontrivial setup (e.g.
    /// assembling per-collection deltas) may skip it when disabled.
    #[inline]
    pub fn enabled(&self) -> bool {
        !matches!(self.sink, SinkKind::Null)
    }

    /// Nanoseconds since this handle was created (the timestamp base of
    /// every emitted event).
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Emits the event produced by `f`, which receives the current
    /// timestamp. When disabled, `f` is not called — emission is a
    /// single branch.
    #[inline]
    pub fn emit(&mut self, f: impl FnOnce(u64) -> GcEvent) {
        match &mut self.sink {
            SinkKind::Null => {}
            SinkKind::Ring(r) => {
                let t = self.epoch.elapsed().as_nanos() as u64;
                r.record(f(t));
            }
            SinkKind::Custom(s) => {
                let t = self.epoch.elapsed().as_nanos() as u64;
                s.record(f(t));
            }
        }
    }

    /// The attached recorder, if this handle records into one.
    pub fn recorder(&self) -> Option<&RingRecorder> {
        match &self.sink {
            SinkKind::Ring(r) => Some(r),
            _ => None,
        }
    }

    /// Consumes the handle, returning its recorder if any.
    pub fn into_recorder(self) -> Option<RingRecorder> {
        match self.sink {
            SinkKind::Ring(r) => Some(*r),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    #[test]
    fn null_never_runs_the_closure() {
        let mut obs = Obs::null();
        assert!(!obs.enabled());
        let ran = Rc::new(Cell::new(false));
        let flag = ran.clone();
        obs.emit(move |_| {
            flag.set(true);
            GcEvent::TaskResumed { t_ns: 0, task: 0 }
        });
        assert!(!ran.get(), "disabled emit must not construct events");
        assert!(obs.recorder().is_none());
    }

    #[test]
    fn ring_records_events() {
        let mut obs = Obs::ring(16);
        assert!(obs.enabled());
        obs.emit(|t| GcEvent::TaskResumed { t_ns: t, task: 7 });
        let rec = obs.recorder().unwrap();
        assert_eq!(rec.events().len(), 1);
        assert!(matches!(
            rec.events()[0],
            GcEvent::TaskResumed { task: 7, .. }
        ));
    }

    #[test]
    fn custom_sink_receives_events() {
        struct Count(Rc<Cell<u32>>);
        impl GcEventSink for Count {
            fn record(&mut self, _ev: GcEvent) {
                self.0.set(self.0.get() + 1);
            }
        }
        let n = Rc::new(Cell::new(0));
        let mut obs = Obs::custom(Box::new(Count(n.clone())));
        obs.emit(|t| GcEvent::TaskResumed { t_ns: t, task: 0 });
        obs.emit(|t| GcEvent::TaskResumed { t_ns: t, task: 1 });
        assert_eq!(n.get(), 2);
    }
}
