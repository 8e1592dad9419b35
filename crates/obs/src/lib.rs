//! # tfgc-obs — observability for the tag-free GC runtime
//!
//! The paper's evaluation is a set of claims about runtime behavior
//! (heap words saved, frames visited, pause costs of compiled vs.
//! interpreted metadata). This crate records what actually happened, as
//! structured events, without perturbing the runs that don't ask for it:
//!
//! * [`GcEvent`] — one record per interesting runtime occurrence:
//!   collection begin/end, per-frame visit, frame-routine invocation,
//!   type-closure construction, per-call-site allocation, object copy,
//!   task park/resume, pipeline phase.
//! * [`GcEventSink`] — where events go. [`NullSink`] drops them;
//!   [`RingRecorder`] keeps a bounded ring of raw events plus cumulative
//!   aggregates (pause/alloc [`Histogram`]s, a per-call-site
//!   [`SiteProfile`] table with GC-survivor attribution).
//! * [`Obs`] — the handle the runtime threads through the VM, the
//!   collectors, and the scheduler. The disabled ([`Obs::null`]) path is
//!   one predictable branch per emission site: the event value is only
//!   constructed when a sink is attached (the closure passed to
//!   [`Obs::emit`] does not run otherwise). A differential test in the
//!   workspace proves a `NullSink` run is observably identical to a
//!   build without observability.
//! * [`ServeRecorder`] — the serve-mode sink: a ring plus the
//!   wall-clock service metrics (per-request latency and pause
//!   histograms, windowed allocation/pause metrics, and an MMU-style
//!   mutator-utilization figure from the pause intervals). The
//!   deterministic counts of a service run are the request engine's
//!   report, not the sink's.
//! * [`json`] — a hand-rolled minimal JSON model (writer + parser); the
//!   workspace keeps its no-serde constraint (DESIGN.md §5). It also
//!   holds the one wall-clock convention, [`WALL_CLOCK_KEYS`], and the
//!   [`deterministic_view`] that strips those keys for diffing.
//! * [`chrome`] — `chrome://tracing`-loadable trace output, one event
//!   per line (Chrome's JSON Array Format, which tolerates a missing
//!   closing bracket, so the file is simultaneously line-parseable).
//!
//! Event volume is bounded: the ring drops the oldest events past its
//! capacity (counting the drops), while histograms and site profiles
//! aggregate over *all* events ever recorded.

pub mod chrome;
pub mod event;
pub mod hist;
pub mod json;
pub mod ring;
pub mod serve;
pub mod sink;
pub mod sites;

pub use chrome::write_chrome_trace;
pub use event::{CollectionKind, GcEvent};
pub use hist::Histogram;
pub use json::{deterministic_view, Json, WALL_CLOCK_KEYS};
pub use ring::{CollectionSummary, RingRecorder};
pub use serve::{PauseInterval, ServeRecorder, ServeWindow};
pub use sink::{GcEventSink, NullSink, Obs};
pub use sites::{SiteProfile, SiteTable};
