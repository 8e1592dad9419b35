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
//! * [`GcEventSink`] — where events go. [`RingRecorder`], the one
//!   recorder of batch and served runs alike, keeps a bounded ring of
//!   timeline events ([`GcEvent::is_timeline`]) plus cumulative aggregates
//!   (pause, allocation and request-latency [`Histogram`]s, a
//!   per-call-site [`SiteProfile`] table with GC-survivor attribution,
//!   a [`CollectionSummary`] per collection) and derives mutator
//!   utilization and MMU from the collections' pause intervals. The
//!   deterministic counts of a service run are the request engine's
//!   report, not the recorder's.
//! * [`Obs`] — the handle the runtime threads through the VM, the
//!   collectors, and the scheduler. The disabled ([`Obs::null`]) path is
//!   one predictable branch per emission site: the event value is only
//!   constructed when a sink is attached (the closure passed to
//!   [`Obs::emit`] does not run otherwise). A differential test in the
//!   workspace proves a recorded run is observably identical to an
//!   unobserved one.
//! * [`json`] — a hand-rolled minimal JSON model (writer + parser); the
//!   workspace keeps its no-serde constraint (DESIGN.md §5). It also
//!   holds the one wall-clock convention, [`WALL_CLOCK_KEYS`], and the
//!   [`deterministic_view`] that strips those keys for diffing.
//! * [`chrome`] — `chrome://tracing`-loadable trace output, one event
//!   per line (Chrome's JSON Array Format, which tolerates a missing
//!   closing bracket, so the file is simultaneously line-parseable).
//!
//! Event volume is bounded: the ring keeps no per-frame, per-routine,
//! per-copy or per-allocation record and drops the oldest timeline events
//! past its capacity (counting the drops), while histograms and site
//! profiles aggregate over *all* events ever recorded.

pub mod chrome;
pub mod event;
pub mod hist;
pub mod json;
pub mod ring;
pub mod sink;
pub mod sites;

pub use chrome::write_chrome_trace;
pub use event::{CollectionKind, GcEvent};
pub use hist::Histogram;
pub use json::{deterministic_view, Json, WALL_CLOCK_KEYS};
pub use ring::{CollectionSummary, RingRecorder};
pub use sink::{GcEventSink, Obs};
pub use sites::{SiteProfile, SiteTable};
