//! Structured runtime events.
//!
//! Identifiers are raw integers (`CallSiteId.0`, `FnId.0`, thread
//! indexes) so this crate sits below every runtime crate in the
//! dependency graph. Timestamps are nanoseconds since the owning
//! [`crate::Obs`] was created; they never feed back into program
//! behavior, only into exported traces.

/// Whether a collection was a generational nursery cycle or a full
/// semispace flip. Single-generation heaps only ever run `Major`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollectionKind {
    /// Nursery-only cycle: roots traced, survivors evacuated to the
    /// survivor half or promoted to tenured; tenured space untouched.
    Minor,
    /// Full semispace flip (the nursery, if any, is evacuated too).
    Major,
}

impl CollectionKind {
    /// A short stable name (trace/export labels).
    pub fn name(self) -> &'static str {
        match self {
            CollectionKind::Minor => "minor",
            CollectionKind::Major => "major",
        }
    }
}

/// One observable runtime occurrence.
#[derive(Debug, Clone, PartialEq)]
pub enum GcEvent {
    /// A collection is starting. `seq` numbers collections from 0 within
    /// a run; `strategy` is the collector's display name.
    CollectionBegin {
        t_ns: u64,
        seq: u64,
        kind: CollectionKind,
        strategy: &'static str,
        /// The call/allocation site the triggering task is suspended at.
        trigger_site: u32,
        /// From-space words in use when the collection started.
        heap_used_before: u64,
    },
    /// The matching end of `CollectionBegin { seq }`.
    CollectionEnd {
        t_ns: u64,
        seq: u64,
        kind: CollectionKind,
        pause_ns: u64,
        /// Live words after the flip.
        heap_used_after: u64,
        /// Words copied by this collection alone.
        words_copied: u64,
        /// Activation records visited by this collection alone.
        frames_visited: u64,
        /// Frame-routine invocations by this collection alone.
        routine_invocations: u64,
        /// type_gc_routine closure nodes built by this collection alone
        /// (§3's metadata-construction cost).
        rt_nodes_built: u64,
        /// GC-time metadata cache hits by this collection alone.
        rt_cache_hits: u64,
        /// GC-time metadata cache misses by this collection alone.
        rt_cache_misses: u64,
        /// Trace-plan lookups resolved from the plan store by this
        /// collection alone.
        plan_hits: u64,
        /// Trace-plan lookups that had to lower a new plan by this
        /// collection alone.
        plan_misses: u64,
        /// Trace plans lowered by this collection alone.
        plans_compiled: u64,
    },
    /// The collector visited one activation record.
    FrameVisit { seq: u64, fn_id: u32, site: u32 },
    /// The collector ran the frame routine selected by a site's gc_word.
    RoutineRun { seq: u64, site: u32, ops: u32 },
    /// The collector copied one object to to-space. `from`/`to` are
    /// absolute heap addresses; `words` is the copied size including any
    /// header/discriminant words.
    ObjectCopied {
        seq: u64,
        from: u64,
        to: u64,
        words: u32,
    },
    /// The mutator allocated an object. `words` is the total footprint
    /// (payload plus header words, where the encoding has them); `addr`
    /// is the object's absolute address, used for survivor attribution.
    Alloc {
        t_ns: u64,
        site: u32,
        words: u32,
        addr: u64,
    },
    /// A task parked at a safe point for a pending collection (§4).
    TaskParked { t_ns: u64, task: u32, site: u32 },
    /// A parked task resumed after a collection.
    TaskResumed { t_ns: u64, task: u32 },
    /// A front-end pipeline phase (parse, elaborate, lower, analyze) or
    /// metadata build, with its start offset and duration.
    Phase {
        name: &'static str,
        start_ns: u64,
        dur_ns: u64,
    },
    /// The post-collection heap verifier finished its walk of collection
    /// `seq`'s surviving graph.
    VerificationEnd {
        t_ns: u64,
        seq: u64,
        strategy: &'static str,
        /// Reachable objects visited by the verifier.
        objects: u64,
        /// Reachable payload words visited by the verifier.
        words: u64,
        /// False = a heap-invariant violation was found (the run is about
        /// to surface a structured error).
        ok: bool,
    },
    /// A configured deterministic fault fired (`kind` names the fault
    /// class; `seq` is the allocation sequence number it keyed on).
    FaultInjected {
        t_ns: u64,
        kind: &'static str,
        seq: u64,
    },
    /// The heap grew under the bounded growth policy (semispace capacity
    /// in words, before and after).
    HeapGrown {
        t_ns: u64,
        from_words: u64,
        to_words: u64,
    },
    /// Serve mode: a request was dispatched into a task-pool slot. `req`
    /// numbers requests from 0 within a service run; `kind` is the
    /// traffic-mix class the driver assigned.
    RequestStart {
        t_ns: u64,
        req: u64,
        task: u32,
        kind: u32,
    },
    /// The matching completion of `RequestStart { req }`. `ok` is false
    /// when the request was quarantined with a per-task error.
    RequestEnd {
        t_ns: u64,
        req: u64,
        task: u32,
        latency_ns: u64,
        ok: bool,
    },
    /// Serve mode: a heap-occupancy sample, taken on the scheduler's
    /// deterministic cadence (quantum counts and request boundaries, not
    /// wall clock). `heap_words` is from-space in use, `live_words` the
    /// survivors of the most recent collection, `in_flight` the number
    /// of pool slots with an active request, `nursery_words` the
    /// generational nursery's bump position (0 in single-generation
    /// mode).
    HeapSample {
        t_ns: u64,
        heap_words: u64,
        live_words: u64,
        nursery_words: u64,
        in_flight: u32,
    },
    /// Overload management: a request was shed at admission instead of
    /// dispatched. `reason` is one of `queue-full`, `hard-watermark`,
    /// `breaker-open`, `backoff-exhausted`, `degrade`, `drain`.
    RequestShed {
        t_ns: u64,
        req: u64,
        kind: u32,
        reason: &'static str,
    },
    /// A request exceeded its deadline (quanta) or fuel (instructions)
    /// budget and was quarantined at a quantum boundary.
    DeadlineExceeded {
        t_ns: u64,
        req: u64,
        task: u32,
        spent: u64,
        budget: u64,
        /// `"quanta"` or `"instructions"`.
        unit: &'static str,
    },
    /// A handler kind's circuit breaker opened after `consecutive`
    /// quarantines in a row; admissions of that kind fast-reject until
    /// the cooldown elapses.
    BreakerOpen {
        t_ns: u64,
        kind: u32,
        consecutive: u32,
    },
    /// The breaker's cooldown elapsed; one probe request is admitted.
    BreakerHalfOpen { t_ns: u64, kind: u32 },
    /// The half-open probe completed cleanly; the breaker closed.
    BreakerClose { t_ns: u64, kind: u32 },
    /// Overload management: a backlog sample on the same deterministic
    /// cadence as [`GcEvent::HeapSample`]. `queued` counts admitted
    /// requests waiting for a slot, `waiting` counts arrivals deferred by
    /// backoff/throttling, `watermark` is the heap-pressure level
    /// (0 = normal, 1 = soft, 2 = hard).
    BacklogSample {
        t_ns: u64,
        queued: u32,
        waiting: u32,
        watermark: u8,
    },
}

impl GcEvent {
    /// Is this a timeline event, one a trace shows on its own? Every kind
    /// is but the per-frame, per-routine, per-copy and per-allocation
    /// records: a run emits those by the thousand, so only their
    /// aggregates (site profiles, histograms, collection summaries) are
    /// kept.
    pub fn is_timeline(&self) -> bool {
        !matches!(
            self,
            GcEvent::FrameVisit { .. }
                | GcEvent::RoutineRun { .. }
                | GcEvent::ObjectCopied { .. }
                | GcEvent::Alloc { .. }
        )
    }

    /// A short stable name for the event kind (trace/export labels).
    pub fn kind(&self) -> &'static str {
        match self {
            GcEvent::CollectionBegin { .. } => "collection_begin",
            GcEvent::CollectionEnd { .. } => "collection_end",
            GcEvent::FrameVisit { .. } => "frame_visit",
            GcEvent::RoutineRun { .. } => "routine_run",
            GcEvent::ObjectCopied { .. } => "object_copied",
            GcEvent::Alloc { .. } => "alloc",
            GcEvent::TaskParked { .. } => "task_parked",
            GcEvent::TaskResumed { .. } => "task_resumed",
            GcEvent::Phase { .. } => "phase",
            GcEvent::VerificationEnd { .. } => "verification_end",
            GcEvent::FaultInjected { .. } => "fault_injected",
            GcEvent::HeapGrown { .. } => "heap_grown",
            GcEvent::RequestStart { .. } => "request_start",
            GcEvent::RequestEnd { .. } => "request_end",
            GcEvent::HeapSample { .. } => "heap_sample",
            GcEvent::RequestShed { .. } => "request_shed",
            GcEvent::DeadlineExceeded { .. } => "deadline_exceeded",
            GcEvent::BreakerOpen { .. } => "breaker_open",
            GcEvent::BreakerHalfOpen { .. } => "breaker_half_open",
            GcEvent::BreakerClose { .. } => "breaker_close",
            GcEvent::BacklogSample { .. } => "backlog_sample",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_distinct() {
        let evs = [
            GcEvent::FrameVisit {
                seq: 0,
                fn_id: 0,
                site: 0,
            },
            GcEvent::RoutineRun {
                seq: 0,
                site: 0,
                ops: 0,
            },
            GcEvent::TaskResumed { t_ns: 0, task: 0 },
        ];
        let mut kinds: Vec<&str> = evs.iter().map(|e| e.kind()).collect();
        kinds.dedup();
        assert_eq!(kinds.len(), evs.len());
    }
}
